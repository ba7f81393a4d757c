"""Execution of forall/where IR over CSF tensors as generated Python kernels.

Each call walks the IR once, checking the schedule and writing the source of
one function in which loop variables, CSF positions and counters are locals.
A ``forall`` drilled by a single CSF operand steps through that fiber's
positions; other loops iterate the sorted union of the coordinate streams of
the present operands that drill them, or the full index range when some
statement reaches the index only through dense operands, and find each
operand's position by bisection. Dense inputs and workspaces are flat lists
indexed with row-major strides. A statement contributes only when every
sparse operand carries the current coordinates and no factor is exactly zero.
Each ``where`` zeroes the producer's workspaces, runs the producer, then the
consumer, once per enclosing iteration.

The source numbers every identifier and passes all data as parameters, so it
depends on the IR's structure alone; its code object is compiled once and
cached by the source text. Dense n-ary and unfused sequential oracles provide
independent ground truth for the kernels.
"""

from __future__ import annotations

import bisect
import functools
import math
import string
from dataclasses import dataclass, field
from types import CodeType
from typing import Mapping, Sequence

import numpy as np

from .constraints import ScheduleSolution
from .errors import (
    ExtentMismatchError,
    MalformedScheduleError,
    ModeOrderMismatchError,
    ShapeMismatchError,
    TooLargeError,
    UnboundTensorError,
)
from .lowering import Assign, Forall, IrNode, Where
from .network import ContractionTree, TensorRef
from .tensor import CsfTensor, SparseTensor, coo_from_entries, csf_build

DENSE_SPACE_BUDGET = 100_000_000


@dataclass
class ExecStats:
    """Exact operation and memory counters for one execute call."""

    multiply_adds: int = 0
    max_workspace_cells: int = 0
    per_assignment: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "multiply_adds": self.multiply_adds,
            "max_workspace_cells": self.max_workspace_cells,
            "per_assignment": [
                {"result": name, "count": self.per_assignment[name]}
                for name in sorted(self.per_assignment)
            ],
        }


@dataclass(frozen=True)
class Binding:
    """Input tensors prepared for execution under one schedule.

    CSF inputs are built with the solution's mode orders; tensors flagged
    dense are kept as plain arrays in their declared mode order. ``raw``
    keeps the canonical tensors for oracles.
    """

    tree: ContractionTree
    raw: Mapping[str, SparseTensor]
    csf: Mapping[str, CsfTensor]
    dense: Mapping[str, np.ndarray]


def bind(
    tree: ContractionTree,
    sol: ScheduleSolution,
    tensors: Mapping[str, SparseTensor],
    dense_names: Sequence[str] = (),
) -> Binding:
    """Validate shapes against declared extents and build per-layout CSF trees."""
    csf: dict[str, CsfTensor] = {}
    dense: dict[str, np.ndarray] = {}
    raw: dict[str, SparseTensor] = {}
    for name in tree.input_names:
        if name not in tensors:
            raise UnboundTensorError(f"no tensor bound for input '{name}'")
        t = tensors[name]
        ref = tree.abstract_ref(name)
        expected = tree.ref_shape(ref)
        if t.shape != expected:
            raise ExtentMismatchError(
                ref.indices[0],
                f"tensor '{name}' has shape {t.shape}, declared extents give {expected}",
            )
        raw[name] = t
        if name in dense_names or t.order == 0:
            dense[name] = t.to_dense()
        else:
            csf[name] = csf_build(t, sol.mode_perm(name))
    return Binding(tree, raw, csf, dense)


def _extent(extents: Mapping[str, int], index: str) -> int:
    try:
        return extents[index]
    except KeyError:
        raise ExtentMismatchError(index, f"no extent declared for index '{index}'") from None


@functools.lru_cache(maxsize=1024)  # room for a thousand small kernels, about 4 kB each
def _compiled(source: str) -> CodeType:
    """Code object of one kernel source; the text holds no network names or data."""
    return compile(source, "<fusetree kernel>", "exec")


@dataclass
class _Fiber:
    """One CSF operand of one statement, with position locals ``p<n>_<level>``."""

    n: int
    searched: list[bool]  # per level: found by bisection, so the position may be -1


@dataclass
class _Loop:
    """A ``forall``: its local, the fiber levels it drives, how it iterates."""

    var: str
    drivers: list[tuple[_Fiber, int]] = field(default_factory=list)
    full: bool = False  # some statement reaches the index only through dense operands
    extent: str | None = None  # parameter of a full-range loop
    body: object = None


@dataclass
class _Where:
    zero: list[str]  # workspaces
    producer: object
    consumer: object


@dataclass
class _Stmt:
    """An ``Assign``: its counter, CSF operands, factors and update lines."""

    n: int
    fibers: list[_Fiber]
    factors: list[str]
    update: list[str]


class _Kernel:
    """One IR under one binding: the schedule's typed checks and its kernel source.

    Planning walks the IR once, raising on a malformed schedule and numbering
    every identifier the kernel uses, so that no network name reaches the
    source; the data travel as parameters. Rendering then decides per loop
    whether it steps through one fiber's positions, a sorted coordinate union
    or the full range, which needs the whole loop body planned first.
    """

    def __init__(self, ir: IrNode, binding: Binding):
        tree = binding.tree
        self.binding = binding
        self.extents = tree.extents
        self.root = tree.root.result
        self.intermediates = set(tree.intermediate_names)
        self.params: dict[str, object] = {"bl": bisect.bisect_left}
        self.dense: dict[str, tuple[str, list[str | None]]] = {}
        self.workspaces: dict[str, tuple[str, tuple[str, ...], list[str | None]]] = {}
        self.cells: list[int] = []
        self.stmts: list[tuple[str, set[str]]] = []  # result and operand names
        self.loops = 0
        self.fibers = 0
        self.plan = self._plan(ir, {})

    def _param(self, name: str, value: object) -> str:
        self.params[name] = value
        return name

    def _strides(self, var: str, dims: Sequence[int]) -> list[str | None]:
        """Row-major stride parameters; the innermost stride is 1 and omitted."""
        strides: list[str | None] = []
        for j in range(len(dims)):
            inner = dims[j + 1 :]
            strides.append(self._param(f"{var}s{j}", math.prod(inner)) if inner else None)
        return strides

    def _var(self, ref: TensorRef, index: str, scope: Mapping[str, _Loop]) -> str:
        if index not in scope:
            raise ModeOrderMismatchError(
                f"reference {ref}: index '{index}' not bound by an enclosing loop"
            )
        return scope[index].var

    def _offset(self, ref, indices, strides, scope) -> str:
        terms = []
        for index, stride in zip(indices, strides):
            var = self._var(ref, index, scope)
            terms.append(var if stride is None else f"{var} * {stride}")
        return " + ".join(terms) or "0"

    def _workspace(self, ref: TensorRef, scope: Mapping[str, _Loop]) -> str:
        if ref.tensor not in self.workspaces:
            raise UnboundTensorError(f"no binding or workspace for tensor '{ref.tensor}'")
        var, layout, strides = self.workspaces[ref.tensor]
        if ref.indices != layout:
            raise ModeOrderMismatchError(f"reference {ref} disagrees with workspace layout {layout}")
        return f"{var}[{self._offset(ref, layout, strides, scope)}]"

    def _plan(self, node: IrNode, scope: dict[str, _Loop]):
        if isinstance(node, Forall):
            if node.index in scope:
                raise MalformedScheduleError(f"loop index '{node.index}' bound twice")
            loop = _Loop(f"x{self.loops}")
            self.loops += 1
            loop.body = self._plan(node.body, {**scope, node.index: loop})
            if loop.full or not loop.drivers:
                loop.extent = self._param(f"e{loop.var}", _extent(self.extents, node.index))
            return loop
        if isinstance(node, Where):
            start = len(self.stmts)
            producer = self._plan(node.producer, scope)
            mid = len(self.stmts)
            consumer = self._plan(node.consumer, scope)
            links = {name for name, _ in self.stmts[start:mid]}
            links &= set().union(*(names for _, names in self.stmts[mid:]))
            zero = [self.workspaces[name][0] for name in sorted(links) if name in self.workspaces]
            return _Where(zero, producer, consumer)
        return self._statement(node, scope)

    def _statement(self, node: Assign, scope: dict[str, _Loop]) -> _Stmt:
        binding = self.binding
        contraction = binding.tree.contractions[node.cid]
        order = list(scope)
        fibers: list[_Fiber] = []
        factors: list[str] = []
        sparse_at: dict[str, bool] = {}
        for ref, abstract in ((node.lhs, contraction.lhs), (node.rhs, contraction.rhs)):
            for index in ref.indices:
                self._var(ref, index, scope)
                sparse_at.setdefault(index, False)
            name = ref.tensor
            if name in binding.csf:
                positions = [order.index(index) for index in ref.indices]
                if positions != sorted(positions):
                    raise ModeOrderMismatchError(
                        f"reference {ref}: CSF layout incompatible with loop order {order}"
                    )
                csf = binding.csf[name]
                fiber = _Fiber(self.fibers, [False] * csf.order)
                self.fibers += 1
                for level, index in enumerate(ref.indices):
                    self._param(f"c{fiber.n}_{level}", csf.coords[level])
                    self._param(f"s{fiber.n}_{level}", csf.segs[level])
                    scope[index].drivers.append((fiber, level))
                    sparse_at[index] = True
                values = self._param(f"v{fiber.n}", csf.values)
                factors.append(f"{values}[p{fiber.n}_{csf.order - 1}]")
                fibers.append(fiber)
            elif name in binding.dense:
                if name not in self.dense:
                    array = binding.dense[name]
                    var = self._param(f"d{len(self.dense)}", array.ravel().tolist())
                    self.dense[name] = (var, self._strides(var, array.shape))
                var, strides = self.dense[name]
                factors.append(f"{var}[{self._offset(ref, abstract.indices, strides, scope)}]")
            else:
                factors.append(self._workspace(ref, scope))
        # a loop this statement reaches only through dense operands or
        # workspaces runs over the full range
        for index, sparse in sparse_at.items():
            if not sparse:
                scope[index].full = True

        name = node.result.tensor
        if name == self.root.tensor:
            key = "".join(self._var(node.result, index, scope) + ", " for index in self.root.indices)
            update = [f"k = ({key.rstrip()})", "acc[k] = get(k, 0.0) + f * g"]
        else:
            if name in self.intermediates and name not in self.workspaces:
                dims = [_extent(self.extents, index) for index in node.result.indices]
                var = f"w{len(self.workspaces)}"
                self.cells.append(math.prod(dims))
                self._param(f"m{var}", self.cells[-1])
                self.workspaces[name] = (var, node.result.indices, self._strides(var, dims))
            update = [f"{self._workspace(node.result, scope)} += f * g"]
        self.stmts.append((name, {node.lhs.tensor, node.rhs.tensor}))
        return _Stmt(len(self.stmts) - 1, fibers, factors, update)

    def source(self) -> str:
        out = [f"def kernel({', '.join(self.params)}):", "    acc = {}", "    get = acc.get"]
        for var, _, _ in self.workspaces.values():
            out.append(f"    {var} = [0.0] * m{var}")
            out.append(f"    z{var} = [0.0] * m{var}")
        counters = [f"n{s}" for s in range(len(self.stmts))]
        out.append(f"    {' = '.join(counters)} = 0")
        self._render(self.plan, 1, out)
        out.append(f"    return acc, ({''.join(c + ', ' for c in counters)})")
        return "\n".join(out) + "\n"

    def _render(self, node, depth: int, out: list[str]) -> None:
        pad = "    " * depth
        if isinstance(node, _Where):
            out.extend(f"{pad}{var}[:] = z{var}" for var in node.zero)
            self._render(node.producer, depth, out)
            self._render(node.consumer, depth, out)
        elif isinstance(node, _Loop):
            self._render_loop(node, depth, out)
        else:
            guards = [f"p{f.n}_{len(f.searched) - 1} >= 0" for f in node.fibers if f.searched[-1]]
            if guards:
                out.append(f"{pad}if {' and '.join(guards)}:")
                pad += "    "
            out.append(f"{pad}f = {node.factors[0]}")
            out.append(f"{pad}if f:")
            out.append(f"{pad}    g = {node.factors[1]}")
            out.append(f"{pad}    if g:")
            out.extend(f"{pad}        {line}" for line in node.update)
            out.append(f"{pad}        n{node.n} += 1")

    def _render_loop(self, loop: _Loop, depth: int, out: list[str]) -> None:
        """Bind the loop variable and the position of every fiber level it drives.

        A missing coordinate sets a position to -1, and a level under a -1
        parent gets the empty range, so presence is decided by the deepest level.
        """
        pad = "    " * depth
        x = loop.var
        direct = len(loop.drivers) == 1 and not loop.full
        for fiber, level in loop.drivers:
            fiber.searched[level] = not direct

        def names(fiber: _Fiber, level: int):
            n = fiber.n
            parent = f"p{n}_{level - 1}" if level else "0"
            seg = f"s{n}_{level}"
            absent = level > 0 and fiber.searched[level - 1]
            return f"p{n}_{level}", f"c{n}_{level}", parent, seg, absent

        if direct:
            p, coords, parent, seg, absent = names(*loop.drivers[0])
            if absent:
                out.append(f"{pad}if {parent} >= 0:")
                pad += "    "
                depth += 1
            out.append(f"{pad}for {p} in range({seg}[{parent}], {seg}[{parent} + 1]):")
            out.append(f"{pad}    {x} = {coords}[{p}]")
        else:
            streams = []
            for fiber, level in loop.drivers:
                p, coords, parent, seg, absent = names(fiber, level)
                bounds = f"{seg}[{parent}], {seg}[{parent} + 1]"
                if absent:
                    bounds = f"({bounds}) if {parent} >= 0 else (0, 0)"
                out.append(f"{pad}l{p}, h{p} = {bounds}")
                streams.append(f"*{coords}[l{p}:h{p}]")
            values = f"range({loop.extent})" if loop.extent else f"sorted({{{', '.join(streams)}}})"
            out.append(f"{pad}for {x} in {values}:")
            for fiber, level in loop.drivers:
                p, coords, _, _, _ = names(fiber, level)
                out.append(f"{pad}    {p} = bl({coords}, {x}, l{p}, h{p})")
                out.append(f"{pad}    if {p} == h{p} or {coords}[{p}] != {x}: {p} = -1")
        self._render(loop.body, depth + 1, out)


def execute(ir: IrNode, binding: Binding) -> tuple[SparseTensor, ExecStats]:
    """Run the loop IR as a generated kernel and assemble the canonical result.

    The kernel's source depends only on the IR's structure and operand kinds;
    its code object is compiled once and cached by that text, and each call
    runs it in fresh globals. Workspaces, the root accumulator and counters
    are locals of the call, so independent calls may run concurrently over
    the same (immutable) binding.
    """
    kernel = _Kernel(ir, binding)
    namespace: dict = {}
    exec(_compiled(kernel.source()), namespace)
    run = namespace.pop("kernel")  # no function <-> globals cycle left for the collector
    acc, counts = run(*kernel.params.values())
    stats = ExecStats(sum(counts), max(kernel.cells, default=0))
    for (name, _), count in zip(kernel.stmts, counts):
        if count:
            stats.per_assignment[name] = stats.per_assignment.get(name, 0) + count
    shape = binding.tree.ref_shape(binding.tree.root.result)
    return coo_from_entries(list(acc.items()), shape), stats


# ---------------------------------------------------------------------------
# dense oracles


def _as_dense(t: SparseTensor | np.ndarray) -> np.ndarray:
    if isinstance(t, SparseTensor):
        return t.to_dense()
    return np.asarray(t, dtype=np.float64)


def _letters(names: Sequence[str]) -> dict[str, str]:
    alphabet = string.ascii_letters
    if len(names) > len(alphabet):
        raise TooLargeError("more distinct indices than einsum subscripts")
    return {name: alphabet[i] for i, name in enumerate(sorted(set(names)))}


def oracle_nary(
    tree: ContractionTree,
    tensors: Mapping[str, SparseTensor | np.ndarray],
    budget: int = DENSE_SPACE_BUDGET,
) -> SparseTensor:
    """Ground truth by direct n-ary contraction over the densified leaves.

    Evaluates the flat product of every input reference, summing all indices
    absent from the root result; equivalent to one nested loop per index.
    """
    produced = {c.result.tensor for c in tree.contractions}
    leaf_refs = [
        ref
        for c in tree.contractions
        for ref in (c.lhs, c.rhs)
        if ref.tensor not in produced
    ]
    all_indices = sorted({i for ref in leaf_refs for i in ref.indices})
    space = 1
    for i in all_indices:
        space *= tree.extents[i]
    if space > budget:
        raise TooLargeError(f"n-ary iteration space {space} exceeds budget {budget}")
    sub = _letters(all_indices)
    operands = []
    for ref in leaf_refs:
        if ref.tensor not in tensors:
            raise UnboundTensorError(f"no tensor bound for input '{ref.tensor}'")
        arr = _as_dense(tensors[ref.tensor])
        if arr.shape != tree.ref_shape(ref):
            raise ExtentMismatchError(
                ref.indices[0],
                f"tensor '{ref.tensor}' has shape {arr.shape}, expected {tree.ref_shape(ref)}",
            )
        operands.append(arr)
    out_ref = tree.root.result
    expr = ",".join("".join(sub[i] for i in ref.indices) for ref in leaf_refs)
    expr += "->" + "".join(sub[i] for i in out_ref.indices)
    dense = np.einsum(expr, *operands)
    return SparseTensor.from_dense(dense.reshape(tree.ref_shape(out_ref)))


def _topological_ids(tree: ContractionTree) -> list[int]:
    placed: list[int] = []
    done: set[int] = set()
    while len(placed) < tree.m:
        for c in tree.contractions:
            if c.cid in done:
                continue
            if all(ch in done for ch in tree.children_of(c.cid)):
                placed.append(c.cid)
                done.add(c.cid)
                break
    return placed


def oracle_unfused(
    tree: ContractionTree,
    tensors: Mapping[str, SparseTensor | np.ndarray],
    order: Sequence[int] | None = None,
    budget: int = DENSE_SPACE_BUDGET,
) -> tuple[SparseTensor, dict]:
    """Evaluate contractions one at a time with full-order dense intermediates.

    Returns the result plus ``{"max_intermediate_cells": ...}`` for memory
    comparisons against fused execution.
    """
    if order is None:
        order = _topological_ids(tree)
    produced = {c.result.tensor for c in tree.contractions}
    env: dict[str, np.ndarray] = {}

    def fetch(ref: TensorRef) -> np.ndarray:
        name = ref.tensor
        if name in env:
            return env[name]
        if name in produced:
            raise MalformedScheduleError(f"'{name}' used before it is produced")
        if name not in tensors:
            raise UnboundTensorError(f"no tensor bound for input '{name}'")
        arr = _as_dense(tensors[name])
        env[name] = arr
        return arr

    max_cells = 0
    root_name = tree.root.result.tensor
    for cid in order:
        c = tree.contractions[cid]
        sub = _letters(sorted(c.index_set))
        expr = (
            "".join(sub[i] for i in c.lhs.indices)
            + ","
            + "".join(sub[i] for i in c.rhs.indices)
            + "->"
            + "".join(sub[i] for i in c.result.indices)
        )
        cells = 1
        for i in c.result.indices:
            cells *= tree.extents[i]
        if cells > budget:
            raise TooLargeError(f"intermediate '{c.result.tensor}' needs {cells} dense cells")
        out = np.einsum(expr, fetch(c.lhs), fetch(c.rhs))
        env[c.result.tensor] = out.reshape(tree.ref_shape(c.result))
        if c.result.tensor != root_name:
            max_cells = max(max_cells, env[c.result.tensor].size)
    result = SparseTensor.from_dense(env[root_name])
    return result, {"max_intermediate_cells": max_cells}


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class CompareReport:
    passed: bool
    checked: int
    max_abs_err: float
    worst_coords: tuple[int, ...] | None
    worst_values: tuple[float, float] | None

    def message(self) -> str:
        if self.passed:
            return f"pass: {self.checked} coordinates, max abs error {self.max_abs_err:.3e}"
        a, b = self.worst_values
        return (
            f"FAIL at {self.worst_coords}: {a!r} vs {b!r} "
            f"(abs error {self.max_abs_err:.3e}, {self.checked} coordinates checked)"
        )


def compare(
    a: SparseTensor,
    b: SparseTensor,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
) -> CompareReport:
    """Pointwise comparison over the union of coordinates.

    Passes iff |a - b| <= abs_tol + rel_tol * max(|a|, |b|) everywhere and no
    value on either side is NaN or infinite; the report carries the worst
    offender, a non-finite one first.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    va = dict(a.entries)
    vb = dict(b.entries)
    passed = True
    max_err = 0.0
    worst_coords = None
    worst_values = None
    checked = 0
    for coords in sorted(set(va) | set(vb)):
        x = va.get(coords, 0.0)
        y = vb.get(coords, 0.0)
        finite = math.isfinite(x) and math.isfinite(y)
        err = abs(x - y) if finite else math.inf
        checked += 1
        if err > max_err:
            max_err = err
            worst_coords = coords
            worst_values = (x, y)
        if not finite or err > abs_tol + rel_tol * max(abs(x), abs(y)):
            passed = False
    return CompareReport(passed, checked, max_err, worst_coords, worst_values)
