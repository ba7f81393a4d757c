"""Execution of forall/where IR over CSF tensors as generated Python kernels.

Each call walks the IR once, checking the schedule and writing the source of
one function in which loop variables, CSF positions and counters are locals.
A ``forall`` drilled by a single CSF operand steps through that fiber's
positions. A ``forall`` over one statement that several CSF operands drill
co-iterates their intersection: it steps through one fiber and bisects the
others, skipping a coordinate any of them lacks. A ``forall`` that a ``where``
shares across statements keeps the sorted union of the present operands'
coordinate streams, so every statement sees the coordinates it needs, and a
loop that some statement reaches only through dense operands runs over the
full index range; both find each operand's position by bisection. Dense
inputs and workspaces are flat lists indexed with row-major strides.

A statement contributes only when every sparse operand carries the current
coordinates and no factor is exactly zero. Each factor is loaded, and tested
for presence and for an exact zero, just inside the loop that binds the last
of its variables (for a CSF operand, the loop driving its deepest level), but
never outside the loops that run its statement alone; each flat offset is
summed there term by term as its variables are bound. A zero factor therefore
skips the whole inner loop, never a ``where`` sibling. Zeros annihilate: a
zero factor skips its partner even when that is inf or NaN, so such a product
adds nothing and counts no multiply-add, while the dense oracles compute NaN
and ``compare`` fails the run.

Each ``where`` zeroes the producer's workspaces, runs the producer, then the
consumer, once per enclosing iteration. When the consumer reads an order-1
workspace in an innermost full-range loop, the producer also records the
cells it writes and the consumer visits only those, in ascending order. The
root accumulates into a flat list of its row-major cells, which
``SparseTensor.from_dense`` turns into the result; a root of more than
``ROOT_DENSE_CELLS`` cells accumulates into a dict keyed by flat offset.

The source numbers every identifier and passes all data as parameters, so it
depends on the IR's structure alone; its code object is compiled once and
cached by the source text.

Two dense oracles provide independent ground truth for the kernels. The n-ary
oracle contracts the flat product of every leaf; above a small index space it
lets numpy choose a pairwise order from that flat expression alone, never from
the tree or the schedule. The unfused oracle evaluates the contractions one by
one, children first. ``compare`` walks the two canonical entry lists in one
merge.
"""

from __future__ import annotations

import bisect
import functools
import math
import string
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from types import CodeType
from typing import Mapping, Sequence

import numpy as np

from .constraints import ScheduleSolution
from .errors import (
    ExtentMismatchError,
    MalformedScheduleError,
    ModeOrderMismatchError,
    NonCanonicalTensorError,
    ShapeMismatchError,
    TooLargeError,
    UnboundTensorError,
)
from .lowering import Assign, Forall, IrNode, Where
from .network import ContractionTree, TensorRef
from .tensor import CsfTensor, SparseTensor, csf_build

DENSE_SPACE_BUDGET = 100_000_000
# flat index spaces above this many points are contracted along numpy's
# pairwise path; below it, planning the path (about 0.2 ms) costs more than
# one flat einsum
EINSUM_PATH_CUTOFF = 2**14
# a root of up to this many cells accumulates into a flat list, a larger one
# into a dict keyed by flat offset: filling and scanning the list costs about
# 40 ns per cell (2.5 ms at the limit on a 2-core Xeon VM), about what sorting
# and decoding a few thousand dict entries costs
ROOT_DENSE_CELLS = 2**16


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
    dense are kept as plain arrays in their declared mode order.
    """

    tree: ContractionTree
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
        if name in dense_names or t.order == 0:
            dense[name] = t.to_dense()
        else:
            csf[name] = csf_build(t, sol.mode_perm(name))
    return Binding(tree, csf, dense)


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
    single: bool = False  # one statement sits under the loop
    step: bool = False  # steps through one fiber's positions, bisecting any others
    extent: str | None = None  # parameter of a full-range loop
    touched: str | None = None  # workspace whose written cells replace the full range
    body: object = None


@dataclass
class _Where:
    zero: list[str]  # workspaces
    producer: object
    consumer: object


# the terms of a flat offset, each with the loop variable it reads
Terms = list[tuple[str, str]]


@dataclass
class _Stmt:
    """An ``Assign``: its counter, its two factors and the cell it updates.

    A factor is an array local, the terms of its offset and, for a CSF
    operand, its fiber, whose offset is the position of its deepest level.
    The cell is one of the ``target`` workspace or root accumulator.
    """

    n: int
    factors: list[tuple[str, Terms, _Fiber | None]]
    target: str
    cell: Terms
    reads: list[tuple[str, str]]  # (workspace, index) of each order-1 workspace read


class _Kernel:
    """One IR under one binding: the schedule's typed checks and its kernel source.

    Planning walks the IR once, raising on a malformed schedule and numbering
    every identifier the kernel uses, so that no network name reaches the
    source; the data travel as parameters. Rendering then decides per loop
    whether it steps through one fiber's positions, an intersection, a sorted
    coordinate union, a workspace's written cells or the full range, which
    needs the whole loop body planned first.
    """

    def __init__(self, ir: IrNode, binding: Binding):
        tree = binding.tree
        self.binding = binding
        self.extents = tree.extents
        self.root = tree.root.result
        self.shape = tree.ref_shape(self.root)
        self.intermediates = set(tree.intermediate_names)
        self.params: dict[str, object] = {"bl": bisect.bisect_left}
        cells = math.prod(self.shape)
        # an order-0 root is one cell, and np.unravel_index takes no 0-d shape
        self.dense_root = cells <= ROOT_DENSE_CELLS or not self.shape
        if not self.dense_root and cells > sys.maxsize:
            raise TooLargeError(f"result of {cells} cells has offsets numpy cannot decode")
        new = (lambda: [0.0] * cells) if self.dense_root else (lambda: defaultdict(float))
        self._param("newacc", new)
        self.dense: dict[str, tuple[str, list[str | None]]] = {}
        self.workspaces: dict[str, tuple[str, tuple[str, ...], list[str | None]]] = {}
        self.cells: list[int] = []
        self.touched: set[str] = set()  # workspaces that record their written cells
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

    def _offset(self, ref, indices, strides, scope) -> Terms:
        terms = []
        for index, stride in zip(indices, strides):
            var = self._var(ref, index, scope)
            terms.append((var, var if stride is None else f"{var} * {stride}"))
        return terms

    def _cell(self, ref: TensorRef, scope: Mapping[str, _Loop]) -> tuple[str, Terms]:
        """A workspace's local and the offset of the cell ``ref`` addresses."""
        if ref.tensor not in self.workspaces:
            raise UnboundTensorError(f"no binding or workspace for tensor '{ref.tensor}'")
        var, layout, strides = self.workspaces[ref.tensor]
        if ref.indices != layout:
            raise ModeOrderMismatchError(f"reference {ref} disagrees with workspace layout {layout}")
        return var, self._offset(ref, layout, strides, scope)

    def _plan(self, node: IrNode, scope: dict[str, _Loop]):
        if isinstance(node, Forall):
            if node.index in scope:
                raise MalformedScheduleError(f"loop index '{node.index}' bound twice")
            loop = _Loop(f"x{self.loops}")
            self.loops += 1
            start = len(self.stmts)
            loop.body = self._plan(node.body, {**scope, node.index: loop})
            loop.single = len(self.stmts) == start + 1
            # a single fiber, or a single statement that needs every fiber
            # present: step through the first, bisect the others
            loop.step = (len(loop.drivers) == 1 and not loop.full) or (
                len(loop.drivers) > 1 and loop.single
            )
            for fiber, level in loop.drivers:
                fiber.searched[level] = not loop.step
            if isinstance(loop.body, _Stmt) and not loop.drivers:
                # an innermost full-range loop over an order-1 workspace needs
                # only the cells its producer wrote; the others hold 0.0
                loop.touched = next(
                    (var for var, index in loop.body.reads if index == node.index), None
                )
            if loop.touched:
                self.touched.add(loop.touched)
            elif loop.full or not loop.drivers:
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
        factors: list[tuple[str, Terms, _Fiber | None]] = []
        reads: list[tuple[str, str]] = []
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
                deepest = (scope[ref.indices[-1]].var, f"p{fiber.n}_{csf.order - 1}")
                factors.append((values, [deepest], fiber))
            elif name in binding.dense:
                if name not in self.dense:
                    array = binding.dense[name]
                    var = self._param(f"d{len(self.dense)}", array.ravel().tolist())
                    self.dense[name] = (var, self._strides(var, array.shape))
                var, strides = self.dense[name]
                factors.append((var, self._offset(ref, abstract.indices, strides, scope), None))
            else:
                var, offset = self._cell(ref, scope)
                factors.append((var, offset, None))
                if len(ref.indices) == 1:
                    reads.append((var, ref.indices[0]))
        # a loop this statement reaches only through dense operands or
        # workspaces runs over the full range
        for index, sparse in sparse_at.items():
            if not sparse:
                scope[index].full = True

        name = node.result.tensor
        if name == self.root.tensor:
            # the accumulator is indexed by the row-major offset of the result
            target = "acc"
            strides = self._strides("r", self.shape)
            cell = self._offset(node.result, self.root.indices, strides, scope)
        else:
            if name in self.intermediates and name not in self.workspaces:
                dims = [_extent(self.extents, index) for index in node.result.indices]
                var = f"w{len(self.workspaces)}"
                self.cells.append(math.prod(dims))
                self._param(f"m{var}", self.cells[-1])
                self.workspaces[name] = (var, node.result.indices, self._strides(var, dims))
            target, cell = self._cell(node.result, scope)
        self.stmts.append((name, {node.lhs.tensor, node.rhs.tensor}))
        return _Stmt(len(self.stmts) - 1, factors, target, cell, reads)

    def source(self) -> str:
        out = [f"def kernel({', '.join(self.params)}):", "    acc = newacc()"]
        for var, _, _ in self.workspaces.values():
            out.append(f"    {var} = [0.0] * m{var}")
            out.append(f"    z{var} = [0.0] * m{var}")
            if var in self.touched:
                out.append(f"    f{var} = [False] * m{var}")
                out.append(f"    t{var} = []")
        counters = [f"n{s}" for s in range(len(self.stmts))]
        out.append(f"    {' = '.join(counters)} = 0")
        self._render(self.plan, 1, out)
        out.append(f"    return acc, ({''.join(c + ', ' for c in counters)})")
        return "\n".join(out) + "\n"

    def _render(self, node, depth: int, out: list[str]) -> None:
        pad = "    " * depth
        if isinstance(node, _Where):
            touched = [var for var in node.zero if var in self.touched]
            out.extend(f"{pad}{var}[:] = z{var}" for var in node.zero)
            for var in touched:
                out.append(f"{pad}for c in t{var}: f{var}[c] = False")
                out.append(f"{pad}t{var}.clear()")
            self._render(node.producer, depth, out)
            # ascending cells keep the consumer's sums in full-range order
            out.extend(f"{pad}t{var}.sort()" for var in touched)
            self._render(node.consumer, depth, out)
        elif isinstance(node, _Loop) and not node.single:
            self._render(node.body, self._render_head(node, depth, out), out)
        else:
            self._render_own(node, depth, out)

    def _render_own(self, node, depth: int, out: list[str]) -> None:
        """A statement under the loops that run it alone, outermost first.

        Slot 0 lies just before the outermost of these loops and slot k just
        inside the k-th. Each factor is guarded, loaded and tested for an
        exact zero in the slot of the loop that binds its last variable, and
        each offset adds up its terms slot by slot, so no loop recomputes
        what it leaves unchanged. A zero factor thus skips the loops inside
        its slot, which run nothing else: a ``where`` sibling is never skipped.
        """
        own: list[_Loop] = []
        while isinstance(node, _Loop):
            own.append(node)
            node = node.body
        slot_of = {loop.var: k for k, loop in enumerate(own, 1)}
        at: list[list[str]] = [[] for _ in range(len(own) + 1)]

        def offset(name: str, terms: Terms, use: int | None = None) -> tuple[int, str]:
            """Sum the terms bound before slot ``use`` into locals of their
            slots; return ``use``, by default the slot of the last term, and
            the expression that adds the terms bound there."""
            groups: dict[int, list[str]] = {}
            for var, term in terms:
                groups.setdefault(slot_of.get(var, 0), []).append(term)
            slots = sorted(groups)
            if use is None:
                use = slots[-1] if slots else 0
            partial: list[str] = []
            for slot in slots:
                expr = " + ".join(partial + groups[slot])
                if slot == use:
                    return use, expr
                if not expr.isidentifier():
                    at[slot].append(f"{name}{slot} = {expr}")
                    expr = f"{name}{slot}"
                partial = [expr]
            return use, partial[0] if partial else "0"

        n = node.n
        for role, (array, terms, fiber) in zip("fg", node.factors):
            use, index = offset(f"o{n}{role}", terms)
            if fiber is not None and fiber.searched[-1]:
                at[use].append(f"if {index} >= 0:")
            at[use] += (f"{role} = {array}[{index}]", f"if {role}:")
        _, cell = offset(f"o{n}k", node.cell, len(own))
        var = node.target
        if var in self.touched:
            at[-1].append(f"if not f{var}[{cell}]: f{var}[{cell}] = True; t{var}.append({cell})")
        at[-1] += (f"{var}[{cell}] += f * g", f"n{n} += 1")
        for k, lines in enumerate(at):
            if k:
                depth = self._render_head(own[k - 1], depth, out)
            pad = "    " * depth
            for line in lines:
                out.append(pad + line)
                if line[-1] == ":":
                    pad += "    "
                    depth += 1

    def _render_head(self, loop: _Loop, depth: int, out: list[str]) -> int:
        """Bind the loop variable and the position of every fiber level it
        drives; returns the depth of the loop body.

        In a union or full-range loop a missing coordinate sets a position to
        -1, and a level under a -1 parent gets the empty range, so presence is
        decided by the deepest level. Positions stepped through or found by
        an intersection are never -1.
        """
        pad = "    " * depth
        x = loop.var

        def names(fiber: _Fiber, level: int):
            n = fiber.n
            parent = f"p{n}_{level - 1}" if level else "0"
            seg = f"s{n}_{level}"
            absent = level > 0 and fiber.searched[level - 1]
            return f"p{n}_{level}", f"c{n}_{level}", parent, seg, absent

        if loop.step:
            drivers = [names(*d) for d in loop.drivers]
            guards = [f"{parent} >= 0" for _, _, parent, _, absent in drivers if absent]
            if guards:
                out.append(f"{pad}if {' and '.join(guards)}:")
                pad += "    "
                depth += 1
            (p, coords, parent, seg, _), *others = drivers
            for q, _, parent_q, seg_q, _ in others:
                out.append(f"{pad}l{q}, h{q} = {seg_q}[{parent_q}], {seg_q}[{parent_q} + 1]")
            out.append(f"{pad}for {p} in range({seg}[{parent}], {seg}[{parent} + 1]):")
            out.append(f"{pad}    {x} = {coords}[{p}]")
            for q, coords_q, _, _, _ in others:
                out.append(f"{pad}    {q} = l{q} = bl({coords_q}, {x}, l{q}, h{q})")
                out.append(f"{pad}    if {q} == h{q}: break")
                out.append(f"{pad}    if {coords_q}[{q}] != {x}: continue")
        else:
            streams = []
            for fiber, level in loop.drivers:
                p, coords, parent, seg, absent = names(fiber, level)
                bounds = f"{seg}[{parent}], {seg}[{parent} + 1]"
                if absent:
                    bounds = f"({bounds}) if {parent} >= 0 else (0, 0)"
                out.append(f"{pad}l{p}, h{p} = {bounds}")
                streams.append(f"*{coords}[l{p}:h{p}]")
            if loop.touched:
                values = f"t{loop.touched}"
            elif loop.extent:
                values = f"range({loop.extent})"
            else:
                values = f"sorted({{{', '.join(streams)}}})"
            out.append(f"{pad}for {x} in {values}:")
            for fiber, level in loop.drivers:
                p, coords, _, _, _ = names(fiber, level)
                out.append(f"{pad}    {p} = bl({coords}, {x}, l{p}, h{p})")
                out.append(f"{pad}    if {p} == h{p} or {coords}[{p}] != {x}: {p} = -1")
        return depth + 1


def execute(ir: IrNode, binding: Binding) -> tuple[SparseTensor, ExecStats]:
    """Run the loop IR as a generated kernel and assemble the canonical result.

    The kernel's source depends only on the IR's structure and operand kinds;
    its code object is compiled once and cached by that text, and each call
    runs it in fresh globals.
    Workspaces, the root accumulator and counters are locals of the call, so
    independent calls may run concurrently over the same (immutable) binding.
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
    shape = kernel.shape
    if kernel.dense_root:
        return SparseTensor.from_dense(np.array(acc).reshape(shape)), stats
    # row-major offsets sort in the lexicographic order of their coordinates
    offsets = sorted(key for key, value in acc.items() if value != 0.0)
    modes = np.unravel_index(np.array(offsets, dtype=np.intp), shape)
    coords = zip(*(mode.tolist() for mode in modes))
    return SparseTensor(shape, tuple(zip(coords, [acc[key] for key in offsets]))), stats


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
    absent from the root result. The tree supplies only its leaf references
    and its root. Over a flat index space above ``EINSUM_PATH_CUTOFF`` points
    numpy contracts the operands pairwise, in an order it derives from that
    flat expression alone, so the oracle never follows the schedule under
    test; numpy caps each intermediate at the size of the largest operand or
    of the result. Smaller spaces take one flat einsum, which is cheaper than
    planning a path.
    """
    leaf_refs = [
        ref
        for c in tree.contractions
        for ref in (c.lhs, c.rhs)
        if ref.tensor not in tree.producer_of
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
    dense = np.einsum(expr, *operands, optimize=space > EINSUM_PATH_CUTOFF)
    return SparseTensor.from_dense(dense.reshape(tree.ref_shape(out_ref)))


def oracle_unfused(
    tree: ContractionTree,
    tensors: Mapping[str, SparseTensor | np.ndarray],
    budget: int = DENSE_SPACE_BUDGET,
) -> tuple[SparseTensor, dict]:
    """Evaluate contractions children first with full-order dense intermediates.

    Returns the result plus ``{"max_intermediate_cells": ...}`` for memory
    comparisons against fused execution.
    """
    env: dict[str, np.ndarray] = {}

    def fetch(ref: TensorRef) -> np.ndarray:
        name = ref.tensor
        if name in env:
            return env[name]
        if name not in tensors:
            raise UnboundTensorError(f"no tensor bound for input '{name}'")
        arr = _as_dense(tensors[name])
        env[name] = arr
        return arr

    preorder = [tree.root.cid]  # parents before children, without recursion
    for cid in preorder:
        preorder.extend(tree.children_of(cid))
    max_cells = 0
    root_name = tree.root.result.tensor
    for cid in reversed(preorder):
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
    offender, a non-finite one first. Both entry lists are walked in one
    merge, so each side's coordinates must be unique and in lexicographic
    order; :class:`NonCanonicalTensorError` is raised otherwise.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    ea, eb = a.entries, b.entries
    na, nb = len(ea), len(eb)
    i = j = 0
    passed = True
    max_err = 0.0
    worst_coords = None
    worst_values = None
    checked = 0
    prev = None
    while i < na or j < nb:
        if j == nb:
            coords, x = ea[i]
            y = 0.0
            i += 1
        elif i == na:
            coords, y = eb[j]
            x = 0.0
            j += 1
        else:
            coords, x = ea[i]
            other, y = eb[j]
            if coords == other:
                i += 1
                j += 1
            elif coords < other:
                y = 0.0
                i += 1
            else:
                coords, x = other, 0.0
                j += 1
        # the merge emits each side's coordinates in their stored order, so
        # it stays strictly increasing exactly when both sides are canonical
        if prev is not None and not prev < coords:
            raise NonCanonicalTensorError(
                f"coordinates {coords} follow {prev}: entries are not unique and sorted"
            )
        prev = coords
        checked += 1
        err = abs(x - y)
        # a finite difference means finite values; only inf or NaN needs a look
        finite = err < math.inf or (math.isfinite(x) and math.isfinite(y))
        if not finite:
            err = math.inf
        if err > max_err:
            max_err = err
            worst_coords = coords
            worst_values = (x, y)
        if not finite or err > abs_tol + rel_tol * max(abs(x), abs(y)):
            passed = False
    return CompareReport(passed, checked, max_err, worst_coords, worst_values)
