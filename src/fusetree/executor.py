"""Execution of forall/where IR over CSF tensors as generated Python kernels.

Planning walks the IR once, checking the schedule and writing the source of
one function in which loop variables, CSF positions and counters are locals.
A ``forall`` drilled by a single CSF operand steps through that fiber's
positions. A ``forall`` over one statement that two CSF operands drill
co-iterates their intersection by leapfrogging: the lead fiber bisects the
other for its coordinate and, on a miss, bisects itself forward to the
other's coordinate, so the loop runs about as often as the shorter fiber has
coordinates. A ``forall`` that a ``where`` shares across statements keeps the
sorted union of the present operands' coordinate streams, so every statement
sees the coordinates it needs, and a loop that some statement reaches only
through dense operands runs over the full index range; both find each
operand's position by bisection.

``bind`` stores every input in the form its kernel reads, in the mode order
the solution gives it: a CSF tree, or a flat tuple of dense values. It keeps
them in one operand map and records each layout. Each layout is built once
per tensor, kind and mode order and held by the tensor as long as it lives,
so later binds of the tensor in that layout reuse it; a one-shot ``fusetree
run`` builds each once and gains nothing. Dense inputs are flat tuples and
workspaces flat lists, each addressed row-major in its reference's own index
order; a reference that disagrees with the bound or workspace layout raises
``ModeOrderMismatchError`` when the kernel is planned.

A statement contributes only when every sparse operand carries the current
coordinates and no factor is exactly zero. Each factor is loaded, and tested
for presence and for an exact zero, just inside the loop that binds the last
of its variables (for a CSF operand, the loop driving its deepest level), but
never outside the loops that run its statement alone; each flat offset is
summed term by term as its variables are bound, after the zero tests of the
loop that binds them. A zero factor therefore skips the whole inner loop and
its index arithmetic, never a ``where`` sibling. Zeros annihilate: a
zero factor skips its partner even when that is inf or NaN, so such a product
adds nothing and counts no multiply-add, while the dense oracles compute NaN
and ``compare`` fails the run.

Each ``where`` zeroes the producer's workspaces, runs the producer, then the
consumer, once per enclosing iteration. Where every consumer statement reads
a workspace the ``where`` zeroes, the consumer runs only when some statement
has every such workspace it reads written, as the producer statements'
counters tell: an unwritten one holds only 0.0, so every product the
consumer could form has a zero factor. When the consumer reads an order-1
workspace in an innermost full-range loop, the producer also records the
cells it writes and the consumer visits only those, in ascending order. The
root accumulates into a flat list of its row-major cells, which
``SparseTensor.from_dense`` turns into the result; a root of more than
``ROOT_DENSE_CELLS`` cells accumulates into a dict keyed by flat offset.

The source numbers every identifier, so no network name reaches it, and
writes every stride, loop extent and workspace size as a literal. A kernel's
parameters are the root accumulator and its operands: each CSF operand whole,
unpacked into its levels' coordinates and segments and its values at the top
of the kernel, and each dense operand as its flat tuple. A kernel is planned
and compiled once per signature: the IR; each input's bound layout and kind,
CSF or dense; and the tree's extents, root reference and intermediate names.
The cache entry keeps the compiled function and its operands' names in
parameter order, and no tensor data. Each call picks the root accumulator and
runs the kernel on it and the binding's operands as they are stored, so only
the first run of a signature, such as a one-shot ``fusetree run``, pays for
planning and compilation, and no call converts an operand. A schedule that
fails its checks raises on every call, and a kernel nesting more than
``MAX_NESTED_LOOPS`` loops, which Python cannot compile, raises
``TooLargeError``. The dense oracles and ``compare`` that check the kernels
live in :mod:`fusetree.check`, which imports none of this code.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .constraints import ScheduleSolution
from .errors import (
    ExtentMismatchError,
    MalformedScheduleError,
    MissingVariableError,
    ModeOrderMismatchError,
    TooLargeError,
    UnboundTensorError,
    UnknownTensorError,
)
from .lowering import Assign, Forall, IrNode, Where
from .network import ContractionTree, TensorRef
from .tensor import CsfTensor, SparseTensor, csf_build

# a root of up to this many cells accumulates into a flat list, a larger one
# into a dict keyed by flat offset: filling and scanning the list costs about
# 40 ns per cell (2.5 ms at the limit on a 2-core Xeon VM), about what sorting
# and decoding a few thousand dict entries costs
ROOT_DENSE_CELLS = 2**16
# CPython compiles at most 20 statically nested blocks, and each forall of a
# kernel nests one for loop
MAX_NESTED_LOOPS = 20


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

    ``operands`` holds every input in the form its kernel reads, in the mode
    order the solution gives it: a CSF tree built in that order, or, flagged
    dense or of order 0, the flat row-major tuple of its values transposed to
    it. The trees and tuples belong to the input tensors, which keep them for
    every binding of the same kind and mode order. ``layouts`` names each
    input's indices in that order, as ``ScheduleSolution.layout_indices``
    does for its first reference.
    """

    tree: ContractionTree
    operands: Mapping[str, CsfTensor | tuple[float, ...]]
    layouts: Mapping[str, tuple[str, ...]]


def bind(
    tree: ContractionTree,
    sol: ScheduleSolution,
    tensors: Mapping[str, SparseTensor],
    dense_names: Sequence[str] = (),
) -> Binding:
    """Validate shapes against declared extents and store every input in its
    solved mode order.

    Every name in ``dense_names`` must be an input of ``tree``. ``sol`` must
    order exactly the modes of every input, else :class:`MissingVariableError`.
    These checks run on every call. Each layout, a CSF tree or a flat tuple,
    is built on the first bind of its tensor, kind and mode order, and kept on
    the tensor for later binds, as long as the tensor lives; a one-shot
    ``fusetree run`` builds every layout once and gains nothing. Each tensor
    was checked canonical and in bounds when it was built.
    """
    unknown = sorted(set(dense_names) - set(tree.input_names))
    if unknown:
        raise UnknownTensorError(f"no input {', '.join(map(repr, unknown))} to bind dense")
    operands: dict[str, CsfTensor | tuple[float, ...]] = {}
    layouts: dict[str, tuple[str, ...]] = {}
    for name in tree.input_names:
        if name not in tensors:
            raise UnboundTensorError(f"no tensor bound for input '{name}'")
        t = tensors[name]
        ref = tree.abstract_ref(name)
        expected = tree.ref_shape(ref)
        if t.shape != expected:
            raise ExtentMismatchError(
                f"tensor '{name}' has shape {t.shape}, declared extents give {expected}"
            )
        if sorted(sol.dp.get(name, ())) != list(range(t.order)):
            raise MissingVariableError(f"solution gives input '{name}' no order of its {t.order} modes")
        perm = sol.mode_perm(name)
        layouts[name] = tuple(ref.indices[j] for j in perm)  # sol.layout_indices(ref)
        kind = "dense" if name in dense_names or t.order == 0 else "csf"
        stored = t._layouts.get((kind, perm))
        if stored is None:
            if kind == "dense":
                stored = tuple(t.to_dense().transpose(perm).ravel().tolist())
            else:
                stored = csf_build(t, perm)
            t._layouts[kind, perm] = stored  # a racing bind may store an equal layout
        operands[name] = stored
    return Binding(tree, operands, layouts)


def _extent(extents: Mapping[str, int], index: str) -> int:
    try:
        return extents[index]
    except KeyError:
        raise ExtentMismatchError(f"no extent declared for index '{index}'") from None


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
    step: bool = False  # steps through one fiber's positions, leapfrogging with any other
    extent: int | None = None  # of a full-range loop
    touched: str | None = None  # workspace whose written cells replace the full range
    body: object = None


@dataclass
class _Where:
    zero: list[str]  # workspaces
    producer: object
    consumer: object
    # per consumer statement, the counters of the producer statements that
    # write the zeroed workspaces it reads; empty when some statement reads none
    guard: list[tuple[int, ...]]


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


def _signature(ir: IrNode, binding: Binding) -> tuple:
    """Everything a kernel's source depends on.

    That is the IR; each input's bound layout and whether it is CSF or dense;
    and the tree's extents, root reference and intermediate names. Extents
    are keyed whole, a little more than one kernel reads. Networks that
    declare an input's modes in different orders but bind it in one layout
    share a kernel. The data of the binding are left out, so a cached kernel
    pins no tensor.
    """
    tree = binding.tree
    return (
        ir,
        tuple((name, binding.layouts[name], type(x) is CsfTensor) for name, x in binding.operands.items()),
        tuple(sorted(tree.extents.items())),
        tree.root.result,
        tree.intermediate_names,
    )


class _Kernel:
    """One IR under one binding signature: the schedule's typed checks and its
    kernel source.

    Planning walks the IR once, raising on a malformed schedule and numbering
    every identifier the kernel uses, so that no network name reaches the
    source. Every flat array, a dense input or a workspace, is addressed
    row-major in its reference's own index order, with strides from the
    extents; an input's first reference (by contraction, then side) must be
    in its bound layout, as a workspace reference must be in the workspace's,
    else ``ModeOrderMismatchError``. The input's later references carry the
    same solved mode order. Strides, extents and workspace sizes become
    literals, which the signature keys; the operands, ``t<k>`` for a CSF
    tensor and ``d<k>`` for a dense one, are the only parameters besides the
    root accumulator ``acc``. Rendering then decides per loop whether it steps
    through one fiber's positions, leapfrogs through the intersection of two,
    or runs over a sorted coordinate union, a workspace's written cells or the
    full range, which needs the whole loop body planned first. A ``where``
    whose every consumer statement reads a workspace it zeroes snapshots the
    counters ``n<k>`` of the statements writing those workspaces into
    ``m<k>`` before its producer, and runs its consumer only if some consumer
    statement finds the counter of each such workspace it reads moved.
    """

    def __init__(
        self,
        ir: IrNode,
        inputs: tuple[tuple[str, tuple[str, ...], bool], ...],
        extents: tuple[tuple[str, int], ...],
        root: TensorRef,
        intermediates: tuple[str, ...],
    ):
        self.layouts = {name: layout for name, layout, _ in inputs}
        self.csf = {name for name, _, csf in inputs if csf}
        self.extents = dict(extents)
        self.root = root
        self.shape = tuple(_extent(self.extents, index) for index in root.indices)
        self.intermediates = set(intermediates)
        self.operands: dict[str, str] = {}  # CSF operand -> parameter
        self.unpack: list[str] = []  # prologue lines binding each fiber's arrays
        self.dense: dict[str, str] = {}  # dense operand -> parameter
        self.workspaces: dict[str, tuple[str, tuple[str, ...]]] = {}  # -> local, layout
        self.cells: list[int] = []
        self.touched: set[str] = set()  # workspaces that record their written cells
        self.stmts: list[tuple[str, set[str]]] = []  # result and operand names
        # input -> (contraction, side) and reference of its first reference
        self.first: dict[str, tuple[tuple[int, int], TensorRef]] = {}
        self.loops = 0
        self.fibers = 0
        self.plan = self._plan(ir, {})
        for name, (_, ref) in self.first.items():
            if ref.indices != self.layouts[name]:
                raise ModeOrderMismatchError(
                    f"reference {ref} disagrees with the bound layout {self.layouts[name]}"
                )

    def _var(self, ref: TensorRef, index: str, scope: Mapping[str, _Loop]) -> str:
        if index not in scope:
            raise ModeOrderMismatchError(
                f"reference {ref}: index '{index}' not bound by an enclosing loop"
            )
        return scope[index].var

    def _offset(self, ref: TensorRef, scope: Mapping[str, _Loop]) -> Terms:
        """The row-major offset of the cell ``ref`` addresses in an array of
        its indices' extents."""
        terms = []
        for j, index in enumerate(ref.indices):
            var = self._var(ref, index, scope)
            stride = math.prod(_extent(self.extents, i) for i in ref.indices[j + 1 :])
            terms.append((var, var if stride == 1 else f"{var} * {stride}"))
        return terms

    def _cell(self, ref: TensorRef, scope: Mapping[str, _Loop]) -> tuple[str, Terms]:
        """A workspace's local and the offset of the cell ``ref`` addresses."""
        if ref.tensor not in self.workspaces:
            raise UnboundTensorError(f"no binding or workspace for tensor '{ref.tensor}'")
        var, layout = self.workspaces[ref.tensor]
        if ref.indices != layout:
            raise ModeOrderMismatchError(f"reference {ref} disagrees with workspace layout {layout}")
        return var, self._offset(ref, scope)

    def _plan(self, node: IrNode, scope: dict[str, _Loop]):
        if isinstance(node, Forall):
            if node.index in scope:
                raise MalformedScheduleError(f"loop index '{node.index}' bound twice")
            if len(scope) == MAX_NESTED_LOOPS:
                raise TooLargeError(
                    f"a kernel nests more than {MAX_NESTED_LOOPS} loops, which Python cannot compile"
                )
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
                loop.extent = _extent(self.extents, node.index)
            return loop
        if isinstance(node, Where):
            start = len(self.stmts)
            producer = self._plan(node.producer, scope)
            mid = len(self.stmts)
            consumer = self._plan(node.consumer, scope)
            producers = enumerate(self.stmts[start:mid], start)
            written = {name: k for k, (name, _) in producers if name in self.workspaces}
            reads = [names for _, names in self.stmts[mid:]]
            zero = [self.workspaces[name][0] for name in sorted(written.keys() & set().union(*reads))]
            guard = {tuple(sorted(written[x] for x in names if x in written)) for names in reads}
            return _Where(zero, producer, consumer, sorted(guard) if all(guard) else [])
        return self._statement(node, scope)

    def _statement(self, node: Assign, scope: dict[str, _Loop]) -> _Stmt:
        order = list(scope)
        factors: list[tuple[str, Terms, _Fiber | None]] = []
        reads: list[tuple[str, str]] = []
        sparse_at: dict[str, bool] = {}
        for side, ref in enumerate((node.lhs, node.rhs)):
            for index in ref.indices:
                self._var(ref, index, scope)
                sparse_at.setdefault(index, False)
            name = ref.tensor
            if name in self.layouts and (name not in self.first or (node.cid, side) < self.first[name][0]):
                self.first[name] = ((node.cid, side), ref)
            if name in self.csf:
                positions = [order.index(index) for index in ref.indices]
                if positions != sorted(positions):
                    raise ModeOrderMismatchError(
                        f"reference {ref}: CSF layout incompatible with loop order {order}"
                    )
                fiber = _Fiber(self.fibers, [False] * len(ref.indices))
                self.fibers += 1
                operand = self.operands.setdefault(name, f"t{len(self.operands)}")
                for array, field in (("c", "coords"), ("s", "segs")):
                    levels = [f"{array}{fiber.n}_{level}" for level in range(len(ref.indices))]
                    self.unpack.append(f"[{', '.join(levels)}] = {operand}.{field}")
                values = f"v{fiber.n}"
                self.unpack.append(f"{values} = {operand}.values")
                for level, index in enumerate(ref.indices):
                    scope[index].drivers.append((fiber, level))
                    sparse_at[index] = True
                deepest = (scope[ref.indices[-1]].var, f"p{fiber.n}_{len(ref.indices) - 1}")
                factors.append((values, [deepest], fiber))
            elif name in self.layouts:
                var = self.dense.setdefault(name, f"d{len(self.dense)}")
                factors.append((var, self._offset(ref, scope), None))
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
            cell = self._offset(self.root, scope)
        else:
            if name in self.intermediates and name not in self.workspaces:
                var = f"w{len(self.workspaces)}"
                self.cells.append(math.prod(_extent(self.extents, i) for i in node.result.indices))
                self.workspaces[name] = (var, node.result.indices)
            target, cell = self._cell(node.result, scope)
        self.stmts.append((name, {node.lhs.tensor, node.rhs.tensor}))
        return _Stmt(len(self.stmts) - 1, factors, target, cell, reads)

    def source(self) -> str:
        params = ["acc", *self.operands.values(), *self.dense.values()]
        out = [f"def kernel({', '.join(params)}, bl=bl):"]
        out += [f"    {line}" for line in self.unpack]
        for (var, _), cells in zip(self.workspaces.values(), self.cells):
            out += (f"    {var} = [0.0] * {cells}", f"    z{var} = [0.0] * {cells}")
            if var in self.touched:
                out += (f"    f{var} = [False] * {cells}", f"    t{var} = []")
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
            writers = sorted(set().union(*node.guard))
            out.extend(f"{pad}m{k} = n{k}" for k in writers)
            self._render(node.producer, depth, out)
            if node.guard:
                # an unmoved counter leaves its workspace all 0.0, and every
                # product reading it skipped
                tests = (" and ".join(f"n{k} != m{k}" for k in reads) for reads in node.guard)
                out.append(f"{pad}if {' or '.join(tests)}:")
                depth += 1
                pad += "    "
            # ascending cells keep the consumer's sums in full-range order
            out.extend(f"{pad}t{var}.sort()" for var in touched)
            self._render(node.consumer, depth, out)
        elif isinstance(node, _Loop) and not node.single:
            closes: list[str] = []
            self._render(node.body, self._render_head(node, depth, out, closes), out)
            out += closes
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
        A slot sums its partial offsets after its zero tests, so a zero
        factor skips those multiplications too.
        """
        own: list[_Loop] = []
        while isinstance(node, _Loop):
            own.append(node)
            node = node.body
        slot_of = {loop.var: k for k, loop in enumerate(own, 1)}
        at: list[list[str]] = [[] for _ in range(len(own) + 1)]  # guards, loads, tests
        sums: list[list[str]] = [[] for _ in range(len(own) + 1)]  # partial offsets

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
                    sums[slot].append(f"{name}{slot} = {expr}")
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
        for lines, partial in zip(at, sums):
            lines += partial
        var = node.target
        if var in self.touched:
            at[-1].append(f"if not f{var}[{cell}]: f{var}[{cell}] = True; t{var}.append({cell})")
        at[-1] += (f"{var}[{cell}] += f * g", f"n{n} += 1")
        closes: list[str] = []  # the last line of each loop that has one, outermost first
        for k, lines in enumerate(at):
            if k:
                depth = self._render_head(own[k - 1], depth, out, closes)
            pad = "    " * depth
            for line in lines:
                out.append(pad + line)
                if line[-1] == ":":
                    pad += "    "
                    depth += 1
        out.extend(reversed(closes))

    def _render_head(self, loop: _Loop, depth: int, out: list[str], closes: list[str]) -> int:
        """Bind the loop variable and the position of every fiber level it
        drives; returns the depth of the loop body, and appends to ``closes``
        the line that must end that body, if any.

        An intersection is a ``while`` over the lead fiber's positions: the
        lead bisects the other fiber for its coordinate, leaves the loop when
        the other is exhausted and, on a miss, bisects itself forward to the
        other's coordinate; after a match the closing line steps it by one.
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
            (p, coords, parent, seg, _), *other = drivers
            if not other:
                out.append(f"{pad}for {p} in range({seg}[{parent}], {seg}[{parent} + 1]):")
                out.append(f"{pad}    {x} = {coords}[{p}]")
                return depth + 1
            ((q, coords_q, parent_q, seg_q, _),) = other
            out.append(f"{pad}l{q}, h{q} = {seg_q}[{parent_q}], {seg_q}[{parent_q} + 1]")
            out.append(f"{pad}{p}, h{p} = {seg}[{parent}], {seg}[{parent} + 1]")
            out.append(f"{pad}while {p} < h{p}:")
            out.append(f"{pad}    {x} = {coords}[{p}]")
            out.append(f"{pad}    {q} = l{q} = bl({coords_q}, {x}, l{q}, h{q})")
            out.append(f"{pad}    if {q} == h{q}: break")
            out.append(f"{pad}    if {coords_q}[{q}] != {x}:")
            out.append(f"{pad}        {p} = bl({coords}, {coords_q}[{q}], {p} + 1, h{p})")
            out.append(f"{pad}        continue")
            closes.append(f"{pad}    {p} += 1")
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
            elif loop.extent is not None:
                values = f"range({loop.extent})"
            else:
                values = f"sorted({{{', '.join(streams)}}})"
            out.append(f"{pad}for {x} in {values}:")
            for fiber, level in loop.drivers:
                p, coords, _, _, _ = names(fiber, level)
                out.append(f"{pad}    {p} = bl({coords}, {x}, l{p}, h{p})")
                out.append(f"{pad}    if {p} == h{p} or {coords}[{p}] != {x}: {p} = -1")
        return depth + 1


@dataclass(frozen=True)
class _Compiled:
    """A compiled kernel and the names of its operands, CSF then dense, in
    parameter order after the root accumulator. It holds no binding data."""

    run: Callable
    operands: tuple[str, ...]
    shape: tuple[int, ...]  # of the root
    results: tuple[str, ...]  # of each statement, in counter order
    max_cells: int  # of the largest workspace


@functools.lru_cache(maxsize=1024)  # room for a thousand small kernels, a few kB each
def _kernel(*signature) -> _Compiled:
    """The kernel of one signature, planned and compiled on its first call.

    Exceptions are not cached, so a malformed schedule raises on every call.
    """
    kernel = _Kernel(*signature)
    namespace: dict = {"bl": bisect.bisect_left}
    exec(compile(kernel.source(), "<fusetree kernel>", "exec"), namespace)
    return _Compiled(
        namespace.pop("kernel"),  # no function <-> globals cycle left for the collector
        (*kernel.operands, *kernel.dense),
        kernel.shape,
        tuple(name for name, _ in kernel.stmts),
        max(kernel.cells, default=0),
    )


def execute(ir: IrNode, binding: Binding) -> tuple[SparseTensor, ExecStats]:
    """Run the loop IR as a generated kernel and assemble the canonical result.

    The kernel is planned and compiled on the first call of its signature
    (see ``_signature``): the IR; each input's bound layout and kind; and the
    tree's extents, root and intermediates. An IR that walks an input in
    another order than ``binding`` stores it raises
    :class:`ModeOrderMismatchError`. Later calls of the signature only run it
    on the operands of ``binding``, passed as they are stored, so a one-shot
    run gains nothing. The root accumulator, a flat list or a dict, is chosen
    per call. Workspaces, the root accumulator and counters are locals of the
    call, so independent calls may run concurrently over the same (immutable)
    binding.
    """
    kernel = _kernel(*_signature(ir, binding))
    shape = kernel.shape
    cells = math.prod(shape)
    # an order-0 root is one cell, and np.unravel_index takes no 0-d shape
    dense_root = cells <= ROOT_DENSE_CELLS or not shape
    if not dense_root and cells > sys.maxsize:
        raise TooLargeError(f"result of {cells} cells has offsets numpy cannot decode")
    acc, counts = kernel.run(
        [0.0] * cells if dense_root else defaultdict(float),
        *(binding.operands[name] for name in kernel.operands),
    )
    per_assignment = {name: count for name, count in zip(kernel.results, counts) if count}
    stats = ExecStats(sum(counts), kernel.max_cells, per_assignment)
    if dense_root:
        return SparseTensor.from_dense(np.array(acc).reshape(shape)), stats
    # row-major offsets sort in the lexicographic order of their coordinates
    offsets = sorted(key for key, value in acc.items() if value != 0.0)
    coords = np.array(np.unravel_index(np.array(offsets, dtype=np.intp), shape)).T
    return SparseTensor._trusted(shape, coords, np.array([acc[key] for key in offsets])), stats
