"""Execution of forall/where IR over CSF tensors as generated Python kernels.

Planning walks the IR once, checking the schedule and deciding the kernel as
a tree of frozen records: each loop's kind and drivers, each ``where``'s
resets and guard, each statement's factors and cell, and the parameters,
prologue and workspaces; a second walk of the records decides the presence
tests (below). Rendering prints the records as the source of one function, in
which loop variables, CSF positions and counters are locals. Each walk keeps
an explicit stack, so only ``MAX_NESTED_LOOPS`` limits a kernel's depth,
never the number of ``where``s it nests.

A ``forall`` drilled by a single CSF operand steps through that fiber's
positions. A ``forall`` whose one ungated statement (see below) two CSF
operands drill co-iterates their intersection by leapfrogging: the lead
fiber bisects the other for its coordinate and, on a miss, bisects itself
forward to the other's coordinate, so the loop runs about as often as the
shorter fiber has coordinates. A ``forall`` that a ``where`` shares across
several ungated statements keeps the sorted union of the present operands'
coordinate streams, so every statement sees the coordinates it needs, and a
loop that some statement reaches only through dense operands runs over the
full index range; both find each operand's position by bisection. A
statement that the guard of a ``where`` inside the loop covers is gated: it
runs only where that producer multiplied, so it neither drives the loop nor
makes it full-range, and finds its own levels by bisection. The loop
follows the other statements alone, a step through one fiber or the union
of several; where none of their fibers carries a coordinate, no statement
multiplies.

``bind`` stores every input in the form its kernel reads, in the mode order
the solution gives it: a CSF tree, or a dense record of the flat tuple of
its values, the same cells as a read-only float64 array, and its nonzero
counts along any axes, counted on first use. Each layout also says whether
every value it holds is finite. ``bind`` keeps them in one operand map and
records each layout. Each layout is built once per tensor, kind and mode
order and held by the tensor as long as it lives, so later binds of the
tensor in that layout reuse it and no kernel call builds any of it again; a
one-shot ``fusetree run`` builds each once and gains nothing. Dense inputs
are read through their flat tuples and workspaces are flat lists, each
addressed row-major in its reference's own index order; a reference that
disagrees with the bound or workspace layout raises
``ModeOrderMismatchError`` when the kernel is planned.

A statement contributes only when every sparse operand carries the current
coordinates and no factor is exactly zero. Each factor is loaded, and tested
for an exact zero, just inside the loop that binds the last of its variables
(for a CSF operand, the loop driving its deepest level), but never outside
the loops that run its statement alone; each flat offset is
summed term by term as its variables are bound, after the zero tests of the
loop that binds them. A zero factor therefore skips the whole inner loop and
its index arithmetic, never a ``where`` sibling. Zeros annihilate: a
zero factor skips its partner even when that is inf or NaN, so such a product
adds nothing and counts no multiply-add, while the dense oracles compute NaN
and ``compare`` fails the run. A finite product with a zero factor adds
±0.0, which changes no cell's bits, since no root or workspace cell is ever
-0.0 (each starts at +0.0, and round-to-nearest gives -0.0 only for -0.0 +
-0.0). So an innermost full-range loop that multiplies an input value,
loaded and tested outside it, by a row of a dense operand (every factor
kind's producer, ``W(y) += T(k,i,j) * B(j,y)``) adds every cell of the row
untested and then the row's nonzero count, where the input's layout says it
is finite; elsewhere the tested loop runs. The row's own values may be
anything: its zeros meet a finite factor, and its inf and NaN are nonzero
either way. A tracked workspace keeps the tested loop, which would list a
zero product's cell as written, and so does a dict root, which would grow a
key for it.

Each ``where`` zeroes the producer's workspaces, runs the producer, then the
consumer, once per enclosing iteration. Where every consumer statement reads
a workspace the ``where`` zeroes, the consumer runs only when some statement
has every such workspace it reads written, as the producer statements'
counters tell: an unwritten one holds only 0.0, so every product the
consumer could form has a zero factor.

A loop skips its body where the body could write nothing a later statement
reads. A statement needs the deepest level found so far of each of its CSF
factors; a ``where`` needs what its consumer needs, and also what its
producer needs when its guard covers every consumer statement. The plan
alone decides which positions may be -1: those found by bisection and not
tested since, which a level stepped through or intersected never is, in the
order the source is written. Each is tested once on any path. One guard just
before a loop tests those found outside it that its body needs or that a
step or leapfrog reads as a parent; a ``continue`` just after the loop finds
its positions tests the needed ones it bisects, a leapfrog stepping its lead
first; a factor loaded before the loops that run its statement alone tests
its own. An untested parent that none of these covers gives its child the
empty range. So multiply-adds count the products the schedule performs, and
two schedules of one bound may count different numbers on the same inputs.

A workspace that the consumer reads in an innermost full-range loop over
its last layout index tracks the cells written to it, if its rows (every
index but the last; an order-1 workspace is one row) hold at least
``TRACKED_ROW_CELLS`` cells. A cell not written since the reset holds None: a write that reads None is the cell's first, lists
the cell's offset and, in its row's list, its column, and adds to 0.0; a test
for 0.0 would list a cell again after its sum cancels to 0.0 and it is
written once more. The ``where`` stores None into exactly the listed cells and
clears their rows, so a workspace nothing wrote costs nothing to reset, and
the consumer loop visits only the listed columns of its row. It visits them
in ascending order where the consumer sums over them, so each sum keeps the
order of a full scan; elsewhere each visit adds into a cell of its own, and
the order of the writes gives the same bits. Other workspaces are reset by
copying a list of zeros over them, among them an order-1 workspace that a
full-range loop writes, whole rows or nothing, whose consumer is an ordinary
full-range loop. Every full-range loop iterates a tuple of its extent's
values, which the prologue builds once per extent. An order-0 workspace is
a float local. The prologue allocates the root accumulator as well, in a
form fixed per signature: a flat list of the root's row-major cells, which
``SparseTensor.from_dense`` turns into the result, or a dict keyed by flat
offset for a root of more than ``ROOT_DENSE_CELLS`` cells. A kernel with
blocks (below) accumulates into a float64 ndarray instead, of up to
``ROOT_ARRAY_CELLS`` cells, which costs a few ns per cell where a list
costs about 40.

A statement that writes the root may end in a tail of full-range loops that
it runs alone, each over a root index, so each visit adds into cells of its
own. Where both factors are dense operands or untracked workspaces reading
only tail indices, and the tail covers ``VECTOR_TAIL_CELLS`` cells or more,
it runs as a block: one numpy statement per visit, such as ``v = a[x1];
v += f * g``, adds the broadcast product in place into a view of the root,
and counts the product of the factors' nonzero counts, or their joint
nonzeros where they share an index. Neither factor is tested, so a block
runs only where both are finite, by the flag of each dense operand's layout
and the ``sum`` of the workspace; elsewhere the scalar tail runs.
``tests/kernel_lines.py`` counts a block as one line event per visit.

The source numbers every identifier, so no network name reaches it, and
writes every stride, loop extent and workspace size as a literal. A kernel's
parameters are its operands: each CSF operand whole, unpacked into its
levels' coordinates and segments and its values at the top of the kernel,
and each dense operand as its record, of which the top of the kernel reads
the flat tuple and whatever blocks and untested rows read. A kernel is
planned and compiled once per signature: the IR; each input's bound layout
and kind, CSF or dense; and the tree's extents, root reference and
intermediate names. The cache entry keeps the compiled function and its
plan, and no tensor data. Each call runs the kernel on the binding's
operands as they are stored, so only the first run of a signature, such as a
one-shot ``fusetree run``, pays for planning and compilation, and no call
converts an operand. A schedule that fails its checks raises on every call,
and so does, with ``TooLargeError``, a kernel nesting more than
``MAX_NESTED_LOOPS`` loops, which Python cannot compile, a root of more than
``sys.maxsize`` cells, or a workspace (in ``bind``, a dense input) of more
than ``DENSE_SPACE_BUDGET`` cells. The dense oracles and ``compare`` that
check the kernels live in :mod:`fusetree.check`, which imports none of this
code.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .check import DENSE_SPACE_BUDGET
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
from .tensor import CsfTensor, DenseTensor, SparseTensor, csf_build, dense_build

# a root of up to this many cells accumulates into a flat list, a larger one
# into a dict keyed by flat offset: filling and scanning the list costs about
# 40 ns per cell (2.5 ms at the limit on a 2-core Xeon VM), about what sorting
# and decoding a few thousand dict entries costs
ROOT_DENSE_CELLS = 2**16
# a kernel with blocks accumulates into a float64 ndarray of up to this many
# cells, a larger root into a dict: on ttmc1 with 64-cell tails and roots of
# 2^16 to 2^22 cells, an ndarray root of 2^19 cells cost 0.9 ms with no
# nonzero (the list root at its limit 2.3 ms) and still beat the dict root
# with 100 nonzeros, 3.6 against 4.6 ms, where 2^20 cells lost, 6.0 against
# 4.6 ms; with 1,000 nonzeros it won up to 2^22 (best of 5 on a 2-core Xeon
# VM)
ROOT_ARRAY_CELLS = 2**19
# a workspace with shorter rows keeps full scans and resets by slice copy: on
# solver_chains' TTMc networks, tracking rows of 2 cells cost 1% more kernel
# time at input density 0.1 and 6% at 0.5, where rows of 3 gained 5% at 0.1
# (best of 40 in-process races on a 2-core Xeon VM); a row of 2 spares at
# most one visit
TRACKED_ROW_CELLS = 3
# a tail of full-range loops over root indices runs as one numpy statement
# from this many cells: on bench ttmc1 and ttmc3 (30x40x50, densities 0.01
# and 0.002, rank r giving r x r tails), blocks made the kernel 47-57% slower
# at 16 cells, 13-18% slower at 25, 4-8% faster at 36 and 35-38% faster at 64
# (best of 60 in-process runs on a 2-core Xeon VM)
VECTOR_TAIL_CELLS = 32
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
    dense or of order 0, a :class:`DenseTensor` of its values transposed to
    it. The layouts belong to the input tensors, which keep them for every
    binding of the same kind and mode order. ``layouts`` names each
    input's indices in that order, as ``ScheduleSolution.layout_indices``
    does for its first reference.
    """

    tree: ContractionTree
    operands: Mapping[str, CsfTensor | DenseTensor]
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
    A dense input must have at most ``DENSE_SPACE_BUDGET`` cells, else
    :class:`TooLargeError`. These checks run on every call. Each layout, a
    CSF tree or a dense record, is built on the first bind of its tensor, kind
    and mode order, and kept on the tensor for later binds, as long as the
    tensor lives; a one-shot ``fusetree run`` builds every layout once and
    gains nothing. Each tensor was checked canonical and in bounds when built.
    """
    unknown = sorted(set(dense_names) - set(tree.input_names))
    if unknown:
        raise UnknownTensorError(f"no input {', '.join(map(repr, unknown))} to bind dense")
    operands: dict[str, CsfTensor | DenseTensor] = {}
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
        if kind == "dense" and math.prod(t.shape) > DENSE_SPACE_BUDGET:
            raise TooLargeError(f"dense input '{name}' needs {math.prod(t.shape)} cells")
        stored = t._layouts.get((kind, perm))
        if stored is None:
            stored = dense_build(t, perm) if kind == "dense" else csf_build(t, perm)
            t._layouts[kind, perm] = stored  # a racing bind may store an equal layout
        operands[name] = stored
    return Binding(tree, operands, layouts)


def _extent(extents: Mapping[str, int], index: str) -> int:
    try:
        return extents[index]
    except KeyError:
        raise ExtentMismatchError(f"no extent declared for index '{index}'") from None


# the terms of a flat offset, each with the loop variable it reads
Terms = tuple[tuple[str, str], ...]
Levels = tuple[tuple[int, int], ...]  # (fiber, level) pairs


@dataclass(frozen=True)
class _Stmt:
    """An ``Assign``: its counter, its two factors and the cell it updates.

    A factor is an array local, the terms of its offset and, for a CSF
    operand, its fiber and deepest level, whose position is the offset.
    The cell is one of the ``target`` workspace or root accumulator; ``row``
    numbers a workspace cell's row, every index of its layout but the last.
    """

    n: int
    factors: tuple[tuple[str, Terms, tuple[int, int] | None], ...]
    target: str
    cell: Terms
    row: Terms


@dataclass(frozen=True)
class _Block:
    """A statement's tail of full-range loops over root indices, run as one
    numpy statement per visit: the local of its outermost loop, the root's
    view it adds into, and per factor its ndarray broadcast to the view, its
    nonzero count and finiteness test; whether the factors share an index;
    and per dense factor, which it reads as an array, its table of nonzero
    counts, with its operand and the axes it counts along."""

    start: str
    view: str
    factors: tuple[tuple[str, str, str], ...]
    joint: bool
    counts: tuple[tuple[str, str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class _Row:
    """A statement's innermost full-range loop that multiplies a factor
    loaded and tested outside it, an input, by a row of a dense operand:
    which factor is the row, the operand of the other, whose finiteness
    flag decides, and the row's table of nonzero counts (local, operand and
    axis) with the index that picks the row's count."""

    row: int
    flag: str
    table: tuple[str, str, tuple[int, ...]]
    at: str


@dataclass(frozen=True)
class _Where:
    zero: tuple[str, ...]  # workspaces
    # per consumer statement, the counters of the producer statements that
    # write the zeroed workspaces it reads; empty when some statement reads none
    guard: tuple[tuple[int, ...], ...]
    producer: "_Node"
    consumer: "_Node"


@dataclass(frozen=True)
class _Loop:
    """A ``forall``: its local, how it iterates, the (fiber, level) pairs
    whose coordinates it iterates (``drivers``) and those it finds by
    bisection (``probes``, a union's drivers among them), whether it runs a
    ``single`` statement alone, and the fibers its body ``needs`` present to
    write anything a later statement reads. Its ``kind`` is ``step``,
    ``leapfrog``, ``union``, ``range`` over the extent ``over`` or ``cells``
    over the cells written to one row of a workspace, ``over`` holding the
    workspace and the terms of the row's number."""

    var: str
    kind: str
    drivers: Levels
    probes: Levels
    over: int | tuple[str, Terms] | None
    single: bool
    needs: frozenset[int]
    body: "_Node"


_Node = _Loop | _Where | _Stmt


@dataclass(frozen=True)
class _Plan:
    """Every decision one kernel's source holds, its presence tests included."""

    operands: tuple[tuple[str, str], ...]  # input and parameter, CSF then dense
    fibers: tuple[tuple[str, int], ...]  # per fiber: its operand's parameter and levels
    workspaces: tuple[tuple[str, int], ...]  # local and cells
    scalars: frozenset[str]  # workspaces of order 0, each one float local
    # workspaces that record their written cells: the cells of a row, and
    # whether the consumer visits them in ascending order
    touched: Mapping[str, tuple[int, bool]]
    results: tuple[str, ...]  # of each statement, in counter order
    shape: tuple[int, ...]  # of the root
    root: str  # the expression allocating the root accumulator
    # per statement, the block of its tail of at least VECTOR_TAIL_CELLS cells,
    # and the dense row its innermost loop reads untested
    blocks: Mapping[int, _Block]
    dense_rows: Mapping[int, _Row]
    # per loop local, the levels its guard tests, the fibers whose parent may
    # be -1 where it bisects, and the levels its ``continue`` tests; per
    # statement, the deepest levels of the factors tested where they are loaded
    tests: Mapping[str, tuple[Levels, frozenset[int], Levels]]
    guarded: Mapping[int, Levels]
    body: _Node


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


def _plan(
    ir: IrNode,
    inputs: tuple[tuple[str, tuple[str, ...], bool], ...],
    extents: tuple[tuple[str, int], ...],
    root: TensorRef,
    intermediates: tuple[str, ...],
) -> _Plan:
    """Check one IR under one binding signature and decide its kernel.

    The walk plans each producer before its consumer, and each loop's kind
    once its body is planned. An input's first reference (by contraction,
    then side) must be in its bound layout, as a workspace reference must be
    in the workspace's, else ``ModeOrderMismatchError``; the input's later
    references carry the same solved mode order. A root of more than
    ``sys.maxsize`` cells, or a workspace of more than ``DENSE_SPACE_BUDGET``,
    raises :class:`TooLargeError`.
    """
    layouts = {name: layout for name, layout, _ in inputs}
    csf = {name for name, _, is_csf in inputs if is_csf}
    extents = dict(extents)
    shape = tuple(_extent(extents, index) for index in root.indices)
    size = math.prod(shape)
    if size > sys.maxsize:
        raise TooLargeError(f"result of {size} cells has offsets numpy cannot decode")
    operands: dict[str, str] = {}  # CSF operand -> parameter
    dense: dict[str, str] = {}  # dense operand -> parameter
    fibers: list[tuple[str, int]] = []
    workspaces: dict[str, tuple[str, tuple[str, ...], int]] = {}  # -> local, layout, cells
    touched: dict[str, tuple[int, bool]] = {}
    # per statement: its result, its operands' names, the local, last layout
    # index and row terms of each workspace it reads, and per index of its
    # operands the fiber levels it drives, none if it reaches the index only
    # through dense operands or workspaces
    stmts: list[tuple[str, set[str], list[tuple[str, str, Terms]], dict[str, list[tuple[int, int]]]]] = []
    # input -> (contraction, side) and reference of its first reference
    first: dict[str, tuple[tuple[int, int], TensorRef]] = {}
    # per enclosing forall index: its local and the number of guarded wheres
    # planned before it opened
    scope: dict[str, tuple[str, int]] = {}
    # the consumer statements of each where whose guard covers them: the
    # first, and the last plus one
    wheres: list[tuple[int, int]] = []
    whole: set[str] = set()  # order-1 workspaces written by full-range loops
    # planned subtrees, each with its first statement and the fibers it needs
    # present to write anything a later statement reads
    done: list[tuple[_Node, int, frozenset[int]]] = []

    def nonzeros(param: str, xs: list[str], axes) -> tuple[tuple[str, str, tuple[int, ...]], str]:
        """The table of nonzero counts of dense operand ``param``, read by
        the locals ``xs``, along the loops of ``axes``, and the index that
        picks a row's count."""
        at = tuple(j for j, x in enumerate(xs) if x in axes)
        return (f"k{param}_{'_'.join(map(str, at))}", param, at), "".join(f"[{x}]" for x in xs if x not in axes)

    def var(ref: TensorRef, index: str) -> str:
        if index not in scope:
            raise ModeOrderMismatchError(
                f"reference {ref}: index '{index}' not bound by an enclosing loop"
            )
        return scope[index][0]

    def offset(ref: TensorRef, indices: tuple[str, ...] | None = None) -> Terms:
        """The row-major offset of the cell ``ref`` addresses in an array of
        the extents of ``indices``, by default all of its own."""
        indices = ref.indices if indices is None else indices
        terms = []
        for j, index in enumerate(indices):
            x = var(ref, index)
            stride = math.prod(_extent(extents, i) for i in indices[j + 1 :])
            terms.append((x, x if stride == 1 else f"{x} * {stride}"))
        return tuple(terms)

    def cell(ref: TensorRef) -> tuple[str, Terms]:
        """A workspace's local and the offset of the cell ``ref`` addresses."""
        if ref.tensor not in workspaces:
            raise UnboundTensorError(f"no binding or workspace for tensor '{ref.tensor}'")
        local, layout, _ = workspaces[ref.tensor]
        if ref.indices != layout:
            raise ModeOrderMismatchError(f"reference {ref} disagrees with workspace layout {layout}")
        return local, offset(ref)

    def block(stmt: _Stmt, tail: tuple[tuple[str, int], ...]) -> _Block | None:
        """The block of a tail of full-range loops over root indices, if it
        covers ``VECTOR_TAIL_CELLS`` cells or more and each factor of
        ``stmt`` is a dense operand that reads a tail index, or a workspace
        that reads tail indices only."""
        extent = dict(tail)
        order = [x for x, _ in stmt.cell if x in extent]  # the view's axes

        def index(items: list[str]) -> str:
            while items and items[-1] == ":":
                items = items[:-1]
            return f"[{', '.join(items)}]" if items else ""

        factors, reads, counts = [], [], []
        for array, terms, deepest in stmt.factors:
            xs = [x for x, _ in terms]
            own = [x for x in xs if x in extent]
            if deepest is not None or not own:
                return None
            reads.append(set(own))
            if array[0] == "d":
                table, at = nonzeros(array, xs, extent)
                counts.append(table)
                finite = f"q{array}"
                expr = f"a{array}" + index([":" if x in extent else x for x in xs])
                count = table[0] + at
            elif own == xs:
                expr = f"np.array({array})"
                if len(own) > 1:
                    expr += f".reshape({tuple(extent[x] for x in own)})"
                count = f"({math.prod(extent[x] for x in own)} - {array}.count(0.0))"
                finite = f"isfinite(sum({array}))"
            else:
                return None
            at = [order.index(x) for x in own]
            if at != sorted(at):
                expr += f".transpose({tuple(sorted(range(len(at)), key=at.__getitem__))})"
            expr += index([":" if p in at else "None" for p in range(min(at), len(order))])
            factors.append((expr, count, finite))
        if reads[0] | reads[1] != extent.keys() or math.prod(extent.values()) < VECTOR_TAIL_CELLS:
            return None
        view = "a" + (index([":" if x in extent else x for x, _ in stmt.cell]) or "[...]")
        return _Block(tail[0][0], view, tuple(factors), bool(reads[0] & reads[1]), tuple(counts))

    def statement(node: Assign) -> None:
        factors: list[tuple[str, Terms, tuple[int, int] | None]] = []
        reads: list[tuple[str, str, Terms]] = []
        levels: dict[str, list[tuple[int, int]]] = {}
        for side, ref in enumerate((node.lhs, node.rhs)):
            for index in ref.indices:
                var(ref, index)
                levels.setdefault(index, [])
            name = ref.tensor
            if name in layouts and (name not in first or (node.cid, side) < first[name][0]):
                first[name] = ((node.cid, side), ref)
            if name in csf:
                order = list(scope)
                positions = [order.index(index) for index in ref.indices]
                if positions != sorted(positions):
                    raise ModeOrderMismatchError(
                        f"reference {ref}: CSF layout incompatible with loop order {order}"
                    )
                n, deepest = len(fibers), len(ref.indices) - 1
                fibers.append((operands.setdefault(name, f"t{len(operands)}"), len(ref.indices)))
                for level, index in enumerate(ref.indices):
                    levels[index].append((n, level))
                factors.append((f"v{n}", ((scope[ref.indices[-1]][0], f"p{n}_{deepest}"),), (n, deepest)))
            elif name in layouts:
                factors.append((dense.setdefault(name, f"d{len(dense)}"), offset(ref), None))
            else:
                factors.append((*cell(ref), None))
                if ref.indices:
                    reads.append((factors[-1][0], ref.indices[-1], offset(ref, ref.indices[:-1])))
        name = node.result.tensor
        if name == root.tensor:
            # the accumulator is indexed by the row-major offset of the result
            target, at, row = "acc", offset(root), ()
        else:
            if name in intermediates and name not in workspaces:
                cells = math.prod(_extent(extents, i) for i in node.result.indices)
                if cells > DENSE_SPACE_BUDGET:
                    raise TooLargeError(f"workspace '{name}' needs {cells} cells")
                workspaces[name] = (f"w{len(workspaces)}", node.result.indices, cells)
            (target, at), row = cell(node.result), offset(node.result, node.result.indices[:-1])
        stmts.append((name, {node.lhs.tensor, node.rhs.tensor}, reads, levels))
        fibers_read = frozenset(deepest[0] for _, _, deepest in factors if deepest)
        done.append((_Stmt(len(stmts) - 1, tuple(factors), target, at, row), len(stmts) - 1, fibers_read))

    todo: list = [ir]  # IR nodes to plan, and (node,) once its children are planned
    loops = 0
    while todo:
        node = todo.pop()
        if isinstance(node, Forall):
            if node.index in scope:
                raise MalformedScheduleError(f"loop index '{node.index}' bound twice")
            if len(scope) == MAX_NESTED_LOOPS:
                raise TooLargeError(
                    f"a kernel nests more than {MAX_NESTED_LOOPS} loops, which Python cannot compile"
                )
            scope[node.index] = (f"x{loops}", len(wheres))
            loops += 1
            todo += ((node,), node.body)
        elif isinstance(node, Where):
            todo += ((node,), node.consumer, node.producer)
        elif isinstance(node, Assign):
            statement(node)
        elif isinstance(node[0], Where):
            (consumer, mid, needs), (producer, start, made) = done.pop(), done.pop()
            written = {stmts[k][0]: k for k in range(start, mid) if stmts[k][0] in workspaces}
            reads = [names for _, names, _, _ in stmts[mid:]]
            zero = tuple(workspaces[name][0] for name in sorted(written.keys() & set().union(*reads)))
            guard = {tuple(sorted(written[x] for x in names if x in written)) for names in reads}
            guard = tuple(sorted(guard)) if all(guard) else ()
            if guard:
                wheres.append((mid, len(stmts)))
            # a guarded consumer runs only where the producer wrote something
            done.append((_Where(zero, guard, producer, consumer), start, needs | made if guard else needs))
        else:
            index = node[0].index
            body, start, needs = done.pop()
            (x, mark), extent = scope.pop(index), _extent(extents, index)
            # a statement the guard of a where in this loop covers runs only
            # where that producer multiplied, so it is gated: the loop follows
            # the other statements' fiber levels, or the full range if one of
            # them reaches the index only through dense operands or
            # workspaces, and a gated statement bisects for its own levels.
            # Where none of those levels is present nothing multiplies: an
            # ungated statement that does not reach the index reads a
            # workspace that an inner where writes only where its producer
            # multiplied.
            gated = bytearray(len(stmts) - start)
            for m, e in wheres[mark:]:
                gated[m - start : e - start] = b"\1" * (e - m)
            drivers: list[tuple[int, int]] = []
            probes: list[tuple[int, int]] = []
            is_full = False
            for k, info in enumerate(stmts[start:]):
                at = info[3].get(index)
                if at is not None:
                    (probes if gated[k] else drivers).extend(at)
                    is_full = is_full or not (at or gated[k])
            single = len(stmts) == start + 1
            kind, over = "union", None
            if isinstance(body, _Stmt) and not drivers and extent >= TRACKED_ROW_CELLS:
                # an innermost full-range loop over a workspace's last index
                # needs only the cells its producer wrote in the row
                over = next(((w, row) for w, last, row in stmts[body.n][2] if last == index), None)
            if over and over[0] not in whole:
                kind = "cells"
                # a sum over the cells keeps the order of a full scan; a visit
                # that adds into its own cell may follow the writes
                touched[over[0]] = (extent, all(v != x for v, _ in body.cell))
            elif over or is_full or not drivers:
                # a row a full-range loop filled is read whole
                kind, over = "range", extent
            # a single fiber, or a single ungated statement that needs every
            # fiber present: step through the first, bisect the others
            if (len(drivers) == 1 and not is_full) or (len(drivers) > 1 and gated.count(0) == 1):
                kind = "step" if len(drivers) == 1 else "leapfrog"
            else:
                probes, drivers = drivers + probes, drivers if kind == "union" else []
            if kind == "range":
                # a full-range loop writes the whole row of an order-1
                # workspace, or nothing, so tracking its cells gains nothing
                whole.update(
                    workspaces[info[0]][0]
                    for info in stmts[start:]
                    if info[0] in workspaces and workspaces[info[0]][1] == (index,)
                )
            done.append((_Loop(x, kind, tuple(drivers), tuple(probes), over, single, needs, body), start, needs))
    for name, (_, ref) in first.items():
        if ref.indices != layouts[name]:
            raise ModeOrderMismatchError(
                f"reference {ref} disagrees with the bound layout {layouts[name]}"
            )
    ((body, _, _),) = done
    tests: dict[str, tuple[Levels, frozenset[int], Levels]] = {}
    guarded: dict[int, Levels] = {}
    blocks: dict[int, _Block] = {}
    dense_rows: dict[int, _Row] = {}

    def presence(loop: _Loop, untested: dict[int, int]) -> None:
        """Decide the presence tests of ``loop`` by the rule of the module
        docstring, and update ``untested`` to what holds in its body: a level
        the loop bisects becomes untested, and one it steps through or
        intersects is present, with its parents."""
        reads = loop.needs if loop.kind == "union" else loop.needs | {n for n, _ in loop.drivers}
        guard = tuple((n, untested.pop(n)) for n in sorted(reads & untested.keys()))
        parents = frozenset(n for n, _ in loop.probes if n in untested)
        untested.update(loop.probes)
        skip = tuple((n, untested.pop(n)) for n in sorted(loop.needs & untested.keys()))
        tests[loop.var] = (guard, parents, skip)

    # one pass in the render walk's order decides every presence test; each
    # item's map holds the fibers whose deepest level found so far may be -1,
    # and is not yet tested, each with that level, and a where copies it
    walk: list = [(body, {})]
    while walk:
        node, untested = walk.pop()
        if isinstance(node, _Where):
            walk += ((node.consumer, untested), (node.producer, dict(untested)))
            continue
        if isinstance(node, _Loop) and not node.single:
            presence(node, untested)
            walk.append((node.body, untested))
            continue
        own: list[_Loop] = []  # the loops that run the statement alone
        while isinstance(node, _Loop):
            own.append(node)
            node = node.body
        # the loops that run a statement alone bisect nothing, so only a
        # factor found before them may be untested
        guarded[node.n] = tuple(deepest for _, _, deepest in node.factors if deepest in untested.items())
        for n, _ in guarded[node.n]:
            del untested[n]
        for loop in own:
            presence(loop, untested)
        # a tail of full-range loops over root indices that the statement runs
        # alone grows outward from the innermost loop, and the longest tail
        # that can run as one is its block
        tail: tuple[tuple[str, int], ...] = ()
        for loop in reversed(own if node.target == "acc" and size <= ROOT_ARRAY_CELLS else []):
            if loop.kind != "range" or all(v != loop.var for v, _ in node.cell):
                break
            tail = ((loop.var, loop.over), *tail)
            candidate = block(node, tail)
            if candidate:
                blocks[node.n] = candidate
        # a finite factor tested nonzero times a zero of the row adds 0.0, which
        # changes no cell's bits, so only that factor's finiteness decides; a
        # tracked workspace would list such a cell as written, and a dict root
        # would grow a key for it (below)
        if not own or own[-1].kind != "range" or node.target in touched:
            continue
        x = own[-1].var
        for k in (0, 1):
            (row, terms, _), (other, loaded, deepest) = node.factors[k], node.factors[1 - k]
            xs = [v for v, _ in terms]
            # the other factor is an input, loaded outside the loop
            flag = fibers[deepest[0]][0] if deepest else other if other[0] == "d" else None
            if row[0] == "d" and x in xs and flag and all(v != x for v, _ in loaded):
                dense_rows[node.n] = _Row(k, flag, *nonzeros(row, xs, {x}))
    # an order-0 root is one cell, and np.unravel_index takes no 0-d shape
    dict_root = not blocks and bool(shape) and size > ROOT_DENSE_CELLS
    if dict_root:
        dense_rows = {n: row for n, row in dense_rows.items() if stmts[n][0] != root.tensor}
    return _Plan(
        (*operands.items(), *dense.items()),
        tuple(fibers),
        tuple((local, cells) for local, _, cells in workspaces.values()),
        frozenset(local for local, layout, _ in workspaces.values() if not layout),
        touched,
        tuple(name for name, _, _, _ in stmts),
        shape,
        "dd(float)" if dict_root else f"np.zeros({size})" if blocks else f"[0.0] * {size}",
        blocks,
        dense_rows,
        tests,
        guarded,
        body,
    )


def _render(plan: _Plan) -> str:
    """The source of ``plan``'s kernel, written in one walk of its records.

    A statement is written under the loops that run it alone, outermost
    first, in slots: slot 0 lies just before the outermost of these loops
    and slot k just inside the k-th. Each factor's guard, load and zero test
    go into the slot of the loop that binds its last variable, and each
    offset's terms into the slots that bind them, after their zero tests.
    """
    params = [param for _, param in plan.operands]
    out = [f"def kernel({', '.join(params)}, bl=bl):"]
    for n, (param, levels) in enumerate(plan.fibers):
        for array, field in (("c", "coords"), ("s", "segs")):
            arrays = ", ".join(f"{array}{n}_{level}" for level in range(levels))
            out.append(f"    [{arrays}] = {param}.{field}")
        out.append(f"    v{n} = {param}.values")
    # a tracked workspace holds None in the cells not written since its
    # reset, and lists each written cell twice: by its offset, and by its
    # column in its row's list; a workspace of one row lists its offsets
    # only, since they are its columns
    rows = {var: cells // plan.touched[var][0] for var, cells in plan.workspaces if var in plan.touched}
    for var, cells in plan.workspaces:
        if var in plan.scalars:
            out.append(f"    {var} = 0.0")
        elif var not in rows:
            out += (f"    {var} = [0.0] * {cells}", f"    z{var} = [0.0] * {cells}")
        else:
            out += (f"    {var} = [None] * {cells}", f"    t{var} = []")
            if rows[var] > 1:
                out.append(f"    r{var} = [[] for _ in range({rows[var]})]")
    # the root accumulator; a kernel with blocks views its ndarray. Blocks
    # and dense rows read what bind keeps of each operand: a dense operand's
    # array and tables of nonzero counts, and finiteness flags; every other
    # line reads a dense operand's flat tuple
    out.append(f"    acc = {plan.root}")
    if plan.blocks:
        out.append(f"    a = acc.reshape({plan.shape})")
    arrays = {param for block in plan.blocks.values() for _, param, _ in block.counts}
    out += (f"    a{param} = {param}.array" for param in sorted(arrays))
    flags = arrays | {row.flag for row in plan.dense_rows.values()}
    out += (f"    q{param} = {param}.finite" for param in sorted(flags))
    counts = {count for block in plan.blocks.values() for count in block.counts}
    counts.update(row.table for row in plan.dense_rows.values())
    out += (f"    {name} = {param}.nonzeros({axes})" for name, param, axes in sorted(counts))
    out += (f"    {param} = {param}.values" for _, param in plan.operands if param[0] == "d")
    # each full-range loop iterates a tuple of its extent's values, built here
    # once the walk has found them
    ranges: set[int] = set()
    prologue = len(out)
    counters = [f"n{s}" for s in range(len(plan.results))]
    out.append(f"    {' = '.join(counters)} = 0")

    def head(loop: _Loop, depth: int, closes: list[str]) -> int:
        """Bind the loop variable and the position of every fiber level it
        drives or probes; returns the depth of the loop body, and appends to
        ``closes`` the line that must end that body, if any.

        It writes the presence tests ``plan.tests`` holds for the loop. A
        level it bisects gets position -1 for a missing coordinate. An
        intersection is a ``while`` over the lead fiber's positions: the lead
        bisects the other fiber for its coordinate, leaves the loop when the
        other is exhausted and, on a miss, bisects itself forward to the
        other's coordinate; after a match the closing line steps it by one.
        """
        pad = "    " * depth
        x = loop.var
        guard, parents, skip = plan.tests[x]
        if guard:
            out.append(f"{pad}if {' and '.join(f'p{n}_{level} >= 0' for n, level in guard)}:")
            pad += "    "
            depth += 1

        def names(n: int, level: int):
            parent = f"p{n}_{level - 1}" if level else "0"
            span = f"s{n}_{level}[{parent}], s{n}_{level}[{parent} + 1]"
            if n in parents:  # the parent may be -1
                span = f"({span}) if {parent} >= 0 else (0, 0)"
            return f"p{n}_{level}", f"c{n}_{level}", span

        drivers, bisected = [names(*level) for level in loop.drivers], [names(*level) for level in loop.probes]
        out.extend(f"{pad}l{p}, h{p} = {span}" for p, _, span in bisected)
        if loop.kind == "step":
            ((p, coords, span),) = drivers
            out.extend((f"{pad}for {p} in range({span}):", f"{pad}    {x} = {coords}[{p}]"))
        elif loop.kind == "leapfrog":
            (p, coords, span), (q, coords_q, span_q) = drivers
            out.append(f"{pad}l{q}, h{q} = {span_q}")
            out.append(f"{pad}{p}, h{p} = {span}")
            out.append(f"{pad}while {p} < h{p}:")
            out.append(f"{pad}    {x} = {coords}[{p}]")
            out.append(f"{pad}    {q} = l{q} = bl({coords_q}, {x}, l{q}, h{q})")
            out.append(f"{pad}    if {q} == h{q}: break")
            out.append(f"{pad}    if {coords_q}[{q}] != {x}:")
            out.append(f"{pad}        {p} = bl({coords}, {coords_q}[{q}], {p} + 1, h{p})")
            out.append(f"{pad}        continue")
            closes.append(f"{pad}    {p} += 1")
        else:
            if loop.kind == "cells":
                var, row = loop.over
                if rows[var] == 1:
                    values = f"t{var}"
                else:
                    values = f"r{var}[{' + '.join(term for _, term in row)}]"
                    if plan.touched[var][1]:
                        values = f"sorted({values})"
            elif loop.kind == "range":
                ranges.add(loop.over)
                values = f"e{loop.over}"
            else:
                values = f"sorted({{{', '.join(f'*{coords}[l{p}:h{p}]' for p, coords, _ in drivers)}}})"
            out.append(f"{pad}for {x} in {values}:")
        for p, coords, _ in bisected:
            out.append(f"{pad}    {p} = bl({coords}, {x}, l{p}, h{p})")
            out.append(f"{pad}    if {p} == h{p} or {coords}[{p}] != {x}: {p} = -1")
        # a body that needs a missing level writes nothing that is read, so
        # the iteration ends here
        if skip:
            missing = " or ".join(f"p{n}_{level} < 0" for n, level in skip)
            step = closes[-1].strip() + "; " if loop.kind == "leapfrog" else ""
            out.append(f"{pad}    if {missing}: {step}continue")
        return depth + 1

    # (record, depth) still to write, and literal lines
    todo: list = [(plan.body, 1)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, depth = item
        pad = "    " * depth
        if isinstance(node, _Where):
            for var in node.zero:
                if var in plan.scalars:
                    out.append(f"{pad}{var} = 0.0")
                    continue
                if var not in rows:
                    out.append(f"{pad}{var}[:] = z{var}")
                    continue
                reset = f"{var}[c] = None"
                if rows[var] > 1:
                    reset += f"; r{var}[c // {plan.touched[var][0]}].clear()"
                out += (f"{pad}for c in t{var}: {reset}", f"{pad}t{var}.clear()")
            # the counters of the statements writing the zeroed workspaces
            out.extend(f"{pad}m{k} = n{k}" for k in sorted(set().union(*node.guard)))
            inner, between = depth, []
            if node.guard:
                # an unmoved counter leaves its workspace all 0.0, and every
                # product reading it skipped
                tests = (" and ".join(f"n{k} != m{k}" for k in reads) for reads in node.guard)
                between.append(f"{pad}if {' or '.join(tests)}:")
                inner += 1
            # ascending cells keep the consumer's sums in full-range order; a
            # workspace of several rows sorts a row as the consumer visits it
            between += (
                f"{'    ' * inner}t{var}.sort()"
                for var in node.zero
                if rows.get(var) == 1 and plan.touched[var][1]
            )
            todo += ((node.consumer, inner), *reversed(between), (node.producer, depth))
            continue
        closes: list[str] = []  # the last line of each loop that has one, outermost first
        if isinstance(node, _Loop) and not node.single:
            inner = head(node, depth, closes)
            todo += (*reversed(closes), (node.body, inner))
            continue
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
        loads = []
        for role, (array, terms, deepest) in zip("fg", node.factors):
            use, index = offset(f"o{n}{role}", terms)
            if deepest in plan.guarded[n]:
                at[use].append(f"if {index} >= 0:")
            loads.append(array if array in plan.scalars else f"{array}[{index}]")
            at[use] += (f"{role} = {loads[-1]}", f"if {role}:")
        _, cell = offset(f"o{n}k", node.cell, len(own))
        block = plan.blocks.get(n)
        if block:
            # one numpy statement where every factor is finite, so that
            # each product with a zero factor adds 0.0; else the scalar tail
            t = next(k for k, loop in enumerate(own) if loop.var == block.start)
            (expr_f, count_f, finite_f), (expr_g, count_g, finite_g) = block.factors
            count = "int(np.count_nonzero((f != 0) & (g != 0)))" if block.joint else f"{count_f} * {count_g}"
            run = f"f = {expr_f}; g = {expr_g}; v = {block.view}; v += f * g; n{n} += {count}"
            at[t] += (f"if {finite_f} and {finite_g}: {run}", "else:")
        for lines, partial in zip(at, sums):
            lines += partial
        var = node.target
        update = var if var in plan.scalars else f"{var}[{cell}]"
        row = plan.dense_rows.get(n)
        if row:
            # the row's cells untested where the other factor is finite, then
            # its nonzero count; else the tested loop
            loop = own[-1]
            factors = ["f", "g"]
            factors[row.row] = loads[row.row]
            run = f"for {loop.var} in e{loop.over}: {update} += {' * '.join(factors)}"
            at[-2] += (f"if q{row.flag}:\n    {run}\n    n{n} += {row.table[0]}{row.at}", "else:")
        if var in rows:
            # a cell that holds None is written for the first time
            first = f"t{var}.append({cell})"
            if rows[var] > 1:
                first += f"; r{var}[{' + '.join(term for _, term in node.row)}].append({node.cell[-1][0]})"
            at[-1] += (f"h = {var}[{cell}]", f"if h is None: {first}; h = 0.0", f"{var}[{cell}] = h + f * g")
        else:
            at[-1].append(f"{update} += f * g")
        at[-1].append(f"n{n} += 1")
        for k, lines in enumerate(at):
            if k:
                depth = head(own[k - 1], depth, closes)
            pad = "    " * depth
            for line in lines:
                out += (pad + part for part in line.split("\n"))
                if line[-1] == ":":
                    pad += "    "
                    depth += 1
        out.extend(reversed(closes))
    out[prologue:prologue] = (f"    e{extent} = tuple(range({extent}))" for extent in sorted(ranges))
    out.append(f"    return acc, ({''.join(c + ', ' for c in counters)})")
    return "\n".join(out) + "\n"


@functools.lru_cache(maxsize=1024)  # room for a thousand small kernels, a few kB each
def _kernel(*signature) -> tuple[Callable, _Plan]:
    """The kernel and plan of one signature, built on its first call; neither holds binding data.

    Exceptions are not cached, so a malformed schedule raises on every call.
    """
    plan = _plan(*signature)
    namespace: dict = {"bl": bisect.bisect_left, "np": np, "dd": defaultdict, "isfinite": math.isfinite}
    exec(compile(_render(plan), "<fusetree kernel>", "exec"), namespace)
    return namespace.pop("kernel"), plan  # no function <-> globals cycle left for the collector


def execute(ir: IrNode, binding: Binding) -> tuple[SparseTensor, ExecStats]:
    """Run the loop IR as a generated kernel and assemble the canonical result.

    The kernel is planned and compiled on the first call of its signature
    (see ``_signature``): the IR; each input's bound layout and kind; and the
    tree's extents, root and intermediates. An IR that walks an input in
    another order than ``binding`` stores it raises
    :class:`ModeOrderMismatchError`. Later calls of the signature only run it
    on the operands of ``binding``, passed as they are stored, so a one-shot
    run gains nothing. The kernel allocates its root accumulator, a flat
    list, a float64 ndarray or a dict, in the form planned for the signature.
    Workspaces, the root accumulator and counters are locals of the call, so
    independent calls may run concurrently over the same (immutable) binding.
    """
    kernel, plan = _kernel(*_signature(ir, binding))
    # float64 arrays and scalars warn where Python floats overflow quietly
    with np.errstate(all="ignore") if plan.blocks else contextlib.nullcontext():
        acc, counts = kernel(*(binding.operands[name] for name, _ in plan.operands))
    per_assignment = {name: count for name, count in zip(plan.results, counts) if count}
    stats = ExecStats(sum(counts), max((cells for _, cells in plan.workspaces), default=0), per_assignment)
    if not isinstance(acc, dict):
        return SparseTensor.from_dense(np.asarray(acc).reshape(plan.shape)), stats
    # row-major offsets sort in the lexicographic order of their coordinates
    offsets = sorted(key for key, value in acc.items() if value != 0.0)
    coords = np.array(np.unravel_index(np.array(offsets, dtype=np.intp), plan.shape)).T
    return SparseTensor._trusted(plan.shape, coords, np.array([acc[key] for key in offsets])), stats
