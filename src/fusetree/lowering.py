"""Lowering of schedules to forall/where loop IR.

A solved schedule becomes a sequence of (assignment, loop order) pairs. The
generator walks them once per loop depth: it fuses shared outer loops into
``forall`` nodes, drops fused indices from the intermediate references they
cover, and nests producer/consumer regions under ``where`` nodes (consumer
written first, producer executed first).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .constraints import ScheduleSolution
from .errors import MalformedScheduleError
from .network import ContractionTree, TensorRef


@dataclass(frozen=True)
class SchedulePair:
    """One assignment with concrete reference layouts plus its loop order."""

    cid: int
    result: TensorRef
    lhs: TensorRef
    rhs: TensorRef
    loops: tuple[str, ...]  # outer to inner


@dataclass(frozen=True)
class Assign:
    cid: int
    result: TensorRef
    lhs: TensorRef
    rhs: TensorRef


class _Nested:
    """A loop or ``where``, compared and hashed by its pre-order walk: the
    methods ``dataclass`` generates recurse once per level of the tree, and a
    kernel's cache hashes its whole IR. The walk is kept once taken."""

    @functools.cached_property
    def _walk(self) -> tuple:
        return _preorder(self)

    def __eq__(self, other):
        return type(other) is type(self) and self._walk == other._walk

    def __hash__(self):
        return hash(self._walk)


@dataclass(frozen=True, eq=False)
class Forall(_Nested):
    index: str
    body: "IrNode"


@dataclass(frozen=True, eq=False)
class Where(_Nested):
    """Producer/consumer region: producer runs first, consumer reads its output."""

    consumer: "IrNode"
    producer: "IrNode"


IrNode = Assign | Forall | Where


def _preorder(node: IrNode) -> tuple:
    """The nodes of ``node`` in pre-order, consumer before producer, each
    loop as its index and each ``where`` as None: two trees are equal exactly
    when these are."""
    out: list = []
    todo = [node]
    while todo:
        node = todo.pop()
        if isinstance(node, Forall):
            out.append(node.index)
            todo.append(node.body)
        elif isinstance(node, Where):
            out.append(None)
            todo += (node.producer, node.consumer)
        else:
            out.append(node)
    return tuple(out)


def schedule_from_solution(tree: ContractionTree, sol: ScheduleSolution) -> list[SchedulePair]:
    """Order the contractions by assignment position and concretize references.

    Layout-constrained references are reordered by their mode positions;
    intermediate references carry all their indices ordered by the producer's
    loop order (dense workspaces are order-insensitive, so the producer's
    iteration order is the canonical one).
    """
    ordered = sorted(tree.contractions, key=lambda c: sol.ap[c.cid])
    producer_layout: dict[str, tuple[str, ...]] = {}
    pairs: list[SchedulePair] = []
    for c in ordered:
        lp = sol.lp[c.cid]
        loops = tuple(sorted(lp, key=lambda k: lp[k]))

        def concrete(ref: TensorRef) -> TensorRef:
            if ref.tensor in tree.layout_constrained:
                return TensorRef(ref.tensor, sol.layout_indices(ref))
            if ref.tensor in producer_layout:
                return TensorRef(ref.tensor, producer_layout[ref.tensor])
            layout = tuple(sorted(ref.indices, key=lambda k: lp[k]))
            producer_layout[ref.tensor] = layout
            return TensorRef(ref.tensor, layout)

        lhs = concrete(c.lhs)
        rhs = concrete(c.rhs)
        result = concrete(c.result)
        pairs.append(SchedulePair(c.cid, result, lhs, rhs, loops))
    return pairs


def generate(pairs: Sequence[SchedulePair]) -> IrNode:
    """Build the loop IR of a schedule-pair sequence, one walk per loop depth.

    At each depth, consecutive pairs whose loop there is the same index share
    one ``forall``, which fuses that index for every intermediate produced and
    consumed inside it. Each assignment drops its references' fused indices
    when it is built; inputs and the root keep all theirs. The groups of one
    level fold, first to last, into nested ``where`` regions, each group the
    consumer of those before it.
    """
    if not pairs:
        raise MalformedScheduleError("cannot generate IR from an empty schedule")
    return _level(pairs, 0, frozenset())


def _level(pairs: Sequence[SchedulePair], depth: int, fused: frozenset[tuple[str, str]]) -> IrNode:
    """The IR of ``pairs`` from loop ``depth`` in; ``fused`` holds the
    (intermediate, index) pairs that the enclosing loops fuse."""

    def drop(ref: TensorRef) -> TensorRef:
        return TensorRef(ref.tensor, tuple(i for i in ref.indices if (ref.tensor, i) not in fused))

    node = None
    # a pair with no loop left at this depth is its own group, keyed by itself
    for key, group in groupby(pairs, lambda p: p.loops[depth] if depth < len(p.loops) else p):
        if isinstance(key, SchedulePair):
            built = Assign(key.cid, drop(key.result), drop(key.lhs), drop(key.rhs))
        else:
            members = list(group)
            produced = {p.result.tensor for p in members}
            consumed = {r.tensor for p in members for r in (p.lhs, p.rhs)}
            inner = fused | {(name, key) for name in produced & consumed}
            built = Forall(key, _level(members, depth + 1, inner))
        node = built if node is None else Where(built, node)
    return node


def lower(tree: ContractionTree, sol: ScheduleSolution) -> IrNode:
    """Convenience: concretize the schedule and generate its loop IR."""
    return generate(schedule_from_solution(tree, sol))


def _ref_text(ref: TensorRef) -> str:
    return f"{ref.tensor}({','.join(ref.indices)})"


def print_ir(node: IrNode, pretty: bool = False) -> str:
    """Deterministic parenthesized rendering of the loop IR.

    The compact form is whitespace-normalized; ``pretty`` adds indentation
    only (the two renderings are identical after stripping whitespace). The
    walk keeps an explicit stack of pending nodes and literal text, so no
    call depth grows with the nesting of ``where``s.
    """
    parts: list[str] = []
    todo: list = [(node, 0)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        if isinstance(node, Assign):
            parts.append(f"{_ref_text(node.result)} = {_ref_text(node.lhs)} * {_ref_text(node.rhs)}")
            continue
        # ``pretty`` puts each child on a line of its own
        pad = "\n" + "  " * (depth + 1) if pretty else ""
        sep = "," + (pad or " ")
        if isinstance(node, Forall):
            parts.append(f"forall({node.index}{sep}")
            todo += ((")", 0), (node.body, depth + 1))
        else:
            parts.append(f"where({pad}")
            todo += ((")", 0), (node.producer, depth + 1), (sep, 0), (node.consumer, depth + 1))
    return "".join(parts)


def ir_to_json(node: IrNode) -> dict:
    """Stable JSON rendering of the IR tree for tooling, built from the
    leaves up along the reversed pre-order walk."""
    ref = lambda r: {"tensor": r.tensor, "indices": list(r.indices)}
    built: list[dict] = []
    for item in reversed(_preorder(node)):
        if item is None:
            consumer, producer = built.pop(), built.pop()
            built.append({"where": {"consumer": consumer, "producer": producer}})
        elif isinstance(item, str):
            built.append({"forall": {"index": item, "body": built.pop()}})
        else:
            built.append(
                {
                    "assign": {
                        "contraction": item.cid,
                        "result": ref(item.result),
                        "lhs": ref(item.lhs),
                        "rhs": ref(item.rhs),
                    }
                }
            )
    return built[0]
