"""Lowering of schedules to forall/where loop IR.

A solved schedule becomes a sequence of (assignment, loop order) pairs; the
recursive generator fuses shared outer loops into ``forall`` nodes, strips
fused indices from the intermediate references they cover, and nests
producer/consumer regions under ``where`` nodes (consumer written first,
producer executed first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .constraints import ScheduleSolution
from .errors import MalformedScheduleError, PrefixMismatchError
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


@dataclass(frozen=True)
class Forall:
    index: str
    body: "IrNode"


@dataclass(frozen=True)
class Where:
    """Producer/consumer region: producer runs first, consumer reads its output."""

    consumer: "IrNode"
    producer: "IrNode"


IrNode = Assign | Forall | Where


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


def remove(index: str, pairs: Sequence[SchedulePair]) -> list[SchedulePair]:
    """Strip a fused loop index from the front of every loop order.

    The index is also deleted from every intermediate reference whose
    producer and consumer both lie within ``pairs``; input and result
    references are untouched.
    """
    for p in pairs:
        if not p.loops or p.loops[0] != index:
            raise PrefixMismatchError(
                f"loop order {p.loops} of contraction {p.cid} does not start with '{index}'"
            )
    produced = {p.result.tensor for p in pairs}
    consumed = {r.tensor for p in pairs for r in (p.lhs, p.rhs)}
    covered = produced & consumed

    def strip(ref: TensorRef) -> TensorRef:
        if ref.tensor in covered and index in ref.indices:
            return TensorRef(ref.tensor, tuple(i for i in ref.indices if i != index))
        return ref

    return [
        SchedulePair(p.cid, strip(p.result), strip(p.lhs), strip(p.rhs), p.loops[1:])
        for p in pairs
    ]


def generate(pairs: Sequence[SchedulePair]) -> IrNode:
    """Recursive IR construction over a schedule-pair sequence.

    Consecutive pairs sharing the same outermost loop index are grouped under
    one ``forall``; multiple groups at a level fold (last to first) into
    nested ``where`` regions.
    """
    if not pairs:
        raise MalformedScheduleError("cannot generate IR from an empty schedule")
    groups: list[tuple[str, list[SchedulePair]] | SchedulePair] = []
    for p in pairs:
        if not p.loops:
            groups.append(p)
            continue
        head = p.loops[0]
        if groups and isinstance(groups[-1], tuple) and groups[-1][0] == head:
            groups[-1][1].append(p)
        else:
            groups.append((head, [p]))

    def emit(group) -> IrNode:
        if isinstance(group, SchedulePair):
            return Assign(group.cid, group.result, group.lhs, group.rhs)
        index, members = group
        return Forall(index, generate(remove(index, members)))

    if len(groups) == 1:
        return emit(groups[0])
    last = groups[-1]
    consumer = (
        Assign(last.cid, last.result, last.lhs, last.rhs)
        if isinstance(last, SchedulePair)
        else generate(last[1])
    )
    prefix_len = len(pairs) - (1 if isinstance(last, SchedulePair) else len(last[1]))
    return Where(consumer, generate(pairs[:prefix_len]))


def lower(tree: ContractionTree, sol: ScheduleSolution) -> IrNode:
    """Convenience: concretize the schedule and generate its loop IR."""
    return generate(schedule_from_solution(tree, sol))


def _ref_text(ref: TensorRef) -> str:
    return f"{ref.tensor}({','.join(ref.indices)})"


def print_ir(node: IrNode, pretty: bool = False, _depth: int = 0) -> str:
    """Deterministic parenthesized rendering of the loop IR.

    The compact form is whitespace-normalized; ``pretty`` adds indentation
    only (the two renderings are identical after stripping whitespace).
    """
    if isinstance(node, Assign):
        return f"{_ref_text(node.result)} = {_ref_text(node.lhs)} * {_ref_text(node.rhs)}"
    if not pretty:
        if isinstance(node, Forall):
            return f"forall({node.index}, {print_ir(node.body)})"
        return f"where({print_ir(node.consumer)}, {print_ir(node.producer)})"
    pad = "  " * (_depth + 1)
    if isinstance(node, Forall):
        return f"forall({node.index},\n{pad}{print_ir(node.body, True, _depth + 1)})"
    return (
        f"where(\n{pad}{print_ir(node.consumer, True, _depth + 1)},\n"
        f"{pad}{print_ir(node.producer, True, _depth + 1)})"
    )


def ir_to_json(node: IrNode) -> dict:
    """Stable JSON rendering of the IR tree for tooling."""
    if isinstance(node, Assign):
        ref = lambda r: {"tensor": r.tensor, "indices": list(r.indices)}
        return {
            "assign": {
                "contraction": node.cid,
                "result": ref(node.result),
                "lhs": ref(node.lhs),
                "rhs": ref(node.rhs),
            }
        }
    if isinstance(node, Forall):
        return {"forall": {"index": node.index, "body": ir_to_json(node.body)}}
    return {"where": {"consumer": ir_to_json(node.consumer), "producer": ir_to_json(node.producer)}}
