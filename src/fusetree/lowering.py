"""Lowering of schedules to forall/where loop IR.

A solved schedule becomes a sequence of (assignment, loop order) pairs. The
generator walks them once per loop depth: it fuses shared outer loops into
``forall`` nodes, drops fused indices from the intermediate references they
cover, and nests producer/consumer regions under ``where`` nodes (consumer
written first, producer executed first).
"""

from __future__ import annotations

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
