"""Integer constraint system for integrated contraction/loop/layout scheduling.

Variables: ``ap_i`` orders the assignments, ``lp_{i,k}`` positions each loop
index of contraction ``i``, and ``dp_{T,j}`` positions each mode of a
layout-constrained tensor (network inputs and the root result; intermediates
are workspace-lowered and carry no layout variables). Five constraint
families tie them together; lowering an intermediate of order ``n`` to a
workspace of order at most ``l`` requires the producer's outermost ``n-l``
loops to be indices of that intermediate and to be mirrored by the consumer
and by every assignment scheduled between them.

Three routes answer satisfiability questions and are kept as separate code
paths: :func:`solve` (backtracking search), :func:`verify_solution` (direct
evaluation of the materialized constraint records), and
:func:`brute_force_sat` (exhaustive enumeration for small trees).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    MissingVariableError,
    SolveTimeout,
    TooLargeError,
    UnsatisfiableError,
)
from .network import Contraction, ContractionTree, TensorRef, topological_orders

DEFAULT_TIME_BUDGET = 10.0


# ---------------------------------------------------------------------------
# constraint records


@dataclass(frozen=True)
class AllDifferent:
    family: str  # "ap" | "dp" | "lp"
    scope: str  # contraction id or tensor name, for messages
    variables: tuple[str, ...]


@dataclass(frozen=True)
class ChildBefore:
    child: int
    parent: int


@dataclass(frozen=True)
class ModeLoopOrder:
    """(dp_{T,mode_a} < dp_{T,mode_b}) implies (lp_{cid,index_a} < lp_{cid,index_b})."""

    tensor: str
    cid: int
    mode_a: int
    mode_b: int
    index_a: str
    index_b: str


@dataclass(frozen=True)
class ProducerChoice:
    """Some index of the produced intermediate sits at loop position s."""

    cid: int
    s: int
    indices: tuple[str, ...]


@dataclass(frozen=True)
class ConsumerMatch:
    """(lp_{producer,index} = s) implies (lp_{consumer,index} = s)."""

    producer: int
    consumer: int
    index: str
    s: int


@dataclass(frozen=True)
class InBetweenMatch:
    """ap_p < ap_mid < ap_c makes the middle assignment mirror the fused prefix."""

    producer: int
    middle: int
    consumer: int
    index: str
    s: int


@dataclass(frozen=True)
class LayoutPin:
    """Externally imposed mode order: dp_{tensor,mode} = position."""

    tensor: str
    positions: tuple[tuple[int, int], ...]  # (mode, position)


Constraint = (
    AllDifferent
    | ChildBefore
    | ModeLoopOrder
    | ProducerChoice
    | ConsumerMatch
    | InBetweenMatch
    | LayoutPin
)


@dataclass(frozen=True)
class ConstraintModel:
    tree: ContractionTree
    bound: int
    variables: Mapping[str, int]  # name -> domain size (values 0..size-1)
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class Edge:
    """Producer/consumer pair over one intermediate tensor."""

    tensor: str
    producer: int
    consumer: int
    indices: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.indices)


def layout_constrained(tree: ContractionTree) -> tuple[str, ...]:
    """Tensors that get mode-position variables: inputs plus the root result."""
    return tree.input_names + (tree.root.result.tensor,)


def fusion_edges(tree: ContractionTree) -> tuple[Edge, ...]:
    producer = tree.producer_of
    edges = []
    for c in tree.contractions:
        for ref in (c.lhs, c.rhs):
            if ref.tensor in producer:
                edges.append(Edge(ref.tensor, producer[ref.tensor], c.cid, tuple(ref.indices)))
    return tuple(edges)


def _pin_positions(tree: ContractionTree, tensor: str) -> tuple[tuple[int, int], ...] | None:
    order = tree.layouts.get(tensor)
    if order is None:
        return None
    ref = tree.abstract_ref(tensor)
    return tuple((ref.indices.index(name), pos) for pos, name in enumerate(order))


def build_model(tree: ContractionTree, bound: int) -> ConstraintModel:
    """Materialize every constraint of the scheduling system at the given bound."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    variables: dict[str, int] = {}
    constraints: list[Constraint] = []
    m = tree.m

    for c in tree.contractions:
        variables[f"ap_{c.cid}"] = m
    constraints.append(AllDifferent("ap", "*", tuple(f"ap_{c.cid}" for c in tree.contractions)))
    for c in tree.contractions:
        for child in tree.children_of(c.cid):
            constraints.append(ChildBefore(child, c.cid))

    constrained = layout_constrained(tree)
    for name in constrained:
        ref = tree.abstract_ref(name)
        n = len(ref.indices)
        for j in range(n):
            variables[f"dp_{name}_{j}"] = n
        constraints.append(
            AllDifferent("dp", name, tuple(f"dp_{name}_{j}" for j in range(n)))
        )

    for c in tree.contractions:
        idx = sorted(c.index_set)
        for k in idx:
            variables[f"lp_{c.cid}_{k}"] = len(idx)
        constraints.append(
            AllDifferent("lp", str(c.cid), tuple(f"lp_{c.cid}_{k}" for k in idx))
        )

    pinnable = set(constrained)
    for c in tree.contractions:
        for ref in (c.result, c.lhs, c.rhs):
            if ref.tensor not in pinnable:
                continue  # workspace-lowered intermediates need no consistency
            n = len(ref.indices)
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    constraints.append(
                        ModeLoopOrder(ref.tensor, c.cid, a, b, ref.indices[a], ref.indices[b])
                    )

    others = [c.cid for c in tree.contractions]
    for edge in fusion_edges(tree):
        n = edge.order
        if n <= bound:
            continue  # already small enough: no fusion required for this edge
        for s in range(n - bound):
            constraints.append(ProducerChoice(edge.producer, s, edge.indices))
            for k in edge.indices:
                constraints.append(ConsumerMatch(edge.producer, edge.consumer, k, s))
                for mid in others:
                    if mid in (edge.producer, edge.consumer):
                        continue
                    constraints.append(
                        InBetweenMatch(edge.producer, mid, edge.consumer, k, s)
                    )

    for name in constrained:
        pin = _pin_positions(tree, name)
        if pin is not None:
            constraints.append(LayoutPin(name, pin))

    return ConstraintModel(tree, bound, variables, tuple(constraints))


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class ScheduleSolution:
    """Satisfying assignment for every ap/dp/lp variable at a given bound."""

    bound: int
    ap: Mapping[int, int]
    lp: Mapping[int, Mapping[str, int]]
    dp: Mapping[str, Mapping[int, int]]

    def loop_order(self, cid: int) -> tuple[str, ...]:
        return tuple(sorted(self.lp[cid], key=lambda k: self.lp[cid][k]))

    def mode_perm(self, tensor: str) -> tuple[int, ...]:
        dp = self.dp[tensor]
        return tuple(sorted(dp, key=lambda j: dp[j]))

    def layout_indices(self, ref: TensorRef) -> tuple[str, ...]:
        return tuple(ref.indices[j] for j in self.mode_perm(ref.tensor))

    def to_json_dict(self, tree: ContractionTree) -> dict:
        return {
            "bound": self.bound,
            "assignment_positions": {str(cid): self.ap[cid] for cid in sorted(self.ap)},
            "loop_orders": {str(cid): list(self.loop_order(cid)) for cid in sorted(self.lp)},
            "mode_orders": {
                name: {
                    "perm": list(self.mode_perm(name)),
                    "indices": list(self.layout_indices(tree.abstract_ref(name))),
                }
                for name in sorted(self.dp)
            },
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ScheduleSolution":
        ap = {int(cid): int(pos) for cid, pos in doc["assignment_positions"].items()}
        lp = {
            int(cid): {name: pos for pos, name in enumerate(order)}
            for cid, order in doc["loop_orders"].items()
        }
        dp = {
            name: {int(mode): pos for pos, mode in enumerate(entry["perm"])}
            for name, entry in doc["mode_orders"].items()
        }
        return ScheduleSolution(int(doc["bound"]), ap, lp, dp)


def report_text(tree: ContractionTree, sol: ScheduleSolution) -> str:
    """Stable human-readable schedule report (byte-identical across runs)."""
    lines = [f"bound: {sol.bound}"]
    for c in sorted(tree.contractions, key=lambda c: sol.ap[c.cid]):
        lines.append(f"contraction {c.cid}: {c}")
        lines.append(f"  position: {sol.ap[c.cid]}")
        lines.append(f"  loops (outer to inner): {', '.join(sol.loop_order(c.cid))}")
    for name in sorted(sol.dp):
        ref = tree.abstract_ref(name)
        modes = ", ".join(str(j) for j in sol.mode_perm(name))
        lines.append(f"layout {name}: {', '.join(sol.layout_indices(ref))}  (modes {modes})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# solver


def _candidate_key(c: Contraction) -> tuple[str, ...]:
    """Deterministic tie-break order for loop-position candidates.

    Scans the operand references right to left (rhs, then lhs, then result):
    placing late-written operand indices outermost reproduces the canonical
    fused structures in the regression suite while remaining a pure
    tie-break; any order accepted here is checked by the same constraints.
    """
    seen: list[str] = []
    for ref in (c.rhs, c.lhs, c.result):
        for name in reversed(ref.indices):
            if name not in seen:
                seen.append(name)
    return tuple(seen)


def solve(
    model: ConstraintModel,
    seed: int = 0,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> ScheduleSolution | None:
    """First satisfying schedule under the deterministic search order, or None.

    The search is fully deterministic; ``seed`` is accepted for interface
    stability and does not influence the result. Raises :class:`SolveTimeout`
    when the budget is exceeded.
    """
    del seed
    tree = model.tree
    bound = model.bound
    deadline = time.monotonic() + time_budget
    m = tree.m
    contractions = tree.contractions
    children = {c.cid: tree.children_of(c.cid) for c in contractions}
    keys = {c.cid: _candidate_key(c) for c in contractions}
    edges = fusion_edges(tree)
    produces = {e.producer: e for e in edges}
    consumes: dict[int, list[Edge]] = {}
    for e in edges:
        consumes.setdefault(e.consumer, []).append(e)
    pins: dict[str, tuple[str, ...]] = dict(tree.layouts)
    # an assignment placed between an open producer/consumer pair mirrors the
    # whole fused prefix, which position_ok cannot check past its last loop
    too_short = {
        c.cid: [e for e in edges if e.order - bound > len(keys[c.cid]) and e.consumer != c.cid]
        for c in contractions
    }

    order: list[int] = []
    placed: set[int] = set()
    loops: dict[int, list[str]] = {}

    def position_ok(cid: int, s: int, x: str) -> bool:
        edge = produces.get(cid)
        if edge is not None and edge.order > bound and s < edge.order - bound:
            if x not in edge.indices:
                return False
        for edge in consumes.get(cid, ()):  # producer already placed (child first)
            if edge.order > bound and s < edge.order - bound:
                if x != loops[edge.producer][s]:
                    return False
        for pid in placed:
            edge = produces.get(pid)
            if edge is None or pid == cid or edge.consumer == cid:
                continue
            if edge.consumer in placed:
                continue  # cid is after the consumer, not in between
            if edge.order > bound and s < edge.order - bound:
                if x != loops[pid][s]:
                    return False
        c = contractions[cid]
        for ref in (c.result, c.lhs, c.rhs):
            pin = pins.get(ref.tensor)
            if pin is None or x not in pin:
                continue
            before = pin[: pin.index(x)]
            if any(name not in loops[cid] for name in before):
                return False
        return True

    def try_loops(cid: int, idx: tuple[str, ...]) -> ScheduleSolution | None:
        if time.monotonic() > deadline:
            raise SolveTimeout(time_budget, model)
        s = len(loops[cid])
        if s == len(idx):
            return try_place()
        for x in keys[cid]:
            if x in loops[cid]:
                continue
            if not position_ok(cid, s, x):
                continue
            loops[cid].append(x)
            sol = try_loops(cid, idx)
            if sol is not None:
                return sol
            loops[cid].pop()
        return None

    def try_place() -> ScheduleSolution | None:
        if time.monotonic() > deadline:
            raise SolveTimeout(time_budget, model)
        if len(order) == m:
            return finalize()
        for c in contractions:
            if c.cid in placed or any(ch not in placed for ch in children[c.cid]):
                continue
            short = too_short[c.cid]
            if short and any(e.producer in placed and e.consumer not in placed for e in short):
                continue
            order.append(c.cid)
            placed.add(c.cid)
            loops[c.cid] = []
            sol = try_loops(c.cid, keys[c.cid])
            if sol is not None:
                return sol
            del loops[c.cid]
            placed.remove(c.cid)
            order.pop()
        return None

    def finalize() -> ScheduleSolution | None:
        dp: dict[str, dict[int, int]] = {}
        for name in layout_constrained(tree):
            projections = []
            for c in contractions:
                for ref in (c.result, c.lhs, c.rhs):
                    if ref.tensor != name:
                        continue
                    lp_c = {k: p for p, k in enumerate(loops[c.cid])}
                    layout = tuple(sorted(range(len(ref.indices)), key=lambda j: lp_c[ref.indices[j]]))
                    projections.append(layout)
            first = projections[0]
            if any(p != first for p in projections[1:]):
                return None  # references disagree; no consistent mode order
            pin = pins.get(name)
            if pin is not None:
                ref = tree.abstract_ref(name)
                if tuple(ref.indices[j] for j in first) != pin:
                    return None
            dp[name] = {mode: pos for pos, mode in enumerate(first)}
        ap = {cid: pos for pos, cid in enumerate(order)}
        lp = {cid: {k: p for p, k in enumerate(loops[cid])} for cid in loops}
        return ScheduleSolution(bound, ap, lp, dp)

    return try_place()


def search_min_order(
    tree: ContractionTree,
    l_max: int | None = None,
    seed: int = 0,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> tuple[int, ScheduleSolution]:
    """Smallest workspace-order bound admitting a schedule, with its witness.

    Starts at 1 and increments; a bound equal to the largest intermediate
    order always admits the unfused schedule, so the default ``l_max`` is
    exactly that.
    """
    intermediate_orders = [
        len(c.result.indices)
        for c in tree.contractions
        if c.result.tensor in tree.intermediate_names
    ]
    if l_max is None:
        l_max = max(intermediate_orders, default=1)
    for bound in range(1, l_max + 1):
        sol = solve(build_model(tree, bound), seed=seed, time_budget=time_budget)
        if sol is not None:
            return bound, sol
    raise UnsatisfiableError(f"no schedule with workspace order <= {l_max}")


# ---------------------------------------------------------------------------
# independent verification


def _lookup(mapping, key, label):
    try:
        return mapping[key]
    except KeyError:
        raise MissingVariableError(f"solution does not assign {label}") from None


def verify_solution(tree: ContractionTree, bound: int, sol: ScheduleSolution) -> list[str]:
    """Re-evaluate every constraint record directly against an assignment.

    Returns the list of violated constraints (empty means pass). This path
    shares no logic with the solver; it walks the materialized model.
    """
    model = build_model(tree, bound)
    violations: list[str] = []

    def value(name: str) -> int:
        kind, rest = name.split("_", 1)
        if kind == "ap":
            return _lookup(sol.ap, int(rest), name)
        if kind == "lp":
            cid, idx = rest.split("_", 1)
            return _lookup(_lookup(sol.lp, int(cid), f"lp_{cid}"), idx, name)
        tensor, mode = rest.rsplit("_", 1)
        return _lookup(_lookup(sol.dp, tensor, f"dp_{tensor}"), int(mode), name)

    for name, size in model.variables.items():
        v = value(name)
        if not 0 <= v < size:
            violations.append(f"domain: {name}={v} outside 0..{size - 1}")

    for rec in model.constraints:
        if isinstance(rec, AllDifferent):
            vals = [value(v) for v in rec.variables]
            if len(set(vals)) != len(vals):
                violations.append(f"all-different violated for {rec.family} scope {rec.scope}")
        elif isinstance(rec, ChildBefore):
            if not value(f"ap_{rec.child}") < value(f"ap_{rec.parent}"):
                violations.append(f"ap_{rec.child} must precede ap_{rec.parent}")
        elif isinstance(rec, ModeLoopOrder):
            if value(f"dp_{rec.tensor}_{rec.mode_a}") < value(f"dp_{rec.tensor}_{rec.mode_b}"):
                if not value(f"lp_{rec.cid}_{rec.index_a}") < value(f"lp_{rec.cid}_{rec.index_b}"):
                    violations.append(
                        f"mode/loop consistency: {rec.tensor} modes {rec.mode_a}<{rec.mode_b} "
                        f"but loops {rec.index_a}>{rec.index_b} in contraction {rec.cid}"
                    )
        elif isinstance(rec, ProducerChoice):
            if not any(value(f"lp_{rec.cid}_{k}") == rec.s for k in rec.indices):
                violations.append(
                    f"producer: no index of {rec.indices} at loop position {rec.s} "
                    f"of contraction {rec.cid}"
                )
        elif isinstance(rec, ConsumerMatch):
            if value(f"lp_{rec.producer}_{rec.index}") == rec.s:
                if value(f"lp_{rec.consumer}_{rec.index}") != rec.s:
                    violations.append(
                        f"consumer: index {rec.index} at position {rec.s} of contraction "
                        f"{rec.producer} not mirrored by contraction {rec.consumer}"
                    )
        elif isinstance(rec, InBetweenMatch):
            if value(f"ap_{rec.producer}") < value(f"ap_{rec.middle}") < value(f"ap_{rec.consumer}"):
                if value(f"lp_{rec.producer}_{rec.index}") == rec.s:
                    # a middle assignment lacking the index cannot mirror it
                    mid = _lookup(sol.lp, rec.middle, f"lp_{rec.middle}").get(rec.index)
                    if mid != rec.s:
                        violations.append(
                            f"in-between: contraction {rec.middle} breaks the fused prefix "
                            f"at position {rec.s} (index {rec.index})"
                        )
        elif isinstance(rec, LayoutPin):
            for mode, pos in rec.positions:
                if value(f"dp_{rec.tensor}_{mode}") != pos:
                    violations.append(
                        f"layout pin: {rec.tensor} mode {mode} must sit at position {pos}"
                    )
    return violations


# ---------------------------------------------------------------------------
# exhaustive oracle


def brute_force_sat(tree: ContractionTree, bound: int) -> bool:
    """Exhaustive satisfiability check for small trees (m <= 3, |I| <= 5).

    Enumerates topological orders x loop permutations x mode permutations
    and tests the scheduling conditions directly, independent of the solver.
    """
    if tree.m > 3:
        raise TooLargeError(f"brute force limited to 3 contractions, tree has {tree.m}")
    for c in tree.contractions:
        if len(c.index_set) > 5:
            raise TooLargeError(f"brute force limited to 5 indices, {c} has {len(c.index_set)}")

    edges = fusion_edges(tree)
    constrained = layout_constrained(tree)

    def pos_of(perm: tuple[str, ...], k: str) -> int | None:
        return perm.index(k) if k in perm else None

    def prefix_ok(seq: tuple[int, ...], perms: dict[int, tuple[str, ...]]) -> bool:
        pos = {cid: i for i, cid in enumerate(seq)}
        for e in edges:
            n = e.order
            if n <= bound:
                continue
            prod = perms[e.producer]
            for s in range(n - bound):
                if prod[s] not in e.indices:
                    return False
                for k in e.indices:
                    if prod.index(k) == s and perms[e.consumer].index(k) != s:
                        return False
                for mid in seq:
                    if mid in (e.producer, e.consumer):
                        continue
                    if pos[e.producer] < pos[mid] < pos[e.consumer]:
                        for k in e.indices:
                            if prod.index(k) == s and pos_of(perms[mid], k) != s:
                                return False
        return True

    def partial_ok(cid: int, perm: tuple[str, ...], perms: dict[int, tuple[str, ...]]) -> bool:
        # evaluate every condition whose variables are fully assigned so far
        for e in edges:
            n = e.order
            if n <= bound:
                continue
            if e.producer == cid:
                if any(perm[s] not in e.indices for s in range(n - bound)):
                    return False
            if e.producer in perms and (e.consumer == cid or e.consumer not in perms):
                prod = perms[e.producer]
                for s in range(n - bound):
                    for k in e.indices:
                        if prod.index(k) == s and pos_of(perm, k) != s:
                            return False
        return True

    def mode_order_exists(name: str, perms: dict[int, tuple[str, ...]]) -> bool:
        ref = tree.abstract_ref(name)
        n = len(ref.indices)
        pin = tree.layouts.get(name)
        if pin is not None:
            candidates: Iterable[tuple[int, ...]] = [
                tuple(ref.indices.index(x) for x in pin)
            ]
        else:
            candidates = itertools.permutations(range(n))
        refs = [
            (c.cid, r)
            for c in tree.contractions
            for r in (c.result, c.lhs, c.rhs)
            if r.tensor == name
        ]
        for perm in candidates:
            dp = {mode: pos for pos, mode in enumerate(perm)}
            ok = True
            for cid, r in refs:
                lp = {k: perms[cid].index(k) for k in r.indices}
                for a in range(n):
                    for b in range(n):
                        if a != b and dp[a] < dp[b] and not lp[r.indices[a]] < lp[r.indices[b]]:
                            ok = False
            if ok:
                return True
        return False

    def extend(seq: tuple[int, ...], i: int, perms: dict[int, tuple[str, ...]]) -> bool:
        if i == len(seq):
            if not prefix_ok(seq, perms):  # authoritative re-check of all conditions
                return False
            return all(mode_order_exists(name, perms) for name in constrained)
        cid = seq[i]
        for perm in itertools.permutations(sorted(tree.contractions[cid].index_set)):
            if not partial_ok(cid, perm, perms):
                continue
            perms[cid] = perm
            if extend(seq, i + 1, perms):
                return True
            del perms[cid]
        return False

    for seq in topological_orders(tree):
        if extend(seq, 0, {}):
            return True
    return False
