"""Integer constraint system for integrated contraction/loop/layout scheduling.

Variables: ``ap_i`` orders the assignments, ``lp_{i,k}`` positions each loop
index of contraction ``i``, and ``dp_{T,j}`` positions each mode of a
layout-constrained tensor (``tree.layout_constrained``: network inputs and
the root result; intermediates are workspace-lowered and carry no layout
variables). Five constraint families tie them together; lowering an
intermediate of order ``n`` to a workspace of order at most ``l`` requires
the producer's outermost ``n-l`` loops to be indices of that intermediate and
to be mirrored by the consumer and by every assignment scheduled between
them. Producer/consumer pairs are the tree's fusion edges (``tree.edges``).
The search checks both mirror conditions as one rule: a placed producer whose
consumer is not yet placed leaves its fused prefix open, and the contraction
placed next must have at least as many loops as the longest open prefix and
copy it position by position.

The search reads the clock on its first node and on every ``CLOCK_STRIDE``-th
(64th) node after it, a node being one call that places a contraction or one
loop. It may therefore overrun its time budget by at most 64 nodes before it
raises :class:`SolveTimeout`, which reports the nodes visited.

Three routes answer satisfiability questions and are kept as separate code
paths: :func:`solve` (backtracking search), :func:`verify_solution` (direct
evaluation of the materialized constraint records), and
:func:`brute_force_sat` (exhaustive enumeration for small trees).
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    InvalidBoundError,
    MalformedSolutionError,
    MissingVariableError,
    SolveTimeout,
    TooLargeError,
    UnsatisfiableError,
)
from .network import Contraction, ContractionTree, TensorRef, topological_orders

DEFAULT_TIME_BUDGET = 10.0
CLOCK_STRIDE = 64  # search nodes per clock read; a power of two
CLOCK_MASK = CLOCK_STRIDE - 1


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
    variables: Mapping[str, int]  # name -> domain size (values 0..size-1)
    constraints: tuple[Constraint, ...]


def _pin_positions(tree: ContractionTree, tensor: str) -> tuple[tuple[int, int], ...] | None:
    order = tree.layouts.get(tensor)
    if order is None:
        return None
    ref = tree.abstract_ref(tensor)
    return tuple((ref.indices.index(name), pos) for pos, name in enumerate(order))


def build_model(tree: ContractionTree, bound: int) -> ConstraintModel:
    """Materialize every constraint of the scheduling system at the given bound."""
    if bound < 1:
        raise InvalidBoundError(f"bound must be >= 1, got {bound}")
    variables: dict[str, int] = {}
    constraints: list[Constraint] = []
    m = tree.m

    for c in tree.contractions:
        variables[f"ap_{c.cid}"] = m
    constraints.append(AllDifferent("ap", "*", tuple(f"ap_{c.cid}" for c in tree.contractions)))
    for edge in tree.edges:
        constraints.append(ChildBefore(edge.producer, edge.consumer))

    constrained = tree.layout_constrained
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

    for c in tree.contractions:
        for ref in (c.result, c.lhs, c.rhs):
            if ref.tensor not in constrained:
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
    for edge in tree.edges:
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

    return ConstraintModel(variables, tuple(constraints))


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
        """Read the :meth:`to_json_dict` form; raises :class:`MalformedSolutionError`."""
        if not isinstance(doc, dict):
            raise MalformedSolutionError("a solution must be a JSON object")
        try:
            ap = {
                _json_id(cid, "assignment_positions"): _json_int(
                    pos, f"assignment position of contraction {cid}"
                )
                for cid, pos in doc["assignment_positions"].items()
            }
            lp = {
                _json_id(cid, "loop_orders"): _json_order(order, str, f"loop order of contraction {cid}")
                for cid, order in doc["loop_orders"].items()
            }
            dp = {
                name: _json_order(entry["perm"], int, f"perm of tensor '{name}'")
                for name, entry in doc["mode_orders"].items()
            }
            return ScheduleSolution(_json_int(doc["bound"], "bound"), ap, lp, dp)
        except KeyError as exc:
            raise MalformedSolutionError(f"solution has no key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedSolutionError(f"malformed solution: {exc}") from None


def _json_id(key: str, what: str) -> int:
    # int() also reads " 1", "0_2", "00" and "+2", so two keys could name one id
    cid = int(key)
    if key != str(cid):
        raise MalformedSolutionError(
            f"{what} key {json.dumps(key)} must be written {json.dumps(str(cid))}"
        )
    return cid


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # JSON true is a bool, 2.0 a float and "2" a string
        raise MalformedSolutionError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _json_order(value, item_type: type, what: str) -> dict:
    """Position of each item of a JSON list of ``item_type`` values."""
    # a string such as "rjpqi" or "120" would otherwise be read character by character
    if type(value) is not list or any(type(item) is not item_type for item in value):
        noun = "index names" if item_type is str else "integers"
        raise MalformedSolutionError(f"{what} must be a list of {noun}, got {json.dumps(value)}")
    return {item: pos for pos, item in enumerate(value)}


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
    :func:`solve` sorts this order stably by descending extent, so it decides
    only among indices of one extent.
    """
    seen: list[str] = []
    for ref in (c.rhs, c.lhs, c.result):
        for name in reversed(ref.indices):
            if name not in seen:
                seen.append(name)
    return tuple(seen)


def solve(
    tree: ContractionTree,
    bound: int,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> ScheduleSolution | None:
    """First satisfying schedule at ``bound`` under the deterministic search order, or None.

    The search reads the tree directly; :func:`build_model` materializes the
    same system only for :func:`verify_solution`. The search checks the
    consumer and in-between conditions as one rule, the open prefix of the
    module docstring. A layout pin constrains every reference of its tensor
    by mode: a loop is placed only after the loops that some pinned reference
    of its contraction puts before it, so every pinned tensor ends in its
    pinned mode order.

    What a node reads that does not change during the search (each fused
    edge's width, each contraction's candidates, children, allowed indices
    per position and pins) is gathered before it, so a node does only its own
    work. Where an open prefix fixes a position, its index is the one
    candidate tried. Raises :class:`SolveTimeout`, with the nodes visited,
    when the budget is exceeded (the clock is read on the first node and on
    every 64th after it, so the search overruns its budget by at most 64
    nodes) and :class:`TooLargeError` when the tree is deeper than the
    search can recurse.
    """
    if bound < 1:
        raise InvalidBoundError(f"bound must be >= 1, got {bound}")
    clock = time.monotonic
    deadline = clock() + time_budget
    m = tree.m
    contractions = tree.contractions
    # larger extents first, so the sparse tensor's long loops go outside and
    # short dense ones inside its traversal; an undeclared extent sorts as 0
    extents = tree.extents
    keys = {c.cid: tuple(sorted(_candidate_key(c), key=lambda x: -extents.get(x, 0))) for c in contractions}
    edges = tree.edges
    produces = {e.producer: e for e in edges}
    constrained = set(tree.layout_constrained)
    # each pin translated by mode to every reference of its tensor: the loops
    # that some pinned reference of a contraction puts before each loop
    before: dict[int, dict[str, set[str]]] = {c.cid: {} for c in contractions}
    for c in contractions:
        for ref in (c.result, c.lhs, c.rhs):
            if ref.tensor in tree.layouts:
                declared = tree.abstract_ref(ref.tensor).indices
                order = [ref.indices[declared.index(x)] for x in tree.layouts[ref.tensor]]
                for p in range(1, len(order)):
                    before[c.cid].setdefault(order[p], set()).update(order[:p])
    # forward check: the index a producer puts at fused position s is mirrored
    # by its consumer, which must fill s from its own result while s lies in
    # its own fused prefix, and so on up the chain; None leaves s unlimited
    allowed: dict[int, list[set[str] | None]] = {c.cid: [None] * len(keys[c.cid]) for c in contractions}
    for edge in edges:
        for s in range(edge.order - bound):
            indices = set(edge.indices)
            up = produces.get(edge.consumer)
            while up is not None and s < up.order - bound:
                indices &= set(up.indices)
                up = produces.get(up.consumer)
            allowed[edge.producer][s] = indices
    # what each node reads, gathered once: the width of every prefix that
    # must fuse, with its edge, and each contraction's record
    fused = [(e.order - bound, e.producer, e.consumer) for e in edges if e.order > bound]
    places = [
        (c.cid, keys[c.cid], frozenset(tree.children_of(c.cid)), allowed[c.cid], before[c.cid])
        for c in contractions
    ]
    nodes = 0  # visited so far; the clock is read when nodes % CLOCK_STRIDE == 1

    loops: dict[int, list[str]] = {}  # the loops of each placed contraction, in placement order

    def try_loops(
        placed: list[str],
        key: tuple[str, ...],
        allow: list[set[str] | None],
        before_loop: dict[str, set[str]],
        prefix: list[str],
    ) -> ScheduleSolution | None:
        # ``placed`` is loops[cid]; ``key``, ``allow`` and ``before_loop`` are from cid's record
        nonlocal nodes
        nodes += 1
        if nodes & CLOCK_MASK == 1 and clock() > deadline:
            raise SolveTimeout(time_budget, tree, bound, nodes)
        s = len(placed)
        if s == len(key):
            return try_place()
        if s < len(prefix):
            # the open prefix leaves one candidate, if the contraction has that index
            candidates = (prefix[s],) if prefix[s] in key else ()
        else:
            candidates = key
        indices = allow[s]
        for x in candidates:
            if x in placed or (indices is not None and x not in indices):
                continue
            earlier = before_loop.get(x)
            if earlier is not None and not earlier.issubset(placed):
                continue
            placed.append(x)
            sol = try_loops(placed, key, allow, before_loop, prefix)
            if sol is not None:
                return sol
            placed.pop()
        return None

    def try_place() -> ScheduleSolution | None:
        nonlocal nodes
        nodes += 1
        if nodes & CLOCK_MASK == 1 and clock() > deadline:
            raise SolveTimeout(time_budget, tree, bound, nodes)
        if len(loops) == m:
            return finalize()
        # open prefixes agree where they overlap (each copied the earlier ones), so the longest decides
        prefix: list[str] = []
        for width, producer, consumer in fused:
            if width > len(prefix) and producer in loops and consumer not in loops:
                prefix = loops[producer][:width]
        for cid, key, kids, allow, before_loop in places:
            if cid in loops or len(key) < len(prefix) or not loops.keys() >= kids:
                continue
            loops[cid] = placed = []
            sol = try_loops(placed, key, allow, before_loop, prefix)
            if sol is not None:
                return sol
            del loops[cid]
        return None

    def finalize() -> ScheduleSolution | None:
        lp = {cid: {k: p for p, k in enumerate(loops[cid])} for cid in loops}
        modes: dict[str, tuple[int, ...]] = {}
        for c in contractions:
            for ref in (c.result, c.lhs, c.rhs):
                if ref.tensor in constrained:
                    order = tuple(sorted(range(len(ref.indices)), key=lambda j: lp[c.cid][ref.indices[j]]))
                    if modes.setdefault(ref.tensor, order) != order:
                        return None  # references disagree; no consistent mode order
        dp = {name: {mode: pos for pos, mode in enumerate(modes[name])} for name in tree.layout_constrained}
        ap = {cid: pos for pos, cid in enumerate(loops)}
        return ScheduleSolution(bound, ap, lp, dp)

    try:
        return try_place()
    except RecursionError:  # the search recurses per placed contraction and loop
        raise TooLargeError(
            f"a tree of {m} contractions is too deep for the search at bound {bound}"
        ) from None
    finally:
        del try_loops, try_place  # they refer to each other; free them without the collector


def search_min_order(
    tree: ContractionTree,
    l_max: int | None = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> tuple[int, ScheduleSolution]:
    """Smallest workspace-order bound admitting a schedule, with its witness.

    Starts at 1 and increments; a bound equal to the largest intermediate
    order always admits the unfused schedule, so the default ``l_max`` is
    exactly that. An ``l_max`` below 1 raises :class:`InvalidBoundError`.
    """
    if l_max is None:
        l_max = max((e.order for e in tree.edges), default=1)
    if l_max < 1:
        raise InvalidBoundError(f"bound must be >= 1, got {l_max}")
    for bound in range(1, l_max + 1):
        sol = solve(tree, bound, time_budget)
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
    shares no logic with the solver; it walks the materialized model. An
    entry the model does not name is a violation too, so together with the
    domain and all-different checks every loop order and mode order must be
    a permutation; a variable the solution lacks raises
    :class:`MissingVariableError`.
    """
    model = build_model(tree, bound)
    given = [f"ap_{cid}" for cid in sol.ap]
    given += [f"lp_{cid}_{idx}" for cid, loops in sol.lp.items() for idx in loops]
    given += [f"dp_{name}_{mode}" for name, modes in sol.dp.items() for mode in modes]
    violations = [
        f"extra: {name} is not a variable of the model"
        for name in given
        if name not in model.variables
    ]

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

    edges = tree.edges
    constrained = tree.layout_constrained

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
