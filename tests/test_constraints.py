"""Constraint model construction, solving, verification, and the brute oracle."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from fusetree import (
    Assign,
    Forall,
    brute_force_sat,
    build_model,
    build_tree,
    lower,
    parse_network,
    print_ir,
    report_text,
    search_min_order,
    solve,
    verify_solution,
)
from fusetree import constraints
from fusetree.bench import bench_generate, running_example_network
from fusetree.constraints import (
    ConsumerMatch,
    InBetweenMatch,
    LayoutPin,
    ProducerChoice,
    ScheduleSolution,
)
from fusetree.errors import (
    InvalidBoundError,
    MissingVariableError,
    SolveTimeout,
    TooLargeError,
    UnsatisfiableError,
)
from conftest import random_tree, reference_witness

# Both children of R stay open while R is placed: W0 fixes one fused loop and
# W1 two, so R must copy the longer prefix, not only the first one opened.
TWO_OPEN_PREFIXES_NETWORK = """
extent b 4
extent c 3
extent e 2
extent f 2
extent h 3
W0[c,f] = A1[c,h] * B2[f]
W1[b,e,f] = C3[e] * D4[f,b]
R[b,e,f] = W0[c,f] * W1[b,e,f]
"""

# tree 0 that tests/fuzz_solver.py draws at seed 1
FUZZ_TREE_0 = """
extent a 2
extent d 2
extent e 2
extent g 2
extent h 2
extent i 2
extent k 2
extent l 2
extent m 2
extent p 2
W0[e,h,l,p] = L5[a,l,h,e] * L1[p]
W1[i,m,p] = L0[i] * L2[p,k,g,m]
W2[h,m,p] = L4[m] * W0[e,h,l,p]
W3[h,m] = W1[i,m,p] * W2[h,m,p]
R[h] = W3[h,m] * L3[d,h]
"""

# Each bound tried for the first 32 trees of tests/fuzz_solver.py at seed 1,
# searched bound by bound until one is satisfiable, with the first 12 hex
# digits of the sha256 of the witness's report_text. Recorded before the
# search's per-node work was cut; trees 3, 7, 8, 10, 12, 15, 17 and 28, which
# took 20-300 ms each then, are left out.
FUZZ_REPORT_DIGESTS = {
    0: "1:unsat 2:sat:9bea15cc3ea1",
    1: "1:unsat 2:sat:97800caca514",
    2: "1:sat:4f9b8fa91622",
    4: "1:unsat 2:unsat 3:sat:3f799d65a03b",
    5: "1:unsat 2:sat:551e0cd758bb",
    6: "1:unsat 2:sat:64b54cee7d72",
    9: "1:sat:907c752e8efc",
    11: "1:unsat 2:sat:a719b1a6f5c1",
    13: "1:unsat 2:sat:130173c9bb99",
    14: "1:unsat 2:sat:bd43b1f25440",
    16: "1:sat:9d424e7ade49",
    18: "1:sat:7783a8039d95",
    19: "1:unsat 2:sat:a1896b2448b8",
    20: "1:unsat 2:sat:5a61843e66e6",
    21: "1:sat:af52a1cd2faa",
    22: "1:sat:bb0a990388fa",
    23: "1:unsat 2:sat:8c4924f93ad8",
    24: "1:unsat 2:unsat 3:sat:2cfb4c3241e0",
    25: "1:sat:ddb7d879b971",
    26: "1:sat:4da128dbcaee",
    27: "1:unsat 2:unsat 3:sat:e3e0b908502e",
    29: "1:unsat 2:sat:2f41efa43fa1",
    30: "1:sat:703b9780faca",
    31: "1:sat:cfc93814ba8a",
}


class TestBuildModel:
    def test_producer_disjunction_at_outermost(self, running_tree):
        model = build_model(running_tree, 2)
        choices = [c for c in model.constraints if isinstance(c, ProducerChoice)]
        first = [c for c in choices if c.cid == 0 and c.s == 0]
        assert len(first) == 1
        assert set(first[0].indices) == {"i", "j", "q", "r"}
        # order-4 intermediates at bound 2: positions 0 and 1 for both edges
        assert {(c.cid, c.s) for c in choices} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_small_intermediate_contributes_nothing(self, chain_tree):
        model = build_model(chain_tree, 2)  # X has order 2 <= bound
        assert not [c for c in model.constraints if isinstance(c, (ProducerChoice, ConsumerMatch))]

    def test_in_between_only_for_distinct_middle(self, running_tree):
        model = build_model(running_tree, 2)
        for rec in model.constraints:
            if isinstance(rec, InBetweenMatch):
                assert rec.middle not in (rec.producer, rec.consumer)

    def test_no_layout_variables_for_intermediates(self, running_tree):
        model = build_model(running_tree, 2)
        assert not any(v.startswith("dp_X") or v.startswith("dp_Y") for v in model.variables)
        for name in ("A", "B", "C", "D", "R"):
            assert f"dp_{name}_0" in model.variables

    def test_layout_pin_recorded(self, running_tree):
        model = build_model(running_tree, 2)
        pins = [c for c in model.constraints if isinstance(c, LayoutPin)]
        assert len(pins) == 1 and pins[0].tensor == "R"
        # R[i,j,k] stored as (j,k,i): mode 0 (i) at position 2, etc.
        assert dict(pins[0].positions) == {0: 2, 1: 0, 2: 1}

    def test_chain_assignment_positions_forced(self, running_tree):
        sol = solve(running_tree, 2)
        assert [sol.ap[c] for c in range(3)] == [0, 1, 2]


class TestSolve:
    def test_reference_witness_found_at_bound_2(self, running_tree):
        sol = solve(running_tree, 2)
        ref = reference_witness()
        assert sol.ap == ref.ap
        assert sol.lp == ref.lp
        assert sol.dp == ref.dp

    def test_unsat_at_bound_1_with_pinned_root(self, running_tree):
        assert solve(running_tree, 1) is None

    @pytest.mark.parametrize("l_max", (0, -3))
    def test_bound_search_rejects_a_limit_below_one(self, running_tree, l_max):
        # no bound is tried, so this is a bad request, not an unsat proof
        with pytest.raises(InvalidBoundError, match=f"got {l_max}"):
            search_min_order(running_tree, l_max=l_max)

    def test_free_root_admits_deeper_fusion(self, running_tree_free):
        assert solve(running_tree_free, 1) is not None

    def test_single_contraction_any_bound(self, matmul_tree):
        for bound in (1, 2, 3):
            assert solve(matmul_tree, bound) is not None

    def test_solutions_verify(self, running_tree, chain_tree, matmul_tree):
        for tree in (running_tree, chain_tree, matmul_tree, parse_network(TWO_OPEN_PREFIXES_NETWORK)):
            for bound in (1, 2, 3):
                sol = solve(tree, bound)
                if sol is not None:
                    assert verify_solution(tree, bound, sol) == []

    def test_permutation_property(self, running_tree):
        sol = solve(running_tree, 2)
        assert sorted(sol.ap.values()) == [0, 1, 2]
        for cid, lp in sol.lp.items():
            assert sorted(lp.values()) == list(range(len(lp)))
        for tensor, dp in sol.dp.items():
            assert sorted(dp.values()) == list(range(len(dp)))

    def test_deterministic(self, running_tree):
        a = solve(running_tree, 2)
        b = solve(parse_network(running_example_network(4)), 2)
        assert a == b
        assert report_text(running_tree, a) == report_text(running_tree, b)

    def test_timeout(self, running_tree):
        with pytest.raises(SolveTimeout) as info:
            solve(running_tree, 2, time_budget=-1.0)
        assert info.value.tree is running_tree
        assert info.value.bound == 2
        assert info.value.nodes == 1  # the first node reads the clock

    def test_an_open_prefix_index_the_next_contraction_lacks_ends_the_branch(self):
        # tree 0 of fuzz_solver.py at seed 1: at bound 2, W0 placed first
        # leaves the prefix p, e open, and W1, tried next, lacks e; the forced
        # candidate must be refused, or W1 takes e in place of one of its own
        # loops and finalize fails (KeyError: 'i')
        tree = parse_network(FUZZ_TREE_0)
        w0, w1 = (tree.contractions[tree.producer_of[name]] for name in ("W0", "W1"))
        assert "e" in w0.result.indices and "e" not in w1.index_set
        assert solve(tree, 1) is None
        sol = solve(tree, 2)
        assert verify_solution(tree, 2, sol) == []
        assert sol.loop_order(w0.cid)[:2] == ("p", "e")
        assert [c.result.tensor for c in sorted(tree.contractions, key=lambda c: sol.ap[c.cid])] == [
            "W0", "W2", "W1", "W3", "R"
        ]


class TestClockStride:
    """The search reads the clock on its first node and then on every 64th."""

    def _clock(self, monkeypatch, expire_at: int) -> list:
        # the first read sets the deadline; the read numbered expire_at, and any after, is past it
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) < expire_at else float("inf")

        monkeypatch.setattr(constraints.time, "monotonic", clock)
        return reads

    @pytest.mark.parametrize("expire_at", (2, 3, 4, 12))
    def test_reads_come_one_stride_apart(self, monkeypatch, expire_at):
        # read 2 is node 1's, so a spent budget stops the first node, and
        # read k is node 64 * (k - 2) + 1's; the reverse-pinned order-4 chain
        # visits far more nodes than that at bound 3
        tree = parse_network(_ttmc_chain(4).replace("X1[", "layout R r3,r2,r1,r0\nX1[", 1))
        reads = self._clock(monkeypatch, expire_at)
        with pytest.raises(SolveTimeout) as info:
            solve(tree, 3, time_budget=1.0)
        assert info.value.nodes == 64 * (expire_at - 2) + 1
        assert len(reads) == expire_at


def _ttmc_chain(order: int) -> str:
    """X1[r0,i1..] = T[i0..] * U0[i0,r0], ..., R[r0..] = X{order-1}[..] * U{order-1}[..]."""
    lines = [f"extent {x}{k} 2" for x in "ir" for k in range(order)]
    cur, prev = [f"i{k}" for k in range(order)], "T"
    for m in range(order):
        new = cur[:m] + [f"r{m}"] + cur[m + 1 :]
        out = "R" if m == order - 1 else f"X{m + 1}"
        lines.append(f"{out}[{','.join(new)}] = {prev}[{','.join(cur)}] * U{m}[i{m},r{m}]")
        cur, prev = new, out
    return "\n".join(lines) + "\n"


class TestSearchMinOrder:
    def test_order6_ttmc_chain_proves_its_minimal_bound(self):
        # bounds 1-3 are unsat; the forward check proves it without a timeout
        tree = parse_network(_ttmc_chain(6))
        bound, sol = search_min_order(tree)
        assert bound == 4
        assert verify_solution(tree, 4, sol) == []

    def test_running_example_needs_two(self, running_tree):
        bound, sol = search_min_order(running_tree)
        assert bound == 2
        assert verify_solution(running_tree, 2, sol) == []

    def test_free_running_example_fuses_to_vectors(self, running_tree_free):
        bound, _ = search_min_order(running_tree_free)
        assert bound == 1

    def test_single_contraction(self, matmul_tree):
        assert search_min_order(matmul_tree)[0] == 1

    def test_two_contraction_chain_fuses_outer_loop(self, chain_tree):
        bound, sol = search_min_order(chain_tree)
        assert bound == 1
        producer = next(c for c in chain_tree.contractions if c.result.tensor == "X")
        outer = sol.loop_order(producer.cid)[0]
        assert outer in ("i", "j")  # one mode of X fused away

    def test_unsat_beyond_cap(self, running_tree):
        with pytest.raises(UnsatisfiableError):
            search_min_order(running_tree, l_max=1)

    def test_short_assignment_not_placed_inside_a_fused_prefix(self):
        # V has two loops; placed between W's producer and consumer it cannot
        # mirror W's three-position fused prefix at bound 1
        text = (
            "extent b 2\nextent d 2\nextent e 2\nextent g 2\n"
            "W[b,d,e,g] = A[b,d] * B[e,g]\nV[d,e] = C[e] * D[d]\n"
            "R[] = W[b,d,e,g] * V[d,e]\n"
        )
        tree = parse_network(text)
        bound, sol = search_min_order(tree)
        assert bound == 1 and brute_force_sat(tree, 1)
        assert verify_solution(tree, bound, sol) == []

        def workspace_orders(node):
            if isinstance(node, Assign):
                refs = (node.result, node.lhs, node.rhs)
                return [len(r.indices) for r in refs if r.tensor in ("W", "V")]
            if isinstance(node, Forall):
                return workspace_orders(node.body)
            return workspace_orders(node.producer) + workspace_orders(node.consumer)

        assert max(workspace_orders(lower(tree, sol))) <= bound


class TestVerify:
    def test_reference_witness_passes(self, running_tree):
        assert verify_solution(running_tree, 2, reference_witness()) == []

    def test_swapped_outer_loops_fail(self, running_tree):
        ref = reference_witness()
        lp0 = dict(ref.lp[0])
        lp0["r"], lp0["j"] = lp0["j"], lp0["r"]
        broken = ScheduleSolution(ref.bound, ref.ap, {**ref.lp, 0: lp0}, ref.dp)
        violations = verify_solution(running_tree, 2, broken)
        assert violations
        assert any("consumer" in v or "consistency" in v for v in violations)

    def test_missing_variable(self, running_tree):
        ref = reference_witness()
        gappy = ScheduleSolution(ref.bound, ref.ap, ref.lp, {k: v for k, v in ref.dp.items() if k != "D"})
        with pytest.raises(MissingVariableError):
            verify_solution(running_tree, 2, gappy)


def _bench_trees():
    trees = {"running_example": parse_network(running_example_network(4))}
    for kind in ("mttkrp1", "mttkrp2", "mttkrp3", "ttmc1", "ttmc2", "ttmc3"):
        trees[kind] = bench_generate(kind, extents=(4, 5, 6), rank=3, seed=1).tree
    trees["chain"] = parse_network(
        "extent i 4\nextent j 5\nextent k 3\nX[i,j] = A[i,k] * B[k,j]\nR[i] = X[i,j] * V[j]\n"
    )
    return trees


# networks that read the pinned input A twice, the second time as A[{a}];
# each is tried with every order of A's indices there and in the pin
PINNED_TWICE = {
    "one-contraction": ("i,j", "R[i,j] = A[i,j] * A[{a}]"),
    "producer-and-consumer": ("i,j", "X[i,j] = A[i,j] * B[j]\nR[i] = X[i,j] * A[{a}]"),
    "order-3": ("i,j,k", "X[i,j,k] = A[i,j,k] * B[k]\nR[i] = X[i,j,k] * A[{a}]"),
    "chain": ("i,j", "X[i,j] = A[i,j] * B[j]\nY[i,j] = X[i,j] * C[i]\nR[i] = Y[i,j] * A[{a}]"),
    "siblings": ("i,j", "X[i,j] = A[i,j] * B[j]\nY[i,j] = A[{a}] * C[i]\nR[i] = X[i,j] * Y[i,j]"),
}


class TestBruteForceAgreement:
    @pytest.mark.parametrize("kind", sorted(_bench_trees()))
    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_agreement(self, kind, bound):
        tree = _bench_trees()[kind]
        got = solve(tree, bound) is not None
        want = brute_force_sat(tree, bound)
        assert got == want

    def test_running_example_pinpoints(self, running_tree):
        assert brute_force_sat(running_tree, 1) is False
        assert brute_force_sat(running_tree, 2) is True

    def test_too_large(self):
        text_lines = ["X0[a] = A[a,b] * B[b,a]"]
        for k in range(1, 4):
            text_lines.append(f"X{k}[a] = X{k-1}[a] * C{k}[a]")
        tree = parse_network("\n".join(text_lines) + "\n")
        with pytest.raises(TooLargeError):
            brute_force_sat(tree, 1)

    def test_agreement_on_random_trees(self):
        rng = random.Random(2024)
        for _ in range(40):
            tree = random_tree(rng)
            for bound in (1, 2, 3):
                assert (solve(tree, bound) is not None) == brute_force_sat(
                    tree, bound
                )

    @pytest.mark.parametrize("indices, body", PINNED_TWICE.values(), ids=list(PINNED_TWICE))
    def test_input_pinned_and_read_twice(self, indices, body):
        names = indices.split(",")
        head = "".join(f"extent {x} 2\n" for x in names)
        for second in itertools.permutations(names):
            for pin in itertools.permutations(names):
                text = f"{head}layout A {','.join(pin)}\n" + body.format(a=",".join(second)) + "\n"
                tree = parse_network(text)
                l_max = max((e.order for e in tree.edges), default=1)
                sat = [b for b in range(1, l_max + 1) if brute_force_sat(tree, b)]
                if not sat:
                    with pytest.raises(UnsatisfiableError):
                        search_min_order(tree)
                    continue
                bound, sol = search_min_order(tree)
                assert bound == sat[0], text
                assert verify_solution(tree, bound, sol) == [], text


def test_solver_fuzz_runs_clean(capsys):
    import fuzz_solver

    # outcome counts depend on the wall-clock budget, so only the verdict is pinned
    assert fuzz_solver.main(["--seed", "1", "--trees", "25", "--budget", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("; invalid witnesses 0")


def test_fuzz_trees_keep_their_witnesses():
    import fuzz_solver

    rng = random.Random(1)
    for n in range(max(FUZZ_REPORT_DIGESTS) + 1):
        tree = parse_network(fuzz_solver.random_network(rng))
        if n not in FUZZ_REPORT_DIGESTS:
            continue
        outcomes = []
        for bound in itertools.count(1):
            sol = solve(tree, bound)
            if sol is None:
                outcomes.append(f"{bound}:unsat")
                continue
            outcomes.append(f"{bound}:sat:{hashlib.sha256(report_text(tree, sol).encode()).hexdigest()[:12]}")
            break
        assert " ".join(outcomes) == FUZZ_REPORT_DIGESTS[n], f"tree {n}"


def test_search_leaves_no_cyclic_garbage():
    tree = bench_generate("running_example", extents=4, seed=1).tree
    gc.collect()
    gc.disable()
    try:
        search_min_order(tree)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestMonotonicity:
    def test_satisfiability_monotone_in_bound(self):
        rng = random.Random(7)
        for _ in range(60):
            tree = random_tree(rng)
            sats = [solve(tree, bound) is not None for bound in (1, 2, 3, 4)]
            for lo, hi in zip(sats, sats[1:]):
                assert not (lo and not hi)


class TestSerialization:
    def test_json_round_trip(self, running_tree):
        sol = solve(running_tree, 2)
        doc = sol.to_json_dict(running_tree)
        again = ScheduleSolution.from_json_dict(doc)
        assert again == sol

    def test_report_stable(self, running_tree):
        sol = solve(running_tree, 2)
        text = report_text(running_tree, sol)
        assert text == report_text(running_tree, sol)
        assert "loops (outer to inner): r, j, p, q, i" in text
        assert "layout A: p, q, i" in text


# ---------------------------------------------------------------------------
# candidates tried by descending extent

# a solver_chains network: an order-4 TTMc chain, its root pinned in the
# order the modes were multiplied
TTMC_CHAIN4 = """\
extent i0 2
extent i1 2
extent i2 2
extent i3 2
extent r0 2
extent r1 2
extent r2 2
extent r3 2
layout R r2,r0,r3,r1
X1[i0,i1,r2,i3] = T[i0,i1,i2,i3] * U2[i2,r2]
X2[r0,i1,r2,i3] = X1[i0,i1,r2,i3] * U0[i0,r0]
X3[r0,i1,r2,r3] = X2[r0,i1,r2,i3] * U3[i3,r3]
R[r0,r1,r2,r3] = X3[r0,i1,r2,r3] * U1[i1,r1]
"""

# the report and IR of each network's minimal schedule, as the solver gave
# them before it tried larger extents first: every contraction here has
# indices of one extent, so its candidate order and witness are unchanged
EQUAL_EXTENT_SCHEDULES = {
    "running12_pinned": (
        running_example_network(12),
        """\
bound: 2
contraction 0: X[i,j,q,r] = A[i,p,q] * B[j,p,r]
  position: 0
  loops (outer to inner): r, j, p, q, i
contraction 1: Y[i,j,k,r] = X[i,j,q,r] * C[k,q,r]
  position: 1
  loops (outer to inner): r, j, q, k, i
contraction 2: R[i,j,k] = Y[i,j,k,r] * D[j,k,r]
  position: 2
  loops (outer to inner): r, j, k, i
layout A: p, q, i  (modes 1, 2, 0)
layout B: r, j, p  (modes 2, 0, 1)
layout C: r, q, k  (modes 2, 1, 0)
layout D: r, j, k  (modes 2, 0, 1)
layout R: j, k, i  (modes 1, 2, 0)
""",
        (
            'forall(r, forall(j, where(forall(k, forall(i, R(j,k,i) = Y(k,i) * D(r,j,k))), '
            'where(forall(q, forall(k, forall(i, Y(k,i) = X(q,i) * C(r,q,k)))), forall(p, forall(q, '
            'forall(i, X(q,i) = A(p,q,i) * B(r,j,p))))))))'
        ),
    ),
    "running12_free": (
        running_example_network(12).replace("layout R j,k,i\n", ""),
        """\
bound: 1
contraction 0: X[i,j,q,r] = A[i,p,q] * B[j,p,r]
  position: 0
  loops (outer to inner): r, j, i, p, q
contraction 1: Y[i,j,k,r] = X[i,j,q,r] * C[k,q,r]
  position: 1
  loops (outer to inner): r, j, i, q, k
contraction 2: R[i,j,k] = Y[i,j,k,r] * D[j,k,r]
  position: 2
  loops (outer to inner): r, j, i, k
layout A: i, p, q  (modes 0, 1, 2)
layout B: r, j, p  (modes 2, 0, 1)
layout C: r, q, k  (modes 2, 1, 0)
layout D: r, j, k  (modes 2, 0, 1)
layout R: j, i, k  (modes 1, 0, 2)
""",
        (
            'forall(r, forall(j, forall(i, where(forall(k, R(j,i,k) = Y(k) * D(r,j,k)), '
            'where(forall(q, forall(k, Y(k) = X(q) * C(r,q,k))), forall(p, forall(q, X(q) = A(i,p,q) '
            '* B(r,j,p))))))))'
        ),
    ),
    "ttmc_chain4": (
        TTMC_CHAIN4,
        """\
bound: 2
contraction 0: X1[i0,i1,r2,i3] = T[i0,i1,i2,i3] * U2[i2,r2]
  position: 0
  loops (outer to inner): r2, i1, i2, i3, i0
contraction 1: X2[r0,i1,r2,i3] = X1[i0,i1,r2,i3] * U0[i0,r0]
  position: 1
  loops (outer to inner): r2, i1, r0, i0, i3
contraction 2: X3[r0,i1,r2,r3] = X2[r0,i1,r2,i3] * U3[i3,r3]
  position: 2
  loops (outer to inner): r2, i1, r3, i3, r0
contraction 3: R[r0,r1,r2,r3] = X3[r0,i1,r2,r3] * U1[i1,r1]
  position: 3
  loops (outer to inner): r2, i1, r0, r3, r1
layout R: r2, r0, r3, r1  (modes 2, 0, 3, 1)
layout T: i1, i2, i3, i0  (modes 1, 2, 3, 0)
layout U0: r0, i0  (modes 1, 0)
layout U1: i1, r1  (modes 0, 1)
layout U2: r2, i2  (modes 1, 0)
layout U3: r3, i3  (modes 1, 0)
""",
        (
            'forall(r2, forall(i1, where(forall(r0, forall(r3, forall(r1, R(r2,r0,r3,r1) = X3(r3,r0) '
            '* U1(i1,r1)))), where(forall(r3, forall(i3, forall(r0, X3(r3,r0) = X2(r0,i3) * '
            'U3(r3,i3)))), where(forall(r0, forall(i0, forall(i3, X2(r0,i3) = X1(i3,i0) * '
            'U0(r0,i0)))), forall(i2, forall(i3, forall(i0, X1(i3,i0) = T(i1,i2,i3,i0) * '
            'U2(r2,i2)))))))))'
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(EQUAL_EXTENT_SCHEDULES))
def test_equal_extents_keep_the_schedule(name):
    text, report, ir = EQUAL_EXTENT_SCHEDULES[name]
    tree = parse_network(text)
    bound, sol = search_min_order(tree)
    assert report_text(tree, sol) == report
    assert print_ir(lower(tree, sol)) == ir


@given(seed=st.integers(0, 2**32 - 1), extents=st.lists(st.integers(1, 64), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_extents_never_change_the_minimal_bound(seed, extents):
    # extents only order the candidates, so a tree keeps the minimal bound
    # brute force finds, whatever its extents
    tree = random_tree(random.Random(seed))
    rescaled = build_tree(tree.contractions, dict(zip(sorted(tree.extents), extents)), tree.layouts)
    l_max = max((e.order for e in tree.edges), default=1)
    minimal = next(bound for bound in range(1, l_max + 1) if brute_force_sat(tree, bound))
    for t in (tree, rescaled):
        bound, sol = search_min_order(t)
        assert bound == minimal
        assert verify_solution(t, bound, sol) == []
