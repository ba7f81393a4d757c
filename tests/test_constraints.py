"""Constraint model construction, solving, verification, and the brute oracle."""

from __future__ import annotations

import random

import pytest

from fusetree import (
    Assign,
    Forall,
    brute_force_sat,
    build_model,
    lower,
    parse_network,
    report_text,
    search_min_order,
    solve,
    verify_solution,
)
from fusetree.bench import bench_generate, running_example_network
from fusetree.constraints import (
    ConsumerMatch,
    InBetweenMatch,
    LayoutPin,
    ProducerChoice,
    ScheduleSolution,
)
from fusetree.errors import (
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
