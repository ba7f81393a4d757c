"""Executor semantics, oracles, counters, and comparisons."""

from __future__ import annotations

import random

import numpy as np
import pytest

from fusetree import (
    Assign,
    Forall,
    SparseTensor,
    TensorRef,
    bind,
    compare,
    coo_from_entries,
    execute,
    lower,
    oracle_nary,
    oracle_unfused,
    parse_network,
    search_min_order,
    solve,
)
from fusetree.bench import bench_generate
from fusetree.errors import (
    ExtentMismatchError,
    ModeOrderMismatchError,
    ShapeMismatchError,
    TooLargeError,
    UnboundTensorError,
)
from conftest import MATMUL_NETWORK, random_tree


def _plan_and_run(tree, tensors, dense=(), l_max=None):
    bound, sol = search_min_order(tree, l_max=l_max)
    ir = lower(tree, sol)
    binding = bind(tree, sol, tensors, dense)
    return execute(ir, binding) + (bound,)


class TestExecuteBasics:
    def test_matmul_by_hand(self, matmul_tree):
        T = coo_from_entries([((0, 0), 2.0), ((1, 1), 3.0)], (2, 2))
        S = coo_from_entries([((0, 1), 5.0), ((1, 0), 7.0)], (2, 2))
        result, stats, _ = _plan_and_run(matmul_tree, {"T": T, "S": S})
        assert result.entries == (((0, 1), 10.0), ((1, 0), 21.0))
        assert stats.multiply_adds == 2  # one surviving (i,k,j) combination each

    def test_all_zero_input_annihilates(self, running_tree):
        inst = bench_generate("running_example", extents=3, density=0.5, seed=5)
        tensors = dict(inst.tensors)
        tensors["A"] = coo_from_entries([], tensors["A"].shape)
        result, stats, _ = _plan_and_run(inst.tree, tensors)
        assert result.nnz == 0
        assert stats.multiply_adds == 0

    def test_matches_oracles_running_example(self):
        inst = bench_generate("running_example", extents=4, density=0.4, seed=11)
        result, stats, bound = _plan_and_run(inst.tree, inst.tensors)
        ref = oracle_nary(inst.tree, inst.tensors)
        assert compare(result, ref, rel_tol=1e-10).passed
        unfused, info = oracle_unfused(inst.tree, inst.tensors)
        assert compare(unfused, ref, rel_tol=1e-12).passed
        assert bound == 2

    def test_deterministic(self):
        inst = bench_generate("running_example", extents=4, density=0.3, seed=2)
        r1, s1, _ = _plan_and_run(inst.tree, inst.tensors)
        r2, s2, _ = _plan_and_run(inst.tree, inst.tensors)
        assert r1 == r2
        assert s1.to_json_dict() == s2.to_json_dict()

    def test_binding_uses_solution_mode_orders(self, running_tree):
        inst = bench_generate("running_example", extents=4, density=0.5, seed=21)
        bound, sol = search_min_order(inst.tree)
        binding = bind(inst.tree, sol, inst.tensors, ())
        for name, csf in binding.csf.items():
            assert csf.mode_order == sol.mode_perm(name)

    def test_unbound_tensor(self, matmul_tree):
        sol = solve(matmul_tree, 1)
        T = coo_from_entries([((0, 0), 1.0)], (2, 2))
        with pytest.raises(UnboundTensorError):
            bind(matmul_tree, sol, {"T": T})

    def test_extent_mismatch_at_bind(self, matmul_tree):
        sol = solve(matmul_tree, 1)
        T = coo_from_entries([((0, 0), 1.0)], (2, 2))
        S3 = coo_from_entries([((0, 0), 1.0)], (3, 2))
        with pytest.raises(ExtentMismatchError):
            bind(matmul_tree, sol, {"T": T, "S": S3})

    def test_mode_order_mismatch(self, matmul_tree):
        sol = solve(matmul_tree, 1)
        T = coo_from_entries([((0, 0), 1.0)], (2, 2))
        S = coo_from_entries([((0, 0), 1.0)], (2, 2))
        binding = bind(matmul_tree, sol, {"T": T, "S": S})
        bad_ir = Forall(
            "k",
            Forall(
                "i",
                Forall(
                    "j",
                    Assign(
                        0,
                        TensorRef("R", ("i", "j")),
                        TensorRef("T", ("i", "k")),  # layout i,k under loops k,i
                        TensorRef("S", ("k", "j")),
                    ),
                ),
            ),
        )
        with pytest.raises(ModeOrderMismatchError):
            execute(bad_ir, binding)


class TestCounters:
    def test_dense_running_example_counts(self):
        for n in (3, 4):
            inst = bench_generate("running_example", extents=n, density=1.0, seed=1)
            _, stats, _ = _plan_and_run(inst.tree, inst.tensors)
            assert stats.multiply_adds == 2 * n**5 + n**4
            assert stats.per_assignment == {"X": n**5, "Y": n**5, "R": n**4}

    def test_workspace_cells_bounded_by_schedule(self):
        inst = bench_generate("running_example", extents=5, density=0.3, seed=9)
        bound, sol = search_min_order(inst.tree)
        ir = lower(inst.tree, sol)
        result, stats = execute(ir, bind(inst.tree, sol, inst.tensors, ()))

        def intermediate_dims(node, out):
            if isinstance(node, Assign):
                if node.result.tensor in inst.tree.intermediate_names:
                    dims = 1
                    for i in node.result.indices:
                        dims *= inst.tree.extents[i]
                    out[node.result.tensor] = dims
            elif isinstance(node, Forall):
                intermediate_dims(node.body, out)
            else:
                intermediate_dims(node.producer, out)
                intermediate_dims(node.consumer, out)
            return out

        dims = intermediate_dims(ir, {})
        assert stats.max_workspace_cells == max(dims.values())
        assert all(v <= inst.tree.extents["q"] * inst.tree.extents["i"] for v in dims.values())
        # fused workspaces strictly smaller than any densified order-4 intermediate
        full = 5**4
        assert stats.max_workspace_cells < full

    def test_stats_json_fields(self):
        inst = bench_generate("running_example", extents=3, density=1.0, seed=1)
        _, stats, _ = _plan_and_run(inst.tree, inst.tensors)
        doc = stats.to_json_dict()
        assert set(doc) == {"multiply_adds", "max_workspace_cells", "per_assignment"}
        assert [e["result"] for e in doc["per_assignment"]] == ["R", "X", "Y"]


class TestMask:
    def test_masked_result_is_masked_subset(self):
        inst = bench_generate("masked_3term", extents=(5, 4, 4), rank=3, density=0.4, seed=3)
        masked, _, _ = _plan_and_run(inst.tree, inst.tensors, inst.dense_names)
        unmasked_text = (
            "extent K 5\nextent u 4\nextent v 4\nextent i 3\nextent m 3\n"
            "W1[K,v,i] = I[K,u,v] * C[u,i]\nE[K,i,m] = W1[K,v,i] * P[v,m]\n"
        )
        un_tree = parse_network(unmasked_text)
        tensors = {k: inst.tensors[k] for k in ("I", "C", "P")}
        unmasked, _, _ = _plan_and_run(un_tree, tensors, ("C", "P"))
        mask = dict(inst.tensors["L"].entries)
        expected = [
            ((K, i, m), v)
            for (K, i, m), v in unmasked.entries
            if mask.get((K, i)) == 1.0
        ]
        expected_t = coo_from_entries(expected, unmasked.shape)
        assert compare(masked, expected_t, rel_tol=1e-10).passed

    def test_mask_oracle_agreement(self):
        inst = bench_generate("masked_3term", extents=(5, 4, 4), rank=3, density=0.4, seed=8)
        result, _, _ = _plan_and_run(inst.tree, inst.tensors, inst.dense_names)
        assert compare(result, oracle_nary(inst.tree, inst.tensors), rel_tol=1e-10).passed


class TestOracles:
    def test_nary_matmul_by_hand(self, matmul_tree):
        T = coo_from_entries([((0, 0), 2.0), ((1, 1), 3.0)], (2, 2))
        S = coo_from_entries([((0, 1), 5.0), ((1, 0), 7.0)], (2, 2))
        ref = oracle_nary(matmul_tree, {"T": T, "S": S})
        assert ref.entries == (((0, 1), 10.0), ((1, 0), 21.0))

    def test_nary_quadruple_loop_anchor(self, matmul_tree):
        rng = np.random.default_rng(0)
        T = rng.uniform(-1, 1, (2, 2))
        S = rng.uniform(-1, 1, (2, 2))
        want = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    want[i, j] += T[i, k] * S[k, j]
        got = oracle_nary(matmul_tree, {"T": T, "S": S}).to_dense()
        assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_empty_inputs(self, matmul_tree):
        T = coo_from_entries([], (2, 2))
        S = coo_from_entries([], (2, 2))
        assert oracle_nary(matmul_tree, {"T": T, "S": S}).nnz == 0

    def test_unfused_equals_nary(self):
        inst = bench_generate("running_example", extents=3, density=0.6, seed=4)
        a = oracle_nary(inst.tree, inst.tensors)
        b, info = oracle_unfused(inst.tree, inst.tensors)
        assert compare(a, b, rel_tol=1e-12).passed
        assert info["max_intermediate_cells"] == 3**4

    def test_nary_too_large(self):
        text = "extent i 100000\nextent j 100000\nextent k 100000\nR[i,j] = T[i,k] * S[k,j]\n"
        tree = parse_network(text)
        T = coo_from_entries([], (100000, 100000))
        with pytest.raises(TooLargeError):
            oracle_nary(tree, {"T": T, "S": T})

    def test_mttkrp_oracle_agreement(self):
        inst = bench_generate("mttkrp1", extents=(6, 5, 4), rank=3, density=0.3, seed=6)
        result, _, _ = _plan_and_run(inst.tree, inst.tensors, inst.dense_names)
        assert compare(result, oracle_nary(inst.tree, inst.tensors), rel_tol=1e-10).passed


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("density", [0.05, 0.2, 1.0])
    def test_execute_matches_both_oracles(self, density):
        rng = random.Random(int(density * 100))
        nprng = np.random.default_rng(99)
        from fusetree.bench import synthetic_tensor

        for trial in range(12):
            tree = random_tree(rng)
            tensors = {
                name: synthetic_tensor(
                    tree.ref_shape(tree.abstract_ref(name)), density, nprng
                )
                for name in tree.input_names
            }
            result, _, _ = _plan_and_run(tree, tensors)
            ref = oracle_nary(tree, tensors)
            assert compare(result, ref, rel_tol=1e-10).passed, tree
            unfused, _ = oracle_unfused(tree, tensors)
            assert compare(unfused, ref, rel_tol=1e-10).passed, tree

    def test_all_bounds_give_same_values(self):
        inst = bench_generate("running_example", extents=4, density=0.5, seed=13)
        ref = oracle_nary(inst.tree, inst.tensors)
        for l_max in (2, 3, 4):
            bound, sol = search_min_order(inst.tree, l_max=l_max)
            ir = lower(inst.tree, sol)
            result, _ = execute(ir, bind(inst.tree, sol, inst.tensors, ()))
            assert compare(result, ref, rel_tol=1e-10).passed


class TestCompare:
    def test_identical(self, matmul_tree):
        t = coo_from_entries([((0, 1), 1.0)], (2, 2))
        rep = compare(t, t)
        assert rep.passed and rep.max_abs_err == 0.0

    def test_tiny_difference_within_rel_tol(self):
        a = coo_from_entries([((0,), 1.0)], (2,))
        b = coo_from_entries([((0,), 1.0 + 1e-15)], (2,))
        assert compare(a, b, rel_tol=1e-10).passed

    def test_missing_coordinate_fails_with_offender(self):
        a = coo_from_entries([((0,), 1.0)], (2,))
        b = coo_from_entries([], (2,))
        rep = compare(a, b, rel_tol=1e-10)
        assert not rep.passed
        assert rep.worst_coords == (0,)
        assert rep.worst_values == (1.0, 0.0)
        assert "FAIL" in rep.message()

    def test_shape_mismatch(self):
        a = coo_from_entries([], (2,))
        b = coo_from_entries([], (3,))
        with pytest.raises(ShapeMismatchError):
            compare(a, b)

    @pytest.mark.parametrize(
        "x, y",
        [
            (float("nan"), 1.0),
            (float("inf"), 1.0),
            (1.0, float("-inf")),
            (float("nan"), float("nan")),
            (float("inf"), float("inf")),
        ],
    )
    def test_non_finite_fails(self, x, y):
        a = SparseTensor((2,), (((0,), x),))
        b = SparseTensor((2,), (((0,), y),))
        rep = compare(a, b, rel_tol=1e-10)
        assert not rep.passed
        assert rep.worst_coords == (0,)
        assert "FAIL" in rep.message()

    def test_non_finite_against_absent_fails(self):
        a = SparseTensor((2,), (((1,), 1.0),))
        b = SparseTensor((2,), (((0,), float("nan")), ((1,), 1.0)))
        assert not compare(a, b).passed
        assert not compare(b, a).passed
