"""Executor semantics, oracles, counters, and comparisons."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest

import fusetree.executor as executor
from fusetree import (
    Assign,
    Forall,
    ScheduleSolution,
    SparseTensor,
    TensorRef,
    bind,
    compare,
    coo_from_entries,
    execute,
    ir_to_json,
    lower,
    oracle_nary,
    oracle_unfused,
    parse_network,
    print_ir,
    search_min_order,
    solve,
    verify_solution,
)
from fusetree.bench import bench_generate, synthetic_tensor
from fusetree.tensor import DenseTensor
from fusetree.errors import (
    ExtentMismatchError,
    MissingVariableError,
    ModeOrderMismatchError,
    NonCanonicalTensorError,
    OutOfBoundsError,
    RankMismatchError,
    ShapeMismatchError,
    TooLargeError,
    UnboundTensorError,
)
from conftest import MATMUL_NETWORK, chain_network, chain_solution, ir_text_equal, random_tree


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
        for name, operand in binding.operands.items():
            assert operand.mode_order == sol.mode_perm(name)

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

    def test_extent_mismatch_at_bind_for_an_order_0_input(self):
        tree = parse_network("extent i 3\nR[i] = A[i] * S[]\n")
        sol = solve(tree, 1)
        A = coo_from_entries([((0,), 1.0)], (3,))
        S = coo_from_entries([((0,), 1.0)], (2,))
        with pytest.raises(ExtentMismatchError, match=r"'S' has shape \(2,\), declared extents give \(\)"):
            bind(tree, sol, {"A": A, "S": S})

    @pytest.mark.parametrize("dense", ((), ("A",)))
    @pytest.mark.parametrize(
        "entries, message",
        (
            ((((0,), 1.0), ((0,), 2.0)), r"\(0,\) follow \(0,\)"),
            ((((1,), 1.0), ((0,), 2.0)), r"\(0,\) follow \(1,\)"),
        ),
        ids=("repeated", "out-of-order"),
    )
    def test_a_non_canonical_input_at_bind(self, entries, message, dense):
        # construction raises, so no binding, CSF or dense, sees the tensor;
        # bound dense, a repeated coordinate would run on its last value
        tree = parse_network("extent i 2\nR[i] = A[i] * B[i]\n")
        B = coo_from_entries([((0,), 1.0)], (2,))
        with pytest.raises(NonCanonicalTensorError, match=f"^coordinates {message}$"):
            bind(tree, solve(tree, 1), {"A": SparseTensor((2,), entries), "B": B}, dense)

    @pytest.mark.parametrize("dense", ((), ("A",)))
    @pytest.mark.parametrize("coordinate", (-1, 5))
    def test_an_out_of_bounds_input_at_bind(self, coordinate, dense):
        # construction raises; bound dense, -1 would land in the last cell,
        # and bound CSF, the entry would be dropped
        tree = parse_network("extent i 2\nR[i] = A[i] * B[i]\n")
        B = coo_from_entries([((0,), 1.0), ((1,), 1.0)], (2,))
        message = rf"^coordinates \({coordinate},\) out of bounds for shape \(2,\)$"
        with pytest.raises(OutOfBoundsError, match=message):
            bind(tree, solve(tree, 1), {"A": SparseTensor((2,), (((coordinate,), 7.0),)), "B": B}, dense)

    @pytest.mark.parametrize("dense", ((), ("A",)))
    def test_an_out_of_bounds_input_at_bind_in_a_later_mode(self, dense):
        tree = parse_network("extent i 2\nextent j 3\nR[i] = A[i,j] * B[j]\n")
        B = coo_from_entries([((0,), 1.0)], (3,))
        with pytest.raises(OutOfBoundsError, match=r"^coordinates \(1, 3\) out of bounds"):
            A = SparseTensor((2, 3), (((0, 1), 1.0), ((1, 3), 2.0)))
            bind(tree, solve(tree, 1), {"A": A, "B": B}, dense)

    @pytest.mark.parametrize("dense", ((), ("A",)))
    @pytest.mark.parametrize("key", ((), (1, 5)), ids=("order-0", "order-2"))
    def test_an_input_of_another_rank_at_bind(self, key, dense):
        # construction raises; at the parent, () bound dense filled every
        # cell and passed --check, and bound CSF it raised a bare IndexError
        tree = parse_network("extent i 2\nR[i] = A[i] * B[i]\n")
        B = coo_from_entries([((0,), 1.0), ((1,), 1.0)], (2,))
        with pytest.raises(RankMismatchError, match=rf"^coordinates {re.escape(str(key))} have rank {len(key)}, expected 1$"):
            bind(tree, solve(tree, 1), {"A": SparseTensor((2,), ((key, 7.0),)), "B": B}, dense)

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


class TestBoundLayouts:
    def test_dense_inputs_follow_the_solved_layout(self):
        # the rank is the largest extent, so the solver puts its loop outermost
        inst = bench_generate("mttkrp1", extents=(4, 5, 6), rank=7, density=0.3, seed=1)
        _, sol = search_min_order(inst.tree)
        binding = bind(inst.tree, sol, inst.tensors, inst.dense_names)
        assert sol.layout_indices(inst.tree.abstract_ref("B")) == ("r", "j")  # declared B[j,r]
        for name in inst.tree.input_names:
            assert binding.layouts[name] == sol.layout_indices(inst.tree.abstract_ref(name))
        for name in inst.dense_names:
            stored = inst.tensors[name].to_dense().transpose(sol.mode_perm(name))
            assert binding.operands[name].values == tuple(stored.ravel().tolist())
            assert np.array_equal(binding.operands[name].array, stored)

    def test_bound_arrays_are_read_only(self):
        # a layout in its declared order keeps the tensor's own dense array,
        # a transposed one a copy; every kernel call reads them, so no
        # caller may write them
        inst = bench_generate("ttmc1", extents=(4, 5, 6), rank=7, density=0.3, seed=1)
        _, sol = search_min_order(inst.tree)
        binding = bind(inst.tree, sol, inst.tensors, inst.tree.input_names)
        layouts = list(binding.operands.values())
        declared = [x for x in layouts if x.mode_order == tuple(range(len(x.mode_order)))]
        assert declared and len(declared) < len(layouts)
        for name, layout in binding.operands.items():
            assert (layout.array is inst.tensors[name].to_dense()) == (layout in declared)
            assert not layout.array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                layout.array[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                layout.array += 1.0
            with pytest.raises(TypeError):
                layout.nonzeros((1,))[0] = 0  # nested tuples

    @pytest.mark.parametrize("modes", (None, {0: 0}, {0: 0, 1: 1, 2: 2}, {0: 1, 2: 0}))
    @pytest.mark.parametrize("dense", ((), ("S",)))
    def test_an_input_without_a_mode_order(self, modes, dense, matmul_tree):
        # S has two modes: no order at all, one of them, three, or 0 and 2
        sol = solve(matmul_tree, 1)
        dp = {name: perm for name, perm in sol.dp.items() if name != "S"}
        if modes is not None:
            dp["S"] = modes
        T = coo_from_entries([((0, 0), 1.0)], (2, 2))
        with pytest.raises(MissingVariableError, match="input 'S' no order of its 2 modes"):
            bind(matmul_tree, ScheduleSolution(sol.bound, sol.ap, sol.lp, dp), {"T": T, "S": T}, dense)

    @pytest.mark.parametrize("dense", ((), ("B",), ("A", "B", "C", "D")))
    def test_an_ir_walking_an_input_in_another_order_raises(self, dense):
        # B is stored r,p,j under the bound-3 schedule and walked r,j,p by
        # the bound-2 IR; run unchecked, the pair gives a wrong result
        inst = bench_generate("running_example", extents=4, density=0.5, seed=3)
        ir, sol = lower(inst.tree, solve(inst.tree, 2)), solve(inst.tree, 3)
        with pytest.raises(ModeOrderMismatchError, match=r"B\[r,j,p\] disagrees with the bound layout \('r', 'p', 'j'\)"):
            execute(ir, bind(inst.tree, sol, inst.tensors, dense))

    @pytest.mark.parametrize("second, layout", (("k,l", ("i", "j")), ("l,k", ("j", "i"))))
    @pytest.mark.parametrize("dense", ((), ("A",), ("A", "B")))
    def test_an_input_referenced_twice_under_other_indices(self, second, layout, dense):
        # the second reference to A is checked through the first, A[i,j]
        tree, sol = _referenced_twice(second)
        tensors = _two_inputs()
        binding = bind(tree, sol, tensors, dense)
        assert binding.layouts["A"] == layout
        result, _ = execute(lower(tree, sol), binding)
        assert compare(result, oracle_nary(tree, tensors), rel_tol=1e-10).passed


def _referenced_twice(second: str):
    """A network reading A twice, as A[i,j] and A[<second>], and its
    schedule, which stores A as i,j for second "k,l" and as j,i for "l,k"."""
    tree = parse_network(
        "extent i 3\nextent j 3\nextent k 3\nextent l 3\n"
        f"X[i,k] = A[i,j] * B[j,k]\nR[i,l] = X[i,k] * A[{second}]\n"
    )
    return tree, search_min_order(tree)[1]


def _two_inputs() -> dict[str, SparseTensor]:
    rng = np.random.default_rng(7)
    return {name: synthetic_tensor((3, 3), 0.7, rng) for name in ("A", "B")}


class TestLayoutMemo:
    """``bind`` builds each layout once per tensor, kind and mode order."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls: list[tuple[SparseTensor, tuple[int, ...]]] = []
        real = executor.csf_build

        def counting(t, order):
            calls.append((t, tuple(order)))
            return real(t, order)

        monkeypatch.setattr(executor, "csf_build", counting)
        return calls

    def test_a_second_bind_reuses_the_csf_trees(self, builds):
        tree, sol = _referenced_twice("k,l")
        tensors = _two_inputs()
        first = bind(tree, sol, tensors)
        assert builds == [(tensors[n], sol.mode_perm(n)) for n in ("A", "B")]
        second = bind(tree, sol, tensors)
        assert len(builds) == 2
        assert all(second.operands[n] is first.operands[n] for n in ("A", "B"))

    @pytest.mark.parametrize("second", ("k,l", "l,k"))
    def test_a_second_bind_reuses_the_dense_tuples(self, second, builds):
        tree, sol = _referenced_twice(second)
        tensors = _two_inputs()
        first = bind(tree, sol, tensors, ("A", "B"))
        assert builds == [] and all(type(first.operands[n]) is DenseTensor for n in ("A", "B"))
        second = bind(tree, sol, tensors, ("A", "B"))
        assert all(second.operands[n] is first.operands[n] for n in ("A", "B"))

    def test_another_mode_order_or_kind_builds_anew(self, builds):
        tensors = _two_inputs()
        a = tensors["A"]
        (tree_ij, sol_ij), (tree_ji, sol_ji) = _referenced_twice("k,l"), _referenced_twice("l,k")
        ij, ji = bind(tree_ij, sol_ij, tensors), bind(tree_ji, sol_ji, tensors)
        assert [order for t, order in builds if t is a] == [(0, 1), (1, 0)]
        assert ij.operands["A"] is not ji.operands["A"]
        assert (ij.operands["A"].mode_order, ji.operands["A"].mode_order) == ((0, 1), (1, 0))
        dense_ij, dense_ji = bind(tree_ij, sol_ij, tensors, ("A",)), bind(tree_ji, sol_ji, tensors, ("A",))
        assert [order for t, order in builds if t is a] == [(0, 1), (1, 0)]
        assert dense_ij.operands["A"].values == tuple(a.to_dense().ravel().tolist())
        assert dense_ji.operands["A"].values == tuple(a.to_dense().T.ravel().tolist())
        assert bind(tree_ij, sol_ij, tensors, ("A",)).operands["A"] is dense_ij.operands["A"]
        assert bind(tree_ji, sol_ji, tensors).operands["A"] is ji.operands["A"]

    def test_reused_layouts_give_the_results_of_fresh_tensors(self):
        tensors = _two_inputs()
        for _ in range(2):
            for second in ("k,l", "l,k"):
                tree, sol = _referenced_twice(second)
                ir = lower(tree, sol)
                for dense in ((), ("A",), ("A", "B"), ("B",)):
                    fresh = {name: SparseTensor(t.shape, t.entries) for name, t in tensors.items()}
                    expected = execute(ir, bind(tree, sol, fresh, dense))
                    assert execute(ir, bind(tree, sol, tensors, dense)) == expected

    def test_binding_leaves_equality_hash_and_repr(self):
        tensors = _two_inputs()
        before = {name: (SparseTensor(t.shape, t.entries), repr(t), hash(t)) for name, t in tensors.items()}
        for second in ("k,l", "l,k"):
            for dense in ((), ("A", "B")):
                bind(*_referenced_twice(second), tensors, dense)
        for name, t in tensors.items():
            copy, text, code = before[name]
            assert t == copy and (repr(t), hash(t)) == (text, code) == (repr(copy), hash(copy))


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

    def test_nary_rejects_a_misshapen_order_0_input(self):
        tree = parse_network("extent i 3\nR[i] = A[i] * S[]\n")
        A = coo_from_entries([((0,), 1.0)], (3,))
        S = coo_from_entries([((0,), 1.0)], (2,))
        with pytest.raises(ExtentMismatchError, match=r"'S' has shape \(2,\), expected \(\)"):
            oracle_nary(tree, {"A": A, "S": S})

    def test_unfused_rejects_a_leaf_that_einsum_would_broadcast(self):
        tree = parse_network("extent i 3\nextent j 3\nR[i] = T[i,j] * S[j]\n")
        T = coo_from_entries([((0, 0), 1.0), ((0, 1), 2.0), ((1, 2), 4.0)], (3, 3))
        S = coo_from_entries([((0,), 2.0)], (1,))
        with pytest.raises(ExtentMismatchError, match=r"'S' has shape \(1,\), expected \(3,\)"):
            oracle_unfused(tree, {"T": T, "S": S})

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


def test_long_chain_runs_without_recursing_per_where():
    # 2,000 links under one loop over a: the IR nests 1,999 wheres, and the
    # kernel resets a workspace and guards a consumer for each
    n = 2000
    tree = parse_network(chain_network(n))
    sol = chain_solution(tree)
    assert verify_solution(tree, 1, sol) == []
    ir = lower(tree, sol)
    assert print_ir(ir).count("where(") == n - 1
    assert ir_text_equal(print_ir(ir, pretty=True), print_ir(ir))
    node, wheres = ir_to_json(ir)["forall"]["body"], 0
    while "where" in node:
        wheres += 1
        node = node["where"]["producer"]
    assert wheres == n - 1 and node["assign"]["result"]["tensor"] == "X1"
    rng = np.random.default_rng(7)
    # every input full, with values near 1 so 2,000 products stay normal floats
    tensors = {
        name: coo_from_entries([((a,), v) for a, v in enumerate(rng.uniform(0.9, 1.1, 3))], (3,))
        for name in tree.input_names
    }
    binding = bind(tree, sol, tensors)
    result, stats = execute(ir, binding)
    assert stats.multiply_adds == 3 * n
    report = compare(result, oracle_unfused(tree, tensors)[0], rel_tol=1e-10)
    assert report.passed and report.checked == 3
    # an equal IR lowered afresh finds the cached kernel
    assert execute(lower(tree, sol), binding) == (result, stats)


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
