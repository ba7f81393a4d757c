"""Benchmark network generators and synthetic tensors."""

from __future__ import annotations

import numpy as np
import pytest

from fusetree import classify_indices, parse_network
from fusetree.bench import KINDS, bench_generate, synthetic_tensor
from fusetree.errors import FusetreeError, InvalidDensityError, UnknownKindError


class TestGenerators:
    def test_mttkrp1_contraction_sets(self):
        inst = bench_generate("mttkrp1", extents=(30, 40, 50), rank=8, seed=1)
        tree = inst.tree
        assert tree.m == 2
        sets = [classify_indices(c)[1] for c in tree.contractions]
        assert sets == [{"j"}, {"k"}]
        assert tree.root.result.indices == ("i", "r")

    def test_mttkrp_modes_cover_all_outputs(self):
        outs = set()
        for kind in ("mttkrp1", "mttkrp2", "mttkrp3"):
            tree = bench_generate(kind, extents=(4, 5, 6), rank=2, seed=1).tree
            outs.add(tree.root.result.indices)
        assert outs == {("i", "r"), ("j", "r"), ("k", "r")}

    def test_ttmc3_result(self):
        inst = bench_generate("ttmc3", extents=(20, 20, 20), rank=16, seed=1)
        assert inst.tree.root.result.tensor == "C1"
        assert inst.tree.root.result.indices == ("k", "x", "y")

    def test_running_example_is_the_reference_tree(self):
        inst = bench_generate("running_example", extents=6, density=0.2, seed=7)
        assert [str(c) for c in inst.tree.contractions] == [
            "X[i,j,q,r] = A[i,p,q] * B[j,p,r]",
            "Y[i,j,k,r] = X[i,j,q,r] * C[k,q,r]",
            "R[i,j,k] = Y[i,j,k,r] * D[j,k,r]",
        ]
        assert inst.tree.layouts == {"R": ("j", "k", "i")}

    def test_masked_has_mask_leaf_without_contraction_index(self):
        inst = bench_generate("masked_3term", extents=(6, 5, 5), rank=3, density=0.3, seed=2)
        mask_c = inst.tree.contractions[-1]
        assert mask_c.rhs.tensor == "L"
        assert classify_indices(mask_c)[1] == frozenset()
        assert all(v == 1.0 for _, v in inst.tensors["L"].entries)

    def test_every_kind_parses_and_validates(self):
        for kind in KINDS:
            inst = bench_generate(kind, extents=(4, 4, 4), rank=2, density=0.5, seed=3)
            again = parse_network(inst.network_text)
            assert again.contractions == inst.tree.contractions

    def test_dense_factors_are_full(self):
        inst = bench_generate("mttkrp2", extents=(4, 5, 6), rank=3, density=0.1, seed=4)
        for name in inst.dense_names:
            t = inst.tensors[name]
            total = int(np.prod(t.shape))
            assert t.nnz == total

    def test_unknown_kind(self):
        with pytest.raises(UnknownKindError):
            bench_generate("nope", seed=0)


class TestSynthetic:
    def test_density_and_range(self):
        rng = np.random.default_rng(5)
        t = synthetic_tensor((10, 10), 0.25, rng)
        assert t.nnz == 25
        assert all(-1.0 <= v <= 1.0 and v != 0.0 for _, v in t.entries)

    def test_deterministic_under_seed(self):
        a = synthetic_tensor((6, 6, 6), 0.1, np.random.default_rng(42))
        b = synthetic_tensor((6, 6, 6), 0.1, np.random.default_rng(42))
        assert a == b

    def test_minimum_one_entry(self):
        t = synthetic_tensor((50, 50), 0.0001, np.random.default_rng(1))
        assert t.nnz == 1

    @pytest.mark.parametrize("density", (-0.5, float("nan"), float("inf"), 1.5))
    def test_density_outside_the_unit_interval_raises(self, density):
        with pytest.raises(InvalidDensityError, match="density must be a number in \\[0, 1\\]"):
            synthetic_tensor((3, 3), density, np.random.default_rng(1))
        assert issubclass(InvalidDensityError, (FusetreeError, ValueError))

    def test_mask_values(self):
        t = synthetic_tensor((8, 8), 0.5, np.random.default_rng(2), values01=True)
        assert t.nnz == 32
        assert set(v for _, v in t.entries) == {1.0}
