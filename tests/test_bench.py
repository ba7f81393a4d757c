"""Benchmark network generators and synthetic tensors."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from fusetree import classify_indices, parse_network
from fusetree.bench import KINDS, bench_generate, seeded_rng, synthetic_tensor
from fusetree.errors import FusetreeError, InvalidDensityError, InvalidSeedError, TooLargeError, UnknownKindError

# sha256 prefixes of every kind's network text, from the generators that
# kept one function per family of factor networks
NETWORK_TEXTS = {
    ((30, 40, 50), 8): {
        "mttkrp1": "c9bda2fff642c9ed",
        "mttkrp2": "d5e6cae659a1ba0a",
        "mttkrp3": "97fe4671d713a32a",
        "ttmc1": "2efe779ba061f342",
        "ttmc2": "23f6fb834345ad99",
        "ttmc3": "e3e8a9733ec00be7",
        "running_example": "0e90b52ad02bb829",
        "masked_3term": "019b5eabafdbafc0",
    },
    ((4, 5, 6), 2): {
        "mttkrp1": "bee8dcace09687df",
        "mttkrp2": "1dbe71844ad332a6",
        "mttkrp3": "85d66aed2692899e",
        "ttmc1": "dc187e4a3bf1ff46",
        "ttmc2": "b1c2942707aa641c",
        "ttmc3": "7cfc7a2e57e017ff",
        "running_example": "d3ce660d88085f65",
        "masked_3term": "ca108785c01d68ef",
    },
    ((7, 7, 7), 16): {
        "mttkrp1": "01406d6b963fc6f8",
        "mttkrp2": "cbe0a8f4686640ec",
        "mttkrp3": "73a27796b9713405",
        "ttmc1": "67747345e2156124",
        "ttmc2": "589400d9eaeaf08c",
        "ttmc3": "e602d34e4d924a8a",
        "running_example": "49876c2d05c3cad6",
        "masked_3term": "a8daeeb25c591b5f",
    },
}


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

    @pytest.mark.parametrize("extents, rank", NETWORK_TEXTS)
    def test_network_texts_are_unchanged(self, extents, rank):
        digests = {
            kind: hashlib.sha256(
                bench_generate(kind, extents=extents, rank=rank, density=0.1, seed=1).network_text.encode()
            ).hexdigest()[:16]
            for kind in KINDS
        }
        assert digests == NETWORK_TEXTS[extents, rank]

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

    def test_negative_seed_raises(self):
        with pytest.raises(InvalidSeedError, match="seed must be a non-negative integer, got -1"):
            seeded_rng(-1)
        with pytest.raises(InvalidSeedError):
            bench_generate("mttkrp1", extents=3, seed=-1)
        assert issubclass(InvalidSeedError, (FusetreeError, ValueError))
        assert seeded_rng(0).integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)

    def test_shape_beyond_int64_raises(self):
        shape = (3_000_000,) * 3
        message = r"synthetic shape \(3000000, 3000000, 3000000\) has 27000000000000000000 cells"
        with pytest.raises(TooLargeError, match=message):
            synthetic_tensor(shape, 0.0, np.random.default_rng(1))
        # a shape of 2**63 - 2 cells still gives a tensor
        t = synthetic_tensor((2**31 - 1, 2**32 + 2), 0.0, np.random.default_rng(1))
        assert t.shape == (2**31 - 1, 2**32 + 2) and t.nnz == 0
