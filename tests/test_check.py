"""The check path: the n-ary oracle, dense conversion and the merge compare.

Each fast route is held against the plain version it replaced, which lives
only here: the flat einsum over the whole index space, and the comparison
through two dicts, a set union and a sort.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from fusetree import build_tree, compare, coo_from_entries, oracle_nary, parse_network
from fusetree import executor
from fusetree.bench import synthetic_tensor
from fusetree.errors import FusetreeError, NonCanonicalTensorError
from fusetree.executor import CompareReport
from fusetree.network import Contraction, TensorRef
from fusetree.tensor import SparseTensor
from conftest import random_tree

KINDS = ("sparse", "mixed", "dense", "zero", "single", "unit")
SEEDS = range(16)


def flat_oracle(tree, tensors) -> SparseTensor:
    """One einsum over the flat product of every leaf reference."""
    leaves = [r for c in tree.contractions for r in (c.lhs, c.rhs) if r.tensor not in tree.producer_of]
    sub = executor._letters(sorted({i for r in leaves for i in r.indices}))
    expr = ",".join("".join(sub[i] for i in r.indices) for r in leaves)
    expr += "->" + "".join(sub[i] for i in tree.root.result.indices)
    dense = np.einsum(expr, *(tensors[r.tensor].to_dense() for r in leaves))
    return SparseTensor.from_dense(dense.reshape(tree.ref_shape(tree.root.result)))


def dict_compare(a, b, rel_tol=1e-10, abs_tol=0.0) -> CompareReport:
    """The comparison through dicts, a set union and a sort."""
    va, vb = dict(a.entries), dict(b.entries)
    passed, max_err, worst_coords, worst_values, checked = True, 0.0, None, None, 0
    for coords in sorted(set(va) | set(vb)):
        x, y = va.get(coords, 0.0), vb.get(coords, 0.0)
        finite = math.isfinite(x) and math.isfinite(y)
        err = abs(x - y) if finite else math.inf
        checked += 1
        if err > max_err:
            max_err, worst_coords, worst_values = err, coords, (x, y)
        if not finite or err > abs_tol + rel_tol * max(abs(x), abs(y)):
            passed = False
    return CompareReport(passed, checked, max_err, worst_coords, worst_values)


def _unit_tree(tree, rng: random.Random):
    """The tree under one more root that multiplies by an order-0 input, with
    about half of its extents set to 1."""
    root = tree.root.result
    top = Contraction(tree.m, TensorRef("Z", root.indices), root, TensorRef("S0", ()))
    extents = {i: (1 if rng.random() < 0.5 else n) for i, n in tree.extents.items()}
    return build_tree(tree.contractions + (top,), extents)


def _case(seed: int, kind: str):
    rng = random.Random(seed)
    tree = random_tree(rng)
    if kind == "unit":
        tree = _unit_tree(tree, rng)
    nprng = np.random.default_rng(2000 + seed)
    tensors = {}
    for k, name in enumerate(tree.input_names):
        shape = tree.ref_shape(tree.abstract_ref(name))
        density = {"dense": 1.0, "single": 1e-9, "mixed": 1.0 if k % 2 else 0.3}.get(kind, 0.3)
        tensors[name] = synthetic_tensor(shape, density, nprng)
    if kind == "zero":
        first = tree.input_names[0]
        tensors[first] = coo_from_entries([], tensors[first].shape)
    return tree, tensors


@pytest.mark.parametrize("cutoff", (0, executor.EINSUM_PATH_CUTOFF))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_nary_matches_flat_einsum(seed, kind, cutoff, monkeypatch):
    monkeypatch.setattr(executor, "EINSUM_PATH_CUTOFF", cutoff)  # 0: every space takes a path
    tree, tensors = _case(seed, kind)
    got = oracle_nary(tree, tensors)
    want = flat_oracle(tree, tensors)
    assert compare(got, want, rel_tol=1e-10).passed, (seed, kind)
    if kind == "zero":
        assert got.nnz == 0


def _eighths(shape, rng: np.random.Generator) -> SparseTensor:
    dense = rng.integers(0, 17, size=shape) / 8.0 * (rng.random(shape) < 0.5)
    return SparseTensor.from_dense(dense)


def test_nary_is_independent_of_tree_shape():
    # ((A.B).C).D against (A.B).(C.D): the same leaves and root, and a flat
    # space of 12^5 points, so numpy plans a pairwise path for each
    extents = "".join(f"extent {i} 12\n" for i in "ijklm")
    chain = parse_network(
        extents
        + "X[i,k] = A[i,j] * B[j,k]\nY[i,l] = X[i,k] * C[k,l]\nR[i,m] = Y[i,l] * D[l,m]\n"
    )
    pairs = parse_network(
        extents
        + "Y[k,m] = C[k,l] * D[l,m]\nX[i,k] = A[i,j] * B[j,k]\nR[i,m] = X[i,k] * Y[k,m]\n"
    )
    assert 12**5 > executor.EINSUM_PATH_CUTOFF
    rng = np.random.default_rng(5)
    tensors = {name: _eighths((12, 12), rng) for name in "ABCD"}
    got = oracle_nary(chain, tensors)
    assert got.nnz > 0
    assert got == oracle_nary(pairs, tensors)  # multiples of 1/8 sum exactly


def test_nary_plans_a_path_only_above_the_cutoff(monkeypatch):
    seen = []
    einsum = np.einsum

    def recording(*args, **kwargs):
        seen.append(kwargs.get("optimize", False))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(executor.np, "einsum", recording)
    for n, planned in ((2, False), (40, True)):  # 2^3 and 40^3 points
        tree = parse_network(f"extent i {n}\nextent j {n}\nextent k {n}\nR[i,j] = T[i,k] * S[k,j]\n")
        t = coo_from_entries([((0, 0), 1.0)], (n, n))
        oracle_nary(tree, {"T": t, "S": t})
        assert seen.pop() is planned


class TestDenseRoundTrip:
    def test_order_zero(self):
        for value in (0.0, 2.5, -0.0):
            t = SparseTensor.from_dense(np.array(value))
            assert t.shape == ()
            assert t.entries == ((((), value),) if value else ())
            back = t.to_dense()
            assert back.shape == () and back.dtype == np.float64 and back == value

    def test_negative_zero_is_dropped(self):
        t = SparseTensor.from_dense(np.array([[-0.0, 1.0], [0.0, -0.0]]))
        assert t.entries == (((0, 1), 1.0),)
        assert not np.signbit(t.to_dense()).any()

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_non_finite_values_are_kept(self, value):
        arr = np.array([[0.0, value], [3.0, 0.0]])
        t = SparseTensor.from_dense(arr)
        assert [c for c, _ in t.entries] == [(0, 1), (1, 0)]
        assert np.array_equal(t.to_dense(), arr, equal_nan=True)
        zero_d = SparseTensor.from_dense(np.array(value))
        assert np.array_equal(zero_d.to_dense(), np.array(value), equal_nan=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_scalar_walk(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        arr = rng.uniform(-1, 1, shape) * (rng.random(shape) < 0.4)
        want = tuple(
            (tuple(int(c) for c in coords), float(arr[tuple(coords)])) for coords in np.argwhere(arr)
        )
        t = SparseTensor.from_dense(arr)
        assert t.entries == want
        assert all(type(c) is int for coords, _ in t.entries for c in coords)
        assert all(type(v) is float for _, v in t.entries)
        assert np.array_equal(t.to_dense(), arr)
        assert SparseTensor.from_dense(t.to_dense()) == t


def _random_pair(rng: random.Random):
    shape = (3, 4)
    cells = [(i, j) for i in range(3) for j in range(4)]
    specials = [math.nan, math.inf, -math.inf, 1.0, 0.5, 2.0]
    a, b = {}, {}
    support = rng.choice(("same", "disjoint", "overlap"))
    picked = rng.sample(cells, rng.randint(0, 8))
    half = len(picked) // 2
    for k, coords in enumerate(picked):
        value = rng.choice(specials) if rng.random() < 0.3 else rng.choice((0.5, 1.0, 1.5, -2.0))
        if support == "same":
            a[coords] = value
            b[coords] = value if rng.random() < 0.5 else rng.choice(specials)
        elif support == "disjoint":
            (a if k < half else b)[coords] = value
        else:
            a[coords] = value
            if rng.random() < 0.6:
                b[coords] = value + rng.choice((0.0, 1e-12, 0.5, -0.5))  # ties for the worst
        if rng.random() < 0.2:
            b[rng.choice(cells)] = rng.choice(specials)
    return SparseTensor(shape, tuple(sorted(a.items()))), SparseTensor(shape, tuple(sorted(b.items())))


def _same(x: CompareReport, y: CompareReport) -> bool:
    # NaN worst values compare unequal to themselves; compare their reprs
    return repr(x) == repr(y)


class TestMergeCompare:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dict_compare(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            a, b = _random_pair(rng)
            for tols in ({}, {"rel_tol": 0.0, "abs_tol": 0.6}, {"rel_tol": 0.3}):
                assert _same(compare(a, b, **tols), dict_compare(a, b, **tols)), (a, b, tols)
                assert _same(compare(b, a, **tols), dict_compare(b, a, **tols)), (a, b, tols)

    def test_first_of_tied_worst_is_reported(self):
        a = SparseTensor((4,), (((0,), 1.0), ((1,), 1.0), ((3,), 5.0)))
        b = SparseTensor((4,), (((0,), 2.0), ((2,), 1.0), ((3,), 5.0)))
        report = compare(a, b)
        assert (report.worst_coords, report.worst_values, report.checked) == ((0,), (1.0, 2.0), 4)
        assert report == dict_compare(a, b)

    def test_empty_sides(self):
        empty = SparseTensor((2, 2), ())
        assert compare(empty, empty) == CompareReport(True, 0, 0.0, None, None)
        one = SparseTensor((2, 2), (((1, 0), 3.0),))
        assert compare(empty, one) == dict_compare(empty, one)
        assert compare(one, empty) == dict_compare(one, empty)

    def test_order_zero(self):
        a = SparseTensor((), (((), 2.0),))
        assert compare(a, a).passed
        assert compare(a, SparseTensor((), ())) == dict_compare(a, SparseTensor((), ()))

    @pytest.mark.parametrize(
        "entries",
        [
            (((1,), 1.0), ((0,), 1.0)),  # out of order
            (((0,), 1.0), ((0,), 1.0)),  # duplicate
            (((0,), 1.0), ((2,), 1.0), ((1,), 1.0)),
        ],
    )
    def test_non_canonical_side_raises(self, entries):
        bad = SparseTensor((3,), entries)
        good = SparseTensor((3,), (((0,), 1.0),))
        for a, b in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(NonCanonicalTensorError):
                compare(a, b)
        assert issubclass(NonCanonicalTensorError, FusetreeError)
