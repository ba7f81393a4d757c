"""The check path: the n-ary oracle, dense conversion and the array compare.

Each fast route is held against the plain version it replaced, which lives
only here: the flat einsum over the whole index space, and the comparison
through two dicts, a set union and a sort.
"""

from __future__ import annotations

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusetree import bind, build_tree, compare, coo_from_entries, execute, lower, oracle_nary, parse_network
from fusetree import check, executor, search_min_order
from fusetree.bench import bench_generate, running_example_network, synthetic_tensor
from fusetree.errors import ExtentMismatchError, FusetreeError, InvalidToleranceError, NonCanonicalTensorError
from fusetree.check import CompareReport
from fusetree.network import Contraction, TensorRef
from fusetree.tensor import SparseTensor
from conftest import random_tree, shuffle_root

KINDS = ("sparse", "mixed", "dense", "zero", "single", "unit")
SEEDS = range(16)


def flat_oracle(tree, tensors) -> SparseTensor:
    """One einsum over the flat product of every leaf reference."""
    leaves = [r for c in tree.contractions for r in (c.lhs, c.rhs) if r.tensor not in tree.producer_of]
    sub = check._letters(sorted({i for r in leaves for i in r.indices}))
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
    tree = shuffle_root(random_tree(rng), rng)
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


@pytest.mark.parametrize("cutoff", (0, check.EINSUM_PATH_CUTOFF))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_nary_matches_flat_einsum(seed, kind, cutoff, monkeypatch):
    monkeypatch.setattr(check, "EINSUM_PATH_CUTOFF", cutoff)  # 0: every space takes a path
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
    assert 12**5 > check.EINSUM_PATH_CUTOFF
    rng = np.random.default_rng(5)
    tensors = {name: _eighths((12, 12), rng) for name in "ABCD"}
    got = oracle_nary(chain, tensors)
    assert got.nnz > 0
    assert got == oracle_nary(pairs, tensors)  # multiples of 1/8 sum exactly


@pytest.mark.parametrize("oracle", (oracle_nary, check.oracle_unfused))
def test_an_index_without_an_extent_is_a_typed_error(oracle):
    tree = parse_network("R[i,j] = A[i,k] * B[k,j]\n")
    tensors = {name: coo_from_entries([((0, 0), 1.0)], (2, 2)) for name in "AB"}
    with pytest.raises(ExtentMismatchError, match="no extent declared for index"):
        oracle(tree, tensors)


class Recorder:
    """Records every ``np.einsum`` and ``np.einsum_path`` call the oracle makes:
    its subscripts, each letter's extent and the ``optimize`` argument."""

    def __init__(self, monkeypatch):
        self.einsums: list[tuple[str, dict, object]] = []
        self.paths: list[tuple[str, dict]] = []
        einsum, einsum_path = np.einsum, np.einsum_path

        def recording_einsum(expr, *operands, **kwargs):
            self.einsums.append((expr, self._dims(expr, operands), kwargs.get("optimize", False)))
            return einsum(expr, *operands, **kwargs)

        def recording_path(expr, *operands, **kwargs):
            self.paths.append((expr, self._dims(expr, operands)))
            return einsum_path(expr, *operands, **kwargs)

        monkeypatch.setattr(check.np, "einsum", recording_einsum)
        monkeypatch.setattr(check.np, "einsum_path", recording_path)

    @staticmethod
    def _dims(expr: str, operands) -> dict[str, int]:
        terms = expr.split("->")[0].split(",")
        return {x: n for term, op in zip(terms, operands) for x, n in zip(term, np.shape(op))}


def _chain3(n: int):
    """Three n x n matrices in a chain."""
    extents = "".join(f"extent {i} {n}\n" for i in "ijkl")
    tree = parse_network(extents + "X[i,k] = A[i,j] * B[j,k]\nR[i,l] = X[i,k] * C[k,l]\n")
    rng = np.random.default_rng(n)
    return tree, {name: _eighths((n, n), rng) for name in "ABC"}


def _matmul(n: int):
    tree = parse_network(f"extent i {n}\nextent j {n}\nextent k {n}\nR[i,j] = T[i,k] * S[k,j]\n")
    t = coo_from_entries([((0, 0), 1.0)], (n, n))
    return tree, {"T": t, "S": t}


def test_nary_plans_a_path_only_above_the_cutoff(monkeypatch):
    calls = Recorder(monkeypatch)
    greedy = ("greedy", check.DENSE_SPACE_BUDGET)
    # 2^3, 40^3, 4^4 and 16^4 points
    for case, n, planned in ((_matmul, 2, False), (_matmul, 40, greedy), (_chain3, 4, False), (_chain3, 16, greedy)):
        tree, tensors = case(n)
        calls.einsums.clear()
        oracle_nary(tree, tensors)
        assert calls.paths == []  # a pairwise path is planned inside the einsum call
        (_, dims, optimize), = calls.einsums  # one einsum over the whole flat space
        assert math.prod(dims.values()) == math.prod(tree.extents.values())
        assert optimize == planned, (case.__name__, n)


def _intermediates(expr: str, dims: dict[str, int], optimize) -> list[int]:
    """The cells of each intermediate along the path numpy plans for ``expr``
    under ``optimize``, the result last."""
    terms, out = expr.split("->")[0].split(","), expr.split("->")[1]
    operands = [np.zeros([dims[x] for x in t]) for t in terms]
    path = np.einsum_path(expr, *operands, optimize=optimize)[0]
    live, cells = [set(t) for t in terms], []
    for step in path[1:]:
        picked = set().union(*(live[k] for k in step))
        live = [t for k, t in enumerate(live) if k not in step]
        live.append(picked & set(out).union(*live))
        cells.append(math.prod(dims[x] for x in live[-1]))
    return cells


def _running(n: int, root: str = "i,j,k"):
    tree = parse_network(running_example_network(n).replace("R[i,j,k]", f"R[{root}]"))
    rng = np.random.default_rng(n)
    return tree, {name: _eighths((n, n, n), rng) for name in "ABCD"}


def _ring(n: int, root: str):
    """A[i,j,k] B[k,l,m] C[m,n,i] D[j,l,n]: every pair of leaves contracts to
    order 4 against order-3 leaves."""
    extents = "".join(f"extent {i} {n}\n" for i in "ijklmn")
    tree = parse_network(
        extents
        + "X[i,j,l,m] = A[i,j,k] * B[k,l,m]\nY[j,l,n] = X[i,j,l,m] * C[m,n,i]\n"
        + f"R[{root}] = Y[j,l,n] * D[j,l,n]\n"
    )
    rng = np.random.default_rng(n)
    return tree, {name: _eighths((n, n, n), rng) for name in "ABCD"}


@pytest.mark.parametrize(
    "case, n, root",
    [(_running, 12, "i,j,k"), (_running, 16, "i,j,k"), (_ring, 8, "")],
    ids=("running12", "running16", "ring8"),
)
def test_the_oracles_path_is_pairwise(case, n, root, monkeypatch):
    # numpy's default cap, the largest leaf or result, would make each of
    # these one flat step over n^6 points
    tree, tensors = case(n, root)
    calls = Recorder(monkeypatch)
    oracle_nary(tree, tensors)
    (expr, dims, optimize), = calls.einsums
    assert len(dims) == 6
    cells = _intermediates(expr, dims, optimize)
    assert len(cells) > 1
    assert max(cells) == n**4


@pytest.mark.parametrize(
    "case, n, root",
    [(_running, n, root) for n in (12, 16) for root in ("i,j,k", "k,j,i")]  # k is mode 1 of D[j,k,r]
    + [(_ring, 8, root) for root in ("", "n,j")],
    ids=lambda v: v.__name__[1:] if callable(v) else None,
)
def test_nary_contracts_the_running_example_and_ring_exactly(case, n, root):
    # multiples of 1/8 sum exactly in any order
    tree, tensors = case(n, root)
    got = oracle_nary(tree, tensors)
    assert got.nnz > 0
    assert got == flat_oracle(tree, tensors)


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

    @pytest.mark.parametrize(
        "tols",
        [{"rel_tol": math.nan}, {"abs_tol": math.nan}, {"rel_tol": math.inf},
         {"abs_tol": math.inf}, {"rel_tol": -1e-10}, {"abs_tol": -0.5}],
        ids=["rel-nan", "abs-nan", "rel-inf", "abs-inf", "rel-negative", "abs-negative"],
    )
    def test_invalid_tolerance_raises(self, tols):
        # a NaN tolerance would pass every mismatch
        a = SparseTensor((1,), (((0,), 1.0),))
        b = SparseTensor((1,), (((0,), 2.0),))
        with pytest.raises(InvalidToleranceError):
            compare(a, b, **tols)
        assert issubclass(InvalidToleranceError, (FusetreeError, ValueError))

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
        # construction raises, so no such side reaches compare
        with pytest.raises(NonCanonicalTensorError, match="^coordinates .* follow "):
            SparseTensor((3,), entries)
        assert issubclass(NonCanonicalTensorError, FusetreeError)


SPECIALS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 0.5, 1.0, 1.5, -2.0)


@st.composite
def compare_cases(draw):
    """Two tensors of one shape over a few shared coordinates, and tolerances.

    Values come mostly from a short list, so worst offenders tie; one side's
    support is often the other's. Some order-3 shapes have 2^64 cells."""
    order = draw(st.integers(0, 3))
    if order == 3 and draw(st.booleans()):
        shape = (2**22, 2**21, 2**21)
    else:
        shape = tuple(draw(st.integers(1, 4)) for _ in range(order))
    pool = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in shape)), max_size=6, unique=True))
    value = st.sampled_from(SPECIALS) | st.floats(-4, 4)
    sides = []
    for _ in range(2):
        support = draw(st.sampled_from(("pool", "subset", "same"))) if sides else "subset"
        keys = {"pool": pool, "subset": draw(st.lists(st.sampled_from(pool), unique=True)) if pool else [],
                "same": [c for c, _ in sides[0].entries] if sides else []}[support]
        sides.append(SparseTensor(shape, sorted((c, draw(value)) for c in keys)))
    tols = draw(st.sampled_from(({}, {"rel_tol": 0.0, "abs_tol": 0.6}, {"rel_tol": 0.3})))
    return sides, tols


@pytest.mark.parametrize("scan", (0, check.COMPARE_SCAN_VALUES))  # 0: numpy for any values
@given(case=compare_cases())
@settings(max_examples=300, deadline=None)
def test_array_compare_matches_dict_compare(scan, case):
    (a, b), tols = case
    default, check.COMPARE_SCAN_VALUES = check.COMPARE_SCAN_VALUES, scan
    try:
        reports = [(compare(x, y, **tols), dict_compare(x, y, **tols)) for x, y in ((a, b), (b, a))]
    finally:
        check.COMPARE_SCAN_VALUES = default
    for got, want in reports:
        assert _same(got, want), (a, b, tols)
        assert [type(c) for c in got.worst_coords or ()] == [int] * len(got.worst_coords or ())
        assert {type(v) for v in got.worst_values or ()} <= {float} and type(got.max_abs_err) is float
    if math.prod(a.shape) <= 64:  # the round trip through a dense array
        dense = a.to_dense()
        back = SparseTensor.from_dense(dense)
        assert repr(back.entries) == repr(tuple((c, v) for c, v in a.entries if v != 0.0))
        assert np.array_equal(back.to_dense(), dense, equal_nan=True)


def _outer_root(n: int):
    """A root of n^3 > 2^16 cells, which the kernel accumulates in a dict."""
    tree = parse_network(f"extent i {n}\nextent j {n}\nextent k {n}\nR[i,j,k] = T[i,j,k] * S[k]\n")
    rng = np.random.default_rng(n)
    tensors = {"T": synthetic_tensor((n, n, n), 0.01, rng), "S": synthetic_tensor((n,), 1.0, rng)}
    return tree, tensors, ("S",)


@pytest.mark.parametrize("kind", ("mttkrp1", "ttmc1", "outer"))
def test_the_check_path_builds_no_entry_tuples(kind):
    # factor_sweep's shape: a sparse order-3 tensor and dense rank-8 factors
    if kind == "outer":
        tree, tensors, dense = _outer_root(41)
        assert math.prod(tree.ref_shape(tree.root.result)) > executor.ROOT_DENSE_CELLS
    else:
        inst = bench_generate(kind, extents=(15, 20, 25), rank=8, density=0.02, seed=3)
        tree, tensors, dense = inst.tree, inst.tensors, inst.dense_names
    _, sol = search_min_order(tree)
    result, _ = execute(lower(tree, sol), bind(tree, sol, tensors, dense))
    reference = oracle_nary(tree, tensors)
    report = compare(result, reference)
    assert report.passed and report.checked == result.nnz > 0
    for t in (result, reference, *tensors.values()):
        assert "entries" not in vars(t)  # the cached tuple view was never asked for


def test_the_check_path_imports_none_of_the_code_it_checks():
    # the oracles and compare are ground truth only while they share no code
    # with the solver, the lowering or the kernels
    imported = []
    for node in ast.walk(ast.parse(Path(check.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [*(node.module or "").split("."), *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            imported += [part for alias in node.names for part in alias.name.split(".")]
    assert "network" in imported and "tensor" in imported
    assert not {"fusetree", "constraints", "lowering", "executor"} & set(imported)
