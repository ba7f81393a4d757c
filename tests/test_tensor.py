"""Coordinate tensors, CSF trees, workspaces, and .tns I/O."""

from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusetree import (
    CsfTensor,
    SparseTensor,
    coo_from_entries,
    csf_build,
    read_tns,
    write_tns,
)
from fusetree.errors import (
    NonCanonicalTensorError,
    NonFiniteValueError,
    OutOfBoundsError,
    ParseError,
    RankMismatchError,
)
from conftest import csf_check, csf_flatten, permute


class TestCoo:
    def test_empty(self):
        t = coo_from_entries([], (3, 3))
        assert t.entries == () and t.shape == (3, 3)

    def test_sorted_canonical(self):
        t = coo_from_entries([((1, 0), 2.0), ((0, 1), 3.0)], (2, 2))
        assert t.entries == (((0, 1), 3.0), ((1, 0), 2.0))

    def test_duplicates_merge_and_cancel(self):
        t = coo_from_entries([((0, 0), 1.5), ((0, 0), -1.5)], (2, 2))
        assert t.nnz == 0
        t2 = coo_from_entries([((0, 0), 1.0), ((0, 0), 2.0)], (2, 2))
        assert t2.entries == (((0, 0), 3.0),)

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBoundsError):
            coo_from_entries([((2, 0), 1.0)], (2, 2))
        with pytest.raises(OutOfBoundsError):
            coo_from_entries([((-1, 0), 1.0)], (2, 2))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            coo_from_entries([((0,), 1.0)], (2, 2))

    def test_a_coordinate_that_is_not_an_integer(self):
        with pytest.raises(TypeError):  # int() would truncate it to 1
            coo_from_entries([((0, 1.5), 1.0)], (2, 2))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "nan", "-inf"])
    def test_non_finite_rejected(self, value):
        with pytest.raises(NonFiniteValueError):
            coo_from_entries([((0, 0), 1.0), ((1, 1), value)], (2, 2))

    def test_duplicates_overflowing_to_inf_rejected(self):
        with pytest.raises(NonFiniteValueError):
            coo_from_entries([((0, 1), 1e308), ((0, 1), 1e308)], (2, 2))

    def test_dense_round_trip(self):
        arr = np.array([[0.0, 1.5], [2.0, 0.0]])
        t = SparseTensor.from_dense(arr)
        assert t.entries == (((0, 1), 1.5), ((1, 0), 2.0))
        assert np.array_equal(t.to_dense(), arr)


class TestConstruction:
    @pytest.mark.parametrize("key", ((), (1, 5)), ids=("order-0", "order-2"))
    def test_coordinates_of_another_rank(self, key):
        # before this check, () bound dense filled every cell of an order-1
        # input, and bound CSF either key ended in a bare IndexError
        with pytest.raises(RankMismatchError, match=r"have rank \d, expected 1$"):
            SparseTensor((2,), ((key, 7.0),))

    @pytest.mark.parametrize("coordinate", (1.5, 1.0))
    def test_a_coordinate_that_is_not_an_integer(self, coordinate):
        # int64 storage would truncate 1.5 to 1 without a word
        with pytest.raises(TypeError):
            SparseTensor((3,), (((coordinate,), 2.0),))

    def test_an_extent_that_is_not_an_integer(self):
        # int() would truncate either to an extent of 2
        with pytest.raises(TypeError):
            SparseTensor((2.5,), ())
        with pytest.raises(TypeError):
            coo_from_entries([], (2.9, 3))

    def test_non_finite_values_are_stored(self):
        t = SparseTensor((3,), (((0,), float("nan")), ((2,), float("-inf"))))
        assert repr(t.entries) == "(((0,), nan), ((2,), -inf))"

    def test_arrays_are_read_only(self):
        t = coo_from_entries([((1, 0), 2.0)], (2, 2))
        assert (t.coords.dtype, t.coords.shape, t.values.dtype) == (np.int64, (1, 2), np.float64)
        assert t.to_dense() is t.to_dense()  # built once, for every oracle call
        for array in (t.coords, t.values, t.to_dense()):
            with pytest.raises(ValueError):
                array[0] = 0


class TestCsf:
    def test_identity_order_grouping(self):
        t = coo_from_entries([((0, 0), 1.0), ((0, 2), 2.0), ((1, 1), 3.0)], (2, 3))
        c = csf_build(t, (0, 1))
        assert c.coords[0] == (0, 1)
        assert c.segs[0] == (0, 2)
        assert c.segs[1] == (0, 2, 3)
        assert c.coords[1] == (0, 2, 1)
        assert c.values == (1.0, 2.0, 3.0)
        csf_check(c)

    def test_transposed_order(self):
        t = coo_from_entries([((0, 0), 1.0), ((0, 2), 2.0), ((1, 1), 3.0)], (2, 3))
        c = csf_build(t, (1, 0))
        assert c.coords[0] == (0, 1, 2)
        assert c.segs[1] == (0, 1, 2, 3)  # one child per top node
        csf_check(c)

    def test_empty_tensor_root_segment(self):
        c = csf_build(coo_from_entries([], (2, 2)), (0, 1))
        assert c.segs[0] == (0, 0)
        assert c.coords == ((), ())
        assert c.values == ()
        csf_check(c)

    def test_flatten_round_trip_examples(self):
        t = coo_from_entries([((0, 0), 1.0), ((0, 2), 2.0), ((1, 1), 3.0)], (2, 3))
        for perm in ((0, 1), (1, 0)):
            assert csf_flatten(csf_build(t, perm)) == permute(t, perm)

    def test_order1_any_order(self):
        t = coo_from_entries([((2,), 5.0), ((0,), 1.0)], (4,))
        assert csf_flatten(csf_build(t, (0,))) == t

    def test_leaf_count(self):
        rng = random.Random(0)
        for _ in range(25):
            shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            total = 1
            for n in shape:
                total *= n
            picks = rng.sample(range(total), rng.randint(0, total))
            entries = [(np.unravel_index(p, shape), float(rng.uniform(-1, 1)) or 1.0) for p in picks]
            t = coo_from_entries([(tuple(int(x) for x in c), v) for c, v in entries], shape)
            c = csf_build(t, tuple(range(len(shape))))
            assert c.nnz == t.nnz
            csf_check(c)

    def test_rank_mismatch(self):
        t = coo_from_entries([], (2, 2))
        with pytest.raises(RankMismatchError):
            csf_build(t, (0, 1, 2))

    def test_repeated_coordinates(self):
        # construction raises, so csf_build never sees a repeat
        with pytest.raises(NonCanonicalTensorError, match=r"^coordinates \(0, 1\) follow \(1, 0\)$"):
            SparseTensor((2, 2), (((0, 1), 1.0), ((1, 0), 2.0), ((0, 1), 3.0)))


@st.composite
def sparse_tensors(draw):
    order = draw(st.integers(0, 4))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(order))
    total = 1
    for n in shape:
        total *= n
    picks = draw(st.sets(st.integers(0, total - 1), max_size=min(total, 12)))
    entries = []
    for p in sorted(picks):
        coords = tuple(int(x) for x in np.unravel_index(p, shape)) if order else ()
        value = draw(st.floats(-10, 10, allow_nan=False).filter(lambda v: v != 0.0))
        entries.append((coords, value))
    perm = tuple(draw(st.permutations(range(order))))
    return coo_from_entries(entries, shape), perm


@given(sparse_tensors())
@settings(max_examples=120, deadline=None)
def test_csf_round_trip_property(case):
    t, perm = case
    c = csf_build(t, perm)
    csf_check(c)
    assert c.nnz == t.nnz
    assert csf_flatten(c) == permute(t, perm)


class TestTns:
    def test_basic(self):
        t = read_tns(["1 1 1 2.0", "2 3 1 -1.0"])
        assert t.shape == (2, 3, 1)
        assert t.entries == (((0, 0, 0), 2.0), ((1, 2, 0), -1.0))

    def test_comment_only(self):
        t = read_tns(["# comment"])
        assert t.shape == () and t.nnz == 0

    def test_malformed_field(self):
        with pytest.raises(ParseError):
            read_tns(["1 x 1 2.0"])

    def test_inconsistent_arity(self):
        with pytest.raises(RankMismatchError):
            read_tns(["1 1 2.0", "1 1 1 2.0"])

    def test_shape_override(self):
        t = read_tns(["1 1 5.0"], shape=(3, 4))
        assert t.shape == (3, 4)
        with pytest.raises(RankMismatchError):
            read_tns(["1 1 5.0"], shape=(3, 4, 5))

    def test_duplicates_merged(self):
        t = read_tns(["1 1 2.0", "1 1 3.0"])
        assert t.entries == (((0, 0), 5.0),)

    @pytest.mark.parametrize("field", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_rejected(self, field):
        with pytest.raises(NonFiniteValueError):
            read_tns(["1 1 2.0", f"2 1 {field}"])

    def test_write_read_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            shape = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
            total = int(np.prod(shape))
            picks = rng.sample(range(total), rng.randint(1, total))
            entries = [
                (tuple(int(x) for x in np.unravel_index(p, shape)), rng.uniform(-5, 5))
                for p in picks
            ]
            t = coo_from_entries(entries, shape)
            buf = io.StringIO()
            write_tns(t, buf)
            back = read_tns(io.StringIO(buf.getvalue()), shape=shape)
            assert back == t
