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
    csf_flatten,
    permute,
    read_tns,
    write_tns,
)
from fusetree.errors import OutOfBoundsError, ParseError, RankMismatchError
from fusetree.tensor import csf_check


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

    def test_dense_round_trip(self):
        arr = np.array([[0.0, 1.5], [2.0, 0.0]])
        t = SparseTensor.from_dense(arr)
        assert t.entries == (((0, 1), 1.5), ((1, 0), 2.0))
        assert np.array_equal(t.to_dense(), arr)


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
