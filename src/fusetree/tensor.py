"""Sparse tensor storage and interchange.

Tensors live in two forms: a canonical coordinate list (:class:`SparseTensor`)
used for interchange, oracles, and I/O, and a compressed-sparse-fiber tree
(:class:`CsfTensor`) built under a chosen mode permutation for execution. A
coordinate list holds coordinate and value arrays, checked once when built.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import (
    NonCanonicalTensorError,
    NonFiniteValueError,
    OutOfBoundsError,
    ParseError,
    RankMismatchError,
)

Coords = tuple[int, ...]


def _check_shape(extents: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(map(operator.index, extents))
    if any(n < 1 for n in shape):
        raise ValueError(f"every extent must be >= 1, got {shape}")
    return shape


def _check_perm(perm: Sequence[int], order: int) -> tuple[int, ...]:
    p = tuple(int(k) for k in perm)
    if len(p) != order:
        raise RankMismatchError(f"mode order has length {len(p)}, tensor has order {order}")
    if sorted(p) != list(range(order)):
        raise ValueError(f"{p} is not a permutation of 0..{order - 1}")
    return p


class SparseTensor:
    """Canonical sparse tensor: unique coordinates in lexicographic order.

    ``coords`` is one ``(nnz, order)`` int64 array whose rows are the stored
    coordinates, unique and in lexicographic order, and ``values`` the float64
    array aligned with it. Both are read-only, and instances are immutable and
    safe to share. ``SparseTensor(shape, entries)`` takes ``(coordinates,
    value)`` pairs and checks them once: a pair of another rank raises
    :class:`RankMismatchError`, a coordinate outside ``shape``
    :class:`OutOfBoundsError`, a coordinate that does not strictly follow
    the one before it :class:`NonCanonicalTensorError`, a coordinate or
    extent that is not an integer ``TypeError`` and an extent below 1
    ``ValueError``. Values may be NaN or infinite; :func:`coo_from_entries`
    and :func:`read_tns` reject those, and merge duplicates by summation.
    ``entries`` gives the pairs back as Python ints and floats, built on
    first use and kept. Two tensors are equal when their shapes, coordinates
    and values are; a NaN value equals nothing.

    ``_layouts`` is where ``executor.bind`` keeps each layout it builds of
    the tensor, a CSF tree or a flat tuple of its transposed dense values,
    keyed by kind and mode order, so that later binds reuse it. The layouts,
    like ``entries`` and the dense array, live as long as the tensor does;
    equality, hashing and ``repr`` ignore them.
    """

    def __init__(self, shape: Sequence[int], entries: Iterable[tuple[Sequence[int], float]]):
        shape = _check_shape(shape)
        entries = tuple((tuple(map(operator.index, key)), value) for key, value in entries)
        for k, (key, _) in enumerate(entries):
            if len(key) != len(shape):
                raise RankMismatchError(f"coordinates {key} have rank {len(key)}, expected {len(shape)}")
            if not all(0 <= c < n for c, n in zip(key, shape)):
                raise OutOfBoundsError(key, shape)
            if k and not entries[k - 1][0] < key:
                raise NonCanonicalTensorError(f"coordinates {key} follow {entries[k - 1][0]}")
        coords = np.array([key for key, _ in entries], dtype=np.int64).reshape(len(entries), len(shape))
        self._init(shape, coords, np.array([value for _, value in entries], dtype=np.float64))

    @classmethod
    def _trusted(cls, shape: tuple[int, ...], coords: np.ndarray, values: np.ndarray) -> "SparseTensor":
        """A tensor over arrays that are canonical and in bounds by
        construction, taken as they are and not checked."""
        t = cls.__new__(cls)
        t._init(shape, coords, values)
        return t

    def _init(self, shape: tuple[int, ...], coords: np.ndarray, values: np.ndarray) -> None:
        coords.flags.writeable = values.flags.writeable = False
        self.shape = shape
        self.coords = coords
        self.values = values
        self._layouts: dict = {}

    @functools.cached_property
    def entries(self) -> tuple[tuple[Coords, float], ...]:
        return tuple(zip(map(tuple, self.coords.tolist()), self.values.tolist()))

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.entries))

    def __repr__(self) -> str:
        return f"SparseTensor(shape={self.shape!r}, entries={self.entries!r})"

    def to_dense(self) -> np.ndarray:
        """The tensor as a read-only dense float64 array, built on first use
        and kept, since the oracles densify the same inputs on every check."""
        return self._dense

    @functools.cached_property
    def _dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        if self.order:
            out[tuple(self.coords.T)] = self.values
        elif self.nnz:  # a 0-d array takes no index arrays
            out[()] = self.values[0]
        out.flags.writeable = False
        return out

    @staticmethod
    def from_dense(arr: np.ndarray) -> "SparseTensor":
        """Every value that is not exactly zero, NaN included, in canonical order."""
        arr = np.asarray(arr, dtype=np.float64)
        shape = _check_shape(arr.shape)
        flat = np.flatnonzero(arr)  # row-major, so already lexicographic
        # np.stack costs about as much as the rest for a small array
        coords = np.array(np.unravel_index(flat, shape)).T if shape else np.zeros((len(flat), 0), int)
        return SparseTensor._trusted(shape, coords, arr.reshape(-1)[flat])


def coo_from_entries(raw: Iterable[tuple[Sequence[int], float]], shape: Sequence[int]) -> SparseTensor:
    """Build a canonical tensor, merging duplicate coordinates by summation.

    Raises :class:`NonFiniteValueError` on a NaN or infinite value, given or
    summed.
    """
    shape = _check_shape(shape)
    order = len(shape)
    acc: dict[Coords, float] = {}
    for coords, value in raw:
        key = tuple(map(operator.index, coords))
        if len(key) != order:
            raise RankMismatchError(f"coordinates {key} have rank {len(key)}, expected {order}")
        if any(c < 0 or c >= shape[k] for k, c in enumerate(key)):
            raise OutOfBoundsError(key, shape)
        total = acc.get(key, 0.0) + float(value)
        if not math.isfinite(total):
            raise NonFiniteValueError(f"value {total!r} at coordinates {key} is not finite")
        acc[key] = total
    keys = sorted(k for k, v in acc.items() if v != 0.0)
    coords = np.array(keys, dtype=np.int64).reshape(len(keys), order)
    return SparseTensor._trusted(shape, coords, np.array([acc[k] for k in keys], dtype=np.float64))


@dataclass(frozen=True)
class CsfTensor:
    """Compressed-sparse-fiber tree under a fixed outer-to-inner mode order.

    ``coords[d]`` holds the non-zero coordinates of level ``d`` (one per tree
    node); ``segs[0]`` is the synthetic root segment bracketing level 0, and
    ``segs[d]`` for ``d >= 1`` brackets the children of each level ``d-1``
    node. ``values`` aligns with the deepest coordinate level.
    """

    shape: tuple[int, ...]  # extents in layout order
    mode_order: tuple[int, ...]  # source mode stored at each level
    coords: tuple[tuple[int, ...], ...]
    segs: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.mode_order)

    @property
    def nnz(self) -> int:
        return len(self.values)


def csf_build(t: SparseTensor, order: Sequence[int]) -> CsfTensor:
    """Group a tensor's non-zeros into a CSF tree under ``order``.

    The coordinates are sorted with their modes permuted; a level-``d`` node
    starts at every row whose first ``d + 1`` permuted coordinates differ
    from the row before, and each node's children start at its own first row.
    """
    perm = _check_perm(order, t.order)
    n = t.order
    keys, values = t.coords[:, perm], t.values
    if perm != tuple(range(n)):
        rows = np.lexsort(keys.T[::-1])  # the last key is the primary one
        keys, values = keys[rows], values[rows]
    new = np.ones(keys.shape, dtype=bool)
    new[1:] = np.logical_or.accumulate(keys[1:] != keys[:-1], axis=1)
    coords = tuple(tuple(keys[new[:, d], d].tolist()) for d in range(n))
    segs = [(0, len(coords[0]) if n else len(values))]
    for d in range(n - 1):
        children = np.cumsum(new[:, d + 1])[new[:, d]] - 1
        segs.append((*children.tolist(), len(coords[d + 1])))
    return CsfTensor(
        shape=tuple(t.shape[k] for k in perm),
        mode_order=perm,
        coords=coords,
        segs=tuple(segs),
        values=tuple(values.tolist()),
    )


def read_tns(stream: TextIO | Iterable[str], shape: Sequence[int] | None = None) -> SparseTensor:
    """Parse FROSTT-style text: 1-based coordinates, '#' comments, value last.

    A line that holds only a value is the entry of an order-0 tensor; every
    line of a file has the same number of coordinates. The shape is inferred
    as the per-mode maximum coordinate unless an explicit ``shape`` override
    is supplied (useful for trailing empty slices).
    """
    raw: list[tuple[Coords, float]] = []
    order: int | None = None
    maxima: list[int] = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        *coord_fields, value_field = text.split()
        if order is None:
            order = len(coord_fields)
            maxima = [0] * order
        elif len(coord_fields) != order:
            raise RankMismatchError(
                f"line {lineno}: {len(coord_fields)} coordinates, expected {order}"
            )
        try:
            coords = tuple(int(f) - 1 for f in coord_fields)
            value = float(value_field)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if any(c < 0 for c in coords):
            raise ParseError(f"coordinates must be 1-based positive, got {text!r}", line=lineno)
        for k, c in enumerate(coords):
            maxima[k] = max(maxima[k], c + 1)
        raw.append((coords, value))
    if shape is None:
        shape = tuple(maxima)
    elif order is not None and len(shape) != order:
        raise RankMismatchError(f"shape override has rank {len(shape)}, data has rank {order}")
    return coo_from_entries(raw, shape)


def write_tns(t: SparseTensor, stream: TextIO) -> None:
    """Serialize in the format accepted by :func:`read_tns` (full precision)."""
    for coords, value in t.entries:
        fields = [str(c + 1) for c in coords]
        fields.append(repr(value))
        stream.write(" ".join(fields) + "\n")
