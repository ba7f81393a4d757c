"""Sparse tensor storage and interchange.

Tensors live in two forms: a canonical coordinate list (:class:`SparseTensor`)
used for interchange, oracles, and I/O, and a compressed-sparse-fiber tree
(:class:`CsfTensor`) built under a chosen mode permutation for execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    shape = tuple(int(n) for n in extents)
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


@dataclass(frozen=True)
class SparseTensor:
    """Canonical sparse tensor: unique coordinates in lexicographic order.

    Stored values are the non-zero structure; construction through
    :func:`coo_from_entries` merges duplicates by summation and drops exact
    zeros. Instances are immutable and safe to share.

    ``_layouts`` is where ``executor.bind`` keeps each layout it builds of
    the tensor, a CSF tree or a flat tuple of its transposed dense values,
    keyed by kind and mode order, so that later binds reuse it. The layouts
    live as long as the tensor does; equality, hashing and ``repr`` ignore
    them.
    """

    shape: tuple[int, ...]
    entries: tuple[tuple[Coords, float], ...]
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> np.ndarray:
        # per-entry stores beat one fancy-index store here: building the
        # index arrays from coordinate tuples costs more than the stores
        out = np.zeros(self.shape, dtype=np.float64)
        for coords, value in self.entries:
            out[coords] = value
        return out

    @staticmethod
    def from_dense(arr: np.ndarray) -> "SparseTensor":
        """Every value that is not exactly zero, NaN included, in canonical order."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:  # np.nonzero rejects 0-d arrays
            entries = (((), float(arr)),) if arr else ()
        else:
            found = np.nonzero(arr)  # row-major, so already lexicographic
            coords = zip(*(modes.tolist() for modes in found))
            entries = tuple(zip(coords, arr[found].tolist()))
        return SparseTensor(_check_shape(arr.shape), entries)


def coo_from_entries(raw: Iterable[tuple[Sequence[int], float]], shape: Sequence[int]) -> SparseTensor:
    """Build a canonical tensor, merging duplicate coordinates by summation.

    Raises :class:`NonFiniteValueError` on a NaN or infinite value, given or
    summed.
    """
    shape = _check_shape(shape)
    order = len(shape)
    acc: dict[Coords, float] = {}
    for coords, value in raw:
        key = tuple(int(c) for c in coords)
        if len(key) != order:
            raise RankMismatchError(f"coordinates {key} have rank {len(key)}, expected {order}")
        if any(c < 0 or c >= shape[k] for k, c in enumerate(key)):
            raise OutOfBoundsError(key, shape)
        total = acc.get(key, 0.0) + float(value)
        if not math.isfinite(total):
            raise NonFiniteValueError(f"value {total!r} at coordinates {key} is not finite")
        acc[key] = total
    entries = tuple(sorted((k, v) for k, v in acc.items() if v != 0.0))
    return SparseTensor(shape, entries)


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

    A repeated coordinate raises :class:`NonCanonicalTensorError`.
    """
    perm = _check_perm(order, t.order)
    n = t.order
    permuted = sorted((tuple(c[k] for k in perm), v) for c, v in t.entries)
    coords: list[list[int]] = [[] for _ in range(n)]
    counts: list[list[int]] = [[] for _ in range(n)]  # children per parent node
    prev: Coords | None = None
    for key, _ in permuted:
        # longest shared prefix with the previous path decides which levels split
        split = 0
        if prev is not None:
            while split < n and prev[split] == key[split]:
                split += 1
        for d in range(split, n):
            coords[d].append(key[d])
            if d + 1 < n:
                counts[d].append(0)
            if d == 0:
                continue
            counts[d - 1][-1] += 1
        if prev is not None and split == n:
            raise NonCanonicalTensorError(f"coordinates {key} in mode order {perm} repeat")
        prev = key
    segs: list[tuple[int, ...]] = [(0, len(coords[0]) if n else len(permuted))]
    for d in range(n - 1):
        ptr = [0]
        for c in counts[d]:
            ptr.append(ptr[-1] + c)
        segs.append(tuple(ptr))
    return CsfTensor(
        shape=tuple(t.shape[k] for k in perm),
        mode_order=perm,
        coords=tuple(tuple(c) for c in coords),
        segs=tuple(segs),
        values=tuple(v for _, v in permuted),
    )


def read_tns(stream: TextIO | Iterable[str], shape: Sequence[int] | None = None) -> SparseTensor:
    """Parse FROSTT-style text: 1-based coordinates, '#' comments, value last.

    The shape is inferred as the per-mode maximum coordinate unless an
    explicit ``shape`` override is supplied (useful for trailing empty slices).
    """
    raw: list[tuple[Coords, float]] = []
    order: int | None = None
    maxima: list[int] = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) < 2:
            raise ParseError(f"expected coordinates and a value, got {text!r}", line=lineno)
        *coord_fields, value_field = fields
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
