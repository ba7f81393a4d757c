"""Independent ground truth for the kernels: two dense oracles and ``compare``.

Nothing here reads a schedule, the loop IR or a generated kernel, and the
module imports none of the code that makes them. The n-ary oracle contracts
the flat product of every leaf; above a small index space it lets numpy's
greedy search choose a pairwise order from that flat expression and the leaf
shapes alone, never from the tree or the schedule. The unfused oracle
evaluates the contractions one by one, children first. No intermediate of
either holds more than ``DENSE_SPACE_BUDGET`` cells. ``compare`` works on
the two tensors' coordinate and value arrays: where both store the same
coordinates it compares the value arrays as they are, else it first merges
the coordinates into their sorted union. It compares up to
``COMPARE_SCAN_VALUES`` values in a Python scan, and more with numpy.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ExtentMismatchError,
    InvalidToleranceError,
    ShapeMismatchError,
    TooLargeError,
    UnboundTensorError,
)
from .network import ContractionTree, TensorRef
from .tensor import SparseTensor

DENSE_SPACE_BUDGET = 100_000_000
# flat index spaces above this many points are contracted along numpy's
# pairwise path; below it, planning the path (about 0.2 ms) costs more than
# one flat einsum
EINSUM_PATH_CUTOFF = 2**14
# compare scans up to this many values in Python and more with numpy: the scan
# costs about 0.5 us a value, the numpy route 15-30 us warm, but right after a
# kernel has run about 80 us, against 55 us for the scan of solver_chains'
# 16-value results (2-core Xeon VM)
COMPARE_SCAN_VALUES = 64


# ---------------------------------------------------------------------------
# dense oracles


def _as_dense(t: SparseTensor | np.ndarray) -> np.ndarray:
    if isinstance(t, SparseTensor):
        return t.to_dense()
    return np.asarray(t, dtype=np.float64)


def _letters(names: Sequence[str]) -> dict[str, str]:
    alphabet = string.ascii_letters
    if len(names) > len(alphabet):
        raise TooLargeError("more distinct indices than einsum subscripts")
    return {name: alphabet[i] for i, name in enumerate(sorted(set(names)))}


def _leaf(
    tensors: Mapping[str, SparseTensor | np.ndarray],
    ref: TensorRef,
    shape: tuple[int, ...],
) -> np.ndarray:
    """The dense array bound to input ``ref``, which must have ``shape``, the
    one ``ContractionTree.ref_shape`` gives ``ref``.

    Raises :class:`UnboundTensorError` if no tensor is bound, and
    :class:`ExtentMismatchError` if the shape differs.
    """
    if ref.tensor not in tensors:
        raise UnboundTensorError(f"no tensor bound for input '{ref.tensor}'")
    arr = _as_dense(tensors[ref.tensor])
    if arr.shape != shape:
        raise ExtentMismatchError(f"tensor '{ref.tensor}' has shape {arr.shape}, expected {shape}")
    return arr


def oracle_nary(
    tree: ContractionTree,
    tensors: Mapping[str, SparseTensor | np.ndarray],
) -> SparseTensor:
    """Ground truth by direct n-ary contraction over the densified leaves.

    Evaluates the flat product of every input reference, summing all indices
    absent from the root result. The tree supplies only its leaf references
    and its root. Over a flat index space above ``EINSUM_PATH_CUTOFF`` points
    numpy's greedy search contracts the operands pairwise, in an order it
    derives from that flat expression and the leaf shapes alone, so the oracle
    never follows the schedule under test. It may keep any intermediate of at
    most ``DENSE_SPACE_BUDGET`` cells, the bound :func:`oracle_unfused` puts
    on its own intermediates. Smaller spaces take one flat einsum, which is
    cheaper than planning a path. A flat index space above
    ``DENSE_SPACE_BUDGET`` points, or more leaves than one einsum call takes,
    raises :class:`TooLargeError`.
    """
    leaf_refs = [
        ref
        for c in tree.contractions
        for ref in (c.lhs, c.rhs)
        if ref.tensor not in tree.producer_of
    ]
    shapes = [tree.ref_shape(ref) for ref in leaf_refs]
    dims = {i: n for ref, shape in zip(leaf_refs, shapes) for i, n in zip(ref.indices, shape)}
    space = math.prod(dims.values())
    if space > DENSE_SPACE_BUDGET:
        raise TooLargeError(f"n-ary iteration space {space} exceeds budget {DENSE_SPACE_BUDGET}")
    operands = [_leaf(tensors, ref, shape) for ref, shape in zip(leaf_refs, shapes)]
    out_ref = tree.root.result
    sub = _letters(list(dims))
    expr = ",".join("".join(sub[i] for i in ref.indices) for ref in leaf_refs)
    expr += "->" + "".join(sub[i] for i in out_ref.indices)
    path = ("greedy", DENSE_SPACE_BUDGET) if space > EINSUM_PATH_CUTOFF else False
    try:
        dense = np.einsum(expr, *operands, optimize=path)
    except ValueError as exc:
        if "too many operands" not in str(exc):
            raise
        raise TooLargeError(f"{len(operands)} leaves are more than one einsum call takes") from None
    return SparseTensor.from_dense(dense.reshape(tree.ref_shape(out_ref)))


def oracle_unfused(
    tree: ContractionTree,
    tensors: Mapping[str, SparseTensor | np.ndarray],
) -> tuple[SparseTensor, dict]:
    """Evaluate contractions children first with full-order dense intermediates.

    Returns the result plus ``{"max_intermediate_cells": ...}`` for memory
    comparisons against fused execution.
    """
    env: dict[str, np.ndarray] = {}

    def fetch(ref: TensorRef) -> np.ndarray:
        if ref.tensor not in env:
            env[ref.tensor] = _leaf(tensors, ref, tree.ref_shape(ref))
        return env[ref.tensor]

    preorder = [tree.root.cid]  # parents before children, without recursion
    for cid in preorder:
        preorder.extend(tree.children_of(cid))
    max_cells = 0
    root_name = tree.root.result.tensor
    for cid in reversed(preorder):
        c = tree.contractions[cid]
        sub = _letters(sorted(c.index_set))
        expr = (
            "".join(sub[i] for i in c.lhs.indices)
            + ","
            + "".join(sub[i] for i in c.rhs.indices)
            + "->"
            + "".join(sub[i] for i in c.result.indices)
        )
        cells = math.prod(tree.ref_shape(c.result))
        if cells > DENSE_SPACE_BUDGET:
            raise TooLargeError(f"intermediate '{c.result.tensor}' needs {cells} dense cells")
        out = np.einsum(expr, fetch(c.lhs), fetch(c.rhs))
        env[c.result.tensor] = out.reshape(tree.ref_shape(c.result))
        if c.result.tensor != root_name:
            max_cells = max(max_cells, env[c.result.tensor].size)
    result = SparseTensor.from_dense(env[root_name])
    return result, {"max_intermediate_cells": max_cells}


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class CompareReport:
    passed: bool
    checked: int
    max_abs_err: float
    worst_coords: tuple[int, ...] | None
    worst_values: tuple[float, float] | None

    def message(self) -> str:
        if self.passed:
            return f"pass: {self.checked} coordinates, max abs error {self.max_abs_err:.3e}"
        a, b = self.worst_values
        return (
            f"FAIL at {self.worst_coords}: {a!r} vs {b!r} "
            f"(abs error {self.max_abs_err:.3e}, {self.checked} coordinates checked)"
        )


def check_tolerances(rel_tol: float, abs_tol: float) -> None:
    """Raise :class:`InvalidToleranceError` unless both tolerances are
    finite and >= 0."""
    if not (0.0 <= rel_tol < math.inf and 0.0 <= abs_tol < math.inf):
        raise InvalidToleranceError(f"tolerances must be finite and >= 0: rel {rel_tol}, abs {abs_tol}")


def compare(
    a: SparseTensor,
    b: SparseTensor,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
) -> CompareReport:
    """Pointwise comparison over the union of coordinates.

    Passes iff |a - b| <= abs_tol + rel_tol * max(|a|, |b|) everywhere and no
    value on either side is NaN or infinite; the report carries the worst
    offender, a non-finite one first, and of equals the first in
    lexicographic order. A tolerance that is negative, infinite or NaN raises
    :class:`InvalidToleranceError`.
    """
    check_tolerances(rel_tol, abs_tol)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    if a.nnz == b.nnz and (a.coords == b.coords).all():
        coords, x, y = a.coords, a.values, b.values
    else:
        coords, x, y = _union(a, b)
    if len(x) <= COMPARE_SCAN_VALUES:
        worst, max_err, passed = _scan(x.tolist(), y.tolist(), rel_tol, abs_tol)
    else:
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 0 * inf, overflow
            err = np.abs(x - y)
            err[np.isnan(err)] = math.inf  # a NaN difference has a non-finite side
            within = err <= abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(y))
        worst = int(err.argmax())  # the first of equals
        max_err, passed = float(err[worst]), bool(within.all())
    # an infinite error, from a non-finite side or an overflow, always fails
    passed = passed and max_err < math.inf
    if max_err == 0.0:
        return CompareReport(passed, len(x), 0.0, None, None)
    worst_values = (float(x[worst]), float(y[worst]))
    return CompareReport(passed, len(x), max_err, tuple(coords[worst].tolist()), worst_values)


def _scan(xs: list[float], ys: list[float], rel_tol: float, abs_tol: float) -> tuple[int, float, bool]:
    """``compare``'s arithmetic one value at a time: the first worst index, its
    error, and whether every error is within the tolerance."""
    worst, max_err, passed = 0, 0.0, True
    for k, (x, y) in enumerate(zip(xs, ys)):
        err = abs(x - y)
        if err != err:  # a NaN difference has a non-finite side
            err = math.inf
        if err > max_err:
            worst, max_err = k, err
        if not err <= abs_tol + rel_tol * max(abs(x), abs(y)):
            passed = False
    return worst, max_err, passed


def _union(a: SparseTensor, b: SparseTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of two tensors' coordinates in lexicographic order, and each
    side's values on it, 0.0 where that side stores none. The rows are sorted
    by coordinates, since row-major offsets overflow beyond 2^63 cells."""
    rows = np.concatenate((a.coords, b.coords))
    # lexsort's last key is its primary one, and it takes no empty key list
    order = np.lexsort(rows.T[::-1]) if a.order else np.arange(len(rows))
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    slot = np.cumsum(new) - 1
    x, y = np.zeros(np.count_nonzero(new)), np.zeros(np.count_nonzero(new))
    mine = order < a.nnz
    x[slot[mine]] = a.values[order[mine]]
    y[slot[~mine]] = b.values[order[~mine] - a.nnz]
    return rows[new], x, y
