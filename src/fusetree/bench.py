"""Synthetic desk-scale benchmark networks and input generators.

Kinds:

* ``mttkrp1|2|3`` — matricized-tensor-times-Khatri-Rao for each mode of an
  order-3 sparse tensor against two dense rank-r factor matrices.
* ``ttmc1|2|3`` — tensor-times-matrix chains for each mode (Tucker-style),
  dense factors.
* ``running_example`` — the four-tensor network R[i,j,k] = A*B*C*D used
  throughout the docs; its root layout is pinned to the canonical fused
  structure (see README, "Scheduling notes").
* ``masked_3term`` — three-tensor transform with an extra 0/1 mask leaf that
  restricts the result's sparsity; the mask product has no contraction index.

Binarization is fixed left to right: the sparse tensor combines with the
first factor, then the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidDensityError, InvalidExtentsError, InvalidSeedError, TooLargeError, UnknownKindError
from .network import ContractionTree, parse_network
from .tensor import SparseTensor, _check_shape

KINDS = (
    "mttkrp1",
    "mttkrp2",
    "mttkrp3",
    "ttmc1",
    "ttmc2",
    "ttmc3",
    "running_example",
    "masked_3term",
)


@dataclass(frozen=True)
class BenchInstance:
    kind: str
    network_text: str
    tree: ContractionTree
    tensors: Mapping[str, SparseTensor]
    dense_names: tuple[str, ...]


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator for ``seed``; a negative seed raises
    :class:`InvalidSeedError`."""
    if seed < 0:
        raise InvalidSeedError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def synthetic_tensor(
    shape: Sequence[int],
    density: float,
    rng: np.random.Generator,
    values01: bool = False,
) -> SparseTensor:
    """Uniform-random coordinates without replacement, values in [-1, 1].

    ``values01`` makes every stored value exactly 1.0 (0/1 mask tensors). A
    density that is not a finite number in [0, 1] raises
    :class:`InvalidDensityError`, and a shape of more cells than numpy can
    draw from, 2**63 - 1, :class:`TooLargeError`.
    """
    if not 0.0 <= density <= 1.0:
        raise InvalidDensityError(f"density must be a number in [0, 1], got {density}")
    shape = _check_shape([int(n) for n in shape])
    total = math.prod(shape)
    if total > np.iinfo(np.int64).max:
        raise TooLargeError(f"synthetic shape {shape} has {total} cells, more than numpy can draw from")
    nnz = int(round(density * total))
    if density > 0.0:
        nnz = max(nnz, 1)
    nnz = min(nnz, total)
    flat = rng.choice(total, size=nnz, replace=False)
    if values01:
        values = np.ones(nnz)
    else:
        values = rng.uniform(-1.0, 1.0, size=nnz)
        values[values == 0.0] = 0.5  # keep the requested fill
    # the offsets are distinct, and row-major ones sort as their coordinates
    order = np.argsort(flat)
    coords = np.stack(np.unravel_index(flat[order], shape), axis=-1) if shape else np.zeros((nnz, 0), int)
    return SparseTensor._trusted(shape, coords, values[order])


def _factor_lines(extmap: dict[str, int]) -> list[str]:
    return [f"extent {name} {extmap[name]}" for name in sorted(extmap)]


# per factor kind: the two contractions, W absorbing the first factor while
# the surviving tensor indices stay external, and the rank indices they use
_FACTOR_FORMS = {
    "mttkrp1": (("W[i,k,r] = T[i,j,k] * B[j,r]", "A1[i,r] = W[i,k,r] * C[k,r]"), "r"),
    "mttkrp2": (("W[j,k,r] = T[i,j,k] * A[i,r]", "B1[j,r] = W[j,k,r] * C[k,r]"), "r"),
    "mttkrp3": (("W[j,k,r] = T[i,j,k] * A[i,r]", "C1[k,r] = W[j,k,r] * B[j,r]"), "r"),
    "ttmc1": (("W[i,k,y] = T[i,j,k] * B[j,y]", "A1[i,y,z] = W[i,k,y] * C[k,z]"), "yz"),
    "ttmc2": (("W[j,k,x] = T[i,j,k] * A[i,x]", "B1[j,x,z] = W[j,k,x] * C[k,z]"), "xz"),
    "ttmc3": (("W[j,k,x] = T[i,j,k] * A[i,x]", "C1[k,x,y] = W[j,k,x] * B[j,y]"), "xy"),
}


def running_example_network(extent: int | Sequence[int] = 8) -> str:
    """Four-tensor chain with two order-4 intermediates.

    The root layout pin reproduces the canonical fused structure in which the
    two shared outer loops reduce both intermediates to matrices; without the
    pin the scheduler discovers an even deeper fusion (bound 1).
    """
    values = [extent] if isinstance(extent, int) else [int(n) for n in extent]
    names = ["i", "j", "k", "p", "q", "r"]
    ext = {name: values[pos % len(values)] for pos, name in enumerate(names)}
    lines = _factor_lines(ext)
    lines.append("layout R j,k,i")
    lines += [
        "X[i,j,q,r] = A[i,p,q] * B[j,p,r]",
        "Y[i,j,k,r] = X[i,j,q,r] * C[k,q,r]",
        "R[i,j,k] = Y[i,j,k,r] * D[j,k,r]",
    ]
    return "\n".join(lines) + "\n"


def _masked_network(extents: Sequence[int], rank: int) -> str:
    nK, nu, nv = extents
    ext = {"K": nK, "u": nu, "v": nv, "i": rank, "m": rank}
    lines = _factor_lines(ext) + [
        "W1[K,v,i] = I[K,u,v] * C[u,i]",
        "W2[K,i,m] = W1[K,v,i] * P[v,m]",
        "E[K,i,m] = W2[K,i,m] * L[K,i]",
    ]
    return "\n".join(lines) + "\n"


def bench_generate(
    kind: str,
    extents: Sequence[int] | int = (30, 40, 50),
    rank: int = 8,
    density: float = 0.01,
    seed: int = 0,
) -> BenchInstance:
    """Emit a network spec plus synthetic tensors for the requested kind.

    ``running_example`` cycles through any number of extents; every other
    kind takes three, or one int for all three, else
    :class:`InvalidExtentsError`.
    """
    rng = seeded_rng(seed)
    if kind in KINDS and kind != "running_example":
        if isinstance(extents, int):
            extents = (extents,) * 3
        if len(extents) != 3:
            raise InvalidExtentsError(f"kind '{kind}' takes 3 extents, got {len(extents)}")
    if kind in _FACTOR_FORMS:
        ni, nj, nk = (int(n) for n in extents)
        lines, ranks = _FACTOR_FORMS[kind]
        extmap = {"i": ni, "j": nj, "k": nk} | dict.fromkeys(ranks, rank)
        text = "\n".join(_factor_lines(extmap) + list(lines)) + "\n"
        tree = parse_network(text)
        tensors = {"T": synthetic_tensor((ni, nj, nk), density, rng)}
        dense = []
        for name in tree.input_names:
            if name == "T":
                continue
            shape = tree.ref_shape(tree.abstract_ref(name))
            tensors[name] = synthetic_tensor(shape, 1.0, rng)
            dense.append(name)
        return BenchInstance(kind, text, tree, tensors, tuple(dense))

    if kind == "running_example":
        text = running_example_network(extents if isinstance(extents, int) else list(extents))
        tree = parse_network(text)
        tensors = {
            name: synthetic_tensor(tree.ref_shape(tree.abstract_ref(name)), density, rng)
            for name in tree.input_names
        }
        return BenchInstance(kind, text, tree, tensors, ())

    if kind == "masked_3term":
        text = _masked_network(tuple(int(n) for n in extents), rank)
        tree = parse_network(text)
        tensors = {
            "I": synthetic_tensor(tree.ref_shape(tree.abstract_ref("I")), density, rng),
            "C": synthetic_tensor(tree.ref_shape(tree.abstract_ref("C")), 1.0, rng),
            "P": synthetic_tensor(tree.ref_shape(tree.abstract_ref("P")), 1.0, rng),
            "L": synthetic_tensor(
                tree.ref_shape(tree.abstract_ref("L")), 0.5, rng, values01=True
            ),
        }
        return BenchInstance(kind, text, tree, tensors, ("C", "P"))

    raise UnknownKindError(f"unknown bench kind '{kind}'; choose from {', '.join(KINDS)}")
