"""Shared fixtures and helpers: reference networks, the worked witness,
random trees, the CSF and IR-text checks and the multiply-add count model
that only the tests use."""

from __future__ import annotations

import importlib.util
import random
import sys

import numpy as np
import pytest

from fusetree import ContractionTree, CsfTensor, ScheduleSolution, SparseTensor, build_tree, parse_network
from fusetree.bench import running_example_network
from fusetree.check import _letters
from fusetree.network import Contraction, TensorRef

GOLDEN_IR = """
forall(r, forall(j,
where(forall(k, forall(i, R(j, k, i) = Y(k, i) * D(r, j, k))),
       where(forall(q, forall(k, forall(i, Y(k, i) = X(q, i) * C(r, q, k)))),
        forall(p, forall(q, forall(i, X(q, i) = A(p, q, i) * B(r, j, p))))))))
"""

CHAIN_NETWORK = """
extent i 4
extent j 5
extent k 3
X[i,j] = A[i,k] * B[k,j]
R[i] = X[i,j] * V[j]
"""

MATMUL_NETWORK = """
extent i 2
extent j 2
extent k 2
R[i,j] = T[i,k] * S[k,j]
"""


def load_sibling(path: str, name: str):
    """The module file at ``path``, typically one of ``src/fusetree`` at
    another commit, loaded as ``name`` inside the installed ``fusetree``
    package, so that it shares that package's other modules."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def ir_text_equal(a: str, b: str) -> bool:
    """Structural comparison of two renderings, ignoring all whitespace."""
    strip = lambda s: "".join(s.split())
    return strip(a) == strip(b)


def permute(t: SparseTensor, perm) -> SparseTensor:
    """Reorder modes: mode k of the result is mode perm[k] of the input."""
    shape = tuple(t.shape[k] for k in perm)
    entries = sorted((tuple(c[k] for k in perm), v) for c, v in t.entries)
    return SparseTensor(shape, tuple(entries))


def csf_flatten(c: CsfTensor) -> SparseTensor:
    """Rebuild the coordinate list (in the permuted coordinate system)."""
    n = c.order
    if n == 0:
        return SparseTensor((), tuple(((), v) for v in c.values))
    entries: list[tuple[tuple[int, ...], float]] = []
    path = [0] * n

    def walk(level: int, lo: int, hi: int) -> None:
        for pos in range(lo, hi):
            path[level] = c.coords[level][pos]
            if level + 1 == n:
                entries.append((tuple(path), c.values[pos]))
            else:
                seg = c.segs[level + 1]  # brackets the children of each node at this level
                walk(level + 1, seg[pos], seg[pos + 1])

    walk(0, *c.segs[0])
    return SparseTensor(c.shape, tuple(entries))


def csf_check(c: CsfTensor) -> None:
    """Assert the structural CSF invariants; raises AssertionError on violation."""
    n = c.order
    assert len(c.coords) == n and len(c.segs) == max(n, 1)
    lo, hi = c.segs[0]
    assert lo == 0
    if n == 0:
        assert hi == len(c.values) <= 1
        return
    assert hi == len(c.coords[0])
    for d in range(n):
        seg = c.segs[d]
        assert all(seg[i] <= seg[i + 1] for i in range(len(seg) - 1))
        assert seg[0] == 0 and seg[-1] == len(c.coords[d])
        for i in range(len(seg) - 1):
            fiber = c.coords[d][seg[i] : seg[i + 1]]
            assert all(fiber[j] < fiber[j + 1] for j in range(len(fiber) - 1)), "fiber not strictly increasing"
    assert len(c.values) == len(c.coords[n - 1])


def chain_network(n: int, root_first: bool = False) -> str:
    """The chain ``Xk[a] = Xk-1[a] * Bk[a]`` of ``n`` contractions."""
    lines = [f"X{k}[a] = X{k - 1}[a] * B{k}[a]" for k in range(1, n + 1)]
    if root_first:
        lines.reverse()
    return "extent a 3\n" + "\n".join(lines) + "\n"


def chain_solution(tree: ContractionTree) -> ScheduleSolution:
    """The bound-1 schedule of a ``chain_network``: each link in turn, all
    under one loop over ``a``, so the links nest one ``where`` each."""
    return ScheduleSolution(
        bound=1,
        ap={c.cid: c.cid for c in tree.contractions},
        lp={c.cid: {"a": 0} for c in tree.contractions},
        dp={name: {0: 0} for name in tree.layout_constrained},
    )


@pytest.fixture
def running_tree() -> ContractionTree:
    """The four-tensor example with the root layout pinned to R(j,k,i)."""
    return parse_network(running_example_network(4))


@pytest.fixture
def running_tree_free() -> ContractionTree:
    """Same network with the root layout left to the solver."""
    text = running_example_network(4).replace("layout R j,k,i\n", "")
    return parse_network(text)


@pytest.fixture
def chain_tree() -> ContractionTree:
    return parse_network(CHAIN_NETWORK)


@pytest.fixture
def matmul_tree() -> ContractionTree:
    return parse_network(MATMUL_NETWORK)


def reference_witness() -> ScheduleSolution:
    """The fully worked schedule for the running example.

    Loop orders (r,j,p,q,i), (r,j,q,k,i), (r,j,k,i); layouts A(p,q,i),
    B(r,j,p), C(r,q,k), D(r,j,k), R(j,k,i).
    """
    return ScheduleSolution(
        bound=2,
        ap={0: 0, 1: 1, 2: 2},
        lp={
            0: {"i": 4, "j": 1, "p": 2, "q": 3, "r": 0},
            1: {"r": 0, "j": 1, "q": 2, "k": 3, "i": 4},
            2: {"r": 0, "j": 1, "k": 2, "i": 3},
        },
        dp={
            "A": {0: 2, 1: 0, 2: 1},
            "B": {0: 1, 1: 2, 2: 0},
            "C": {0: 2, 1: 1, 2: 0},
            "D": {0: 1, 1: 2, 2: 0},
            "R": {0: 2, 1: 0, 2: 1},
        },
    )


def random_tree(rng: random.Random, max_contractions: int = 3) -> ContractionTree:
    """Random small tree within the brute-force limits (m <= 3, |I| <= 5)."""
    while True:
        tree = _random_tree_once(rng, max_contractions)
        if all(len(c.index_set) <= 5 for c in tree.contractions):
            return tree


def shuffle_root(tree: ContractionTree, rng: random.Random) -> ContractionTree:
    """The tree with its root's result indices in an order drawn from ``rng``.

    ``random_tree`` writes every result's indices sorted; this leaves its
    draws alone and gives the tests roots in other declared orders too.
    """
    root = tree.root
    indices = list(root.result.indices)
    rng.shuffle(indices)
    top = Contraction(root.cid, TensorRef(root.result.tensor, tuple(indices)), root.lhs, root.rhs)
    contractions = [top if c.cid == root.cid else c for c in tree.contractions]
    return build_tree(contractions, tree.extents, tree.layouts)


def _random_tree_once(rng: random.Random, max_contractions: int) -> ContractionTree:
    letters = list("abcdefgh")
    extents = {name: rng.randint(2, 4) for name in letters}
    pool = list(letters)
    counter = 0

    def fresh_ref(prefix: str, max_order: int) -> TensorRef:
        nonlocal counter
        counter += 1
        k = rng.randint(1, min(max_order, len(pool)))
        return TensorRef(f"{prefix}{counter}", tuple(rng.sample(pool, k)))

    def make_contraction(
        cid: int,
        lhs: TensorRef,
        rhs: TensorRef,
        is_root: bool,
        keep_external: set[str] = frozenset(),
    ) -> Contraction:
        union = sorted(set(lhs.indices) | set(rhs.indices))
        forced = sorted(set(union) & keep_external)
        free = [i for i in union if i not in forced]
        low = 0 if is_root else max(0, 1 - len(forced))
        size = rng.randint(min(low, len(free)), len(free))
        result_idx = tuple(sorted(rng.sample(free, size) + forced))
        name = "R" if is_root else f"W{cid}"
        summed = set(union) - set(result_idx)
        for idx in summed:  # keep summed indices out of later references
            if idx in pool:
                pool.remove(idx)
        return Contraction(cid, TensorRef(name, result_idx), lhs, rhs)

    m = rng.randint(1, max_contractions)
    contractions: list[Contraction] = []
    if m == 1:
        contractions.append(make_contraction(0, fresh_ref("A", 3), fresh_ref("B", 2), True))
    elif m == 2:
        c0 = make_contraction(0, fresh_ref("A", 3), fresh_ref("B", 2), False)
        contractions.append(c0)
        contractions.append(make_contraction(1, c0.result, fresh_ref("C", 2), True))
    else:
        if rng.random() < 0.5:  # chain
            c0 = make_contraction(0, fresh_ref("A", 3), fresh_ref("B", 2), False)
            c1 = make_contraction(1, c0.result, fresh_ref("C", 2), False)
            contractions = [c0, c1, make_contraction(2, c1.result, fresh_ref("D", 2), True)]
        else:  # two children under the root
            c0 = make_contraction(0, fresh_ref("A", 2), fresh_ref("B", 2), False)
            lhs1, rhs1 = fresh_ref("C", 2), fresh_ref("D", 2)
            # indices shared with the sibling subtree must stay external
            sibling = set(c0.index_set)
            c1 = make_contraction(1, lhs1, rhs1, False, keep_external=sibling)
            contractions = [c0, c1, make_contraction(2, c0.result, c1.result, True)]
    used = {i for c in contractions for i in c.index_set}
    return build_tree(contractions, {k: v for k, v in extents.items() if k in used})


def nonzero_products(tree: ContractionTree, tensors) -> dict[str, int]:
    """Multiply-adds per result that a kernel performs: for each contraction,
    the points of its index space where both operands are non-zero.

    Intermediates are evaluated densely, children first, so the count holds
    when no sum of non-zero products cancels to exactly zero. As in the
    kernel, a zero factor skips its partner: a product with a zero factor adds
    nothing, so a zero facing inf or NaN leaves no NaN behind.
    """
    env = {name: tensors[name].to_dense() for name in tree.input_names}
    preorder = [tree.root.cid]
    for cid in preorder:
        preorder.extend(tree.children_of(cid))
    counts: dict[str, int] = {}
    for cid in reversed(preorder):
        c = tree.contractions[cid]
        axes = sorted(c.index_set)  # one axis per index of the contraction's space
        sub = _letters(axes)
        a, b = (_spread(env[ref.tensor], ref.indices, axes) for ref in (c.lhs, c.rhs))
        both = (a != 0) & (b != 0)
        count = int(both.sum())
        if count:
            counts[c.result.tensor] = count
        products = np.multiply(a, b, out=np.zeros(both.shape), where=both)
        space, out = ("".join(sub[i] for i in indices) for indices in (axes, c.result.indices))
        env[c.result.tensor] = np.einsum(f"{space}->{out}", products)
    return counts


def _spread(x: np.ndarray, indices: tuple[str, ...], axes: list[str]) -> np.ndarray:
    """``x``, whose modes are ``indices``, as an array over ``axes`` that
    broadcasts along the axes it lacks."""
    kept = [k for k in axes if k in indices]
    x = np.transpose(x, [indices.index(k) for k in kept])
    return x.reshape([x.shape[kept.index(k)] if k in indices else 1 for k in axes])
