"""Seeded inputs for the benchmark workloads.

Every input is drawn here with numpy's PCG64 generator, never with
``fusetree.bench``, so a change to the package's own generators cannot change
a workload. A workload is plain data: network texts plus coordinate lists.
The program sees only what the harness hands it through ``parse_network`` and
``coo_from_entries``.

Stored values are positive multiples of 1/8. Products and sums of such values
are exact in float64 at these sizes, so the fused result, the n-ary oracle and
the unfused oracle agree bit for bit; a mismatch is a real defect, never
rounding or cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Entries = tuple[tuple[tuple[int, ...], float], ...]


@dataclass(frozen=True)
class TensorSpec:
    shape: tuple[int, ...]
    entries: Entries


@dataclass(frozen=True)
class OpSpec:
    """One network and the tensors bound to its inputs."""

    label: str
    network: str
    inputs: tuple[tuple[str, str], ...]  # (input name in the network, tensor key)
    dense: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    tensors: dict[str, TensorSpec]
    ops: tuple[OpSpec, ...]
    tail_pct: float  # percentile reported as op_tail_s
    children: int  # extra fresh processes that sample setup_s and cold_pass_s
    check_minimal: bool = False  # brute_force_sat confirms each bound is minimal


WORKLOAD_IDS = {
    "factor_sweep": 1,
    "sparse_network": 2,
    "solver_chains": 3,
    "small_networks": 4,
    "solver_limits": 5,
}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload]])


def _values(rng: np.random.Generator, n: int) -> list[float]:
    return [float(v) for v in rng.integers(1, 17, size=n) / 8.0]


def sparse_tensor(rng: np.random.Generator, shape: tuple[int, ...], density: float) -> TensorSpec:
    """Exactly ``round(density * size)`` distinct coordinates (at least one)."""
    total = int(np.prod(shape))
    nnz = min(total, max(1, int(round(density * total))))
    flat = np.sort(rng.choice(total, size=nnz, replace=False))
    coords = np.stack(np.unravel_index(flat, shape), axis=-1)
    values = _values(rng, nnz)
    return TensorSpec(shape, tuple((tuple(int(c) for c in row), v) for row, v in zip(coords, values)))


def dense_tensor(rng: np.random.Generator, shape: tuple[int, ...]) -> TensorSpec:
    return sparse_tensor(rng, shape, 1.0)


def _extent_lines(extents: dict[str, int]) -> list[str]:
    return [f"extent {name} {extents[name]}" for name in sorted(extents)]


# ---------------------------------------------------------------------------
# factor_sweep: one CP-ALS and one Tucker sweep over a sparse order-3 tensor

_SWEEP_FORMS = {  # label: (contractions, rank indices, dense factors)
    "mttkrp1": (("W[i,k,r] = T[i,j,k] * B[j,r]", "A1[i,r] = W[i,k,r] * C[k,r]"), "r", "BC"),
    "mttkrp2": (("W[j,k,r] = T[i,j,k] * A[i,r]", "B1[j,r] = W[j,k,r] * C[k,r]"), "r", "AC"),
    "mttkrp3": (("W[j,k,r] = T[i,j,k] * A[i,r]", "C1[k,r] = W[j,k,r] * B[j,r]"), "r", "AB"),
    "ttmc1": (("W[i,k,y] = T[i,j,k] * B[j,y]", "A1[i,y,z] = W[i,k,y] * C[k,z]"), "yz", "BC"),
    "ttmc2": (("W[j,k,x] = T[i,j,k] * A[i,x]", "B1[j,x,z] = W[j,k,x] * C[k,z]"), "xz", "AC"),
    "ttmc3": (("W[j,k,x] = T[i,j,k] * A[i,x]", "C1[k,x,y] = W[j,k,x] * B[j,y]"), "xy", "AB"),
}


def factor_sweep(seed: int, smoke: bool = False) -> Workload:
    rng = _rng(seed, "factor_sweep")
    ni, nj, nk = (6, 8, 10) if smoke else (30, 40, 50)
    rank = 3 if smoke else 8
    density = 0.05 if smoke else 0.01
    tensors = {"T": sparse_tensor(rng, (ni, nj, nk), density)}
    for name, n in (("A", ni), ("B", nj), ("C", nk)):
        tensors[name] = dense_tensor(rng, (n, rank))
    ops = []
    for label, (lines, ranks, factors) in _SWEEP_FORMS.items():
        extents = {"i": ni, "j": nj, "k": nk} | {r: rank for r in ranks}
        text = "\n".join(_extent_lines(extents) + list(lines)) + "\n"
        inputs = (("T", "T"),) + tuple((f, f) for f in factors)
        ops.append(OpSpec(label, text, inputs, dense=tuple(factors)))
    return Workload("factor_sweep", tensors, tuple(ops), tail_pct=75.0, children=3)


# ---------------------------------------------------------------------------
# sparse_network: the four-tensor running example with every operand sparse


def running_example(n: int, pinned: bool) -> str:
    extents = {name: n for name in "ijkpqr"}
    lines = _extent_lines(extents)
    if pinned:
        lines.append("layout R j,k,i")
    lines += [
        "X[i,j,q,r] = A[i,p,q] * B[j,p,r]",
        "Y[i,j,k,r] = X[i,j,q,r] * C[k,q,r]",
        "R[i,j,k] = Y[i,j,k,r] * D[j,k,r]",
    ]
    return "\n".join(lines) + "\n"


def sparse_network(seed: int, smoke: bool = False) -> Workload:
    rng = _rng(seed, "sparse_network")
    sizes = ((4, 0.3), (5, 0.2)) if smoke else ((12, 0.1), (16, 0.05))
    tensors = {}
    for n, density in sizes:
        for name in "ABCD":
            tensors[f"{name}{n}"] = sparse_tensor(rng, (n, n, n), density)
    (n1, _), (n2, _) = sizes
    ops = []
    for label, n, pinned in (
        (f"running{n1}_pinned", n1, True),
        (f"running{n1}_free", n1, False),
        (f"running{n2}_pinned", n2, True),
    ):
        inputs = tuple((name, f"{name}{n}") for name in "ABCD")
        ops.append(OpSpec(label, running_example(n, pinned), inputs))
    return Workload("sparse_network", tensors, tuple(ops), tail_pct=75.0, children=3)


# ---------------------------------------------------------------------------
# solver_chains and solver_limits: TTMc chains X_t = X_{t-1} x_m U_m


def ttmc_chain(order: int, modes: list[int], pin: str | None = None, extent: int = 2) -> str:
    """Multiply mode ``modes[t]`` of an order-``order`` tensor at step t.

    ``pin`` is ``None`` (free result layout), ``"chain"`` (result modes in
    the order they were multiplied, untouched modes first) or ``"reverse"``
    (that order reversed).
    """
    names = [f"i{k}" for k in range(order)]
    extents = {name: extent for name in names} | {f"r{m}": extent for m in modes}
    lines = _extent_lines(extents)
    cur, prev = list(names), "T"
    for t, m in enumerate(modes):
        new = list(cur)
        new[m] = f"r{m}"
        out = "R" if t == len(modes) - 1 else f"X{t + 1}"
        lines.append(f"{out}[{','.join(new)}] = {prev}[{','.join(cur)}] * U{m}[i{m},r{m}]")
        cur, prev = new, out
    if pin is not None:
        untouched = [cur[k] for k in range(order) if k not in modes]
        layout = untouched + [f"r{m}" for m in modes]
        if pin == "reverse":
            layout.reverse()
        lines.insert(len(extents), f"layout R {','.join(layout)}")
    return "\n".join(lines) + "\n"


def _chain_op(label: str, order: int, modes: list[int], pin: str | None = None) -> OpSpec:
    inputs = (("T", f"T{order}"),) + tuple((f"U{m}", "U") for m in modes)
    return OpSpec(label, ttmc_chain(order, modes, pin), inputs, dense=tuple(f"U{m}" for m in modes))


def _chain_tensors(rng: np.random.Generator, orders: tuple[int, ...]) -> dict[str, TensorSpec]:
    tensors = {f"T{order}": sparse_tensor(rng, (2,) * order, 0.5) for order in orders}
    tensors["U"] = dense_tensor(rng, (2, 2))
    return tensors


def solver_chains(seed: int, smoke: bool = False) -> Workload:
    """Full chains on order 4 (free, chain pin, reverse pin) and order 5
    (free, the drawn order and its twin with the last two steps swapped),
    plus four-step chains on order 6. Every draw stays far below the solver's
    time budget; the order-6 full chain lives in solver_limits."""
    rng = _rng(seed, "solver_chains")
    n4, n5, n6 = (1, 1, 1) if smoke else (3, 1, 5)
    ops = []
    for k in range(n4):
        modes = [int(m) for m in rng.permutation(4)]
        for pin in (None, "chain", "reverse"):
            ops.append(_chain_op(f"o4_{k}_{pin or 'free'}", 4, modes, pin))
    for k in range(n5):
        modes = [int(m) for m in rng.permutation(5)]
        ops.append(_chain_op(f"o5_{k}", 5, modes))
        ops.append(_chain_op(f"o5_{k}_twin", 5, modes[:3] + modes[:2:-1]))
    for k in range(n6):
        modes = [int(m) for m in rng.permutation(6)[:4]]
        ops.append(_chain_op(f"o6_{k}_4step", 6, modes))
    # p70 falls among the order-5 and order-6 chains of similar cost, not on
    # the edge between them and the far slower reverse-pinned order-4 chains
    return Workload("solver_chains", _chain_tensors(rng, (4, 5, 6)), tuple(ops), tail_pct=70.0, children=3)


def solver_limits(seed: int, smoke: bool = False) -> Workload:
    """The full six-step chain on an order-6 tensor: its bound-3 proof does
    not finish within the solver's default budget, so the op fails with
    SolveTimeout. Diagnostic only; not a declared benchmark workload."""
    rng = _rng(seed, "solver_limits")
    order = 4 if smoke else 6
    modes = [int(m) for m in rng.permutation(order)]
    ops = (_chain_op("o6_full", order, modes),)
    return Workload("solver_limits", _chain_tensors(rng, (order,)), ops, tail_pct=50.0, children=0)


# ---------------------------------------------------------------------------
# small_networks: many distinct random trees within brute_force_sat limits

_LETTERS = "abcdefgh"


def _random_tree_text(rng: np.random.Generator, tag: int) -> tuple[str, list[tuple[str, tuple[str, ...]]]]:
    """A random valid tree with m <= 3 contractions.

    Returns the network text and the (name, indices) of each input, or an
    empty text when some contraction uses more than 5 indices.
    """
    extents = {name: int(rng.integers(2, 5)) for name in _LETTERS}
    pool = list(_LETTERS)
    leaves: list[tuple[str, tuple[str, ...]]] = []
    lines: list[str] = []
    widths: list[int] = []

    def leaf(prefix: str, max_order: int) -> tuple[str, tuple[str, ...]]:
        k = int(rng.integers(1, min(max_order, len(pool)) + 1))
        ref = (f"{prefix}{tag}", tuple(str(x) for x in rng.choice(pool, size=k, replace=False)))
        leaves.append(ref)
        return ref

    def contract(name, lhs, rhs, is_root, keep=frozenset()):
        union = sorted(set(lhs[1]) | set(rhs[1]))
        forced = sorted(set(union) & keep)
        free = [i for i in union if i not in forced]
        low = 0 if is_root else max(0, 1 - len(forced))
        size = int(rng.integers(min(low, len(free)), len(free) + 1))
        picked = [str(x) for x in rng.choice(free, size=size, replace=False)] if size else []
        result = tuple(sorted(picked + forced))
        for idx in set(union) - set(result):  # a summed index never reappears
            if idx in pool:
                pool.remove(idx)
        lines.append(f"{name}[{','.join(result)}] = {lhs[0]}[{','.join(lhs[1])}] * {rhs[0]}[{','.join(rhs[1])}]")
        widths.append(len(union))
        return (name, result), set(union)

    m = int(rng.integers(1, 4))
    if m == 1:
        contract("R", leaf("A", 3), leaf("B", 2), True)
    elif m == 2 or rng.random() < 0.5:  # chain
        res, _ = contract("W", leaf("A", 3), leaf("B", 2), False)
        if m == 3:
            res, _ = contract("V", res, leaf("C", 2), False)
        contract("R", res, leaf("D", 2), True)
    else:  # two children under the root
        left, left_indices = contract("W", leaf("A", 2), leaf("B", 2), False)
        # indices shared with the sibling subtree must stay in the result
        right, _ = contract("V", leaf("C", 2), leaf("D", 2), False, keep=left_indices)
        contract("R", left, right, True)
    if max(widths) > 5:
        return "", []
    used = sorted({i for _, idx in leaves for i in idx})
    text = "\n".join(_extent_lines({i: extents[i] for i in used}) + lines) + "\n"
    return text, leaves


def small_networks(seed: int, smoke: bool = False) -> Workload:
    rng = _rng(seed, "small_networks")
    count = 20 if smoke else 1000
    tensors: dict[str, TensorSpec] = {}
    ops = []
    while len(ops) < count:
        text, leaves = _random_tree_text(rng, len(ops))
        if not text:
            continue  # redraw: a contraction exceeded the brute-force index limit
        extents = dict(
            (fields[1], int(fields[2])) for fields in (line.split() for line in text.splitlines()) if fields[0] == "extent"
        )
        inputs = []
        for name, idx in leaves:
            tensors[name] = sparse_tensor(rng, tuple(extents[i] for i in idx), 0.5)
            inputs.append((name, name))
        ops.append(OpSpec(f"net{len(ops)}", text, tuple(inputs)))
    return Workload("small_networks", tensors, tuple(ops), tail_pct=99.0, children=3, check_minimal=True)


GENERATORS = {
    "factor_sweep": factor_sweep,
    "sparse_network": sparse_network,
    "solver_chains": solver_chains,
    "small_networks": small_networks,
    "solver_limits": solver_limits,
}
