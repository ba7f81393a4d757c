"""Differential tests of the compiled kernel against the dense oracles.

The expected multiply-add counts were produced by the recursive scalar
interpreter this kernel replaced, so they pin its counting semantics exactly.
Further tests pin the shape of the generated source (intersection, union,
touched workspace cells, hoisted loads) and the corner cases of each, the
dict accumulator of large roots, and zeros that annihilate inf and NaN.
"""

from __future__ import annotations

import random
import re
import sys
import threading
from typing import Sequence

import numpy as np
import pytest

from fusetree import (
    ScheduleSolution,
    bind,
    build_tree,
    compare,
    coo_from_entries,
    execute,
    lower,
    oracle_nary,
    oracle_unfused,
    parse_network,
    search_min_order,
    solve,
    verify_solution,
)
from fusetree.bench import bench_generate, synthetic_tensor
from fusetree.executor import _Kernel
from fusetree.network import Contraction
from fusetree.tensor import SparseTensor
from conftest import nonzero_products, random_tree

MODES = ("sparse", "mixed", "dense", "zero", "single")
SEEDS = range(16)

# (seed, mode, bound kind) -> (multiply_adds, per_assignment), recorded from
# the interpreter at the same schedules and inputs
EXPECTED = {
    (0, 'sparse', 'min'): (0, {}),
    (0, 'sparse', 'trivial'): (0, {}),
    (0, 'mixed', 'min'): (4, {'R': 3, 'W0': 1}),
    (0, 'mixed', 'trivial'): (4, {'R': 3, 'W0': 1}),
    (0, 'dense', 'min'): (39, {'R': 27, 'W0': 12}),
    (0, 'dense', 'trivial'): (39, {'R': 27, 'W0': 12}),
    (0, 'zero', 'min'): (0, {}),
    (0, 'zero', 'trivial'): (0, {}),
    (0, 'single', 'min'): (2, {'R': 1, 'W0': 1}),
    (0, 'single', 'trivial'): (2, {'R': 1, 'W0': 1}),
    (1, 'sparse', 'min'): (5, {'R': 1, 'W0': 2, 'W1': 2}),
    (1, 'sparse', 'trivial'): (5, {'R': 1, 'W0': 2, 'W1': 2}),
    (1, 'mixed', 'min'): (8, {'R': 1, 'W0': 3, 'W1': 4}),
    (1, 'mixed', 'trivial'): (8, {'R': 1, 'W0': 3, 'W1': 4}),
    (1, 'dense', 'min'): (80, {'R': 8, 'W0': 24, 'W1': 48}),
    (1, 'dense', 'trivial'): (80, {'R': 8, 'W0': 24, 'W1': 48}),
    (1, 'zero', 'min'): (0, {}),
    (1, 'zero', 'trivial'): (0, {}),
    (1, 'single', 'min'): (3, {'R': 1, 'W0': 1, 'W1': 1}),
    (1, 'single', 'trivial'): (3, {'R': 1, 'W0': 1, 'W1': 1}),
    (2, 'sparse', 'min'): (6, {'R': 2, 'W0': 4}),
    (2, 'sparse', 'trivial'): (6, {'R': 2, 'W0': 4}),
    (2, 'mixed', 'min'): (12, {'R': 4, 'W0': 8}),
    (2, 'mixed', 'trivial'): (12, {'R': 4, 'W0': 8}),
    (2, 'dense', 'min'): (96, {'R': 48, 'W0': 48}),
    (2, 'dense', 'trivial'): (96, {'R': 48, 'W0': 48}),
    (2, 'zero', 'min'): (0, {}),
    (2, 'zero', 'trivial'): (0, {}),
    (2, 'single', 'min'): (2, {'R': 1, 'W0': 1}),
    (2, 'single', 'trivial'): (2, {'R': 1, 'W0': 1}),
    (3, 'sparse', 'min'): (6, {'R': 2, 'W0': 2, 'W1': 2}),
    (3, 'sparse', 'trivial'): (6, {'R': 2, 'W0': 2, 'W1': 2}),
    (3, 'mixed', 'min'): (13, {'R': 6, 'W0': 4, 'W1': 3}),
    (3, 'mixed', 'trivial'): (13, {'R': 6, 'W0': 4, 'W1': 3}),
    (3, 'dense', 'min'): (192, {'R': 128, 'W0': 32, 'W1': 32}),
    (3, 'dense', 'trivial'): (192, {'R': 128, 'W0': 32, 'W1': 32}),
    (3, 'zero', 'min'): (0, {}),
    (3, 'zero', 'trivial'): (0, {}),
    (3, 'single', 'min'): (1, {'W0': 1}),
    (3, 'single', 'trivial'): (1, {'W0': 1}),
    (4, 'sparse', 'min'): (2, {'R': 2}),
    (4, 'sparse', 'trivial'): (2, {'R': 2}),
    (4, 'mixed', 'min'): (3, {'R': 3}),
    (4, 'mixed', 'trivial'): (3, {'R': 3}),
    (4, 'dense', 'min'): (12, {'R': 12}),
    (4, 'dense', 'trivial'): (12, {'R': 12}),
    (4, 'zero', 'min'): (0, {}),
    (4, 'zero', 'trivial'): (0, {}),
    (4, 'single', 'min'): (1, {'R': 1}),
    (4, 'single', 'trivial'): (1, {'R': 1}),
    (5, 'sparse', 'min'): (4, {'R': 4}),
    (5, 'sparse', 'trivial'): (4, {'R': 4}),
    (5, 'mixed', 'min'): (8, {'R': 8}),
    (5, 'mixed', 'trivial'): (8, {'R': 8}),
    (5, 'dense', 'min'): (48, {'R': 48}),
    (5, 'dense', 'trivial'): (48, {'R': 48}),
    (5, 'zero', 'min'): (0, {}),
    (5, 'zero', 'trivial'): (0, {}),
    (5, 'single', 'min'): (1, {'R': 1}),
    (5, 'single', 'trivial'): (1, {'R': 1}),
    (6, 'sparse', 'min'): (22, {'R': 4, 'W0': 14, 'W1': 4}),
    (6, 'sparse', 'trivial'): (22, {'R': 4, 'W0': 14, 'W1': 4}),
    (6, 'mixed', 'min'): (38, {'R': 6, 'W0': 28, 'W1': 4}),
    (6, 'mixed', 'trivial'): (38, {'R': 6, 'W0': 28, 'W1': 4}),
    (6, 'dense', 'min'): (224, {'R': 24, 'W0': 192, 'W1': 8}),
    (6, 'dense', 'trivial'): (224, {'R': 24, 'W0': 192, 'W1': 8}),
    (6, 'zero', 'min'): (0, {}),
    (6, 'zero', 'trivial'): (0, {}),
    (6, 'single', 'min'): (3, {'R': 1, 'W0': 1, 'W1': 1}),
    (6, 'single', 'trivial'): (3, {'R': 1, 'W0': 1, 'W1': 1}),
    (7, 'sparse', 'min'): (2, {'R': 1, 'W0': 1}),
    (7, 'sparse', 'trivial'): (2, {'R': 1, 'W0': 1}),
    (7, 'mixed', 'min'): (2, {'R': 1, 'W0': 1}),
    (7, 'mixed', 'trivial'): (2, {'R': 1, 'W0': 1}),
    (7, 'dense', 'min'): (18, {'R': 6, 'W0': 12}),
    (7, 'dense', 'trivial'): (18, {'R': 6, 'W0': 12}),
    (7, 'zero', 'min'): (0, {}),
    (7, 'zero', 'trivial'): (0, {}),
    (7, 'single', 'min'): (2, {'R': 1, 'W0': 1}),
    (7, 'single', 'trivial'): (2, {'R': 1, 'W0': 1}),
    (8, 'sparse', 'min'): (1, {'R': 1}),
    (8, 'sparse', 'trivial'): (1, {'R': 1}),
    (8, 'mixed', 'min'): (2, {'R': 2}),
    (8, 'mixed', 'trivial'): (2, {'R': 2}),
    (8, 'dense', 'min'): (4, {'R': 4}),
    (8, 'dense', 'trivial'): (4, {'R': 4}),
    (8, 'zero', 'min'): (0, {}),
    (8, 'zero', 'trivial'): (0, {}),
    (8, 'single', 'min'): (1, {'R': 1}),
    (8, 'single', 'trivial'): (1, {'R': 1}),
    (9, 'sparse', 'min'): (6, {'R': 3, 'W0': 3}),
    (9, 'sparse', 'trivial'): (6, {'R': 3, 'W0': 3}),
    (9, 'mixed', 'min'): (12, {'R': 6, 'W0': 6}),
    (9, 'mixed', 'trivial'): (12, {'R': 6, 'W0': 6}),
    (9, 'dense', 'min'): (96, {'R': 72, 'W0': 24}),
    (9, 'dense', 'trivial'): (96, {'R': 72, 'W0': 24}),
    (9, 'zero', 'min'): (0, {}),
    (9, 'zero', 'trivial'): (0, {}),
    (9, 'single', 'min'): (0, {}),
    (9, 'single', 'trivial'): (0, {}),
    (10, 'sparse', 'min'): (3, {'R': 1, 'W0': 2}),
    (10, 'sparse', 'trivial'): (3, {'R': 1, 'W0': 2}),
    (10, 'mixed', 'min'): (7, {'R': 1, 'W0': 6}),
    (10, 'mixed', 'trivial'): (7, {'R': 1, 'W0': 6}),
    (10, 'dense', 'min'): (28, {'R': 4, 'W0': 24}),
    (10, 'dense', 'trivial'): (28, {'R': 4, 'W0': 24}),
    (10, 'zero', 'min'): (0, {}),
    (10, 'zero', 'trivial'): (0, {}),
    (10, 'single', 'min'): (2, {'R': 1, 'W0': 1}),
    (10, 'single', 'trivial'): (2, {'R': 1, 'W0': 1}),
    (11, 'sparse', 'min'): (5, {'R': 1, 'W0': 2, 'W1': 2}),
    (11, 'sparse', 'trivial'): (5, {'R': 1, 'W0': 2, 'W1': 2}),
    (11, 'mixed', 'min'): (13, {'R': 2, 'W0': 4, 'W1': 7}),
    (11, 'mixed', 'trivial'): (13, {'R': 2, 'W0': 4, 'W1': 7}),
    (11, 'dense', 'min'): (138, {'R': 3, 'W0': 27, 'W1': 108}),
    (11, 'dense', 'trivial'): (138, {'R': 3, 'W0': 27, 'W1': 108}),
    (11, 'zero', 'min'): (0, {}),
    (11, 'zero', 'trivial'): (0, {}),
    (11, 'single', 'min'): (1, {'W0': 1}),
    (11, 'single', 'trivial'): (1, {'W0': 1}),
    (12, 'sparse', 'min'): (20, {'R': 20}),
    (12, 'sparse', 'trivial'): (20, {'R': 20}),
    (12, 'mixed', 'min'): (32, {'R': 32}),
    (12, 'mixed', 'trivial'): (32, {'R': 32}),
    (12, 'dense', 'min'): (192, {'R': 192}),
    (12, 'dense', 'trivial'): (192, {'R': 192}),
    (12, 'zero', 'min'): (0, {}),
    (12, 'zero', 'trivial'): (0, {}),
    (12, 'single', 'min'): (1, {'R': 1}),
    (12, 'single', 'trivial'): (1, {'R': 1}),
    (13, 'sparse', 'min'): (1, {'R': 1}),
    (13, 'sparse', 'trivial'): (1, {'R': 1}),
    (13, 'mixed', 'min'): (2, {'R': 2}),
    (13, 'mixed', 'trivial'): (2, {'R': 2}),
    (13, 'dense', 'min'): (12, {'R': 12}),
    (13, 'dense', 'trivial'): (12, {'R': 12}),
    (13, 'zero', 'min'): (0, {}),
    (13, 'zero', 'trivial'): (0, {}),
    (13, 'single', 'min'): (1, {'R': 1}),
    (13, 'single', 'trivial'): (1, {'R': 1}),
    (14, 'sparse', 'min'): (20, {'R': 10, 'W0': 10}),
    (14, 'sparse', 'trivial'): (20, {'R': 10, 'W0': 10}),
    (14, 'mixed', 'min'): (32, {'R': 16, 'W0': 16}),
    (14, 'mixed', 'trivial'): (32, {'R': 16, 'W0': 16}),
    (14, 'dense', 'min'): (512, {'R': 384, 'W0': 128}),
    (14, 'dense', 'trivial'): (512, {'R': 384, 'W0': 128}),
    (14, 'zero', 'min'): (0, {}),
    (14, 'zero', 'trivial'): (0, {}),
    (14, 'single', 'min'): (2, {'R': 1, 'W0': 1}),
    (14, 'single', 'trivial'): (2, {'R': 1, 'W0': 1}),
    (15, 'sparse', 'min'): (10, {'R': 10}),
    (15, 'sparse', 'trivial'): (10, {'R': 10}),
    (15, 'mixed', 'min'): (20, {'R': 20}),
    (15, 'mixed', 'trivial'): (20, {'R': 20}),
    (15, 'dense', 'min'): (128, {'R': 128}),
    (15, 'dense', 'trivial'): (128, {'R': 128}),
    (15, 'zero', 'min'): (0, {}),
    (15, 'zero', 'trivial'): (0, {}),
    (15, 'single', 'min'): (1, {'R': 1}),
    (15, 'single', 'trivial'): (1, {'R': 1}),
}


def _inputs(tree, mode: str, seed: int):
    nprng = np.random.default_rng(1000 + seed)
    tensors, dense = {}, []
    for k, name in enumerate(tree.input_names):
        shape = tree.ref_shape(tree.abstract_ref(name))
        if mode == "single":
            tensors[name] = synthetic_tensor(shape, 1e-9, nprng)
        elif mode == "dense" or (mode == "mixed" and k % 2):
            tensors[name] = synthetic_tensor(shape, 1.0 if mode == "dense" else 0.5, nprng)
            dense.append(name)
        else:
            tensors[name] = synthetic_tensor(shape, 0.3, nprng)
    if mode == "zero":
        first = tree.input_names[0]
        tensors[first] = coo_from_entries([], tensors[first].shape)
    return tensors, tuple(dense)


def _schedules(tree):
    bound, sol = search_min_order(tree)
    yield "min", sol
    trivial = max((len(tree.abstract_ref(n).indices) for n in tree.intermediate_names), default=1)
    yield "trivial", solve(tree, max(trivial, 1))


def _run_case(seed: int, mode: str):
    tree = random_tree(random.Random(seed))
    tensors, dense = _inputs(tree, mode, seed)
    ref = oracle_nary(tree, tensors)
    unfused, _ = oracle_unfused(tree, tensors)
    for kind, sol in _schedules(tree):
        result, stats = execute(lower(tree, sol), bind(tree, sol, tensors, dense))
        yield kind, tree, result, stats, ref, unfused


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_oracles_and_interpreter_counts(seed, mode):
    for kind, tree, result, stats, ref, unfused in _run_case(seed, mode):
        assert compare(result, ref, rel_tol=1e-10).passed, (kind, tree)
        assert compare(result, unfused, rel_tol=1e-10).passed, (kind, tree)
        assert (stats.multiply_adds, stats.per_assignment) == EXPECTED[seed, mode, kind]


def _consumer_first(tree, rng: random.Random):
    """The same tree re-listed in shuffled order with the root first."""
    listed = list(tree.contractions)
    rng.shuffle(listed)
    listed.sort(key=lambda c: c is not tree.root)
    relisted = [Contraction(k, c.result, c.lhs, c.rhs) for k, c in enumerate(listed)]
    return build_tree(relisted, tree.extents, tree.layouts)


@pytest.mark.parametrize("mode", ("sparse", "mixed"))
@pytest.mark.parametrize("seed", SEEDS)
def test_consumer_first_listing_schedules_and_runs(seed, mode):
    tree = random_tree(random.Random(seed))
    relisted = _consumer_first(tree, random.Random(seed))
    assert relisted.root.cid == 0
    bound, sol = search_min_order(relisted)
    assert bound == search_min_order(tree)[0]
    assert verify_solution(relisted, bound, sol) == []
    tensors, dense = _inputs(tree, mode, seed)
    result, _ = execute(lower(relisted, sol), bind(relisted, sol, tensors, dense))
    assert compare(result, oracle_nary(relisted, tensors), rel_tol=1e-10).passed
    assert compare(result, oracle_unfused(relisted, tensors)[0], rel_tol=1e-10).passed


def test_network_names_are_never_spliced_into_source():
    text = (
        "extent i' 3\nextent for 2\nextent in 4\nextent acc 2\n"
        "acc[i',in] = for[i',for] * in[for,in]\n"
        "kernel[i',acc] = acc[i',in] * range[in,acc]\n"
    )
    tree = parse_network(text)
    nprng = np.random.default_rng(7)
    tensors = {
        name: synthetic_tensor(tree.ref_shape(tree.abstract_ref(name)), 0.6, nprng)
        for name in tree.input_names
    }
    bound, sol = search_min_order(tree)
    result, stats = execute(lower(tree, sol), bind(tree, sol, tensors, ("range",)))
    assert compare(result, oracle_nary(tree, tensors), rel_tol=1e-10).passed
    assert stats.multiply_adds > 0


def test_concurrent_calls_share_nothing():
    inst = bench_generate("running_example", extents=5, density=0.4, seed=3)
    bound, sol = search_min_order(inst.tree)
    ir = lower(inst.tree, sol)
    binding = bind(inst.tree, sol, inst.tensors, ())
    want = execute(ir, binding)
    outcomes = []

    def worker():
        for _ in range(3):
            outcomes.append(execute(ir, binding))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(outcomes) == 12
    for result, stats in outcomes:
        assert result == want[0]
        assert stats == want[1]


# ---------------------------------------------------------------------------
# generated source and its corner cases

MATMUL = "extent i 3\nextent k 4\nextent j 2\nR[i,j] = T[i,k] * S[k,j]\n"

# W is an order-1 workspace the consumer reads in an innermost full-range loop
TOUCHED = (
    "extent r 2\nextent j 3\nextent i 3\n"
    "W[r,i] = A[j,i] * B[r,j]\n"
    "R[r] = W[r,i] * V[i]\n"
)


def _tensor(shape, entries):
    return coo_from_entries(list(entries.items()), shape)


def _zero_rows(t: SparseTensor, rows) -> SparseTensor:
    return SparseTensor(t.shape, tuple((c, v) for c, v in t.entries if c[0] not in rows))


def _plan(text, tensors, dense=()):
    tree = parse_network(text)
    bound, sol = search_min_order(tree)
    return tree, lower(tree, sol), bind(tree, sol, tensors, dense)


def _source(text, tensors, dense=()):
    _, ir, binding = _plan(text, tensors, dense)
    return _Kernel(ir, binding).source()


def _check(tree, sol, tensors, dense=()):
    """Execute one schedule: its result must match both oracles, and its
    multiply-adds the count of non-zero operand pairs."""
    assert verify_solution(tree, sol.bound, sol) == []
    result, stats = execute(lower(tree, sol), bind(tree, sol, tensors, dense))
    assert compare(result, oracle_nary(tree, tensors), rel_tol=1e-10).passed
    assert compare(result, oracle_unfused(tree, tensors)[0], rel_tol=1e-10).passed
    assert stats.per_assignment == nonzero_products(tree, tensors)
    return result, stats


def _run(text, tensors, dense=()):
    tree = parse_network(text)
    return _check(tree, search_min_order(tree)[1], tensors, dense)


def _matmul_inputs(s_entries):
    t = _tensor((3, 4), {(0, 0): 1.0, (0, 2): 2.0, (0, 3): 7.0, (1, 1): 3.0, (2, 2): 4.0})
    return {"T": t, "S": _tensor((4, 2), s_entries)}


def test_single_statement_loop_intersects():
    source = _source(MATMUL, _matmul_inputs({(1, 0): 5.0}))
    assert "sorted({" not in source
    assert "continue" in source


def test_loop_shared_by_a_where_keeps_its_union():
    inst = bench_generate("running_example", extents=4, density=0.3, seed=1)
    assert "sorted({" in _source(inst.network_text, inst.tensors)


def test_ttmc_consumer_iterates_touched_cells():
    inst = bench_generate("ttmc1", extents=(4, 5, 6), rank=2, density=0.3, seed=1)
    source = _source(inst.network_text, inst.tensors, inst.dense_names)
    assert re.search(r"for x\d+ in tw\d+:", source)
    assert re.search(r"tw\d+\.sort\(\)", source)


def test_operand_absent_under_an_intersection():
    # T's k = 0 is missing from S (a miss), k = 3 lies past S's last k (the
    # rest of the fiber is skipped), and an empty S matches nothing
    tensors = _matmul_inputs({(1, 0): 5.0, (2, 1): 6.0})
    result, stats = _run(MATMUL, tensors)
    assert result.entries == (((0, 1), 12.0), ((1, 0), 15.0), ((2, 1), 24.0))
    assert stats.multiply_adds == 3
    result, stats = _run(MATMUL, _matmul_inputs({}))
    assert result.entries == () and stats.multiply_adds == 0


def test_absent_parent_under_an_intersection():
    # B lacks most (r, j) fibers that C and D carry, so the intersected loop
    # under the shared union loops often has no parent position; D lacks
    # whole r slices
    inst = bench_generate("running_example", extents=4, density=0.5, seed=2)
    tensors = dict(inst.tensors)
    tensors["B"] = _tensor((4, 4, 4), {(1, 2, 3): 0.5, (3, 0, 1): -2.0})
    tensors["D"] = _zero_rows(tensors["D"], {0, 2})
    _run(inst.network_text, tensors)


def _touched_inputs():
    a = {(j, i): 1.0 for j, i in ((0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))}
    b = {(0, 0): 1.0, (0, 1): -1.0, (0, 2): 3.0, (1, 0): 2.0, (1, 1): -1.0}
    v = _tensor((3,), {(0,): 5.0, (1,): 7.0, (2,): 11.0})
    return {"A": _tensor((3, 3), a), "B": _tensor((2, 3), b), "V": v}


def test_touched_cells_cancel_and_rewrite():
    # r = 0: W(0) goes 1 -> 0 -> 3 and is visited once; W(2) cancels to
    # exactly 0 and counts nothing. r = 1 rewrites cells r = 0 touched.
    source = _source(TOUCHED, _touched_inputs(), ("V",))
    assert re.search(r"for x\d+ in tw0:", source)
    result, stats = _run(TOUCHED, _touched_inputs(), ("V",))
    assert result.entries == (((0,), 36.0), ((1,), 16.0))
    assert stats.per_assignment == {"W": 10, "R": 4}


def test_touched_cells_keep_full_range_order():
    # the producer writes W(2), W(0), W(1); summed in ascending order
    # (1e16 + 1) - 1e16 rounds to exactly 0, in write order it is 1
    network = "extent i 3\nextent j 3\nW[i] = A[j,i] * B[j]\nR[] = W[i] * V[i]\n"
    tensors = {
        "A": _tensor((3, 3), {(0, 2): 1.0, (1, 0): 1.0, (2, 1): 1.0}),
        "B": _tensor((3,), {(0,): -1e16, (1,): 1e16, (2,): 1.0}),
        "V": _tensor((3,), {(0,): 1.0, (1,): 1.0, (2,): 1.0}),
    }
    assert re.search(r"for x\d+ in tw0:", _source(network, tensors, ("V",)))
    tree, ir, binding = _plan(network, tensors, ("V",))
    result, stats = execute(ir, binding)
    assert result == SparseTensor((), ())
    assert stats.per_assignment == {"W": 3, "R": 3}


def test_order_zero_root():
    network = "extent i 3\nextent j 2\nR[] = A[i,j] * B[i,j]\n"
    a = _tensor((3, 2), {(0, 0): 1.5, (1, 1): 2.0, (2, 0): -1.0})
    b = {(0, 0): 2.0, (1, 0): 5.0, (2, 0): 4.0, (2, 1): 9.0}
    result, stats = _run(network, {"A": a, "B": _tensor((3, 2), b)})
    assert result == SparseTensor((), (((), -1.0),))
    assert stats.multiply_adds == 2
    b[2, 0] = 3.0  # the two products cancel exactly
    result, _ = _run(network, {"A": a, "B": _tensor((3, 2), b)})
    assert result == SparseTensor((), ())


# ---------------------------------------------------------------------------
# hoisted factors and offsets, the dense root and its dict fallback


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _line(lines, pattern: str) -> int:
    """Index of the only line matching ``pattern``."""
    found = [k for k, line in enumerate(lines) if re.search(pattern, line)]
    assert len(found) == 1, (pattern, found)
    return found[0]


# the producer's factor never varies with its innermost loop, nor does the
# consumer's in mttkrp1 and ttmc1; in mttkrp3 and ttmc3 it does
@pytest.mark.parametrize(
    "kind, updates",
    [
        ("mttkrp1", (r"w0\[.*\] \+= f \* g", r"acc\[.*\] \+= f \* g")),
        ("mttkrp3", (r"w0\[.*\] \+= f \* g",)),
        ("ttmc1", (r"w0\[.*\] \+= f \* g", r"acc\[.*\] \+= f \* g")),
        ("ttmc3", (r"w0\[.*\] \+= f \* g",)),
    ],
)
def test_dense_factors_are_loaded_outside_their_innermost_loop(kind, updates):
    inst = bench_generate(kind, extents=(4, 5, 6), rank=2, density=0.3, seed=1)
    lines = _source(inst.network_text, inst.tensors, inst.dense_names).splitlines()
    for n, update in enumerate(updates):
        # the dense factor of statement n is loaded, and tested for zero,
        # outside the innermost loop around its update
        load = _line(lines, r"^\s*g = d%d\[" % n)
        assert lines[load + 1].strip() == "if g:"
        inner = max(k for k in range(_line(lines, update)) if lines[k].lstrip().startswith("for "))
        assert load < inner and _indent(lines[load]) <= _indent(lines[inner])


def test_consumer_factor_stays_below_its_where():
    # C(r,k) is fixed once the where-shared k loop binds k, but it is loaded
    # in the consumer, after the producer filled W, just before the loop over
    # W's cells: a zero C(r,k) skips the consumer, never the producer
    inst = bench_generate("mttkrp1", extents=(4, 5, 6), rank=2, density=0.3, seed=1)
    lines = _source(inst.network_text, inst.tensors, inst.dense_names).splitlines()
    load = _line(lines, r"^\s*g = d1\[")
    assert lines[load - 1].strip() == "tw0.sort()"
    assert re.fullmatch(r"\s*for x\d+ in tw0:", lines[load + 2])
    assert _line(lines, r"w0\[:\] = zw0") < _line(lines, r"w0\[x\d+\] \+= f \* g") < load


@pytest.mark.parametrize("kind", ("mttkrp1", "mttkrp2", "mttkrp3", "ttmc1", "ttmc2", "ttmc3"))
def test_zero_rows_in_dense_factors(kind):
    inst = bench_generate(kind, extents=(5, 6, 7), rank=3, density=0.3, seed=4)
    tensors = dict(inst.tensors)
    for k, name in enumerate(inst.dense_names):
        tensors[name] = _zero_rows(tensors[name], {k, k + 2})
    bound, sol = search_min_order(inst.tree)
    _check(inst.tree, sol, tensors, inst.dense_names)


def _pinned(text: str, loops: Sequence[str]):
    """``text`` scheduled by hand at bound 1: contraction k comes k-th and
    runs its loops in the order ``loops[k]``, and every layout keeps its
    declared mode order."""
    tree = parse_network(text)
    dp = {name: {j: j for j in range(len(tree.abstract_ref(name).indices))} for name in tree.layout_constrained}
    lp = {k: {x: pos for pos, x in enumerate(order)} for k, order in enumerate(loops)}
    sol = ScheduleSolution(1, {k: k for k in range(len(loops))}, lp, dp)
    assert verify_solution(tree, 1, sol) == []
    return tree, sol


# the where shares the i loop, so the consumer finds C(i) by bisection in the
# union of A's and C's rows; C(i) is loaded before the loop over W's cells
GUARDED = "extent i 4\nextent j 3\nextent k 3\nW[i,j] = A[i,k] * B[k,j]\nR[i,j] = W[i,j] * C[i]\n"


def test_hoisted_csf_load_keeps_its_guard():
    tree, sol = _pinned(GUARDED, ("ikj", "ij"))
    # C lacks rows 0 and 2, which A carries, and A lacks row 3
    a = _tensor((4, 3), {(0, 1): 2.0, (1, 0): -1.0, (1, 2): 3.0, (2, 2): 5.0})
    tensors = {"A": a, "B": synthetic_tensor((3, 3), 0.6, np.random.default_rng(5)),
               "C": _tensor((4,), {(1,): 2.0, (3,): -3.0})}
    lines = _Kernel(lower(tree, sol), bind(tree, sol, tensors)).source().splitlines()
    load = _line(lines, r"^\s*g = v2\[p2_0\]")
    assert lines[load - 1].strip() == "if p2_0 >= 0:"
    assert re.fullmatch(r"\s*for x\d+ in tw0:", lines[load + 3])
    _check(tree, sol, tensors)


def test_dict_root_matches_the_dense_root(monkeypatch):
    import fusetree.executor as executor

    dense = {
        (seed, mode, kind): (result, stats)
        for seed in SEEDS
        for mode in MODES
        for kind, _, result, stats, _, _ in _run_case(seed, mode)
    }
    monkeypatch.setattr(executor, "ROOT_DENSE_CELLS", 0)
    for seed in SEEDS:
        for mode in MODES:
            for kind, tree, result, stats, _, _ in _run_case(seed, mode):
                assert (result, stats) == dense[seed, mode, kind], (seed, mode, kind)
    _, ir, binding = _plan(MATMUL, _matmul_inputs({(1, 0): 5.0}))
    assert _Kernel(ir, binding).params["newacc"]() == {}


# ---------------------------------------------------------------------------
# annihilating zeros: an exactly-zero factor skips its partner, inf and NaN too

INF, NAN = float("inf"), float("nan")
ROW = "extent i 2\nextent j 3\nR[i,j] = A[i] * B[i,j]\n"


def _annihilate(a_values, b_entries):
    """ROW with A dense, its load hoisted out of the j loop, and B sparse,
    possibly storing exact zeros; the fused result and the n-ary oracle's."""
    tree, sol = _pinned(ROW, ("ij",))
    a = SparseTensor((2,), tuple(((i,), v) for i, v in enumerate(a_values) if v != 0.0))
    b = SparseTensor((2, 3), tuple(sorted(b_entries.items())))
    tensors = {"A": a, "B": b}
    lines = _Kernel(lower(tree, sol), bind(tree, sol, tensors, ("A",))).source().splitlines()
    assert _line(lines, r"^\s*f = d0\[") < _line(lines, r"for p0_1 in")
    return execute(lower(tree, sol), bind(tree, sol, tensors, ("A",))), oracle_nary(tree, tensors)


@pytest.mark.parametrize("bad", (INF, -INF, NAN), ids=("inf", "-inf", "nan"))
def test_hoisted_zero_annihilates_a_non_finite_partner(bad):
    # A(0) = 0 is loaded outside the j loop, so row 0 of B is never read
    b = {(0, 0): bad, (0, 2): bad, (1, 1): 3.0}
    (result, stats), oracle = _annihilate([0.0, 2.0], b)
    assert result.entries == (((1, 1), 6.0),)
    assert stats.multiply_adds == 1
    finite, _ = _annihilate([0.0, 2.0], {**b, (0, 0): 1.0, (0, 2): 1.0})
    assert (result, stats) == finite
    assert not compare(result, oracle).passed  # the oracle holds 0 * bad = NaN


@pytest.mark.parametrize("bad", (INF, -INF, NAN), ids=("inf", "-inf", "nan"))
def test_innermost_zero_annihilates_a_hoisted_non_finite_partner(bad):
    # B stores exact zeros at (0, 0) and (0, 2); A(0) = bad is hoisted and
    # non-zero, so the zero is found in the inner loop
    b = {(0, 0): 0.0, (0, 2): 0.0, (1, 1): 3.0}
    (result, stats), oracle = _annihilate([bad, 2.0], b)
    assert result.entries == (((1, 1), 6.0),)
    assert stats.multiply_adds == 1
    finite, _ = _annihilate([1.0, 2.0], b)
    assert (result, stats) == finite
    assert not compare(result, oracle).passed
