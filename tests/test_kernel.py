"""Differential tests of the compiled kernel against the dense oracles.

The expected multiply-add counts were produced by the recursive scalar
interpreter this kernel replaced, so they pin its counting semantics exactly.
Further tests pin the shape of the generated source (intersection, union,
touched workspace cells, hoisted loads) and the corner cases of each, the
dict accumulator of large roots, zeros that annihilate inf and NaN, and the
kernel cache: what its signature must tell apart, and that it pins no input.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import inspect
import random
import re
import sys
import threading
import weakref
from collections import defaultdict
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusetree.executor as executor
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
from fusetree.bench import KINDS, bench_generate, synthetic_tensor
from fusetree.errors import MalformedScheduleError, TooLargeError
from fusetree.executor import _Kernel, _kernel, _signature
from fusetree.lowering import Forall
from fusetree.network import Contraction
from fusetree.tensor import CsfTensor, SparseTensor
from conftest import nonzero_products, random_tree, shuffle_root

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


def test_kernel_fuzz_runs_clean(capsys):
    import fuzz_kernel

    assert fuzz_kernel.main(["--seed", "1", "--trees", "30"]) == 0
    assert capsys.readouterr().out.endswith("trees 30: runs 515 (110 crossed, 17 mismatched), failed 0\n")


def test_kernel_fuzz_counts_a_raising_run_and_goes_on(monkeypatch, capsys):
    import fuzz_kernel

    calls = []

    def raising_once(ir, binding):
        calls.append(ir)
        if len(calls) == 1:
            raise KeyError("stale")
        return execute(ir, binding)

    monkeypatch.setattr(fuzz_kernel, "execute", raising_once)
    assert fuzz_kernel.main(["--seed", "1", "--trees", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith("trees 2: runs 32 (8 crossed, 8 mismatched), failed 1\n")
    assert captured.err == "tree 0 sparse bound 1: raised KeyError: 'stale'\n"


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


def _kernel_source(ir, binding) -> str:
    return _Kernel(*_signature(ir, binding)).source()


def _source(text, tensors, dense=()):
    return _kernel_source(*_plan(text, tensors, dense)[1:])


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
# leapfrog intersections and guarded where consumers

# a k fiber of 1,000 coordinates against one of a single coordinate, its last
LOPSIDED = "extent i 1\nextent k 1000\nextent j 1\nR[i,j] = T[i,k] * S[k,j]\n"


@pytest.mark.parametrize("swap", (False, True), ids=("T-first", "S-first"))
def test_intersection_bisects_follow_the_shorter_fiber(swap):
    network = LOPSIDED.replace("T[i,k] * S[k,j]", "S[k,j] * T[i,k]") if swap else LOPSIDED
    tensors = {"T": _tensor((1, 1000), {(0, k): 1.0 for k in range(1000)}), "S": _tensor((1000, 1), {(999, 0): 2.0})}
    tree, ir, binding = _plan(network, tensors)
    calls = []

    def counting(*args):
        calls.append(args)
        return bisect.bisect_left(*args)

    compiled = _kernel(*_signature(ir, binding))
    acc, counts = compiled.run([0.0], *(binding.operands[name] for name in compiled.operands), bl=counting)
    assert (acc, counts) == ([2.0], (1,))
    assert len(calls) <= 4


def test_consumer_of_an_empty_workspace_is_skipped():
    # B empty: X is never written, so no where iteration may walk C, whose
    # fibers feed only the consumer that reads X
    import kernel_lines

    inst = bench_generate("running_example", extents=4, density=0.5, seed=2)
    tensors = {**inst.tensors, "B": coo_from_entries([], inst.tensors["B"].shape)}
    _, sol = search_min_order(inst.tree)
    ir, binding = lower(inst.tree, sol), bind(inst.tree, sol, tensors)
    source, counts, _ = kernel_lines.line_counts(ir, binding)
    param = f"t{_kernel(*_signature(ir, binding)).operands.index('C')}"
    (unpack,) = [line for line in source if line.endswith(f" = {param}.coords")]
    level1 = re.findall(r"c\d+_1\b", unpack)[0]
    reads = [k for k, line in enumerate(source) if re.search(rf"\b{level1}\b", line) and line != unpack]
    assert reads and [counts[k] for k in reads] == [0] * len(reads)
    _check(inst.tree, sol, tensors)


def test_consumer_holding_an_unread_producer_still_runs():
    # the outer where zeroes X; its consumer also produces Y, which reads no
    # X, so with X never written Y's products must still be made and counted
    network = (
        "extent i 3\nextent j 3\nextent k 3\n"
        "X[i] = A[j,i] * B[j]\nY[i] = C[i,k] * D[k]\nR[i] = X[i] * Y[i]\n"
    )
    tree, sol = _pinned(network, ("ji", "ik", "i"))
    nprng = np.random.default_rng(4)
    tensors = {
        "A": coo_from_entries([], (3, 3)),
        "B": synthetic_tensor((3,), 1.0, nprng),
        "C": synthetic_tensor((3, 3), 0.6, nprng),
        "D": synthetic_tensor((3,), 1.0, nprng),
    }
    _, stats = _check(tree, sol, tensors)
    assert stats.per_assignment.get("Y", 0) > 0


# two children under the root share the i loop; the where around them
# resets both workspaces, X's and Y's, on every i
SIBLINGS = (
    "extent i 3\nextent j 3\nextent k 3\nextent l 3\n"
    "X[i,j] = A[i,k] * B[k,j]\nY[i,j] = C[i,l] * D[l,j]\nR[i,j] = X[i,j] * Y[i,j]\n"
)


def test_where_resets_every_workspace_it_zeroes():
    # Y(0,1) is written at i = 0 but not at i = 1, where X(1,1) is, so a
    # stale Y cell would give R(1,1) a product it does not have
    tree, sol = _pinned(SIBLINGS, ("ikj", "ilj", "ij"))
    tensors = {
        "A": _tensor((3, 3), {(0, 0): 1.0, (1, 0): 1.0}),
        "B": _tensor((3, 3), {(0, 1): 1.0}),
        "C": _tensor((3, 3), {(0, 0): 1.0, (1, 1): 1.0}),
        "D": _tensor((3, 3), {(0, 1): 1.0, (1, 0): 1.0}),
    }
    result, _ = _check(tree, sol, tensors)
    assert dict(result.entries) == {(0, 1): 1.0}


def test_shared_loop_visits_the_rows_of_its_last_fiber():
    # only C has row 2, and C's fiber drives the shared i loop last, so the
    # union without it would skip Y's products there
    tree, sol = _pinned(SIBLINGS, ("ikj", "ilj", "ij"))
    tensors = {
        "A": _tensor((3, 3), {(0, 0): 1.0}),
        "B": _tensor((3, 3), {(0, 1): 1.0}),
        "C": _tensor((3, 3), {(0, 0): 1.0, (2, 2): 1.0}),
        "D": _tensor((3, 3), {(0, 1): 1.0, (2, 1): 1.0}),
    }
    assert "sorted({" in _kernel_source(lower(tree, sol), bind(tree, sol, tensors))
    _, stats = _check(tree, sol, tensors)
    assert stats.per_assignment == {"X": 1, "Y": 2, "R": 1}


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_lines_count_each_statement_as_its_stats(kind, capsys):
    import kernel_lines

    args = ["--kind", kind, "--extents", "4x5x6", "--rank", "2", "--density", "0.3", "--seed", "1"]
    assert kernel_lines.main(args) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    assert total == f"total {sum(int(row[:9]) for row in rows)} line events"
    inst = bench_generate(kind, (4, 5, 6), 2, 0.3, 1)
    _, sol = search_min_order(inst.tree)
    ir, binding = lower(inst.tree, sol), bind(inst.tree, sol, inst.tensors, inst.dense_names)
    _, stats = execute(ir, binding)
    assert stats.multiply_adds > 0
    for k, name in enumerate(_kernel(*_signature(ir, binding)).results):
        (row,) = [row for row in rows if row[9:].strip() == f"n{k} += 1"]
        assert int(row[:9]) == stats.per_assignment.get(name, 0)


@st.composite
def _lopsided_cases(draw):
    """``R[i,j] = T[i,k] * S[k,j]`` with either operand first, extents i, j
    up to 5 and k up to 64, and each input at its own density in [0, 1], with
    non-zero values that are multiples of 1/8."""
    ni, nj, nk = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 64))
    product = draw(st.sampled_from(("T[i,k] * S[k,j]", "S[k,j] * T[i,k]")))
    nprng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tensors = {}
    for name, shape in (("T", (ni, nk)), ("S", (nk, nj))):
        present = nprng.random(shape) < draw(st.floats(0.0, 1.0))
        eighths = nprng.integers(1, 17, shape) * nprng.choice((-1, 1), shape)
        tensors[name] = SparseTensor.from_dense(present * eighths / 8.0)
    return f"extent i {ni}\nextent k {nk}\nextent j {nj}\nR[i,j] = {product}\n", tensors


@given(case=_lopsided_cases())
@settings(max_examples=200, deadline=None)
def test_intersections_match_the_oracles(case):
    network, tensors = case
    _run(network, tensors)


@st.composite
def _tree_cases(draw):
    """A ``conftest.random_tree`` with its root's indices shuffled, the
    schedule of one of its satisfiable bounds and its inputs: each at its own
    density of 1/8 to 1, some bound dense, with non-zero values that are
    positive multiples of 1/8, so no sum cancels and the multiply-adds match
    ``nonzero_products``. Empty inputs are left to the fixed cases, since
    hypothesis would draw them most."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = shuffle_root(random_tree(rng), rng)
    l_max = max((len(tree.abstract_ref(name).indices) for name in tree.intermediate_names), default=1)
    schedules = [sol for sol in (solve(tree, bound) for bound in range(1, l_max + 1)) if sol is not None]
    sol = draw(st.sampled_from(schedules))
    nprng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tensors, dense = {}, []
    for name in tree.input_names:
        shape = tree.ref_shape(tree.abstract_ref(name))
        present = nprng.random(shape) < draw(st.integers(1, 8)) / 8
        tensors[name] = SparseTensor.from_dense(present * nprng.integers(1, 17, shape) / 8.0)
        if draw(st.booleans()):
            dense.append(name)
    return tree, sol, tensors, tuple(dense)


@given(case=_tree_cases())
@settings(max_examples=300, deadline=None)
def test_random_trees_match_the_oracles(case):
    _check(*case)


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


@pytest.mark.parametrize("kind", KINDS)
def test_partial_offsets_follow_the_zero_tests(kind):
    # a slot sums its partial offsets only once its factors passed their zero
    # tests; the consumer of running_example loads R's g in the loop where
    # its f's offset gains a term
    inst = bench_generate(kind, extents=4, rank=2, density=0.3, seed=1)
    lines = _source(inst.network_text, inst.tensors, inst.dense_names).splitlines()
    for k, line in enumerate(lines):
        if re.match(r"\s*o\d+[fgk]\d+ = ", line):
            assert not re.match(r"\s*(if )?[fg]\b", lines[k + 1]), lines[k : k + 2]
    if kind == "running_example":
        test = _line(lines, r"^\s*g = v3\[")
        assert lines[test + 1].strip() == "if g:"
        assert re.fullmatch(r"\s*o2f1 = x\d+ \* \d+", lines[test + 2])


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
    lines = _kernel_source(lower(tree, sol), bind(tree, sol, tensors)).splitlines()
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
    # the kernels cached by the first round must take the dict accumulator:
    # the root is chosen per call, never when the kernel is built
    made = []

    def recording(factory):
        made.append(defaultdict(factory))
        return made[-1]

    monkeypatch.setattr(executor, "ROOT_DENSE_CELLS", 0)
    monkeypatch.setattr(executor, "defaultdict", recording)
    runs = 0
    for seed in SEEDS:
        for mode in MODES:
            for kind, tree, result, stats, _, _ in _run_case(seed, mode):
                assert (result, stats) == dense[seed, mode, kind], (seed, mode, kind)
                runs += bool(tree.root.result.indices)  # an order-0 root takes the list
    assert runs > 0 and len(made) == runs


# ---------------------------------------------------------------------------
# the kernel cache: one planned, compiled kernel per signature


def _cold(ir, binding):
    """``execute`` with an empty kernel cache."""
    _kernel.cache_clear()
    return execute(ir, binding)


def _warm_matches_cold(runs):
    """Each (ir, binding) run, in turn, in one cache, gives what it gives
    with a cache of its own."""
    cold = [_cold(ir, binding) for ir, binding in runs]
    _kernel.cache_clear()
    assert [execute(ir, binding) for ir, binding in runs] == cold


@pytest.mark.parametrize("sizes", ((3, 4), (4, 3)))
def test_cache_keys_on_extents(sizes):
    runs = []
    for n in sizes:
        inst = bench_generate("running_example", extents=n, density=0.4, seed=n)
        _, sol = search_min_order(inst.tree)
        runs.append((lower(inst.tree, sol), bind(inst.tree, sol, inst.tensors)))
        assert compare(_cold(*runs[-1])[0], oracle_nary(inst.tree, inst.tensors)).passed
    assert runs[0][0] == runs[1][0]  # one IR
    _warm_matches_cold(runs)


def test_cache_keys_on_operand_kinds():
    # every input CSF, then B and C dense, then every input CSF again
    inst = bench_generate("mttkrp1", extents=(4, 5, 6), rank=2, density=0.3, seed=1)
    _, sol = search_min_order(inst.tree)
    ir = lower(inst.tree, sol)
    _warm_matches_cold([(ir, bind(inst.tree, sol, inst.tensors, dense)) for dense in ((), ("B", "C"), ())])


def _declared_s_runs():
    """S declared S[k,j] in one network and S[j,k] in the other, bound dense
    and stored (k, j) in both; the two lower to one IR, and j and k share an
    extent."""
    runs = []
    for declared, perm in (("k,j", {0: 0, 1: 1}), ("j,k", {0: 1, 1: 0})):
        tree = parse_network(f"extent i 3\nextent j 3\nextent k 3\nR[i,j] = T[i,k] * S[{declared}]\n")
        dp = {"T": {0: 0, 1: 1}, "S": perm, "R": {0: 0, 1: 1}}
        sol = ScheduleSolution(1, {0: 0}, {0: {"i": 0, "k": 1, "j": 2}}, dp)
        assert verify_solution(tree, 1, sol) == []
        nprng = np.random.default_rng(len(runs))
        tensors = {"T": synthetic_tensor((3, 3), 0.6, nprng), "S": synthetic_tensor((3, 3), 1.0, nprng)}
        runs.append((lower(tree, sol), bind(tree, sol, tensors, ("S",))))
        assert compare(_cold(*runs[-1])[0], oracle_nary(tree, tensors)).passed
    assert runs[0][0] == runs[1][0]
    return runs


def test_cache_keys_on_declared_dense_indices():
    _warm_matches_cold(_declared_s_runs())


def test_inputs_bound_alike_share_a_kernel():
    # the signature holds the bound layout, never the declared indices
    runs = _declared_s_runs()
    cold = [_cold(ir, binding) for ir, binding in runs]
    _kernel.cache_clear()
    assert [execute(ir, binding) for ir, binding in runs] == cold
    assert _kernel.cache_info().hits == 1 and _kernel.cache_info().misses == 1
    assert runs[0][1].layouts == runs[1][1].layouts == {"T": ("i", "k"), "S": ("k", "j")}


def _nested(n: int):
    """An IR of ``n`` nested loops, and a schedule binding one loop twice."""
    indices = [f"a{k}" for k in range(n)]
    text = "".join(f"extent {i} 1\n" for i in indices) + f"R[a0] = A[{','.join(indices)}] * B[a{n - 1}]\n"
    tree = parse_network(text)
    _, sol = search_min_order(tree)
    tensors = {name: synthetic_tensor(tree.ref_shape(tree.abstract_ref(name)), 1.0, np.random.default_rng(0))
               for name in tree.input_names}
    ir = lower(tree, sol)
    return ir, Forall(ir.index, ir), bind(tree, sol, tensors)


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_parameters_are_its_operands(kind):
    # sizes are compiled in: a kernel takes the root accumulator, each CSF
    # operand whole, each dense operand's flat tuple and the bisection
    inst = bench_generate(kind, extents=4, rank=2, density=0.3, seed=1)
    _, sol = search_min_order(inst.tree)
    ir = lower(inst.tree, sol)
    binding = bind(inst.tree, sol, inst.tensors, inst.dense_names)
    _kernel.cache_clear()
    execute(ir, binding)
    compiled = _kernel(*_signature(ir, binding))
    assert _kernel.cache_info().hits == 1
    params = inspect.signature(compiled.run).parameters
    kinds = [type(binding.operands[name]) for name in compiled.operands]
    csf = [f"t{k}" for k in range(kinds.count(CsfTensor))]
    dense = [f"d{k}" for k in range(kinds.count(tuple))]
    assert list(params) == ["acc", *csf, *dense, "bl"]
    assert params["bl"].default is bisect.bisect_left
    assert kinds == sorted(kinds, key=lambda kind: kind is tuple)
    assert sorted(compiled.operands) == sorted(binding.operands)


@pytest.mark.parametrize("dense", ("bench", "all"))
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_reads_each_bound_operand_itself(kind, dense, monkeypatch):
    # every argument after the root accumulator is the layout bind stored,
    # not a copy made per call
    inst = bench_generate(kind, extents=4, rank=2, density=0.3, seed=1)
    _, sol = search_min_order(inst.tree)
    ir = lower(inst.tree, sol)
    binding = bind(inst.tree, sol, inst.tensors, inst.dense_names if dense == "bench" else inst.tree.input_names)
    compiled = _kernel(*_signature(ir, binding))
    calls = []

    def run(acc, *operands):
        calls.append(operands)
        return compiled.run(acc, *operands)

    monkeypatch.setattr(executor, "_kernel", lambda *signature: dataclasses.replace(compiled, run=run))
    execute(ir, binding)
    (operands,) = calls
    assert len(operands) == len(compiled.operands) == len(binding.operands)
    assert all(operand is binding.operands[name] for operand, name in zip(operands, compiled.operands))


def test_typed_errors_raise_on_every_call():
    deep, _, deep_binding = _nested(21)
    _, twice, binding = _nested(2)
    _kernel.cache_clear()
    for _ in range(2):
        with pytest.raises(TooLargeError, match="more than 20 loops"):
            execute(deep, deep_binding)
        with pytest.raises(MalformedScheduleError, match="bound twice"):
            execute(twice, binding)
    assert _kernel.cache_info().currsize == 0


def test_cached_kernels_pin_no_binding():
    inst = bench_generate("mttkrp1", extents=(4, 5, 6), rank=2, density=0.3, seed=1)
    _, sol = search_min_order(inst.tree)
    ir = lower(inst.tree, sol)
    binding = bind(inst.tree, sol, inst.tensors, ("B",))
    # the input tensors keep their layouts for later binds, so the layouts
    # live as long as the tensors; a call must add no reference to them
    csf = [x for x in binding.operands.values() if type(x) is CsfTensor]
    dense = [x for x in binding.operands.values() if type(x) is tuple]
    assert csf and dense
    refs = [weakref.ref(x) for x in (binding, *inst.tensors.values(), *csf)]
    # the CSF tuples a call unpacks in its kernel
    tuples = [x for t in csf for x in (*t.coords, *t.segs, t.values) if x]
    held = [sys.getrefcount(x) for x in (*csf, *dense, *tuples)]
    _kernel.cache_clear()
    execute(ir, binding)
    assert _kernel.cache_info().currsize == 1
    assert [sys.getrefcount(x) for x in (*csf, *dense, *tuples)] == held
    del binding, inst, csf
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    # a tuple takes no weak reference: held by this list alone, it dies with it
    assert [sys.getrefcount(dense[k]) for k in range(len(dense))] == [2] * len(dense)


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
    lines = _kernel_source(lower(tree, sol), bind(tree, sol, tensors, ("A",))).splitlines()
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
