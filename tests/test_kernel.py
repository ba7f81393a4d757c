"""Differential tests of the compiled kernel against the dense oracles.

The expected multiply-add counts were produced by the recursive scalar
interpreter this kernel replaced, so they pin its counting semantics exactly.
Further tests pin the shape of the generated source (intersection, union,
touched workspace cells, hoisted loads) and the corner cases of each, the
dict accumulator of large roots, zeros that annihilate inf and NaN, the
kernel cache: what its signature must tell apart, and that it pins no input,
and the numpy blocks of root tails against the scalar tails they replace.
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
    format_network,
    lower,
    oracle_nary,
    oracle_unfused,
    parse_network,
    print_ir,
    search_min_order,
    solve,
    verify_solution,
)
from fusetree.bench import KINDS, bench_generate, synthetic_tensor
from fusetree.errors import MalformedScheduleError, TooLargeError
from fusetree.executor import _kernel, _signature
from fusetree.lowering import Forall
from fusetree.network import Contraction
from fusetree.tensor import CsfTensor, DenseTensor, SparseTensor
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
    assert capsys.readouterr().out.endswith("trees 30: runs 515 (110 crossed, 11 mismatched), failed 0\n")


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
    assert captured.out.endswith("trees 2: runs 32 (8 crossed, 0 mismatched), failed 1\n")
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
    # ttmc1's kernel runs a block and a dense row, reading the layouts'
    # arrays, flags and count tables from every thread
    for inst in (
        bench_generate("running_example", extents=5, density=0.4, seed=3),
        bench_generate("ttmc1", seed=3),
    ):
        bound, sol = search_min_order(inst.tree)
        ir = lower(inst.tree, sol)
        # the threads' layouts count their rows' nonzeros on first use, so
        # the threads race to count them
        copies = {name: SparseTensor(t.shape, t.entries) for name, t in inst.tensors.items()}
        want = execute(ir, bind(inst.tree, sol, copies, inst.dense_names))
        binding = bind(inst.tree, sol, inst.tensors, inst.dense_names)
        plan = executor._plan(*_signature(ir, binding))
        assert bool(plan.blocks) == bool(plan.dense_rows) == (inst.kind == "ttmc1")
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
    return executor._render(executor._plan(*_signature(ir, binding)))


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


def test_loop_shared_by_a_where_leapfrogs_its_one_ungated_statement():
    # the producer, the loop's only ungated statement, drives the shared i
    # loop through both A and B and multiplies only where both hold the row,
    # so the loop leapfrogs their rows; the consumer is gated, and finds C(i)
    # by bisection at each common row
    network = "extent i 5\nextent j 3\nextent k 3\nW[i,j] = A[i,k] * B[i,j]\nR[i,j] = W[i,j] * C[i]\n"
    tree, sol = _pinned(network, ("ikj", "ij"))
    tensors = {
        "A": _tensor((5, 3), {(0, 1): 2.0, (1, 0): -1.0, (3, 2): 5.0}),
        "B": _tensor((5, 3), {(1, 1): 3.0, (2, 0): 0.5, (3, 0): 4.0, (3, 2): -2.0}),
        "C": _tensor((5,), {(0,): 2.0, (3,): -3.0, (4,): 7.0}),
    }
    source = _kernel_source(lower(tree, sol), bind(tree, sol, tensors))
    assert "sorted({" not in source
    assert "while p0_0 < hp0_0:" in source
    assert "p1_0 = lp1_0 = bl(c1_0, x0, lp1_0, hp1_0)" in source
    assert "p2_0 = bl(c2_0, x0, lp2_0, hp2_0)" in source
    assert "if p0_0 >= 0" not in source and "if p1_0 >= 0" not in source  # never absent
    result, _ = _check(tree, sol, tensors)
    assert result.entries == (((3, 0), -60.0), ((3, 2), 30.0))


def test_ttmc_consumer_iterates_touched_cells():
    # ttmc1's consumer adds each cell it visits into a cell of its own, so it
    # follows the writes; ttmc3's sums over the cells, so it sorts them
    for kind, ascending in (("ttmc1", False), ("ttmc3", True)):
        source = _rank_outer_source(kind)
        assert re.search(r"for x\d+ in tw\d+:", source)
        assert bool(re.search(r"tw\d+\.sort\(\)", source)) == ascending, kind
        assert "[:] = z" not in source  # reset by the list of written cells


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
    tree = parse_network(TOUCHED)
    sol = _witness(tree, ("rji", "ri"))
    tensors = _touched_inputs()
    source = _kernel_source(lower(tree, sol), bind(tree, sol, tensors, ("V",)))
    assert re.search(r"for x\d+ in tw0:", source)
    result, stats = _check(tree, sol, tensors, ("V",))
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
    source = _source(network, tensors, ("V",))
    assert re.search(r"for x\d+ in tw0:", source) and "tw0.sort()" in source
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
    acc, counts = compiled.run(*(binding.operands[name] for name in compiled.operands), bl=counting)
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
def test_kernel_lines_count_each_statement_as_its_stats(kind, capsys, monkeypatch):
    import kernel_lines

    # the tested loops count each multiply-add by one line event
    monkeypatch.setattr(kernel_lines, "bind", lambda *args: _unflagged_binding(bind(*args)))
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
        ("mttkrp1", (r"w0\[.*\] = h \+ f \* g", r"acc\[.*\] \+= f \* g")),
        ("mttkrp3", (r"w0\[.*\] = h \+ f \* g",)),
        ("ttmc1", (r"w0\[.*\] = h \+ f \* g", r"acc\[.*\] \+= f \* g")),
        ("ttmc3", (r"w0\[.*\] = h \+ f \* g",)),
    ],
)
def test_dense_factors_are_loaded_outside_their_innermost_loop(kind, updates):
    lines = _rank_outer_source(kind).splitlines()
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
    lines = _rank_outer_source("mttkrp1").splitlines()
    load = _line(lines, r"^\s*g = d1\[")
    assert lines[load - 1].strip() == "if n0 != m0:"
    assert re.fullmatch(r"\s*for x\d+ in tw0:", lines[load + 2])
    reset = _line(lines, r"^\s*for c in tw0: w0\[c\] = None$")
    assert reset < _line(lines, r"w0\[x\d+\] = h \+ f \* g") < load


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


FACTOR_KINDS = ("mttkrp1", "mttkrp2", "mttkrp3", "ttmc1", "ttmc2", "ttmc3")


def _solved_source(inst, sol) -> str:
    return _kernel_source(lower(inst.tree, sol), bind(inst.tree, sol, inst.tensors, inst.dense_names))


def _factor_case(kind: str):
    """``kind`` at the bench defaults: 30x40x50, rank 8, density 0.01."""
    inst = bench_generate(kind, extents=(30, 40, 50), rank=8, density=0.01, seed=1)
    bound, sol = search_min_order(inst.tree)
    return inst, sol


@pytest.mark.parametrize("kind", FACTOR_KINDS)
def test_factor_kernels_run_the_rank_loops_innermost(kind):
    # the solver tries the larger extents first, so every contraction keeps
    # the tensor's loops outside and a rank loop inside, and its workspace
    # holds one row of 8 cells
    inst, sol = _factor_case(kind)
    assert sol.bound == 1
    for c in inst.tree.contractions:
        assert sol.loop_order(c.cid)[-1] in ("r", "x", "y", "z"), sol.loop_order(c.cid)
    _, stats = _check(inst.tree, sol, inst.tensors, inst.dense_names)
    assert stats.max_workspace_cells == 8
    # and no loop runs over a full range that a sparse operand must bisect
    source = _solved_source(inst, sol)
    assert "bl(" not in source.split("\n", 1)[1]


@pytest.mark.parametrize("kind", FACTOR_KINDS)
def test_rows_filled_by_a_full_range_loop_are_not_tracked(kind):
    # the producer reaches the rank index only through a dense factor, so it
    # writes the whole row or nothing: the where copies zeros over it, and
    # the consumer runs a full-range loop over the extent's tuple
    inst, sol = _factor_case(kind)
    source = _solved_source(inst, sol)
    assert "fw0" not in source and "tw0" not in source
    lines = [line.strip() for line in source.splitlines()]
    assert "e8 = tuple(range(8))" in lines and "w0[:] = zw0" in lines
    assert any(re.fullmatch(r"for x\d+ in e8:", line) for line in lines)


def test_mttkrp3_steps_through_the_fibers_of_t():
    # the consumer C1(k,r) = W(r) * B(j,r) reaches j only through the dense
    # B, but its where's guard gates it: the j loop steps through T's j
    # fibers instead of bisecting T's for each of 40 values
    inst, sol = _factor_case("mttkrp3")
    assert sol.loop_order(1) == ("k", "j", "r")
    source = _solved_source(inst, sol)
    assert "bl(" not in source.split("\n", 1)[1]
    assert "for p0_1 in range(s0_1[p0_0], s0_1[p0_0 + 1]):" in source


# W1 is written in the consumer of the outer where, which gates it at f; the
# inner where's guard then gates R, so the f loop steps through B2 alone
# and finds D4's f by bisection
TWICE_GATED = (
    "extent a 3\nextent c 4\nextent e 2\nextent f 3\n"
    "W0[e,f] = A1[e] * B2[f]\nW1[a,e,f] = W0[e,f] * C3[a]\nR[a,c,e,f] = W1[a,e,f] * D4[f,c]\n"
)


@pytest.mark.parametrize("seed", range(4))
def test_a_statement_gated_by_an_outer_where_gates_its_consumer(seed):
    tree = parse_network(TWICE_GATED)
    nprng = np.random.default_rng(seed)
    tensors = {
        name: synthetic_tensor(tree.ref_shape(tree.abstract_ref(name)), 0.5, nprng)
        for name in tree.input_names
    }
    tree, ir, binding = _plan(TWICE_GATED, tensors)
    assert print_ir(ir).startswith("forall(f, where(forall(a, where(forall(c, forall(e, R(")
    source = _kernel_source(ir, binding)
    assert "sorted({" not in source
    assert "for p1_0 in range(s1_0[0], s1_0[0 + 1]):" in source
    assert "p3_0 = bl(c3_0, x0, lp3_0, hp3_0)" in source
    _run(TWICE_GATED, tensors)


def test_an_order_0_workspace_is_a_float_local():
    # masked_3term's W1() is one cell: a float reset, added to and read as is
    inst = bench_generate("masked_3term", extents=(30, 40, 50), rank=8, density=0.01, seed=1)
    lines = _source(inst.network_text, inst.tensors, inst.dense_names).splitlines()
    assert lines.count("    w0 = 0.0") == 1  # the prologue
    stripped = [line.strip() for line in lines]
    assert stripped.count("w0 = 0.0") == 2 and "w0 += f * g" in stripped and "f = w0" in stripped
    assert not any("w0[" in line or "zw0" in line for line in lines)
    bound, sol = search_min_order(inst.tree)
    _check(inst.tree, sol, inst.tensors, inst.dense_names)


def _witness(tree, loops: Sequence[str]) -> ScheduleSolution:
    """``tree`` scheduled by hand at bound 1 and read as a plan file:
    contraction k comes k-th and runs its loops in the order ``loops[k]``,
    and each input and the root are stored in the order of their first
    reference's loops."""
    orders = {}
    for c in tree.contractions:
        for ref in (c.result, c.lhs, c.rhs):
            if ref.tensor in tree.layout_constrained and ref.tensor not in orders:
                perm = sorted(range(len(ref.indices)), key=lambda j: loops[c.cid].index(ref.indices[j]))
                indices = [tree.abstract_ref(ref.tensor).indices[j] for j in perm]
                orders[ref.tensor] = {"perm": perm, "indices": indices}
    sol = ScheduleSolution.from_json_dict({
        "bound": 1,
        "assignment_positions": {str(k): k for k in range(len(loops))},
        "loop_orders": {str(k): list(order) for k, order in enumerate(loops)},
        "mode_orders": orders,
    })
    assert verify_solution(tree, 1, sol) == []
    return sol


# the bench kinds' witnesses with the rank loop outermost, which the solver
# chose while it tried candidates in ``_candidate_key`` order alone; the
# shape tests of this section were written for their kernels
RANK_OUTER = {
    "mttkrp1": ("rkji", "rki"),
    "mttkrp3": ("rkij", "rkj"),
    "ttmc1": ("ykji", "ykzi"),
    "ttmc3": ("xkij", "xkyj"),
}


def _rank_outer_source(kind: str) -> str:
    inst = bench_generate(kind, extents=(4, 5, 6), rank=2, density=0.3, seed=1)
    sol = _witness(inst.tree, RANK_OUTER[kind])
    _check(inst.tree, sol, inst.tensors, inst.dense_names)
    return _solved_source(inst, sol)


def _range_loops(plan) -> set[tuple[str, int]]:
    """The local and extent of every full-range loop ``plan`` holds."""
    found, todo = set(), [plan.body]
    while todo:
        node = todo.pop()
        if isinstance(node, executor._Loop):
            if node.kind == "range":
                found.add((node.var, node.over))
            todo.append(node.body)
        elif isinstance(node, executor._Where):
            todo += (node.producer, node.consumer)
    return found


@pytest.mark.parametrize("case", (*KINDS, *(f"{kind}-rank-outer" for kind in RANK_OUTER)))
def test_full_range_loops_iterate_one_prologue_tuple_per_extent(case):
    # every full-range loop, a dense-filled row's consumer among them,
    # iterates the tuple of its extent's values, which the prologue builds
    # once per extent; no kernel keeps a flag list
    kind = case.removesuffix("-rank-outer")
    if kind == case:
        inst = bench_generate(kind, seed=1)
        sol = search_min_order(inst.tree)[1]
    else:
        inst = bench_generate(kind, extents=(4, 5, 6), rank=2, density=0.3, seed=1)
        sol = _witness(inst.tree, RANK_OUTER[kind])
    ir, binding = lower(inst.tree, sol), bind(inst.tree, sol, inst.tensors, inst.dense_names)
    plan = executor._plan(*_signature(ir, binding))
    lines = executor._render(plan).splitlines()
    assert not any(re.fullmatch(r"\s*for x\d+ in range\(\d+\):", line) for line in lines)
    assert not any("[False] *" in line for line in lines)
    loops = {(m[1], int(m[2])) for line in lines if (m := re.fullmatch(r"\s*for (x\d+) in e(\d+):", line))}
    assert loops == _range_loops(plan)
    extents = sorted({extent for _, extent in loops})
    tuples = [k for k, line in enumerate(lines) if re.match(r"\s*e\d+ = ", line)]
    assert [lines[k] for k in tuples] == [f"    e{n} = tuple(range({n}))" for n in extents]
    assert all(k < _line(lines, r"^    n0 = ") for k in tuples)


# W and V are rows of r under the shared i loop: W's producer reaches r only
# through the dense B, so it fills W whole or not at all, and V's producer,
# a full-range loop over W, fills V whole as well
CHAINED_FILL = (
    "extent i 4\nextent j 3\nextent r 5\nextent s 6\n"
    "W[i,r] = A[i,j] * B[j,r]\nV[i,r] = W[i,r] * C[i,r]\nR[i] = V[i,r] * D[s,r]\n"
)


@pytest.mark.parametrize("seed", range(3))
def test_a_row_filled_from_a_filled_row_is_not_tracked(seed):
    tree = parse_network(CHAINED_FILL)
    sol = _witness(tree, ("ijr", "ir", "isr"))
    nprng = np.random.default_rng(seed)
    tensors = {
        name: synthetic_tensor(tree.ref_shape(tree.abstract_ref(name)), 0.5 if name == "A" else 0.8, nprng)
        for name in tree.input_names
    }
    dense = ("B", "C", "D")
    lines = [line.strip() for line in _kernel_source(lower(tree, sol), bind(tree, sol, tensors, dense)).splitlines()]
    assert not any(re.match(r"tw\d+ = \[\]", line) for line in lines)
    assert "w0[:] = zw0" in lines and "w1[:] = zw1" in lines
    # the loops over r: W's producer, V's producer and R's; W's producer
    # also reads B's row untested where A's value is finite, in one line
    assert sum(bool(re.fullmatch(r"for x\d+ in e5:", line)) for line in lines) == 3
    assert sum(line.startswith("for x") and line.endswith(":") for line in lines) == 4  # and R's s loop
    assert sum(bool(re.fullmatch(r"for x\d+ in e5: w0\[.*\] \+= f \* d0\[.*\]", line)) for line in lines) == 1
    _check(tree, sol, tensors, dense)


def _pinned(text: str, loops: Sequence[str], bound: int = 1):
    """``text`` scheduled by hand at ``bound``: contraction k comes k-th and
    runs its loops in the order ``loops[k]``, and every layout keeps its
    declared mode order."""
    tree = parse_network(text)
    dp = {name: {j: j for j in range(len(tree.abstract_ref(name).indices))} for name in tree.layout_constrained}
    lp = {k: {x: pos for pos, x in enumerate(order)} for k, order in enumerate(loops)}
    sol = ScheduleSolution(bound, {k: k for k in range(len(loops))}, lp, dp)
    assert verify_solution(tree, bound, sol) == []
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


# W(a,i) is an order-2 workspace under the fused r loop, which the consumer
# reads in an innermost full-range loop over i, its last index
ROWS = (
    "extent r 2\nextent a 3\nextent j 3\nextent i 3\n"
    "W[r,a,i] = A[j,a,i] * B[r,j]\n"
    "R[r,a,i] = W[r,a,i] * V[a]\n"
)


def test_row_cells_cancel_and_rewrite():
    # r = 0: W(0,0) goes 1 -> 0 -> 3 and is visited once; W(0,2) cancels to
    # exactly 0 and counts nothing. r = 1 rewrites cells r = 0 wrote.
    tree, sol = _pinned(ROWS, ("rjai", "rai"), bound=2)
    a = {(j, 0, 0): 1.0 for j in range(3)} | {(0, 0, 2): 1.0, (1, 0, 2): 1.0, (0, 1, 1): 2.0}
    b = {(0, 0): 1.0, (0, 1): -1.0, (0, 2): 3.0, (1, 0): 2.0, (1, 2): 1.0}
    v = _tensor((3,), {(0,): 5.0, (1,): 7.0, (2,): 11.0})
    tensors = {"A": _tensor((3, 3, 3), a), "B": _tensor((2, 3), b), "V": v}
    source = _kernel_source(lower(tree, sol), bind(tree, sol, tensors))
    assert re.search(r"for x\d+ in rw0\[x\d+\]:", source)
    result, stats = _check(tree, sol, tensors)
    assert result.entries == (
        ((0, 0, 0), 15.0), ((0, 1, 1), 14.0), ((1, 0, 0), 15.0), ((1, 0, 2), 10.0), ((1, 1, 1), 28.0)
    )
    assert stats.per_assignment == {"W": 10, "R": 5}


def test_row_cells_keep_full_range_order():
    # the producer writes W(0,2), W(0,0), W(0,1); summed in ascending order
    # (1e16 + 1) - 1e16 rounds to exactly 0, in write order it is 1
    network = "extent a 2\nextent j 3\nextent i 3\nW[a,i] = A[j,a,i] * B[j]\nR[a] = W[a,i] * V[i]\n"
    tree, sol = _pinned(network, ("jai", "ai"), bound=2)
    tensors = {
        "A": _tensor((3, 2, 3), {(0, 0, 2): 1.0, (1, 0, 0): 1.0, (2, 0, 1): 1.0}),
        "B": _tensor((3,), {(0,): -1e16, (1,): 1e16, (2,): 1.0}),
        "V": _tensor((3,), {(0,): 1.0, (1,): 1.0, (2,): 1.0}),
    }
    ir, binding = lower(tree, sol), bind(tree, sol, tensors, ("V",))
    assert re.search(r"for x\d+ in sorted\(rw0\[x\d+\]\):", _kernel_source(ir, binding))
    result, stats = execute(ir, binding)
    assert result == SparseTensor((2,), ())
    assert stats.per_assignment == {"W": 3, "R": 3}


def test_running_example_resets_and_scans_only_written_cells():
    # both order-2 workspaces track their written cells: no where copies a
    # zero list over one, and no consumer scans a row of one in full
    inst = bench_generate("running_example", extents=12, density=0.1, seed=1)
    lines = _source(inst.network_text, inst.tensors).splitlines()
    tracked = {m[1] for line in lines if (m := re.fullmatch(r"\s*t(w\d+) = \[\]", line))}
    assert tracked == {"w0", "w1"}
    for k, line in enumerate(lines):
        for w in tracked:
            assert not line.lstrip().startswith(f"{w}[:] =")
            if re.match(rf"\s*f = {w}\[", line):
                loop = max(j for j in range(k) if lines[j].lstrip().startswith("for "))
                assert re.fullmatch(rf"\s*for x\d+ in r{w}\[x\d+\]:", lines[loop]), lines[loop]


def test_dict_root_matches_the_dense_root(monkeypatch):
    inst = bench_generate("ttmc1", seed=1)
    sol = search_min_order(inst.tree)[1]
    ttmc1 = (lower(inst.tree, sol), bind(inst.tree, sol, inst.tensors, inst.dense_names))
    dense = {
        (seed, mode, kind): (result, stats)
        for seed in SEEDS
        for mode in MODES
        for kind, _, result, stats, _, _ in _run_case(seed, mode)
    }
    expected = execute(*ttmc1)
    assert executor._plan(*_signature(*ttmc1)).blocks
    # the root's form is planned with the kernel: only kernels planned under
    # the patch take the dict accumulator, so the cache is cleared for them
    made = []

    def recording(factory):
        made.append(defaultdict(factory))
        return made[-1]

    monkeypatch.setattr(executor, "ROOT_DENSE_CELLS", 0)
    monkeypatch.setattr(executor, "ROOT_ARRAY_CELLS", 0)
    monkeypatch.setattr(executor, "defaultdict", recording)
    _kernel.cache_clear()
    try:
        runs = 0
        for seed in SEEDS:
            for mode in MODES:
                for kind, tree, result, stats, _, _ in _run_case(seed, mode):
                    assert (result, stats) == dense[seed, mode, kind], (seed, mode, kind)
                    runs += bool(tree.root.result.indices)  # an order-0 root takes the list
        # a dict root runs no block
        assert not executor._plan(*_signature(*ttmc1)).blocks
        assert execute(*ttmc1) == expected
        assert runs > 0 and len(made) == runs + 1
    finally:
        _kernel.cache_clear()  # no kernel with a dict root is left for later tests


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
    # sizes are compiled in, and the kernel allocates its root: it takes each
    # CSF operand whole, each dense operand's record (its flat tuple, array,
    # finiteness flag and nonzero counts) whole, and the bisection
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
    dense = [f"d{k}" for k in range(kinds.count(DenseTensor))]
    assert list(params) == [*csf, *dense, "bl"]
    assert params["bl"].default is bisect.bisect_left
    assert kinds == sorted(kinds, key=lambda kind: kind is DenseTensor)
    assert sorted(compiled.operands) == sorted(binding.operands)


@pytest.mark.parametrize("dense", ("bench", "all"))
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_reads_each_bound_operand_itself(kind, dense, monkeypatch):
    # every argument is the layout bind stored, not a copy made per call
    inst = bench_generate(kind, extents=4, rank=2, density=0.3, seed=1)
    _, sol = search_min_order(inst.tree)
    ir = lower(inst.tree, sol)
    binding = bind(inst.tree, sol, inst.tensors, inst.dense_names if dense == "bench" else inst.tree.input_names)
    compiled = _kernel(*_signature(ir, binding))
    calls = []

    def run(*operands):
        calls.append(operands)
        return compiled.run(*operands)

    monkeypatch.setattr(executor, "_kernel", lambda *signature: dataclasses.replace(compiled, run=run))
    execute(ir, binding)
    (operands,) = calls
    assert len(operands) == len(compiled.operands) == len(binding.operands)
    # and the kernel only reads what bind keeps of a dense operand: no line
    # converts one, or counts or tests its cells
    for line in _kernel_source(ir, binding).splitlines():
        if re.search(r"\bd\d+\b", line) and not re.search(r"\bd\d+\[", line) and "def kernel" not in line:
            assert re.fullmatch(r"    \w+ = (d\d+)\.(array|finite|values|nonzeros\(\(\d+(, \d+)*,?\)\))", line), line
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


def test_a_root_past_the_offset_limit_raises_before_a_kernel_is_built():
    # 2^64 root cells: a flat offset does not fit numpy's index type
    n = 2**32
    tree = parse_network(f"extent i {n}\nextent j {n}\nextent k 2\nR[i,j] = A[i,k] * B[k,j]\n")
    a = SparseTensor((n, 2), (((0, 1), 1.0), ((n - 1, 0), 2.0)))
    b = SparseTensor((2, n), (((0, 7), 3.0), ((1, n - 1), 4.0)))
    _, sol = search_min_order(tree)
    ir, binding = lower(tree, sol), bind(tree, sol, {"A": a, "B": b})
    _kernel.cache_clear()
    for _ in range(2):
        with pytest.raises(TooLargeError, match=f"result of {n * n} cells"):
            execute(ir, binding)
    assert _kernel.cache_info().currsize == 0


# a minimal schedule keeps one index of X, so the workspace has 5 cells
WORKSPACE = "extent i 5\nextent j 5\nextent k 5\nextent r 5\nX[i,j,r] = T[i,j,k] * C[k,r]\nR[i,r] = X[i,j,r] * B[j,r]\n"


@pytest.mark.parametrize("what", ("dense input", "workspace"))
def test_arrays_beyond_the_dense_budget_raise_on_every_call(what, monkeypatch):
    if what == "dense input":
        tree = parse_network("extent i 4\nextent j 6\nR[i] = A[i,j] * B[j]\n")
        dense, cells = ("A", "B"), 24
    else:
        tree, dense, cells = parse_network(WORKSPACE), (), 5
    rng = np.random.default_rng(5)
    tensors = {name: synthetic_tensor(tree.ref_shape(tree.abstract_ref(name)), 0.5, rng) for name in tree.input_names}
    _, sol = search_min_order(tree)
    ir = lower(tree, sol)
    # the budget is read where the executor allocates, not where check does
    monkeypatch.setattr(executor, "DENSE_SPACE_BUDGET", cells)
    result, stats = execute(ir, bind(tree, sol, tensors, dense))
    assert compare(result, oracle_nary(tree, tensors)).passed
    assert stats.max_workspace_cells == (cells if what == "workspace" else 0)
    monkeypatch.setattr(executor, "DENSE_SPACE_BUDGET", cells - 1)
    _kernel.cache_clear()
    for _ in range(2):
        with pytest.raises(TooLargeError, match=f"{what} '[AX]' needs {cells} cells"):
            execute(ir, bind(tree, sol, tensors, dense))
    assert _kernel.cache_info().currsize == 0


def test_cached_kernels_pin_no_binding():
    inst = bench_generate("mttkrp1", extents=(4, 5, 6), rank=2, density=0.3, seed=1)
    _, sol = search_min_order(inst.tree)
    ir = lower(inst.tree, sol)
    binding = bind(inst.tree, sol, inst.tensors, ("B",))
    # the input tensors keep their layouts for later binds, so the layouts
    # live as long as the tensors; a call must add no reference to them
    csf = [x for x in binding.operands.values() if type(x) is CsfTensor]
    dense = [x for x in binding.operands.values() if type(x) is DenseTensor]
    assert csf and dense
    refs = [weakref.ref(x) for x in (binding, *inst.tensors.values(), *csf, *dense)]
    # the CSF tuples a call unpacks in its kernel, and what it reads of the
    # dense layouts
    tuples = [x for t in csf for x in (*t.coords, *t.segs, t.values) if x]
    tuples += [x for d in dense for x in (d.values, d.array)]
    held = [sys.getrefcount(x) for x in (*csf, *dense, *tuples)]
    _kernel.cache_clear()
    execute(ir, binding)
    assert _kernel.cache_info().currsize == 1
    assert [sys.getrefcount(x) for x in (*csf, *dense, *tuples)] == held
    del binding, inst, csf, dense
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


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


# ---------------------------------------------------------------------------
# tails of full-range loops over root indices, run as numpy blocks


def _raw_run(kernel, binding):
    """The raw float64 bits of one run's root accumulator, and its counters."""
    with np.errstate(all="ignore"):  # as execute runs a kernel with blocks
        acc, counts = kernel.run(*(binding.operands[n] for n in kernel.operands))
    bits = repr(sorted(acc.items())) if isinstance(acc, dict) else np.asarray(acc, dtype=np.float64).tobytes()
    return bits, counts


def _tail_run(ir, binding, cutoff: int, monkeypatch):
    """The kernel planned with ``VECTOR_TAIL_CELLS`` at ``cutoff``, and the
    raw float64 bits of its root accumulator and its counters after one run."""
    monkeypatch.setattr(executor, "VECTOR_TAIL_CELLS", cutoff)
    _kernel.cache_clear()
    kernel = _kernel(*_signature(ir, binding))
    return (kernel, *_raw_run(kernel, binding))


def _blocks_match_scalar_tails(tree, sol, tensors, dense, monkeypatch) -> bool:
    """Run the kernel with every tail that can be a block run as one, and
    with none, and check that both give the same accumulator bits and
    counters; returns whether the first has a block."""
    ir, binding = lower(tree, sol), bind(tree, sol, tensors, dense)
    vector, *ran = _tail_run(ir, binding, 0, monkeypatch)
    scalar, *also = _tail_run(ir, binding, 2**62, monkeypatch)
    _kernel.cache_clear()  # no kernel of another cutoff is left for later tests
    assert not scalar.array_root
    assert ran == also, format_network(tree)
    assert all(type(count) is int for count in ran[1])  # JSON takes no numpy integer
    return vector.array_root


@pytest.mark.parametrize("case", (*KINDS, *(f"{kind}-rank-outer" for kind in RANK_OUTER)))
def test_blocks_match_scalar_tails_on_bench_kinds(case, monkeypatch):
    kind = case.removesuffix("-rank-outer")
    if kind == case:
        inst = bench_generate(kind, seed=1)
        sol = search_min_order(inst.tree)[1]
    else:
        inst = bench_generate(kind, extents=(4, 5, 6), rank=2, density=0.3, seed=1)
        sol = _witness(inst.tree, RANK_OUTER[kind])
    has_block = _blocks_match_scalar_tails(inst.tree, sol, inst.tensors, inst.dense_names, monkeypatch)
    # every factor kind's consumer reads a workspace and a dense factor in
    # its tail; the rank-outer witnesses put the rank loop outside it
    assert has_block == (kind == case and kind in FACTOR_KINDS)


def test_blocks_match_scalar_tails_on_random_trees(monkeypatch):
    # mixed inputs bind every second one dense at density 0.5, so blocks
    # meet zero cells and count fewer multiply-adds than cells
    with_blocks = 0
    for seed in range(100):
        tree = shuffle_root(random_tree(random.Random(seed)), random.Random(seed))
        for mode in ("mixed", "dense"):
            tensors, dense = _inputs(tree, mode, seed)
            for _, sol in _schedules(tree):
                with_blocks += _blocks_match_scalar_tails(tree, sol, tensors, dense, monkeypatch)
    assert with_blocks >= 50


def _ttmc1_inputs(b_dense: np.ndarray, c_dense: np.ndarray, scale: float = 1.0):
    """ttmc1 at 9x10x11 and rank 8, with the factors B and C given, and T's
    values made positive and scaled by ``scale``; its consumer's tail is one
    8x8 block."""
    inst = bench_generate("ttmc1", extents=(9, 10, 11), rank=8, density=0.1, seed=1)
    t = inst.tensors["T"]
    tensors = {"T": SparseTensor._trusted(t.shape, t.coords, np.abs(t.values) * scale)}
    tensors |= {"B": SparseTensor.from_dense(b_dense), "C": SparseTensor.from_dense(c_dense)}
    return inst.tree, search_min_order(inst.tree)[1], tensors, inst.dense_names


@pytest.mark.parametrize("bad", (INF, -INF, NAN), ids=("inf", "-inf", "nan"))
def test_blocks_leave_non_finite_dense_rows_to_the_scalar_tail(bad, monkeypatch):
    # B's columns 1 and 5 are zero, so every W(y) row holds zeros there; C's
    # rows 2 and 4 hold bad values that face them, which a block would turn
    # into NaN, while the scalar tail skips the zero factor
    nprng = np.random.default_rng(5)
    b = nprng.integers(1, 17, (10, 8)) / 8.0
    b[:, [1, 5]] = 0.0
    c = nprng.integers(1, 17, (11, 8)) / 8.0
    c[2, 3] = c[4, 0] = bad
    case = _ttmc1_inputs(b, c)
    assert _blocks_match_scalar_tails(*case, monkeypatch)
    result, _ = execute(lower(*case[:2]), bind(case[0], case[1], case[2], case[3]))
    assert not np.isfinite(result.values).all()


def test_blocks_leave_an_overflowing_workspace_row_to_the_scalar_tail(monkeypatch):
    # T's values times B's overflow every W(y) to inf, and C's zero columns
    # face it
    nprng = np.random.default_rng(6)
    b = nprng.integers(1, 17, (10, 8)) * 1e300
    c = nprng.integers(1, 17, (11, 8)) / 8.0
    c[:, [0, 6]] = 0.0
    case = _ttmc1_inputs(b, c, scale=1e10)
    assert _blocks_match_scalar_tails(*case, monkeypatch)
    result, stats = execute(lower(*case[:2]), bind(case[0], case[1], case[2], case[3]))
    assert np.isinf(result.values).any() and not np.isnan(result.values).any()


def test_blocks_count_only_products_of_nonzero_factors(monkeypatch):
    # B's zero columns leave zero W(y) cells, and C's zero rows and cells
    # zero factors, so a block's multiply-adds are fewer than its cells
    nprng = np.random.default_rng(7)
    b = nprng.integers(1, 17, (10, 8)) / 8.0
    b[:, [2, 7]] = 0.0
    c = nprng.integers(1, 17, (11, 8)) / 8.0
    c[[0, 3], :] = 0.0
    c[5, 4] = 0.0
    tree, sol, tensors, dense = case = _ttmc1_inputs(b, c)
    assert _blocks_match_scalar_tails(*case, monkeypatch)
    result, stats = _check(tree, sol, tensors, dense)
    assert stats.per_assignment == nonzero_products(tree, tensors)


# ---------------------------------------------------------------------------
# dense rows: an innermost full-range loop that multiplies a factor loaded and
# tested outside it by a dense operand's row adds the row untested, and its
# nonzero count once, where that factor's layout is finite


def _unflagged_binding(binding):
    """``binding`` with every layout's finiteness flag false, so every dense
    row and block takes its tested loop."""
    operands = {name: dataclasses.replace(x, finite=False) for name, x in binding.operands.items()}
    return dataclasses.replace(binding, operands=operands)


def _rows_match_tested_loops(tree, sol, tensors, dense) -> int:
    """Run the kernel on the bound layouts and on the same layouts flagged
    non-finite, and check that both give the same accumulator bits and
    counters; returns how many statements read a dense row untested."""
    ir, binding = lower(tree, sol), bind(tree, sol, tensors, dense)
    kernel = _kernel(*_signature(ir, binding))
    untested = _raw_run(kernel, binding)
    assert untested == _raw_run(kernel, _unflagged_binding(binding)), format_network(tree)
    assert all(type(count) is int for count in untested[1])  # JSON takes no numpy integer
    return len(executor._plan(*_signature(ir, binding)).dense_rows)


def test_every_factor_kind_reads_its_producer_row_untested():
    for kind in FACTOR_KINDS:
        inst = bench_generate(kind, seed=1)
        sol = search_min_order(inst.tree)[1]
        plan = executor._plan(*_signature(lower(inst.tree, sol), bind(inst.tree, sol, inst.tensors, inst.dense_names)))
        # W(y) += T(k,i,j) * B(j,y): T's value is loaded outside the rank loop
        assert list(plan.dense_rows) == [0], kind
        assert plan.dense_rows[0].flag == "t0"
        assert _rows_match_tested_loops(inst.tree, sol, inst.tensors, inst.dense_names) == 1


def test_dense_rows_match_tested_loops_on_random_trees():
    # dense inputs at density 0.5 hold zeros, so a row's nonzero count is
    # less than its length; mixed inputs bind every second one dense
    with_rows = 0
    for seed in range(100):
        tree = shuffle_root(random_tree(random.Random(seed)), random.Random(seed))
        nprng = np.random.default_rng(2000 + seed)
        half = {
            name: synthetic_tensor(tree.ref_shape(tree.abstract_ref(name)), 0.5, nprng)
            for name in tree.input_names
        }
        for tensors, dense in (_inputs(tree, "mixed", seed), (half, tree.input_names)):
            for _, sol in _schedules(tree):
                with_rows += bool(_rows_match_tested_loops(tree, sol, tensors, dense))
    assert with_rows >= 200  # of 400 runs


def test_a_dense_row_holding_inf_beside_a_zero_still_annihilates():
    # B's row 3 holds inf beside an exact zero, under T's finite values, so
    # W(2) turns inf where T carries j = 3; C's zero column 5 faces it and
    # annihilates it, and no product turns NaN
    nprng = np.random.default_rng(8)
    b = nprng.integers(1, 17, (10, 8)) / 8.0
    b[3, 2], b[3, 3] = INF, 0.0
    c = nprng.integers(1, 17, (11, 8)) / 8.0
    c[:, 5] = 0.0
    tree, sol, tensors, dense = case = _ttmc1_inputs(b, c)
    assert _rows_match_tested_loops(*case) == 1
    binding = bind(tree, sol, tensors, dense)
    assert binding.operands["T"].finite and not binding.operands["B"].finite
    result, stats = execute(lower(tree, sol), binding)
    assert np.isinf(result.values).any() and not np.isnan(result.values).any()
    assert not any(key[1:] == (2, 5) for key, _ in result.entries)
    # the count model skips zero factors too, so W's zeros facing inf form no NaN cell
    counts = nonzero_products(tree, tensors)
    assert counts["A1"] == 3318 and stats.per_assignment == counts


@pytest.mark.parametrize("bad", (INF, -INF, NAN), ids=("inf", "-inf", "nan"))
def test_a_non_finite_hoisted_value_leaves_the_row_to_the_tested_loop(bad):
    # T holds a bad value, loaded outside the rank loop, and B's finite rows
    # hold zero cells in column 6 that face it: untested, 0 times the bad
    # value would turn W(6) NaN, so the tested loop skips the zero
    nprng = np.random.default_rng(9)
    b = nprng.integers(1, 17, (10, 8)) / 8.0
    b[:, 6] = 0.0
    c = nprng.integers(1, 17, (11, 8)) / 8.0
    tree, sol, tensors, dense = _ttmc1_inputs(b, c)
    t = tensors["T"]
    values = t.values.copy()
    values[[0, 7]] = bad
    tensors["T"] = SparseTensor._trusted(t.shape, t.coords, values)
    assert _rows_match_tested_loops(tree, sol, tensors, dense) == 1
    binding = bind(tree, sol, tensors, dense)
    assert binding.operands["B"].finite and not binding.operands["T"].finite
    result, _ = execute(lower(tree, sol), binding)
    assert not np.isfinite(result.values).all()
    # every product with column 6 was skipped, so no NaN came of it
    assert not any(key[1] == 6 for key, _ in result.entries)
    if bad == bad:
        assert not np.isnan(result.values).any()
