"""Differential tests of the compiled kernel against the dense oracles.

The expected multiply-add counts were produced by the recursive scalar
interpreter this kernel replaced, so they pin its counting semantics exactly.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from fusetree import (
    bind,
    build_model,
    compare,
    coo_from_entries,
    execute,
    lower,
    oracle_nary,
    oracle_unfused,
    parse_network,
    search_min_order,
    solve,
)
from fusetree.bench import bench_generate, synthetic_tensor
from conftest import random_tree

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
    yield "trivial", solve(build_model(tree, max(trivial, 1)))


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
