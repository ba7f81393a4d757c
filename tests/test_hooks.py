"""The calls a profiler wraps must go through their module attributes.

A tracer times each bound of the search by replacing
``fusetree.constraints.solve`` and each CSF build by replacing
``fusetree.executor.csf_build``. A direct reference would bypass the wrapper,
and the per-layer figures built on it would silently read 0.
"""

from __future__ import annotations

import pytest

import fusetree.constraints as constraints
import fusetree.executor as executor
from fusetree import bench_generate, bind, search_min_order
from fusetree.errors import UnsatisfiableError


@pytest.fixture
def solve_calls(monkeypatch):
    calls: list[int] = []
    real = constraints.solve

    def counting(tree, bound, *args, **kwargs):
        calls.append(bound)
        return real(tree, bound, *args, **kwargs)

    monkeypatch.setattr(constraints, "solve", counting)
    return calls


def test_search_calls_solve_once_per_bound(running_tree, solve_calls):
    bound, _ = search_min_order(running_tree)
    assert bound == 2
    assert solve_calls == [1, 2]


def test_unsat_search_calls_solve_for_every_bound_it_tries(running_tree, solve_calls):
    with pytest.raises(UnsatisfiableError):
        search_min_order(running_tree, l_max=1)
    assert solve_calls == [1]


def test_bind_calls_csf_build_once_per_csf_input(monkeypatch):
    calls: list[tuple[int, ...]] = []
    real = executor.csf_build

    def counting(t, order):
        calls.append(tuple(order))
        return real(t, order)

    monkeypatch.setattr(executor, "csf_build", counting)
    inst = bench_generate("mttkrp1", extents=(5, 6, 7), rank=3, density=0.3, seed=1)
    _, sol = search_min_order(inst.tree)
    binding = bind(inst.tree, sol, inst.tensors, inst.dense_names)
    sparse = [n for n in inst.tree.input_names if n not in inst.dense_names]
    assert sparse and sorted(binding.csf) == sorted(sparse)
    assert calls == [sol.mode_perm(n) for n in sparse]
