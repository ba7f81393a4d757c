"""The benchmark's own checks, on smoke-size workloads.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import fusetree as ft
import pytest
from fusetree.errors import SolveTimeout

import harness
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _smoke_pass(name: str, seed: int = 3) -> harness.Pass:
    workload = workloads.GENERATORS[name](seed, smoke=True)
    tensors = harness.build_inputs(workload)
    return harness.run_pass(workload, tensors, check_minimal=workload.check_minimal)


def _failures(p: harness.Pass) -> set[str]:
    return {kind for out in p.ops for kind in out.failures}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(name):
    gen = workloads.GENERATORS[name]
    assert harness.input_digest(gen(5, smoke=True)) == harness.input_digest(gen(5, smoke=True))
    assert harness.input_digest(gen(5, smoke=True)) != harness.input_digest(gen(6, smoke=True))


@pytest.mark.parametrize("name", ("factor_sweep", "sparse_network", "solver_chains"))
def test_smoke_pass_is_clean(name):
    p = _smoke_pass(name)
    assert _failures(p) == set()
    assert all(out.multiply_adds > 0 for out in p.ops)


def test_small_networks_are_valid_trees_within_brute_force_limits():
    workload = workloads.small_networks(7)
    assert len({op.network for op in workload.ops}) == len(workload.ops) == 1000
    for op in workload.ops[:200]:
        tree = ft.parse_network(op.network)
        assert tree.m <= 3
        assert all(len(c.index_set) <= 5 for c in tree.contractions)


def test_verify_check_agrees_with_verify_solution():
    # a shape where the solver's witness and verify_solution have disagreed
    network = (
        "extent b 4\nextent d 3\nextent e 3\nextent g 2\n"
        "W[b,d,e,g] = A[b,d] * B[e,g]\nV[d,e] = C[e] * D[d]\nR[] = W[b,d,e,g] * V[d,e]\n"
    )
    tree = ft.parse_network(network)
    bound, sol = ft.search_min_order(tree)
    rng = workloads._rng(0, "small_networks")
    tensors = {
        name: ft.coo_from_entries(spec.entries, spec.shape)
        for name, spec in (
            (name, workloads.sparse_tensor(rng, tree.ref_shape(tree.abstract_ref(name)), 0.5))
            for name in tree.input_names
        )
    }
    op = workloads.OpSpec("disagree", network, tuple((n, n) for n in tree.input_names))
    out = harness.run_op(op, tensors)
    harness.check_op(out, check_minimal=True)
    assert ("verify" in out.failures) == bool(ft.verify_solution(tree, bound, sol))


def _plant_nan(monkeypatch):
    original = ft.execute

    def execute(ir, binding):
        result, stats = original(ir, binding)
        (coords, _), *rest = result.entries
        return ft.SparseTensor(result.shape, ((coords, float("nan")), *rest)), stats

    monkeypatch.setattr(ft, "execute", execute)


def _plant_wrong_value(monkeypatch):
    original = ft.execute

    def execute(ir, binding):
        result, stats = original(ir, binding)
        (coords, value), *rest = result.entries
        return ft.SparseTensor(result.shape, ((coords, value + 1.0), *rest)), stats

    monkeypatch.setattr(ft, "execute", execute)


def _plant_timeout(monkeypatch):
    def search_min_order(tree, *args, **kwargs):
        raise SolveTimeout(10.0)

    monkeypatch.setattr(ft, "search_min_order", search_min_order)


PLANTS = {
    "nan": (_plant_nan, "non_finite"),
    "wrong_value": (_plant_wrong_value, "mismatch"),
    "solve_timeout": (_plant_timeout, "exception"),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_fault_fails_every_op(monkeypatch, plant):
    install, kind = PLANTS[plant]
    install(monkeypatch)
    p = _smoke_pass("factor_sweep")
    assert all(kind in out.failures for out in p.ops)


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_fault_raises_fail_rate(monkeypatch, plant):
    install, kind = PLANTS[plant]
    install(monkeypatch)
    args = argparse.Namespace(workload="sparse_network", seed=4, seconds=0.0, trace=0, smoke=True, child=False)
    result = run.run_workload(args)
    fail = result["detail"]["fail_rate"]
    assert not result["correct"]
    assert fail["value"] > 0 and fail["failed"] == result["failed"] > 0
    assert fail["by_kind"][kind] > 0


def test_fingerprint_book_is_keyed_by_the_code(tmp_path):
    key = run.book_key("sparse_network", 4, True)
    assert key != run.book_key("sparse_network", 5, True)
    program = tmp_path / "src" / "fusetree"
    shutil.copytree(ROOT / "src" / "fusetree", program, ignore=shutil.ignore_patterns("__pycache__"))
    assert run.code_digest(program) == run.code_digest(ROOT / "src" / "fusetree")
    with open(program / "executor.py", "a") as f:
        f.write("\n# changed\n")
    assert run.code_digest(program) != run.code_digest(ROOT / "src" / "fusetree")


@pytest.mark.parametrize("same_code", [True, False])
def test_fingerprint_book_compares_only_runs_of_the_same_code(tmp_path, monkeypatch, same_code):
    monkeypatch.setattr(run, "FINGERPRINTS", tmp_path / "fingerprints.json")
    args = argparse.Namespace(workload="sparse_network", seed=4, seconds=0.0, trace=0, smoke=True, child=False)
    key = run.book_key(args.workload, args.seed, args.smoke)
    inputs = harness.input_digest(workloads.GENERATORS[args.workload](args.seed, smoke=True))
    n_ops = len(workloads.GENERATORS[args.workload](args.seed, smoke=True).ops)
    stale = key if same_code else key.rsplit("/", 2)[0] + "/other-program/other-bench"
    run.record_digests(stale, inputs, ["0" * 16] * n_ops)
    result = run.run_workload(args)
    if same_code:
        assert not result["correct"] and result["detail"]["fail_rate"]["by_kind"]["fingerprint"] > 0
    else:
        assert result["correct"] and result["failed"] == 0


def _run(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "2", "--seconds", "0", "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "sparse_network", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }


def test_benchmark_json_names_the_declared_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.DECLARED
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "factor_sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
