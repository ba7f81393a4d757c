"""fusetree benchmark: one workload per process, seeded inputs, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload factor_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it (``record: {...}``) holds every metric, the failure breakdown, the tail
percentile with its sample count, and the machine; the same record is written
under ``perfbench/out/``. See perfbench/README.md for the workloads and the
metric-to-layer map.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # setup_s counts from here: before numpy and fusetree load

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DECLARED = ("factor_sweep", "sparse_network", "solver_chains")  # the workloads BENCHMARK.json names
WORKLOADS = DECLARED + ("small_networks", "solver_limits")
WARMUP_PASSES = 2  # the cold pass and one more are never timed as warm
MIN_WARM_PASSES = 3
MAX_MEASURE_S = 60.0  # stop adding passes after this, whatever the tail needs
# Times are reported in reference seconds: measured seconds scaled by how long
# the host takes, during the same run, for harness.calibrate() against the
# time that defines the reference machine. Raw seconds stay in the record.
REFERENCE_CALIBRATION_S = 0.005
CALIBRATION_SAMPLES = 5

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"


def _import_program():
    """Import fusetree from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "fusetree" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import fusetree

    if Path(fusetree.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported fusetree from {fusetree.__file__}, expected {package}")


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# untraced metrics


def pass_sums(p) -> dict:
    ok = [o for o in p.ops if o.error is None]
    return {
        "plan_s": sum(o.plan_s for o in ok),
        "run_s": sum(o.run_s for o in ok),
        "check_s": sum(o.check_s for o in ok),
        "execute_s": sum(o.execute_s for o in ok),
        "multiply_adds": sum(o.multiply_adds for o in ok),
        "workspace_cells": sum(o.workspace_cells for o in ok),
    }


def speed_scale(calibration: list[float]) -> float:
    """Reference seconds per measured second. Means on both sides: a burst
    of contention slows a pass and the calibration samples around it in
    proportion, while medians of long passes and of short samples would
    react to bursts differently."""
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibration)


def to_reference(metrics: dict, scale: float) -> dict:
    """Seconds become reference seconds; rates per second are divided."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit == "s":
            value *= scale
        elif unit == "1/s":
            value /= scale
        out[name] = (value, unit)
    return out


def end_to_end(workload, warm, setups, colds, scale) -> tuple[dict, dict]:
    """``setups`` and ``colds`` are already in reference seconds, one per process."""
    sums = [pass_sums(p) for p in warm]
    op_times = [o.total_s for p in warm for o in p.ops]
    per_op = [_mean([p.ops[k].total_s for p in warm]) for k in range(len(workload.ops))]
    total = lambda key: sum(s[key] for s in sums)
    measured = {
        "pass_s": (_mean([p.wall_s for p in warm]), "s"),
        "op_p50_s": (_median(per_op), "s"),
        "op_tail_s": (nearest_rank(op_times, workload.tail_pct), "s"),  # record only
        "plan_s": (total("plan_s") / len(sums), "s"),
        "run_s": (total("run_s") / len(sums), "s"),
        "check_s": (total("check_s") / len(sums), "s"),
        "madds_per_s": (total("multiply_adds") / total("execute_s") if total("execute_s") else 0.0, "1/s"),
    }
    metrics = {"setup_s": (_median(setups), "s"), "cold_pass_s": (_median(colds), "s")}
    metrics.update(to_reference(measured, scale))
    op_tail_s = metrics.pop("op_tail_s")[0]
    metrics.update(
        {
            "multiply_adds": (sums[0]["multiply_adds"], "count"),
            "workspace_cells": (sums[0]["workspace_cells"], "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    )
    detail = {
        "op_tail": {
            "op_tail_s": op_tail_s,
            "percentile": workload.tail_pct,
            "samples": len(op_times),
            "samples_beyond": beyond(len(op_times), workload.tail_pct),
        },
        "measured_seconds": {name: value for name, (value, _) in measured.items()},
        "setup_samples_ref_s": setups,
        "cold_pass_samples_ref_s": colds,
        "warm_passes": len(warm),
        "pass_samples_s": [p.wall_s for p in warm],
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# traced metrics


def layer_metrics(p, spans: list[list]) -> dict:
    """Per-layer numbers of one traced pass, from its spans and outputs.

    Only spans inside the timed ops count, except for ``verify_s`` and
    ``oracle_unfused_s``, which also count the calls the checks make after
    the ops (``verify_solution`` builds a model of its own, for one).
    """
    own = spans[p.first_span : p.last_span]
    offset = p.first_span
    dur: dict[str, float] = {}  # spans under bench.op
    checks: dict[str, float] = {}  # spans under bench.checks
    count: dict[str, int] = {}
    root: list[int] = []
    self_s = dict.fromkeys(("network", "constraints", "lowering", "tensor", "executor"), 0.0)
    child_time = [0.0] * len(own)
    for k, (name, start, end, parent, _, note) in enumerate(own):
        root.append(k if parent is None else root[parent - offset])
        if parent is not None:
            child_time[parent - offset] += end - start
        if own[root[k]][0] != "bench.op":
            checks[name] = checks.get(name, 0.0) + (end - start)
            continue
        key = name if name != "constraints.solve" else f"constraints.solve.{note}"
        dur[key] = dur.get(key, 0.0) + (end - start)
        count[key] = count.get(key, 0) + 1
        if name == "tensor.csf_build":
            count["csf_nodes"] = count.get("csf_nodes", 0) + note
    for k, (name, start, end, *_rest) in enumerate(own):
        module = name.split(".")[0]
        if module in self_s and own[root[k]][0] == "bench.op":
            self_s[module] += (end - start) - child_time[k]
    ok = [o for o in p.ops if o.error is None]
    madds = sum(o.multiply_adds for o in ok)
    fused = sum(o.workspace_cells for o in ok)
    unfused = sum(o.unfused_cells for o in ok)
    execute_s = dur.get("executor.execute", 0.0)
    solve = lambda outcome: dur.get(f"constraints.solve.{outcome}", 0.0)
    solves = lambda outcome: count.get(f"constraints.solve.{outcome}", 0)
    out = {
        "network.parse_s": dur.get("network.parse", 0.0),
        "constraints.search_s": dur.get("constraints.search", 0.0),
        "constraints.build_model_s": dur.get("constraints.build_model", 0.0),
        "constraints.unsat_proof_s": solve("unsat"),
        "constraints.sat_s": solve("sat"),
        "constraints.bounds_tried": solves("sat") + solves("unsat") + solves("timeout"),
        "constraints.unsat_bounds": solves("unsat"),
        "constraints.timeouts": solves("timeout"),
        "constraints.verify_s": checks.get("constraints.verify", 0.0),
        "lowering.lower_s": dur.get("lowering.lower", 0.0),
        "lowering.ir_nodes": sum(o.ir_nodes for o in ok),
        "lowering.ir_wheres": sum(o.ir_wheres for o in ok),
        "tensor.csf_build_s": dur.get("tensor.csf_build", 0.0),
        "tensor.csf_nodes": count.get("csf_nodes", 0),
        "executor.bind_s": dur.get("executor.bind", 0.0),
        "executor.execute_s": execute_s,
        "executor.madds_per_s": madds / execute_s if execute_s > 0 else 0.0,
        "executor.result_nnz": sum(o.result_nnz for o in ok),
        "executor.workspace_cells": fused,
        "executor.unfused_cells": unfused,
        "executor.workspace_saving": unfused / fused if fused else 0.0,
        "executor.oracle_nary_s": dur.get("executor.oracle_nary", 0.0),
        "executor.oracle_unfused_s": dur.get("executor.oracle_unfused", 0.0) + checks.get("executor.oracle_unfused", 0.0),
        "executor.compare_s": dur.get("executor.compare", 0.0),
        "executor.compare_checked": sum(o.compare_checked for o in ok),
    }
    out.update({f"{module}.self_s": value for module, value in self_s.items()})
    return out


def _unit(name: str) -> str:
    if name.endswith("madds_per_s"):
        return "1/s"
    if name.endswith("workspace_saving"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def per_layer(traced, untraced, spans, coo_build_s, scale) -> tuple[dict, dict]:
    rows = [layer_metrics(p, spans) for p in traced]
    metrics = {name: (_mean([r[name] for r in rows]), _unit(name)) for name in rows[0]}
    metrics["tensor.coo_build_s"] = (coo_build_s, "s")
    traced_pass = _mean([p.wall_s for p in traced])
    untraced_pass = _mean([p.wall_s for p in untraced])
    metrics["trace.overhead_s"] = (traced_pass - untraced_pass, "s")
    metrics = to_reference(metrics, scale)
    detail = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_pass_s": traced_pass,
        "untraced_pass_s": untraced_pass,
        "workspace_saving_bases": {
            "unfused_cells": metrics["executor.unfused_cells"][0],
            "fused_cells": metrics["executor.workspace_cells"][0],
        },
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# run record


def code_digest(directory: Path) -> str:
    """Digest of the Python sources directly in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def run_record() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit or "unknown",
        "source_sha256": code_digest(ROOT / "src" / "fusetree"),
        "bench_sha256": code_digest(HERE),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# fingerprints kept between runs of the same code in this checkout


FINGERPRINTS = OUT_DIR / "fingerprints.json"


def _fingerprint_book() -> dict:
    try:
        return json.loads(FINGERPRINTS.read_text())
    except (OSError, ValueError):
        return {}


def book_key(workload: str, seed: int, smoke: bool) -> str:
    """Runs share a book entry only if both the program's sources and the
    benchmark's own are unchanged: another program may rightly find another
    witness or IR, and another generator other inputs."""
    size = "smoke" if smoke else "full"
    return f"{workload}/{seed}/{size}/{code_digest(ROOT / 'src' / 'fusetree')}/{code_digest(HERE)}"


def expected_digests(key: str, inputs: str, n_ops: int) -> list[str] | None:
    """Output digests an earlier correct run of the same code, workload and
    seed recorded in this checkout; a changed input digest fails every op."""
    entry = _fingerprint_book().get(key)
    if entry is None:
        return None
    if entry["inputs"] != inputs:
        return ["inputs-changed"] * n_ops
    return entry["outputs"]


def record_digests(key: str, inputs: str, outputs: list[str]) -> None:
    book = _fingerprint_book()
    book[key] = {"inputs": inputs, "outputs": outputs}
    OUT_DIR.mkdir(exist_ok=True)
    tmp = FINGERPRINTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    tmp.replace(FINGERPRINTS)


# ---------------------------------------------------------------------------
# one workload


def _spawn_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--child"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    import harness
    import workloads

    t0 = time.perf_counter()
    workload = workloads.GENERATORS[args.workload](args.seed, smoke=args.smoke)
    generate_s = time.perf_counter() - t0  # the benchmark's own work, not the program's
    tracer = harness.Tracer() if args.trace else None
    tensors = harness.build_inputs(workload, tracer)
    setup_s = time.perf_counter() - T_START - generate_s
    coo_build_s = sum(s[2] - s[1] for s in tracer.spans) if tracer else 0.0
    inputs = harness.input_digest(workload)

    cold_calibration = [harness.calibrate() for _ in range(CALIBRATION_SAMPLES)]
    cold = harness.run_pass(workload, tensors, check_minimal=workload.check_minimal)
    cold_calibration += [harness.calibrate() for _ in range(CALIBRATION_SAMPLES)]
    cold_scale = speed_scale(cold_calibration)
    first_digests = [o.digest for o in cold.ops]
    if args.child:
        return {
            "setup_s": setup_s * cold_scale,
            "cold_pass_s": cold.wall_s * cold_scale,
            "generate_s": generate_s,
            "inputs": inputs,
            "digests": first_digests,
            "failures": [o.failures for o in cold.ops],
        }

    attempted = len(cold.ops)
    extra_failures: list[list[str]] = []
    setups, colds = [setup_s * cold_scale], [cold.wall_s * cold_scale]
    generates = [generate_s]
    if not args.trace:
        for _ in range(workload.children):
            child = _spawn_child(args)
            setups.append(child["setup_s"])
            colds.append(child["cold_pass_s"])
            generates.append(child["generate_s"])
            attempted += len(child["digests"])
            for failures, digest, mine in zip(child["failures"], child["digests"], first_digests):
                kinds = list(failures)
                if child["inputs"] != inputs or (digest and mine and digest != mine):
                    kinds.append("fingerprint")
                extra_failures.append(kinds)

    passes = [cold]
    untraced, traced = [], []
    calibration = []  # one sample before each pass and one after the last
    need_ops = math.ceil(10 / (1.0 - workload.tail_pct / 100.0)) + 1
    min_warm = max(MIN_WARM_PASSES, math.ceil(need_ops / len(workload.ops)))
    started = time.perf_counter()
    per_kind = 2 if args.trace else 1  # traced runs alternate untraced and traced passes
    while True:
        elapsed = time.perf_counter() - started
        warm = len(passes) - WARMUP_PASSES
        if warm >= per_kind and (elapsed >= MAX_MEASURE_S or (elapsed >= args.seconds and warm >= min_warm * per_kind)):
            break
        calibration += [harness.calibrate() for _ in range(CALIBRATION_SAMPLES)]
        timed_traced = args.trace and len(passes) >= WARMUP_PASSES and len(passes) % 2 == 1
        if timed_traced:
            with tracer.interposed():
                p = harness.run_pass(workload, tensors, tracer)
            traced.append(p)
        else:
            p = harness.run_pass(workload, tensors)
            if len(passes) >= WARMUP_PASSES:
                untraced.append(p)
        passes.append(p)
    calibration.append(harness.calibrate())
    scale = speed_scale(calibration)

    key = book_key(workload.name, args.seed, args.smoke)
    expected = expected_digests(key, inputs, len(first_digests))
    harness.mark_fingerprints(passes, expected)

    attempted += sum(len(p.ops) for p in passes[1:])
    op_failures = [o.failures for p in passes for o in p.ops] + extra_failures
    failed = sum(1 for kinds in op_failures if kinds)
    by_kind = {kind: sum(kind in kinds for kinds in op_failures) for kind in harness.FAILURE_KINDS}
    errors = sorted({o.error.strip().splitlines()[-1] for p in passes for o in p.ops if o.error})
    if expected is None and failed == 0:
        record_digests(key, inputs, first_digests)

    if args.trace:
        metrics, detail = per_layer(traced, untraced, tracer.spans, coo_build_s, scale)
        write_trace(args, tracer.spans, passes)
    else:
        metrics, detail = end_to_end(workload, untraced, setups, colds, scale)
    detail.update(
        {
            "fail_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted, "by_kind": by_kind},
            "errors": errors,
            "generate_samples_s": generates,
            "input_digest": inputs,
            "output_digests": first_digests,
            "ops_per_pass": len(workload.ops),
            "calibration_s": calibration,
            "speed_scale": scale,
        }
    )
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
        "record": run_record(),
    }


def write_trace(args, spans, passes) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    doc = {
        "fields": ["name", "start_s", "end_s", "parent", "op", "note"],
        "passes": [[p.first_span, p.last_span] for p in passes if p.traced],
        "spans": [[n, round(s - t0, 9), round(e - t0, 9), parent, op, note] for n, s, e, parent, op, note in spans],
    }
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# every workload, one process each


def run_all(args) -> int:
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        record = json.loads(proc.stdout.strip().splitlines()[-2].removeprefix("record: "))
        rows[name] = record
        fail = record["detail"]["fail_rate"]
        print(f"== {name}  correct={record['correct']}")
        print(f"   {'fail_rate':28s} {fail['value']:.6g} ratio  ({fail['failed']} of {fail['attempted']} ops failed; "
              f"by kind {fail['by_kind']})")
        for metric, entry in record["metrics"].items():
            print(f"   {metric:28s} {entry['value']:.6g} {entry['unit']}")
        if "op_tail" in record["detail"]:
            tail = record["detail"]["op_tail"]
            print(f"   {'op_tail_s':28s} {tail['op_tail_s']:.6g} s  (p{tail['percentile']:g} of {tail['samples']} ops, "
                  f"{tail['samples_beyond']} beyond it; record only)")
    # The result line covers the declared workloads only; the diagnostics
    # fail by design (see README.md) and are summed on the line before it.
    declared = [rows[name] for name in DECLARED]
    diagnostics = [rows[name] for name in WORKLOADS if name not in DECLARED]
    print("diagnostics: " + json.dumps({
        "workloads": [r["workload"] for r in diagnostics],
        "attempted": sum(r["attempted"] for r in diagnostics),
        "failed": sum(r["failed"] for r in diagnostics),
    }))
    summary = {
        "correct": all(r["correct"] for r in declared),
        "attempted": sum(r["attempted"] for r in declared),
        "failed": sum(r["failed"] for r in declared),
        "metrics": {f"{r['workload']}.{m}": e for r in declared for m, e in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the warm measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    if args.child:
        print(json.dumps(result))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
    print("record: " + json.dumps(result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
