"""Run workload ops through fusetree's public calls, check them, time them.

One op is one network taken through parse -> search_min_order -> lower ->
bind -> execute -> oracle -> compare, the sequence ``fusetree run --check``
follows. A pass runs every op of a workload once; its timed region holds only
those calls. The benchmark's own checks (finite values, verify_solution,
minimality, fingerprints) run after the pass, outside the timed region,
because ``compare`` alone passes NaN and inf.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import fusetree as ft
from fusetree.errors import SolveTimeout, TooLargeError

from workloads import Workload

FAILURE_KINDS = ("exception", "verify", "non_finite", "mismatch", "fingerprint", "not_minimal")


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id, note].

    ``note`` is the solve outcome (sat, unsat, timeout) for
    ``constraints.solve`` and the node count for ``tensor.csf_build``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    @contextmanager
    def interposed(self):
        """Wrap calls the program makes internally, so one search yields a
        span per bound and one bind a span per CSF tree."""
        patched = []
        for module_name, attr, span_name in (
            ("fusetree.constraints", "build_model", "constraints.build_model"),
            ("fusetree.constraints", "solve", "constraints.solve"),
            ("fusetree.executor", "csf_build", "tensor.csf_build"),
        ):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name))
            patched.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                try:
                    out = fn(*args, **kwargs)
                except SolveTimeout:
                    record[5] = "timeout"
                    raise
                if name == "constraints.solve":
                    record[5] = "unsat" if out is None else "sat"
                elif name == "tensor.csf_build":
                    record[5] = sum(len(level) for level in out.coords)
                return out

        return traced


def call(tracer: Tracer | None, name: str, fn, *args):
    if tracer is None:
        return fn(*args)
    with tracer.span(name):
        return fn(*args)


# ---------------------------------------------------------------------------
# ops


@dataclass
class OpOutcome:
    label: str
    total_s: float = 0.0
    plan_s: float = 0.0
    run_s: float = 0.0
    execute_s: float = 0.0
    check_s: float = 0.0
    tree: object = None
    bound: int = 0
    sol: object = None
    ir: object = None
    result: object = None
    stats: object = None
    reference: object = None
    report: object = None
    error: str | None = None
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    # counts kept after the pass; the objects above are dropped to bound memory
    multiply_adds: int = 0
    workspace_cells: int = 0
    result_nnz: int = 0
    compare_checked: int = 0
    ir_nodes: int = 0
    ir_wheres: int = 0
    unfused_cells: int = 0  # from oracle_unfused, traced passes only

    def compact(self) -> None:
        if self.error is None:
            self.multiply_adds = self.stats.multiply_adds
            self.workspace_cells = self.stats.max_workspace_cells
            self.result_nnz = self.result.nnz
            self.compare_checked = self.report.checked
            self.ir_nodes, self.ir_wheres = ir_size(self.ir)
        self.tree = self.sol = self.ir = self.result = self.stats = self.reference = self.report = None


def build_inputs(workload: Workload, tracer: Tracer | None = None) -> dict:
    """Turn the workload's coordinate lists into program tensors."""
    return {
        key: call(tracer, "tensor.coo_build", ft.coo_from_entries, spec.entries, spec.shape)
        for key, spec in workload.tensors.items()
    }


def op_tensors(op, tensors: dict) -> dict:
    """The op's inputs, by the names its network uses."""
    return {name: tensors[key] for name, key in op.inputs}


def run_op(op, tensors: dict, tracer: Tracer | None = None) -> OpOutcome:
    """The timed sequence for one op. Exceptions are caught and recorded."""
    out = OpOutcome(op.label)
    bound_tensors = op_tensors(op, tensors)
    t0 = perf_counter()
    try:
        out.tree = tree = call(tracer, "network.parse", ft.parse_network, op.network)
        out.bound, out.sol = call(tracer, "constraints.search", ft.search_min_order, tree)
        out.ir = call(tracer, "lowering.lower", ft.lower, tree, out.sol)
        t1 = perf_counter()
        binding = call(tracer, "executor.bind", ft.bind, tree, out.sol, bound_tensors, op.dense)
        t2 = perf_counter()
        out.result, out.stats = call(tracer, "executor.execute", ft.execute, out.ir, binding)
        t3 = perf_counter()
        try:
            out.reference = call(tracer, "executor.oracle_nary", ft.oracle_nary, tree, bound_tensors)
        except TooLargeError:
            out.reference, _ = call(tracer, "executor.oracle_unfused", ft.oracle_unfused, tree, bound_tensors)
        out.report = call(tracer, "executor.compare", ft.compare, out.result, out.reference)
        t4 = perf_counter()
    except Exception:  # one failing op must not stop the run; it is counted
        out.error = traceback.format_exc(limit=2)
        out.total_s = perf_counter() - t0
        return out
    out.plan_s, out.run_s, out.execute_s, out.check_s = t1 - t0, t3 - t1, t3 - t2, t4 - t3
    out.total_s = t4 - t0
    return out


# ---------------------------------------------------------------------------
# checks, outside the timed region


def _finite(tensor) -> bool:
    return all(math.isfinite(v) for _, v in tensor.entries)


def output_digest(out: OpOutcome) -> str:
    text = "\n".join(
        [
            str(out.bound),
            ft.report_text(out.tree, out.sol),
            ft.print_ir(out.ir, pretty=True),
            str(out.stats.multiply_adds),
            str(out.stats.max_workspace_cells),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def input_digest(workload: Workload) -> str:
    h = hashlib.sha256()
    for op in workload.ops:
        h.update(f"{op.label}\n{op.network}\n{op.inputs}\n{op.dense}\n".encode())
    for key in sorted(workload.tensors):
        spec = workload.tensors[key]
        h.update(f"{key}{spec.shape}".encode())
        for coords, value in spec.entries:
            h.update(f"{coords}{value.hex()}".encode())
    return h.hexdigest()[:16]


def check_op(out: OpOutcome, check_minimal: bool, tracer: Tracer | None = None) -> None:
    """Fill ``out.failures`` and ``out.digest``."""
    if out.error is not None:
        out.failures.append("exception")
        return
    if not (_finite(out.result) and _finite(out.reference)):
        out.failures.append("non_finite")
    if not out.report.passed:
        out.failures.append("mismatch")
    if call(tracer, "constraints.verify", ft.verify_solution, out.tree, out.bound, out.sol):
        out.failures.append("verify")
    if check_minimal and out.bound > 1 and ft.brute_force_sat(out.tree, out.bound - 1):
        out.failures.append("not_minimal")
    out.digest = output_digest(out)


def ir_size(node) -> tuple[int, int]:
    """(nodes, where nodes) of a loop IR tree."""
    if isinstance(node, ft.Forall):
        n, w = ir_size(node.body)
        return n + 1, w
    if isinstance(node, ft.Where):
        n1, w1 = ir_size(node.consumer)
        n2, w2 = ir_size(node.producer)
        return n1 + n2 + 1, w1 + w2 + 1
    return 1, 0


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall_s: float
    ops: list[OpOutcome]
    traced: bool = False
    first_span: int = 0  # index of this pass's first span in the tracer
    last_span: int = 0


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of dict, tuple and call work:
    how fast the host runs interpreter code right now. The garbage
    collector is off meanwhile, so the program's heap cannot slow it."""
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(20000):
            key = (i * 7919 & 1023, i & 7)
            table[key] = table.get(key, 0) + len(key)
        sorted(table.items())
        return perf_counter() - t0
    finally:
        gc.enable()


def run_pass(workload: Workload, tensors: dict, tracer: Tracer | None = None, check_minimal: bool = False) -> Pass:
    first = len(tracer.spans) if tracer else 0
    outs = []
    t0 = perf_counter()
    for op in workload.ops:
        if tracer is None:
            outs.append(run_op(op, tensors))
            continue
        tracer.op = op.label
        with tracer.span("bench.op"):
            outs.append(run_op(op, tensors, tracer))
    wall = perf_counter() - t0
    for op, out in zip(workload.ops, outs):
        if tracer is not None:
            tracer.op = op.label
            with tracer.span("bench.checks"):
                check_op(out, check_minimal, tracer)
                if out.error is None:
                    _, info = call(
                        tracer, "executor.oracle_unfused", ft.oracle_unfused, out.tree, op_tensors(op, tensors)
                    )
                    out.unfused_cells = info["max_intermediate_cells"]
        else:
            check_op(out, check_minimal)
        out.compact()
    return Pass(wall, outs, tracer is not None, first, len(tracer.spans) if tracer else 0)


def mark_fingerprints(passes: list[Pass], expected: list[str] | None) -> None:
    """Count an op whose output digest differs from ``expected`` (default:
    the first pass's) as failed."""
    reference = expected or [out.digest for out in passes[0].ops]
    for p in passes:
        for out, want in zip(p.ops, reference):
            if out.error is None and want and out.digest != want and "fingerprint" not in out.failures:
                out.failures.append("fingerprint")
