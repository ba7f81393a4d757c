"""Command-line front end: plan, run, verify, and bench.

Exit codes: 0 success/pass, 1 usage or validation error, 2 no schedule within
the bound limit, 3 verification or comparison failure, 4 the solver ran out of
its time budget at some bound (the message names the bound).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from .check import check_tolerances, compare, oracle_nary, oracle_unfused
from .constraints import (
    ScheduleSolution,
    report_text,
    search_min_order,
    verify_solution,
)
from .errors import (
    ExtentMismatchError,
    FusetreeError,
    InvalidExtentsError,
    MalformedSolutionError,
    SolveTimeout,
    TooLargeError,
    UnsatisfiableError,
)
from .executor import bind, execute
from .lowering import ir_to_json, lower, print_ir
from .network import ContractionTree, build_tree, parse_network
from .tensor import read_tns, write_tns

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSAT = 2
EXIT_MISMATCH = 3
EXIT_TIMEOUT = 4


def _with_root_layout(tree: ContractionTree, spec: str) -> ContractionTree:
    order = tuple(tok.strip() for tok in spec.replace(",", " ").split() if tok.strip())
    layouts = dict(tree.layouts)
    layouts[tree.root.result.tensor] = order
    return build_tree(tree.contractions, tree.extents, layouts)


def _load_tree(args) -> ContractionTree:
    text = Path(args.network).read_text()
    tree = parse_network(text)
    if getattr(args, "root_layout", None):
        tree = _with_root_layout(tree, args.root_layout)
    return tree


def _plan(tree: ContractionTree, args):
    l_max = getattr(args, "max_order", None)
    started = time.monotonic()
    bound, sol = search_min_order(tree, l_max=l_max)
    elapsed = time.monotonic() - started
    ir = lower(tree, sol)
    return bound, sol, ir, elapsed


def _emit_plan_outputs(tree, sol, ir, args) -> None:
    if getattr(args, "solution", None):
        doc = sol.to_json_dict(tree)
        Path(args.solution).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if getattr(args, "emit_ir", None):
        path = Path(args.emit_ir)
        if path.suffix == ".json":
            path.write_text(json.dumps(ir_to_json(ir), indent=2, sort_keys=True) + "\n")
        else:
            path.write_text(print_ir(ir, pretty=True) + "\n")


def cmd_plan(args) -> int:
    tree = _load_tree(args)
    bound, sol, ir, elapsed = _plan(tree, args)
    print(f"minimal workspace order: {bound}")
    print(report_text(tree, sol), end="")
    print("loop IR:")
    print(print_ir(ir, pretty=True))
    print(f"planning time: {elapsed:.3f}s", file=sys.stderr)
    _emit_plan_outputs(tree, sol, ir, args)
    return EXIT_OK


def _parse_synthetic(spec: str):
    try:
        exts, density, seed = spec.split(":")
        shape = tuple(int(n) for n in exts.lower().split("x"))
        return shape, float(density), int(seed)
    except ValueError:
        raise FusetreeError(
            f"bad synthetic spec {spec!r}; expected <e1>x<e2>x...:<density>:<seed>"
        ) from None


def _gather_tensors(tree: ContractionTree, args):
    tensors = {}
    for item in args.tensor or []:
        name, _, path = item.partition("=")
        if not path:
            raise FusetreeError(f"bad --tensor {item!r}; expected <id>=<path.tns>")
        if name in tensors:
            raise FusetreeError(f"tensor '{name}' supplied more than once")
        ref = tree.abstract_ref(name)
        shape = tree.ref_shape(ref)
        with open(path) as fh:
            tensors[name] = read_tns(fh, shape=shape)
    for item in args.synthetic or []:
        name, _, spec = item.partition("=")
        if not spec:
            raise FusetreeError(f"bad --synthetic {item!r}; expected <id>=<extents:density:seed>")
        if name in tensors:
            raise FusetreeError(f"tensor '{name}' supplied more than once")
        shape, density, seed = _parse_synthetic(spec)
        declared = tree.ref_shape(tree.abstract_ref(name))
        if shape != declared:
            raise ExtentMismatchError(
                f"synthetic shape {shape} for '{name}' differs from declared {declared}"
            )
        tensors[name] = bench_mod.synthetic_tensor(shape, density, bench_mod.seeded_rng(seed))
    missing = [n for n in tree.input_names if n not in tensors]
    if missing:
        raise FusetreeError(f"no tensor supplied for inputs: {', '.join(missing)}")
    return tensors


def _run_and_check(tree, sol, ir, tensors, dense_names, args) -> int:
    binding = bind(tree, sol, tensors, dense_names)
    result, stats = execute(ir, binding)
    print(f"result: {result.nnz} stored values, shape {result.shape}")
    print(f"multiply-adds: {stats.multiply_adds}")
    print(f"max workspace cells: {stats.max_workspace_cells}")
    if getattr(args, "stats", None):
        Path(args.stats).write_text(json.dumps(stats.to_json_dict(), indent=2, sort_keys=True) + "\n")
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            write_tns(result, fh)
    if getattr(args, "check", False):
        try:
            reference = oracle_nary(tree, tensors)
            route = "n-ary"
        except TooLargeError:
            reference, _ = oracle_unfused(tree, tensors)
            route = "unfused"
        report = compare(result, reference, rel_tol=args.rel_tol, abs_tol=args.abs_tol)
        print(f"check against {route} oracle: {report.message()}")
        if not report.passed:
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_run(args) -> int:
    if args.check:  # before anything is planned, printed or written
        check_tolerances(args.rel_tol, args.abs_tol)
    tree = _load_tree(args)
    bound, sol, ir, _ = _plan(tree, args)
    print(f"minimal workspace order: {bound}")
    _emit_plan_outputs(tree, sol, ir, args)
    tensors = _gather_tensors(tree, args)
    return _run_and_check(tree, sol, ir, tensors, tuple(args.dense or ()), args)


def _unique_keys(pairs: list) -> dict:
    # json.loads keeps the last of two equal keys, so a plan file could name
    # one contraction twice and be read as if it did not
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise MalformedSolutionError(f"key {json.dumps(key)} appears twice in one object")
        seen.add(key)
    return dict(pairs)


def cmd_verify(args) -> int:
    tree = _load_tree(args)
    doc = json.loads(Path(args.solution).read_text(), object_pairs_hook=_unique_keys)
    sol = ScheduleSolution.from_json_dict(doc)
    for name in sorted(sol.dp.keys() & set(tree.layout_constrained)):
        ref, given = tree.abstract_ref(name), doc["mode_orders"][name].get("indices")
        # a perm that is no permutation of the modes is a violation instead
        if sorted(sol.dp[name]) == list(range(len(ref.indices))):
            expected = list(sol.layout_indices(ref))
            if given != expected:
                raise MalformedSolutionError(
                    f"indices of tensor '{name}' must be {json.dumps(expected)}, "
                    f"the layout its perm gives, got {json.dumps(given)}"
                )
    violations = verify_solution(tree, sol.bound, sol)
    if violations:
        print(f"{len(violations)} violated constraints:")
        for v in violations:
            print(f"  {v}")
        return EXIT_MISMATCH
    print(f"solution satisfies all constraints at bound {sol.bound}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.check:
        check_tolerances(args.rel_tol, args.abs_tol)
    try:
        extents = tuple(int(n) for n in args.extents.lower().split("x"))
    except ValueError:
        raise InvalidExtentsError(f"bad --extents {args.extents!r}; expected <e1>x<e2>x...") from None
    if len(extents) == 1:
        extents = extents[0]
    inst = bench_mod.bench_generate(
        args.kind, extents=extents, rank=args.rank, density=args.density, seed=args.seed
    )
    tree = inst.tree
    if getattr(args, "root_layout", None):
        tree = _with_root_layout(tree, args.root_layout)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "network.net").write_text(inst.network_text)
        for name, tensor in sorted(inst.tensors.items()):
            with open(out / f"{name}.tns", "w") as fh:
                write_tns(tensor, fh)
        manifest = {
            "kind": inst.kind,
            "network": "network.net",
            "tensors": {name: f"{name}.tns" for name in sorted(inst.tensors)},
            "dense": list(inst.dense_names),
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    bound, sol, ir, elapsed = _plan(tree, args)
    print(f"kind: {inst.kind}")
    print(f"minimal workspace order: {bound}")
    print(f"planning time: {elapsed:.3f}s", file=sys.stderr)
    _emit_plan_outputs(tree, sol, ir, args)
    return _run_and_check(tree, sol, ir, inst.tensors, inst.dense_names, args)


def _add_common_plan_flags(p) -> None:
    p.add_argument("--max-order", type=int, default=None, help="largest workspace order to try")
    p.add_argument("--root-layout", default=None, help="pin the result layout, e.g. 'j,k,i'")
    p.add_argument("--emit-ir", default=None, help="write the loop IR (text, or JSON for *.json)")
    p.add_argument("--solution", default=None, help="write the schedule report as JSON")


def _add_check_flags(p) -> None:
    p.add_argument("--check", action="store_true", help="compare against a dense oracle")
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--abs-tol", type=float, default=0.0)
    p.add_argument("--stats", default=None, help="write execution stats as JSON")


def main(argv=None) -> int:
    # no option may be abbreviated: ``bench --out`` would read as ``--out-dir``
    parser = argparse.ArgumentParser(
        prog="fusetree",
        description="Schedule, fuse, and execute sparse tensor contraction trees.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = command("plan", "solve the scheduling constraints and print the loop IR")
    p.add_argument("--network", required=True)
    _add_common_plan_flags(p)
    p.set_defaults(func=cmd_plan)

    p = command("run", "plan, execute, and optionally check a network")
    p.add_argument("--network", required=True)
    p.add_argument("--tensor", action="append", help="<id>=<path.tns>", default=None)
    p.add_argument(
        "--synthetic", action="append", help="<id>=<extents:density:seed>", default=None
    )
    p.add_argument("--dense", action="append", help="bind this input as a dense array", default=None)
    p.add_argument("--out", default=None, help="write the result tensor (.tns)")
    _add_common_plan_flags(p)
    _add_check_flags(p)
    p.set_defaults(func=cmd_run)

    p = command("verify", "re-check a schedule report against the constraints")
    p.add_argument("--network", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--root-layout", default=None)
    p.set_defaults(func=cmd_verify)

    p = command("bench", "generate a synthetic benchmark and run it")
    p.add_argument("--kind", required=True, choices=bench_mod.KINDS)
    p.add_argument("--extents", default="30x40x50")
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--density", type=float, default=0.01)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=None, help="write network and tensors here")
    _add_common_plan_flags(p)
    _add_check_flags(p)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsatisfiableError as exc:
        print(f"unsat: {exc}", file=sys.stderr)
        return EXIT_UNSAT
    except SolveTimeout as exc:
        searched = f" (search nodes: {exc.nodes})" if exc.nodes is not None else ""
        print(f"timeout: {exc} at workspace order bound {exc.bound}{searched}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (FusetreeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
