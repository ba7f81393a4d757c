"""Line counts of one generated kernel: how often each source line ran.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python3 tests/kernel_lines.py --kind running_example --seed 1

The bench instance of ``--kind`` (``--extents``, ``--rank``, ``--density``
and ``--seed`` as in ``fusetree bench``) is planned at its minimal bound and
its kernel run once under ``sys.settrace``. Every line of the kernel source
is printed after the number of line events it raised, then the total. A
tail that runs as one numpy statement (a block, see ``fusetree.executor``)
raises one line event per visit, however many multiply-adds it makes.
``--total`` prints the total alone. ``--repeat K`` then runs ``execute`` K
more times untraced and prints the best of those times, for example

    PYTHONPATH=src python3 tests/kernel_lines.py --kind running_example \
        --extents 200 --density 1e-4 --seed 1 --total --repeat 20
"""

from __future__ import annotations

import argparse
import sys
import time

from fusetree import bench_generate, bind, execute, lower, search_min_order
from fusetree.executor import _plan, _render, _signature

KERNEL_FILE = "<fusetree kernel>"


def line_counts(ir, binding):
    """The kernel source of ``ir`` under ``binding``, the line events each of
    its lines raised in one ``execute`` call, and that call's outcome."""
    source = _render(_plan(*_signature(ir, binding))).splitlines()
    counts = [0] * len(source)

    def local(frame, event, arg):
        if event == "line":
            counts[frame.f_lineno - 1] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == KERNEL_FILE else None

    sys.settrace(tracer)
    try:
        outcome = execute(ir, binding)
    finally:
        sys.settrace(None)
    return source, counts, outcome


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", required=True)
    ap.add_argument("--extents", default="30x40x50")
    ap.add_argument("--rank", type=int, default=8)
    ap.add_argument("--density", type=float, default=0.01)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--total", action="store_true", help="print only the total of line events")
    ap.add_argument("--repeat", type=int, default=0, metavar="K", help="print the best of K untraced executes")
    args = ap.parse_args(argv)
    extents = [int(n) for n in args.extents.split("x")]
    inst = bench_generate(args.kind, extents, args.rank, args.density, args.seed)
    _, sol = search_min_order(inst.tree)
    ir = lower(inst.tree, sol)
    binding = bind(inst.tree, sol, inst.tensors, inst.dense_names)
    source, counts, _ = line_counts(ir, binding)
    if not args.total:
        for count, line in zip(counts, source):
            print(f"{count:>9}  {line}")
    print(f"total {sum(counts)} line events")
    if args.repeat > 0:
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            execute(ir, binding)
            best = min(best, time.perf_counter() - start)
        print(f"execute best of {args.repeat}: {best * 1e3:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
