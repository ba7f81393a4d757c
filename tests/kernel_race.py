"""Race the kernels of two executors on the same operands.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python3 tests/kernel_race.py --parent <path to another executor.py> [--seed N] [--repeat K]
        [--extents 2000x3000x4000 --rank 8 --density 2e-6]

The file named by ``--parent``, typically ``src/fusetree/executor.py`` of
another commit, is loaded as a sibling module of the installed ``fusetree``
package, so it shares that package's lowering, tensors and errors. Both
executors compile the kernels of these cases, each bound once:

- the 8 bench kinds at the bench defaults (30x40x50, rank 8, density 0.01),
  planned at their minimal bound; ``--extents``, ``--rank`` and
  ``--density`` set the six factor kinds' sizes, as in ``fusetree bench``;
- the ``RANK_OUTER`` witnesses of ``test_kernel.py`` (4x5x6, rank 2,
  density 0.3), whose workspaces track their written cells;
- the running example at 800 nonzeros per input for n = 25, 200 and 400,
  at its minimal bound.

Each case's two kernels run interleaved, K times each, on the same
operands, bound once by the installed ``bind``. An older executor that keeps
no dense records (it has no ``dense_build``) is handed each dense operand's
flat tuple, and its kernel builds what it needs of it on every call. A
kernel allocates its own root accumulator; one of an older executor, whose
first parameter is ``acc``, is handed a fresh one, allocated as that
executor's ``execute`` allocates it (by ``_accumulator`` where it has one,
else a flat list, or a dict for a root of more than ``ROOT_DENSE_CELLS``
cells) before its timer starts, while a kernel's own allocation is timed
with it. Their accumulators must hold the same nonzero cells bit for bit,
whether a list, an ndarray or a dict (a cell of +0.0 and an absent key both
read as zero in the result), and their counters must be equal; a
difference is described on standard error and makes the exit status 1. One
line per case prints the best of K for each side, in milliseconds, and the
change from ``--parent``.
"""

from __future__ import annotations

import argparse
import inspect
import math
import struct
import sys
import time
from collections import defaultdict

import numpy as np

import fusetree.executor as executor
from fusetree import bench_generate, bind, lower, search_min_order
from fusetree.bench import _FACTOR_FORMS, KINDS
from fusetree.tensor import DenseTensor
from conftest import load_sibling
from test_kernel import RANK_OUTER, _witness


def cases(seed: int, sizes: dict):
    """(label, bench instance, schedule) of every case the race runs; the
    factor kinds take ``sizes``, the keyword arguments of ``bench_generate``."""
    for kind in KINDS:
        inst = bench_generate(kind, seed=seed, **(sizes if kind in _FACTOR_FORMS else {}))
        yield kind, inst, search_min_order(inst.tree)[1]
    for kind, loops in RANK_OUTER.items():
        inst = bench_generate(kind, extents=(4, 5, 6), rank=2, density=0.3, seed=seed)
        yield f"{kind} rank outer", inst, _witness(inst.tree, loops)
    for n in (25, 200, 400):
        inst = bench_generate("running_example", extents=n, density=800 / n**3, seed=seed)
        yield f"running_example n={n}", inst, search_min_order(inst.tree)[1]


def accumulator(side, kernel):
    """A fresh root accumulator for an older ``kernel``, which takes it as
    its ``acc`` parameter, allocated as ``side``'s ``execute`` allocates it."""
    if hasattr(side, "_accumulator"):
        return side._accumulator(kernel)
    cells = math.prod(kernel.shape)
    return [0.0] * cells if cells <= side.ROOT_DENSE_CELLS or not kernel.shape else defaultdict(float)


ZERO = struct.pack("<d", 0.0)


def bits(acc) -> tuple:
    """The accumulator's cells other than +0.0 as raw float64 bits, so -0.0
    differs from 0.0."""
    if isinstance(acc, np.ndarray):
        acc = acc.tolist()
    items = acc.items() if isinstance(acc, dict) else enumerate(acc)
    return tuple((key, b) for key, value in sorted(items) if (b := struct.pack("<d", value)) != ZERO)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="path of the executor.py to race against")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=15, metavar="K", help="runs per kernel and side")
    ap.add_argument("--extents", default="30x40x50", help="of the factor kinds")
    ap.add_argument("--rank", type=int, default=8, help="of the factor kinds")
    ap.add_argument("--density", type=float, default=0.01, help="of the factor kinds")
    args = ap.parse_args(argv)
    sizes = {"extents": [int(n) for n in args.extents.split("x")], "rank": args.rank, "density": args.density}
    parent = load_sibling(args.parent, "fusetree._race_parent")
    failed = False
    print(f"{'case':<28}{'parent ms':>11}{'change ms':>11}{'change':>9}")
    for label, inst, sol in cases(args.seed, sizes):
        ir = lower(inst.tree, sol)
        binding = bind(inst.tree, sol, inst.tensors, inst.dense_names)
        sides = (parent, executor)
        kernels = [side._kernel(*side._signature(ir, binding)) for side in sides]

        def run(side, kernel):
            args = [binding.operands[name] for name in kernel.operands]
            if not hasattr(side, "dense_build"):
                args = [x.values if isinstance(x, DenseTensor) else x for x in args]
            if "acc" in inspect.signature(kernel.run).parameters:
                args.insert(0, accumulator(side, kernel))
            start = time.perf_counter()
            acc, counts = kernel.run(*args)
            return time.perf_counter() - start, bits(acc), counts

        best = [float("inf"), float("inf")]
        outcomes = [None, None]
        for _ in range(args.repeat):
            for k, (side, kernel) in enumerate(zip(sides, kernels)):
                seconds, *outcome = run(side, kernel)
                best[k] = min(best[k], seconds)
                outcomes[k] = outcome
        if outcomes[0] != outcomes[1]:
            failed = True
            what = "accumulators" if outcomes[0][0] != outcomes[1][0] else "counters"
            print(f"{label}: {what} differ", file=sys.stderr)
        change = (best[1] / best[0] - 1) * 100
        print(f"{label:<28}{best[0] * 1e3:>11.3f}{best[1] * 1e3:>11.3f}{change:>+8.1f}%")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
