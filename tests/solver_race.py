"""Race the bound searches of two solvers on the same trees.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python3 tests/solver_race.py --parent <path to another constraints.py> [--seed N]
        [--trees N] [--repeat K] [--budget S]

The file named by ``--parent``, typically ``src/fusetree/constraints.py`` of
another commit, is loaded as a sibling module of the installed ``fusetree``
package, so it shares that package's network parser and errors. Both
solvers run ``search_min_order`` on these cases:

- TTMc chains from perfbench's ``ttmc_chain``: the full chain on an order-4
  and on an order-5 tensor and a four-step chain on an order-6 tensor, each
  in a mode order drawn from the seed, with the result free, pinned in chain
  order and pinned in reverse;
- the first ``--trees`` trees that ``fuzz_solver.py`` draws from the seed.

Each case runs K times per side, the sides interleaved. Both must find the
same bound and print the same ``report_text``; a difference is described on
standard error and makes the exit status 1. A case that runs out of
``--budget`` seconds at some bound on either side runs once, is printed
with the bound and the search nodes of each timeout, and is not compared,
since a timeout depends on the machine. One line per other case prints the
best of K for each side, in milliseconds, and the change from ``--parent``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for perfbench

import fusetree.constraints as constraints
from conftest import load_sibling
from fusetree import parse_network
from fusetree.errors import SolveTimeout
from fuzz_solver import random_network
from perfbench.workloads import ttmc_chain


def cases(seed: int, trees: int):
    """(label, network text) of every case the race runs."""
    rng = random.Random(seed)
    for order, steps in ((4, 4), (5, 5), (6, 4)):
        modes = rng.sample(range(order), steps)
        for pin in (None, "chain", "reverse"):
            yield f"o{order} {''.join(map(str, modes))} {pin or 'free'}", ttmc_chain(order, modes, pin)
    rng = random.Random(seed)
    for n in range(trees):
        yield f"fuzz tree {n}", random_network(rng)


def run(side, tree, budget: float):
    """Seconds and outcome of one search: the bound and report, or the timeout."""
    start = time.perf_counter()
    try:
        bound, sol = side.search_min_order(tree, time_budget=budget)
    except SolveTimeout as exc:
        nodes = getattr(exc, "nodes", None)  # an older solver does not count them
        return time.perf_counter() - start, ("timeout", exc.bound, "" if nodes is None else f" ({nodes} nodes)")
    return time.perf_counter() - start, (bound, side.report_text(tree, sol))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="path of the constraints.py to race against")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trees", type=int, default=30, help="fuzz trees to race")
    ap.add_argument("--repeat", type=int, default=5, metavar="K", help="runs per case and side")
    ap.add_argument("--budget", type=float, default=2.0, help="seconds per bound")
    args = ap.parse_args(argv)
    sides = (load_sibling(args.parent, "fusetree._race_constraints"), constraints)
    failed = False
    print(f"{'case':<24}{'parent ms':>11}{'change ms':>11}{'change':>9}")
    for label, text in cases(args.seed, args.trees):
        tree = parse_network(text)
        best = [float("inf"), float("inf")]
        outcomes = [None, None]
        for _ in range(args.repeat):
            for k, side in enumerate(sides):
                seconds, outcomes[k] = run(side, tree, args.budget)
                best[k] = min(best[k], seconds)
            if any(out[0] == "timeout" for out in outcomes):
                break
        if any(out[0] == "timeout" for out in outcomes):
            shown = [f"timeout at bound {out[1]}{out[2]}" if out[0] == "timeout" else f"bound {out[0]}"
                     for out in outcomes]
            print(f"{label:<24}parent {shown[0]}; change {shown[1]}")
            continue
        if outcomes[0] != outcomes[1]:
            failed = True
            what = "bounds" if outcomes[0][0] != outcomes[1][0] else "reports"
            print(f"{label}: {what} differ", file=sys.stderr)
        change = (best[1] / best[0] - 1) * 100
        print(f"{label:<24}{best[0] * 1e3:>11.3f}{best[1] * 1e3:>11.3f}{change:>+8.1f}%")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
