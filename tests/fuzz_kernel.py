"""Seeded kernel fuzz: random trees, six binding kinds, every satisfiable bound.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python3 tests/fuzz_kernel.py --seed 1 --trees 300

Trees come from ``conftest.random_tree`` (1-3 contractions, extents 2-4).
Each tree's inputs are drawn in six binding kinds:

- ``sparse``: every input sparse at density 0.3;
- ``mixed``: every second input dense, the others sparse;
- ``dense``: every input full and bound dense;
- ``zero``: as ``sparse``, with the first input empty;
- ``single``: every input holds one non-zero;
- ``holes``: every input bound dense, with a slice of its first mode and a
  few more cells exactly zero, so that hoisted zero tests skip inner loops.

Every bound from 1 to the largest intermediate order is solved. Each
satisfiable bound's schedule must pass ``verify_solution``, and its kernel's
result must match ``oracle_nary`` and ``oracle_unfused`` and its multiply-adds
per result must equal ``conftest.nonzero_products``. One line is printed per
tree: its number, its size, the bounds it ran and the multiply-adds per kind.
The last line counts the runs. The exit status is 1 on any mismatch or
violation, each of which is described on standard error. ``--show N`` prints
the network of tree N instead.
"""

from __future__ import annotations

import argparse
import random
import sys

import numpy as np

from conftest import nonzero_products, random_tree
from fusetree import (
    bind,
    compare,
    coo_from_entries,
    execute,
    format_network,
    lower,
    oracle_nary,
    oracle_unfused,
    solve,
    synthetic_tensor,
    verify_solution,
)

KINDS = ("sparse", "mixed", "dense", "zero", "single", "holes")


def draw_inputs(tree, kind: str, rng: np.random.Generator):
    """The input tensors of one binding kind, and the names bound dense."""
    tensors, dense = {}, []
    for k, name in enumerate(tree.input_names):
        shape = tree.ref_shape(tree.abstract_ref(name))
        if kind == "single":
            t = synthetic_tensor(shape, 1e-9, rng)
        elif kind in ("dense", "holes") or (kind == "mixed" and k % 2):
            t = synthetic_tensor(shape, 1.0, rng)
            dense.append(name)
        else:
            t = synthetic_tensor(shape, 0.3, rng)
        if kind == "holes" and shape:
            cut = int(rng.integers(shape[0]))
            holes = {tuple(int(c) for c in rng.integers(shape)) for _ in range(2)}
            entries = [(c, v) for c, v in t.entries if c[0] != cut and c not in holes]
            t = coo_from_entries(entries, shape)
        tensors[name] = t
    if kind == "zero":
        first = tree.input_names[0]
        tensors[first] = coo_from_entries([], tensors[first].shape)
    return tensors, tuple(dense)


def check(tree, tensors, dense, bound: int, sol) -> tuple[int, list[str]]:
    """Multiply-adds of one run, and what it got wrong."""
    problems = [f"verify: {v}" for v in verify_solution(tree, bound, sol)]
    result, stats = execute(lower(tree, sol), bind(tree, sol, tensors, dense))
    for name, reference in (("n-ary", oracle_nary(tree, tensors)), ("unfused", oracle_unfused(tree, tensors)[0])):
        report = compare(result, reference, rel_tol=1e-10)
        if not report.passed:
            problems.append(f"{name} oracle: {report.message()}")
    expected = nonzero_products(tree, tensors)
    if stats.per_assignment != expected:
        problems.append(f"multiply-adds {stats.per_assignment}, expected {expected}")
    return stats.multiply_adds, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--show", type=int, default=None, help="print the network of this tree")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    runs = bad = 0
    for n in range(args.trees):
        tree = random_tree(rng)
        if args.show is not None:
            if n == args.show:
                print(format_network(tree), end="")
                return 0
            continue
        l_max = max((len(tree.abstract_ref(name).indices) for name in tree.intermediate_names), default=1)
        schedules = [(bound, solve(tree, bound)) for bound in range(1, max(l_max, 1) + 1)]
        schedules = [(bound, sol) for bound, sol in schedules if sol is not None]
        madds = []
        for k, kind in enumerate(KINDS):
            tensors, dense = draw_inputs(tree, kind, np.random.default_rng([args.seed, n, k]))
            counts = set()
            for bound, sol in schedules:
                count, problems = check(tree, tensors, dense, bound, sol)
                runs += 1
                counts.add(count)
                bad += bool(problems)
                for problem in problems:
                    print(f"tree {n} {kind} bound {bound}: {problem}", file=sys.stderr)
            madds.append(f"{kind} {'/'.join(str(c) for c in sorted(counts))}")
        bounds = ",".join(str(bound) for bound, _ in schedules)
        print(f"tree {n} m={tree.m} bounds {bounds}: {' '.join(madds)}", flush=True)
    print(f"trees {args.trees}: runs {runs}, failed {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
