"""Seeded kernel fuzz: random trees, eight binding kinds, every satisfiable bound.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python3 tests/fuzz_kernel.py --seed 1 --trees 300

Trees come from ``conftest.random_tree`` (1-3 contractions, extents 2-4).
Each tree's inputs are drawn in eight binding kinds:

- ``sparse``: every input sparse at density 0.3;
- ``mixed``: every second input dense, the others sparse;
- ``ones``: as ``mixed``, with a random half of the extents set to 1;
- ``dense``: every input full and bound dense;
- ``zero``: as ``sparse``, with the first input empty;
- ``single``: every input holds one non-zero;
- ``holes``: every input bound dense, with a slice of its first mode and a
  few more cells exactly zero, so that hoisted zero tests skip inner loops;
- ``scalar``: as ``sparse``, on the tree whose root result is multiplied by
  an order-0 input in one more contraction.

Every bound from 1 to the largest intermediate order is solved; ``ones``
reuses the schedules of the unchanged tree. Each satisfiable bound's schedule
must pass ``verify_solution``, and its kernel's result must match
``oracle_nary`` and ``oracle_unfused`` and its multiply-adds per result must
equal ``conftest.demanded_products``, the products its schedule performs. They
must be at most ``conftest.nonzero_products``, and equal to it where every
input is bound dense. Every ``compare`` report, and the
report ``compare`` gives with ``check.COMPARE_SCAN_VALUES`` at 0 (numpy for
any values), must equal, field for field, the one of ``dict_compare`` from
``test_check.py``, the comparison through dicts. ``oracle_nary`` runs a
second time with ``check.EINSUM_PATH_CUTOFF`` at 0, so that every index
space takes numpy's greedy path under the dense budget, where the first run
takes one flat einsum for these small spaces; the two must match. Each run
binds the tensors a second time, which must reuse every layout the first
bind stored on them and give the same result, counts and workspace cells.
Each run goes first through the kernel cache as the previous kind left it,
which holds the kernel of the same IR bound otherwise (``ones`` differs from
``mixed`` only in its extents), and must give what it gives again after
``cache_clear()``. It runs once more with ``executor.VECTOR_TAIL_CELLS`` at
0, so that every tail that can run as a numpy block does, and once more on
its layouts with every finiteness flag false, so that every dense row and
block takes its tested loop; each must give the same coordinates, value
bits, counts and workspace cells as the first run. Each kind with two or
more satisfiable bounds also runs
one crossed pair: the IR of the first bound's schedule on the binding of the
last one. Where the two schedules store every input in the same mode order,
its result must match both oracles; otherwise it must raise
``ModeOrderMismatchError``. A run that raises anything else counts as
failed, and the fuzz goes on with the next.
One line is printed per tree: its number, its size, the bounds it ran, the
multiply-adds per kind and a digest of the sources of the kernels its runs
compiled, in order, so a ``diff`` of the output of two checkouts shows
whether they generate the same kernels. The last line counts the runs, the
crossed runs among them and those of these that raised the mismatch, and
the products the runs' schedules skipped: ``nonzero_products`` less
``demanded_products``, summed over the runs that did not raise. The
exit status is 1 on any mismatch, violation or exception, each of which is
described on standard error.
``--show N`` prints the network of tree N instead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import random
import sys

import numpy as np

from conftest import demanded_products, nonzero_products, random_tree
from test_check import dict_compare
from fusetree import (
    Contraction,
    TensorRef,
    bind,
    build_tree,
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
from fusetree import check as check_mod
from fusetree import executor
from fusetree.errors import ModeOrderMismatchError
from fusetree.executor import _kernel

KINDS = ("sparse", "mixed", "ones", "dense", "zero", "single", "holes", "scalar")


def kind_tree(tree, kind: str, rng: np.random.Generator):
    """The tree one binding kind runs."""
    if kind == "ones":
        extents = {index: 1 if rng.random() < 0.5 else e for index, e in sorted(tree.extents.items())}
        return build_tree(tree.contractions, extents)
    if kind == "scalar":
        root = tree.root.result
        scaled = Contraction(tree.m, TensorRef("Q", root.indices), root, TensorRef("Z", ()))
        return build_tree(tree.contractions + (scaled,), tree.extents)
    return tree


def draw_inputs(tree, kind: str, rng: np.random.Generator):
    """The input tensors of one binding kind, and the names bound dense."""
    tensors, dense = {}, []
    for k, name in enumerate(tree.input_names):
        shape = tree.ref_shape(tree.abstract_ref(name))
        if kind == "single":
            t = synthetic_tensor(shape, 1e-9, rng)
        elif kind in ("dense", "holes") or (kind in ("mixed", "ones") and k % 2):
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


def check(tree, tensors, dense, bound: int, sol) -> tuple[int | None, int, list[str]]:
    """Multiply-adds of one run, None if it raised, the products its
    schedule skipped, and what it got wrong."""
    problems: list[str] = []
    try:
        problems += [f"verify: {v}" for v in verify_solution(tree, bound, sol)]
        ir, binding = lower(tree, sol), bind(tree, sol, tensors, dense)
        result, stats = execute(ir, binding)
        again = bind(tree, sol, tensors, dense)
        if any(again.operands[name] is not operand for name, operand in binding.operands.items()):
            problems.append("a second bind rebuilt a layout")
        if execute(ir, again) != (result, stats):
            problems.append("the run on the second binding differs from the first")
        _kernel.cache_clear()
        if execute(ir, binding) != (result, stats):
            problems.append("the cached kernel's run differs from a fresh kernel's")
        if not identical(blocks_run(ir, binding), (result, stats)):
            problems.append("the run with every tail a block differs from the run at the default cutoff")
        unflagged = {name: dataclasses.replace(x, finite=False) for name, x in binding.operands.items()}
        if not identical(execute(ir, dataclasses.replace(binding, operands=unflagged)), (result, stats)):
            problems.append("the run on layouts flagged non-finite differs from the run on their flags")
        problems += oracle_problems(tree, tensors, result)
        expected = demanded_products(tree, sol, tensors, dense)
        if stats.per_assignment != expected:
            problems.append(f"multiply-adds {stats.per_assignment}, expected {expected}")
        most = nonzero_products(tree, tensors)
        every_dense = set(dense) >= {name for name in tree.input_names if tensors[name].order}
        above = any(n > most.get(name, 0) for name, n in expected.items())
        if above or every_dense and expected != most:
            problems.append(f"demanded multiply-adds {expected}, nonzero pairs {most}")
    except Exception as exc:
        return None, 0, problems + [f"raised {type(exc).__name__}: {exc}"]
    return stats.multiply_adds, sum(most.values()) - sum(expected.values()), problems


def blocks_run(ir, binding):
    """``execute`` with every tail that can run as a block running as one."""
    cutoff = executor.VECTOR_TAIL_CELLS
    executor.VECTOR_TAIL_CELLS = 0
    _kernel.cache_clear()
    try:
        return execute(ir, binding)
    finally:
        executor.VECTOR_TAIL_CELLS = cutoff
        _kernel.cache_clear()


def identical(a, b) -> bool:
    """Whether two ``execute`` outcomes hold the same coordinates, value bits
    and counts, the first's all Python integers."""
    (x, stats), (y, other) = a, b
    same = x.shape == y.shape and np.array_equal(x.coords, y.coords) and stats == other
    counts = (stats.multiply_adds, *stats.per_assignment.values())
    return same and x.values.tobytes() == y.values.tobytes() and all(type(c) is int for c in counts)


def checked_compare(a, b, problems: list[str]):
    """``compare``'s report, after checking it, and the report with every
    comparison made by numpy, against ``dict_compare``'s."""
    report = compare(a, b, rel_tol=1e-10)
    scan = check_mod.COMPARE_SCAN_VALUES
    check_mod.COMPARE_SCAN_VALUES = 0  # numpy for any values
    try:
        arrays = compare(a, b, rel_tol=1e-10)
    finally:
        check_mod.COMPARE_SCAN_VALUES = scan
    reference = dict_compare(a, b, rel_tol=1e-10)
    for got in (report, arrays):
        if repr(got) != repr(reference):  # NaN worst values compare unequal to themselves
            problems.append(f"compare gave {got}, dict_compare {reference}")
    return report


def oracle_problems(tree, tensors, result) -> list[str]:
    """Where ``result`` disagrees with either oracle, the n-ary oracle's
    budgeted greedy path disagrees with its flat einsum, or a report with
    ``dict_compare``'s."""
    problems = []
    nary = oracle_nary(tree, tensors)
    for name, reference in (("n-ary", nary), ("unfused", oracle_unfused(tree, tensors)[0])):
        report = checked_compare(result, reference, problems)
        if not report.passed:
            problems.append(f"{name} oracle: {report.message()}")
    cutoff = check_mod.EINSUM_PATH_CUTOFF
    check_mod.EINSUM_PATH_CUTOFF = 0  # the budgeted greedy path for every space
    try:
        planned = oracle_nary(tree, tensors)
    finally:
        check_mod.EINSUM_PATH_CUTOFF = cutoff
    report = checked_compare(planned, nary, problems)
    if not report.passed:
        problems.append(f"n-ary oracle with every path planned: {report.message()}")
    return problems


def check_crossed(tree, tensors, dense, first, last) -> tuple[bool, list[str]]:
    """Run the IR of schedule ``first`` on the binding of schedule ``last``.
    Returns whether the two store some input in different mode orders, and
    what the run got wrong."""
    differ = any(first.mode_perm(name) != last.mode_perm(name) for name in tree.input_names)
    try:
        result, _ = execute(lower(tree, first), bind(tree, last, tensors, dense))
    except ModeOrderMismatchError as exc:
        return differ, [] if differ else [f"crossed: raised ModeOrderMismatchError: {exc}"]
    except Exception as exc:
        return differ, [f"crossed: raised {type(exc).__name__}: {exc}"]
    if differ:
        return differ, ["crossed: ran although an input's mode order differs"]
    return differ, [f"crossed: {problem}" for problem in oracle_problems(tree, tensors, result)]


@contextlib.contextmanager
def kernel_sources():
    """Collect the source of every kernel ``execute`` compiles meanwhile."""
    sources: list[str] = []

    def compiling(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    executor.compile = compiling  # the executor's module global shadows the builtin
    try:
        yield sources
    finally:
        del executor.compile


def satisfiable(tree) -> list:
    """(bound, schedule) for each satisfiable bound up to the largest
    intermediate order."""
    l_max = max((len(tree.abstract_ref(name).indices) for name in tree.intermediate_names), default=1)
    schedules = [(bound, solve(tree, bound)) for bound in range(1, max(l_max, 1) + 1)]
    return [(bound, sol) for bound, sol in schedules if sol is not None]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--show", type=int, default=None, help="print the network of this tree")
    args = parser.parse_args(argv)
    with kernel_sources() as sources:
        return fuzz(args, sources)


def fuzz(args, sources: list[str]) -> int:
    """Run the fuzz; ``sources`` collects the kernels it compiles."""
    rng = random.Random(args.seed)
    runs = bad = crossed = mismatched = skipped = 0
    for n in range(args.trees):
        tree = random_tree(rng)
        if args.show is not None:
            if n == args.show:
                print(format_network(tree), end="")
                return 0
            continue
        schedules = satisfiable(tree)
        sources.clear()
        madds = []
        for k, kind in enumerate(KINDS):
            nprng = np.random.default_rng([args.seed, n, k])
            run_tree = kind_tree(tree, kind, nprng)
            tensors, dense = draw_inputs(run_tree, kind, nprng)
            counts = set()
            run_schedules = satisfiable(run_tree) if kind == "scalar" else schedules
            for bound, sol in run_schedules:
                count, spared, problems = check(run_tree, tensors, dense, bound, sol)
                runs += 1
                skipped += spared
                if count is not None:
                    counts.add(count)
                bad += bool(problems)
                for problem in problems:
                    print(f"tree {n} {kind} bound {bound}: {problem}", file=sys.stderr)
            if len(run_schedules) > 1:
                (_, first), *_, (bound, last) = run_schedules
                differ, problems = check_crossed(run_tree, tensors, dense, first, last)
                runs += 1
                crossed += 1
                mismatched += bool(differ and not problems)
                bad += bool(problems)
                for problem in problems:
                    print(f"tree {n} {kind} bound {bound}: {problem}", file=sys.stderr)
            madds.append(f"{kind} {'/'.join(str(c) for c in sorted(counts))}")
        bounds = ",".join(str(bound) for bound, _ in schedules)
        kernels = hashlib.sha256("".join(sources).encode()).hexdigest()[:12]
        print(f"tree {n} m={tree.m} bounds {bounds}: {' '.join(madds)} kernels {kernels}", flush=True)
    print(
        f"trees {args.trees}: runs {runs} ({crossed} crossed, {mismatched} mismatched),"
        f" {skipped} products skipped, failed {bad}"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
