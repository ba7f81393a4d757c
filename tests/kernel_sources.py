"""Write the kernel source of every op of the benchmark workloads to files.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python3 tests/kernel_sources.py --out <directory> [--seed N] [--smoke]

Each op of factor_sweep, sparse_network and solver_chains, drawn at
``--seed`` by ``perfbench/workloads.py`` and bound as ``perfbench/harness.py``
binds it, is planned at its minimal bound, and its kernel source is written
to ``<directory>/<workload>/<nn>_<label>.py``, ``nn`` numbering the ops in
workload order. Neither perfbench file is changed. The files of two
checkouts at one seed compare with ``diff -r``, so "the kernels did not
change by a byte" is one command each side plus one diff.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402

from fusetree import bind, lower, parse_network, search_min_order  # noqa: E402
from fusetree.executor import _plan, _render, _signature  # noqa: E402

WORKLOADS = ("factor_sweep", "sparse_network", "solver_chains")


def source(op, tensors: dict) -> str:
    """The kernel source of ``op`` at its minimal bound, over ``tensors``."""
    tree = parse_network(op.network)
    _, sol = search_min_order(tree)
    binding = bind(tree, sol, harness.op_tensors(op, tensors), op.dense)
    return _render(_plan(*_signature(lower(tree, sol), binding)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=911)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        workload = workloads.GENERATORS[name](args.seed, smoke=args.smoke)
        tensors = harness.build_inputs(workload)
        folder = args.out / name
        folder.mkdir(parents=True, exist_ok=True)
        for n, op in enumerate(workload.ops):
            (folder / f"{n:02d}_{op.label}.py").write_text(source(op, tensors))
        print(f"{name}: {len(workload.ops)} kernels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
