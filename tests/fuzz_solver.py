"""Seeded solver fuzz: random 4-7-contraction trees with random root pins.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python3 tests/fuzz_solver.py --seed 1 --trees 1500 --budget 1

Each tree is searched bound by bound from 1 until a bound is satisfiable or
times out, and one line is printed per tree: its number, its size and each
bound tried with ``sat`` (followed by a digest of the report, the solution
document and the lowered IR), ``unsat`` or ``timeout``. The lines depend
only on the seed, on the solver's answers and on lowering, so two checkouts
can be compared with ``diff``, which then covers lowering of 4-7-contraction
trees too; a tree that times out on one side differs by its last bound. The
last line counts the outcomes. The exit status is 1 if any witness fails
``verify_solution``. ``--show N`` prints the network of tree N instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from fusetree import lower, parse_network, print_ir, report_text, solve, verify_solution
from fusetree.errors import SolveTimeout

LETTERS = "abcdefghijklmnop"
MAX_INDICES = 7  # per contraction, so that no single loop search dominates


def random_network(rng: random.Random) -> str:
    """A random valid tree of 4-7 contractions, all extents 2, root pinned half the time."""
    while True:
        text = _draw(rng)
        if text:
            return text


def _draw(rng: random.Random) -> str:
    m = rng.randint(4, 7)
    pool = [(f"L{k}", rng.sample(LETTERS, rng.randint(1, 4))) for k in range(m + 1)]
    lines, used = [], set()
    for t in range(m):
        lhs, rhs = (pool.pop(rng.randrange(len(pool))) for _ in range(2))
        union = sorted(set(lhs[1]) | set(rhs[1]))
        if len(union) > MAX_INDICES:
            return ""
        used.update(union)
        # an index some other operand still uses must survive; the rest may be summed
        outside = {x for _, idx in pool for x in idx}
        kept = [x for x in union if x in outside or rng.random() < 0.5]
        if not kept:
            kept = [rng.choice(union)]
        out = ("R" if t == m - 1 else f"W{t}", kept)
        lines.append(f"{out[0]}[{','.join(kept)}] = {lhs[0]}[{','.join(lhs[1])}] * {rhs[0]}[{','.join(rhs[1])}]")
        pool.append(out)
    head = [f"extent {x} 2" for x in sorted(used)]
    if rng.random() < 0.5:
        head.append(f"layout R {','.join(rng.sample(pool[0][1], len(pool[0][1])))}")
    return "\n".join(head + lines) + "\n"


def search(text: str, budget: float) -> tuple[list[str], list[str]]:
    """Outcome per bound tried, and the verifier's complaints about any witness."""
    tree = parse_network(text)
    l_max = max((e.order for e in tree.edges), default=1)
    outcomes: list[str] = []
    for bound in range(1, l_max + 1):
        try:
            sol = solve(tree, bound, budget)
        except SolveTimeout:
            outcomes.append(f"{bound}:timeout")
            return outcomes, []
        if sol is None:
            outcomes.append(f"{bound}:unsat")
            continue
        doc = report_text(tree, sol) + json.dumps(sol.to_json_dict(tree), sort_keys=True)
        doc += print_ir(lower(tree, sol), pretty=True)
        outcomes.append(f"{bound}:sat:{hashlib.sha256(doc.encode()).hexdigest()[:12]}")
        return outcomes, verify_solution(tree, bound, sol)
    raise AssertionError("the largest intermediate order always admits a schedule")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trees", type=int, default=200)
    parser.add_argument("--budget", type=float, default=1.0, help="seconds per bound")
    parser.add_argument("--show", type=int, default=None, help="print the network of this tree")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    counts = {"sat": 0, "unsat": 0, "timeout": 0}
    invalid = 0
    for n in range(args.trees):
        text = random_network(rng)
        if args.show is not None:
            if n == args.show:
                print(text, end="")
                return 0
            continue
        outcomes, violations = search(text, args.budget)
        for outcome in outcomes:
            counts[outcome.split(":")[1]] += 1
        m = sum(1 for line in text.splitlines() if "=" in line)
        print(f"tree {n} m={m} {' '.join(outcomes)}" + (" INVALID" if violations else ""), flush=True)
        if violations:
            invalid += 1
            print(f"  {violations[0]}", file=sys.stderr)
    print(f"trees {args.trees}: bounds sat {counts['sat']}, unsat {counts['unsat']}, "
          f"timeout {counts['timeout']}; invalid witnesses {invalid}")
    return 1 if invalid else 0


if __name__ == "__main__":
    sys.exit(main())
