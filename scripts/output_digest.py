#!/usr/bin/env python3
"""One digest over the CLI's output on seeded gain tables, to compare trees.

Draws gain tables of three kinds in turn (monotone, non-monotone, and
tie-heavy with gains in {0, 1, 2}), with 1-12 prices and memory 1-7, and
runs ``solve``, ``oracle`` (with and without ``--horizon``), ``tightness``
and ``reduce`` on each through ``refcycle.cli.main``.  ``oracle`` and
``tightness`` run only where the state graph has at most 20 000 edges.
Prints the number of runs, a histogram of exit codes and one sha256 over
each run's command, exit code, stdout and ``refcycle:`` stderr lines; the
run manifests, which hold timings, are left out.

Tables are drawn with numpy and written as JSON here, so the inputs do not
depend on the tree under test.  To compare two trees, run the script once
with each tree's ``src`` first on ``PYTHONPATH``:

    PYTHONPATH=<checkout>/src python3 scripts/output_digest.py --tables 250 --seed 0
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from collections import Counter

import numpy as np

from refcycle.cli import main as cli_main

MAX_EDGES = 20_000
KINDS = ("monotone", "non-monotone", "tie-heavy")


def gain_rows(rng: np.random.Generator, kind: str, n: int) -> list[list[float]]:
    if kind == "tie-heavy":
        return rng.integers(0, 3, size=(n, n)).astype(float).tolist()
    draws = rng.uniform(0.0, 1.0, size=(n, n))
    if kind == "monotone":
        draws.sort(axis=0)
    return draws.tolist()


def commands(rng: np.random.Generator, kind: str) -> tuple[dict, list[list[str]]]:
    """One table and the argument lists run on it."""
    n, memory = int(rng.integers(1, 13)), int(rng.integers(1, 8))
    prices = list(range(1, n + 1))
    table = {"prices": prices, "memory": memory, "gains": gain_rows(rng, kind, n)}
    cycle = rng.integers(1, n + 1, size=int(rng.integers(1, 9))).tolist()
    argv = [["solve", "--gains", "table.json"],
            ["reduce", "--gains", "table.json", "--cycle", " ".join(map(str, cycle))]]
    if math.comb(n + memory - 1, memory) * n <= MAX_EDGES:
        target = rng.permutation(prices)[:int(rng.integers(1, n + 1))].tolist()
        argv += [["oracle", "--gains", "table.json"],
                 ["oracle", "--gains", "table.json", "--horizon", str(int(rng.integers(1, 25)))],
                 ["tightness", "--prices", " ".join(map(str, prices)), "--memory", str(memory),
                  "--target", " ".join(map(str, target))]]
    return table, argv


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tables", type=int, default=250, help="gain tables to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    digest, codes = hashlib.sha256(), Counter()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative input names keep the outputs free of the temp path
        try:
            for i in range(args.tables):
                table, argv = commands(rng, KINDS[i % len(KINDS)])
                with open("table.json", "w") as handle:
                    json.dump(table, handle)
                for command in argv:
                    code, out, err = run(command)
                    codes[code] += 1
                    notes = [line for line in err.splitlines() if line.startswith("refcycle:")]
                    digest.update(json.dumps([command, code, out, notes]).encode())
        finally:
            os.chdir(home)
    print(f"runs {sum(codes.values())}")
    for code in sorted(codes):
        print(f"exit {code}: {codes[code]}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
