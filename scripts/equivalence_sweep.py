#!/usr/bin/env python3
"""Randomized sweep: polynomial solver vs exact state-graph oracle.

For random reference-monotone gain tables across grid sizes and memory
lengths, checks that the reduced-process solver matches the exponential
oracle exactly, and that rewriting the oracle's witness cycle stays on the
optimum; both comparisons are in exact rational arithmetic.  Prints one
summary row per (prices, memory) cell with its mismatch count, and exits 1
when any cell has a mismatch.
"""

import argparse
import time

import numpy as np

from refcycle.core import exact_objective
from refcycle.instances import random_monotone_table
from refcycle.oracle import StateGraph, max_mean_cycle
from refcycle.reduce import reduce_to_l_up_1_down
from refcycle.solver import bellman_residual, solve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=25, help="per (prices, memory) cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'prices':>6} {'memory':>6} {'instances':>9} {'mismatches':>10} "
          f"{'worst residual':>14} {'time':>8}")
    # the allocator's data uses memory 7, so its cells join the small grid
    cells = [(n, memory) for n in (2, 3, 4) for memory in (1, 2, 3)]
    cells += [(2, 7), (3, 7), (4, 7), (5, 7), (6, 7), (8, 7)]
    # appended last, so the draws of the cells above do not change
    cells += [(10, 6), (10, 7)]
    failed = False
    for n, memory in cells:
        start = time.perf_counter()
        mismatches = 0
        worst_residual = 0.0
        for _ in range(args.instances):
            table = random_monotone_table(rng, n, memory)
            fast = solve(table)
            exact = max_mean_cycle(StateGraph.build(table))
            mismatches += fast.opt_exact != exact.value_exact
            worst_residual = max(worst_residual, bellman_residual(fast, table))
            rewritten, _ = reduce_to_l_up_1_down(exact.cycle, table)
            mismatches += exact_objective(rewritten, table) != exact.value_exact
        elapsed = time.perf_counter() - start
        failed = failed or mismatches > 0
        print(f"{n:>6} {memory:>6} {args.instances:>9} {mismatches:>10} "
              f"{worst_residual:>14.2e} {elapsed:>7.2f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
