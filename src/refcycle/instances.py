"""Instance generators and small bundled fixtures.

Random monotone gain tables drive the randomized equivalence sweeps; the
fixed demo instance is a 4-price, memory-2 table that is deliberately not
reference-monotone and whose optimal cycles interleave the top price with
every lower price.
"""

from __future__ import annotations

import numpy as np

from .core import GainTable, PriceGrid

__all__ = [
    "integer_grid",
    "random_monotone_table",
    "nonmonotone_demo_grid",
    "nonmonotone_demo_table",
]


def integer_grid(num_prices: int, memory: int) -> PriceGrid:
    """Grid with prices 1..num_prices."""
    return PriceGrid.from_values(range(1, num_prices + 1), memory)


def random_monotone_table(rng: np.random.Generator, num_prices: int, memory: int) -> GainTable:
    """Random gains in [0, 1) with every column weakly increasing in the reference."""
    draws = rng.uniform(0.0, 1.0, size=(num_prices, num_prices))
    draws.sort(axis=0)
    grid = integer_grid(num_prices, memory)
    return GainTable.from_rows(grid, draws.tolist())


def nonmonotone_demo_grid() -> PriceGrid:
    return integer_grid(4, memory=2)


def nonmonotone_demo_table() -> GainTable:
    """0/1 gains on four prices, memory 2, not reference-monotone.

    The gain is 1 exactly on the reference/price pairs visited by the cycle
    414243, which alternates the top price with each lower price; the mean
    gain of 1.0 is the maximum possible here.
    """
    rows = [
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
    return GainTable.from_rows(nonmonotone_demo_grid(), rows)
