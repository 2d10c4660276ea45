"""Gain-table construction making any chosen generator cycle uniquely optimal.

Given a target cycle of d distinct prices, give the target prices, ordered by
price, the bias values 0, 1, ..., d-1, and take the mean value
C = 1 + (d-1)/memory, a unit above the least C that keeps every per-offer
gain positive.  Each target price v following u in the cycle gets the column

    g(r, v) = ((bias(u) - bias(v)) / k(u, v) + C) * [r >= u],

a single-price target earns C = 1 from every reference, and prices outside
the target get the uniformly negative penalty column
-(1 + d * max column gain).  The resulting table is reference-monotone with
the target's expansion as its unique optimal cycle at mean exactly C, up to
the rounding of the gains to floats.  :func:`verify_uniqueness` certifies
that on the state graph with the exact oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import GainTable, GeneratorCycle, PriceGrid, expand, expansion_count
from .oracle import StateGraph, optimal_cycles_unique

__all__ = ["TightnessInstance", "build", "verify_uniqueness"]


@dataclass(frozen=True)
class TightnessInstance:
    """Constructed table plus the parameters that certify the target.

    ``bias`` is aligned with the target's values sorted ascending by price,
    and is strictly increasing; ``optimal_value`` is the exact mean of the
    target's expansion.
    """

    table: GainTable
    target: GeneratorCycle
    bias: tuple[Fraction, ...]
    optimal_value: Fraction
    penalty: float


def build(target: GeneratorCycle, grid: PriceGrid) -> TightnessInstance:
    """Build a reference-monotone table whose unique optimum expands ``target``;
    see the module docstring for the construction."""
    n = len(grid)
    d = len(target)
    if any(v >= n for v in target.values):
        raise ValueError("target value out of range for grid")
    bias = {v: i for i, v in enumerate(sorted(target.values))}
    value = 1 + Fraction(d - 1, grid.memory)
    column_gain = {}  # gain, threshold reference
    for t, v in enumerate(target.values):
        prev = target.values[t - 1]
        gain = Fraction(bias[prev] - bias[v], expansion_count(grid.memory, prev, v)) + value
        column_gain[v] = (gain, prev if d > 1 else 0)
    pen = -(1.0 + d * max(float(gain) for gain, _ in column_gain.values()))

    rows = []
    for r in range(n):
        row = []
        for p in range(n):
            if p in column_gain:
                gain, threshold = column_gain[p]
                row.append(float(gain) if r >= threshold else 0.0)
            else:
                row.append(pen)
        rows.append(row)
    table = GainTable.from_rows(grid, rows)
    assert table.reference_monotone(), "construction must be reference-monotone"
    return TightnessInstance(table, target, tuple(Fraction(i) for i in range(d)), value, pen)


def verify_uniqueness(inst: TightnessInstance) -> bool:
    """Exact state-graph check that the target expansion is the unique
    optimum (up to rotation and repetition) at the constructed mean value, to
    within what rounding the gains to floats can move it: half an ulp of the largest."""
    found, unique = optimal_cycles_unique(StateGraph.build(inst.table))
    rounding = Fraction(max(math.ulp(g) for row in inst.table.gains for g in row)) / 2
    return (unique is not None and abs(found - inst.optimal_value) <= rounding
            and unique.equivalent(expand(inst.target, inst.table.grid)))
