"""Gain-table construction making any chosen generator cycle uniquely optimal.

Given a target cycle of distinct prices, pick strictly increasing bias values
over the target prices (ordered by price) and a mean value C large enough
that every per-offer gain stays positive.  Each target price v following u in
the cycle gets the column

    g(r, v) = ((bias(u) - bias(v)) / k(u, v) + C) * [r >= u],

prices outside the target get a uniformly negative penalty column, and the
resulting table is reference-monotone with the target's expansion as its
unique optimal cycle at mean exactly C.  :func:`verify_uniqueness` certifies
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

    def bias_of(self, value_index: int) -> Fraction:
        rank = sorted(self.target.values).index(value_index)
        return self.bias[rank]


def build(
    target: GeneratorCycle,
    grid: PriceGrid,
    bias: tuple[Fraction, ...] | None = None,
    optimal_value: Fraction | None = None,
    penalty: float | None = None,
) -> TightnessInstance:
    """Build a reference-monotone table whose unique optimum expands ``target``.

    Defaults: bias 0, 1, ..., d-1 over the sorted target prices,
    optimal_value = bias range / memory + 1 (unit margin above the positivity
    threshold), penalty = -(1 + d * max column gain).
    """
    n = len(grid)
    d = len(target)
    if any(v >= n for v in target.values):
        raise ValueError("target value out of range for grid")
    if bias is None:
        bias = tuple(Fraction(i) for i in range(d))
    else:
        bias = tuple(Fraction(b) for b in bias)
    if len(bias) != d:
        raise ValueError("need one bias value per target price")
    if any(b2 <= b1 for b1, b2 in zip(bias, bias[1:])):
        raise ValueError("bias values must be strictly increasing")

    if d == 1:
        value = Fraction(1)
        if optimal_value is not None and Fraction(optimal_value) != value:
            raise ValueError("single-price targets have mean exactly 1")
        column_gain = {target.values[0]: (value, 0)}  # gain, threshold reference
        pen = float(penalty) if penalty is not None else -(1.0 + 1.0)
    else:
        spread = (bias[0] - bias[-1]) / grid.memory
        value = Fraction(optimal_value) if optimal_value is not None else 1 - spread
        if spread + value <= 0:
            raise ValueError(
                "optimal_value too small: bias range / memory + value must be positive"
            )
        rank = {v: i for i, v in enumerate(sorted(target.values))}
        column_gain = {}
        for t, v in enumerate(target.values):
            prev = target.values[(t - 1) % d]
            k = expansion_count(grid.memory, prev, v)
            gain = (bias[rank[prev]] - bias[rank[v]]) / k + value
            column_gain[v] = (gain, prev)
        top = max(float(gain) for gain, _ in column_gain.values())
        pen = float(penalty) if penalty is not None else -(1.0 + d * top)
    if pen >= 0:
        raise ValueError("penalty must be negative")

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
    return TightnessInstance(table, target, bias, value, pen)


def verify_uniqueness(inst: TightnessInstance) -> bool:
    """Exact state-graph check that the target expansion is the unique
    optimum (up to rotation and repetition) at the constructed mean value, to
    within what rounding the gains to floats can move it: half an ulp of the largest."""
    found, unique = optimal_cycles_unique(StateGraph.build(inst.table))
    rounding = Fraction(max(math.ulp(g) for row in inst.table.gains for g in row)) / 2
    return (unique is not None and abs(found - inst.optimal_value) <= rounding
            and unique.equivalent(expand(inst.target, inst.table.grid)))
