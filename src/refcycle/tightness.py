"""Gain-table construction making any chosen generator cycle uniquely optimal.

Given a target cycle of d distinct prices, give the target prices, ordered by
price, the bias values 0, memory, ..., (d-1)·memory, and take the mean value
C = memory + d - 1, memory above the C at which the least gain would be zero.
Each target price v following u in the cycle gets the column

    g(r, v) = ((bias(u) - bias(v)) / k(u, v) + C) * [r >= u],

an integer, as k is 1 or memory; a single-price target earns C = memory from
every reference, and prices outside the target get the uniformly negative
penalty column -(1 + d * max column gain).  The table is reference-monotone
with the target's expansion as its unique optimal cycle at mean exactly C.
The integer gains stay exact as floats while d·memory·max gain is far below
2**53, as on every grid the state-graph guard admits;
:func:`verify_uniqueness` certifies the optimum with the exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    bias: tuple[int, ...]
    optimal_value: int
    penalty: int


def build(target: GeneratorCycle, grid: PriceGrid) -> TightnessInstance:
    """Build a reference-monotone table whose unique optimum expands ``target``;
    see the module docstring for the construction."""
    n, memory = len(grid), grid.memory
    d = len(target)
    if any(v >= n for v in target.values):
        raise ValueError("target value out of range for grid")
    bias = {v: memory * i for i, v in enumerate(sorted(target.values))}
    value = memory + d - 1
    column_gain = {}  # gain, threshold reference
    for t, v in enumerate(target.values):
        prev = target.values[t - 1]
        gain = (bias[prev] - bias[v]) // expansion_count(memory, prev, v) + value
        column_gain[v] = (gain, prev if d > 1 else 0)
    pen = -(1 + d * max(gain for gain, _ in column_gain.values()))

    columns = [column_gain.get(p, (pen, 0)) for p in range(n)]
    rows = [[gain if r >= threshold else 0 for gain, threshold in columns] for r in range(n)]
    table = GainTable.from_rows(grid, rows)
    assert table.reference_monotone(), "construction must be reference-monotone"
    return TightnessInstance(table, target, tuple(sorted(bias.values())), value, pen)


def verify_uniqueness(inst: TightnessInstance) -> bool:
    """Exact state-graph check that the target expansion is the unique
    optimum (up to rotation and repetition) at exactly the constructed mean."""
    found, unique = optimal_cycles_unique(StateGraph.build(inst.table))
    return (unique is not None and found == inst.optimal_value
            and unique.equivalent(expand(inst.target, inst.table.grid)))
