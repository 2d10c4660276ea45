"""Constructive rewriting of any price cycle into an l-up-1-down cycle.

For reference-monotone gain tables, any cycle can be rewritten without
lowering its long-run average gain.  :func:`reduce_to_l_up_1_down` rewrites
in two phases:

1. Run normalization — between consecutive *low points* (positions priced
   at or below their reference), each stretch is replaced by one of a small
   family of candidates: for short stretches the empty string or a single
   constant price (which, if best, bounds the whole cycle by a constant
   cycle); for long stretches one of ``memory`` strided substrings whose
   every price is held ``memory`` consecutive periods.
2. Reset splitting — while two distinct *reset points* (positions whose
   price equals the minimum of the window ending there) carry the same
   price, the cycle splits at the pair whose longer subcycle is shortest
   into two shorter cycles, the better of which is kept.

Candidates are scored by the actual full-cycle objective
(:func:`~refcycle.core.cycle_objective`), and each cycle is scored once: its
objective is carried through both phases.  A step's two objectives are
therefore the float objectives of its ``before`` and ``after`` cycles (a
constant collapse records the diagonal gain g(t, t)), and every step is a
checked certificate: the objective never decreases (beyond float noise) and
the final cycle parses as a distinct-price expansion.  On tables that are not
reference-monotone a step with no non-decreasing choice raises
:class:`ReductionViolationError`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .core import (
    GainTable,
    PriceCycle,
    PriceGrid,
    cycle_objective,
    is_l_up_1_down,
    reference_indices,
)

__all__ = [
    "ReductionViolationError",
    "ReductionStep",
    "low_points",
    "reset_points",
    "reduce_to_l_up_1_down",
]


class ReductionViolationError(RuntimeError):
    """No non-decreasing rewrite exists; the gain table broke an assumption."""


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # "gap-rewrite" | "constant-collapse" | "reset-split"
    before: PriceCycle
    after: PriceCycle
    objective_before: float
    objective_after: float


def low_points(cycle: PriceCycle, grid: PriceGrid) -> set[int]:
    """Positions priced at or below their reference; never empty (the global
    minimum always qualifies)."""
    cycle.validate_for(grid)
    refs = reference_indices(cycle, grid)
    return {t for t, tok in enumerate(cycle.tokens) if tok <= refs[t]}


def reset_points(cycle: PriceCycle, grid: PriceGrid) -> set[int]:
    """Positions whose price equals the minimum of the memory window ending
    there (the window includes the position itself, so it is the window
    preceding the next position)."""
    cycle.validate_for(grid)
    refs = reference_indices(cycle, grid)
    c = len(cycle)
    return {t for t, tok in enumerate(cycle.tokens) if tok <= refs[(t + 1) % c]}


def _strided_replacements(gap: tuple[int, ...], memory: int) -> list[tuple[int, ...]]:
    """The distinct candidate substrings for a long stretch, by offset: for
    each offset j < ``memory``, take every ``memory``-th price from j and hold
    each for ``memory`` periods."""
    return list(dict.fromkeys(
        tuple(tok for tok in gap[j::memory] for _ in range(memory)) for j in range(memory)
    ))


def _assemble(anchors: list[int], gaps: list[tuple[int, ...]]) -> PriceCycle:
    return PriceCycle(tuple(tok for anchor, gap in zip(anchors, gaps) for tok in (anchor, *gap)))


def _record(steps: list[ReductionStep], kind: str, before: PriceCycle, before_obj: float,
            after: PriceCycle, after_obj: float) -> tuple[PriceCycle, float]:
    """Check one rewrite against the non-decrease rule (it may lower the
    objective by float noise only), append it to ``steps`` and return its
    result with the result's objective."""
    if after_obj < before_obj - 1e-12 * (1.0 + abs(before_obj)):
        raise ReductionViolationError(
            "neither subcycle preserves the objective" if kind == "reset-split"
            else "no candidate preserves the objective; the gain table is not reference-monotone"
        )
    steps.append(ReductionStep(kind, before, after, before_obj, after_obj))
    return after, after_obj


def _normalize(
    work: PriceCycle, objective: float, table: GainTable, steps: list[ReductionStep]
) -> tuple[PriceCycle, float]:
    """Normalize the canonical cycle ``work`` of objective ``objective``,
    recording each rewrite; returns the canonical result and its objective."""
    memory = table.grid.memory
    # a canonical cycle starts at its minimum price, which is always a low point
    lows = sorted(low_points(work, table.grid))
    anchors = [work.tokens[a] for a in lows]
    gaps = [work.tokens[a + 1:b] for a, b in zip(lows, lows[1:] + [len(work)])]
    for i, gap in enumerate(gaps):
        if not gap:
            continue
        if len(gap) < memory:
            candidates = [("gap-rewrite", ())]
            candidates += [("constant-collapse", (tok,)) for tok in sorted(set(gap))]
        else:
            candidates = [("gap-rewrite", repl) for repl in _strided_replacements(gap, memory)]
        best = None
        for kind, repl in candidates:
            if kind == "constant-collapse":
                obj = table.gains[repl[0]][repl[0]]
            elif repl == gap:
                obj = objective
            else:
                obj = cycle_objective(_assemble(anchors, gaps[:i] + [repl] + gaps[i + 1:]), table)
            if best is None or obj > best[0]:
                best = (obj, kind, repl)
        obj, kind, repl = best
        if kind == "constant-collapse":
            return _record(steps, kind, work, objective, PriceCycle(repl), obj)
        if repl != gap:
            gaps[i] = repl
            work, objective = _record(steps, kind, work, objective,
                                      _assemble(anchors, gaps).canonical(), obj)
    return work, objective


def _split(
    cycle: PriceCycle, table: GainTable, i: int, j: int
) -> tuple[PriceCycle, PriceCycle, PriceCycle, float]:
    """The subcycles ending at positions i and j, then the better of the two
    (higher objective, then shorter, then smaller canonical form) and its
    objective."""
    c = len(cycle)
    span = (j - i) % c
    doubled = cycle.tokens * 2
    first = PriceCycle(doubled[i + 1:i + 1 + span])
    second = PriceCycle(doubled[j + 1:j + 1 + c - span])
    better, objective = min(
        ((piece, cycle_objective(piece, table)) for piece in (first, second)),
        key=lambda item: (-item[1], len(item[0]), item[0].canonical().tokens),
    )
    return first, second, better, objective


def _duplicate_reset_pair(cycle: PriceCycle, grid: PriceGrid) -> tuple[int, int] | None:
    """Same-price reset-point pair i < j minimizing the longer subcycle
    max(j - i, c - j + i), then i, then j; or None.

    For a fixed i the longer subcycle falls as j - i rises to c/2 and grows
    after it, so only the two same-price positions beside i + c/2 can win;
    bisection finds them, in O(c log c) time overall."""
    c = len(cycle)
    by_price: dict[int, list[int]] = {}
    for t in sorted(reset_points(cycle, grid)):
        by_price.setdefault(cycle.tokens[t], []).append(t)
    best = None
    for positions in by_price.values():
        for a, i in enumerate(positions):
            k = bisect_right(positions, i + c // 2, a + 1)
            for j in positions[max(k - 1, a + 1):k + 1]:
                pair = (max(j - i, c - j + i), i, j)
                best = pair if best is None else min(best, pair)
    return best[1:] if best else None


def reduce_to_l_up_1_down(
    cycle: PriceCycle, table: GainTable
) -> tuple[PriceCycle, tuple[ReductionStep, ...]]:
    """Full pipeline: run normalization, then split at duplicate-price reset
    points until none remain.  Returns the final cycle, which is l-up-1-down
    with objective at least the input's, and the steps, each recording one
    checked inequality.  Each split strictly shortens the cycle, so the loop
    ends."""
    grid = table.grid
    start = cycle.canonical()
    steps: list[ReductionStep] = []
    current, objective = _normalize(start, cycle_objective(start, table), table, steps)
    while (pair := _duplicate_reset_pair(current, grid)) is not None:
        _, _, better, better_obj = _split(current, table, *pair)
        current, objective = _record(steps, "reset-split", current, objective,
                                     better.canonical(), better_obj)
    if not is_l_up_1_down(current, grid)[0]:
        raise ReductionViolationError("reduction terminated on a cycle that is not l-up-1-down")
    return current, tuple(steps)
