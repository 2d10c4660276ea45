"""Constructive rewriting of any price cycle into an l-up-1-down cycle.

For reference-monotone gain tables, any cycle can be rewritten without
lowering its long-run average gain.  The pipeline works in two phases:

1. :func:`normalize_runs` — between consecutive *low points* (positions
   priced at or below their reference), each stretch is replaced by one of a
   small family of candidates: for short stretches the empty string or a
   single constant price (which, if best, bounds the whole cycle by a
   constant cycle); for long stretches one of ``memory`` strided substrings
   whose every price is held ``memory`` consecutive periods.
2. :func:`split_at_resets` — while two distinct *reset points* (positions
   whose price equals the minimum of the window ending there) carry the same
   price, the cycle splits there into two shorter cycles, the better of which
   is kept.

Each candidate is scored by the actual full-cycle objective, so every step of
the returned trace is a checked certificate: the objective never decreases
(beyond float noise) and the final cycle parses as a distinct-price
expansion.  On tables that are not reference-monotone a step with no
non-decreasing choice raises :class:`ReductionViolationError`.
"""

from __future__ import annotations

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
    "ReductionTrace",
    "low_points",
    "reset_points",
    "normalize_runs",
    "split_at_resets",
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


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


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


def _strided_replacements(gap: list[int], memory: int) -> list[tuple[int, ...]]:
    """The ``memory`` candidate substrings for a long stretch: take every
    ``memory``-th price starting at offset j and hold each for ``memory``
    periods."""
    out = []
    for j in range(memory):
        replacement: list[int] = []
        for m in range(j, len(gap), memory):
            replacement.extend([gap[m]] * memory)
        out.append(tuple(replacement))
    return out


def _assemble(anchors: list[int], gaps: list[list[int]]) -> PriceCycle:
    tokens: list[int] = []
    for anchor, gap in zip(anchors, gaps):
        tokens.append(anchor)
        tokens.extend(gap)
    return PriceCycle(tuple(tokens))


def _normalize_runs_steps(
    cycle: PriceCycle, table: GainTable
) -> tuple[PriceCycle, list[ReductionStep]]:
    grid = table.grid
    work = cycle.canonical()
    lows = sorted(low_points(work, grid))
    assert lows, "every cycle has a low point"
    c = len(work)
    anchors = [work.tokens[a] for a in lows]
    gaps: list[list[int]] = []
    for idx, a in enumerate(lows):
        nxt = lows[(idx + 1) % len(lows)]
        span = (nxt - a - 1) % c
        gaps.append([work.tokens[(a + 1 + m) % c] for m in range(span)])

    steps: list[ReductionStep] = []
    current = _assemble(anchors, gaps)
    current_obj = cycle_objective(current, table)
    for i, gap in enumerate(gaps):
        if not gap:
            continue
        if len(gap) < grid.memory:
            candidates: list[tuple[str, tuple[int, ...]]] = [("gap", ())]
            candidates += [("constant", (tok,)) for tok in sorted(set(gap))]
        else:
            candidates = [("gap", repl) for repl in _strided_replacements(gap, grid.memory)]

        best_obj = None
        best = None
        for kind, payload in candidates:
            if kind == "constant":
                obj = table.gains[payload[0]][payload[0]]
            else:
                trial_gaps = gaps[:i] + [list(payload)] + gaps[i + 1:]
                obj = cycle_objective(_assemble(anchors, trial_gaps), table)
            if best_obj is None or obj > best_obj:
                best_obj = obj
                best = (kind, payload)
        assert best is not None and best_obj is not None
        tolerance = 1e-12 * (1.0 + abs(current_obj))
        if best_obj < current_obj - tolerance:
            raise ReductionViolationError(
                "no candidate preserves the objective; "
                "the gain table is not reference-monotone"
            )
        kind, payload = best
        if kind == "constant":
            after = PriceCycle((payload[0],))
            steps.append(ReductionStep(
                "constant-collapse", current.canonical(), after,
                current_obj, best_obj,
            ))
            return after, steps
        if list(payload) == gap:
            continue
        gaps[i] = list(payload)
        after = _assemble(anchors, gaps)
        steps.append(ReductionStep(
            "gap-rewrite", current.canonical(), after.canonical(),
            current_obj, best_obj,
        ))
        current = after
        current_obj = best_obj
    return current, steps


def normalize_runs(cycle: PriceCycle, table: GainTable) -> PriceCycle:
    """Rewrite the stretches between low points so every price either runs for
    ``memory`` consecutive periods or is a single offer no higher than its
    predecessor.  Output objective is at least the input objective; the result
    is returned in canonical form (a constant cycle when a diagonal gain
    dominates)."""
    final, _ = _normalize_runs_steps(cycle, table)
    return final.canonical()


def split_at_resets(
    cycle: PriceCycle, table: GainTable, i: int, j: int
) -> tuple[PriceCycle, PriceCycle, PriceCycle]:
    """Split a cycle at two same-price reset points into the two subcycles
    ending at each point; returns (first, second, better).

    The better subcycle's objective is never below the original's; a drop
    beyond float noise means the preconditions were violated.
    """
    cycle.validate_for(table.grid)
    c = len(cycle)
    if i == j:
        raise ValueError("need two distinct reset points")
    if not (0 <= i < c and 0 <= j < c):
        raise IndexError("reset positions outside the cycle")
    if cycle.tokens[i] != cycle.tokens[j]:
        raise ValueError("reset points must carry the same price")
    resets = reset_points(cycle, table.grid)
    if i not in resets or j not in resets:
        raise ValueError("positions are not both reset points")

    span = (j - i) % c
    first = PriceCycle(tuple(cycle.tokens[(i + 1 + m) % c] for m in range(span)))
    second = PriceCycle(tuple(cycle.tokens[(j + 1 + m) % c] for m in range(c - span)))
    original = cycle_objective(cycle, table)
    scored = sorted(
        ((piece, cycle_objective(piece, table)) for piece in (first, second)),
        key=lambda item: (-item[1], len(item[0]), item[0].canonical().tokens),
    )
    better, best_obj = scored[0]
    if best_obj < original - 1e-12 * (1.0 + abs(original)):
        raise ReductionViolationError("neither subcycle preserves the objective")
    return first, second, better


def _duplicate_reset_pair(cycle: PriceCycle, grid: PriceGrid) -> tuple[int, int] | None:
    """Same-price reset-point pair minimizing the longer subcycle, or None."""
    c = len(cycle)
    by_price: dict[int, list[int]] = {}
    for t in sorted(reset_points(cycle, grid)):
        by_price.setdefault(cycle.tokens[t], []).append(t)
    best: tuple[int, tuple[int, int]] | None = None
    for positions in by_price.values():
        for a_idx, i in enumerate(positions):
            for j in positions[a_idx + 1:]:
                span = (j - i) % c
                longer = max(span, c - span)
                if best is None or (longer, (i, j)) < best:
                    best = (longer, (i, j))
    return best[1] if best is not None else None


def reduce_to_l_up_1_down(
    cycle: PriceCycle, table: GainTable
) -> tuple[PriceCycle, ReductionTrace]:
    """Full pipeline: run normalization, then split at duplicate-price reset
    points until none remain.  The final cycle is l-up-1-down, its objective
    is at least the input's, and every intermediate inequality is recorded in
    the trace.  Splitting strictly shortens the cycle, so the number of
    splits is bounded by the input length."""
    cycle.validate_for(table.grid)
    grid = table.grid
    current, steps = _normalize_runs_steps(cycle.canonical(), table)
    current = current.canonical()
    for _ in range(len(cycle.tokens) + 1):
        pair = _duplicate_reset_pair(current, grid)
        if pair is None:
            break
        before_obj = cycle_objective(current, table)
        _, _, better = split_at_resets(current, table, *pair)
        after = better.canonical()
        steps.append(ReductionStep(
            "reset-split", current, after,
            before_obj, cycle_objective(after, table),
        ))
        current = after
    ok, _ = is_l_up_1_down(current, grid)
    if not ok:
        raise ReductionViolationError(
            "reduction terminated on a cycle that is not l-up-1-down"
        )
    return current, ReductionTrace(tuple(steps))
