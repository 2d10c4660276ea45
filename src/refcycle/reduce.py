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

Normalization scores candidates exactly, on gains in integers over one
common denominator: a rewrite changes only its stretch and the references of
the ``memory`` positions after it, so only those are walked, with the
``memory`` tokens before the stretch as history, and candidates compare by
cross-multiplied (total, length), the first maximum winning.  Only an accepted
rewrite builds its canonical cycle and float objective, from the kept
references: a step's two objectives are those of
:func:`~refcycle.core.cycle_objective` on its ``before`` and ``after`` cycles
(a constant collapse records the diagonal gain g(t, t)).  Every step is a
checked certificate: a rewrite never lowers the exact objective, a reset split
lowers the float one by float noise at most, and the final cycle parses as a
distinct-price expansion.  On tables that are not reference-monotone a step
with no non-decreasing choice raises :class:`ReductionViolationError`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .core import (
    GainTable,
    PriceCycle,
    PriceGrid,
    _canonical_span,
    _common_denominator,
    _mean,
    _reference_walk,
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
    return set(_lows(cycle.tokens, reference_indices(cycle, grid)))


def _lows(tokens: tuple[int, ...], refs: list[int]) -> list[int]:
    """The low points of a cycle with references ``refs``, in order."""
    return [t for t, tok in enumerate(tokens) if tok <= refs[t]]


def reset_points(cycle: PriceCycle, grid: PriceGrid) -> set[int]:
    """Positions whose price equals the minimum of the memory window ending
    there (the window includes the position itself, so it is the window
    preceding the next position)."""
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


def _normalize(
    work: PriceCycle, table: GainTable, steps: list[ReductionStep]
) -> tuple[PriceCycle, float]:
    """Normalize the canonical cycle ``work``, recording each rewrite; returns
    the canonical result and its objective.  ``tokens``, ``refs`` and
    ``total`` hold the rewritten cycle in ``work``'s positions."""
    memory, gains, exact = table.grid.memory, table.gains, _common_denominator(table.gains)[1]
    tokens, refs = list(work.tokens), reference_indices(work, table.grid)
    objective = _mean([gains[r][tok] for r, tok in zip(refs, tokens)])
    total = sum(exact[r][tok] for r, tok in zip(refs, tokens))
    # a canonical cycle starts at its minimum price, which is always a low point
    lows = _lows(work.tokens, refs)
    original, shift = work.tokens, 0
    for a, b in zip(lows, lows[1:] + [len(original)]):
        gap = original[a + 1:b]
        if not gap:
            continue
        if len(gap) < memory:
            candidates = [("gap-rewrite", ())]
            candidates += [("constant-collapse", (tok,)) for tok in sorted(set(gap))]
        else:
            candidates = [("gap-rewrite", repl) for repl in _strided_replacements(gap, memory)]
        s, e, c = a + 1 + shift, b + shift, len(tokens)
        rest = tokens[e:] + tokens[:s]
        tail = rest[:memory]  # the positions whose references a rewrite can move
        kept = total - sum(exact[refs[t % c]][tokens[t % c]] for t in range(s, e + len(tail)))
        best = None
        for kind, repl in candidates:
            if kind == "constant-collapse":
                score = (exact[repl[0]][repl[0]], 1, None)
            elif repl == gap:
                score = (total, c, None)
            else:
                window = min(memory, len(repl) + len(rest))
                history = ([*repl] + rest[-memory:])[-window:]
                walk = list(_reference_walk(history + [*repl, *tail], window))
                score = (kept + sum(exact[r][tok] for r, tok in walk), len(repl) + len(rest), walk)
            if best is None or score[0] * best[1] > best[0] * score[1]:
                best = (*score, kind, repl)
        best_total, length, walk, kind, repl = best
        if best_total * c < total * length:
            raise ReductionViolationError(
                "no candidate preserves the objective; the gain table is not reference-monotone")
        if kind == "constant-collapse":
            t = repl[0]
            steps.append(ReductionStep(kind, work, PriceCycle(repl), objective, gains[t][t]))
            return PriceCycle(repl), gains[t][t]
        if repl == gap:
            continue
        tokens[s:e] = refs[s:e] = repl  # the walk gives the references from s on
        for k, (r, _) in enumerate(walk):
            refs[(s + k) % length] = r
        total, shift = best_total, shift + len(repl) - len(gap)
        start, period = _canonical_span(tokens)
        order = [*range(start, period), *range(start)]
        after = PriceCycle(tuple(tokens[t] for t in order))
        after_obj = _mean([gains[refs[t]][tokens[t]] for t in order])
        steps.append(ReductionStep(kind, work, after, objective, after_obj))
        work, objective = after, after_obj
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
    steps: list[ReductionStep] = []
    current, objective = _normalize(cycle.canonical(), table, steps)
    while (pair := _duplicate_reset_pair(current, grid)) is not None:
        _, _, better, better_obj = _split(current, table, *pair)
        # a split may lower the float objective by float noise only
        if better_obj < objective - 1e-12 * (1.0 + abs(objective)):
            raise ReductionViolationError("neither subcycle preserves the objective")
        steps.append(ReductionStep("reset-split", current, better.canonical(), objective, better_obj))
        current, objective = steps[-1].after, better_obj
    if not is_l_up_1_down(current, grid)[0]:
        raise ReductionViolationError("reduction terminated on a cycle that is not l-up-1-down")
    return current, tuple(steps)
