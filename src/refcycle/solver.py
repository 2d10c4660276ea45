"""Polynomial-time optimal price cycles via the reduced per-price process.

Restricting attention to cycles of distinct prices (each increase held for
``memory`` steps, each decrease offered once) collapses the exponential state
space to one state per price: offering p from reference r earns g(r, p) per
step over k(r, p) = 1 + (memory-1)*[r < p] steps.  The best cycle maximizes
the ratio of total gain to total time, found here exactly by Howard policy
iteration (:mod:`refcycle.kernel`) on edges of gain g(r, p) and k(r, p)
steps.  The returned mean is exact for the instance, the bias vector solves
the average-reward optimality equations, and ties are broken to the
lexicographically least canonical generator at every grid size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import GainTable, GeneratorCycle, PriceCycle, expand, expansion_count
from .kernel import Edge, least_tight_cycle, max_ratio_cycle

__all__ = [
    "SolveResult",
    "solve",
    "bellman_residual",
]


@dataclass(frozen=True)
class SolveResult:
    """Optimal mean, optimality-equation bias, and the optimal cycle.

    The bias is anchored on the returned cycle: it is the best total of
    (g - opt) * k over walks into the generator's first price that go round
    the generator once they reach it, shifted so that ``bias[0] == 0``.

    ``assumption_violated`` flags gain tables that are not reference-monotone;
    the result is then only the best distinct-price cycle, which may be beaten
    by cycles revisiting a price (see the oracle).
    """

    opt: float
    bias: tuple[float, ...]
    generator: GeneratorCycle
    cycle: PriceCycle
    assumption_violated: bool
    opt_exact: Fraction


def _ratio_edges(table: GainTable) -> list[list[Edge]]:
    """Per-price graph: offering p from r earns g(r, p) on each of k(r, p) steps."""
    n, memory = len(table.grid), table.grid.memory
    return [[(p, table.gains[r][p], expansion_count(memory, r, p)) for p in range(n)]
            for r in range(n)]


def solve(table: GainTable) -> SolveResult:
    """Best distinct-price cycle, its exact mean, and the bias vector.

    Policy iteration on the per-price graph gives the exact optimum, and the
    generator is the least tight cycle.  A second run on the same graph,
    started with each generator price on its cycle edge and the other prices
    on its first, anchors the bias on the generator: a generator price that
    left its cycle edge would close, with a walk into the first price, a cycle
    of positive weight under g - opt, which no cycle has at the optimum.
    """
    edges = _ratio_edges(table)
    value, _, tight = max_ratio_cycle(edges)
    opt = value[0]
    generator = GeneratorCycle(least_tight_cycle(tight))
    values = generator.values
    start = [values[0]] * len(edges)
    for i, u in enumerate(values):
        start[u] = values[(i + 1) % len(values)]
    _, bias, _ = max_ratio_cycle(edges, start)
    bias = [b - bias[0] for b in bias]
    return SolveResult(
        opt=float(opt),
        bias=tuple(float(b) for b in bias),
        generator=generator,
        cycle=expand(generator, table.grid),
        assumption_violated=not table.reference_monotone(),
        opt_exact=opt,
    )


def bellman_residual(result: SolveResult, table: GainTable) -> float:
    """Worst violation of the average-reward optimality equations.

    For each reference r the bias must satisfy
    h(r) = max_p (g(r, p) - opt) * k(r, p) + h(p); a valid solve result keeps
    the maximum absolute gap at floating-point noise.
    """
    n = len(table.grid)
    memory = table.grid.memory
    worst = 0.0
    for r in range(n):
        best = max(
            (table.gains[r][p] - result.opt) * expansion_count(memory, r, p)
            + result.bias[p]
            for p in range(n)
        )
        worst = max(worst, abs(result.bias[r] - best))
    return worst
