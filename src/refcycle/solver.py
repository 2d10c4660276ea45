"""Polynomial-time optimal price cycles via the reduced per-price process.

Restricting attention to cycles of distinct prices (each increase held for
``memory`` steps, each decrease offered once) collapses the exponential state
space to one state per price: offering p from reference r earns g(r, p) per
step over k(r, p) = 1 + (memory-1)*[r < p] steps.  The best cycle maximizes
the ratio of total gain to total time, found here exactly by one run of
Howard policy iteration (:mod:`refcycle.kernel`) on edges of gain g(r, p) and
k(r, p) steps.  The returned mean is exact for the instance, and ties are
broken to the lexicographically least canonical generator at every grid size.

The bias, which solves the average-reward optimality equations exactly, is
then anchored on the generator by one shortest-path pass over the run's reduced
costs, in integers: every generator edge is tight, so from a generator price
the best walk into the first price follows the generator, and no cycle is
positive under g - opt, so the best walk's total is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import GainTable, GeneratorCycle, PriceCycle, expand
from .kernel import Edge, _max_ratio_levels, least_tight_cycle

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
    """Per-price graph: offering p from r earns g(r, p) on each of k(r, p) steps;
    row r lists its edges in successor order."""
    memory = table.grid.memory
    return [[(p, gain, memory if p > r else 1) for p, gain in enumerate(row)]
            for r, row in enumerate(table.gains)]


def _walks_into(graph: list[list[tuple[int, int, int]]], level: int, bias: list[int],
                scale: int, anchor: int) -> list[int]:
    """Per price u, the best total of (g - opt) * k over walks from u into
    ``anchor``, plus ``bias[anchor]``, on the kernel's integers (see
    :func:`refcycle.kernel._max_ratio_levels`); ``graph[u][v]`` is the edge u -> v.

    At the kernel's fixed point every edge's reduced cost
    c(u, v) = bias[u] - (weight * scale - level * time + bias[v]) is >= 0, so the
    best walk totals bias[u] - bias[anchor] - dist(u, anchor) with dist the
    shortest path on reduced costs (Johnson 1977).  One dense Dijkstra grows it
    from ``anchor``, settling the open price of least dist, that is of the
    largest total minus bias, and relaxing the edges into it.
    """
    walk = [weight * scale - level * time + bias[anchor] for _, weight, time in
            (row[anchor] for row in graph)]
    walk[anchor] = bias[anchor]
    todo = [u for u in range(len(graph)) if u != anchor]
    while todo:
        x = max(todo, key=lambda u: walk[u] - bias[u])
        todo.remove(x)
        for u in todo:
            _, weight, time = graph[u][x]
            walk[u] = max(walk[u], weight * scale - level * time + walk[x])
    return walk


def solve(table: GainTable) -> SolveResult:
    """Best distinct-price cycle, its exact mean, and the bias vector.

    One policy-iteration run on the per-price graph gives the exact optimum and
    the generator, its least tight cycle.  The bias is the best walk into the
    generator's first price, read off the same run by :func:`_walks_into`.
    """
    graph, level, bias, unit, scale, tight = _max_ratio_levels(_ratio_edges(table))
    assert level == [level[0]] * len(level), "the per-price graph is strongly connected"
    generator = GeneratorCycle(least_tight_cycle(tight))
    walk = _walks_into(graph, level[0], bias, scale, generator.values[0])
    return SolveResult(
        opt=level[0] / (unit * scale),  # int / int rounds once, as float(Fraction) does
        bias=tuple((w - walk[0]) / (unit * scale) for w in walk),
        generator=generator,
        cycle=expand(generator, table.grid),
        assumption_violated=not table.reference_monotone(),
        opt_exact=Fraction(level[0], unit * scale),
    )


def bellman_residual(result: SolveResult, table: GainTable) -> float:
    """Worst violation of the average-reward optimality equations.

    For each reference r the bias must satisfy
    h(r) = max_p (g(r, p) - opt) * k(r, p) + h(p); a valid solve result keeps
    the maximum absolute gap at floating-point noise.
    """
    opt, bias, memory = result.opt, result.bias, table.grid.memory
    worst = 0.0
    for r, row in enumerate(table.gains):
        best = max((gain - opt) * (memory if p > r else 1) + bias[p] for p, gain in enumerate(row))
        worst = max(worst, abs(bias[r] - best))
    return worst
