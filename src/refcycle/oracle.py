"""Exact, exponential-cost verifiers for the reference-effect pricing problem.

The reference is the lowest of the last ``memory`` prices, so a history's
future depends only on its suffix minima s1 >= ... >= sm (sj is the lowest of
the last j prices): C(n+m-1, m) states for n prices and memory m, not n**m.
Offering p from (s1, ..., sm) yields gain ``g(sm, p)`` and moves to
(p, min(p, s1), ..., min(p, s(m-1))).  The best long-run average over all
policies equals the maximum mean cycle of this graph, which
:func:`max_mean_cycle` computes exactly by policy iteration
(:mod:`refcycle.kernel`, one step per edge); the witness is the least
optimal cycle of states, the solver's tie-break.  :func:`exhaustive_generators`
independently enumerates every cycle of distinct prices and scores its
expansion with :func:`refcycle.core.exact_objective`, and :func:`simulate`
replays a price cycle from the all-top-price start state for a bounded
horizon through the core's reference walk, in linear time and constant memory,
returning its average gain.  The size guard counts states x prices x memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    GainTable,
    GeneratorCycle,
    PriceCycle,
    _reference_walk,
    exact_objective,
    expand,
)
from .kernel import least_tight_cycle, max_ratio_cycle

__all__ = [
    "NodeBudgetError",
    "NODE_BUDGET",
    "check_node_budget",
    "StateGraph",
    "MeanCycleResult",
    "GeneratorSearchResult",
    "max_mean_cycle",
    "optimal_cycles_unique",
    "MAX_ENUMERATED_PRICES",
    "exhaustive_generators",
    "MAX_HORIZON",
    "simulate",
]


class NodeBudgetError(ValueError):
    """State graph larger than :data:`NODE_BUDGET`."""


NODE_BUDGET = 10**6


def check_node_budget(prices: int, memory: int) -> None:
    """Raise :class:`NodeBudgetError` unless the state graph of ``prices``
    prices at ``memory`` fits :data:`NODE_BUDGET`, which bounds states times
    prices times memory: each of a state's ``prices`` edges builds a
    ``memory``-long tuple.  Callers check before building anything."""
    states = math.comb(prices + memory - 1, memory)
    size = states * prices * memory
    if size > NODE_BUDGET:
        raise NodeBudgetError(f"state graph needs {states} states x {prices} prices x "
                              f"memory {memory} = {size}, budget is {NODE_BUDGET}")


@dataclass(frozen=True)
class StateGraph:
    """Materialized state graph on suffix minima.

    ``nodes[i]`` is a nondecreasing tuple of price indices (sm, ..., s1):
    entry -j is the lowest of the last j prices, so ``nodes[i][-1]`` is the
    action that entered the state and ``nodes[i][0]`` its reference.  Nodes
    are listed in lexicographic order.  Offering price p drops the reference,
    lowers every remaining entry above p to p and appends p; the edge carries
    weight ``gains[nodes[i][0]][p]``.

    The states are closed under this rule and strongly connected: ``memory``
    offers of the top price reach the all-top state, and offering
    a1 <= ... <= am from there reaches (a1, ..., am).  The gains ahead of a
    history depend only on its suffix minima, so the history graph and this
    one have the same action cycles, with the same means.
    """

    table: GainTable
    nodes: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, table: GainTable) -> "StateGraph":
        """Materialize the states, once :func:`check_node_budget` admits the grid."""
        n, memory = len(table.grid), table.grid.memory
        check_node_budget(n, memory)
        return cls(table, tuple(itertools.combinations_with_replacement(range(n), memory)))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_actions(self) -> int:
        return len(self.table.grid)


@dataclass(frozen=True)
class MeanCycleResult:
    value: float
    value_exact: Fraction
    cycle: PriceCycle
    nodes: int


@dataclass(frozen=True)
class GeneratorSearchResult:
    value: float
    value_exact: Fraction
    best: GeneratorCycle


# ---------------------------------------------------------------------------
# maximum mean cycle, exact
# ---------------------------------------------------------------------------


def _tight_graph(graph: StateGraph) -> tuple[Fraction, list[list[int]]]:
    """Exact optimal mean and, per state, its tight successors.

    The state graph is strongly connected, so policy iteration returns one
    value and a bias with h[u] >= w - mu + h[v] on every edge.  Tight edges
    attain equality; every cycle of tight edges is optimal and every optimal
    cycle is tight, whichever valid bias is used.
    """
    gains = graph.table.gains
    index = {node: i for i, node in enumerate(graph.nodes)}
    edges = [[(index[tuple(min(p, x) for x in node[1:]) + (p,)], gains[node[0]][p], 1)
              for p in range(graph.num_actions)]
             for node in graph.nodes]
    value, _, tight = max_ratio_cycle(edges)
    return value[0], tight


def _action_cycle(graph: StateGraph, states: tuple[int, ...]) -> PriceCycle:
    """Prices offered along a state cycle: entering state v offers ``nodes[v][-1]``."""
    return PriceCycle(tuple(graph.nodes[v][-1] for v in states)).canonical()


def max_mean_cycle(graph: StateGraph) -> MeanCycleResult:
    """Best long-run average gain over all policies, with an optimal cycle.

    The witness is the kernel's least tight cycle: the lexicographically
    least optimal cycle of states, written from the least state on any.
    States are indexed in the lexicographic order of their suffix minima.
    """
    mu, tight = _tight_graph(graph)
    witness = _action_cycle(graph, least_tight_cycle(tight))
    return MeanCycleResult(float(mu), mu, witness, graph.num_nodes)


def optimal_cycles_unique(graph: StateGraph) -> tuple[Fraction, PriceCycle | None]:
    """Exact optimal value, plus the optimal action cycle when it is unique.

    Unique means every optimal cycle of the state graph is a rotation or
    repetition of a single simple cycle; the optimal cycles are the tight
    ones.  Every state keeps a tight out-edge (its policy edge), so peeling
    off the states with no tight in-edge left (in-degree counters and a
    queue, linear time) keeps exactly the states reachable from an optimal
    cycle, each with tight edges in and out.  The optimum is unique exactly
    when the tight edges left are as many as the witness's states.  Returns
    ``(value, None)`` otherwise.
    """
    mu, tight = _tight_graph(graph)
    witness = least_tight_cycle(tight)
    indegree = [0] * len(tight)
    for row in tight:
        for v in row:
            indegree[v] += 1
    queue = [u for u, degree in enumerate(indegree) if not degree]
    for u in queue:
        for v in tight[u]:
            indegree[v] -= 1
            if not indegree[v]:
                queue.append(v)
    # a peeled state's in-degree is 0, a kept one's counts its edges from kept states
    return mu, _action_cycle(graph, witness) if sum(indegree) == len(witness) else None


# ---------------------------------------------------------------------------
# exhaustive generator-cycle search
# ---------------------------------------------------------------------------


def _distinct_cycles(n: int, length: int):
    """All cycles of ``length`` distinct values from range(n), each written
    from its least value, which is its canonical rotation."""
    for combo in itertools.combinations(range(n), length):
        first = combo[0]
        for rest in itertools.permutations(combo[1:]):
            yield (first,) + rest


MAX_ENUMERATED_PRICES = 9


def exhaustive_generators(table: GainTable) -> GeneratorSearchResult:
    """Best generator cycle by direct enumeration of all distinct-price cycles.

    Each candidate is scored through its expansion with the exact objective,
    independently of the polynomial solver.  Factorial cost, hence the size
    guard :data:`MAX_ENUMERATED_PRICES`.
    """
    n = len(table.grid)
    if n > MAX_ENUMERATED_PRICES:
        raise ValueError(f"{n} prices exceeds the enumeration guard {MAX_ENUMERATED_PRICES}")
    best_value: Fraction | None = None
    best_gen: GeneratorCycle | None = None
    for length in range(1, n + 1):
        for values in _distinct_cycles(n, length):
            generator = GeneratorCycle(values)
            value = exact_objective(expand(generator, table.grid), table)
            if (best_value is None or value > best_value
                    or (value == best_value and values < best_gen.values)):
                best_value, best_gen = value, generator
    assert best_value is not None and best_gen is not None
    return GeneratorSearchResult(float(best_value), best_value, best_gen)


# ---------------------------------------------------------------------------
# witness replay
# ---------------------------------------------------------------------------

MAX_HORIZON = 10**7


def simulate(cycle: PriceCycle, table: GainTable, horizon: int) -> float:
    """Average gain over ``horizon`` steps of a price cycle, offered in order
    and repeated from the all-top-price start state.

    The start state's top prices, then the offers, stream through the core's
    reference walk, which holds at most one entry per price: linear time,
    constant memory; ``horizon`` is bounded by :data:`MAX_HORIZON`.  The
    average converges to :func:`refcycle.core.cycle_objective`.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the replay bound {MAX_HORIZON}")
    grid, gains = table.grid, table.gains
    cycle.validate_for(grid)
    offers = itertools.islice(itertools.cycle(cycle.tokens), horizon)
    history = itertools.repeat(len(grid) - 1, grid.memory)
    # added in step order, as in cycle_objective: the builtin sum rounds by version
    total = 0.0
    for ref, price in _reference_walk(itertools.chain(history, offers), grid.memory):
        total += gains[ref][price]
    return total / horizon
