"""Exact, exponential-cost verifiers for the reference-effect pricing problem.

The full decision process has one state per length-``memory`` price history,
so ``|P|**memory`` states.  Transitions are deterministic: offering price p
from history s yields gain ``g(min s, p)`` and moves to ``(s[1:], p)``.  The
best long-run average over all policies equals the maximum mean cycle of this
graph, which :func:`max_mean_cycle` computes exactly (rational arithmetic)
by policy iteration (:mod:`refcycle.kernel`, unit times) plus a tight-edge
analysis for the witness.  :func:`exhaustive_generators` independently
enumerates every cycle of distinct prices and scores its expansion directly,
and :func:`simulate` replays a plan step by step from the all-top-price start
state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    GainTable,
    GeneratorCycle,
    PriceCycle,
    expand,
    reference_index_at,
)
from .kernel import Edge, max_ratio_cycle

__all__ = [
    "NodeBudgetError",
    "StateGraph",
    "MeanCycleResult",
    "GeneratorSearchResult",
    "SimulationStep",
    "max_mean_cycle",
    "optimal_cycles_unique",
    "exhaustive_generators",
    "exact_objective",
    "simulate",
]


class NodeBudgetError(ValueError):
    """State space larger than the configured node budget."""


@dataclass(frozen=True)
class StateGraph:
    """Materialized state graph: every price history of length ``memory``.

    ``nodes[i]`` is a tuple of price indices with the most recent price last;
    the edge for action p goes to ``nodes[i][1:] + (p,)`` and carries weight
    ``gains[min(nodes[i])][p]``.
    """

    table: GainTable
    nodes: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, table: GainTable, node_budget: int = 10**6) -> "StateGraph":
        n = len(table.grid)
        count = n ** table.grid.memory
        if count > node_budget:
            raise NodeBudgetError(
                f"state graph needs {count} nodes, budget is {node_budget}"
            )
        nodes = tuple(itertools.product(range(n), repeat=table.grid.memory))
        return cls(table, nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_actions(self) -> int:
        return len(self.table.grid)

    def node_index(self) -> dict[tuple[int, ...], int]:
        return {node: i for i, node in enumerate(self.nodes)}

    def successor(self, node: tuple[int, ...], action: int) -> tuple[int, ...]:
        return node[1:] + (action,)

    def edge_weight(self, node: tuple[int, ...], action: int) -> Fraction:
        return Fraction(self.table.gains[min(node)][action])


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


def _edge_lists(graph: StateGraph) -> list[list[Edge]]:
    """Adjacency as (successor index, weight, time 1) per node, indexed by action."""
    index = graph.node_index()
    return [
        [(index[graph.successor(node, action)], graph.edge_weight(node, action), 1)
         for action in range(graph.num_actions)]
        for node in graph.nodes
    ]


def _critical_components(graph: StateGraph):
    """Exact optimal mean, tight (action, successor) lists, and cycle components.

    The state graph is strongly connected, so policy iteration returns one
    value and a bias with h[u] >= w - mu + h[v] on every edge.  Tight edges
    attain equality; every cycle of tight edges is optimal and every optimal
    cycle is tight, whichever valid bias is used.
    """
    out_edges = _edge_lists(graph)
    value, h, _ = max_ratio_cycle(out_edges)
    mu = value[0]
    tight = [
        [(action, v) for action, (v, w, _) in enumerate(out_edges[u]) if h[u] == w - mu + h[v]]
        for u in range(len(out_edges))
    ]
    return mu, tight, _cycle_components(tight)


def _strongly_connected(tight) -> list[list[int]]:
    """Tarjan's algorithm (iterative) on the tight subgraph."""
    n = len(tight)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, iter([v for _, v in tight[root]]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            u, it = work[-1]
            advanced = False
            for v in it:
                if index_of[v] == -1:
                    index_of[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                    work.append((v, iter([w for _, w in tight[v]])))
                    advanced = True
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index_of[v])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
            if low[u] == index_of[u]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == u:
                        break
                components.append(comp)
    return components


def _cycle_components(tight) -> list[list[int]]:
    """Nontrivial strongly connected components: those containing a cycle."""
    comps = _strongly_connected(tight)
    keep = []
    for comp in comps:
        if len(comp) > 1:
            keep.append(sorted(comp))
        else:
            u = comp[0]
            if any(v == u for _, v in tight[u]):
                keep.append(comp)
    return keep


def _walk_cycle(tight, component: list[int]) -> list[tuple[int, int]]:
    """Deterministic cycle inside a component: from its least node, follow the
    least tight action that stays inside until a node repeats.

    Returns the cycle as (node, action) pairs in traversal order.
    """
    members = set(component)
    succ: dict[int, tuple[int, int]] = {}
    for u in component:
        for action, v in tight[u]:
            if v in members:
                succ[u] = (action, v)
                break
    walk = [min(component)]
    seen = {walk[0]: 0}
    while True:
        action, v = succ[walk[-1]]
        if v in seen:
            start = seen[v]
            cycle_nodes = walk[start:]
            return [(u, succ[u][0]) for u in cycle_nodes]
        seen[v] = len(walk)
        walk.append(v)


def max_mean_cycle(graph: StateGraph) -> MeanCycleResult:
    """Best long-run average gain over all policies, with an optimal cycle.

    The witness is deterministic: the cycle traced by least-action tight
    edges from the least state of the least optimal component.  When several
    cycles attain the optimum this need not be the globally least one.
    """
    mu, tight, components = _critical_components(graph)
    assert components, "an optimal cycle always exists"
    component = min(components, key=lambda comp: comp[0])
    pairs = _walk_cycle(tight, component)
    witness = PriceCycle(tuple(action for _, action in pairs)).canonical()
    return MeanCycleResult(float(mu), mu, witness, graph.num_nodes)


def optimal_cycles_unique(graph: StateGraph) -> tuple[Fraction, PriceCycle | None]:
    """Exact optimal value, plus the optimal action cycle when it is unique.

    Unique means every cycle attaining the optimum in the state graph is a
    rotation or repetition of a single simple cycle; all such cycles live in
    the tight subgraph, so uniqueness holds exactly when there is one
    nontrivial component and each of its nodes keeps a single tight edge
    inside it.  Returns ``(value, None)`` otherwise.
    """
    mu, tight, components = _critical_components(graph)
    if len(components) != 1:
        return mu, None
    component = components[0]
    members = set(component)
    for u in component:
        if sum(1 for _, v in tight[u] if v in members) != 1:
            return mu, None
    pairs = _walk_cycle(tight, component)
    if len(pairs) != len(component):
        return mu, None
    return mu, PriceCycle(tuple(action for _, action in pairs)).canonical()


# ---------------------------------------------------------------------------
# exhaustive generator-cycle search
# ---------------------------------------------------------------------------


def exact_objective(cycle: PriceCycle, table: GainTable) -> Fraction:
    """Rational-arithmetic version of :func:`refcycle.core.cycle_objective`."""
    cycle.validate_for(table.grid)
    canon = cycle.canonical()
    total = Fraction(0)
    for t in range(len(canon)):
        ref = reference_index_at(canon, table.grid, t)
        total += Fraction(table.gains[ref][canon.tokens[t]])
    return total / len(canon)


def _distinct_cycles(n: int, length: int):
    """All cycles of ``length`` distinct values from range(n), one rotation each."""
    for combo in itertools.combinations(range(n), length):
        first = combo[0]
        for rest in itertools.permutations(combo[1:]):
            yield (first,) + rest


def exhaustive_generators(table: GainTable, max_prices: int = 9) -> GeneratorSearchResult:
    """Best generator cycle by direct enumeration of all distinct-price cycles.

    Each candidate is scored through its expansion with the exact objective,
    independently of the polynomial solver.  Factorial cost, hence the size
    guard.
    """
    n = len(table.grid)
    if n > max_prices:
        raise ValueError(f"{n} prices exceeds the enumeration guard {max_prices}")
    best_value: Fraction | None = None
    best_gen: GeneratorCycle | None = None
    for length in range(1, n + 1):
        for values in _distinct_cycles(n, length):
            generator = GeneratorCycle(values)
            value = exact_objective(expand(generator, table.grid), table)
            key = generator.canonical().values
            if (best_value is None or value > best_value
                    or (value == best_value and key < best_gen.values)):
                best_value = value
                best_gen = GeneratorCycle(key)
    assert best_value is not None and best_gen is not None
    return GeneratorSearchResult(float(best_value), best_value, best_gen)


# ---------------------------------------------------------------------------
# trajectory replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationStep:
    state: tuple[Fraction, ...]
    reference: Fraction
    price: Fraction
    gain: float


def simulate(plan: PriceCycle | Callable[[tuple[int, ...]], int],
             table: GainTable, horizon: int) -> list[SimulationStep]:
    """Replay a price plan from the all-top-price start state.

    ``plan`` is either a price cycle, offered in order and repeated, or a
    policy mapping the state (previous price indices, most recent last) to
    the next price index.  For cyclic plans the running average gain
    converges to :func:`refcycle.core.cycle_objective`.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    grid = table.grid
    n = len(grid)
    state = (n - 1,) * grid.memory
    if isinstance(plan, PriceCycle):
        plan.validate_for(grid)
        tokens = plan.tokens
        choose = lambda t, s: tokens[t % len(tokens)]
    else:
        choose = lambda t, s: plan(s)
    steps: list[SimulationStep] = []
    for t in range(horizon):
        action = choose(t, state)
        if not 0 <= action < n:
            raise ValueError(f"plan chose invalid price index {action}")
        ref = min(state)
        steps.append(SimulationStep(
            state=tuple(grid.prices[i] for i in state),
            reference=grid.prices[ref],
            price=grid.prices[action],
            gain=table.gains[ref][action],
        ))
        state = state[1:] + (action,)
    return steps
