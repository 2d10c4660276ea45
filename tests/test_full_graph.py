"""The suffix-minimum oracle against the full n**m history graph.

The history graph has one state per length-``memory`` price history (most
recent last): offering p from h gains ``g(min h, p)`` and moves to
``h[1:] + (p,)``.  It is built here only, as a reference, and solved with the
same kernel; its optimal-cycle uniqueness is read off the strongly connected
components of its tight graph, independently of the oracle's peel.
"""

import itertools
from fractions import Fraction

import numpy as np

from refcycle.core import GainTable, PriceCycle
from refcycle.instances import integer_grid, random_monotone_table, random_table
from refcycle.kernel import max_ratio_cycle
from refcycle.oracle import StateGraph, exact_objective, max_mean_cycle, optimal_cycles_unique


def components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component label per node (Kosaraju, iterative)."""
    n = len(succ)
    order, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            u, rest = stack[-1]
            for v in rest:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(succ[v])))
                    break
            else:
                stack.pop()
                order.append(u)
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, row in enumerate(succ):
        for v in row:
            pred[v].append(u)
    label = [-1] * n
    for root in reversed(order):
        if label[root] < 0:
            label[root], stack = root, [root]
            while stack:
                for v in pred[stack.pop()]:
                    if label[v] < 0:
                        label[v] = root
                        stack.append(v)
    return label


def history_graph_optimum(table: GainTable) -> tuple[Fraction, PriceCycle | None]:
    """Exact optimal mean of the history graph, plus its optimal action cycle
    when every optimal cycle repeats that one."""
    n, memory = len(table.grid), table.grid.memory
    histories = list(itertools.product(range(n), repeat=memory))
    index = {h: i for i, h in enumerate(histories)}
    edges = [[(index[h[1:] + (p,)], Fraction(table.gains[min(h)][p]), 1) for p in range(n)]
             for h in histories]
    value, _, tight = max_ratio_cycle(edges)
    label = components(tight)
    # a tight edge lies on a tight (= optimal) cycle iff its ends share a component
    on_cycles = {u: v for u, row in enumerate(tight) for v in row if label[u] == label[v]}
    edge_count = sum(label[u] == label[v] for u, row in enumerate(tight) for v in row)
    if edge_count != len(on_cycles) or len({label[u] for u in on_cycles}) != 1:
        return value[0], None  # more than one simple optimal cycle of histories
    walk = [min(on_cycles)]
    while on_cycles[walk[-1]] != walk[0]:
        walk.append(on_cycles[walk[-1]])
    return value[0], PriceCycle(tuple(histories[v][-1] for v in walk)).canonical()


def tables():
    """Seeded tables of three kinds: 1-4 prices at memory 1-4 and 2-3 prices at
    memory 5-7; integer gains in {0, 1, 2} make ties common."""
    rng = np.random.default_rng(20261018)
    cells = [(n, m, 6) for n in range(1, 5) for m in range(1, 5)]
    cells += [(n, m, 2) for n in (2, 3) for m in (5, 6, 7)]
    for n, memory, count in cells:
        for _ in range(count):
            yield random_monotone_table(rng, n, memory)
            yield random_table(rng, n, memory)
            rows = rng.integers(0, 3, size=(n, n)).astype(float).tolist()
            yield GainTable.from_rows(integer_grid(n, memory), rows)


def test_suffix_minimum_oracle_matches_history_graph():
    checked = unique_seen = tied_seen = 0
    for table in tables():
        graph = StateGraph.build(table)
        reference_value, reference_unique = history_graph_optimum(table)
        witness = max_mean_cycle(graph)
        value, unique = optimal_cycles_unique(graph)
        assert witness.value_exact == reference_value == value
        assert exact_objective(witness.cycle, table) == reference_value
        assert unique == reference_unique
        checked += 1
        unique_seen += unique is not None
        tied_seen += unique is None
    assert checked >= 300 and unique_seen >= 100 and tied_seen >= 30
