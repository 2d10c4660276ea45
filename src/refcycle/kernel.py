"""Exact maximum cost-to-time ratio cycles by Howard policy iteration.

A graph is given as, per node, a list of edges ``(successor, weight, time)``
with positive times.  :func:`max_ratio_cycle` runs the multichain form of
Howard's policy iteration (Howard 1960; Cochet-Terrasson et al. 1998) in
rational arithmetic and returns, per node, the best ratio ``value`` of a cycle
reachable from it, a ``bias`` and its ``tight`` successors.  At the fixed
point no edge leads to a higher value, and every edge (u, v) with
``value[v] == value[u]`` satisfies
``bias[u] >= weight - value[u] * time + bias[v]``, exactly; on a strongly
connected graph the value is uniform and the bias solves the optimality
equations with zero residual.

The edges that meet these equations with equality are read off the final
bias pass, the one that switches no edge; they form the critical graph: on a
strongly connected graph its cycles are exactly the optimal cycles, whichever
bias the iteration returned.  :func:`least_tight_cycle` picks the
lexicographically least of them, the tie-break shared by the solver and the
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["Edge", "max_ratio_cycle", "least_tight_cycle"]

Edge = tuple[int, Fraction, int]


def _evaluate(edges: Sequence[Sequence[Edge]], policy: list[int],
              bias: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Value and bias of a fixed policy.

    Each node's policy path ends on a cycle whose ratio is the node's value.
    The least node of each cycle keeps its previous bias, so a cycle that
    survives an iteration keeps its biases; the rest follow the policy edges.
    """
    n = len(edges)
    value: list[Fraction | None] = [None] * n
    bias = list(bias)
    on_walk = [False] * n
    for root in range(n):
        walk = []
        u = root
        while value[u] is None and not on_walk[u]:
            on_walk[u] = True
            walk.append(u)
            u = edges[u][policy[u]][0]
        if value[u] is None:  # the walk closed a new cycle at u
            cycle = walk[walk.index(u):]
            ratio = (Fraction(sum(edges[x][policy[x]][1] for x in cycle))
                     / sum(edges[x][policy[x]][2] for x in cycle))
            anchor = cycle.index(min(cycle))
            for x in cycle:
                value[x] = ratio
            for i in range(len(cycle) - 1, 0, -1):
                x = cycle[(anchor + i) % len(cycle)]
                _, weight, time = edges[x][policy[x]]
                bias[x] = weight - ratio * time + bias[cycle[(anchor + i + 1) % len(cycle)]]
        for x in reversed(walk):
            on_walk[x] = False
            if value[x] is None:
                v, weight, time = edges[x][policy[x]]
                value[x] = value[v]
                bias[x] = weight - value[v] * time + bias[v]
    return value, bias  # type: ignore[return-value]


def max_ratio_cycle(edges: Sequence[Sequence[Edge]], policy: Sequence[int] | None = None
                    ) -> tuple[list[Fraction], list[Fraction], list[list[int]]]:
    """Per-node optimal cycle ratio, bias and tight successors; see the module
    docstring.

    ``policy`` optionally gives the starting edge index per node; by default
    each node starts on its edge of best weight-to-time ratio.  A node switches
    edge only on a strict improvement, first of value and then of bias.
    ``tight[u]`` lists, in edge order, the successors v of equal value with
    ``bias[u] == weight - value[u] * time + bias[v]``; the final policy edge
    is among them, so no list is empty.
    """
    if policy is None:
        policy = [max(range(len(row)), key=lambda k: row[k][1] / row[k][2]) for row in edges]
    policy = list(policy)
    bias = [Fraction(0)] * len(edges)
    while True:
        value, bias = _evaluate(edges, policy, bias)
        switched = False
        for u, row in enumerate(edges):
            best = value[u]
            for k, (v, _, _) in enumerate(row):
                if value[v] > best:
                    best, policy[u], switched = value[v], k, True
        if switched:
            continue
        tight: list[list[int]] = []
        for u, row in enumerate(edges):
            best, successors = bias[u], []
            for k, (v, weight, time) in enumerate(row):
                if value[v] == value[u]:
                    slack = weight - value[u] * time + bias[v]
                    if slack > best:
                        best, policy[u], switched = slack, k, True
                    elif slack == best:
                        successors.append(v)
            tight.append(successors)
        if not switched:
            return value, bias, tight


def least_tight_cycle(tight: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Lexicographically least simple cycle of ``tight`` (successor lists),
    written from its least node; ``ValueError`` when there is none.

    From the least node s on any cycle, close the cycle when possible, else
    step to the least successor above s that can still return to s through
    unused nodes, found by a search along predecessor lists.
    """
    predecessors: list[list[int]] = [[] for _ in tight]
    for u, row in enumerate(tight):
        for v in row:
            predecessors[v].append(u)
    for s in range(len(tight)):
        path, used = [s], {s}
        while s not in tight[path[-1]]:
            returns, frontier = {s}, [s]
            while frontier:
                for u in predecessors[frontier.pop()]:
                    if u > s and u not in returns and u not in used:
                        returns.add(u)
                        frontier.append(u)
            steps = [v for v in tight[path[-1]] if v in returns]
            if not steps:
                break
            path.append(min(steps))
            used.add(path[-1])
        else:
            return tuple(path)
    raise ValueError("the graph has no cycle")
