"""Exact maximum cost-to-time ratio cycles by Howard policy iteration.

A graph is given as, per node, a list of edges ``(successor, gain, steps)``:
the edge earns ``gain`` on each of ``steps`` steps, so its weight is
gain * steps and its time is steps.  Gains are floats or rationals, steps
positive integers.  :func:`max_ratio_cycle` runs the multichain form of
Howard's policy iteration (Howard 1960; Cochet-Terrasson et al. 1998) and
returns, per node, the best ratio ``value`` of a cycle reachable from it, a
``bias`` and its ``tight`` successors.

The iteration runs on Python integers only.  Every gain is put over one
common denominator, the lcm of the gains' denominators (a power of two for
float gains), so each weight gain * steps is an integer over it, and every
value and bias over one common scale, a multiple of each cycle's reduced time
seen so far; sums, products and comparisons are then exact integer
operations, and ``Fraction``s are built only for the returned values and
biases.

At the fixed point no edge leads to a higher value, and every edge (u, v)
with ``value[v] == value[u]`` satisfies
``bias[u] >= (gain - value[u]) * steps + bias[v]``, exactly; on a strongly
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

import math
from fractions import Fraction
from typing import Sequence

from .core import _common_denominator

__all__ = ["Edge", "max_ratio_cycle", "least_tight_cycle"]

Edge = tuple[int, float | Fraction, int]


def _evaluate(edges: Sequence[Sequence[tuple[int, int, int]]], policy: list[int],
              bias: list[int], scale: int) -> tuple[list[int], list[int], int]:
    """Value and bias of a fixed policy on integer weights, over ``scale``.

    Each node's policy path ends on a cycle whose ratio is the node's value.
    The least node of each cycle keeps its previous bias, so a cycle that
    survives an iteration keeps its biases; the rest follow the policy edges.
    Values come back as levels, value times ``scale``, and biases as bias
    times ``scale``.  When a cycle's ratio, in lowest terms, has a time that
    does not divide ``scale``, the scale and every bias and level so far are
    multiplied up to a common multiple.
    """
    n = len(edges)
    level: list[int | None] = [None] * n
    bias = list(bias)
    on_walk = [False] * n
    for root in range(n):
        walk = []
        u = root
        while level[u] is None and not on_walk[u]:
            on_walk[u] = True
            walk.append(u)
            u = edges[u][policy[u]][0]
        if level[u] is None:  # the walk closed a new cycle at u
            cycle = walk[walk.index(u):]
            total = sum(edges[x][policy[x]][1] for x in cycle)
            length = sum(edges[x][policy[x]][2] for x in cycle)
            common = math.gcd(total, length)
            total, length = total // common, length // common
            if scale % length:
                factor = length // math.gcd(scale, length)
                scale *= factor
                bias = [b * factor for b in bias]
                level = [None if lv is None else lv * factor for lv in level]
            ratio = total * (scale // length)
            anchor = cycle.index(min(cycle))
            for x in cycle:
                level[x] = ratio
            for i in range(len(cycle) - 1, 0, -1):
                x = cycle[(anchor + i) % len(cycle)]
                _, weight, time = edges[x][policy[x]]
                bias[x] = weight * scale - ratio * time + bias[cycle[(anchor + i + 1) % len(cycle)]]
        for x in reversed(walk):
            on_walk[x] = False
            if level[x] is None:
                v, weight, time = edges[x][policy[x]]
                level[x] = level[v]
                bias[x] = weight * scale - level[v] * time + bias[v]
    return level, bias, scale  # type: ignore[return-value]


def max_ratio_cycle(edges: Sequence[Sequence[Edge]], policy: Sequence[int] | None = None
                    ) -> tuple[list[Fraction], list[Fraction], list[list[int]]]:
    """Per-node optimal cycle ratio, bias and tight successors; see the module
    docstring.

    ``policy`` optionally gives the starting edge index per node; by default
    each node starts on its edge of highest gain, the first on ties.  A node
    switches edge only on a strict improvement, first of value and then of
    bias.  ``tight[u]`` lists, in edge order, the successors v of equal value
    with ``bias[u] == (gain - value[u]) * steps + bias[v]``; the final policy
    edge is among them, so no list is empty.
    """
    # gains over their common denominator ``unit``: integer weights gain * unit * steps
    unit, weights = _common_denominator([gain for _, gain, _ in row] for row in edges)
    graph = [[(v, w * steps, steps) for (v, _, steps), w in zip(row, ws)]
             for row, ws in zip(edges, weights)]
    if policy is None:
        policy = [max(range(len(row)), key=lambda k: row[k][1]) for row in edges]
    policy = list(policy)
    bias, scale = [0] * len(graph), 1
    while True:
        level, bias, scale = _evaluate(graph, policy, bias, scale)
        switched = False
        for u, row in enumerate(graph):
            best = level[u]
            for k, (v, _, _) in enumerate(row):
                if level[v] > best:
                    best, policy[u], switched = level[v], k, True
        if switched:
            continue
        tight: list[list[int]] = []
        for u, row in enumerate(graph):
            own, best, successors = level[u], bias[u], []
            for k, (v, weight, time) in enumerate(row):
                if level[v] == own:
                    slack = weight * scale - own * time + bias[v]
                    if slack > best:
                        best, policy[u], switched = slack, k, True
                    elif slack == best:
                        successors.append(v)
            tight.append(successors)
        if not switched:
            denominator = unit * scale
            values = {lv: Fraction(lv, denominator) for lv in set(level)}
            return ([values[lv] for lv in level],
                    [Fraction(b, denominator) for b in bias], tight)


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
