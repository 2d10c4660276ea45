"""Reduced-process solver: ratio objective, exact ratio kernel, optimality equations."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_table

from refcycle.core import (
    GainTable,
    GeneratorCycle,
    PriceCycle,
    cycle_objective,
    exact_objective,
    expand,
    expansion_count,
)
from refcycle.instances import integer_grid, random_monotone_table
from refcycle.kernel import least_tight_cycle, max_ratio_cycle
from refcycle.oracle import StateGraph, exhaustive_generators, max_mean_cycle
from refcycle import solver as solver_module
from refcycle.solver import bellman_residual, solve


def generator_objective(generator: GeneratorCycle, table: GainTable) -> float:
    """Per-step average gain of a distinct-price cycle: the exact mean of its
    expansion, rounded once to float."""
    return float(exact_objective(expand(generator, table.grid), table))


def two_price_unique_table() -> GainTable:
    grid = integer_grid(2, 2)
    return GainTable.from_rows(grid, [[0.0, 0.5], [2.0, 0.5]])


def lattice_table(rng, n, memory, denominator=64) -> GainTable:
    """Monotone table with dyadic entries, so adding integers stays exact."""
    draws = rng.integers(0, denominator + 1, size=(n, n)) / denominator
    draws.sort(axis=0)
    return GainTable.from_rows(integer_grid(n, memory), draws.tolist())


# --- transition steps and the ratio objective ---------------------------------


def test_transition_steps():
    # k(r, p): memory steps for an increase over the reference, else one
    assert expansion_count(3, 0, 2) == 3
    assert expansion_count(3, 2, 0) == 1
    assert expansion_count(3, 1, 1) == 1
    assert expansion_count(1, 0, 2) == 1


def test_generator_objective_examples(demo_table):
    gen = GeneratorCycle.from_prices(demo_table.grid, [1, 4])
    assert generator_objective(gen, demo_table) == pytest.approx(2.0 / 3.0, abs=1e-15)
    single = GeneratorCycle.from_prices(demo_table.grid, [3])
    assert generator_objective(single, demo_table) == demo_table.gains[2][2]
    with pytest.raises(ValueError):
        generator_objective(GeneratorCycle((0, 9)), demo_table)


def test_generator_objective_matches_expansion(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        memory = int(rng.integers(1, 4))
        table = random_monotone_table(rng, n, memory)
        length = int(rng.integers(1, n + 1))
        values = tuple(int(v) for v in rng.permutation(n)[:length])
        gen = GeneratorCycle(values)
        direct = generator_objective(gen, table)
        expanded = cycle_objective(expand(gen, table.grid), table)
        assert direct == pytest.approx(expanded, abs=1e-12)
        # ratio formula: offering v[t] from reference v[t-1] for k_t steps
        steps = [
            (values[t - 1], v, expansion_count(memory, values[t - 1], v))
            for t, v in enumerate(values)
        ]
        ratio = (sum(Fraction(table.gains[prev][v]) * k for prev, v, k in steps)
                 / sum(k for _, _, k in steps))
        assert exact_objective(expand(gen, table.grid), table) == ratio
        assert direct == float(ratio)


# --- exact max-ratio kernel ----------------------------------------------------


def brute_force_best_ratio(edges, nodes):
    """Best weight-to-time ratio over the simple cycles inside ``nodes``."""
    best = None

    def extend(start, node, on_path, total, time):
        nonlocal best
        for nxt, w, t in edges[node]:
            if nxt == start:
                ratio = (total + w) / (time + t)
                best = ratio if best is None else max(best, ratio)
            elif nxt > start and nxt in nodes and nxt not in on_path:
                on_path.add(nxt)
                extend(start, nxt, on_path, total + w, time + t)
                on_path.remove(nxt)

    for start in nodes:
        extend(start, start, {start}, Fraction(0), 0)
    return best


def complete_graphs(rng, count=60):
    """Complete graphs on 1-4 nodes with weights in sixteenths; times come from
    their own generator, so the seeded weight matrices do not depend on them."""
    time_rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        weights = [
            [Fraction(int(x), 16) for x in rng.integers(-20, 21, size=n)]
            for _ in range(n)
        ]
        times = [[int(t) for t in time_rng.integers(1, 5, size=n)] for _ in range(n)]
        yield [[(v, weights[u][v], times[u][v]) for v in range(n)] for u in range(n)]


def multichain_graphs(rng, count=40):
    """Sparse graphs on 1-6 nodes, one or two edges each, often with several
    closed classes of different values."""
    for _ in range(count):
        n = int(rng.integers(1, 7))
        yield [
            [(v, Fraction(int(rng.integers(-8, 9)), 4), int(rng.integers(1, 4)))
             for v in sorted({int(v) for v in rng.integers(0, n, size=int(rng.integers(1, 3)))})]
            for _ in range(n)
        ]


def test_kernel_ratio_matches_brute_force(rng):
    for edges in complete_graphs(rng):
        n = len(edges)
        value, bias, tight = max_ratio_cycle(edges)
        best = brute_force_best_ratio(edges, set(range(n)))
        assert value == [best] * n
        for u in range(n):
            right = [w - best * t + bias[v] for v, w, t in edges[u]]
            assert bias[u] - max(right) == 0
            assert tight[u] and all(bias[u] - right[v] == 0 for v in tight[u])


def test_kernel_multichain_values(rng):
    # each node's value is the best ratio of a cycle it can reach
    for edges in multichain_graphs(rng):
        n = len(edges)
        value, bias, tight = max_ratio_cycle(edges)
        for u in range(n):
            reach, frontier = {u}, [u]
            while frontier:
                for v, _, _ in edges[frontier.pop()]:
                    if v not in reach:
                        reach.add(v)
                        frontier.append(v)
            assert value[u] == brute_force_best_ratio(edges, reach)
            for v, w, t in edges[u]:
                assert value[v] < value[u] or bias[u] >= w - value[u] * t + bias[v]
            assert tight[u]
            for v in tight[u]:
                _, w, t = next(edge for edge in edges[u] if edge[0] == v)
                assert value[v] == value[u] and bias[u] == w - value[u] * t + bias[v]


def reference_tight_successors(edges, value, bias):
    """Per node, the successors whose edge meets the optimality equations with
    equality, recomputed from the returned value and bias."""
    return [[v for v, weight, time in row
             if bias[u] == weight - value[u] * time + bias[v] and value[v] == value[u]]
            for u, row in enumerate(edges)]


def test_kernel_tight_graph_is_read_off_the_fixed_point(rng):
    # the returned tight lists are those of the returned value and bias, and
    # those are a fixed point: no edge leads to a higher value or a larger bias
    graphs = [*complete_graphs(rng), *multichain_graphs(rng)]
    for edges in graphs:
        value, bias, tight = max_ratio_cycle(edges)
        assert tight == reference_tight_successors(edges, value, bias)
        assert all(tight)
        for u, row in enumerate(edges):
            for v, w, t in row:
                assert value[v] < value[u] or (
                    value[v] == value[u] and bias[u] >= w - value[u] * t + bias[v])


def reference_evaluate(edges, policy, bias):
    """The rational kernel's policy evaluation, kept as a reference: value and
    bias of a fixed policy in ``Fraction`` arithmetic, the least node of each
    cycle keeping its previous bias."""
    n = len(edges)
    value = [None] * n
    bias = list(bias)
    on_walk = [False] * n
    for root in range(n):
        walk = []
        u = root
        while value[u] is None and not on_walk[u]:
            on_walk[u] = True
            walk.append(u)
            u = edges[u][policy[u]][0]
        if value[u] is None:
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
    return value, bias


def reference_max_ratio_cycle(edges, policy=None):
    """The rational kernel's policy iteration, kept as a reference: the same
    start policy, strict-improvement switches and tight lists as
    :func:`refcycle.kernel.max_ratio_cycle`, every step in ``Fraction``s."""
    if policy is None:
        policy = [max(range(len(row)), key=lambda k: row[k][1] / row[k][2]) for row in edges]
    policy = list(policy)
    bias = [Fraction(0)] * len(edges)
    while True:
        value, bias = reference_evaluate(edges, policy, bias)
        switched = False
        for u, row in enumerate(edges):
            best = value[u]
            for k, (v, _, _) in enumerate(row):
                if value[v] > best:
                    best, policy[u], switched = value[v], k, True
        if switched:
            continue
        tight = []
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


WEIGHT_KINDS = {
    "float": lambda rng: Fraction(float(rng.normal())),
    "integer-tie": lambda rng: Fraction(int(rng.integers(0, 3))),
    "non-dyadic": lambda rng: Fraction(int(rng.integers(-6, 7)), int(rng.choice([1, 3, 7, 21]))),
    "extreme": lambda rng: Fraction(float(rng.choice(
        [5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 0.1, 0.0]))),
}


def reference_graphs(rng):
    """Complete, multichain and sparse graphs for every weight kind, times 1-7."""
    for shape in ("complete", "multichain", "sparse"):
        for kind, weight in WEIGHT_KINDS.items():
            for _ in range(84):
                n = int(rng.integers(1, 7 if shape == "complete" else 11))
                rows = []
                for u in range(n):
                    if shape == "complete":
                        successors = range(n)
                    else:
                        degree = int(rng.integers(1, 3 if shape == "multichain" else 5))
                        successors = sorted({int(v) for v in rng.integers(0, n, size=degree)})
                    rows.append([(v, weight(rng), int(rng.integers(1, 8))) for v in successors])
                yield f"{shape}/{kind}", rows


def test_kernel_matches_the_rational_reference(rng):
    # the integer kernel takes the rational kernel's path, so value, bias and
    # tight lists are equal, with and without a starting policy
    compared = 0
    for label, edges in reference_graphs(rng):
        start = [int(rng.integers(len(row))) for row in edges]
        for policy in (None, start):
            assert max_ratio_cycle(edges, policy) == reference_max_ratio_cycle(edges, policy), label
            compared += 1
    assert compared == 2016


def test_kernel_matches_the_rational_reference_inside_solve(rng, monkeypatch):
    # both of solve's kernel runs, the anchored one with its starting policy
    calls = []

    def recorded(edges, policy=None):
        result = max_ratio_cycle(edges, policy)
        calls.append((edges, policy, result))
        return result

    monkeypatch.setattr(solver_module, "max_ratio_cycle", recorded)
    for i in range(60):
        n, memory = int(rng.integers(2, 13)), int(rng.integers(1, 8))
        if i % 3 == 2:
            rows = rng.integers(0, 3, size=(n, n)).tolist()
            table = GainTable.from_rows(integer_grid(n, memory), rows)
        else:
            table = (random_monotone_table if i % 3 else random_table)(rng, n, memory)
        solve(table)
    assert len(calls) == 120 and all(policy is not None for _, policy, _ in calls[1::2])
    for edges, policy, result in calls:
        assert result == reference_max_ratio_cycle(edges, policy)


def test_kernel_rescales_biases_for_each_new_cycle_time():
    # six self-loops of prime times, each entered from one tree node: every
    # cycle brings a new denominator, so the common bias scale grows six times
    primes = (2, 3, 5, 7, 11, 13)
    edges = [[(i, Fraction(1), p)] for i, p in enumerate(primes)]
    edges += [[(i, Fraction(0), 1)] for i in range(6)]
    value, bias, tight = max_ratio_cycle(edges)
    assert (value, bias, tight) == reference_max_ratio_cycle(edges)
    assert math.lcm(*(b.denominator for b in bias)) == math.prod(primes)


def brute_force_least_cycle(successors):
    """Least of all simple cycles, each written from its least node, or None."""
    cycles = []

    def extend(path):
        for nxt in successors[path[-1]]:
            if nxt == path[0]:
                cycles.append(tuple(path))
            elif nxt > path[0] and nxt not in path:
                extend(path + [nxt])

    for start in range(len(successors)):
        extend([start])
    return min(cycles, default=None)


def test_least_tight_cycle_matches_brute_force(rng):
    found = 0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        density = float(rng.uniform(0.1, 0.5))
        successors = [[v for v in range(n) if rng.random() < density] for _ in range(n)]
        expected = brute_force_least_cycle(successors)
        if expected is None:
            with pytest.raises(ValueError):
                least_tight_cycle(successors)
        else:
            found += 1
            assert least_tight_cycle(successors) == expected
    assert found >= 100


def test_tight_successors_skip_edges_to_lower_values():
    # node 0 loops at ratio 1, node 1 at ratio 0; the edge 0 -> 1 meets the
    # bias equation by coincidence but leads to a lower value
    edges = [[(0, Fraction(1), 1), (1, Fraction(1), 1)], [(1, Fraction(0), 1)]]
    value, bias, tight = max_ratio_cycle(edges)
    assert value == [1, 0] and bias[0] == 1 - 1 + bias[1]
    assert tight == [[0], [1]]


def test_least_tight_cycle_rejects_acyclic_graph():
    with pytest.raises(ValueError):
        least_tight_cycle([[1, 2, 3], [2, 3], [3], []])


# --- solve ----------------------------------------------------------------------


def test_solve_constant_table():
    grid = integer_grid(3, 2)
    table = GainTable.from_rows(grid, [[0.75] * 3] * 3)
    result = solve(table)
    assert result.opt == 0.75
    assert result.generator.values == (0,)
    assert not result.assumption_violated
    assert result.bias == (0.0, 0.0, 0.0)


def test_solve_two_price_instance():
    table = two_price_unique_table()
    result = solve(table)
    assert result.opt == 1.0
    assert result.generator.values == (0, 1)
    assert result.cycle.tokens == (0, 1, 1)
    assert result.bias == (0.0, 1.0)
    assert bellman_residual(result, table) == 0.0


def test_solve_matches_oracle_on_monotone_instances(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        memory = int(rng.integers(1, 4))
        table = random_monotone_table(rng, n, memory)
        result = solve(table)
        oracle_result = max_mean_cycle(StateGraph.build(table))
        assert result.opt_exact == oracle_result.value_exact
        assert bellman_residual(result, table) <= 1e-8
        assert not result.assumption_violated


def test_solve_matches_oracle_at_memory_seven(rng):
    # the allocator's data uses memory 7; the state graph has 8, 36, 120, 330,
    # 792 and 3432 suffix-minimum states for 2 to 6 and 8 prices
    for n, count in ((2, 3), (3, 2), (4, 2), (5, 1), (6, 1), (8, 1)):
        for _ in range(count):
            table = random_monotone_table(rng, n, 7)
            assert solve(table).opt_exact == max_mean_cycle(StateGraph.build(table)).value_exact


def test_memory_one_reduces_to_plain_mean_cycle(rng):
    # with memory 1 the full state graph *is* the per-price graph
    for _ in range(20):
        n = int(rng.integers(2, 6))
        table = random_table(rng, n, 1)
        result = solve(table)
        oracle_result = max_mean_cycle(StateGraph.build(table))
        assert result.opt_exact == oracle_result.value_exact


def test_gain_shift_moves_opt_exactly(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        memory = int(rng.integers(1, 4))
        table = lattice_table(rng, n, memory)
        shifted = GainTable.from_rows(
            table.grid, [[g + 1.0 for g in row] for row in table.gains]
        )
        base = solve(table)
        moved = solve(shifted)
        assert moved.opt == base.opt + 1.0
        assert moved.generator == base.generator


def test_residual_detects_perturbed_opt(rng):
    table = random_monotone_table(rng, 4, 2)
    result = solve(table)
    assert bellman_residual(result, table) <= 1e-8
    perturbed = replace(result, opt=result.opt + 0.1)
    assert bellman_residual(perturbed, table) >= 0.099


def test_hand_built_result_has_zero_residual():
    from refcycle.solver import SolveResult

    table = two_price_unique_table()
    hand = SolveResult(
        opt=1.0,
        bias=(0.0, 1.0),
        generator=GeneratorCycle((0, 1)),
        cycle=PriceCycle((0, 1, 1)),
        assumption_violated=False,
        opt_exact=Fraction(1),
    )
    assert bellman_residual(hand, table) == 0.0


def test_nonmonotone_flagged_and_best_generator_reported(demo_table):
    result = solve(demo_table)
    assert result.assumption_violated
    assert result.opt == exhaustive_generators(demo_table).value
    assert bellman_residual(result, demo_table) <= 1e-8


def test_solve_agrees_with_enumeration_everywhere(rng):
    # non-monotone tables too: the solver's answer is the best generator cycle
    for _ in range(25):
        n = int(rng.integers(2, 5))
        memory = int(rng.integers(1, 4))
        table = random_table(rng, n, memory)
        result = solve(table)
        assert result.opt_exact == exhaustive_generators(table).value_exact
        assert bellman_residual(result, table) <= 1e-8


def test_tie_break_is_least_canonical_generator():
    # all gains equal: every generator is optimal, so the single lowest price wins
    grid = integer_grid(4, 2)
    table = GainTable.from_rows(grid, [[0.5] * 4] * 4)
    assert solve(table).generator.values == (0,)


def test_tie_break_does_not_depend_on_grid_size(rng):
    # a tie-heavy 6-price table embedded in 12 prices, the new rows and
    # columns at -1, keeps its optimal cycles and so its least generator
    for _ in range(20):
        memory = int(rng.integers(1, 4))
        gains = rng.integers(0, 4, size=(6, 6)).astype(float)
        small = GainTable.from_rows(integer_grid(6, memory), gains.tolist())
        padded = np.full((12, 12), -1.0)
        padded[:6, :6] = gains
        big = GainTable.from_rows(integer_grid(12, memory), padded.tolist())
        expected = exhaustive_generators(small).best
        assert solve(small).generator == expected
        assert solve(big).generator == expected


def test_solve_result_cycle_is_expansion(rng):
    for _ in range(10):
        table = random_monotone_table(rng, 3, 3)
        result = solve(table)
        assert result.cycle == expand(result.generator, table.grid)
        assert generator_objective(result.generator, table) == pytest.approx(
            result.opt, abs=1e-12
        )


def test_all_small_generators_scored_identically_by_both_routes(rng):
    # the ratio formula and the expansion objective are the same functional
    for n, memory in itertools.product((2, 3, 4, 5), (1, 2, 3)):
        table = random_monotone_table(rng, n, memory)
        for length in range(1, n + 1):
            for combo in itertools.combinations(range(n), length):
                for rest in itertools.permutations(combo[1:]):
                    gen = GeneratorCycle((combo[0],) + rest)
                    assert generator_objective(gen, table) == pytest.approx(
                        cycle_objective(expand(gen, table.grid), table), abs=1e-12
                    )
