"""Exact verifiers: state graph, max-mean cycle, generator enumeration, replay."""

import json
import tracemalloc
from fractions import Fraction

import pytest

from conftest import random_table

from refcycle import oracle
from refcycle.cli import main
from refcycle.core import GainTable, GeneratorCycle, PriceCycle, cycle_objective, expand
from refcycle.instances import integer_grid, random_monotone_table
from refcycle.oracle import (
    MAX_HORIZON,
    NodeBudgetError,
    StateGraph,
    exact_objective,
    exhaustive_generators,
    max_mean_cycle,
    optimal_cycles_unique,
    simulate,
)


def successor(node: tuple[int, ...], action: int) -> tuple[int, ...]:
    """The state after offering ``action`` from ``node``: suffix minima by definition."""
    return tuple(min(action, x) for x in node[1:]) + (action,)


def state_edges(graph: StateGraph) -> list[list[tuple[int, Fraction]]]:
    """Per state, one ``(successor index, gain)`` pair per action, one step at a time."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    return [
        [(index[successor(node, a)], Fraction(graph.table.gains[node[0]][a]))
         for a in range(graph.num_actions)]
        for node in graph.nodes
    ]


def brute_force_max_mean(graph: StateGraph) -> Fraction:
    """Independent oracle: enumerate every simple cycle of the state graph."""
    succ = state_edges(graph)
    n = len(succ)
    best: list[Fraction | None] = [None]

    def extend(start: int, node: int, on_path: set[int], weight: Fraction, length: int):
        for nxt, w in succ[node]:
            if nxt == start:
                mean = (weight + w) / (length + 1)
                if best[0] is None or mean > best[0]:
                    best[0] = mean
            elif nxt > start and nxt not in on_path:
                on_path.add(nxt)
                extend(start, nxt, on_path, weight + w, length + 1)
                on_path.remove(nxt)

    for start in range(n):
        extend(start, start, {start}, Fraction(0), 0)
    assert best[0] is not None
    return best[0]


def strictness_instance() -> GainTable:
    """Non-monotone table whose optimum needs a repeated price: max mean 4/5
    via cycle 13323, while the best distinct-price cycle reaches only 3/4."""
    grid = integer_grid(3, 2)
    return GainTable.from_rows(grid, [
        [0.0, 0.1, 1.0],
        [1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
    ])


# --- state graph -------------------------------------------------------------


def test_state_graph_shape(demo_table):
    graph = StateGraph.build(demo_table)
    assert graph.num_nodes == 10  # C(4 + 2 - 1, 2) suffix-minimum states
    assert graph.num_actions == 4
    assert successor((0, 2), 3) == (2, 3)
    assert successor((0, 2), 1) == (1, 1)
    assert set(graph.nodes) == {successor(node, a) for node in graph.nodes for a in range(4)}
    assert state_edges(graph)[graph.nodes.index((0, 2))][3] == (
        graph.nodes.index((2, 3)), Fraction(1))  # reference 1, price 4


def test_node_budget(demo_table, monkeypatch):
    monkeypatch.setattr(oracle, "NODE_BUDGET", 15)
    with pytest.raises(NodeBudgetError):
        StateGraph.build(demo_table)
    # the budget counts 10 states times max(4 prices, memory 2)
    monkeypatch.setattr(oracle, "NODE_BUDGET", 40)
    assert StateGraph.build(demo_table).num_nodes == 10
    monkeypatch.setattr(oracle, "NODE_BUDGET", 39)
    with pytest.raises(NodeBudgetError):
        StateGraph.build(demo_table)


def test_node_budget_refuses_oversized_grid_before_building():
    # 40 prices at memory 7: C(46, 7) * 40 = 2.1e9 edges, refused without enumerating
    huge = GainTable.from_rows(integer_grid(40, 7), [[0.0] * 40] * 40)
    with pytest.raises(NodeBudgetError, match=r"max\(40 prices, memory 7\) = 2140987200,"):
        StateGraph.build(huge)


@pytest.mark.parametrize("prices, memory", [(1, 10**9), (2, 3000)])
def test_oracle_refuses_long_memory_before_building(prices, memory, tmp_path, monkeypatch,
                                                    capsys):
    # every state is a memory-long tuple: 1 state x 10^9 entries, or
    # 3001 states x 3000 entries, is over the budget however few the edges
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"prices": list(range(1, prices + 1)), "memory": memory,
                                "gains": [[0.5] * prices] * prices}))

    def refuse(*args):
        raise AssertionError("the state graph was built")

    monkeypatch.setattr(oracle.itertools, "combinations_with_replacement", refuse)
    assert main(["oracle", "--gains", str(path)]) == 2
    assert "budget is 1000000" in capsys.readouterr().err


def test_node_budget_admits_ten_prices_at_memory_six():
    # 5005 states, 50 050 edges: inside the default budget
    table = GainTable.from_rows(integer_grid(10, 6), [[0.0] * 10] * 10)
    graph = StateGraph.build(table)
    assert graph.num_nodes == 5005
    assert all(a <= b for node in graph.nodes for a, b in zip(node, node[1:]))


# --- max mean cycle ----------------------------------------------------------


def test_demo_instance_value_and_witness(demo_table):
    result = max_mean_cycle(StateGraph.build(demo_table))
    assert result.value == 1.0
    assert result.value_exact == Fraction(1)
    assert result.nodes == 10
    assert cycle_objective(result.cycle, demo_table) == result.value
    # several cycles attain 1.0 here; the deterministic witness is the
    # five-step expansion of generator (1, 2, 3)
    assert result.cycle.tokens == (0, 1, 1, 2, 2)


def test_constant_table():
    grid = integer_grid(3, 2)
    table = GainTable.from_rows(grid, [[0.25] * 3] * 3)
    result = max_mean_cycle(StateGraph.build(table))
    assert result.value == 0.25


def test_matches_brute_force_enumeration(rng):
    for _ in range(25):
        n = int(rng.integers(2, 4))
        memory = int(rng.integers(1, 3))
        table = (random_monotone_table if rng.random() < 0.5 else random_table)(
            rng, n, memory
        )
        graph = StateGraph.build(table)
        result = max_mean_cycle(graph)
        assert result.value_exact == brute_force_max_mean(graph)
        assert exact_objective(result.cycle, table) == result.value_exact


def test_witness_objective_matches_value(rng):
    for _ in range(10):
        table = random_monotone_table(rng, 4, 2)
        result = max_mean_cycle(StateGraph.build(table))
        assert cycle_objective(result.cycle, table) == pytest.approx(result.value, abs=1e-12)


# --- exhaustive generator search ----------------------------------------------


def test_exhaustive_single_price():
    grid = integer_grid(1, 2)
    table = GainTable.from_rows(grid, [[0.625]])
    result = exhaustive_generators(table)
    assert result.value == 0.625
    assert result.best.values == (0,)


def test_exhaustive_on_demo_table(demo_table):
    # generator (1,2,3) collects the same unit gains as the mixed cycle, so
    # the enumeration reaches 1.0 here as well
    result = exhaustive_generators(demo_table)
    assert result.value == 1.0
    assert result.best.values == (0, 1, 2)


def test_exhaustive_on_two_price_unique_instance():
    grid = integer_grid(2, 2)
    table = GainTable.from_rows(grid, [[0.0, 0.5], [2.0, 0.5]])
    result = exhaustive_generators(table)
    assert result.value == 1.0
    assert result.best.values == (0, 1)


def test_exhaustive_agrees_with_expansion_objective(rng):
    table = random_monotone_table(rng, 3, 2)
    result = exhaustive_generators(table)
    assert cycle_objective(expand(result.best, table.grid), table) == pytest.approx(
        result.value, abs=1e-12
    )


def test_exhaustive_size_guard(rng, monkeypatch):
    table = random_monotone_table(rng, 4, 1)
    monkeypatch.setattr(oracle, "MAX_ENUMERATED_PRICES", 3)
    with pytest.raises(ValueError):
        exhaustive_generators(table)


def test_monotone_tables_need_no_repeated_prices(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        memory = int(rng.integers(1, 4))
        table = random_monotone_table(rng, n, memory)
        full = max_mean_cycle(StateGraph.build(table))
        reduced = exhaustive_generators(table)
        assert full.value_exact == reduced.value_exact


def test_nonmonotone_gap_is_witnessed():
    table = strictness_instance()
    full = max_mean_cycle(StateGraph.build(table))
    reduced = exhaustive_generators(table)
    assert full.value_exact == Fraction(4, 5)
    assert reduced.value_exact == Fraction(3, 4)
    assert reduced.best.values == (0, 2, 1)
    assert full.value_exact > reduced.value_exact


def test_nonmonotone_never_below_generators(rng):
    for _ in range(15):
        table = random_table(rng, 3, 2)
        full = max_mean_cycle(StateGraph.build(table))
        reduced = exhaustive_generators(table)
        assert full.value_exact >= reduced.value_exact


# --- uniqueness analysis -------------------------------------------------------


def test_unique_cycle_reported(demo_table):
    grid = integer_grid(2, 2)
    unique_table = GainTable.from_rows(grid, [[0.0, 0.5], [2.0, 0.5]])
    value, cycle = optimal_cycles_unique(StateGraph.build(unique_table))
    assert value == Fraction(1)
    assert cycle is not None and cycle.tokens == (0, 1, 1)

    value, cycle = optimal_cycles_unique(StateGraph.build(demo_table))
    assert value == Fraction(1)
    assert cycle is None  # 12233 and 414243 both attain the optimum


def optimal_state_cycles(graph: StateGraph) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Brute force: the optimal mean and every optimal simple state cycle,
    each written from its least state."""
    succ = state_edges(graph)
    cycles: list[tuple[Fraction, tuple[int, ...]]] = []

    def extend(path: list[int], weight: Fraction):
        for nxt, w in succ[path[-1]]:
            if nxt == path[0]:
                cycles.append(((weight + w) / len(path), tuple(path)))
            elif nxt > path[0] and nxt not in path:
                extend(path + [nxt], weight + w)

    for start in range(len(succ)):
        extend([start], Fraction(0))
    best = max(mean for mean, _ in cycles)
    return best, [states for mean, states in cycles if mean == best]


def test_witness_and_uniqueness_match_brute_force(rng):
    # at most 9 states; half the tables have gains in {0, 1, 2}, so ties are common
    shapes = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
    unique_seen = tied_seen = 0
    for i in range(140):
        n, memory = shapes[i % len(shapes)]
        if i % 2:
            rows = rng.integers(0, 3, size=(n, n)).astype(float).tolist()
            table = GainTable.from_rows(integer_grid(n, memory), rows)
        else:
            table = random_table(rng, n, memory)
        graph = StateGraph.build(table)
        best, optimal = optimal_state_cycles(graph)
        actions = {
            PriceCycle(tuple(graph.nodes[v][-1] for v in states)).canonical()
            for states in optimal
        }
        witness = max_mean_cycle(graph)
        assert witness.value_exact == best
        assert exact_objective(witness.cycle, table) == best
        least = min(optimal)
        assert witness.cycle == PriceCycle(tuple(graph.nodes[v][-1] for v in least)).canonical()
        value, unique = optimal_cycles_unique(graph)
        assert value == best
        if len(actions) == 1:
            unique_seen += 1
            assert unique == actions.pop()
        else:
            tied_seen += 1
            assert unique is None
    assert unique_seen >= 40 and tied_seen >= 10


# --- replay -------------------------------------------------------------------


def reference_replay(cycle: PriceCycle, table: GainTable, horizon: int) -> float:
    """The per-step replay: one (reference, price, gain) record per step from
    the all-top-price start, then the average of the recorded gains."""
    grid = table.grid
    state = (len(grid) - 1,) * grid.memory
    steps = []
    for t in range(horizon):
        action = cycle.tokens[t % len(cycle.tokens)]
        ref = min(state)
        steps.append((grid.prices[ref], grid.prices[action], table.gains[ref][action]))
        state = state[1:] + (action,)
    return sum(gain for _, _, gain in steps) / len(steps)


def tie_heavy_table(rng, n: int, memory: int) -> GainTable:
    return GainTable.from_rows(integer_grid(n, memory),
                               rng.integers(0, 3, size=(n, n)).astype(float).tolist())


def test_simulate_constant():
    # gains 10 * reference + price: from the all-top start the first offer of
    # price 2 sees reference 4, every later one sees reference 2
    grid = integer_grid(4, 3)
    table = GainTable.from_rows(grid, [[10.0 * r + p for p in range(4)] for r in range(4)])
    cycle = PriceCycle.from_prices(grid, [2])
    assert simulate(cycle, table, 1) == table.gains[3][1] == 31.0
    assert simulate(cycle, table, 10) == (31.0 + 9 * 11.0) / 10


def test_simulate_running_average_converges(demo_table):
    cycle = PriceCycle.from_prices(demo_table.grid, [4, 1, 4, 2, 4, 3])
    assert abs(simulate(cycle, demo_table, 600) - 1.0) <= 0.01


def test_simulate_matches_per_step_replay(rng):
    makers = (random_monotone_table, random_table, tie_heavy_table)
    cases = 0
    for i in range(120):
        n, memory = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        table = makers[i % len(makers)](rng, n, memory)
        generator = GeneratorCycle(tuple(rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist()))
        for cycle in (max_mean_cycle(StateGraph.build(table)).cycle, expand(generator, table.grid)):
            for horizon in {1, memory - 1, memory, len(cycle), 600, 1001} - {0}:
                expected = reference_replay(cycle, table, horizon)
                assert simulate(cycle, table, horizon).hex() == expected.hex()
                cases += 1
    assert cases >= 1000


def test_simulate_memory_is_constant_in_horizon(demo_table):
    cycle = max_mean_cycle(StateGraph.build(demo_table)).cycle
    tracemalloc.start()
    try:
        simulate(cycle, demo_table, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_simulate_refuses_bad_horizon_and_cycle(demo_table):
    cycle = PriceCycle((0,))
    for horizon in (0, -1, MAX_HORIZON + 1):
        with pytest.raises(ValueError, match="horizon"):
            simulate(cycle, demo_table, horizon)
    with pytest.raises(ValueError):
        simulate(PriceCycle((9,)), demo_table, 2)
