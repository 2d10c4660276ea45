"""Cycle rewriting: low points, reset points, gap candidates, the full pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_table

from refcycle.core import GainTable, GeneratorCycle, PriceCycle, cycle_objective, expand, is_l_up_1_down
from refcycle.instances import integer_grid, random_monotone_table
from refcycle.oracle import StateGraph, max_mean_cycle
from refcycle.reduce import (
    ReductionViolationError,
    _duplicate_reset_pair,
    _normalize,
    _split,
    _strided_replacements,
    low_points,
    reduce_to_l_up_1_down,
    reset_points,
)
from refcycle.solver import solve

GRID6 = integer_grid(6, 3)
WORKED_RAW = PriceCycle.from_prices(GRID6, [1, 2, 3, 4, 5, 3, 4, 2, 6, 5, 3, 4, 5, 3])
WORKED_NORMALIZED = PriceCycle.from_prices(
    GRID6, [1, 2, 2, 2, 5, 5, 5, 3, 2, 6, 6, 6, 4, 4, 4, 3]
)


def normalize_runs(cycle, table):
    """The reduction's first phase alone: rewrite the stretches between low
    points of the canonical cycle; returns the canonical result."""
    start = cycle.canonical()
    return _normalize(start, cycle_objective(start, table), table, [])[0]


def split_at_resets(cycle, table, i, j):
    """The reset-split lemma's preconditions checked around ``reduce._split``:
    i and j are distinct reset points of the cycle carrying the same price.
    Returns the subcycles ending at i and at j, and the better of the two."""
    cycle.validate_for(table.grid)
    c = len(cycle)
    if i == j:
        raise ValueError("need two distinct reset points")
    if not (0 <= i < c and 0 <= j < c):
        raise IndexError("reset positions outside the cycle")
    if cycle.tokens[i] != cycle.tokens[j]:
        raise ValueError("reset points must carry the same price")
    resets = reset_points(cycle, table.grid)
    if i not in resets or j not in resets:
        raise ValueError("positions are not both reset points")
    first, second, better, _ = _split(cycle, table, i, j)
    return first, second, better


def quadratic_reset_pair(cycle, grid):
    """The split pair by listing every same-price pair of reset points and
    taking the least (longer subcycle, (i, j))."""
    c = len(cycle)
    by_price = {}
    for t in sorted(reset_points(cycle, grid)):
        by_price.setdefault(cycle.tokens[t], []).append(t)
    pairs = [(max((j - i) % c, (i - j) % c), (i, j))
             for positions in by_price.values()
             for a, i in enumerate(positions) for j in positions[a + 1:]]
    return min(pairs)[1] if pairs else None


def random_monotone_and_cycle(rng, max_len=12):
    n = int(rng.integers(2, 5))
    memory = int(rng.integers(1, 4))
    table = random_monotone_table(rng, n, memory)
    length = int(rng.integers(1, max_len + 1))
    cycle = PriceCycle(tuple(int(x) for x in rng.integers(0, n, size=length)))
    return table, cycle


@st.composite
def grid_and_cycle(draw):
    """Cycles both shorter and longer than the memory."""
    grid = integer_grid(draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    length = draw(st.integers(1, 12))
    tokens = tuple(draw(st.integers(0, len(grid) - 1)) for _ in range(length))
    return grid, PriceCycle(tokens)


def naive_window_min(tokens, memory, t, offsets):
    """Literal window formula: min over positions t - j for j in ``offsets``."""
    c = len(tokens)
    return min(tokens[(t - j) % c] for j in offsets)


def parses_into_blocks(cycle: PriceCycle, memory: int) -> bool:
    """Cyclic parse into blocks of size memory (constant) or size 1 (value at
    most the preceding token's value)."""
    tokens = cycle.tokens
    c = len(tokens)
    if c == 1:
        return True
    for start in range(c):
        rotated = tokens[start:] + tokens[:start]
        reachable = {0}
        for pos in range(c):
            if pos not in reachable:
                continue
            prev = rotated[pos - 1] if pos > 0 else rotated[-1]
            if rotated[pos] <= prev:
                reachable.add(pos + 1)
            if pos + memory <= c and len(set(rotated[pos:pos + memory])) == 1:
                reachable.add(pos + memory)
        if c in reachable:
            return True
    return False


# --- low points / reset points --------------------------------------------------


def test_low_points_worked_example():
    assert low_points(WORKED_RAW, GRID6) == {0, 5, 7, 13}


def test_low_points_constant():
    assert low_points(PriceCycle((2, 2, 2)), integer_grid(3, 2)) == {0, 1, 2}


def test_low_points_increasing_cycle_is_minimum_only():
    grid = integer_grid(4, 3)
    cycle = PriceCycle.from_prices(grid, [1, 2, 3, 4])
    assert low_points(cycle, grid) == {0}


def test_reset_points_worked_example():
    assert reset_points(WORKED_NORMALIZED, GRID6) == {0, 3, 6, 7, 8, 11, 12, 13, 14, 15}


def test_reset_points_constant():
    assert reset_points(PriceCycle((1, 1)), integer_grid(2, 3)) == {0, 1}


def test_reset_points_of_expansion():
    grid = integer_grid(2, 3)
    cycle = expand(GeneratorCycle((0, 1)), grid)
    assert cycle.tokens == (0, 1, 1, 1)
    assert reset_points(cycle, grid) == {0, 3}


@given(grid_and_cycle())
def test_low_points_match_naive_window(case):
    grid, cycle = case
    tokens = cycle.tokens
    expected = {
        t for t in range(len(tokens))
        if tokens[t] <= naive_window_min(tokens, grid.memory, t, range(1, grid.memory + 1))
    }
    assert low_points(cycle, grid) == expected


@given(grid_and_cycle())
def test_reset_points_match_naive_window(case):
    grid, cycle = case
    tokens = cycle.tokens
    expected = {
        t for t in range(len(tokens))
        if tokens[t] <= naive_window_min(tokens, grid.memory, t, range(grid.memory))
    }
    assert reset_points(cycle, grid) == expected


# --- gap candidates ---------------------------------------------------------------


def test_strided_replacement_candidates():
    # indices for prices 2,3,4,5 on the six-price grid
    gap = [1, 2, 3, 4]
    candidates = _strided_replacements(gap, 3)
    assert candidates == [
        (1, 1, 1, 4, 4, 4),   # 222555
        (2, 2, 2),            # 333
        (3, 3, 3),            # 444
    ]


# --- run normalization -------------------------------------------------------------


def test_normalize_runs_fixed_point_on_expansions(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        memory = int(rng.integers(1, 4))
        table = random_monotone_table(rng, n, memory)
        length = int(rng.integers(1, n + 1))
        gen = GeneratorCycle(tuple(int(v) for v in rng.permutation(n)[:length]))
        cycle = expand(gen, table.grid)
        assert normalize_runs(cycle, table).equivalent(cycle)


def test_normalize_runs_improves_and_reaches_block_form(rng):
    for _ in range(60):
        table, cycle = random_monotone_and_cycle(rng)
        before = cycle_objective(cycle, table)
        after_cycle = normalize_runs(cycle, table)
        after = cycle_objective(after_cycle, table)
        assert after >= before - 1e-12
        assert parses_into_blocks(after_cycle, table.grid.memory)


def test_normalize_runs_constant_collapse():
    # the diagonal gain of the gap price beats dropping the gap entirely
    grid = integer_grid(2, 2)
    table = GainTable.from_rows(grid, [[0.0, 0.0], [1.0, 0.9]])
    cycle = PriceCycle((0, 1))
    assert normalize_runs(cycle, table).tokens == (1,)
    final, steps = reduce_to_l_up_1_down(cycle, table)
    assert final.tokens == (1,)
    assert [step.kind for step in steps] == ["constant-collapse"]
    assert steps[0].objective_after == 0.9


def test_normalize_runs_raises_without_monotonicity():
    grid = integer_grid(2, 2)
    table = GainTable.from_rows(grid, [[0.0, 1.0], [0.0, 0.0]])
    cycle = PriceCycle((0, 1))  # value 1/2, every rewrite drops to 0
    with pytest.raises(ReductionViolationError):
        normalize_runs(cycle, table)


# --- reset splitting ----------------------------------------------------------------


def test_split_worked_example(rng):
    table = random_monotone_table(rng, 6, 3)
    first, second, better = split_at_resets(WORKED_NORMALIZED, table, 7, 15)
    assert first.equivalent(PriceCycle.from_prices(GRID6, [3, 2, 6, 6, 6, 4, 4, 4]))
    assert second.equivalent(PriceCycle.from_prices(GRID6, [3, 1, 2, 2, 2, 5, 5, 5]))
    assert better in (first, second)


def test_split_two_token_constant(rng):
    grid = integer_grid(2, 2)
    table = random_monotone_table(rng, 2, 2)
    cycle = PriceCycle((1, 1))
    first, second, better = split_at_resets(cycle, table, 0, 1)
    assert first.tokens == (1,)
    assert second.tokens == (1,)
    assert better.tokens == (1,)


def test_split_validation(rng):
    table = random_monotone_table(rng, 6, 3)
    with pytest.raises(ValueError):
        split_at_resets(WORKED_NORMALIZED, table, 7, 7)
    with pytest.raises(ValueError):
        split_at_resets(WORKED_NORMALIZED, table, 7, 8)  # prices 3 vs 2
    with pytest.raises(ValueError):
        split_at_resets(WORKED_NORMALIZED, table, 1, 7)  # 1 is not a reset point
    with pytest.raises(IndexError):
        split_at_resets(WORKED_NORMALIZED, table, 7, 99)


def test_split_never_loses_value_even_without_monotonicity(rng):
    # the split inequality is structural: it needs no assumption on the table
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 5))
        memory = int(rng.integers(1, 4))
        table = random_table(rng, n, memory)
        cycle = PriceCycle(tuple(int(x) for x in rng.integers(0, n, size=int(rng.integers(2, 13)))))
        resets = sorted(reset_points(cycle, table.grid))
        pair = None
        for i in resets:
            for j in resets:
                if i < j and cycle.tokens[i] == cycle.tokens[j]:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            continue
        original = cycle_objective(cycle, table)
        _, _, better = split_at_resets(cycle, table, *pair)
        assert cycle_objective(better, table) >= original - 1e-12
        checked += 1


def test_reset_pair_is_the_quadratic_rule(rng):
    tied = 0
    for case in range(3000):
        grid = integer_grid(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        length = int(rng.integers(1, 61)) if case % 10 else int(rng.integers(61, 241))
        cycle = PriceCycle(tuple(int(x) for x in rng.integers(0, len(grid), size=length)))
        pair = _duplicate_reset_pair(cycle, grid)
        assert pair == quadratic_reset_pair(cycle, grid)
        if pair is not None:
            i, j = pair
            # a pair at distance c/2 - x ties one at c/2 + x, and the lesser j wins
            resets = reset_points(cycle, grid)
            tied += any(max(k - i, length - k + i) == max(j - i, length - j + i)
                        for k in resets if k > j and cycle.tokens[k] == cycle.tokens[i])
    assert tied > 0


def test_reset_pair_memory_is_linear():
    # memory 1 makes every position a reset point: 4000 tokens on 3 prices
    # have about 2.7 million same-price pairs, which are never listed
    rng = np.random.default_rng(4000)
    grid = integer_grid(3, 1)
    cycle = PriceCycle(tuple(int(x) for x in rng.integers(0, 3, size=4000)))
    tracemalloc.start()
    try:
        pair = _duplicate_reset_pair(cycle, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    i, j = pair
    assert cycle.tokens[i] == cycle.tokens[j] and j - i in (1999, 2000, 2001)
    assert peak < 2_000_000


# --- full pipeline -----------------------------------------------------------------


def test_pipeline_identity_on_expansions(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        memory = int(rng.integers(1, 4))
        table = random_monotone_table(rng, n, memory)
        length = int(rng.integers(1, n + 1))
        gen = GeneratorCycle(tuple(int(v) for v in rng.permutation(n)[:length]))
        cycle = expand(gen, table.grid)
        final, steps = reduce_to_l_up_1_down(cycle, table)
        assert final.equivalent(cycle)
        assert steps == ()


def test_pipeline_on_random_instances(rng):
    for _ in range(120):
        table, cycle = random_monotone_and_cycle(rng)
        before = cycle_objective(cycle, table)
        final, steps = reduce_to_l_up_1_down(cycle, table)
        after = cycle_objective(final, table)
        ok, _ = is_l_up_1_down(final, table.grid)
        assert ok
        assert after >= before - 1e-12
        assert after <= solve(table).opt + 1e-9
        splits = sum(1 for step in steps if step.kind == "reset-split")
        assert splits <= len(cycle)
        for step in steps:
            assert step.objective_after >= step.objective_before - 1e-12


def test_pipeline_on_oracle_witnesses(rng):
    for _ in range(15):
        n = int(rng.integers(2, 4))
        memory = int(rng.integers(1, 3))
        table = random_monotone_table(rng, n, memory)
        oracle_result = max_mean_cycle(StateGraph.build(table))
        final, _ = reduce_to_l_up_1_down(oracle_result.cycle, table)
        assert cycle_objective(final, table) == pytest.approx(
            oracle_result.value, abs=1e-9
        )


def test_pipeline_trace_kinds_are_known(rng):
    known = {"gap-rewrite", "constant-collapse", "reset-split"}
    for _ in range(30):
        table, cycle = random_monotone_and_cycle(rng)
        _, steps = reduce_to_l_up_1_down(cycle, table)
        assert {step.kind for step in steps} <= known


def test_trace_objectives_are_those_of_the_recorded_cycles(rng):
    """Each step carries the float objectives of its own two cycles, bit for
    bit, and the steps chain in canonical tokens from the canonical input to the
    returned cycle.  A constant collapse records the diagonal gain g(t, t),
    which equals the one-token cycle's objective up to the sign of a zero."""
    kinds = set()
    for case in range(96):
        n = int(rng.integers(2, 6))
        memory = int(rng.integers(1, 5))
        if case % 2:  # tie-heavy: a few integer levels, columns sorted
            levels = np.sort(rng.integers(0, 4, (n, n)), axis=0)
            table = GainTable.from_rows(integer_grid(n, memory), levels.tolist())
        else:
            table = random_monotone_table(rng, n, memory)
        length = int(rng.integers(40, 121)) if case % 4 >= 2 else int(rng.integers(1, 13))
        cycle = PriceCycle(tuple(int(x) for x in rng.integers(0, n, size=length)))
        final, steps = reduce_to_l_up_1_down(cycle, table)
        current = cycle.canonical()
        for step in steps:
            assert step.before.tokens == current.tokens
            assert step.after.tokens == step.after.canonical().tokens
            assert step.objective_before.hex() == cycle_objective(step.before, table).hex()
            if step.kind == "constant-collapse":
                (t,) = step.after.tokens
                assert step.objective_after.hex() == table.gains[t][t].hex()
                assert step.objective_after == cycle_objective(step.after, table)
            else:
                assert step.objective_after.hex() == cycle_objective(step.after, table).hex()
            current = step.after
            kinds.add(step.kind)
        assert final.tokens == current.tokens
    assert kinds == {"gap-rewrite", "constant-collapse", "reset-split"}
