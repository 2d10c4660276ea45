"""Cycle calculus: references, objectives, expansions, canonical forms."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from refcycle import core
from refcycle.core import (
    GainTable,
    GeneratorCycle,
    PriceCycle,
    PriceGrid,
    as_price,
    cycle_objective,
    expand,
    is_l_up_1_down,
    reference_indices,
)
from refcycle.instances import integer_grid, random_monotone_table


def naive_reference_index(tokens, memory, t):
    """Literal window formula: min over the previous ``memory`` positions."""
    c = len(tokens)
    return min(tokens[(t - j) % c] for j in range(1, memory + 1))


def reference_price(cycle, grid, t):
    """Reference price at position t: min of the previous ``memory`` prices."""
    return grid.prices[reference_indices(cycle, grid)[t]]


def rotated_repeat(cycle, shift, copies):
    """The cycle rotated left by ``shift`` positions and repeated ``copies`` times."""
    shift %= len(cycle)
    return PriceCycle((cycle.tokens[shift:] + cycle.tokens[:shift]) * copies)


def naive_objective(cycle, table):
    """Objective without canonicalisation, summed in cycle order."""
    c = len(cycle)
    total = 0.0
    for t in range(c):
        ref = naive_reference_index(cycle.tokens, table.grid.memory, t)
        total += table.gains[ref][cycle.tokens[t]]
    return total / c


# --- strategies -------------------------------------------------------------

grids = st.tuples(st.integers(1, 5), st.integers(1, 4)).map(
    lambda nm: integer_grid(nm[0], nm[1])
)


@st.composite
def grid_and_cycle(draw):
    grid = draw(grids)
    length = draw(st.integers(1, 12))
    tokens = tuple(
        draw(st.integers(0, len(grid) - 1)) for _ in range(length)
    )
    return grid, PriceCycle(tokens)


# --- PriceGrid / GainTable ---------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        PriceGrid((), 1)
    with pytest.raises(ValueError):
        PriceGrid.from_values([1, 1, 2], 1)
    with pytest.raises(ValueError):
        PriceGrid.from_values([2, 1], 1)
    with pytest.raises(ValueError):
        PriceGrid.from_values([1, 2], 0)


def test_as_price_is_decimal_exact():
    assert as_price(0.12) == Fraction(3, 25)
    assert as_price("0.12") == Fraction(3, 25)
    assert as_price(2) == Fraction(2)
    assert as_price(Fraction(1, 3)) == Fraction(1, 3)


def test_grid_lookup(grid4):
    assert grid4.index_of(3) == 2
    with pytest.raises(ValueError):
        grid4.index_of(5)


def test_gain_table_validation(grid4):
    with pytest.raises(ValueError):
        GainTable.from_rows(grid4, [[0.0] * 4] * 3)
    with pytest.raises(ValueError):
        GainTable.from_rows(grid4, [[float("nan")] * 4] * 4)


def test_reference_monotone_flag(demo_table, rng):
    assert not demo_table.reference_monotone()
    assert random_monotone_table(rng, 4, 2).reference_monotone()


# --- reference window --------------------------------------------------------


def test_reference_examples(grid4):
    cycle = PriceCycle.from_prices(grid4, [4, 1, 4, 2, 4, 3])
    assert reference_price(cycle, grid4, 0) == Fraction(3)

    constant = PriceCycle.from_prices(grid4, [2])
    for memory in (1, 2, 5):
        grid = integer_grid(4, memory)
        assert reference_price(constant, grid, 0) == Fraction(2)

    grid3 = integer_grid(2, 3)
    cycle = PriceCycle.from_prices(grid3, [1, 2, 2, 2])
    assert reference_price(cycle, grid3, 2) == Fraction(1)


@given(grid_and_cycle())
def test_reference_matches_naive_window(case):
    grid, cycle = case
    assert reference_indices(cycle, grid) == [
        naive_reference_index(cycle.tokens, grid.memory, t) for t in range(len(cycle))
    ]


# --- objective ---------------------------------------------------------------


def test_objective_examples(demo_table):
    grid = demo_table.grid
    assert cycle_objective(PriceCycle.from_prices(grid, [4, 1, 4, 2, 4, 3]), demo_table) == 1.0
    assert cycle_objective(PriceCycle.from_prices(grid, [4]), demo_table) == 0.0
    assert cycle_objective(PriceCycle.from_prices(grid, [1, 4]), demo_table) == 0.5


@given(grid_and_cycle(), st.integers(0, 11), st.integers(1, 3))
def test_objective_rotation_and_repetition_exact(case, shift, copies):
    grid, cycle = case
    rng = np.random.default_rng(7)
    table = random_monotone_table(rng, len(grid), grid.memory)
    base = cycle_objective(cycle, table)
    assert cycle_objective(rotated_repeat(cycle, shift, 1), table) == base
    assert cycle_objective(rotated_repeat(cycle, 0, copies), table) == base


@given(grid_and_cycle())
def test_objective_matches_naive(case):
    grid, cycle = case
    rng = np.random.default_rng(11)
    table = random_monotone_table(rng, len(grid), grid.memory)
    assert cycle_objective(cycle, table) == pytest.approx(
        naive_objective(cycle, table), abs=1e-12
    )


# --- canonical form ----------------------------------------------------------


def test_canonical_examples():
    assert PriceCycle((1, 0, 1, 0)).canonical().tokens == (0, 1)
    assert PriceCycle((2, 2, 2)).canonical().tokens == (2,)
    assert PriceCycle((0, 1, 1, 1)).canonical().tokens == (0, 1, 1, 1)
    assert PriceCycle((1, 1, 0, 1)).canonical().tokens == (0, 1, 1, 1)


@given(grid_and_cycle(), st.integers(0, 11), st.integers(1, 3))
def test_canonical_is_equivalence_normal_form(case, shift, copies):
    _, cycle = case
    variant = rotated_repeat(cycle, shift, copies)
    assert variant.canonical() == cycle.canonical()
    assert cycle.canonical().canonical() == cycle.canonical()
    assert cycle.equivalent(variant)


def test_cycle_validation(grid4):
    with pytest.raises(ValueError):
        PriceCycle(())
    with pytest.raises(ValueError):
        PriceCycle((-1,))
    with pytest.raises(ValueError):
        PriceCycle((9,)).validate_for(grid4)


# --- expansion ---------------------------------------------------------------


def test_expand_examples():
    grid = integer_grid(3, 3)
    assert expand(GeneratorCycle.from_prices(grid, [1, 2]), grid) == PriceCycle.from_prices(
        grid, [1, 2, 2, 2])
    assert expand(GeneratorCycle.from_prices(grid, [1, 3, 2]), grid) == PriceCycle.from_prices(
        grid, [1, 3, 3, 3, 2])
    assert expand(GeneratorCycle((1,)), grid).tokens == (1,)


def test_expand_length_formula():
    for n, memory in itertools.product((2, 3, 4), (1, 2, 3)):
        grid = integer_grid(n, memory)
        for length in range(1, n + 1):
            for combo in itertools.combinations(range(n), length):
                for rest in itertools.permutations(combo[1:]):
                    values = (combo[0],) + rest
                    generator = GeneratorCycle(values)
                    expanded = expand(generator, grid)
                    if length == 1:
                        assert len(expanded) == 1
                        continue
                    expected = sum(
                        1 + (memory - 1) * (values[t] > values[(t - 1) % length])
                        for t in range(length)
                    )
                    assert len(expanded) == expected


def test_expand_refuses_a_length_over_the_bound(monkeypatch):
    # (0, 1, 2) at memory m expands to 2m + 1 tokens: 5 at m = 2, 7 at m = 3
    monkeypatch.setattr(core, "MAX_EXPANSION", 5)
    assert len(expand(GeneratorCycle((0, 1, 2)), integer_grid(3, 2))) == 5
    with pytest.raises(ValueError, match="expansion of 7 tokens exceeds the bound 5"):
        expand(GeneratorCycle((0, 1, 2)), integer_grid(3, 3))
    assert expand(GeneratorCycle((2,)), integer_grid(3, 10**9)).tokens == (2,)


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorCycle((0, 0))
    with pytest.raises(ValueError):
        GeneratorCycle(())


# --- l-up-1-down recognition -------------------------------------------------


def test_recognition_examples():
    grid = integer_grid(3, 3)
    ok, gen = is_l_up_1_down(PriceCycle.from_prices(grid, [1, 2, 2, 2, 3, 3, 3]), grid)
    assert ok and gen.values == (0, 1, 2)

    ok, gen = is_l_up_1_down(PriceCycle.from_prices(grid, [1, 2]), grid)
    assert not ok and gen is None

    ok, _ = is_l_up_1_down(PriceCycle.from_prices(grid, [1, 2, 2, 2, 3, 3, 3, 2]), grid)
    assert not ok

    ok, _ = is_l_up_1_down(PriceCycle.from_prices(grid, [1, 1, 1, 2, 2, 2]), grid)
    assert not ok

    ok, gen = is_l_up_1_down(PriceCycle.from_prices(grid, [2]), grid)
    assert ok and gen.values == (1,)


def test_expansion_round_trip_all_small_generators():
    for n, memory in itertools.product((2, 3, 4, 5), (1, 2, 3)):
        grid = integer_grid(n, memory)
        for length in range(1, n + 1):
            for combo in itertools.combinations(range(n), length):
                for rest in itertools.permutations(combo[1:]):
                    generator = GeneratorCycle((combo[0],) + rest)
                    ok, recovered = is_l_up_1_down(expand(generator, grid), grid)
                    assert ok
                    assert recovered == generator.canonical()
