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


def slice_min_references(tokens, memory):
    """The former walk, kept as a reference: a slice minimum at every position
    of the cycle prefixed by its last w = min(memory, c) tokens."""
    c = len(tokens)
    window = min(memory, c)
    history = tokens[c - window:] + tokens
    return [min(history[t:t + window]) for t in range(c)]


@given(st.integers(1, 40), st.lists(st.integers(0, 5), min_size=1, max_size=60))
def test_reference_walk_matches_slice_minimum(memory, tokens):
    # memories both below and at or above the cycle length
    tokens = tuple(tokens)
    grid = integer_grid(6, memory)
    assert reference_indices(PriceCycle(tokens), grid) == slice_min_references(tokens, memory)


@pytest.mark.parametrize("memory", [5_000, 20_000])
def test_reference_walk_of_a_long_cycle(rng, memory):
    # a random walk of 20 000 tokens, so the window minima vary along the cycle;
    # the naive windows are read as a strided view of the prefixed cycle
    steps = rng.integers(-1, 2, size=20_000)
    tokens = np.cumsum(steps) - np.cumsum(steps).min()
    history = np.concatenate([tokens[len(tokens) - memory:], tokens])
    naive = np.lib.stride_tricks.sliding_window_view(history[:-1], memory).min(axis=1)
    grid = integer_grid(int(tokens.max()) + 1, memory)
    assert reference_indices(PriceCycle(tuple(tokens.tolist())), grid) == naive.tolist()


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


def reference_canonical(tokens):
    """The quadratic rule, kept as a reference: the least period p dividing
    the length with tokens[i] == tokens[(i + p) % c] everywhere, then the least
    of the base's rotations."""
    c = len(tokens)
    period = next(p for p in range(1, c + 1)
                  if c % p == 0 and all(tokens[i] == tokens[(i + p) % c] for i in range(c)))
    base = tokens[:period]
    return min(base[k:] + base[:k] for k in range(period))


def test_canonical_matches_the_quadratic_rule(rng):
    compared = 0
    for alphabet, longest in ((1, 12), (2, 12), (3, 8)):
        for c in range(1, longest + 1):
            for tokens in itertools.product(range(alphabet), repeat=c):
                assert PriceCycle(tokens).canonical().tokens == reference_canonical(tokens)
                compared += 1
    for _ in range(2000):
        base = tuple(int(t) for t in rng.integers(0, rng.integers(1, 6), size=rng.integers(1, 11)))
        tokens = base * int(rng.integers(1, 7))
        shift = int(rng.integers(len(tokens)))
        tokens = tokens[shift:] + tokens[:shift]
        assert PriceCycle(tokens).canonical().tokens == reference_canonical(tokens)
        compared += 1
    assert compared == 12 + 8190 + 9840 + 2000


def test_canonical_of_long_cycles(rng):
    # one lowest token at a random position: the cycle starting there
    tokens = [int(t) for t in rng.integers(1, 4, size=40_000)]
    position = int(rng.integers(40_000))
    tokens[position] = 0
    expected = tuple(tokens[position:] + tokens[:position])
    assert PriceCycle(tuple(tokens)).canonical().tokens == expected
    # a 4-token base repeated and rotated: the base's least rotation
    repeated = (2, 0, 1, 0) * 10_000
    shift = int(rng.integers(40_000))
    cycle = PriceCycle(repeated[shift:] + repeated[:shift])
    assert cycle.canonical().tokens == (0, 1, 0, 2)


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
    with pytest.raises(ValueError, match="nonnegative"):
        GeneratorCycle((1, -1))


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


def cyclic_runs_recognition(cycle, grid):
    """The former recognizer, kept as a reference: cyclic runs of the canonical
    tokens with a wrap-around run merged, a one-value special case, and the
    generator put in canonical rotation by the quadratic rule."""
    runs = []
    for tok in cycle.canonical().tokens:
        if runs and runs[-1][0] == tok:
            runs[-1][1] += 1
        else:
            runs.append([tok, 1])
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        runs[0][1] += runs.pop()[1]
    values = tuple(tok for tok, _ in runs)
    if len(values) == 1:
        return True, values
    if len(set(values)) != len(values):
        return False, None
    for t, (tok, count) in enumerate(runs):
        if count != (grid.memory if tok > values[t - 1] else 1):
            return False, None
    return True, min(values[k:] + values[:k] for k in range(len(values)))


def test_recognition_matches_cyclic_runs(rng):
    for i in range(3000):
        n, memory = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        grid = integer_grid(n, memory)
        if i % 2:
            tokens = rng.integers(0, n, size=int(rng.integers(1, 13))).tolist()
        else:  # an expansion, rotated, sometimes with one token changed
            values = rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist()
            tokens = list(expand(GeneratorCycle(tuple(values)), grid).tokens)
            shift = int(rng.integers(len(tokens)))
            tokens = tokens[shift:] + tokens[:shift]
            if i % 4:
                tokens[int(rng.integers(len(tokens)))] = int(rng.integers(n))
        cycle = PriceCycle(tuple(tokens))
        ok, generator = is_l_up_1_down(cycle, grid)
        assert (ok, generator and generator.values) == cyclic_runs_recognition(cycle, grid)


def test_generator_canonical_is_the_least_rotation(rng):
    for _ in range(500):
        values = tuple(rng.permutation(8)[:int(rng.integers(1, 9))].tolist())
        least = min(values[k:] + values[:k] for k in range(len(values)))
        assert GeneratorCycle(values).canonical() == GeneratorCycle(least)


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
