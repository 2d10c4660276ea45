"""Unique-optimum instance construction and its oracle-backed certification."""

import itertools
from fractions import Fraction

import pytest

from refcycle.core import GainTable, GeneratorCycle, expansion_count
from refcycle.instances import integer_grid
from refcycle.oracle import StateGraph, max_mean_cycle
from refcycle.solver import solve
from refcycle.tightness import TightnessInstance, build, verify_uniqueness


def all_targets(n):
    for length in range(1, n + 1):
        for combo in itertools.combinations(range(n), length):
            for rest in itertools.permutations(combo[1:]):
                yield GeneratorCycle((combo[0],) + rest)


def test_pinned_two_price_instance():
    grid = integer_grid(2, 2)
    inst = build(GeneratorCycle((0, 1)), grid, optimal_value=Fraction(1))
    assert inst.table.gains == ((0.0, 0.5), (2.0, 0.5))
    assert inst.optimal_value == 1
    result = solve(inst.table)
    assert result.opt == 1.0
    assert result.generator.values == (0, 1)
    assert result.cycle.tokens == (0, 1, 1)
    assert verify_uniqueness(inst)
    # exhaustive check: no cycle of length <= 6 beats the expansion
    best = max_mean_cycle(StateGraph.build(inst.table))
    assert best.value == 1.0
    assert best.cycle.tokens == (0, 1, 1)


def test_default_parameters():
    grid = integer_grid(2, 2)
    inst = build(GeneratorCycle((0, 1)), grid)
    assert inst.optimal_value == Fraction(3, 2)  # bias range / memory + 1
    assert inst.bias == (Fraction(0), Fraction(1))
    assert verify_uniqueness(inst)


def test_build_is_reference_monotone():
    grid = integer_grid(4, 3)
    inst = build(GeneratorCycle((0, 3, 1)), grid)
    assert inst.table.reference_monotone()
    assert inst.penalty < 0


def test_build_validation():
    grid = integer_grid(3, 2)
    with pytest.raises(ValueError):
        build(GeneratorCycle((0, 1)), grid, bias=(Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        build(GeneratorCycle((0, 1)), grid, optimal_value=Fraction(1, 4))
    with pytest.raises(ValueError):
        build(GeneratorCycle((0, 5)), grid)
    with pytest.raises(ValueError):
        build(GeneratorCycle((0, 1)), grid, penalty=1.0)
    with pytest.raises(ValueError):
        GeneratorCycle((0, 0))  # duplicate targets rejected at the type level


def test_single_price_target():
    grid = integer_grid(3, 2)
    inst = build(GeneratorCycle((1,)), grid)
    assert inst.optimal_value == 1
    assert verify_uniqueness(inst)
    result = solve(inst.table)
    assert result.opt == 1.0
    assert result.generator.values == (1,)


def test_relabeling_symmetry():
    # the construction depends only on the ranks of the target prices
    low = integer_grid(2, 2)
    inst_low = build(GeneratorCycle((0, 1)), low)
    high = integer_grid(2, 2)
    # same shape over different price labels
    from refcycle.core import PriceGrid

    shifted = PriceGrid.from_values([7, 11], 2)
    inst_high = build(GeneratorCycle((0, 1)), shifted)
    assert inst_low.table.gains == inst_high.table.gains
    assert solve(inst_low.table).opt == solve(inst_high.table).opt


def test_tied_bias_breaks_uniqueness():
    grid = integer_grid(2, 2)
    # build refuses non-increasing bias, so assemble the degenerate table by hand
    table = GainTable.from_rows(grid, [[0.0, 1.0], [1.0, 1.0]])
    tied = TightnessInstance(
        table=table,
        target=GeneratorCycle((0, 1)),
        bias=(Fraction(0), Fraction(0)),
        optimal_value=Fraction(1),
        penalty=-2.0,
    )
    assert not verify_uniqueness(tied)


def test_wrong_value_fails_verification():
    grid = integer_grid(2, 2)
    inst = build(GeneratorCycle((0, 1)), grid)
    lying = TightnessInstance(
        table=inst.table,
        target=inst.target,
        bias=inst.bias,
        optimal_value=inst.optimal_value + 1,
        penalty=inst.penalty,
    )
    assert not verify_uniqueness(lying)


def test_optimality_equation_equality_pattern():
    # equality exactly on consecutive target pairs, strict elsewhere
    for n, memory in ((3, 2), (4, 3), (4, 1)):
        grid = integer_grid(n, memory)
        for target in (GeneratorCycle(tuple(range(n))), GeneratorCycle((0, n - 1))):
            inst = build(target, grid)
            d = len(target)
            successor = {
                target.values[(t - 1) % d]: target.values[t] for t in range(d)
            }
            value = float(inst.optimal_value)
            # the bias is aligned with the target's values sorted by price
            bias = dict(zip(sorted(target.values), inst.bias))
            for r in target.values:
                for p in target.values:
                    lhs = (inst.table.gains[r][p] - value) * expansion_count(
                        memory, r, p
                    ) + float(bias[p])
                    rhs = float(bias[r])
                    if successor[r] == p:
                        assert lhs == pytest.approx(rhs, abs=1e-9)
                    else:
                        assert lhs < rhs - 1e-9


def test_desk_scale_certification_small():
    # |P| <= 3 and memory <= 2 here; the acceptance suite covers |P| <= 4, memory <= 3
    for n in (1, 2, 3):
        for memory in (1, 2):
            grid = integer_grid(n, memory)
            for target in all_targets(n):
                inst = build(target, grid)
                assert verify_uniqueness(inst), (n, memory, target.values)
                result = solve(inst.table)
                assert result.generator == target.canonical()
                assert result.opt_exact == pytest.approx(float(inst.optimal_value), abs=1e-12)


def test_large_bias_certification_allows_float_rounding():
    # gains of order B / memory are stored as floats, so the optimal mean can
    # sit off the constructed C by rounding; each case is still uniquely optimal
    moved = 0
    for memory in (2, 3, 5, 7):
        grid = integer_grid(3, memory)
        for bias_range in (10**e + k for e in range(6, 13) for k in range(3)):
            inst = build(GeneratorCycle((0, 2, 1)), grid,
                         bias=(0, Fraction(bias_range, 7), bias_range))
            assert verify_uniqueness(inst), (memory, bias_range)
            found = max_mean_cycle(StateGraph.build(inst.table)).value_exact
            moved += found != inst.optimal_value
    assert moved >= 60
