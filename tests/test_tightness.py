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
    inst = build(GeneratorCycle((0, 1)), grid)
    assert inst.table.gains == ((0.0, 2.0), (5.0, 2.0))
    assert inst.optimal_value == 3
    assert inst.penalty == -11
    result = solve(inst.table)
    assert result.opt == 3.0
    assert result.generator.values == (0, 1)
    assert result.cycle.tokens == (0, 1, 1)
    assert verify_uniqueness(inst)
    # exact check on the state graph: no cycle beats the expansion
    best = max_mean_cycle(StateGraph.build(inst.table))
    assert best.value == 3.0
    assert best.cycle.tokens == (0, 1, 1)


def test_default_parameters():
    grid = integer_grid(2, 2)
    inst = build(GeneratorCycle((0, 1)), grid)
    assert inst.optimal_value == 3  # memory + d - 1
    assert inst.bias == (0, 2)  # memory * i
    assert verify_uniqueness(inst)


def test_build_is_reference_monotone():
    grid = integer_grid(4, 3)
    inst = build(GeneratorCycle((0, 3, 1)), grid)
    assert inst.table.reference_monotone()
    assert inst.penalty < 0


def test_build_validation():
    grid = integer_grid(3, 2)
    with pytest.raises(ValueError):
        build(GeneratorCycle((0, 5)), grid)
    with pytest.raises(ValueError):
        GeneratorCycle((0, 0))  # duplicate targets rejected at the type level


def test_single_price_target():
    grid = integer_grid(3, 2)
    inst = build(GeneratorCycle((1,)), grid)
    assert inst.optimal_value == 2  # memory
    assert inst.table.gains == ((-3.0, 2.0, -3.0),) * 3
    assert verify_uniqueness(inst)
    result = solve(inst.table)
    assert result.opt == 2.0
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
    # build always takes the bias 0, 1, ..., so assemble the degenerate table by hand
    table = GainTable.from_rows(grid, [[0.0, 1.0], [1.0, 1.0]])
    tied = TightnessInstance(
        table=table,
        target=GeneratorCycle((0, 1)),
        bias=(0, 0),
        optimal_value=1,
        penalty=-2,
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
            value = Fraction(inst.optimal_value)
            # the bias is aligned with the target's values sorted by price
            bias = dict(zip(sorted(target.values), inst.bias))
            for r in target.values:
                for p in target.values:
                    lhs = (Fraction(inst.table.gains[r][p]) - value) * expansion_count(
                        memory, r, p
                    ) + bias[p]
                    rhs = Fraction(bias[r])
                    if successor[r] == p:
                        assert lhs == rhs
                    else:
                        assert lhs < rhs


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
                assert result.opt_exact == inst.optimal_value


def test_certification_is_exact_on_integer_gains():
    # every gain is an integer, so the oracle's exact optimum is the constructed C
    # itself, with no rounding allowance; every target is uniquely optimal
    cases = 0
    for n in range(1, 5):
        for memory in (1, 2, 3, 5) if n == 4 else (1, 2, 3, 5, 7):
            grid = integer_grid(n, memory)
            for target in all_targets(n):
                inst = build(target, grid)
                assert all(g == int(g) for row in inst.table.gains for g in row)
                assert verify_uniqueness(inst), (n, memory, target.values)
                found = max_mean_cycle(StateGraph.build(inst.table)).value_exact
                assert found == inst.optimal_value, (n, memory, target.values)
                cases += 1
    assert cases == 156
