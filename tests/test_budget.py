"""Shadow-price bisection against the redemption budget."""

import logging

import numpy as np
import pytest

from refcycle.allocator import budget
from refcycle.allocator import (
    AllocationModel,
    BudgetConfig,
    DiscountSet,
    InfeasibleBudgetError,
    myopic_assign,
    projected_redemption,
    purchase_prob_table,
    tune_lambda,
)
from refcycle.allocator.budget import LAMBDA_BOUNDS, TOLERANCE


def population(rng, size=150, dims=4):
    X = rng.uniform(0.0, 2.0, size=(size, dims))
    beta = rng.uniform(1.0, 10.0, size=dims)
    alpha = np.concatenate([[rng.uniform(-2.5, -1.0)], rng.uniform(-0.1, 0.1, size=dims)])
    model = AllocationModel(tuple(f"f{i}" for i in range(dims)), alpha, beta)
    return X, model


def redemption_at(model, X, lam, basket, discounts):
    return projected_redemption(model, X, myopic_assign(model, X, lam, discounts), basket)


def test_config_validation():
    with pytest.raises(ValueError):
        BudgetConfig(basket_value=0.0, budget=1.0)
    with pytest.raises(ValueError):
        BudgetConfig(basket_value=1.0, budget=-1.0)
    for basket, budget in ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            BudgetConfig(basket_value=basket, budget=budget)
    assert BudgetConfig(basket_value=1.0, budget=float("inf")).budget == float("inf")


def test_loose_budget_returns_lower_bound(rng):
    X, model = population(rng)
    discounts = DiscountSet()
    base = redemption_at(model, X, 1.0, 100.0, discounts)
    config = BudgetConfig(basket_value=100.0, budget=base * 2)
    assert tune_lambda(model, X, config, discounts) == 1.0


def test_zero_budget_is_infeasible(rng):
    X, model = population(rng)
    config = BudgetConfig(basket_value=100.0, budget=0.0)
    with pytest.raises(InfeasibleBudgetError):
        tune_lambda(model, X, config)


def test_bisection_contract_against_grid(rng):
    discounts = DiscountSet()
    for _ in range(5):
        X, model = population(rng)
        basket = 100.0
        base = redemption_at(model, X, 1.0, basket, discounts)
        budget = 0.5 * base
        config = BudgetConfig(basket_value=basket, budget=budget)
        lam = tune_lambda(model, X, config, discounts)
        assert redemption_at(model, X, lam, basket, discounts) <= budget
        assert redemption_at(model, X, lam - 10 * TOLERANCE, basket, discounts) > budget
        # 1000-point grid oracle (the acceptance suite uses 10^4 points)
        grid = np.linspace(1.0, LAMBDA_BOUNDS[1], 1000)
        feasible = [g for g in grid if redemption_at(model, X, g, basket, discounts) <= budget]
        grid_opt = feasible[0]
        spacing = grid[1] - grid[0]
        assert abs(lam - grid_opt) <= spacing + 10 * TOLERANCE


def test_negative_sensitivity_share_logged(rng, caplog):
    X = rng.uniform(0.0, 2.0, size=(30, 2))
    model = AllocationModel(("a", "b"), np.array([-1.0, 0.0, 0.0]), np.array([-3.0, -1.0]))
    config = BudgetConfig(basket_value=10.0, budget=1e9)
    with caplog.at_level(logging.WARNING):
        tune_lambda(model, X, config)
    assert any("negative coupon sensitivity" in r.message for r in caplog.records)


def test_nonfinite_features_raise_instead_of_returning_uncertified_lambda():
    X = np.array([[1.0, np.nan], [0.5, 0.5]])
    model = AllocationModel(("a", "b"), np.array([-1.0, 0.0, 0.0]), np.array([2.0, 1.0]))
    with pytest.raises(InfeasibleBudgetError, match="does not meet budget"):
        tune_lambda(model, X, BudgetConfig(basket_value=10.0, budget=1.0))


# -----------------------------------------------------------------------------
# every probe off one table: the same numbers as the public functions
# -----------------------------------------------------------------------------


def mixed_population(rng, size, dims=3):
    """Features and weights such that some rows have negative sensitivity."""
    X = rng.uniform(-0.6, 2.0, size=(size, dims))
    beta = rng.uniform(-2.0, 10.0, size=dims)
    alpha = np.concatenate([[rng.uniform(-3.0, 0.5)], rng.uniform(-0.5, 0.5, size=dims)])
    return X, AllocationModel(tuple(f"f{i}" for i in range(dims)), alpha, beta)


def random_discounts(rng):
    count = int(rng.integers(1, 6))
    return DiscountSet(tuple(np.sort(rng.choice(np.arange(5, 40), count, replace=False)) / 100))


@pytest.mark.parametrize("size", [1, 2, 7, 63, 64, 65, 4099])
def test_probe_matches_public_functions_exactly(size):
    rng = np.random.default_rng(1000 + size)
    negative_rows = 0
    for _ in range(8 if size < 4099 else 3):
        X, model = mixed_population(rng, size)
        negative_rows += int(np.sum(model.sensitivity(X) < 0))
        discounts = random_discounts(rng)
        q = purchase_prob_table(model, X, discounts)
        v = np.asarray(discounts.values)
        basket = float(rng.uniform(1.0, 200.0))
        lambdas = [0.0, 1.0, 10.0, 1.0 / discounts.values[0], *rng.uniform(0.0, 12.0, 6)]
        for lam in lambdas:
            expected = redemption_at(model, X, lam, basket, discounts)
            assert budget._probe(q, v, lam, basket) == expected
    if size >= 7:
        assert negative_rows > 0


def reference_tune_lambda(model, X, config, discounts, bounds, tolerance):
    """The bisection over ``bounds`` to ``tolerance`` as it was before the
    table was shared: every probe calls ``myopic_assign`` and
    ``projected_redemption``."""

    def redemption(lam):
        return redemption_at(model, X, lam, config.basket_value, discounts)

    lo, hi = bounds
    if redemption(lo) <= config.budget:
        return lo
    if redemption(hi) > config.budget:
        raise InfeasibleBudgetError("infeasible")
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if redemption(mid) <= config.budget:
            hi = mid
        else:
            lo = mid
    return hi


def outcome(tune, *args):
    try:
        return tune(*args)
    except InfeasibleBudgetError:
        return "infeasible"


def test_same_lambda_as_reference_bisection(monkeypatch):
    rng = np.random.default_rng(8)
    kinds = {"interior": 0, "lower bound": 0, "infeasible": 0}
    for case in range(330):
        X, model = mixed_population(rng, int(rng.integers(1, 120)))
        discounts = random_discounts(rng)
        basket = float(rng.uniform(1.0, 200.0))
        bounds = [(1.0, 10.0), (0.0, 10.0), (1.0, 3.0)][case % 3]
        top = redemption_at(model, X, bounds[1], basket, discounts)
        base = redemption_at(model, X, bounds[0], basket, discounts)
        low, high = min(top, base), max(top, base)
        # most budgets inside the interval, a few on or outside its ends
        budget_value = [
            rng.uniform(low, high), rng.uniform(low, high), rng.uniform(low, high),
            high * rng.uniform(1.0, 1.5), low * rng.uniform(0.0, 1.0), high, low,
        ][case % 7]
        config = BudgetConfig(basket, budget_value)
        monkeypatch.setattr(budget, "LAMBDA_BOUNDS", bounds)
        for tolerance in (1e-3, 1e-6, 1e-9):
            monkeypatch.setattr(budget, "TOLERANCE", tolerance)
            expected = outcome(reference_tune_lambda, model, X, config, discounts,
                               bounds, tolerance)
            got = outcome(tune_lambda, model, X, config, discounts)
            assert got == expected
            assert (got == bounds[0]) == (expected == bounds[0])
            assert (got == "infeasible") == (expected == "infeasible")
            if got != "infeasible":
                # the choice certified with the shadow price is the public functions' choice
                lam, assignments, chosen_q, spent = budget._tuned_choice(
                    model, X, config, discounts)
                assert lam == got
                assert np.array_equal(assignments, myopic_assign(model, X, lam, discounts))
                q = purchase_prob_table(model, X, discounts)
                chosen = np.searchsorted(np.asarray(discounts.values), assignments)
                assert chosen_q.tobytes() == q[np.arange(len(X)), chosen].tobytes()
                assert spent == projected_redemption(model, X, assignments, basket)
        # which of the three a case is does not depend on the tolerance
        if expected == "infeasible":
            kinds["infeasible"] += 1
        elif expected == bounds[0]:
            kinds["lower bound"] += 1
        else:
            kinds["interior"] += 1
    assert kinds["interior"] >= 100 and kinds["lower bound"] >= 100 and kinds["infeasible"] >= 30
