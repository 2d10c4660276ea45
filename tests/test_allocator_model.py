"""Structured demand model, myopic assignment, redemption projection."""

import math

import numpy as np
import pytest

from refcycle.allocator import (
    AllocationModel,
    DiscountSet,
    feature_matrix,
    myopic_assign,
    projected_redemption,
    purchase_prob_table,
)


def scalar_model(alpha: float, beta: float) -> AllocationModel:
    """One-feature model with x = 1.0: alpha(x) = alpha, sensitivity = beta."""
    return AllocationModel(("x",), np.array([alpha, 0.0]), np.array([beta]))


def random_population(rng, size, dims=3, nonnegative=True):
    X = rng.uniform(0.0, 2.0, size=(size, dims))
    beta = rng.uniform(0.0 if nonnegative else -4.0, 8.0, size=dims)
    alpha = np.concatenate([[rng.uniform(-3.0, -1.0)], rng.uniform(-0.2, 0.2, size=dims)])
    return X, AllocationModel(tuple(f"f{i}" for i in range(dims)), alpha, beta)


def test_discount_set_validation():
    assert DiscountSet().values == (0.10, 0.12, 0.15, 0.17, 0.20)
    with pytest.raises(ValueError):
        DiscountSet((0.2, 0.1))
    with pytest.raises(ValueError):
        DiscountSet((0.0, 0.1))
    with pytest.raises(ValueError):
        DiscountSet(())


def test_model_validation():
    with pytest.raises(ValueError):
        AllocationModel(("a",), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        AllocationModel(("a",), np.array([0.0, np.inf]), np.array([1.0]))
    with pytest.raises(ValueError, match="one weight per feature"):
        AllocationModel(("a",), np.array([0.0, 1.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("pivot", [np.nan, np.inf, -np.inf])
def test_model_refuses_a_non_finite_pivot(pivot):
    with pytest.raises(ValueError, match="pivot must be finite"):
        AllocationModel(("a",), np.array([0.0, 1.0]), np.array([1.0]), pivot=pivot)


def test_purchase_prob_zero_sensitivity():
    model = scalar_model(alpha=0.4, beta=0.0)
    probs = purchase_prob_table(model, np.array([[1.0]]), DiscountSet())
    assert probs.shape == (1, 5) and len(set(probs[0])) == 1


def test_purchase_prob_closed_form():
    # alpha(x) = 0, sensitivity 20, v = 0.20 -> sigmoid(1.0)
    model = scalar_model(alpha=0.0, beta=20.0)
    value = purchase_prob_table(model, np.array([[1.0]]), DiscountSet((0.20,)))[0, 0]
    assert value == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_purchase_prob_monotone_iff_positive_sensitivity(rng):
    grid = np.linspace(0.05, 0.95, 10)
    for beta in (-5.0, 0.0, 5.0):
        model = scalar_model(alpha=-1.0, beta=beta)
        values = purchase_prob_table(model, np.array([[1.0]]), DiscountSet(tuple(grid)))[0]
        diffs = np.diff(values)
        if beta > 0:
            assert np.all(diffs > 0)
        elif beta < 0:
            assert np.all(diffs < 0)
        else:
            assert np.all(diffs == 0)


def test_myopic_assign_prefers_big_discount_when_lift_dominates():
    # q(0.10) = 0.5 and q(0.20) = 0.9 exactly: scores 0.45 vs 0.72
    beta = 10.0 * math.log(9.0)
    alpha = 0.5 * math.log(9.0)
    model = scalar_model(alpha=alpha, beta=beta)
    discounts = DiscountSet((0.10, 0.20))
    X = np.array([[1.0]])
    q = purchase_prob_table(model, X, discounts)
    assert q[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert q[0, 1] == pytest.approx(0.9, abs=1e-12)
    assert myopic_assign(model, X, 1.0, discounts)[0] == 0.20


def test_myopic_assign_zero_sensitivity_takes_smallest():
    model = scalar_model(alpha=0.3, beta=0.0)
    X = np.ones((5, 1))
    assert np.all(myopic_assign(model, X, 1.0) == 0.10)


def test_myopic_assign_rejects_negative_shadow_price():
    model = scalar_model(0.0, 1.0)
    for shadow_price in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            myopic_assign(model, np.ones((1, 1)), shadow_price)


def test_assignments_nonincreasing_in_shadow_price(rng):
    discounts = DiscountSet()
    lambdas = np.linspace(1.0, 1.0 / discounts.values[0], 20)
    for _ in range(25):
        X, model = random_population(rng, size=40)
        previous = None
        for lam in lambdas:
            current = myopic_assign(model, X, lam, discounts)
            if previous is not None:
                assert np.all(current <= previous + 1e-15)
            previous = current


def test_projected_redemption_examples():
    model = scalar_model(alpha=0.0, beta=0.0)  # q = 0.5 everywhere
    empty = np.empty((0, 1))
    assert projected_redemption(model, empty, np.empty(0), 100.0) == 0.0
    one = np.array([[1.0]])
    assert projected_redemption(model, one, np.array([0.20]), 100.0) == pytest.approx(10.0)
    with pytest.raises(ValueError, match="one assignment per customer"):
        projected_redemption(model, one, np.array([0.20, 0.10]), 100.0)


def test_redemption_weakly_decreasing_in_shadow_price(rng):
    discounts = DiscountSet()
    lambdas = np.linspace(1.0, 1.0 / discounts.values[0], 20)
    for _ in range(25):
        X, model = random_population(rng, size=40)
        redemptions = [
            projected_redemption(model, X, myopic_assign(model, X, lam, discounts), 50.0)
            for lam in lambdas
        ]
        assert np.all(np.diff(redemptions) <= 1e-9)


def test_feature_matrix_coerces_arrays():
    stacked = feature_matrix([[1, 2], [3, 4]])
    assert stacked.dtype == float and stacked.shape == (2, 2)
    assert np.array_equal(stacked, feature_matrix(stacked))
    assert feature_matrix(np.array([1.0, 2.0])).shape == (1, 2)
