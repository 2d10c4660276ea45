"""Sensitivity-weight estimation: recovery, null behavior, gradient checks."""

import numpy as np
import pytest

from refcycle.allocator import FitConvergenceError, fit_beta, likelihood_gradient
from refcycle.allocator import fitting
from refcycle.allocator.model import sigmoid

PIVOT = 0.15
DISCOUNTS = np.array([0.10, 0.12, 0.15, 0.17, 0.20])


def synthetic_rows(rng, size, beta, alpha_level=-2.0):
    """Rows straight from the structured model with standard-normal features."""
    d = len(beta)
    X = rng.standard_normal((size, d))
    v = DISCOUNTS[rng.integers(0, len(DISCOUNTS), size=size)]
    alpha = np.full(size, alpha_level)
    logits = alpha + (v - PIVOT) * (X @ beta)
    y = (rng.random(size) < sigmoid(logits)).astype(int)
    return X, v, y, alpha


def mean_log_likelihood(beta, features, coupons, outcomes, alpha):
    """Mean Bernoulli log-likelihood at sensitivity weights ``beta``, the
    objective ``fit_beta`` ascends; the reference of the gradient checks."""
    X, v, y = (np.asarray(a, dtype=float) for a in (features, coupons, outcomes))
    logits = np.asarray(alpha, dtype=float) + (v - PIVOT) * (X @ np.asarray(beta, dtype=float))
    return float(np.mean(y * logits - np.logaddexp(0.0, logits)))


def observed_standard_errors(beta, X, v, y, alpha):
    z = (v - PIVOT)[:, None] * X
    p = np.asarray(sigmoid(alpha + z @ beta))
    info = (z * (p * (1 - p))[:, None]).T @ z
    return np.sqrt(np.diag(np.linalg.inv(info)))


def test_recovery_within_five_percent(rng):
    beta_true = np.array([12.0, -15.0, 10.0, -12.0, 14.0])
    X, v, y, alpha = synthetic_rows(rng, 100_000, beta_true)
    beta = fit_beta(X, v, y, alpha)
    relative = np.abs(beta - beta_true) / np.abs(beta_true)
    assert np.all(relative <= 0.05)


def test_null_effect_within_three_standard_errors(rng):
    beta_true = np.zeros(4)
    X, v, y, alpha = synthetic_rows(rng, 60_000, beta_true)
    beta = fit_beta(X, v, y, alpha)
    se = observed_standard_errors(beta, X, v, y, alpha)
    assert np.all(np.abs(beta) <= 3.0 * se)


def test_gradient_vanishes_at_optimum(rng):
    beta_true = np.array([8.0, -6.0, 4.0])
    X, v, y, alpha = synthetic_rows(rng, 30_000, beta_true)
    beta = fit_beta(X, v, y, alpha)
    grad = likelihood_gradient(beta, X, v, y, alpha)
    assert np.max(np.abs(grad)) <= 1e-8

    # finite differences agree
    eps = 1e-5
    for j in range(len(beta)):
        bump = np.zeros_like(beta)
        bump[j] = eps
        fd = (
            mean_log_likelihood(beta + bump, X, v, y, alpha)
            - mean_log_likelihood(beta - bump, X, v, y, alpha)
        ) / (2 * eps)
        assert abs(fd) <= 1e-6


def test_fit_is_deterministic(rng):
    beta_true = np.array([5.0, -5.0])
    X, v, y, alpha = synthetic_rows(rng, 20_000, beta_true)
    first = fit_beta(X, v, y, alpha)
    second = fit_beta(X, v, y, alpha)
    assert np.array_equal(first, second)


def full_hessian_fit(X, v, y, alpha):
    """Newton ascent on the formed features z = (v - pivot) * x, with the
    Hessian in one product: the reference for the blocked fit."""
    z = (v - PIVOT)[:, None] * X
    beta, steps = np.zeros(X.shape[1]), 0
    while True:
        p = sigmoid(alpha + z @ beta)
        grad = z.T @ (y - p) / len(y)
        if np.max(np.abs(grad)) <= fitting.GRAD_TOL:
            return beta, steps
        beta = beta + np.linalg.solve((z * (p * (1 - p))[:, None]).T @ z / len(y), grad)
        steps += 1


def test_blocked_fit_matches_the_full_hessian_reference(rng, monkeypatch):
    # 10 000 rows: two whole blocks and a partial one; the sums run in another
    # order, so the weights agree to a tolerance, and the step count exactly
    X, v, y, alpha = synthetic_rows(rng, 10_000, np.array([9.0, -7.0, 5.0, 0.0]))
    calls = []
    monkeypatch.setattr(fitting, "sigmoid", lambda x: calls.append(1) or sigmoid(x))
    beta = fit_beta(X, v, y, alpha)
    expected, steps = full_hessian_fit(X, v, y, alpha)
    assert len(calls) == steps + 1
    np.testing.assert_allclose(beta, expected, rtol=1e-10, atol=1e-12)


def test_likelihood_increases_from_zero(rng):
    beta_true = np.array([6.0, -4.0, 3.0])
    X, v, y, alpha = synthetic_rows(rng, 20_000, beta_true)
    beta = fit_beta(X, v, y, alpha)
    assert mean_log_likelihood(beta, X, v, y, alpha) >= mean_log_likelihood(
        np.zeros_like(beta), X, v, y, alpha
    )


def test_iteration_cap_raises(rng, monkeypatch):
    beta_true = np.array([10.0, -10.0])
    X, v, y, alpha = synthetic_rows(rng, 5_000, beta_true)
    monkeypatch.setattr(fitting, "MAX_ITER", 1)
    with pytest.raises(FitConvergenceError):
        fit_beta(X, v, y, alpha)


def test_singular_hessian_takes_the_ridge_step(rng, monkeypatch):
    # an all-zero feature column makes every Hessian exactly singular
    X, v, y, alpha = synthetic_rows(rng, 5_000, np.array([6.0, 0.0, -4.0]))
    X[:, 1] = 0.0
    solve, singular = np.linalg.solve, []

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    beta = fit_beta(X, v, y, alpha)
    assert len(singular) >= 1
    assert beta[1] == 0.0
    assert np.max(np.abs(likelihood_gradient(beta, X, v, y, alpha))) <= fitting.GRAD_TOL


def test_input_validation(rng):
    X = rng.standard_normal((10, 2))
    v = np.full(10, 0.15)
    with pytest.raises(ValueError):
        fit_beta(X, v, np.full(10, 2), np.zeros(10))  # outcomes not 0/1
    with pytest.raises(ValueError):
        fit_beta(X, v[:5], np.zeros(10), np.zeros(10))
    with pytest.raises(ValueError):
        fit_beta(X[0], v, np.zeros(10), np.zeros(10))
