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


def test_input_validation(rng):
    X = rng.standard_normal((10, 2))
    v = np.full(10, 0.15)
    with pytest.raises(ValueError):
        fit_beta(X, v, np.full(10, 2), np.zeros(10))  # outcomes not 0/1
    with pytest.raises(ValueError):
        fit_beta(X, v[:5], np.zeros(10), np.zeros(10))
    with pytest.raises(ValueError):
        fit_beta(X[0], v, np.zeros(10), np.zeros(10))
