"""Second-stage sensitivity estimation by Newton-ascent logistic regression.

The baseline logit alpha(x) is taken as given per row (its coefficient is
fixed to 1, i.e. it enters as an offset) and the sensitivity weights are fit
on the transformed features (v - pivot) * x by maximizing the mean
log-likelihood of the purchase indicator.  The problem is concave, so
full-batch Newton steps converge deterministically.
"""

from __future__ import annotations

import numpy as np

from .model import sigmoid

__all__ = [
    "FitConvergenceError",
    "MAX_ITER",
    "GRAD_TOL",
    "fit_beta",
    "likelihood_gradient",
]

MAX_ITER = 500
GRAD_TOL = 1e-8


class FitConvergenceError(RuntimeError):
    """Newton ascent did not reach the gradient tolerance in time."""


def _check_inputs(features, coupons, outcomes, alpha):
    X = np.asarray(features, dtype=float)
    v = np.asarray(coupons, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    a = np.asarray(alpha, dtype=float)
    n = X.shape[0]
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
    if v.shape != (n,) or y.shape != (n,) or a.shape != (n,):
        raise ValueError("coupons, outcomes and alpha must be per-row vectors")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("outcomes must be 0/1")
    return X, v, y, a


def likelihood_gradient(beta, features, coupons, outcomes, alpha, pivot: float = 0.15) -> np.ndarray:
    """Gradient of the mean log-likelihood with respect to ``beta``."""
    X, v, y, a = _check_inputs(features, coupons, outcomes, alpha)
    z = (v - pivot)[:, None] * X
    logits = a + z @ np.asarray(beta, dtype=float)
    p = np.asarray(sigmoid(logits))
    return z.T @ (y - p) / len(y)


def fit_beta(features, coupons, outcomes, alpha, pivot: float = 0.15) -> np.ndarray:
    """Sensitivity weights maximizing the mean log-likelihood.

    Deterministic: zero start, full-batch Newton steps, stop when the
    gradient max-norm falls below :data:`GRAD_TOL`.  Raises
    :class:`FitConvergenceError` after :data:`MAX_ITER` steps.
    """
    X, v, y, a = _check_inputs(features, coupons, outcomes, alpha)
    n, d = X.shape
    z = (v - pivot)[:, None] * X
    beta = np.zeros(d)
    for _ in range(MAX_ITER):
        logits = a + z @ beta
        p = np.asarray(sigmoid(logits))
        grad = z.T @ (y - p) / n
        if np.max(np.abs(grad)) <= GRAD_TOL:
            return beta
        weights = p * (1.0 - p)
        hessian = (z * weights[:, None]).T @ z / n
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(hessian + 1e-10 * np.eye(d), grad)
        beta = beta + step
        if not np.all(np.isfinite(beta)):
            raise FitConvergenceError("Newton ascent diverged")
    raise FitConvergenceError(f"gradient above {GRAD_TOL} after {MAX_ITER} iterations")
