"""Structured purchase-probability model and the myopic coupon rule.

Purchase probability decomposes into a baseline and a coupon-sensitivity
term,

    q(x, v) = sigmoid(alpha(x) + (v - pivot) * beta' x),

so the effect of the discount v is explicit and monotone whenever the
sensitivity beta' x is nonnegative.  The myopic rule sends each customer the
discount maximizing (1 - shadow_price * v) * q(x, v); raising the shadow
price conserves budget and, under nonnegative sensitivity, can only move
every customer to a weakly smaller discount.

Customers are rows of a 2-D feature matrix, one row per customer.  A
customer's intertemporal state is already one of its features (the peak-end
reference ``max_coupon_{memory}d``), so the latest row is all the rule needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscountSet",
    "AllocationModel",
    "feature_matrix",
    "purchase_prob",
    "purchase_prob_table",
    "myopic_assign",
    "projected_redemption",
]

DEFAULT_DISCOUNTS = (0.10, 0.12, 0.15, 0.17, 0.20)


def sigmoid(t: np.ndarray | float) -> np.ndarray | float:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(t, dtype=float)))


@dataclass(frozen=True)
class DiscountSet:
    """Feasible discount fractions, strictly increasing, all in (0, 1)."""

    values: tuple[float, ...] = DEFAULT_DISCOUNTS

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 1:
            raise ValueError("need at least one discount value")
        if any(not 0.0 < v < 1.0 for v in values):
            raise ValueError("discounts must lie strictly between 0 and 1")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("discounts must be strictly increasing")

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AllocationModel:
    """Linear baseline and sensitivity weights over named features.

    ``alpha_weights`` has an intercept first, then one weight per feature;
    ``beta_weights`` has one weight per feature.  The pivot centers the
    discount so alpha(x) is the baseline at v = pivot.
    """

    feature_names: tuple[str, ...]
    alpha_weights: np.ndarray
    beta_weights: np.ndarray
    pivot: float = 0.15

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha_weights, dtype=float)
        beta = np.asarray(self.beta_weights, dtype=float)
        object.__setattr__(self, "alpha_weights", alpha)
        object.__setattr__(self, "beta_weights", beta)
        d = len(self.feature_names)
        if alpha.shape != (d + 1,):
            raise ValueError("alpha_weights must be intercept plus one weight per feature")
        if beta.shape != (d,):
            raise ValueError("beta_weights must have one weight per feature")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise ValueError("model weights must be finite")

    def alpha_values(self, features: np.ndarray) -> np.ndarray:
        """Baseline logit alpha(x) per row."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return self.alpha_weights[0] + features @ self.alpha_weights[1:]

    def sensitivity(self, features: np.ndarray) -> np.ndarray:
        """Coupon sensitivity beta' x per row."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return features @ self.beta_weights


def feature_matrix(X: np.ndarray) -> np.ndarray:
    """``X`` as a 2-D float array, one row per customer."""
    return np.atleast_2d(np.asarray(X, dtype=float))


def _purchase_prob(alpha, beta, v, pivot: float) -> np.ndarray:
    """q = sigmoid(alpha + (v - pivot) * beta), with alpha and beta the baseline
    logit and sensitivity of each customer.  The one place the logit is formed,
    so every caller's probabilities agree bit for bit."""
    return np.asarray(sigmoid(alpha + (v - pivot) * beta))


def purchase_prob(model: AllocationModel, features: np.ndarray, discount: float) -> float:
    """q(x, v) for a single customer; strictly increasing in v iff beta' x > 0."""
    x = np.asarray(features, dtype=float).reshape(1, -1)
    return float(_purchase_prob(model.alpha_values(x)[0], model.sensitivity(x)[0],
                                discount, model.pivot))


def purchase_prob_table(
    model: AllocationModel, X: np.ndarray, discounts: DiscountSet
) -> np.ndarray:
    """Matrix of q(x_i, v) for every customer and discount."""
    X = feature_matrix(X)
    v = np.asarray(discounts.values)[None, :]
    return _purchase_prob(model.alpha_values(X)[:, None], model.sensitivity(X)[:, None],
                          v, model.pivot)


def myopic_assign(
    model: AllocationModel,
    X: np.ndarray,
    shadow_price: float,
    discounts: DiscountSet | None = None,
) -> np.ndarray:
    """Per-customer argmax of (1 - shadow_price * v) * q(x, v).

    Ties go to the smallest discount.  Returns the chosen discount values.
    """
    discounts = discounts or DiscountSet()
    q = purchase_prob_table(model, X, discounts)
    v = np.asarray(discounts.values)
    return v[_best_discount(q, v, shadow_price)]


def _best_discount(q: np.ndarray, v: np.ndarray, shadow_price: float) -> np.ndarray:
    """Column index of the per-row argmax of (1 - shadow_price * v) * q.

    The one place the myopic rule and its tie rule live: ``myopic_assign`` and
    the shadow-price search both call it, so their choices agree bit for bit.
    """
    if not shadow_price >= 0:
        raise ValueError("shadow price must be a nonnegative number")
    # argmax keeps the first (= smallest) discount on ties
    return np.argmax((1.0 - shadow_price * v)[None, :] * q, axis=1)


def projected_redemption(
    model: AllocationModel,
    X: np.ndarray,
    assignments: np.ndarray,
    basket_value: float,
) -> float:
    """Expected discount paid out: sum_i v_i * basket_value * q(x_i, v_i)."""
    X = feature_matrix(X)
    assignments = np.asarray(assignments, dtype=float)
    if assignments.shape != (X.shape[0],):
        raise ValueError("one assignment per customer required")
    if X.shape[0] == 0:
        return 0.0
    q = _purchase_prob(model.alpha_values(X), model.sensitivity(X), assignments, model.pivot)
    return float(np.sum(assignments * basket_value * q))
