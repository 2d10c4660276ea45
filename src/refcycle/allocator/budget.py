"""Shadow-price tuning against a daily redemption budget.

Projected redemption is weakly decreasing in the shadow price whenever every
customer's coupon sensitivity is nonnegative, so the smallest feasible
shadow price can be found by bisection over :data:`LAMBDA_BOUNDS`: start at
the revenue-maximizing value (the lower bound, 1), and only tighten when the
budget is exceeded, until the interval is at most :data:`TOLERANCE` wide.

The table of purchase probabilities q(x, v) is computed once per call and
every probe is answered from it; each probe's redemption is bit-identical to
``projected_redemption`` of the ``myopic_assign`` choice.  The returned
shadow price's choice, read off the same table, is certified with
``projected_redemption``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import (
    AllocationModel,
    DiscountSet,
    _best_discount,
    feature_matrix,
    myopic_assign,  # noqa: F401 -- perfbench/tracing.py wraps this name here
    projected_redemption,
    purchase_prob_table,
)

__all__ = ["InfeasibleBudgetError", "BudgetConfig", "LAMBDA_BOUNDS", "TOLERANCE", "tune_lambda"]

logger = logging.getLogger(__name__)

LAMBDA_BOUNDS = (1.0, 10.0)
TOLERANCE = 1e-6


class InfeasibleBudgetError(RuntimeError):
    """No shadow price in the search interval is certified to meet the budget."""


@dataclass(frozen=True)
class BudgetConfig:
    """Budget inputs: average basket value and daily budget."""

    basket_value: float
    budget: float

    def __post_init__(self) -> None:
        if not 0 < self.basket_value < float("inf"):
            raise ValueError("basket value must be positive and finite")
        if not self.budget >= 0:
            raise ValueError("budget must be a nonnegative number")


def tune_lambda(
    model: AllocationModel,
    X: np.ndarray,
    config: BudgetConfig,
    discounts: DiscountSet | None = None,
) -> float:
    """Smallest shadow price (within tolerance) meeting the budget.

    Returns the lower bound when it is already feasible; raises
    :class:`InfeasibleBudgetError` when even the upper bound overspends.
    Customers with negative sensitivity break the monotonicity this search
    relies on, so their share is logged when present.

    The purchase-probability table is built once per call, and every probe
    is scored from it with the arithmetic of :func:`myopic_assign` and
    :func:`projected_redemption`, so each probe's redemption equals theirs
    exactly.  The returned shadow price is certified once: the choice it
    makes is scored with :func:`projected_redemption`, and a result that
    fails that check raises :class:`InfeasibleBudgetError` instead of being
    returned.
    """
    return _tuned_choice(model, X, config, discounts)[0]


def _tuned_choice(
    model: AllocationModel,
    X: np.ndarray,
    config: BudgetConfig,
    discounts: DiscountSet | None = None,
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """:func:`tune_lambda` with the choice it certified: the shadow price,
    each customer's discount, the purchase probability at that discount, and
    the projected redemption.  The discounts equal ``myopic_assign`` at the
    shadow price, and the probabilities the entries of ``purchase_prob_table``
    at them, bit for bit: they come from the same table."""
    discounts = discounts or DiscountSet()
    X = feature_matrix(X)
    negative = float(np.mean(model.sensitivity(X) < 0)) if X.shape[0] else 0.0
    if negative > 0:
        logger.warning(
            "%.1f%% of customers have negative coupon sensitivity; "
            "redemption may not be monotone in the shadow price",
            100.0 * negative,
        )
    q = purchase_prob_table(model, X, discounts)
    v = np.asarray(discounts.values)
    lam = _bisect(q, v, config)
    chosen = _best_discount(q, v, lam)
    chosen_q = q[np.arange(q.shape[0]), chosen]
    assignments = v[chosen]
    spent = projected_redemption(model, X, assignments, config.basket_value)
    if not spent <= config.budget:
        raise InfeasibleBudgetError(
            f"redemption {spent:.6g} at the returned shadow price {lam} "
            f"does not meet budget {config.budget:.6g}"
        )
    return lam, assignments, chosen_q, spent


def _bisect(q: np.ndarray, v: np.ndarray, config: BudgetConfig) -> float:
    """The bisection of :func:`tune_lambda`, every probe scored off the table
    q of q(x, v) over the discounts v."""

    def redemption(lam: float) -> float:
        return _probe(q, v, lam, config.basket_value)

    lo, hi = LAMBDA_BOUNDS
    if redemption(lo) <= config.budget:
        return lo
    top = redemption(hi)
    if top > config.budget:
        raise InfeasibleBudgetError(
            f"redemption {top:.6g} exceeds budget {config.budget:.6g} "
            f"at the interval top {hi}"
        )
    while hi - lo > TOLERANCE:
        mid = 0.5 * (lo + hi)
        if redemption(mid) <= config.budget:
            hi = mid
        else:
            lo = mid
    return hi


def _probe(q: np.ndarray, v: np.ndarray, shadow_price: float, basket_value: float) -> float:
    """Redemption of the myopic choice at ``shadow_price``, scored off the table q.

    Equal to ``projected_redemption(model, X, myopic_assign(model, X,
    shadow_price, discounts), basket_value)`` bit for bit: the same choice
    rule, and that function's product order on a contiguous 1-D array.
    """
    k = _best_discount(q, v, shadow_price)
    return float(np.sum(v[k] * basket_value * q[np.arange(q.shape[0]), k]))
