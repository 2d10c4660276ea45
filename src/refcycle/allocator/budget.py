"""Shadow-price tuning against a daily redemption budget.

Redemption never rises with the shadow price λ, for any purchase probabilities
q: if the myopic rule, max (1 - λ·v)·q, picks a at λ₁ and b at λ₂ > λ₁, adding
the two optimality inequalities gives (λ₂ - λ₁)·(v_a·q_a - v_b·q_b) ≥ 0.  So
the smallest feasible shadow price is found by bisection over LAMBDA_BOUNDS:
start at the revenue-maximizing value (the lower bound, 1), and only tighten
when the budget is exceeded, until the interval is at most TOLERANCE wide.

The table of purchase probabilities q(x, v) is computed once per call and
every probe is answered from it.  A customer's myopic score at λ is the upper
envelope of K lines, (1 - λ·v)·q(v), which is convex in λ: a discount that
wins at both ends of [lo, hi] wins throughout, and ties still go to the first
index (in the reals; the tests compare floats with a full-row bisection).  So
each probe rescores only the open customers, whose choices at lo and hi
differ; every other customer keeps its choice at hi.  What stays exact: each
probe sums the full per-customer redemption array, in the order
``projected_redemption`` sums it; the returned shadow price's choice is read
off the table for every customer; and that choice is certified with
``projected_redemption``.

A table of at least 2·SAMPLE_ROWS rows first bisects its strided sample
``q[::n // SAMPLE_ROWS]`` under the budget scaled by the sample's share of
rows, walks GUESS_DEPTH levels of the bisection tree toward that guess (the
top if the sample overspends there) and probes the ends of the node it
reaches, the top one first.  The bisection then runs from the root, but a
midpoint at or above the least point known to meet the budget, or at or
below the greatest known to overspend, is decided without a probe, as a
probe would decide it.  So the decisions, the probed floats and λ are those
without the guess; a wrong guess costs at most two probes, a right one
spares the first ones, which score nearly every row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import (
    AllocationModel,
    DiscountSet,
    _best_discount,
    _purchase_prob,
    feature_matrix,
    myopic_assign,  # noqa: F401 -- perfbench/tracing.py wraps this name here
    projected_redemption,
)

__all__ = ["InfeasibleBudgetError", "BudgetConfig", "LAMBDA_BOUNDS", "TOLERANCE", "tune_lambda"]

logger = logging.getLogger(__name__)

LAMBDA_BOUNDS = (1.0, 10.0)
TOLERANCE = 1e-6
SAMPLE_ROWS = 2048  # rows of the strided sample that seeds the bisection on a large table
GUESS_DEPTH = 8  # levels of the bisection tree walked toward the sample's shadow price


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
    Redemption does not rise with the shadow price for any model (see the
    module docstring); the share of customers with negative sensitivity is logged.

    The purchase-probability table is built once per call.  Each probe
    rescores only the customers whose choice still differs between the
    bisection's ends and sums the full per-customer redemption array; on a
    large table a strided sample picks the first two probes, and the result
    is the same float (see the module docstring).  The returned shadow price
    is certified once: the choice it makes for every customer is scored with
    :func:`projected_redemption`, and a result that fails that check raises
    :class:`InfeasibleBudgetError` instead of being returned.
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
    beta = model.sensitivity(X)
    negative = float(np.mean(beta < 0)) if X.shape[0] else 0.0
    if negative > 0:
        logger.warning(
            "%.1f%% of customers have negative coupon sensitivity: "
            "their purchase probability falls as the discount rises",
            100.0 * negative,
        )
    v = np.asarray(discounts.values)
    # purchase_prob_table's q, with the sensitivity computed once for the share above
    q = _purchase_prob(model.alpha_values(X)[:, None], beta[:, None], v[None, :], model.pivot)
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
    """The bisection of :func:`tune_lambda` off the table q of q(x, v) over
    the discounts v, each probe rescoring only the rows still open; a large
    table first probes the ends of the node its strided sample guesses."""
    lo, hi = LAMBDA_BOUNDS
    basket = config.basket_value
    k_lo = _best_discount(q, v, lo)
    if float(np.sum(_spend(q, v, k_lo, basket))) <= config.budget:
        return lo
    k_hi = _best_discount(q, v, hi)
    spent_hi = _spend(q, v, k_hi, basket)
    top = float(np.sum(spent_hi))
    if top > config.budget:
        raise InfeasibleBudgetError(
            f"redemption {top:.6g} exceeds budget {config.budget:.6g} "
            f"at the interval top {hi}"
        )
    rows = np.flatnonzero(k_lo != k_hi)
    fits, over = hi, lo  # least λ known to meet the budget, greatest known to overspend

    def probe(lam: float) -> None:  # moves fits or over, with k_hi and spent_hi or k_lo, to lam
        nonlocal rows, spent_hi, fits, over
        q_open = q[rows]
        k = _best_discount(q_open, v, lam)
        spent = spent_hi.copy()
        spent[rows] = _spend(q_open, v, k, basket)
        if float(np.sum(spent)) <= config.budget:
            fits, spent_hi = lam, spent
            k_hi[rows] = k
        else:
            over = lam
            k_lo[rows] = k
        rows = rows[k_lo[rows] != k_hi[rows]]

    if q.shape[0] >= 2 * SAMPLE_ROWS:
        sample = q[:: q.shape[0] // SAMPLE_ROWS]
        try:
            guess = _bisect(sample, v, BudgetConfig(basket, config.budget * len(sample) / len(q)))
        except InfeasibleBudgetError:
            guess = hi
        a, b = lo, hi
        for _ in range(GUESS_DEPTH):
            mid = 0.5 * (a + b)
            a, b = (a, mid) if guess <= mid else (mid, b)
        for end in (b, a):
            if over < end < fits:
                probe(end)
    while hi - lo > TOLERANCE:
        mid = 0.5 * (lo + hi)
        if over < mid < fits:
            probe(mid)
        lo, hi = (lo, mid) if mid >= fits else (mid, hi)
    return hi


def _spend(q: np.ndarray, v: np.ndarray, k: np.ndarray, basket_value: float) -> np.ndarray:
    """Per-row redemption of the choice k, scored off the table q.

    For the myopic choice its ``np.sum`` equals ``projected_redemption`` of
    ``myopic_assign`` bit for bit: that function's product order on a
    contiguous 1-D array.
    """
    return v[k] * basket_value * q[np.arange(q.shape[0]), k]
