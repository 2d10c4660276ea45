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
wins at two shadow prices wins between them, and ties still go to the first
index (in the reals; the tests compare floats with a full-row bisection).  So
once a probe on each side of the budget is known, each probe rescores only
the open customers, whose choices there differ; every other customer keeps
its choice.  What stays exact: each probe sums the full per-customer
redemption array, in the order ``projected_redemption`` sums it, and the
choice returned with the shadow price is certified with ``projected_redemption``.

The first probes score every row.  A table under 2·SAMPLE_ROWS rows probes
the interval's ends, the bottom first.  A larger one first bisects its
strided sample ``q[::n // SAMPLE_ROWS]`` under the budget scaled by the
sample's share of rows, to λₛ (the top if the sample overspends there), and
probes the bisection tree's points just above λₛ·(1 + BRACKET_MARGIN), then
just below λₛ·(1 - BRACKET_MARGIN).  An end of the interval is probed only
where that bracket leaves it undecided (first, if the sample stops there).
The bisection then runs from the root, deciding a midpoint at or above the
least point known to meet the budget, or at or below the greatest known to
overspend, without a probe, as a probe would.  So λ is the plain
bisection's float, and since every probed point is a tree point, it is the
last point found to meet the budget: the search returns the choice it holds
there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import (
    AllocationModel,
    DiscountSet,
    _best_discount,
    _purchase_table,
    feature_matrix,
    myopic_assign,  # noqa: F401 -- perfbench/tracing.py wraps this name here
    projected_redemption,
)

__all__ = ["InfeasibleBudgetError", "BudgetConfig", "LAMBDA_BOUNDS", "TOLERANCE", "tune_lambda"]

logger = logging.getLogger(__name__)

LAMBDA_BOUNDS = (1.0, 10.0)
TOLERANCE = 1e-6
SAMPLE_ROWS = 2048  # rows of the strided sample that seeds the bisection on a large table
BRACKET_MARGIN = 0.005  # relative half-width of the bracket around the sample's shadow price


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

    The purchase-probability table is built once per call.  The first probes
    are the bracket a strided sample gives on a large table, and the
    interval's ends only where that bracket leaves them undecided; later
    probes rescore only the customers whose choice still differs on the two
    sides of the budget, and each sums the full per-customer redemption
    array.  The result is the float of the plain bisection (see the module
    docstring).  The search returns each customer's choice with the shadow
    price; that choice is certified once, with :func:`projected_redemption`,
    and a result that fails the check raises :class:`InfeasibleBudgetError`
    instead of being returned.
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
    q = _purchase_table(model.alpha_values(X), beta, v, model.pivot)
    lam, chosen = _bisect(q, v, config)
    chosen_q = q[np.arange(q.shape[0]), chosen]
    assignments = v[chosen]
    spent = projected_redemption(model, X, assignments, config.basket_value)
    if not spent <= config.budget:
        raise InfeasibleBudgetError(
            f"redemption {spent:.6g} at the returned shadow price {lam} "
            f"does not meet budget {config.budget:.6g}"
        )
    return lam, assignments, chosen_q, spent


def _bisect(q: np.ndarray, v: np.ndarray, config: BudgetConfig) -> tuple[float, np.ndarray]:
    """The bisection of :func:`tune_lambda` off the table q of q(x, v) over
    the discounts v, bracket first on a large table (see the module
    docstring), and each row's choice at the shadow price it returns."""
    lo, hi = LAMBDA_BOUNDS
    basket, n = config.basket_value, q.shape[0]
    k_lo, k_hi = np.full(n, -1), np.full(n, -1)  # the choices at over and fits; -1: none known
    spent_hi, rows = np.zeros(n), np.arange(n)
    fits, over = np.inf, -np.inf  # least λ known to meet the budget, greatest known to overspend

    def probe(lam: float) -> None:  # moves fits or over, with k_hi and spent_hi or k_lo, to lam
        nonlocal rows, spent_hi, fits, over
        q_open = q if len(rows) == n else q[rows]
        k = _best_discount(q_open, v, lam)
        spent = spent_hi.copy()
        spent[rows] = _spend(q_open, v, k, basket)
        total = float(np.sum(spent))
        top = lam == LAMBDA_BOUNDS[1]  # a NaN total there counts as meeting the budget
        if top and total > config.budget:  # and goes on to the certificate
            raise InfeasibleBudgetError(f"redemption {total:.6g} exceeds budget "
                                        f"{config.budget:.6g} at the interval top {lam}")
        if total <= config.budget or top:
            fits, spent_hi = lam, spent
            k_hi[rows] = k
        else:
            over = lam
            k_lo[rows] = k
        rows = rows[k_lo[rows] != k_hi[rows]]

    guess, lower, upper = lo, lo, hi  # a small table's bracket is the interval, lo probed first
    if n >= 2 * SAMPLE_ROWS:
        sample = q[:: n // SAMPLE_ROWS]
        try:
            guess = _bisect(sample, v, BudgetConfig(basket, config.budget * len(sample) / n))[0]
        except InfeasibleBudgetError:
            guess = hi
        lower = _leaf(guess * (1 - BRACKET_MARGIN))[0]
        upper = _leaf(guess * (1 + BRACKET_MARGIN))[1]
    for end in ((lower, upper) if guess == lo else (upper, lower)) + (lo, hi):
        if over < end < fits:
            probe(end)
    if fits == lo:
        return lo, k_hi
    while hi - lo > TOLERANCE:
        mid = 0.5 * (lo + hi)
        if over < mid < fits:
            probe(mid)
        lo, hi = (lo, mid) if mid >= fits else (mid, hi)
    assert hi == fits, "the bracket's points are points of the bisection tree"
    return hi, k_hi


def _leaf(target: float) -> tuple[float, float]:
    """The leaf (a, b] of the bisection tree holding target (or its first or
    last leaf), walked with the bisection's own midpoints and stopping rule."""
    a, b = LAMBDA_BOUNDS
    while b - a > TOLERANCE:
        mid = 0.5 * (a + b)
        a, b = (a, mid) if target <= mid else (mid, b)
    return a, b


def _spend(q: np.ndarray, v: np.ndarray, k: np.ndarray, basket_value: float) -> np.ndarray:
    """Per-row redemption of the choice k, scored off the table q.

    For the myopic choice its ``np.sum`` equals ``projected_redemption`` of
    ``myopic_assign`` bit for bit: that function's product order on a
    contiguous 1-D array.
    """
    return v[k] * basket_value * q[np.arange(q.shape[0]), k]
