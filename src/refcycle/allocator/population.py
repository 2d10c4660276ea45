"""Synthetic customer populations with a peak-end reference feature.

Each simulated customer carries static engagement/coupon-history features
plus one dynamic feature: the maximum coupon received over the last
``memory`` days.  Purchases are drawn from a planted structured model, so
datasets generated here have known ground truth for estimator and analytics
tests.  Day 1 has no coupon history; the reference feature then falls back
to the model pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import DEFAULT_DISCOUNTS, AllocationModel, DiscountSet, _purchase_prob, myopic_assign

__all__ = [
    "STATIC_FEATURES",
    "reference_feature_name",
    "PopulationSpec",
    "MyopicPolicy",
    "ConstantPolicy",
    "CouponDataset",
    "default_ground_truth",
    "simulate_population",
]

STATIC_FEATURES = (
    "emails_clicked_28d",
    "cart_views_3d",
    "cart_views_7d",
    "avg_sale_discount_cart",
    "coupon_order_rate_hist",
    "coupon_order_rate_30d",
    "coupon_order_rate_all",
    "avg_coupon_clicked_7d",
    "avg_coupon_clicked_30d",
)


def reference_feature_name(memory: int) -> str:
    return f"max_coupon_{memory}d"


@dataclass(frozen=True)
class PopulationSpec:
    """Size and shape of a simulated population."""

    size: int
    horizon: int
    memory: int = 7
    discounts: tuple[float, ...] = DEFAULT_DISCOUNTS

    def __post_init__(self) -> None:
        if self.size < 1 or self.horizon < 1:
            raise ValueError("population size and horizon must be positive")
        if self.memory < 1:
            raise ValueError("memory must be positive")
        DiscountSet(self.discounts)  # validates ordering and range

    @property
    def feature_names(self) -> tuple[str, ...]:
        return STATIC_FEATURES + (reference_feature_name(self.memory),)


@dataclass(frozen=True)
class MyopicPolicy:
    """Assign by maximizing (1 - shadow_price * v) * q(x, v) under a model."""

    model: AllocationModel
    shadow_price: float = 1.0


@dataclass(frozen=True)
class ConstantPolicy:
    value: float


Policy = Union[str, MyopicPolicy, ConstantPolicy]


@dataclass(frozen=True)
class CouponDataset:
    """Per-customer-day rows: features, coupon sent, purchase indicator.

    Rows may come in any order.  :meth:`panel` refuses a panel unless every
    customer has the same days, once each; ``fileio.customers_from_dataset``
    takes any, the later of two rows for one customer and day winning.  Ids,
    days and purchases have an integer or bool dtype.  ``source_sha256`` is
    the CSV's sha256, ``None`` for a panel built in memory.
    """

    feature_names: tuple[str, ...]
    reference_feature: str
    discounts: tuple[float, ...]
    memory: int
    customer_ids: np.ndarray
    days: np.ndarray
    features: np.ndarray
    coupons: np.ndarray
    purchases: np.ndarray
    source_sha256: str | None = None

    def __post_init__(self) -> None:
        rows = len(self.customer_ids)
        if not (
            self.customer_ids.shape == (rows,)
            and self.days.shape == (rows,)
            and self.coupons.shape == (rows,)
            and self.purchases.shape == (rows,)
            and self.features.shape == (rows, len(self.feature_names))
        ):
            raise ValueError("dataset arrays are inconsistent")
        if any(column.dtype.kind not in "biu"
               for column in (self.customer_ids, self.days, self.purchases)):
            raise ValueError("customer ids, days and purchases need an integer or bool dtype")

    @property
    def num_rows(self) -> int:
        return len(self.customer_ids)

    def row_order(self) -> np.ndarray:
        """The stable sort of the rows by customer, then day: ``np.arange`` when
        they already run so, as :func:`simulate_population` writes them."""
        ids, days = self.customer_ids, self.days
        same = ids[1:] == ids[:-1]
        if (ids[1:] >= ids[:-1]).all() and (days[1:] >= days[:-1])[same].all():
            return np.arange(len(ids))
        return np.lexsort((days, ids))

    def panel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(customers, coupons, purchases) reshaped to (n, horizon) panels;
        ``ValueError`` unless every customer has the same days, once each."""
        order = self.row_order()
        ids, days = self.customer_ids[order], self.days[order]
        first = np.r_[True, ids[1:] != ids[:-1]]
        horizon = len(ids) // first.sum()  # 0 without rows
        # sorted, so customer k's days are days[k * horizon:][:horizon], ascending
        if not (horizon and first[::horizon].all()
                and (days.reshape(-1, horizon) == days[:horizon]).all()
                and (days[1:horizon] > days[:horizon - 1]).all()):
            raise ValueError("dataset is not a rectangular panel")
        customers = ids[first]
        coupons = self.coupons[order].reshape(len(customers), horizon)
        purchases = self.purchases[order].reshape(len(customers), horizon)
        return customers, coupons, purchases


def default_ground_truth(memory: int = 7) -> AllocationModel:
    """Planted model with a negative loading on the reference feature.

    The reference enters both the baseline (a bigger recent-best coupon
    lowers the purchase propensity at every offer) and the sensitivity (a
    bigger recent-best coupon mutes the response to further discounting).
    All other sensitivity weights are positive.
    """
    names = STATIC_FEATURES + (reference_feature_name(memory),)
    alpha = np.zeros(len(names) + 1)
    alpha[0] = 2.0                      # intercept
    alpha[1] = 0.15                     # emails_clicked_28d
    alpha[2] = 0.10                     # cart_views_3d
    alpha[-1] = -25.0                   # reference feature
    beta = np.array([3.0, 4.0, 4.0, 25.0, 20.0, 20.0, 20.0, 40.0, 40.0, -120.0])
    return AllocationModel(names, alpha, beta, pivot=0.15)


def _draw_static(rng: np.random.Generator, size: int) -> np.ndarray:
    emails = rng.poisson(2.0, size)
    cart3 = rng.poisson(1.5, size)
    cart7 = cart3 + rng.poisson(1.5, size)
    sale_discount = rng.uniform(0.0, 0.5, size)
    rate_hist = rng.beta(2.0, 4.0, size)
    rate_30d = rng.beta(2.0, 4.0, size)
    rate_all = rng.beta(2.0, 4.0, size)
    clicked7 = rng.uniform(0.05, 0.25, size) * (rng.random(size) < 0.5)
    clicked30 = rng.uniform(0.05, 0.25, size) * (rng.random(size) < 0.5)
    return np.column_stack([
        emails, cart3, cart7, sale_discount,
        rate_hist, rate_30d, rate_all, clicked7, clicked30,
    ]).astype(float)


def simulate_population(
    spec: PopulationSpec,
    model: AllocationModel,
    policy: Policy = "uniform",
    seed: int = 0,
) -> CouponDataset:
    """Roll a population forward under a coupon policy; deterministic per seed.

    ``policy`` is ``"uniform"`` (an independent uniform coupon each day, the
    randomized-cohort policy), a :class:`MyopicPolicy` or a
    :class:`ConstantPolicy`.

    The model must be defined on the spec's feature schema (static features
    plus the reference feature last).  Purchases are Bernoulli draws from the
    model's probabilities at the offered coupon.
    """
    if model.feature_names != spec.feature_names:
        raise ValueError("model features do not match the population spec")
    if isinstance(policy, str) and policy != "uniform":
        raise ValueError(f"unknown policy {policy!r}")
    rng = np.random.default_rng(seed)
    n, horizon = spec.size, spec.horizon
    static = _draw_static(rng, n)
    discounts = DiscountSet(spec.discounts)
    values = np.asarray(discounts.values)
    if isinstance(policy, ConstantPolicy):
        if policy.value not in discounts.values:
            raise ValueError("constant policy value must be a feasible discount")
    elif not isinstance(policy, (str, MyopicPolicy)):
        raise TypeError(f"unsupported policy {policy!r}")

    coupon_history = np.empty((n, horizon))
    features = np.empty((n, horizon, len(spec.feature_names)))
    purchases = np.empty((n, horizon))
    for t in range(horizon):
        if t == 0:
            reference = np.full(n, model.pivot)
        else:
            start = max(0, t - spec.memory)
            reference = coupon_history[:, start:t].max(axis=1)
        day_features = np.column_stack([static, reference])

        if isinstance(policy, str):  # "uniform"
            offered = values[rng.integers(0, len(values), size=n)]
        elif isinstance(policy, MyopicPolicy):
            offered = myopic_assign(policy.model, day_features, policy.shadow_price, discounts)
        else:  # ConstantPolicy, its value checked above
            offered = np.full(n, policy.value)

        q = _purchase_prob(model.alpha_values(day_features), model.sensitivity(day_features),
                           offered, model.pivot)
        purchases[:, t] = rng.random(n) < q
        coupon_history[:, t] = offered
        features[:, t, :] = day_features

    return CouponDataset(
        feature_names=spec.feature_names,
        reference_feature=reference_feature_name(spec.memory),
        discounts=discounts.values,
        memory=spec.memory,
        customer_ids=np.repeat(np.arange(n), horizon),
        days=np.tile(np.arange(1, horizon + 1), n),
        features=features.reshape(n * horizon, -1),
        coupons=coupon_history.reshape(n * horizon),
        purchases=purchases.reshape(n * horizon).astype(int),
    )
