"""Reference-effect diagnostics on coupon datasets.

Two views of the same question — does a big recent coupon depress purchases?

* :func:`reference_correlations`: raw correlation of the purchase indicator
  with the max (and, for comparison, the mean) coupon over the trailing
  window, per memory length.
* :func:`monotonicity_table`: percent change in purchase rate when the
  trailing max lies in the small-coupon group instead of the large-coupon
  group, split by the current coupon's group.

Both condition on each row's trailing max, the largest coupon of the
``memory`` days before it: a running ``np.maximum`` over day-shifted slices
of the panel, which after lag k holds the max of each window's first k + 1
days, so after the last lag the window's max.  One running max serves every
window, each lag taken once up to the longest.  It may keep another NaN or
signed zero than ``max`` over a window view does; the payloads are the same.
Group masks are ``|x - c| <= 1e-9``, which is ``np.isclose(x, c, rtol=0,
atol=1e-9)`` for a finite ``c``.  ``refcycle analyze`` takes both tables from
one pass over the panel: one sort and one running max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .population import CouponDataset

__all__ = [
    "EmptyCellError",
    "CorrelationRow",
    "MonotonicityRow",
    "reference_correlations",
    "monotonicity_table",
]

# coupon groups that monotonicity_table compares
SMALL_COUPONS = (0.12, 0.15)
LARGE_COUPONS = (0.17, 0.20)


class EmptyCellError(RuntimeError):
    """A conditioning cell has no rows or no purchases."""


@dataclass(frozen=True)
class CorrelationRow:
    memory: int
    corr_max: float | None
    corr_avg: float | None


@dataclass(frozen=True)
class MonotonicityRow:
    memory: int
    small_coupon_pct: float
    large_coupon_pct: float


def _trailing_windows(dataset: CouponDataset, memory_lengths: Sequence[int]):
    """Per memory length, checked up front: the length, the trailing windows
    (``windows[:, t]`` covers days t..t+memory-1), their max, the coupons of
    day t+memory as an (n, days) view and its purchases flattened."""
    if len(memory_lengths) == 0:
        raise ValueError("no memory lengths requested")
    _, coupons, purchases = dataset.panel()
    if max(memory_lengths) + 1 > coupons.shape[1]:
        raise ValueError("dataset is shorter than the longest requested window")
    if min(memory_lengths) < 1:
        raise ValueError("memory lengths must be positive")
    # one lag at a time up to the longest window: column t of peak then holds
    # the max of days t..t+lag, so each window's max is there after its last lag
    peak, peaks = coupons, {}
    for lag in range(max(memory_lengths)):
        if lag:
            peak = np.maximum(peak[:, :-1], coupons[:, lag:])
        if lag + 1 in memory_lengths:
            peaks[lag + 1] = peak[:, :-1].ravel()
    for memory in memory_lengths:
        windows = np.lib.stride_tricks.sliding_window_view(coupons, memory, axis=1)[:, :-1, :]
        yield memory, windows, peaks[memory], coupons[:, memory:], purchases[:, memory:].ravel()


def _pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    if a.size == 0 or np.all(a == a[0]) or np.all(b == b[0]):
        return None
    return float(np.corrcoef(a, b)[0, 1])


def reference_correlations(
    dataset: CouponDataset, memory_lengths: Sequence[int]
) -> list[CorrelationRow]:
    """Correlation of purchases with trailing-max and trailing-mean coupons.

    Rows whose window would reach before day 1 are skipped.  Degenerate
    (zero-variance) metrics are reported as None.
    """
    return [_correlation_row(*window) for window in _trailing_windows(dataset, memory_lengths)]


def monotonicity_table(dataset: CouponDataset, memory_lengths: Sequence[int]) -> list[MonotonicityRow]:
    """Percent purchase-rate lift from a small-group reference, per memory
    length and per current-coupon group (:data:`SMALL_COUPONS` against
    :data:`LARGE_COUPONS`).

    Entry = 100 * (rate | reference in small) / (rate | reference in large)
    - 100, computed separately for rows whose current coupon is small/large.
    Raises :class:`EmptyCellError` when a conditioning cell is empty or the
    large-reference cell has no purchases.
    """
    return [_monotonicity_row(*window) for window in _trailing_windows(dataset, memory_lengths)]


def _diagnostics(
    dataset: CouponDataset, memory_lengths: Sequence[int]
) -> tuple[list[CorrelationRow], list[MonotonicityRow]]:
    """:func:`reference_correlations` and :func:`monotonicity_table` from one
    pass over the panel: one sort and one running max."""
    rows = [(_correlation_row(*window), _monotonicity_row(*window))
            for window in _trailing_windows(dataset, memory_lengths)]
    return [row for row, _ in rows], [row for _, row in rows]


def _correlation_row(memory, windows, peak, current, bought) -> CorrelationRow:
    """One window of :func:`_trailing_windows` as a correlation row."""
    return CorrelationRow(
        memory=memory,
        corr_max=_pearson(peak, bought),
        corr_avg=_pearson(windows.mean(axis=2).ravel(), bought),
    )


def _group_mask(values: np.ndarray, group: Sequence[float]) -> np.ndarray:
    return np.logical_or.reduce([np.abs(values - member) <= 1e-9 for member in group])


def _monotonicity_row(memory, windows, reference, current, bought) -> MonotonicityRow:
    """One window of :func:`_trailing_windows` as a monotonicity row."""
    current = current.ravel()
    ref_small = _group_mask(reference, SMALL_COUPONS)
    ref_large = _group_mask(reference, LARGE_COUPONS)
    pcts = []
    for group in (SMALL_COUPONS, LARGE_COUPONS):
        in_group = _group_mask(current, group)
        cells = []
        for ref_mask in (ref_small, ref_large):
            selected = bought[in_group & ref_mask]
            if selected.size == 0:
                raise EmptyCellError(
                    f"no rows with coupon group {group} for window {memory}"
                )
            cells.append(float(np.mean(selected)))
        rate_small_ref, rate_large_ref = cells
        if rate_large_ref == 0.0:
            raise EmptyCellError(
                f"no purchases in the large-reference cell for window {memory}"
            )
        pcts.append(100.0 * (rate_small_ref / rate_large_ref - 1.0))
    return MonotonicityRow(memory, pcts[0], pcts[1])
