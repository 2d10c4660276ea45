"""Reference-effect diagnostics: correlations and the rate-lift table."""

from dataclasses import astuple

import numpy as np
import pytest

from refcycle.allocator import (
    ConstantPolicy,
    CouponDataset,
    EmptyCellError,
    PopulationSpec,
    default_ground_truth,
    monotonicity_table,
    reference_correlations,
    simulate_population,
)
from refcycle.allocator import analytics
from refcycle.allocator.analytics import (
    LARGE_COUPONS,
    SMALL_COUPONS,
    CorrelationRow,
    MonotonicityRow,
)

WINDOWS = (3, 4, 5, 7)


@pytest.fixture(scope="module")
def reference_dataset():
    spec = PopulationSpec(size=8000, horizon=25, memory=7, discounts=(0.12, 0.15, 0.17, 0.20))
    return simulate_population(spec, default_ground_truth(7), seed=13)


@pytest.fixture(scope="module")
def null_dataset():
    from refcycle.allocator import AllocationModel

    spec = PopulationSpec(size=8000, horizon=25, memory=7, discounts=(0.12, 0.15, 0.17, 0.20))
    names = spec.feature_names
    flat = AllocationModel(names, np.append([-1.8], np.zeros(len(names))), np.zeros(len(names)))
    return simulate_population(spec, flat, seed=14)


def test_correlations_negative_and_max_dominates(reference_dataset):
    rows = reference_correlations(reference_dataset, WINDOWS)
    assert [row.memory for row in rows] == list(WINDOWS)
    for row in rows:
        assert row.corr_max is not None and row.corr_avg is not None
        assert row.corr_max < 0
        assert row.corr_max < row.corr_avg


def test_correlations_undefined_for_constant_coupons():
    spec = PopulationSpec(size=200, horizon=10, memory=3, discounts=(0.12, 0.15, 0.17, 0.20))
    dataset = simulate_population(spec, default_ground_truth(3), ConstantPolicy(0.15), seed=3)
    rows = reference_correlations(dataset, (3,))
    assert rows[0].corr_max is None
    assert rows[0].corr_avg is None


def test_window_longer_than_panel_rejected(reference_dataset):
    with pytest.raises(ValueError):
        reference_correlations(reference_dataset, (40,))
    with pytest.raises(ValueError):
        monotonicity_table(reference_dataset, (40,))
    with pytest.raises(ValueError):
        reference_correlations(reference_dataset, (0,))


@pytest.mark.parametrize("diagnostic", [reference_correlations, monotonicity_table])
@pytest.mark.parametrize("windows", [(0,), (-2,), (3, 0)])
def test_nonpositive_window_rejected_by_both_diagnostics(reference_dataset, diagnostic, windows):
    with pytest.raises(ValueError, match="memory lengths must be positive"):
        diagnostic(reference_dataset, windows)


@pytest.mark.parametrize("diagnostic", [reference_correlations, monotonicity_table])
def test_empty_window_list_rejected_by_both_diagnostics(reference_dataset, diagnostic):
    with pytest.raises(ValueError, match="no memory lengths requested"):
        diagnostic(reference_dataset, [])


def test_monotonicity_entries_positive_under_reference_effect(reference_dataset):
    rows = monotonicity_table(reference_dataset, WINDOWS)
    assert [row.memory for row in rows] == list(WINDOWS)
    for row in rows:
        assert row.small_coupon_pct > 0
        assert row.large_coupon_pct > 0


def test_monotonicity_near_zero_without_reference_effect(null_dataset):
    for row in monotonicity_table(null_dataset, (3, 4)):
        assert abs(row.small_coupon_pct) < 15
        assert abs(row.large_coupon_pct) < 15


def test_monotonicity_empty_cell_error():
    spec = PopulationSpec(size=100, horizon=10, memory=3, discounts=(0.12, 0.15, 0.17, 0.20))
    dataset = simulate_population(spec, default_ground_truth(3), ConstantPolicy(0.17), seed=5)
    # the trailing max is always 0.17: the small-reference cell is empty
    with pytest.raises(EmptyCellError):
        monotonicity_table(dataset, (3,))


def reference_rows(dataset, memory):
    """Both diagnostics as the window reduction and ``isclose`` masks give
    them: the rows, or the error each raises, for one window."""
    _, coupons, purchases = dataset.panel()
    windows = np.lib.stride_tricks.sliding_window_view(coupons, memory, axis=1)[:, :-1, :]
    reference, bought = windows.max(axis=2).ravel(), purchases[:, memory:].ravel()
    current = coupons[:, memory:].ravel()

    def pearson(a):
        if np.all(a == a[0]) or np.all(bought == bought[0]):
            return None
        return float(np.corrcoef(a, bought)[0, 1])

    def in_group(values, group):
        return np.logical_or.reduce([np.isclose(values, c, rtol=0.0, atol=1e-9) for c in group])

    correlations = [CorrelationRow(memory, pearson(reference), pearson(windows.mean(axis=2).ravel()))]
    pcts = []
    for group in (SMALL_COUPONS, LARGE_COUPONS):
        cells = []
        for ref_group in (SMALL_COUPONS, LARGE_COUPONS):
            selected = bought[in_group(current, group) & in_group(reference, ref_group)]
            if selected.size == 0:
                return correlations, f"no rows with coupon group {group} for window {memory}"
            cells.append(float(np.mean(selected)))
        if cells[1] == 0.0:
            return correlations, f"no purchases in the large-reference cell for window {memory}"
        pcts.append(100.0 * (cells[0] / cells[1] - 1.0))
    return correlations, [MonotonicityRow(memory, *pcts)]


def exact(rows):
    """Each row's fields with floats as ``float.hex`` and NaN as "nan"."""
    def key(value):
        if isinstance(value, float):
            return "nan" if np.isnan(value) else value.hex()
        return value
    return rows if isinstance(rows, str) else [tuple(map(key, astuple(row))) for row in rows]


# coupons drawn per panel: the four groups, values within 1e-9 of a group and
# just outside it, and NaN, +-inf and signed zeros, which windows of 9 or more
# days reduce to a different NaN or zero than the running max keeps
SMALL_EDGES = (0.12, 0.15, 0.12 + 9e-10, 0.15 - 9e-10, 0.15 + 1e-9, 0.1)
GROUP_EDGES = SMALL_EDGES + (0.17, 0.20, 0.17 + 1.1e-9, 0.20 - 9e-10)
SPECIALS = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0)


@pytest.mark.parametrize("special_share", [0.0, 0.01, 0.3, 0.9])
@pytest.mark.parametrize("seed", range(3))
def test_diagnostics_equal_the_window_reduction_exactly(special_share, seed):
    rng = np.random.default_rng(seed)
    customers, horizon = 60, 30
    coupons = rng.choice(GROUP_EDGES, size=(customers, horizon))
    # small coupons only before a drawn day, so small-reference cells fill at every window
    early = np.arange(horizon) < rng.integers(1, horizon + 1, size=(customers, 1))
    coupons[early] = rng.choice(SMALL_EDGES, size=int(early.sum()))
    special = rng.random(coupons.shape) < special_share
    # at a high share, windows of only signed zeros and -inf: their max is a signed zero
    coupons[special] = rng.choice(SPECIALS if special_share < 0.5 else (0.0, -0.0, -np.inf),
                                  size=int(special.sum()))
    order = rng.permutation(coupons.size)  # rows need not come customer-major
    dataset = CouponDataset(
        ("f",), "f", (0.12, 0.15, 0.17, 0.20), 3,
        customer_ids=np.repeat(np.arange(customers), horizon)[order],
        days=np.tile(np.arange(1, horizon + 1), customers)[order],
        features=np.zeros((coupons.size, 1)),
        coupons=coupons.ravel()[order],
        purchases=(rng.random(coupons.size) < 0.3).astype(int)[order],
    )
    with np.errstate(invalid="ignore"):
        for memory in range(1, horizon):
            correlations, monotonicity = reference_rows(dataset, memory)
            assert exact(reference_correlations(dataset, [memory])) == exact(correlations)
            try:
                rows = monotonicity_table(dataset, [memory])
            except EmptyCellError as exc:
                rows = str(exc)
            assert exact(rows) == exact(monotonicity)
            # the trailing max itself may keep another NaN or signed zero
            (_, windows, peak, _, _), = analytics._trailing_windows(dataset, [memory])
            np.testing.assert_array_equal(peak, windows.max(axis=2).ravel())


def outcome_of(diagnostic, *args):
    try:
        return diagnostic(*args)
    except (EmptyCellError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("windows", [WINDOWS, (1, 7, 2), (3, 3), (40,), (0,), ()])
def test_one_pass_gives_both_diagnostics(reference_dataset, null_dataset, windows):
    spec = PopulationSpec(size=100, horizon=10, memory=3, discounts=(0.12, 0.15, 0.17, 0.20))
    constant = simulate_population(spec, default_ground_truth(3), ConstantPolicy(0.17), seed=5)
    for dataset in (reference_dataset, null_dataset, constant):
        correlations = outcome_of(reference_correlations, dataset, windows)
        monotonicity = outcome_of(monotonicity_table, dataset, windows)
        both = outcome_of(analytics._diagnostics, dataset, windows)
        if isinstance(correlations, tuple):  # a refused window list: both refuse it alike
            assert both == correlations == monotonicity
        elif isinstance(monotonicity, tuple):  # an empty cell: the pass raises the same error
            assert both == monotonicity
        else:
            assert exact(both[0]) == exact(correlations)
            assert exact(both[1]) == exact(monotonicity)


@pytest.mark.parametrize("customers", [1, 2, 9])
def test_shared_running_max_serves_every_window_in_any_order(customers):
    """One running max feeds all requested windows, in any order and with
    repeats; each window's max is kept before later lags overwrite it."""
    rng = np.random.default_rng(customers)
    for _ in range(20):
        horizon = int(rng.integers(2, 25))
        coupons = rng.choice(GROUP_EDGES, size=(customers, horizon))
        dataset = CouponDataset(
            ("f",), "f", (0.12, 0.15, 0.17, 0.20), 3,
            customer_ids=np.repeat(np.arange(customers), horizon),
            days=np.tile(np.arange(1, horizon + 1), customers),
            features=np.zeros((coupons.size, 1)),
            coupons=coupons.ravel(),
            purchases=(rng.random(coupons.size) < 0.3).astype(int),
        )
        windows = rng.integers(1, horizon, size=int(rng.integers(1, 6))).tolist()
        yielded = list(analytics._trailing_windows(dataset, windows))
        assert [memory for memory, *_ in yielded] == windows
        for _, view, peak, _, _ in yielded:
            np.testing.assert_array_equal(peak, view.max(axis=2).ravel())
