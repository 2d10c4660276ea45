"""Reference-effect diagnostics: correlations and the rate-lift table."""

import numpy as np
import pytest

from refcycle.allocator import (
    ConstantPolicy,
    EmptyCellError,
    PopulationSpec,
    default_ground_truth,
    monotonicity_table,
    reference_correlations,
    simulate_population,
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
