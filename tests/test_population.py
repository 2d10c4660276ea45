"""Synthetic population simulator: determinism, reference feature, policies."""

import tracemalloc

import numpy as np
import pytest

from refcycle.allocator import (
    AllocationModel,
    ConstantPolicy,
    CouponDataset,
    MyopicPolicy,
    PopulationSpec,
    STATIC_FEATURES,
    default_ground_truth,
    reference_feature_name,
    simulate_population,
)
from refcycle.allocator.model import DiscountSet, _purchase_prob, myopic_assign, sigmoid
from refcycle.fileio import save_dataset

SPEC = PopulationSpec(size=400, horizon=15, memory=3, discounts=(0.12, 0.15, 0.17, 0.20))


def flat_model(spec: PopulationSpec, alpha0: float) -> AllocationModel:
    names = spec.feature_names
    return AllocationModel(names, np.append([alpha0], np.zeros(len(names))), np.zeros(len(names)))


def test_shapes_and_names():
    truth = default_ground_truth(SPEC.memory)
    dataset = simulate_population(SPEC, truth, seed=5)
    assert dataset.num_rows == SPEC.size * SPEC.horizon
    assert dataset.feature_names == STATIC_FEATURES + (reference_feature_name(SPEC.memory),)
    assert dataset.reference_feature == "max_coupon_3d"
    assert set(np.unique(dataset.coupons)) <= set(SPEC.discounts)
    assert set(np.unique(dataset.purchases)) <= {0, 1}


@pytest.mark.parametrize("column", ["customer_ids", "days", "purchases"])
def test_dataset_refuses_integer_columns_of_a_float_dtype(column):
    # the CSV would hold 0.0 in an integer column, which the panel reader refuses
    dataset = simulate_population(PopulationSpec(size=3, horizon=2, memory=3),
                                  default_ground_truth(3), seed=1)
    fields = {name: getattr(dataset, name) for name in dataset.__dataclass_fields__}
    with pytest.raises(ValueError, match="integer or bool dtype"):
        CouponDataset(**{**fields, column: fields[column].astype(np.float64)})
    for dtype in (np.int32, np.uint64, bool):
        CouponDataset(**{**fields, column: fields[column].astype(dtype)})


def test_dataset_refuses_ids_that_are_not_one_per_row(tmp_path):
    # ids of shape (2, 2) pass a check against len(ids) alone, and the CSV
    # writer then fails on them after writing the header
    dataset = simulate_population(PopulationSpec(size=1, horizon=2, memory=3),
                                  default_ground_truth(3), seed=1)
    fields = {name: getattr(dataset, name) for name in dataset.__dataclass_fields__}
    panel = tmp_path / "panel.csv"
    for ids in (np.arange(4).reshape(2, 2), np.arange(2).reshape(2, 1)):
        with pytest.raises(ValueError, match="inconsistent"):
            save_dataset(CouponDataset(**{**fields, "customer_ids": ids}), panel)
    assert list(tmp_path.iterdir()) == []


def rows_of(dataset: CouponDataset, rows, **columns) -> CouponDataset:
    """The dataset's rows at ``rows``, in that order, with ``columns`` in place."""
    fields = {name: getattr(dataset, name) for name in dataset.__dataclass_fields__}
    picked = {name: fields[name][rows] for name in ("customer_ids", "days", "features",
                                                    "coupons", "purchases")}
    return CouponDataset(**{**fields, **picked, **columns})


def ragged(dataset: CouponDataset) -> CouponDataset:
    """The panel with customer 0's last day moved to customer 1, one day
    later: the row count still splits into equal customers."""
    ids, days = dataset.customer_ids, dataset.days
    last = days.max()
    rows = np.r_[np.flatnonzero((ids != 0) | (days != last)),
                 np.flatnonzero((ids == 1) & (days == last))]
    return rows_of(dataset, rows, days=np.r_[days[rows[:-1]], last + 1])


def test_panel_refuses_customers_on_other_days():
    dataset = simulate_population(PopulationSpec(size=4, horizon=5, memory=3),
                                  default_ground_truth(3), seed=1)
    ids, coupons, purchases = dataset.panel()
    assert ids.tolist() == [0, 1, 2, 3] and coupons.shape == purchases.shape == (4, 5)
    every, days = np.arange(dataset.num_rows), dataset.days
    for bad in (ragged(dataset),
                rows_of(dataset, every, days=np.where(dataset.customer_ids == 2, days + 1, days)),
                rows_of(dataset, every, days=np.where(days == 2, 1, days)),  # day 2 as day 1
                rows_of(dataset, [0, 0, 5]),  # customer 0 twice on day 1, customer 1 once
                rows_of(dataset, every[:0])):
        with pytest.raises(ValueError, match="not a rectangular panel"):
            bad.panel()


def test_deterministic_per_seed():
    truth = default_ground_truth(SPEC.memory)
    a = simulate_population(SPEC, truth, seed=9)
    b = simulate_population(SPEC, truth, seed=9)
    c = simulate_population(SPEC, truth, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.coupons, b.coupons)
    assert np.array_equal(a.purchases, b.purchases)
    assert not np.array_equal(a.coupons, c.coupons)


def test_reference_feature_is_trailing_max():
    truth = default_ground_truth(SPEC.memory)
    dataset = simulate_population(SPEC, truth, seed=2)
    ref_col = dataset.features[:, -1].reshape(SPEC.size, SPEC.horizon)
    coupons = dataset.coupons.reshape(SPEC.size, SPEC.horizon)
    assert np.all(ref_col[:, 0] == truth.pivot)  # warm-up value on day 1
    for t in range(1, SPEC.horizon):
        start = max(0, t - SPEC.memory)
        assert np.array_equal(ref_col[:, t], coupons[:, start:t].max(axis=1))


def test_static_features_constant_within_customer():
    truth = default_ground_truth(SPEC.memory)
    dataset = simulate_population(SPEC, truth, seed=3)
    static = dataset.features[:, :-1].reshape(SPEC.size, SPEC.horizon, -1)
    assert np.all(static == static[:, :1, :])


def test_uniform_policy_marginals():
    spec = PopulationSpec(size=2000, horizon=20, memory=3, discounts=(0.12, 0.15, 0.17, 0.20))
    truth = default_ground_truth(spec.memory)
    dataset = simulate_population(spec, truth, "uniform", seed=4)
    counts = np.array([
        np.sum(np.isclose(dataset.coupons, v)) for v in spec.discounts
    ])
    expected = dataset.num_rows / len(spec.discounts)
    chi_square = float(np.sum((counts - expected) ** 2 / expected))
    assert chi_square < 16.27  # 0.999 quantile at 3 degrees of freedom


def test_flat_model_purchase_rate_matches_sigmoid():
    spec = PopulationSpec(size=3000, horizon=10, memory=3)
    model = flat_model(spec, alpha0=-1.5)
    dataset = simulate_population(spec, model, seed=6)
    target = float(sigmoid(-1.5))
    observed = dataset.purchases.mean()
    se = np.sqrt(target * (1 - target) / dataset.num_rows)
    assert abs(observed - target) <= 3 * se


def test_negative_reference_truth_correlates_negatively():
    spec = PopulationSpec(size=3000, horizon=20, memory=3, discounts=(0.12, 0.15, 0.17, 0.20))
    truth = default_ground_truth(spec.memory)
    dataset = simulate_population(spec, truth, seed=7)
    keep = dataset.days > spec.memory  # past the warm-up rows
    ref = dataset.features[keep, -1]
    corr = np.corrcoef(ref, dataset.purchases[keep])[0, 1]
    assert corr < 0


def test_constant_policy():
    truth = default_ground_truth(SPEC.memory)
    dataset = simulate_population(SPEC, truth, ConstantPolicy(0.17), seed=1)
    assert np.all(dataset.coupons == 0.17)
    with pytest.raises(ValueError):
        simulate_population(SPEC, truth, ConstantPolicy(0.5), seed=1)


def test_policy_validation():
    truth = default_ground_truth(SPEC.memory)
    with pytest.raises(ValueError):
        simulate_population(SPEC, truth, "surprise", seed=0)
    with pytest.raises(TypeError):
        simulate_population(SPEC, truth, object(), seed=0)
    wrong = default_ground_truth(SPEC.memory + 1)
    with pytest.raises(ValueError):
        simulate_population(SPEC, wrong, seed=0)


def longest_constant_run_fraction(dataset, spec, threshold):
    coupons = dataset.coupons.reshape(spec.size, spec.horizon)
    hits = 0
    for row in coupons:
        run = best = 1
        for a, b in zip(row, row[1:]):
            run = run + 1 if a == b else 1
            best = max(best, run)
        hits += best >= threshold
    return hits / spec.size


def test_myopic_reference_model_varies_coupons_within_customer():
    # train the sensitivity weights on randomized data, then compare myopic
    # play under the trained model vs the same model with no reference term
    from refcycle.allocator import fit_beta

    spec = PopulationSpec(size=500, horizon=25, memory=3)
    truth = default_ground_truth(spec.memory)
    training = simulate_population(
        PopulationSpec(size=2000, horizon=50, memory=3), truth, seed=42
    )
    fitted_beta = fit_beta(
        training.features, training.coupons, training.purchases,
        truth.alpha_values(training.features),
    )
    assert fitted_beta[-1] < 0  # the reference sensitivity came out negative
    trained = AllocationModel(truth.feature_names, truth.alpha_weights, fitted_beta, truth.pivot)
    static_only = AllocationModel(
        truth.feature_names,
        truth.alpha_weights,
        np.append(fitted_beta[:-1], 0.0),  # reference sensitivity removed
        truth.pivot,
    )
    with_reference = simulate_population(spec, truth, MyopicPolicy(trained), seed=11)
    without_reference = simulate_population(spec, truth, MyopicPolicy(static_only), seed=11)
    threshold = spec.memory + 1
    repeat_with = longest_constant_run_fraction(with_reference, spec, threshold)
    repeat_without = longest_constant_run_fraction(without_reference, spec, threshold)
    assert repeat_without == 1.0  # static features only: the rule never moves
    assert repeat_with < repeat_without


def reference_simulate(spec, model, policy="uniform", seed=0):
    """The customer-major rollout ``simulate_population`` must match to the bit:
    (n, horizon) coupon and purchase panels and a fresh day matrix each day."""
    rng = np.random.default_rng(seed)
    n, horizon = spec.size, spec.horizon
    emails = rng.poisson(2.0, n)
    cart3 = rng.poisson(1.5, n)
    cart7 = cart3 + rng.poisson(1.5, n)
    sale_discount = rng.uniform(0.0, 0.5, n)
    rate_hist = rng.beta(2.0, 4.0, n)
    rate_30d = rng.beta(2.0, 4.0, n)
    rate_all = rng.beta(2.0, 4.0, n)
    clicked7 = rng.uniform(0.05, 0.25, n) * (rng.random(n) < 0.5)
    clicked30 = rng.uniform(0.05, 0.25, n) * (rng.random(n) < 0.5)
    static = np.column_stack([emails, cart3, cart7, sale_discount,
                              rate_hist, rate_30d, rate_all, clicked7, clicked30]).astype(float)
    discounts = DiscountSet(spec.discounts)
    values = np.asarray(discounts.values)
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
        if isinstance(policy, str):
            offered = values[rng.integers(0, len(values), size=n)]
        elif isinstance(policy, MyopicPolicy):
            offered = myopic_assign(policy.model, day_features, policy.shadow_price, discounts)
        else:
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


def test_simulation_matches_the_customer_major_rollout_to_the_bit():
    rng = np.random.default_rng(35)
    discounts = (0.12, 0.15, 0.17, 0.20)
    reached = set()
    for case in range(210):
        memory = 1 + case % 7
        horizon = 1 if case % 11 == 0 else int(rng.integers(1, 13))
        size = 1 if case % 13 == 0 else int(rng.choice([2, 3, 17, 64]))
        spec = PopulationSpec(size=size, horizon=horizon, memory=memory, discounts=discounts)
        truth = default_ground_truth(memory)
        policy = ["uniform", ConstantPolicy(float(rng.choice(discounts))),
                  MyopicPolicy(truth, float(rng.uniform(0.0, 4.0)))][case % 3]
        got = simulate_population(spec, truth, policy, seed=case)
        want = reference_simulate(spec, truth, policy, seed=case)
        for name in ("customer_ids", "days", "features", "coupons", "purchases"):
            a, b = getattr(got, name), getattr(want, name)
            layout = (a.dtype, a.shape, a.flags.c_contiguous)
            assert layout == (b.dtype, b.shape, b.flags.c_contiguous), (case, name)
            assert a.tobytes() == b.tobytes(), (case, name)
        reached.update({"memory > horizon"} if memory > horizon else set())
        reached.update({"horizon 1"} if horizon == 1 else set())
        reached.update({"one customer"} if size == 1 else set())
        if isinstance(policy, MyopicPolicy) and len(np.unique(got.coupons)) > 1:
            reached.add("myopic choice varies")
    assert reached == {"memory > horizon", "horizon 1", "one customer", "myopic choice varies"}


def peak_bytes(simulate, spec, truth) -> int:
    tracemalloc.start()
    try:
        simulate(spec, truth, "uniform", 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("size, horizon", [(5000, 30), (10000, 8)])
def test_simulation_peak_memory_is_no_more_than_the_customer_major_rollout(size, horizon):
    # the features block stays customer-major: a day-major one and its
    # transposed copy raise the peak by half
    spec = PopulationSpec(size=size, horizon=horizon, memory=7)
    truth = default_ground_truth(spec.memory)
    reference_peak = peak_bytes(reference_simulate, spec, truth)
    assert peak_bytes(simulate_population, spec, truth) <= 1.05 * reference_peak
