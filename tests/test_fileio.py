"""File-format round trips: gain tables, cycles, models, datasets."""

from fractions import Fraction

import numpy as np
import pytest

from refcycle.allocator import (
    CouponDataset,
    DiscountSet,
    PopulationSpec,
    default_ground_truth,
    simulate_population,
)
from refcycle.core import PriceGrid
from refcycle.fileio import (
    customers_from_dataset,
    format_cycle,
    format_price,
    gain_table_from_dict,
    gain_table_to_dict,
    load_dataset,
    load_gain_table,
    load_model,
    parse_cycle_text,
    parse_price_list,
    save_dataset,
    save_gain_table,
    save_model,
)

def test_format_price():
    assert format_price(Fraction(3)) == "3"
    assert format_price(Fraction(3, 25)) == "0.12"
    assert format_price(Fraction(1, 3)) == "1/3"
    assert Fraction(format_price(Fraction(1, 3))) == Fraction(1, 3)


def test_parse_price_list():
    assert parse_price_list("1 2 3") == [Fraction(1), Fraction(2), Fraction(3)]
    assert parse_price_list("0.12, 0.15") == [Fraction(3, 25), Fraction(3, 20)]
    with pytest.raises(ValueError):
        parse_price_list("   ")


def test_cycle_text_round_trip(demo_table):
    grid = demo_table.grid
    cycle = parse_cycle_text("4 1 4 2 4 3", grid)
    assert cycle.tokens == (3, 0, 3, 1, 3, 2)
    assert format_cycle(cycle, grid) == "4 1 4 2 4 3"


def test_parse_cycle_text_repeated_tokens_and_first_error(demo_table):
    grid = demo_table.grid
    assert parse_cycle_text("2, 2.0 4/2 1 2", grid).tokens == (1, 1, 1, 0, 1)
    # a token that is not a price is reported before any price missing from the grid
    with pytest.raises(ValueError, match="abc"):
        parse_cycle_text("1 9 abc 8", grid)
    with pytest.raises(ValueError, match=r"Fraction\(9, 1\)"):
        parse_cycle_text("1 9 2 8 9", grid)
    with pytest.raises(ValueError, match="empty price list"):
        parse_cycle_text(" , ", grid)


def test_gain_table_json_round_trip(tmp_path, demo_table):
    path = tmp_path / "table.json"
    save_gain_table(demo_table, path)
    assert load_gain_table(path) == demo_table
    # dict form round-trips too
    assert gain_table_from_dict(gain_table_to_dict(demo_table)) == demo_table


def test_gain_table_csv_round_trip(tmp_path, demo_table):
    path = tmp_path / "table.csv"
    save_gain_table(demo_table, path)
    assert load_gain_table(path, memory=2) == demo_table
    with pytest.raises(ValueError):
        load_gain_table(path)  # CSV needs an explicit memory length


def test_gain_table_memory_conflict(tmp_path, demo_table):
    path = tmp_path / "table.json"
    save_gain_table(demo_table, path)
    with pytest.raises(ValueError):
        load_gain_table(path, memory=3)


def test_fractional_prices_survive_round_trip(tmp_path):
    grid = PriceGrid.from_values(["0.10", "0.12", "1/3"], 2)
    from refcycle.core import GainTable

    table = GainTable.from_rows(grid, [[0.5] * 3] * 3)
    path = tmp_path / "frac.json"
    save_gain_table(table, path)
    assert load_gain_table(path).grid.prices == grid.prices


def test_model_round_trip(tmp_path):
    model = default_ground_truth(7)
    discounts = DiscountSet((0.12, 0.15, 0.17, 0.20))
    path = tmp_path / "model.json"
    save_model(model, discounts, path)
    loaded, loaded_discounts = load_model(path)
    assert loaded.feature_names == model.feature_names
    assert np.array_equal(loaded.alpha_weights, model.alpha_weights)
    assert np.array_equal(loaded.beta_weights, model.beta_weights)
    assert loaded.pivot == model.pivot
    assert loaded_discounts.values == discounts.values


def test_dataset_round_trip(tmp_path):
    spec = PopulationSpec(size=25, horizon=6, memory=3, discounts=(0.12, 0.15, 0.17, 0.20))
    dataset = simulate_population(spec, default_ground_truth(3), seed=21)
    path = tmp_path / "panel.csv"
    sidecar = save_dataset(dataset, path)
    assert sidecar.exists()
    loaded = load_dataset(path)
    assert loaded.feature_names == dataset.feature_names
    assert loaded.reference_feature == dataset.reference_feature
    assert loaded.discounts == dataset.discounts
    assert loaded.memory == dataset.memory
    assert np.array_equal(loaded.customer_ids, dataset.customer_ids)
    assert np.array_equal(loaded.days, dataset.days)
    assert np.array_equal(loaded.features, dataset.features)
    assert np.array_equal(loaded.coupons, dataset.coupons)
    assert np.array_equal(loaded.purchases, dataset.purchases)


def test_customers_from_dataset(tmp_path):
    spec = PopulationSpec(size=10, horizon=5, memory=3)
    dataset = simulate_population(spec, default_ground_truth(3), seed=22)
    ids, X = customers_from_dataset(dataset)
    assert ids.tolist() == list(range(10))
    # features are the latest-day row
    assert np.array_equal(X, dataset.features.reshape(10, 5, -1)[:, -1, :])


def per_row_latest(dataset: CouponDataset) -> tuple[list[int], np.ndarray]:
    """Row-by-row reference for ``customers_from_dataset``: walk the rows in
    (customer, day) order and keep a row whenever its day is at least the
    customer's latest so far."""
    features: dict[int, np.ndarray] = {}
    latest_day: dict[int, int] = {}
    for i in np.lexsort((dataset.days, dataset.customer_ids)):
        cid = int(dataset.customer_ids[i])
        day = int(dataset.days[i])
        if cid not in features:
            features[cid] = dataset.features[i]
            latest_day[cid] = day
        if day >= latest_day[cid]:
            features[cid] = dataset.features[i]
            latest_day[cid] = day
    ids = sorted(features)
    return ids, np.vstack([np.asarray(features[cid], dtype=float) for cid in ids])


def messy_panel(rng: np.random.Generator) -> CouponDataset:
    """Customers with different day counts, repeated (customer, day) rows
    carrying different features, and every row shuffled."""
    ids, days = [], []
    for cid in rng.choice(1000, size=int(rng.integers(1, 15)), replace=False):
        span = rng.choice(np.arange(1, 11), size=int(rng.integers(1, 9)), replace=False)
        repeats = rng.choice(span, size=int(rng.integers(0, 4)))
        for day in (*span, *repeats):
            ids.append(int(cid))
            days.append(int(day))
    order = rng.permutation(len(ids))
    rows = len(ids)
    return CouponDataset(
        feature_names=("a", "b", "max_coupon_3d"),
        reference_feature="max_coupon_3d",
        discounts=(0.1, 0.2),
        memory=3,
        customer_ids=np.asarray(ids)[order],
        days=np.asarray(days)[order],
        features=rng.normal(size=(rows, 3)),
        coupons=rng.choice([0.1, 0.2], size=rows),
        purchases=rng.integers(0, 2, size=rows),
    )


def test_customers_from_dataset_matches_per_row_walk():
    repeated = 0
    for seed in range(60):
        dataset = messy_panel(np.random.default_rng(seed))
        pairs = set(zip(dataset.customer_ids.tolist(), dataset.days.tolist()))
        repeated += len(pairs) < dataset.num_rows
        ids, X = customers_from_dataset(dataset)
        expected_ids, expected_X = per_row_latest(dataset)
        assert ids.tolist() == expected_ids
        assert np.array_equal(X, expected_X)
    assert repeated > 10


def test_demo_cycle_objective_from_files(tmp_path, demo_table):
    # a saved table drives the same arithmetic after reloading
    from refcycle.core import cycle_objective

    path = tmp_path / "t.json"
    save_gain_table(demo_table, path)
    table = load_gain_table(path)
    cycle = parse_cycle_text("4 1 4 2 4 3", table.grid)
    assert cycle_objective(cycle, table) == 1.0
