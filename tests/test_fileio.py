"""File-format round trips: gain tables, cycles, models, datasets."""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import CELL, FEATURES, HEADER, panel_rows, write_gain_table, write_model

from refcycle.allocator import (
    CouponDataset,
    DiscountSet,
    PopulationSpec,
    default_ground_truth,
    simulate_population,
)
from refcycle import fileio
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
    write_gain_table(demo_table, path)
    assert load_gain_table(path) == demo_table
    # dict form round-trips too
    assert gain_table_from_dict(gain_table_to_dict(demo_table)) == demo_table


def test_gain_table_csv_round_trip(tmp_path, demo_table):
    path = tmp_path / "table.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([format_price(p) for p in demo_table.grid.prices])
        writer.writerows([[repr(g) for g in row] for row in demo_table.gains])
    assert load_gain_table(path, memory=2) == demo_table
    with pytest.raises(ValueError):
        load_gain_table(path)  # CSV needs an explicit memory length


def test_gain_table_memory_conflict(tmp_path, demo_table):
    path = tmp_path / "table.json"
    write_gain_table(demo_table, path)
    with pytest.raises(ValueError):
        load_gain_table(path, memory=3)


def test_fractional_prices_survive_round_trip(tmp_path):
    grid = PriceGrid.from_values(["0.10", "0.12", "1/3"], 2)
    from refcycle.core import GainTable

    table = GainTable.from_rows(grid, [[0.5] * 3] * 3)
    path = tmp_path / "frac.json"
    write_gain_table(table, path)
    assert load_gain_table(path).grid.prices == grid.prices


def test_model_round_trip(tmp_path):
    model = default_ground_truth(7)
    discounts = DiscountSet((0.12, 0.15, 0.17, 0.20))
    path = tmp_path / "model.json"
    write_model(model, discounts, path)
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
    write_gain_table(demo_table, path)
    table = load_gain_table(path)
    cycle = parse_cycle_text("4 1 4 2 4 3", table.grid)
    assert cycle_objective(cycle, table) == 1.0


# -----------------------------------------------------------------------------
# dataset CSV against the row-by-row reader and writer
# -----------------------------------------------------------------------------


def reference_read_panel(path):
    """The dataset reader without the numpy pass, one ``csv`` row at a time,
    integer cells held to int64: the reference ``load_dataset`` must agree
    with, value for value and error for error."""
    ids, days, coupons, purchases = [], [], [], []
    features = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        expected = ["customer_id", "day", *FEATURES, "coupon_value", "purchased"]
        header = next(reader, None)
        if header != expected:
            raise ValueError(f"unexpected dataset header {header!r}")
        width = len(expected)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ValueError(f"dataset line {reader.line_num} has {len(row)} fields, "
                                 f"the header {width}")
            ids.append(int(row[0]))
            days.append(int(row[1]))
            features.append([float(cell) for cell in row[2:-2]])
            coupons.append(float(row[-2]))
            purchases.append(int(row[-1]))
            if not all(-2**63 <= v < 2**63 for v in (ids[-1], days[-1], purchases[-1])):
                raise ValueError(f"dataset line {reader.line_num} has an integer outside int64")
    return (np.asarray(ids, dtype=np.int64), np.asarray(days, dtype=np.int64),
            np.asarray(features, dtype=float), np.asarray(coupons, dtype=float),
            np.asarray(purchases, dtype=np.int64))


def reference_save_dataset(dataset, path):
    """The dataset writer before the column-wise blocks: one ``csv.writer``
    row per panel row."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["customer_id", "day", *dataset.feature_names, "coupon_value", "purchased"]
        )
        for i in range(dataset.num_rows):
            writer.writerow([
                int(dataset.customer_ids[i]),
                int(dataset.days[i]),
                *[repr(float(x)) for x in dataset.features[i]],
                repr(float(dataset.coupons[i])),
                int(dataset.purchases[i]),
            ])


def load_outcome(read, path):
    """The arrays ``read`` gives for ``path``, or the type and text of its error."""
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 -- the outcome is compared, not handled
        return type(exc), str(exc)


def columns(dataset):
    return (dataset.customer_ids, dataset.days, dataset.features, dataset.coupons,
            dataset.purchases)


def loaded_panel(path):
    return columns(load_dataset(path))


def reference_loaded_panel(path):
    ids, days, features, coupons, purchases = reference_read_panel(path)
    return columns(CouponDataset(FEATURES, FEATURES[-1], (0.12, 0.2), 3,
                                 ids, days, features, coupons, purchases))


def same_arrays(got, expected):
    """Equal dtypes, shapes and values; floats bit for bit, so nan and -0.0 count."""
    return len(got) == len(expected) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, expected))


def assert_loads_like_reference(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())
    (tmp_path / "panel.csv.meta.json").write_text(json.dumps({
        "feature_columns": list(FEATURES), "reference_feature": FEATURES[-1],
        "discounts": [0.12, 0.2], "memory": 3}))
    got = load_outcome(loaded_panel, path)
    expected = load_outcome(reference_loaded_panel, path)
    if isinstance(expected[0], type):
        assert got == expected
    else:
        assert not isinstance(got[0], type), got
        assert same_arrays(got, expected)
        assert {got[0].dtype, got[1].dtype, got[4].dtype} == {np.dtype(np.int64)}
    return expected


# cells the numpy pass must refuse, or read as ``int`` and ``float`` do
# (numpy 2.4 reads the private-use "\ue86a" as 59450)
ODD_CELLS = ["+1", " 7 ", "1.0", "1_000", "1_0.5", "Infinity", "-inf", "nan", "-nan", "1e500",
             "-0", "-0.0", "5e-324", "0x10", '"3"', "", " ", "\xa05", "\u0661", "\ue86a", "\x1c2",
             str(2**53 + 1), str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1),
             str(2**64)]
# rows the ``csv`` reader skips (blank) or refuses (any other width)
ODD_ROWS = ["", "#", "#0,1", "   ", "\t", "\r", ","]


def render_panel(rows, newlines):
    """Header and rows joined with the given line ends, one per line."""
    lines = [",".join(HEADER), *rows]
    return "".join(line + end for line, end in zip(lines, newlines))


def odd_row(cells):
    """Mostly the row of ``cells``; else an odd row, or the row with one cell
    replaced by an odd or arbitrary short one."""
    replaced = st.tuples(st.integers(0, len(cells) - 1), st.sampled_from(ODD_CELLS) | CELL).map(
        lambda pair: ",".join([*cells[:pair[0]], pair[1], *cells[pair[0] + 1:]]))
    return st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(ODD_ROWS) if k == 0 else replaced if k <= 2
        else st.just(",".join(cells)))


def odd_panel():
    """A panel of 1-3 customers and days of odd rows, with mixed line ends."""
    rows = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda shape: st.tuples(*panel_rows(*shape)))
    newlines = st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=10, max_size=10)
    return st.tuples(rows.flatmap(lambda cells: st.tuples(*map(odd_row, cells))), newlines).map(
        lambda pair: render_panel(*pair))


@settings(max_examples=300)
@given(odd_panel())
def test_load_dataset_matches_row_reader(tmp_path_factory, text):
    assert_loads_like_reference(tmp_path_factory.mktemp("panel"), text)


@pytest.mark.parametrize("column", [0, 1, 2, len(HEADER) - 2, len(HEADER) - 1])
def test_load_dataset_odd_cells_match_row_reader(tmp_path, column):
    rows = [",".join(["0", "1", *["0.5"] * len(FEATURES), "0.12", "1"])] * 3
    accepted = 0
    for cell in ODD_CELLS:
        cells = rows[1].split(",")
        cells[column] = cell
        expected = assert_loads_like_reference(
            tmp_path, render_panel([rows[0], ",".join(cells), rows[2]], ["\r\n"] * 4))
        accepted += not isinstance(expected[0], type)
    for row in ODD_ROWS:
        assert_loads_like_reference(tmp_path, render_panel([rows[0], row, rows[2]], ["\r\n"] * 4))
    assert_loads_like_reference(tmp_path, render_panel([], ["\r\n"]))
    assert_loads_like_reference(tmp_path, render_panel(["", ""], ["\r\n"] * 3))
    assert accepted >= 5


def edge_panel(rows, seed):
    """A panel of ``rows`` rows whose cells include -0.0, nan, infinities,
    subnormals, 1e300 and ids above 2**53."""
    rng = np.random.default_rng(seed)
    specials = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308 / 3,
                         1e300, -1e300, 0.1, 1.0 / 3.0])
    features = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-20, 20, size=(rows, 3))
    features.flat[rng.choice(features.size, size=features.size // 4)] = rng.choice(
        specials, size=features.size // 4)
    return CouponDataset(
        feature_names=("a", "b,c", "max_coupon_3d"),
        reference_feature="max_coupon_3d",
        discounts=(0.1, 0.2),
        memory=3,
        customer_ids=rng.integers(2**53 - 5, 2**63 - 1, size=rows, endpoint=True),
        days=rng.integers(-3, 40, size=rows),
        features=features,
        coupons=rng.choice(specials, size=rows),
        purchases=rng.integers(0, 2, size=rows),
    )


@pytest.mark.parametrize("rows", sorted({0, 1, fileio._BLOCK_ROWS - 1, fileio._BLOCK_ROWS,
                                         fileio._BLOCK_ROWS + 1, 2 * fileio._BLOCK_ROWS}))
def test_save_dataset_bytes_match_csv_writer(tmp_path, rows):
    dataset = edge_panel(rows, seed=rows)
    save_dataset(dataset, tmp_path / "got.csv")
    reference_save_dataset(dataset, tmp_path / "expected.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    # other dtypes take the same int() and float() casts
    with np.errstate(over="ignore"):
        features = dataset.features.astype(np.float32)
    cast = CouponDataset(
        feature_names=dataset.feature_names, reference_feature=dataset.reference_feature,
        discounts=dataset.discounts, memory=dataset.memory,
        customer_ids=dataset.customer_ids.astype(np.uint64), days=dataset.days.astype(np.int32),
        features=features, coupons=dataset.days.astype(float) + 0.5,
        purchases=dataset.purchases.astype(bool))
    save_dataset(cast, tmp_path / "got.csv")
    reference_save_dataset(cast, tmp_path / "expected.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
