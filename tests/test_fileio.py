"""File-format round trips: gain tables, cycles, models, datasets."""

import csv
import dataclasses
import hashlib
import io
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import CELL, FEATURES, HEADER, panel_rows, write_gain_table, write_model
from test_population import rows_of

from refcycle.allocator import (
    ConstantPolicy,
    CouponDataset,
    DiscountSet,
    MyopicPolicy,
    PopulationSpec,
    default_ground_truth,
    simulate_population,
)
from refcycle import fileio
from refcycle.core import PriceGrid
from refcycle.fileio import (
    customers_from_dataset,
    file_sha256,
    format_cycle,
    format_price,
    gain_table_from_dict,
    gain_table_to_dict,
    load_dataset,
    load_gain_table,
    load_model,
    load_simulation_spec,
    parse_cycle_text,
    parse_price_list,
    save_dataset,
)

def test_format_price():
    assert format_price(Fraction(3)) == "3"
    assert format_price(Fraction(3, 25)) == "0.12"
    assert format_price(Fraction(1, 3)) == "1/3"
    assert Fraction(format_price(Fraction(1, 3))) == Fraction(1, 3)
    assert format_price(Fraction("-0.05")) == "-0.05"
    assert format_price(Fraction(1, 1048576)) == "1/1048576"  # 20 places, over the cap of 12
    assert format_price(Fraction("0.000000000001")) == "0.000000000001"


@pytest.mark.parametrize("text", ["123456789.123456789", "12345678901234567.125",
                                  "1" + "0" * 400 + ".5", "-" + "9" * 30 + ".25"],
                         ids=["9-places", "17-digit-whole", "401-digit-whole", "negative"])
def test_format_price_is_exact_beyond_a_double(text):
    # more digits than a double carries, or too large for one: printed exactly
    assert format_price(Fraction(text)) == text


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
    assert load_gain_table(path)[0] == demo_table
    # dict form round-trips too
    assert gain_table_from_dict(gain_table_to_dict(demo_table)) == demo_table


def test_gain_table_csv_round_trip(tmp_path, demo_table):
    path = tmp_path / "table.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([format_price(p) for p in demo_table.grid.prices])
        writer.writerows([[repr(g) for g in row] for row in demo_table.gains])
    assert load_gain_table(path, memory=2)[0] == demo_table
    with pytest.raises(ValueError):
        load_gain_table(path)  # CSV needs an explicit memory length


def test_gain_table_digest_is_that_of_the_bytes_parsed(tmp_path, demo_table):
    json_path, csv_path = tmp_path / "table.json", tmp_path / "table.csv"
    write_gain_table(demo_table, json_path)
    csv_path.write_bytes(b"1,2,3,4\r\n" + b"\r\n".join(
        ",".join(map(repr, row)).encode() for row in demo_table.gains) + b"\r\n")
    for path, memory in ((json_path, None), (csv_path, 2)):
        table, digest = load_gain_table(path, memory)
        assert table == demo_table
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest() == file_sha256(path)


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
    assert load_gain_table(path)[0].grid.prices == grid.prices


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


def load_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return load_simulation_spec(path)


def same_model(a, b):
    return (a.feature_names == b.feature_names and a.pivot == b.pivot
            and np.array_equal(a.alpha_weights, b.alpha_weights)
            and np.array_equal(a.beta_weights, b.beta_weights))


def test_simulation_spec_defaults(tmp_path):
    spec, truth, policy = load_spec(tmp_path, {"population": 2, "horizon": 3})
    assert spec == PopulationSpec(size=2, horizon=3)
    assert same_model(truth, default_ground_truth(spec.memory))
    assert policy == "uniform"


def test_simulation_spec_fields(tmp_path):
    planted = default_ground_truth(3)
    spec, truth, _ = load_spec(tmp_path, {
        "population": 2, "horizon": 3, "memory": 3, "discounts": [0.1, 0.2],
        "ground_truth": {"alpha_weights": planted.alpha_weights.tolist(),
                         "beta_weights": planted.beta_weights.tolist()}})
    assert spec == PopulationSpec(size=2, horizon=3, memory=3, discounts=(0.1, 0.2))
    assert same_model(truth, planted)


@pytest.mark.parametrize("fields", [{}, {"policy": None}, {"policy": "uniform"}],
                         ids=["missing", "null", "uniform"])
def test_simulation_spec_uniform_policy(tmp_path, fields):
    assert load_spec(tmp_path, {"population": 2, "horizon": 3, **fields})[2] == "uniform"


def test_simulation_spec_constant_and_myopic_policies(tmp_path):
    _, _, policy = load_spec(tmp_path, {"population": 2, "horizon": 3,
                                        "policy": {"type": "constant", "value": 0.17}})
    assert policy == ConstantPolicy(0.17)
    _, truth, policy = load_spec(tmp_path, {"population": 2, "horizon": 3,
                                            "policy": {"type": "myopic", "shadow_price": 2}})
    assert isinstance(policy, MyopicPolicy)
    assert policy.model is truth and policy.shadow_price == 2.0
    _, _, policy = load_spec(tmp_path, {"population": 2, "horizon": 3, "policy": {"type": "myopic"}})
    assert policy.shadow_price == 1.0


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


def test_row_order_is_the_stable_sort_by_customer_then_day():
    for seed in range(60):
        dataset = messy_panel(np.random.default_rng(seed))
        ids, days = dataset.customer_ids, dataset.days
        ordered = rows_of(dataset, np.lexsort((days, ids)))
        assert np.array_equal(ordered.row_order(), np.arange(dataset.num_rows))
        for rows in (dataset, ordered, rows_of(dataset, np.lexsort((-days, ids)))):
            assert np.array_equal(rows.row_order(), np.lexsort((rows.days, rows.customer_ids)))


def test_shuffled_and_ordered_panels_read_the_same():
    dataset = simulate_population(PopulationSpec(size=30, horizon=6, memory=3),
                                  default_ground_truth(3), seed=4)
    shuffled = rows_of(dataset, np.random.default_rng(0).permutation(dataset.num_rows))
    for ordered, mixed in zip((*customers_from_dataset(dataset), *dataset.panel()),
                              (*customers_from_dataset(shuffled), *shuffled.panel())):
        assert np.array_equal(ordered, mixed)


def test_demo_cycle_objective_from_files(tmp_path, demo_table):
    # a saved table drives the same arithmetic after reloading
    from refcycle.core import cycle_objective

    path = tmp_path / "t.json"
    write_gain_table(demo_table, path)
    table, _ = load_gain_table(path)
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
    if not ids:
        raise ValueError("the dataset has no rows")
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


def cast_panel(dataset):
    """``dataset`` with uint64 ids, int32 days, float32 features, float64
    coupons from the days and bool purchases."""
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 and signalling NaNs
        features = dataset.features.astype(np.float32)
    return CouponDataset(
        feature_names=dataset.feature_names, reference_feature=dataset.reference_feature,
        discounts=dataset.discounts, memory=dataset.memory,
        customer_ids=dataset.customer_ids.astype(np.uint64), days=dataset.days.astype(np.int32),
        features=features, coupons=dataset.days.astype(float) + 0.5,
        purchases=dataset.purchases.astype(bool))


BLOCK_EDGE_ROWS = sorted({0, 1, fileio._BLOCK_ROWS - 1, fileio._BLOCK_ROWS,
                          fileio._BLOCK_ROWS + 1, 2 * fileio._BLOCK_ROWS})


@pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
def test_save_dataset_bytes_match_csv_writer(tmp_path, rows):
    dataset = edge_panel(rows, seed=rows)
    save_dataset(dataset, tmp_path / "got.csv")
    reference_save_dataset(dataset, tmp_path / "expected.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    # other dtypes take the same int() and float() casts
    cast = cast_panel(dataset)
    save_dataset(cast, tmp_path / "got.csv")
    reference_save_dataset(cast, tmp_path / "expected.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def id_2_63_panel(dataset):
    """``dataset`` with uint64 ids, its last one 2**63, which the CSV reader refuses."""
    ids = dataset.customer_ids.astype(np.uint64)
    ids[-1:] = 2**63
    return CouponDataset(dataset.feature_names, dataset.reference_feature, dataset.discounts,
                         dataset.memory, ids, dataset.days, dataset.features, dataset.coupons,
                         dataset.purchases)


def odd_nans(dataset):
    """``dataset`` with NaNs of other signs and payloads among its features and
    coupons; the CSV holds each as ``nan``."""
    nans = np.array([0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001],
                    np.uint64).view(np.float64)
    features, coupons = dataset.features.copy(), dataset.coupons.copy()
    features.flat[::5] = np.resize(nans, features.flat[::5].size)
    coupons[1::3] = np.resize(nans, coupons[1::3].size)
    return dataclasses.replace(dataset, features=features, coupons=coupons)


def nan_free(dataset):
    """``dataset`` with each NaN replaced by 0.5; its -0.0, infinities,
    subnormals, 1e300 and ids above 2**53 stay."""
    return dataclasses.replace(dataset, features=np.where(np.isnan(dataset.features), 0.5,
                                                          dataset.features),
                               coupons=np.where(np.isnan(dataset.coupons), 0.5, dataset.coupons))


# only the NaN-free panels, whose columns the CSV gives back, get a cache; each
# other variant is the NaN-free one with one thing the CSV changes or refuses
PANEL_VARIANTS = {
    "nan-free": lambda dataset: dataset,
    # cached in C order, the layout the CSV readers give, so a matmul rounds alike
    "fortran": lambda dataset: dataclasses.replace(
        dataset, features=np.asfortranarray(dataset.features)),
    "edge": odd_nans,
    "cast": cast_panel,
    "id-2**63": id_2_63_panel,
    # the CSV is read in the locale's encoding, which may not be the writer's
    "non-ascii-header": lambda dataset: dataclasses.replace(
        dataset, feature_names=("a", "b,c", "max_coupon_3d\u00e9")),
}


def parse_nothing(*_):
    raise AssertionError("the CSV was parsed although its cache holds the panel")


@pytest.mark.parametrize("variant", list(PANEL_VARIANTS))
@pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
def test_load_dataset_same_with_and_without_its_cache(tmp_path, monkeypatch, rows, variant):
    dataset = PANEL_VARIANTS[variant](nan_free(edge_panel(rows, seed=rows)))
    path = tmp_path / "panel.csv"
    save_dataset(dataset, path)
    cache = fileio.cache_path(path)
    # no cache where the reader refuses the panel (no rows, an id beyond int64)
    # or would return other columns (other dtypes, NaNs) or could (non-ASCII)
    assert cache.exists() == (rows > 0 and variant in ("nan-free", "fortran"))
    with monkeypatch.context() as patched:
        if cache.exists():  # the columns come from the cache alone
            patched.setattr(fileio, "_loadtxt_rows", parse_nothing)
            patched.setattr(fileio, "_read_panel_rows", parse_nothing)
        cached = load_outcome(loaded_panel, path)
        assert not cache.exists() or cached[2].flags.c_contiguous
    cache.unlink(missing_ok=True)
    parsed = load_outcome(loaded_panel, path)
    if isinstance(parsed[0], type):
        assert cached == parsed
    else:
        assert same_arrays(cached, parsed)
        # the cache holds the dataset's own columns
        assert variant not in ("nan-free", "fortran") or same_arrays(parsed, columns(dataset))


SAVED_ROWS = 25 * 6


def saved_panel(path):
    """A simulated panel of ``SAVED_ROWS`` rows saved at ``path`` with its
    cache; returns its columns."""
    spec = PopulationSpec(size=25, horizon=6, memory=3, discounts=(0.12, 0.15, 0.17, 0.20))
    dataset = simulate_population(spec, default_ground_truth(3), seed=21)
    save_dataset(dataset, path)
    return columns(dataset)


# the arrays of a panel's cache, in the order of its stream
CACHE_ENTRIES = ("sha256", "header", "customer_ids", "days", "features", "coupons", "purchases")


def rewrite_cache(path, **changes):
    """The cache of the panel at ``path`` written again with some entries changed."""
    cache = fileio.cache_path(path)
    with cache.open("rb") as handle:
        entries = {name: np.load(handle) for name in CACHE_ENTRIES}
        assert handle.read() == b""
    with cache.open("wb") as handle:
        for name in CACHE_ENTRIES:
            np.save(handle, changes.get(name, entries[name]))


def edit_last_row(path, _):
    # the CSV changed after its cache was written; the answer changes with it
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[-2].split(b",")
    lines[-2] = b",".join([*cells[:2], b"99.0", *cells[3:]])
    path.write_bytes(b"\r\n".join(lines))


def write_npy(path, array):
    with path.open("wb") as handle:  # np.save would add ".npy" to a path
        np.save(handle, array)


def write_npz(path, **arrays):
    with path.open("wb") as handle:  # np.load reads a zip archive as an NpzFile
        np.savez(handle, **arrays)


FOREIGN_CACHES = {
    "stale": edit_last_row,
    "garbage": lambda path, cache: cache.write_bytes(b"\x93NUMPY not an npy stream"),
    "truncated": lambda path, cache: cache.write_bytes(cache.read_bytes()[:1000]),
    "empty": lambda path, cache: cache.write_bytes(b""),
    "npy": lambda path, cache: write_npy(cache, np.arange(3)),
    "npz": lambda path, cache: write_npz(cache, sha256=np.array(fileio.file_sha256(path))),
    "pickled": lambda path, cache: rewrite_cache(
        path, customer_ids=np.array([{"id": 0}] * SAVED_ROWS, dtype=object)),
    "other-features": lambda path, cache: rewrite_cache(
        path, header=np.array(["customer_id", "day", *"abcdefghij", "coupon_value", "purchased"])),
    "other-dtype": lambda path, cache: rewrite_cache(
        path, purchases=np.ones(SAVED_ROWS, dtype=np.int32)),
    "other-shape": lambda path, cache: rewrite_cache(path, coupons=np.zeros(SAVED_ROWS - 1)),
}


@pytest.mark.parametrize("name", list(FOREIGN_CACHES))
def test_load_dataset_falls_back_to_the_csv(tmp_path, monkeypatch, name):
    path = tmp_path / "panel.csv"
    saved = saved_panel(path)
    cache = fileio.cache_path(path)
    # the foreign caches hold features the CSV does not, so taking one shows
    rewrite_cache(path, features=np.zeros((SAVED_ROWS, len(FEATURES))))
    FOREIGN_CACHES[name](path, cache)
    unpickled = []
    monkeypatch.setattr(pickle, "load", lambda *args, **kwargs: unpickled.append(args))
    monkeypatch.setattr(pickle, "loads", lambda *args, **kwargs: unpickled.append(args))
    got = loaded_panel(path)
    assert unpickled == []
    cache.unlink()
    assert same_arrays(got, loaded_panel(path))
    assert same_arrays(got, saved) == (name != "stale")


def reference_write_csv_rows(handle, columns, newline):
    """The per-cell rule of ``write_csv_rows``: the cell of an element ``x``,
    read as a Python scalar, is ``str(int(x))`` in an integer or bool column
    and ``str(float(x))`` in any other."""
    texts = [[str((int if column.dtype.kind in "biu" else float)(x)) for x in column.tolist()]
             for column in columns]
    for row in zip(*texts):
        handle.write(",".join(row) + newline)


def written(write, columns, newline):
    handle = io.StringIO()
    write(handle, columns, newline)
    return handle.getvalue()


def cell_pool(dtype):
    """Values of ``dtype`` whose texts a value-keyed dedupe would confuse:
    for floats -0.0 and 0.0, three NaNs (two payloads, one negative), both
    infinities and subnormals; for integers both ends of the range."""
    if dtype.kind != "f":
        if dtype.kind == "b":
            return np.array([False, True])
        info = np.iinfo(dtype)
        return np.array([info.min, info.min + 1, 0, 1, 7, info.max - 1, info.max], dtype)
    info, bits = np.finfo(dtype), np.dtype(f"u{dtype.itemsize}")
    quiet = np.array([np.nan], dtype).view(bits)[0]
    sign = bits.type(1) << bits.type(8 * dtype.itemsize - 1)
    nans = np.array([quiet, quiet | bits.type(1), quiet | sign], bits).view(dtype)
    finite = np.array([-0.0, 0.0, np.inf, -np.inf, 0.1, 1.0 / 3.0, -2.5], dtype)
    subnormal = np.array([info.smallest_subnormal, -info.smallest_subnormal,
                          info.smallest_normal / 4, info.max, info.min], dtype)
    return np.concatenate([finite, subnormal, nans])


@pytest.mark.parametrize("rows", [0, 1, fileio._BLOCK_ROWS - 1, fileio._BLOCK_ROWS + 1])
@pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "uint64", "int32", "bool"])
def test_write_csv_rows_matches_the_per_cell_rule(dtype, rows):
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(rows)
    pool = cell_pool(dtype)
    matrix = rng.choice(pool, size=(rows, 3))
    if rows >= len(pool):  # every value of the pool in the first block of each column
        matrix[:len(pool)] = np.stack([rng.permutation(pool) for _ in range(3)], axis=1)
    # strided views, as save_dataset passes features.T[i], and one contiguous column
    columns = [*matrix.T, np.ascontiguousarray(matrix[:, 0])]
    got = written(fileio.write_csv_rows, columns, "\r\n")
    assert got == written(reference_write_csv_rows, columns, "\r\n")
    assert got.count("\r\n") == rows


def test_write_csv_rows_matches_the_per_cell_rule_on_assignments():
    # allocate's assignments CSV: ascending int64 ids, discounts, purchase probabilities
    rows = 2 * fileio._BLOCK_ROWS + 1
    rng = np.random.default_rng(7)
    ids = np.sort(rng.choice(2**62, size=rows, replace=False)).astype(np.int64)
    discounts = rng.choice(np.array([0.12, 0.15, 0.17, 0.2, 0.0, -0.0]), size=rows)
    probabilities = rng.uniform(0.0, 1.0, size=rows)
    probabilities[rng.choice(rows, size=50)] = rng.choice(cell_pool(np.dtype(float)), size=50)
    columns = [ids, discounts, probabilities]
    got = written(fileio.write_csv_rows, columns, "\n")
    assert got == written(reference_write_csv_rows, columns, "\n")
    assert "-0.0" in got and ",0.0," in got


@pytest.mark.parametrize("column", [np.array([-0.0, 0.0], dtype=object),
                                    np.array([-0.0, 0.0], dtype=np.complex128)],
                         ids=["object", "complex128"])
def test_write_csv_rows_refuses_columns_without_a_bit_key(column):
    # keyed by value, -0.0 would be written as 0.0; no caller passes such a column
    with pytest.raises(TypeError):
        fileio.write_csv_rows(io.StringIO(), [column], "\n")
