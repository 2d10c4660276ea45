"""Stable file formats: gain tables, cycles, allocation models, datasets.

Gain tables travel as JSON objects ``{"prices": [...], "memory": m,
"gains": [[row per reference, lowest first], ...]}`` or as CSV with a header
row of prices (memory supplied out of band).  Cycles are whitespace-separated
price values.  Datasets are CSV panels with a JSON sidecar naming the
reference feature column and the discount set.

The panel dialect: comma-separated, ``\r\n`` line ends, no quoting in the
rows (the header is quoted as ``csv.writer`` quotes it), integers as
``str``, floats as their shortest ``repr``.  On reading, blank lines are
skipped and every other row must have the header's width.
"""

from __future__ import annotations

import csv
import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from .allocator import AllocationModel, CouponDataset, DiscountSet
from .core import GainTable, GeneratorCycle, PriceCycle, PriceGrid, as_price

__all__ = [
    "format_price",
    "parse_price_list",
    "parse_cycle_text",
    "format_cycle",
    "gain_table_to_dict",
    "gain_table_from_dict",
    "load_gain_table",
    "load_model",
    "model_from_dict",
    "load_simulation_spec",
    "save_dataset",
    "load_dataset",
    "customers_from_dataset",
    "write_csv_rows",
]


def format_price(price: Fraction) -> str:
    """Exact decimal string when the denominator allows it, else "num/den"."""
    if price.denominator == 1:
        return str(price.numerator)
    for digits in range(1, 13):
        scaled = price * 10**digits
        if scaled.denominator == 1:
            text = f"{price.numerator / price.denominator:.{digits}f}"
            if Fraction(text) == price:
                return text
    return f"{price.numerator}/{price.denominator}"


def _price_tokens(text: str) -> list[str]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty price list")
    return tokens


def parse_price_list(text: str) -> list[Fraction]:
    return [as_price(token) for token in _price_tokens(text)]


def parse_cycle_text(text: str, grid: PriceGrid) -> PriceCycle:
    """Each distinct token text is parsed, then looked up in the grid, once."""
    tokens = _price_tokens(text)
    prices = {token: as_price(token) for token in dict.fromkeys(tokens)}
    index = {token: grid.index_of(price) for token, price in prices.items()}
    return PriceCycle(tuple(index[token] for token in tokens))


def format_cycle(cycle: PriceCycle | GeneratorCycle, grid: PriceGrid) -> str:
    tokens = cycle.tokens if isinstance(cycle, PriceCycle) else cycle.values
    return " ".join(format_price(grid.prices[t]) for t in tokens)


def gain_table_to_dict(table: GainTable) -> dict:
    return {
        "prices": [format_price(p) for p in table.grid.prices],
        "memory": table.grid.memory,
        "gains": [list(row) for row in table.gains],
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(x) for x in value)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _checked(payload, what: str, **checks) -> dict:
    """``payload`` if it is a JSON object whose present fields pass their checks.

    Every mismatch raises ``ValueError``, so malformed files exit with code 2.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key, check in checks.items():
        if key in payload and not check(payload[key]):
            raise ValueError(f"{what}: malformed {key!r}: {payload[key]!r}")
    return payload


_MODEL_FIELDS = dict(
    feature_names=_is_string_list,
    alpha_weights=_is_number_list,
    beta_weights=_is_number_list,
    pivot=_is_number,
    discounts=_is_number_list,
)


def gain_table_from_dict(payload: dict) -> GainTable:
    """Validate and build; every malformed payload raises ``ValueError``."""
    if not isinstance(payload, dict):
        raise ValueError("a gain table must be a JSON object")
    prices, memory, gains = payload["prices"], payload["memory"], payload["gains"]
    if not isinstance(prices, list) or not all(
            _is_number(p) or isinstance(p, str) for p in prices):
        raise ValueError("prices must be a list of numbers or price strings")
    if not isinstance(memory, int) or isinstance(memory, bool):
        raise ValueError(f"memory must be an integer, got {memory!r}")
    if not isinstance(gains, list) or not all(
            isinstance(row, list)
            and all(_is_number(g) and abs(g) <= sys.float_info.max for g in row)
            for row in gains):
        raise ValueError("gains must be a list of rows of finite numbers")
    grid = PriceGrid.from_values(prices, memory)
    return GainTable.from_rows(grid, gains)


def load_gain_table(path: str | Path, memory: int | None = None) -> GainTable:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if memory is None:
            raise ValueError("CSV gain tables need an explicit memory length")
        with path.open(newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
        if not rows:
            raise ValueError(f"CSV gain table {path} is empty")
        grid = PriceGrid.from_values([as_price(cell) for cell in rows[0]], memory)
        return GainTable.from_rows(grid, [[float(cell) for cell in row] for row in rows[1:]])
    payload = json.loads(path.read_text())
    table = gain_table_from_dict(payload)
    if memory is not None and memory != table.grid.memory:
        raise ValueError(
            f"--memory {memory} conflicts with the file's memory {table.grid.memory}"
        )
    return table


def model_from_dict(
    payload: dict, feature_names: list[str] | tuple[str, ...]
) -> AllocationModel:
    """The model a checked model object gives over ``feature_names``: float
    weights, and pivot 0.15 when the object has none."""
    return AllocationModel(
        feature_names=tuple(feature_names),
        alpha_weights=np.asarray(payload["alpha_weights"], dtype=float),
        beta_weights=np.asarray(payload["beta_weights"], dtype=float),
        pivot=float(payload.get("pivot", 0.15)),
    )


def load_model(path: str | Path) -> tuple[AllocationModel, DiscountSet]:
    payload = _checked(json.loads(Path(path).read_text()), "an allocation model",
                       **_MODEL_FIELDS)
    model = model_from_dict(payload, payload["feature_names"])
    discounts = DiscountSet(tuple(payload["discounts"])) if "discounts" in payload else DiscountSet()
    return model, discounts


def load_simulation_spec(path: str | Path) -> dict:
    """The ``simulate --spec`` object, with the types of its fields checked."""
    spec = _checked(json.loads(Path(path).read_text()), "a simulation spec",
                    population=_is_integer, horizon=_is_integer, memory=_is_integer,
                    discounts=_is_number_list)
    if "ground_truth" in spec:
        _checked(spec["ground_truth"], "ground_truth", **_MODEL_FIELDS)
    if isinstance(spec.get("policy"), dict):
        _checked(spec["policy"], "policy", value=_is_number, shadow_price=_is_number)
    return spec


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


# rows per written block: enough to amortize the per-block work, few enough
# that a block's cell strings stay small next to the panel's arrays
_BLOCK_ROWS = 4096


def write_csv_rows(handle, columns, newline: str) -> None:
    """Write the rows of ``columns``, pairs of a 1-D array and a type
    ``kind`` (``int``, ``float`` or ``str``), as CSV lines ended by ``newline``.

    The cell of an element ``x`` is ``str(kind(x))``, the text ``csv.writer``
    gives that value; a number needs no quoting.  Rows go out a block at a
    time, so the cell strings of the whole file never exist at once.
    """
    rows = len(columns[0][0])
    for start in range(0, rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        cells = [map(str, map(kind, column[block].tolist())) for column, kind in columns]
        handle.write(newline.join(map(",".join, zip(*cells))) + newline)


def save_dataset(dataset: CouponDataset, path: str | Path) -> Path:
    """Write the CSV panel plus its JSON sidecar; returns the sidecar path."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow(_dataset_header(dataset.feature_names))
        write_csv_rows(handle, [
            (dataset.customer_ids, int),
            (dataset.days, int),
            *((column, float) for column in dataset.features.T),
            (dataset.coupons, float),
            (dataset.purchases, int),
        ], "\r\n")
    sidecar = _sidecar_path(path)
    sidecar.write_text(json.dumps({
        "feature_columns": list(dataset.feature_names),
        "reference_feature": dataset.reference_feature,
        "discounts": list(dataset.discounts),
        "memory": dataset.memory,
    }, indent=2) + "\n")
    return sidecar


def load_dataset(path: str | Path) -> CouponDataset:
    """Read a panel and its sidecar.  A malformed file raises ``ValueError``,
    a sidecar without a field ``KeyError``; both exit 2 from the CLI.

    The rows are parsed by one ``np.loadtxt`` pass where numpy reads the file
    as the row loop :func:`_read_panel_rows` would, else by that loop, which
    then also gives every error."""
    path = Path(path)
    meta = _checked(json.loads(_sidecar_path(path).read_text()), "a dataset sidecar",
                    feature_columns=_is_string_list, reference_feature=lambda v: isinstance(v, str),
                    discounts=_is_number_list, memory=_is_integer)
    feature_names = tuple(meta["feature_columns"])
    with path.open(newline="") as handle:
        columns = _loadtxt_columns(handle, feature_names)
    if columns is None:
        columns = _read_panel_rows(path, feature_names)
    ids, days, features, coupons, purchases = columns
    return CouponDataset(
        feature_names=feature_names,
        reference_feature=meta["reference_feature"],
        discounts=tuple(float(v) for v in meta["discounts"]),
        memory=int(meta["memory"]),
        customer_ids=ids,
        days=days,
        features=features,
        coupons=coupons,
        purchases=purchases,
    )


def _dataset_header(feature_names) -> list[str]:
    return ["customer_id", "day", *feature_names, "coupon_value", "purchased"]


def _loadtxt_columns(handle, feature_names: tuple[str, ...]) -> tuple[np.ndarray, ...] | None:
    """The panel's columns parsed by ``np.loadtxt`` after the header, or
    ``None`` where numpy's reading could differ from ``int`` and ``float``.

    Integer columns are parsed as int64, so ``1.0`` or an id of 2**63 is
    refused, not rounded; ``comments=None``, so a ``#`` row is refused, not
    skipped.  A warning (a panel with no rows) refuses too.  numpy strips
    the separators U+001C..U+001F around a number as whitespace, which
    ``int`` and ``float`` reject, and reads non-ASCII text its own way (the
    id U+E86A as 59450; some such panels crash the process), so a file
    holding either is left to the loop.
    """
    while chunk := handle.read(1 << 20):
        if not chunk.isascii() or any(sep in chunk for sep in "\x1c\x1d\x1e\x1f"):
            return None
    handle.seek(0)
    if next(csv.reader(handle), None) != _dataset_header(feature_names):
        return None
    row = np.dtype([("id", np.int64), ("day", np.int64),
                    ("features", np.float64, (len(feature_names),)),
                    ("coupon", np.float64), ("purchased", np.int64)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(handle, delimiter=",", comments=None, dtype=row, ndmin=1)
    except (ValueError, Warning):
        return None
    return tuple(np.ascontiguousarray(rows[name]) for name in row.names)


def _read_panel_rows(path: Path, feature_names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """The row-by-row reader behind :func:`load_dataset`: blank rows are
    skipped, any other row must have the header's width, parse with ``int``
    and ``float`` and keep its integers within int64, or ``ValueError``
    names it."""
    ids, days, coupons, purchases = [], [], [], []
    features = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        expected = _dataset_header(feature_names)
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


def customers_from_dataset(dataset: CouponDataset) -> tuple[np.ndarray, np.ndarray]:
    """Customer ids, ascending, and each customer's latest-day feature row.

    The allocator reads nothing else: a customer's coupon history is already
    folded into the reference feature.  Of two rows with the same customer and
    day, the later one in the panel wins.
    """
    order = np.lexsort((dataset.days, dataset.customer_ids))
    ids = dataset.customer_ids[order]
    # lexsort is stable: each id group ends with its latest day's last row in the panel
    last = np.ones(len(ids), dtype=bool)
    last[:-1] = ids[1:] != ids[:-1]
    return ids[last], dataset.features[order[last]]
