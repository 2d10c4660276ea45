"""Stable file formats: gain tables, cycles, allocation models, simulation
specs, datasets.

Gain tables travel as JSON objects ``{"prices": [...], "memory": m,
"gains": [[row per reference, lowest first], ...]}`` or as CSV with a header
row of prices (memory supplied out of band).  Cycles are whitespace-separated
price values.  Datasets are CSV panels with a JSON sidecar naming the
reference feature column and the discount set.

Every JSON object read here goes through one rule, :func:`_checked`: the types
of its fields are checked before anything is built, so a malformed file raises
``ValueError`` (a missing field ``KeyError``) and the CLI exits with code 2.

The panel dialect: comma-separated, ``\r\n`` line ends, no quoting in the rows
(the header is quoted as ``csv.writer`` quotes it), integers as ``str``, floats
as their shortest ``repr``, each distinct cell of a block formatted once (floats
keyed by their bits: ``-0.0 == 0.0``, yet the texts differ).  On reading, blank
lines are skipped and every other row must have the header's width.

A panel row is one structured dtype, :func:`_panel_row`, a field per
:class:`CouponDataset` column.  Where the CSV reader would return the
dataset's own columns unchanged, :func:`save_dataset` also writes them as the
cache ``<file>.npy``, a stream of ``.npy`` arrays: the CSV's sha256, the header
and the columns in field order.  :func:`load_dataset` takes the columns from it
only when the sha256 and the sidecar's header match, and never unpickles; else
it parses the CSV.  Deleting the cache changes no answer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .allocator import (
    AllocationModel,
    ConstantPolicy,
    CouponDataset,
    DiscountSet,
    MyopicPolicy,
    PopulationSpec,
    default_ground_truth,
)
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
    "cache_path",
    "file_sha256",
    "customers_from_dataset",
    "write_csv_rows",
]


def format_price(price: Fraction) -> str:
    """Exact decimal string, in integers, when 12 places allow it, else "num/den"."""
    if price.denominator == 1:
        return str(price.numerator)
    for digits in range(1, 13):
        scaled = price * 10**digits
        if scaled.denominator == 1:
            whole, fraction = divmod(abs(scaled.numerator), 10**digits)
            return f"{'-' if price < 0 else ''}{whole}.{fraction:0{digits}d}"
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
    """Each distinct price is formatted once."""
    tokens = cycle.tokens if isinstance(cycle, PriceCycle) else cycle.values
    text = {t: format_price(grid.prices[t]) for t in set(tokens)}
    return " ".join(text[t] for t in tokens)


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


def _is_gain_row(row) -> bool:
    """A list of numbers, bools refused, within the float range compared exactly
    (a JSON integer too large for a float is refused, not rounded) and finite;
    each check is one pass over the row."""
    return (isinstance(row, list)
            and (set(map(type, row)) <= {int, float} or all(map(_is_number, row)))
            and -sys.float_info.max <= min(row, default=0)
            and max(row, default=0) <= sys.float_info.max
            and all(map(math.isfinite, row)))


_GAIN_TABLE_FIELDS = dict(
    prices=lambda v: isinstance(v, list) and all(_is_number(p) or isinstance(p, str) for p in v),
    memory=_is_integer,
    gains=lambda v: isinstance(v, list) and all(map(_is_gain_row, v)),
)


def gain_table_from_dict(payload: dict) -> GainTable:
    """Validate and build; a missing field raises ``KeyError``."""
    payload = _checked(payload, "a gain table", **_GAIN_TABLE_FIELDS)
    grid = PriceGrid.from_values(payload["prices"], payload["memory"])
    return GainTable.from_rows(grid, payload["gains"])


def load_gain_table(path: str | Path, memory: int | None = None) -> tuple[GainTable, str]:
    """The gain table in the file and the sha256 of the bytes parsed."""
    path = Path(path)
    is_csv = path.suffix.lower() == ".csv"
    if is_csv and memory is None:
        raise ValueError("CSV gain tables need an explicit memory length")
    data = path.read_bytes()
    text = io.TextIOWrapper(io.BytesIO(data), newline="" if is_csv else None)  # as open() reads
    if is_csv:
        try:
            rows = [row for row in csv.reader(text) if row]
        except csv.Error as exc:  # a field over the csv module's size limit
            raise ValueError(f"CSV gain table {path}: {exc}") from None
        if not rows:
            raise ValueError(f"CSV gain table {path} is empty")
        grid = PriceGrid.from_values([as_price(cell) for cell in rows[0]], memory)
        table = GainTable.from_rows(grid, rows[1:])
    else:
        table = gain_table_from_dict(_read_json(path, text))
    if memory is not None and memory != table.grid.memory:
        raise ValueError(f"--memory {memory} conflicts with the file's memory {table.grid.memory}")
    return table, hashlib.sha256(data).hexdigest()


def _read_json(path: str | Path, text: io.TextIOBase | None = None):
    """The JSON value in the file (or ``text``); ``ValueError`` if malformed or nested too deeply."""
    try:
        return json.loads(Path(path).read_text() if text is None else text.read())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def model_from_dict(payload: dict) -> AllocationModel:
    """The model a checked model object gives: its own ``feature_names``, float
    weights, and pivot 0.15 when the object has none."""
    return AllocationModel(
        feature_names=tuple(payload["feature_names"]),
        alpha_weights=np.asarray(payload["alpha_weights"], dtype=float),
        beta_weights=np.asarray(payload["beta_weights"], dtype=float),
        pivot=float(payload.get("pivot", 0.15)),
    )


def load_model(path: str | Path) -> tuple[AllocationModel, DiscountSet]:
    payload = _checked(_read_json(path), "an allocation model", **_MODEL_FIELDS)
    model = model_from_dict(payload)
    discounts = DiscountSet(tuple(payload["discounts"])) if "discounts" in payload else DiscountSet()
    return model, discounts


def load_simulation_spec(
    path: str | Path,
) -> tuple[PopulationSpec, AllocationModel, str | ConstantPolicy | MyopicPolicy]:
    """The population, ground-truth model and coupon policy that a
    ``simulate --spec`` file names.

    The types of all fields are checked before anything is built.  A field
    left out takes :class:`PopulationSpec`'s default (``memory``,
    ``discounts``), the planted model at the spec's memory (``ground_truth``)
    or ``"uniform"`` (``policy``, also when ``null``).  A ground truth without
    ``feature_names`` takes the spec's; :func:`simulate_population` refuses
    others.  A policy object of type ``constant`` or ``myopic`` gives that
    policy, the myopic one under the ground truth; any other policy raises
    ``ValueError``.
    """
    raw = _checked(_read_json(path), "a simulation spec", population=_is_integer,
                   horizon=_is_integer, memory=_is_integer, discounts=_is_number_list)
    if "ground_truth" in raw:
        _checked(raw["ground_truth"], "ground_truth", **_MODEL_FIELDS)
    if isinstance(raw.get("policy"), dict):
        _checked(raw["policy"], "policy", value=_is_number, shadow_price=_is_number)
    overrides = {"memory": raw["memory"]} if "memory" in raw else {}
    if "discounts" in raw:
        overrides["discounts"] = tuple(raw["discounts"])
    spec = PopulationSpec(size=raw["population"], horizon=raw["horizon"], **overrides)
    if "ground_truth" in raw:
        truth = model_from_dict({"feature_names": spec.feature_names, **raw["ground_truth"]})
    else:
        truth = default_ground_truth(spec.memory)
    match raw.get("policy"):
        case None | "uniform":
            policy = "uniform"
        case {"type": "constant"} as payload:
            policy = ConstantPolicy(float(payload["value"]))
        case {"type": "myopic"} as payload:
            policy = MyopicPolicy(truth, float(payload.get("shadow_price", 1.0)))
        case payload:
            raise ValueError(f"unsupported policy spec {payload!r}")
    return spec, truth, policy


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


# rows per written block: enough to amortize the per-block work, few enough
# that a block's cell strings stay small next to the panel's arrays
_BLOCK_ROWS = 4096


def write_csv_rows(handle, columns, newline: str) -> None:
    """Write the rows of ``columns``, 1-D arrays, as CSV lines ended by ``newline``.

    The cell of an element ``x`` is ``str(int(x))`` in an integer or bool column,
    else ``str(float(x))``: the text ``csv.writer`` gives that value; a number needs
    no quoting.  Rows go out a block at a time, so the cell strings of the whole file
    never exist at once.  Each distinct value of a block's column is formatted once,
    keyed by value for integers and bools, else by bit pattern (``-0.0 == 0.0``, yet
    their texts differ), so object arrays and dtypes over 64 bits raise ``TypeError``.
    Each text ends with its separator, so a block is written as one join.
    """
    rows = len(columns[0])
    separators = [","] * (len(columns) - 1) + [newline]
    for start in range(0, rows, _BLOCK_ROWS):
        cells = []
        for column, separator in zip(columns, separators):
            part = column[start:start + _BLOCK_ROWS]
            kind = int if part.dtype.kind in "biu" else float
            key = part if kind is int else part.view(f"u{part.itemsize}")
            distinct, inverse = np.unique(key, return_inverse=True)
            texts = [str(kind(x)) + separator for x in distinct.view(part.dtype).tolist()]
            cells.append(np.array(texts, dtype=object)[inverse])
        handle.write("".join(np.stack(cells, axis=1).ravel().tolist()))


def cache_path(path: str | Path) -> Path:
    """Where :func:`save_dataset` writes the cache of the panel at ``path``."""
    return Path(f"{path}.npy")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _panel_row(feature_names) -> np.dtype:
    """One panel row: a field per :class:`CouponDataset` column, in the CSV's order."""
    return np.dtype([("customer_ids", np.int64), ("days", np.int64),
                     ("features", np.float64, (len(feature_names),)),
                     ("coupons", np.float64), ("purchases", np.int64)])


def save_dataset(dataset: CouponDataset, path: str | Path) -> Path:
    """Write the CSV panel, its JSON sidecar and, where the CSV reads back as
    the dataset's own columns, those columns as its cache; returns the sidecar path.

    It does when the panel has a row, an ASCII header (the CSV is read in the
    locale's encoding, which may not be the writer's) and every column in its
    field's dtype with no NaN: ``str(int(x))`` and the shortest ``repr`` read
    back bit for bit, but every NaN as ``float("nan")``.  The columns are
    cached in C order, the row layout the CSV readers give, which a matmul's
    rounding can depend on.  Any other panel gets no cache.
    """
    path = Path(path)
    cache = cache_path(path)
    cache.unlink(missing_ok=True)  # a panel written here has this cache or none
    header = _dataset_header(dataset.feature_names)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow(header)
        write_csv_rows(handle, [dataset.customer_ids, dataset.days, *dataset.features.T,
                                dataset.coupons, dataset.purchases], "\r\n")
    sidecar = _sidecar_path(path)
    sidecar.write_text(json.dumps({
        "feature_columns": list(dataset.feature_names),
        "reference_feature": dataset.reference_feature,
        "discounts": list(dataset.discounts),
        "memory": dataset.memory,
    }, indent=2) + "\n")
    row = _panel_row(dataset.feature_names)
    columns = [getattr(dataset, name) for name in row.names]
    if (dataset.num_rows and "".join(header).isascii()
            and all(column.dtype == row[name].base for name, column in zip(row.names, columns))
            and not (np.isnan(dataset.features).any() or np.isnan(dataset.coupons).any())):
        with cache.open("wb") as handle:  # np.save writes a file's arrays with tofile
            for array in (np.array(file_sha256(path)), np.array(header),
                          *map(np.ascontiguousarray, columns)):
                np.save(handle, array)
    return sidecar


def load_dataset(path: str | Path) -> CouponDataset:
    """Read a panel and its sidecar.  A malformed file raises ``ValueError``,
    a sidecar without a field ``KeyError``; both exit 2 from the CLI.

    The CSV's bytes are read once for their sha256, which the dataset carries
    as ``source_sha256``.  The columns come from the cache where
    :func:`_cached_columns` accepts it, else from the row loop
    :func:`_read_panel_rows`, which also gives every error."""
    path = Path(path)
    meta = _checked(_read_json(_sidecar_path(path)), "a dataset sidecar",
                    feature_columns=_is_string_list, reference_feature=lambda v: isinstance(v, str),
                    discounts=_is_number_list, memory=_is_integer)
    feature_names = tuple(meta["feature_columns"])
    header, row = _dataset_header(feature_names), _panel_row(feature_names)
    digest = file_sha256(path)
    columns = _cached_columns(path, digest, header, row)
    if columns is None:
        with path.open(newline="") as handle:
            try:
                columns = _read_panel_rows(handle, header, row)
            except csv.Error as exc:  # a field over the csv module's size limit
                raise ValueError(f"dataset {path}: {exc}") from None
    return CouponDataset(
        feature_names=feature_names,
        reference_feature=meta["reference_feature"],
        discounts=tuple(float(v) for v in meta["discounts"]),
        memory=int(meta["memory"]),
        **{name: columns[name] for name in row.names},
        source_sha256=digest,
    )


def _cached_columns(path: Path, digest: str, header: list[str], row: np.dtype) -> dict | None:
    """The panel's columns by field name from its cache, or ``None`` unless
    the cache was written for these CSV bytes and header and holds, in field
    order, a column of each field's dtype and shape over the same rows, one
    or more, as the CSV reader returns.

    Each array is loaded without pickles.  Whatever reading a missing,
    truncated or foreign file raises leaves the answer to the CSV.
    """
    try:
        with cache_path(path).open("rb") as handle:
            if (np.load(handle, allow_pickle=False).tolist() != digest
                    or np.load(handle, allow_pickle=False).tolist() != header):
                return None
            columns = {name: np.load(handle, allow_pickle=False) for name in row.names}
        rows = len(columns[row.names[0]])
    except Exception:  # noqa: BLE001 -- a cache that cannot be read is a cache miss
        return None
    if rows and all(column.dtype == row[name].base and column.shape == (rows, *row[name].shape)
                    for name, column in columns.items()):
        return columns
    return None


def _dataset_header(feature_names) -> list[str]:
    return ["customer_id", "day", *feature_names, "coupon_value", "purchased"]


def _read_panel_rows(handle, header: list[str], row: np.dtype) -> np.ndarray:
    """The row-by-row reader behind :func:`load_dataset`: blank rows are
    skipped, any other row must have the header's width, parse with ``int``
    and ``float`` and keep its integers within int64, or ``ValueError``
    names it; a panel without rows raises ``ValueError`` too."""
    reader = csv.reader(handle)
    if (found := next(reader, None)) != header:
        raise ValueError(f"unexpected dataset header {found!r}")
    rows = []
    for cells in reader:
        if len(cells) != len(header):
            if not cells:
                continue
            raise ValueError(f"dataset line {reader.line_num} has {len(cells)} fields, "
                             f"the header {len(header)}")
        values = (int(cells[0]), int(cells[1]), [float(cell) for cell in cells[2:-2]],
                  float(cells[-2]), int(cells[-1]))
        if not all(-2**63 <= v < 2**63 for v in (values[0], values[1], values[4])):
            raise ValueError(f"dataset line {reader.line_num} has an integer outside int64")
        rows.append(values)
    if not rows:
        raise ValueError("the dataset has no rows")
    return np.array(rows, dtype=row)


def customers_from_dataset(dataset: CouponDataset) -> tuple[np.ndarray, np.ndarray]:
    """Customer ids, ascending, and each customer's latest-day feature row.

    The allocator reads nothing else: a customer's coupon history is already
    folded into the reference feature.  Of two rows with the same customer and
    day, the later one in the panel wins.
    """
    order = dataset.row_order()
    ids = dataset.customer_ids[order]
    # the sort is stable: each id group ends with its latest day's last row in the panel
    last = np.ones(len(ids), dtype=bool)
    last[:-1] = ids[1:] != ids[:-1]
    return ids[last], dataset.features[order[last]]
