"""Command-line interface: outputs, determinism, exit codes, manifests."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from refcycle.cli import main
from refcycle.fileio import gain_table_from_dict, gain_table_to_dict, save_dataset
from refcycle.allocator import DiscountSet, PopulationSpec, default_ground_truth, simulate_population
from refcycle.instances import nonmonotone_demo_table


def write_gain_table(table, path):
    """A gain table in the JSON format ``--gains`` reads."""
    Path(path).write_text(json.dumps(gain_table_to_dict(table)))


def write_model(model, discounts, path):
    """An allocation model in the JSON format ``--model`` reads."""
    Path(path).write_text(json.dumps({
        "feature_names": list(model.feature_names),
        "alpha_weights": model.alpha_weights.tolist(),
        "beta_weights": model.beta_weights.tolist(),
        "pivot": model.pivot,
        "discounts": list(discounts.values),
    }))


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """A 20-customer, 5-day panel on the memory-3 feature schema."""
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    spec = PopulationSpec(size=20, horizon=5, memory=3)
    save_dataset(simulate_population(spec, TRUTH, seed=3), path)
    return path


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    write_gain_table(nonmonotone_demo_table(), path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_output(demo_file, capsys):
    code, out, err = run(capsys, "solve", "--gains", demo_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["opt"] == 1.0
    assert payload["reference_monotone"] is False
    assert payload["residual"] <= 1e-8
    assert payload["generator"] == "1 2 3"
    manifest = json.loads(err)
    assert manifest["command"] == "solve"
    assert str(demo_file) in manifest["inputs"]


def test_oracle_and_solve_agree(demo_file, capsys):
    code, oracle_out, _ = run(capsys, "oracle", "--gains", demo_file, "--horizon", 600)
    assert code == 0
    oracle_payload = json.loads(oracle_out)
    code, solve_out, _ = run(capsys, "solve", "--gains", demo_file)
    solve_payload = json.loads(solve_out)
    assert oracle_payload["value"] == solve_payload["opt"]
    assert oracle_payload["nodes"] == 10  # C(4 + 2 - 1, 2) suffix-minimum states
    assert abs(oracle_payload["simulation"]["running_average"] - 1.0) <= 0.01


def test_oracle_and_solve_agree_on_monotone_fixture(tmp_path, capsys):
    from refcycle.core import GeneratorCycle
    from refcycle.instances import integer_grid
    from refcycle.tightness import build

    inst = build(GeneratorCycle((0, 2, 1)), integer_grid(3, 2))
    path = tmp_path / "monotone.json"
    write_gain_table(inst.table, path)
    _, oracle_out, _ = run(capsys, "oracle", "--gains", path)
    _, solve_out, _ = run(capsys, "solve", "--gains", path)
    oracle_payload = json.loads(oracle_out)
    solve_payload = json.loads(solve_out)
    assert oracle_payload["value"] == solve_payload["opt"]
    assert solve_payload["reference_monotone"] is True
    assert oracle_payload["cycle"] == solve_payload["cycle"]


def test_deterministic_bytes(demo_file, capsys):
    _, first, _ = run(capsys, "solve", "--gains", demo_file)
    _, second, _ = run(capsys, "solve", "--gains", demo_file)
    assert first == second


def test_out_writes_manifest(demo_file, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, _, err = run(capsys, "solve", "--gains", demo_file, "--out", out_path)
    assert code == 0
    assert json.loads(out_path.read_text())["opt"] == 1.0
    manifest_path = tmp_path / "result.json.manifest.json"
    assert manifest_path.exists()
    assert json.loads(manifest_path.read_text())["outputs"] == [str(out_path)]


def test_reduce_command(demo_file, capsys):
    code, out, _ = run(capsys, "reduce", "--gains", demo_file, "--cycle", "4 4 1 2 3 3")
    assert code == 0
    payload = json.loads(out)
    assert payload["final_objective"] >= payload["initial_objective"] - 1e-12
    for step in payload["steps"]:
        assert step["kind"] in {"gap-rewrite", "constant-collapse", "reset-split"}


def test_tightness_command_emits_reloadable_table(capsys):
    code, out, _ = run(
        capsys, "tightness", "--prices", "1 2 3", "--memory", 2, "--target", "1 3 2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_unique"] is True
    assert payload["oracle_value"] == payload["optimal_value"]
    table = gain_table_from_dict(payload["gain_table"])
    assert table.reference_monotone()
    assert table.grid.memory == 2


def test_simulate_analyze_allocate_chain(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = {"population": 400, "horizon": 16, "memory": 3,
            "discounts": [0.12, 0.15, 0.17, 0.20]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code, out, _ = run(capsys, "simulate", "--spec", "spec.json", "--seed", 7,
                       "--out", "panel.csv")
    assert code == 0
    sim_payload = json.loads(out)
    assert sim_payload["rows"] == 400 * 16
    assert (tmp_path / "panel.csv").exists()
    assert (tmp_path / "panel.csv.meta.json").exists()

    code, out, _ = run(capsys, "analyze", "--dataset", "panel.csv", "--memory", "3,4,5,7")
    assert code == 0
    analysis = json.loads(out)
    assert [row["memory"] for row in analysis["correlations"]] == [3, 4, 5, 7]
    assert len(analysis["monotonicity"]) == 4

    write_model(default_ground_truth(3), DiscountSet((0.12, 0.15, 0.17, 0.20)),
               tmp_path / "model.json")
    code, out, _ = run(capsys, "allocate", "--model", "model.json",
                       "--customers", "panel.csv", "--budget", 1e9, "--W", 100)
    assert code == 0
    unconstrained = json.loads(out)
    assert unconstrained["lambda"] == 1.0

    budget = 0.95 * unconstrained["redemption"]
    code, out, _ = run(capsys, "allocate", "--model", "model.json",
                       "--customers", "panel.csv", "--budget", budget, "--W", 100)
    assert code == 0
    allocation = json.loads(out)
    assert allocation["lambda"] > 1.0
    assert allocation["redemption"] <= budget
    assert allocation["customers"] == 400
    csv_path = tmp_path / "assignments.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "customer_id,discount,purchase_prob"
    assert len(lines) == 401


def test_simulate_seed_changes_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"population": 50, "horizon": 5}))
    run(capsys, "simulate", "--spec", "spec.json", "--seed", 1, "--out", "a.csv")
    run(capsys, "simulate", "--spec", "spec.json", "--seed", 1, "--out", "b.csv")
    run(capsys, "simulate", "--spec", "spec.json", "--seed", 2, "--out", "c.csv")
    a = (tmp_path / "a.csv").read_text()
    assert a == (tmp_path / "b.csv").read_text()
    assert a != (tmp_path / "c.csv").read_text()


def test_validation_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--gains", tmp_path / "missing.json")
    assert code == 2
    assert "error" in err


MALFORMED_GAIN_TABLES = {
    "list.json": "[1, 2]",
    "gains-scalar.json": '{"prices": [1, 2], "memory": 2, "gains": 5}',
    "memory-float.json": '{"prices": [1, 2], "memory": 2.7, "gains": [[0, 1], [1, 0]]}',
    "memory-bool.json": '{"prices": [1, 2], "memory": true, "gains": [[0, 1], [1, 0]]}',
    "gain-bool.json": '{"prices": [1, 2], "memory": 2, "gains": [[true, 1], [1, 0]]}',
    "gain-huge.json": '{"prices": [1, 2], "memory": 2, "gains": [[1%s, 1], [1, 0]]}' % ("0" * 400),
    "empty.csv": "",
    "price-zero-denominator.json": '{"prices": ["1/0", 2], "memory": 2, "gains": [[0, 1], [1, 0]]}',
}


@pytest.mark.parametrize("name", list(MALFORMED_GAIN_TABLES))
def test_malformed_gain_table_exit_code(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_text(MALFORMED_GAIN_TABLES[name])
    memory = ["--memory", 2] if name.endswith(".csv") else []
    code, _, err = run(capsys, "solve", "--gains", path, *memory)
    assert code == 2
    assert "error" in err


TRUTH = default_ground_truth(3)  # the panel's schema
FEATURES = TRUTH.feature_names
VALID_MODEL = {"feature_names": list(FEATURES), "alpha_weights": TRUTH.alpha_weights.tolist(),
               "beta_weights": TRUTH.beta_weights.tolist(), "pivot": 0.15,
               "discounts": [0.1, 0.2]}
MODELS = {
    "valid": VALID_MODEL,
    "list": [1],
    "feature-names-scalar": {**VALID_MODEL, "feature_names": 5},
    "feature-names-numbers": {**VALID_MODEL, "feature_names": [1]},
    "alpha-weights-scalar": {**VALID_MODEL, "alpha_weights": 5},
    "alpha-weights-null": {**VALID_MODEL, "alpha_weights": [0, None]},
    "beta-weights-scalar": {**VALID_MODEL, "beta_weights": 5},
    "pivot-list": {**VALID_MODEL, "pivot": [0.15]},
    "discounts-scalar": {**VALID_MODEL, "discounts": 0.1},
}


@pytest.mark.parametrize("name", list(MODELS))
def test_malformed_model_exit_code(capsys, tmp_path, panel, name):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODELS[name]))
    code, _, err = run(capsys, "allocate", "--model", path, "--customers", panel,
                       "--budget", 1e9, "--W", 100, "--out", tmp_path / "out.json")
    assert code == (0 if name == "valid" else 2)
    assert name == "valid" or "error" in err


DATASET_DEFECTS = {
    "valid": lambda panel, sidecar: (panel, sidecar),
    "sidecar-list": lambda panel, sidecar: (panel, "[1]"),
    "sidecar-memory-list": lambda panel, sidecar: (
        panel, json.dumps({**json.loads(sidecar), "memory": [3]})),
    "sidecar-discounts-scalar": lambda panel, sidecar: (
        panel, json.dumps({**json.loads(sidecar), "discounts": 0.1})),
    "empty-panel": lambda panel, sidecar: ("", sidecar),
    "short-row": lambda panel, sidecar: (panel + "0\n", sidecar),
    "long-row": lambda panel, sidecar: (panel + "0,1" + ",0" * len(FEATURES) + ",0.1,0,9\n", sidecar),
    "header-only": lambda panel, sidecar: (panel.splitlines(keepends=True)[0], sidecar),
    "hash-row": lambda panel, sidecar: (panel + "#" + panel.splitlines()[1] + "\n", sidecar),
    "whitespace-row": lambda panel, sidecar: (panel + "   \n", sidecar),
    "float-customer-id": lambda panel, sidecar: (panel.replace("\n0,", "\n1.0,", 1), sidecar),
    # numpy's pass refuses it as int64; the row loop must not turn the ids into floats
    "customer-id-2**63": lambda panel, sidecar: (
        panel.replace("\n0,", f"\n{2**63},", 1), sidecar),
}


@pytest.mark.parametrize("command", ["analyze", "allocate"])
@pytest.mark.parametrize("name", list(DATASET_DEFECTS))
def test_malformed_dataset_exit_code(capsys, recwarn, tmp_path, panel, command, name):
    text, sidecar = DATASET_DEFECTS[name](panel.read_text(),
                                          Path(f"{panel}.meta.json").read_text())
    path = tmp_path / "panel.csv"
    path.write_text(text)
    Path(f"{path}.meta.json").write_text(sidecar)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(VALID_MODEL))
    code, _, err = run(capsys, *{
        "analyze": ["analyze", "--dataset", path, "--memory", "1"],
        "allocate": ["allocate", "--model", model, "--customers", path,
                     "--budget", 1e9, "--W", 100, "--out", tmp_path / "out.json"],
    }[command])
    assert code == (0 if name == "valid" else 2)
    assert name == "valid" or "error" in err
    # the panel reader's numpy pass warns about nothing, a panel without rows included
    assert "Warning" not in err and not recwarn.list


VALID_SPEC = {"population": 2, "horizon": 3}
SPECS = {
    "valid": VALID_SPEC,
    "list": [1],
    "population-float": {**VALID_SPEC, "population": 2.7},
    "population-bool": {**VALID_SPEC, "population": True},
    "horizon-string": {**VALID_SPEC, "horizon": "3"},
    "memory-float": {**VALID_SPEC, "memory": 2.5},
    "discounts-scalar": {**VALID_SPEC, "discounts": 0.1},
    "ground-truth-list": {**VALID_SPEC, "ground_truth": [1]},
    "ground-truth-weights-scalar": {**VALID_SPEC, "ground_truth": {"alpha_weights": 5}},
    "policy-value-list": {**VALID_SPEC, "policy": {"type": "constant", "value": [0.1]}},
    "shadow-price-nan": {**VALID_SPEC, "policy": {"type": "myopic", "shadow_price": float("nan")}},
}


@pytest.mark.parametrize("name", list(SPECS))
def test_malformed_spec_exit_code(capsys, tmp_path, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS[name]))
    code, _, err = run(capsys, "simulate", "--spec", path, "--out", tmp_path / "panel.csv")
    assert code == (0 if name == "valid" else 2)
    assert name == "valid" or "error" in err


@pytest.mark.parametrize("budget, basket, expected", [
    ("nan", "100", 2), ("1e9", "nan", 2), ("1e9", "inf", 2),
    ("-1", "100", 2), ("inf", "100", 0),
])
def test_non_finite_allocate_inputs(capsys, tmp_path, panel, budget, basket, expected):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(VALID_MODEL))
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "allocate", "--model", model, "--customers", panel,
                       "--budget", budget, "--W", basket, "--out", out)
    assert code == expected
    if expected:
        assert "refcycle: error:" in err
    else:
        assert json.loads(out.read_text())["lambda"] == 1.0  # an unbounded budget is met at once


def test_oversized_population_is_a_validation_error(capsys, tmp_path):
    # 2**56 customers need 2**59 bytes per int64 column, more than any address
    # space holds, so the allocation fails at once without touching memory
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"population": 2**56, "horizon": 30}))
    code, _, err = run(capsys, "simulate", "--spec", path, "--out", tmp_path / "panel.csv")
    assert code == 2
    assert "refcycle: error:" in err


@pytest.mark.parametrize("horizon", [0, -1, 10**7 + 1])
def test_oracle_horizon_out_of_range_is_a_validation_error(demo_file, capsys, horizon):
    code, out, err = run(capsys, "oracle", "--gains", demo_file, "--horizon", horizon)
    assert (code, out) == (2, "")
    assert "refcycle: error: horizon" in err


def test_solve_with_an_oversized_expansion_is_a_validation_error(capsys, tmp_path):
    # the optimal generator (1, 2) expands to memory + 1 tokens; at memory 10**9
    # the cycle is refused by its counted length instead of being built
    path = tmp_path / "gains.json"
    path.write_text(json.dumps({"prices": [1, 2], "memory": 10**9, "gains": [[0, 1], [1, 0]]}))
    code, out, err = run(capsys, "solve", "--gains", path)
    assert (code, out) == (2, "")
    assert "refcycle: error: expansion of 1000000001 tokens exceeds the bound 10000000" in err


JSON_SCALARS = (st.none() | st.booleans() | st.integers(0, 5)
                | st.floats(-5, 5, allow_nan=False) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
NUMBERS = st.integers(0, 5) | st.floats(-5, 5, allow_nan=False)
DISCOUNTS = st.lists(st.floats(0, 1), min_size=1, max_size=4, unique=True).map(sorted)


def field(plausible, odds=4):
    """Mostly a well-typed value of the field's own kind, else any JSON value."""
    return st.integers(1, odds).flatmap(lambda k: JSON_VALUES if k == odds else plausible)


def numbers(size):
    return st.lists(NUMBERS, min_size=size, max_size=size)


def json_object(fields, optional=None):
    return field(st.fixed_dictionaries(
        {key: field(value) for key, value in fields.items()},
        optional={key: field(value) for key, value in (optional or {}).items()}))


MODEL_FIELDS = {"alpha_weights": numbers(len(FEATURES) + 1), "beta_weights": numbers(len(FEATURES))}
JSON_FILES = {
    "solve": st.integers(1, 4).flatmap(lambda n: json_object({
        "prices": st.lists(st.integers(0, 5), min_size=n, max_size=n, unique=True).map(sorted),
        "memory": st.integers(0, 5),
        "gains": st.lists(numbers(n), min_size=n, max_size=n),
    })),
    "allocate": json_object({"feature_names": st.just(list(FEATURES)), **MODEL_FIELDS},
                            {"pivot": NUMBERS, "discounts": DISCOUNTS}),
    "simulate": json_object({"population": st.integers(0, 5), "horizon": st.integers(0, 5)}, {
        "memory": st.integers(0, 5),
        "discounts": DISCOUNTS,
        "ground_truth": json_object({}, {**MODEL_FIELDS, "pivot": NUMBERS}),
        "policy": st.just("uniform") | json_object({
            "type": st.sampled_from(["constant", "myopic"]),
            "value": st.sampled_from([0.1, 0.12, 0.15]),
            "shadow_price": NUMBERS,
        }),
    }),
}


def fuzz_exit_code(command, payload, panel) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        out = str(Path(tmp) / "out.json")
        argv = {
            "solve": ["solve", "--gains", str(path)],
            "allocate": ["allocate", "--model", str(path), "--customers", str(panel),
                         "--budget", "50", "--W", "100", "--out", out],
            "simulate": ["simulate", "--spec", str(path), "--out", str(Path(tmp) / "p.csv")],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


@pytest.mark.parametrize("command", list(JSON_FILES))
def test_any_json_file_keeps_exit_code_contract(command, panel):
    @given(JSON_FILES[command])
    def check(payload):
        assert fuzz_exit_code(command, payload, panel) in {0, 2, 3}

    check()


CELL = st.text(max_size=3) | NUMBERS.map(repr)
HEADER = ["customer_id", "day", *FEATURES, "coupon_value", "purchased"]


def csv_text(header, rows, odds):
    """CSV text of a header and rows, each row replaced by any short row of
    cells once in ``odds``; now and then any text at all."""
    def row(plausible):
        return st.integers(1, odds).flatmap(
            lambda k: st.lists(CELL, max_size=5) if k == odds else plausible)

    def render(table):
        handle = io.StringIO()
        csv.writer(handle).writerows(table)
        return handle.getvalue()

    table = st.tuples(row(header), rows.flatmap(lambda rs: st.tuples(*map(row, rs))))
    return st.integers(1, 8).flatmap(
        lambda k: st.text(max_size=12) if k == 8 else table.map(lambda t: render([t[0], *t[1]])))


def gain_table_csv(n):
    header = st.lists(st.integers(0, 5), min_size=n, max_size=n, unique=True).map(
        lambda prices: [str(p) for p in sorted(prices)])
    row = numbers(n).map(lambda gains: [repr(g) for g in gains])
    return csv_text(header, st.sampled_from((n - 1, n, n, n + 1)).map(lambda k: [row] * k), 3 * n)


def panel_rows(customers, days):
    """One row per customer and day.  Coupons 0.12 and 0.2 fall in the small and
    the large group of `analyze`'s monotonicity table, so its cells can fill."""
    values = st.tuples(numbers(len(FEATURES)), st.sampled_from([0.12, 0.2]), st.integers(0, 1))
    return [values.map(lambda v, c=c, d=d: [str(c), str(d), *map(repr, v[0]), repr(v[1]), str(v[2])])
            for c in range(customers) for d in range(1, days + 1)]


PANEL_CSV = csv_text(st.just(HEADER), st.tuples(st.integers(1, 4), st.integers(3, 6)).map(
    lambda shape: panel_rows(*shape)), 48)
SIDECAR = field(st.fixed_dictionaries({
    "feature_columns": field(st.just(list(FEATURES)), 12),
    "reference_feature": field(st.sampled_from(FEATURES), 12),
    "discounts": field(st.just([0.12, 0.2]) | DISCOUNTS, 12),
    "memory": field(st.integers(0, 5), 12),
}), 12)
CSV_FILES = {
    "solve": st.tuples(st.integers(1, 4).flatmap(gain_table_csv), st.integers(0, 6)),
    "analyze": st.tuples(PANEL_CSV, SIDECAR),
    "allocate": st.tuples(PANEL_CSV, SIDECAR),
}


@pytest.mark.parametrize("command", list(CSV_FILES))
def test_any_csv_file_keeps_exit_code_contract(command, tmp_path):
    model = tmp_path / "model.json"
    write_model(TRUTH, DiscountSet((0.12, 0.2)), model)

    @given(CSV_FILES[command])
    def check(files):
        text, extra = files
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_text(text)
            if command == "solve":
                argv = ["solve", "--gains", str(path), "--memory", str(extra)]
            else:
                (Path(tmp) / "input.csv.meta.json").write_text(json.dumps(extra))
                argv = {
                    "analyze": ["analyze", "--dataset", str(path), "--memory", "1"],
                    "allocate": ["allocate", "--model", str(model),
                                 "--customers", str(path), "--budget", "0.5", "--W", "100",
                                 "--out", str(Path(tmp) / "out.json")],
                }[command]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in {0, 2, 3}

    check()


def test_assumption_violation_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"population": 30, "horizon": 4}))
    run(capsys, "simulate", "--spec", "spec.json", "--out", "panel.csv")
    write_model(default_ground_truth(7), DiscountSet(), tmp_path / "model.json")
    code, _, err = run(capsys, "allocate", "--model", "model.json",
                       "--customers", "panel.csv", "--budget", 0, "--W", 100)
    assert code == 3
    assert "assumption violated" in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
