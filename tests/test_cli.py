"""Command-line interface: outputs, determinism, exit codes, manifests."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from refcycle import cli, fileio
from refcycle.cli import main
from refcycle.fileio import gain_table_from_dict, gain_table_to_dict, save_dataset
from refcycle.allocator import DiscountSet, PopulationSpec, default_ground_truth, simulate_population
from refcycle.core import GeneratorCycle, PriceCycle, cycle_objective, expand
from refcycle.instances import nonmonotone_demo_table, random_monotone_table
from test_population import ragged


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
    assert manifest["inputs"] == {str(demo_file): hashlib.sha256(demo_file.read_bytes()).hexdigest()}


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


# literal stdout of `solve` on the demo table and of two `tightness` runs; any
# byte that moves here is a change of output format or of the numbers
SOLVE_DEMO_STDOUT = """\
{
  "opt": 1,
  "generator": "1 2 3",
  "cycle": "1 2 2 3 3",
  "bias": [
    0,
    0,
    0,
    -1
  ],
  "residual": 0,
  "reference_monotone": false
}
"""

TIGHTNESS_1_3_2_STDOUT = """\
{
  "gain_table": {
    "prices": [
      "1",
      "2",
      "3"
    ],
    "memory": 2,
    "gains": [
      [
        0,
        0,
        2
      ],
      [
        6,
        0,
        2
      ],
      [
        6,
        6,
        2
      ]
    ]
  },
  "target": "1 3 2",
  "expansion": "1 3 3 2",
  "optimal_value": 4,
  "bias": [
    0,
    2,
    4
  ],
  "penalty": -19,
  "verified_unique": true,
  "oracle_value": 4
}
"""

TIGHTNESS_2_STDOUT = """\
{
  "gain_table": {
    "prices": [
      "1",
      "2",
      "3"
    ],
    "memory": 2,
    "gains": [
      [
        -3,
        2,
        -3
      ],
      [
        -3,
        2,
        -3
      ],
      [
        -3,
        2,
        -3
      ]
    ]
  },
  "target": "2",
  "expansion": "2",
  "optimal_value": 2,
  "bias": [
    0
  ],
  "penalty": -3,
  "verified_unique": true,
  "oracle_value": 2
}
"""


def test_deterministic_bytes(demo_file, capsys):
    _, first, _ = run(capsys, "solve", "--gains", demo_file)
    _, second, _ = run(capsys, "solve", "--gains", demo_file)
    assert first == second == SOLVE_DEMO_STDOUT
    tightness = ["tightness", "--prices", "1 2 3", "--memory", 2, "--target"]
    assert run(capsys, *tightness, "1 3 2")[1] == TIGHTNESS_1_3_2_STDOUT
    assert run(capsys, *tightness, "2")[1] == TIGHTNESS_2_STDOUT


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


def test_reduce_initial_objective_is_the_input_objective(capsys, tmp_path):
    """``initial_objective`` is read off the trace's first step, or off the
    final cycle when there is no step; either way it is the input's objective."""
    rng = np.random.default_rng(32)
    path = tmp_path / "gains.json"
    stepless = 0
    for case in range(24):
        n, memory = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        table = random_monotone_table(rng, n, memory)
        write_gain_table(table, path)
        if case % 4:
            cycle = PriceCycle(tuple(int(x) for x in rng.integers(0, n, int(rng.integers(1, 41)))))
        else:  # an expansion takes no step
            cycle = expand(GeneratorCycle(tuple(int(v) for v in rng.permutation(n)[:2])), table.grid)
        code, out, _ = run(capsys, "reduce", "--gains", path, "--cycle",
                           fileio.format_cycle(cycle, table.grid))
        assert code == 0
        payload = json.loads(out)
        assert payload["initial_objective"] == cycle_objective(cycle, table)
        stepless += not payload["steps"]
    assert stepless >= 6


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


def test_tightness_over_budget_exits_before_building_the_table(capsys, monkeypatch):
    # 3 000 prices at memory 1: 3 000 states x 3 000 prices, over the state-graph
    # budget; the n x n table alone would take seconds and tens of MB to build
    def refuse(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr("refcycle.cli.build_tightness", refuse)
    prices = " ".join(str(p) for p in range(1, 3001))
    code, out, err = run(capsys, "tightness", "--prices", prices, "--memory", 1,
                         "--target", "1 3000")
    assert code == 2
    assert out == ""
    assert "state graph needs 3000 states x 3000 prices x memory 1 = 9000000" in err


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
    # the csv module refuses a field over 131 072 characters
    "long-cell.csv": "1,2\n" + "1" * 200_000 + ",0\n0,1\n",
}


@pytest.mark.parametrize("name", list(MALFORMED_GAIN_TABLES))
def test_malformed_gain_table_exit_code(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_text(MALFORMED_GAIN_TABLES[name])
    memory = ["--memory", 2] if name.endswith(".csv") else []
    code, _, err = run(capsys, "solve", "--gains", path, *memory)
    assert code == 2
    assert "refcycle: error:" in err


# an integer just above the largest float: float() rounds it down to that float
# without an error, yet the table refuses it
JUST_ABOVE_FLOAT_MAX = int(sys.float_info.max) + 2**968

# each refusal of a gain table's cells, as the file is written and as stderr reads
GAIN_CELL_REFUSALS = {
    "bool.json": ("[[true, 1], [1, 0]]", "a gain table: malformed 'gains': [[True, 1], [1, 0]]"),
    "int-beyond-float.json": (f"[[{JUST_ABOVE_FLOAT_MAX}, 1], [1, 0]]",
                              f"a gain table: malformed 'gains': [[{JUST_ABOVE_FLOAT_MAX}, 1], [1, 0]]"),
    "negative-int-beyond-float.json": (f"[[0, 1], [1, -{JUST_ABOVE_FLOAT_MAX}]]",
                                       f"a gain table: malformed 'gains': "
                                       f"[[0, 1], [1, -{JUST_ABOVE_FLOAT_MAX}]]"),
    "nan.json": ("[[NaN, 1], [1, 0]]", "a gain table: malformed 'gains': [[nan, 1], [1, 0]]"),
    "infinity.json": ("[[1, 2], [1, -Infinity]]",
                      "a gain table: malformed 'gains': [[1, 2], [1, -inf]]"),
    "nan-after-huge.json": (f"[[1, 2], [1{'0' * 400}, NaN]]",
                            f"a gain table: malformed 'gains': [[1, 2], [1{'0' * 400}, nan]]"),
    "string.json": ('[["1", 1], [1, 0]]', "a gain table: malformed 'gains': [['1', 1], [1, 0]]"),
    "row-not-a-list.json": ("[5, [1, 0]]", "a gain table: malformed 'gains': [5, [1, 0]]"),
    "row-too-long.json": ("[[0, 1, 2], [1, 0]]", "gain matrix must be 2x2"),
    "rows-too-few.json": ("[[0, 1]]", "gain matrix must be 2x2"),
    "nan.csv": ("1,2\nnan,1\n1,0\n", "gain entries must be finite"),
    "infinity.csv": ("1,2\n1,-inf\n1,0\n", "gain entries must be finite"),
    "row-too-long.csv": ("1,2\n1,2,3\n1,0\n", "gain matrix must be 2x2"),
}


@pytest.mark.parametrize("name", list(GAIN_CELL_REFUSALS))
def test_gain_cell_refusals_keep_their_text(capsys, tmp_path, name):
    gains, message = GAIN_CELL_REFUSALS[name]
    path = tmp_path / name
    if name.endswith(".csv"):
        path.write_text(gains)
        code, out, err = run(capsys, "solve", "--gains", path, "--memory", 2)
    else:
        path.write_text(f'{{"prices": [1, 2], "memory": 2, "gains": {gains}}}')
        code, out, err = run(capsys, "solve", "--gains", path)
    assert (code, out, err) == (2, "", f"refcycle: error: {message}\n")


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
    # the csv module refuses a field over 131 072 characters, in a row or the header
    "long-cell": lambda panel, sidecar: (panel.replace("\n0,", "\n" + "1" * 200_000 + ",", 1),
                                         sidecar),
    "long-feature-name": lambda panel, sidecar: (panel.replace(FEATURES[0], "x" * 200_000, 1),
                                                 sidecar.replace(FEATURES[0], "x" * 200_000, 1)),
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
    assert name == "valid" or "refcycle: error:" in err
    assert name != "header-only" or "the dataset has no rows" in err
    # the panel reader's numpy pass warns about nothing, a panel without rows included
    assert "Warning" not in err and not recwarn.list


@pytest.mark.parametrize("name", ["gains", "model", "spec", "sidecar"])
def test_deeply_nested_json_exit_code(capsys, tmp_path, panel, name):
    # nested past the JSON parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(VALID_MODEL))
    copy = tmp_path / "panel.csv"
    copy.write_bytes(panel.read_bytes())
    Path(f"{copy}.meta.json").write_bytes(deep.read_bytes())
    code, out, err = run(capsys, *{
        "gains": ["solve", "--gains", deep],
        "model": ["allocate", "--model", deep, "--customers", panel, "--budget", 1e9,
                  "--W", 100, "--out", tmp_path / "out.json"],
        "spec": ["simulate", "--spec", deep, "--out", tmp_path / "simulated.csv"],
        "sidecar": ["allocate", "--model", model, "--customers", copy, "--budget", 1e9,
                    "--W", 100, "--out", tmp_path / "out.json"],
    }[name])
    assert (code, out) == (2, "")
    assert "refcycle: error:" in err and "nested too deeply" in err


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


@pytest.mark.parametrize("policy", [{"type": "bogus"}, 5, "constant", [0.17]])
def test_unsupported_policy_exit_code(capsys, tmp_path, policy):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**VALID_SPEC, "policy": policy}))
    code, out, err = run(capsys, "simulate", "--spec", path, "--out", tmp_path / "panel.csv")
    assert (code, out) == (2, "")
    assert "refcycle: error: unsupported policy spec" in err
    assert not (tmp_path / "panel.csv").exists()


def test_spec_field_errors_come_before_value_errors(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"population": 0, "horizon": 3,
                                "policy": {"type": "constant", "value": "0.17"}}))
    code, _, err = run(capsys, "simulate", "--spec", path, "--out", tmp_path / "panel.csv")
    assert code == 2
    assert "refcycle: error: policy: malformed 'value'" in err
    assert "population size" not in err


@pytest.mark.parametrize("names", [list(reversed(FEATURES)), ["nonsense"]],
                         ids=["reversed", "nonsense"])
def test_simulate_refuses_ground_truth_names_other_than_the_spec(capsys, tmp_path, names):
    # weights of the listed names' length, so the model builds and only the
    # schema check can refuse it
    truth = {"feature_names": names, "alpha_weights": [0.0] * (len(names) + 1),
             "beta_weights": [1.0] * len(names)}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**VALID_SPEC, "memory": 3, "ground_truth": truth}))
    code, out, err = run(capsys, "simulate", "--spec", path, "--out", tmp_path / "panel.csv")
    assert (code, out) == (2, "")
    assert "refcycle: error: model features do not match the population spec" in err
    assert list(tmp_path.iterdir()) == [path]


def test_simulate_takes_a_ground_truth_listing_the_spec_names(capsys, tmp_path):
    truth = {key: VALID_MODEL[key] for key in ("feature_names", "alpha_weights", "beta_weights")}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**VALID_SPEC, "memory": 3, "ground_truth": truth}))
    code, _, _ = run(capsys, "simulate", "--spec", path, "--out", tmp_path / "panel.csv")
    assert code == 0 and (tmp_path / "panel.csv").exists()


OTHER_FEATURES = {
    "reversed": list(reversed(FEATURES)),
    "renamed": [f"x{i}" for i in range(len(FEATURES))],
    "shorter": list(FEATURES[:-1]),
    "none": [],
}


@pytest.mark.parametrize("name", list(OTHER_FEATURES))
def test_allocate_refuses_a_model_over_other_features(capsys, tmp_path, panel, name):
    names = OTHER_FEATURES[name]
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**VALID_MODEL, "feature_names": names,
                                 "alpha_weights": VALID_MODEL["alpha_weights"][:len(names) + 1],
                                 "beta_weights": VALID_MODEL["beta_weights"][:len(names)]}))
    code, out, err = run(capsys, "allocate", "--model", model, "--customers", panel,
                         "--budget", 1e9, "--W", 100, "--out", tmp_path / "out.json")
    assert (code, out) == (2, "")
    assert f"the model's features {names} are not the panel's feature columns " \
           f"{list(FEATURES)}" in err
    assert list(tmp_path.iterdir()) == [model]


def test_allocate_result_beyond_a_float_leaves_no_file(capsys, tmp_path, panel):
    # the revenue overflows to inf; the payload is rendered, and refused,
    # before the assignments CSV is written
    model = tmp_path / "model.json"
    model.write_text(json.dumps(VALID_MODEL))
    with np.errstate(over="ignore"):
        code, out, err = run(capsys, "allocate", "--model", model, "--customers", panel,
                             "--budget", "inf", "--W", 1.7e308, "--out", tmp_path / "x.json")
    assert (code, out) == (2, "")
    assert "refcycle: error: the result holds inf" in err
    assert list(tmp_path.iterdir()) == [model]


def test_analyze_names_an_empty_window_list(capsys, panel):
    code, out, err = run(capsys, "analyze", "--dataset", panel, "--memory", "")
    assert (code, out) == (2, "")
    assert "refcycle: error: no memory lengths requested" in err


def test_analyze_refuses_a_ragged_panel(capsys, tmp_path):
    # customer 0 lacks day 30 and customer 1 has a day 31: 300 x 30 rows
    # still, but a reshape would mix two customers' days in one history
    dataset = simulate_population(PopulationSpec(size=300, horizon=30, memory=3), TRUTH, seed=4)
    save_dataset(ragged(dataset), tmp_path / "panel.csv")
    code, out, err = run(capsys, "analyze", "--dataset", tmp_path / "panel.csv",
                         "--memory", "3,7")
    assert (code, out) == (2, "")
    assert "refcycle: error: dataset is not a rectangular panel" in err


MANIFEST_KEYS = {"command", "inputs", "seed", "version", "wall_time_s", "outputs"}
COMMAND_ARGS = {
    "solve": ["--gains", "demo.json"],
    "oracle": ["--gains", "demo.json", "--horizon", "5"],
    "reduce": ["--gains", "demo.json", "--cycle", "4 4 1 2 3 3"],
    "tightness": ["--prices", "1 2 3", "--memory", "2", "--target", "1 3 2"],
    "simulate": ["--spec", "spec.json", "--out", "simulated.csv"],
    "analyze": ["--dataset", "panel.csv", "--memory", "1,2"],
    "allocate": ["--model", "model.json", "--customers", "panel.csv", "--budget", "1e9", "--W", "100"],
}


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_every_command_reports_one_manifest_shape(command, capsys, tmp_path, monkeypatch, panel):
    monkeypatch.chdir(tmp_path)
    write_gain_table(nonmonotone_demo_table(), "demo.json")
    Path("spec.json").write_text(json.dumps(VALID_SPEC))
    Path("model.json").write_text(json.dumps(VALID_MODEL))
    Path("panel.csv").write_bytes(panel.read_bytes())
    Path("panel.csv.meta.json").write_bytes(Path(f"{panel}.meta.json").read_bytes())
    code, _, err = run(capsys, command, *COMMAND_ARGS[command])
    assert code == 0
    manifest = json.loads(err.splitlines()[-1])
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert type(manifest["wall_time_s"]) is float and manifest["wall_time_s"] >= 0


def dataset_command(command, panel):
    return {"analyze": ["analyze", "--dataset", panel, "--memory", "2,3"],
            "allocate": ["allocate", "--model", "model.json", "--customers", panel,
                         "--budget", "20", "--W", "100"]}[command]


@pytest.mark.parametrize("command", ["analyze", "allocate"])
def test_a_panel_reads_the_same_with_its_cache_stale_or_missing(capsys, tmp_path, monkeypatch,
                                                                command):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps({"population": 40, "horizon": 6, "memory": 3}))
    Path("model.json").write_text(json.dumps(VALID_MODEL))
    _, _, err = run(capsys, "simulate", "--spec", "spec.json", "--out", "panel.csv")
    assert json.loads(err.splitlines()[-1])["outputs"] == [
        "panel.csv", "panel.csv.meta.json", "panel.csv.npy"]

    def results():
        """Each panel's output, and its manifest's record of the panel's sha256."""
        outcomes = []
        for panel in ("panel.csv", "copy.csv"):
            code, out, err = run(capsys, *dataset_command(command, panel))
            assert code == 0
            digest = json.loads(err.splitlines()[-1])["inputs"][panel]
            assert digest == hashlib.sha256(Path(panel).read_bytes()).hexdigest()
            written = Path("assignments.csv").read_bytes() if command == "allocate" else b""
            outcomes.append((out, written))
        return outcomes

    # a copy that simulate did not write has no cache
    for name in ("panel.csv", "panel.csv.meta.json"):
        Path(name.replace("panel", "copy")).write_bytes(Path(name).read_bytes())
    fresh = results()
    assert fresh[0] == fresh[1]
    # the CSV edited after simulate (a feature and the purchase of the last
    # row, which allocate and analyze read): its stale cache is ignored
    *rows, last, end = Path("panel.csv").read_bytes().split(b"\r\n")
    cells = last.split(b",")
    last = b",".join([*cells[:2], b"99.0", *cells[3:-1], b"1" if cells[-1] == b"0" else b"0"])
    for name in ("panel.csv", "copy.csv"):
        Path(name).write_bytes(b"\r\n".join([*rows, last, end]))
    edited = results()
    assert edited[0] == edited[1] != fresh[0]


@pytest.mark.parametrize("policy", ["uniform", {"type": "constant", "value": 0.15},
                                    {"type": "myopic", "shadow_price": 1.0}])
def test_a_simulated_panel_is_read_from_its_cache(capsys, tmp_path, monkeypatch, policy):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps({"population": 40, "horizon": 6, "memory": 3,
                                             "policy": policy}))
    Path("model.json").write_text(json.dumps(VALID_MODEL))
    code, _, err = run(capsys, "simulate", "--spec", "spec.json", "--out", "panel.csv")
    assert code == 0
    assert json.loads(err.splitlines()[-1])["outputs"][-1] == "panel.csv.npy"

    def parse_nothing(*_):
        raise AssertionError("the CSV was parsed although its cache holds the panel")

    def outcomes():
        # analyze may exit 3 on a constant-policy panel, whose coupon groups are empty
        return [run(capsys, *dataset_command(command, "panel.csv"))[:2]
                for command in ("analyze", "allocate")]

    with monkeypatch.context() as patched:
        patched.setattr(fileio, "_read_panel_rows", parse_nothing)
        cached = outcomes()
    Path("panel.csv.npy").unlink()
    assert cached == outcomes()
    assert cached[1][0] == 0


@pytest.mark.parametrize("pivot", [0.15, float("nan"), float("inf"), -float("inf")])
def test_non_finite_pivot_exit_code(capsys, tmp_path, panel, pivot):
    expected = 0 if np.isfinite(pivot) else 2
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**VALID_SPEC, "memory": 3, "ground_truth": {
        "alpha_weights": TRUTH.alpha_weights.tolist(),
        "beta_weights": TRUTH.beta_weights.tolist(), "pivot": pivot}}))
    simulated = tmp_path / "simulated.csv"
    code, _, err = run(capsys, "simulate", "--spec", spec, "--out", simulated)
    assert code == expected and simulated.exists() == (expected == 0)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**VALID_MODEL, "pivot": pivot}))
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "allocate", "--model", model, "--customers", panel,
                       "--budget", 5, "--W", 100, "--out", out)
    assert code == expected and out.exists() == (expected == 0)
    assert expected == 0 or "refcycle: error: model weights and pivot must be finite" in err


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


# finite gain tables whose results a float cannot hold: the bias of the first
# overflows, the replay and the objectives of the second and the residual of
# the third are inf
EXTREME_TABLES = {
    "solve-bias": (["solve"], {"prices": [1, 2], "memory": 1,
                               "gains": [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]}),
    "oracle-replay": (["oracle", "--horizon", "7"], {"prices": [1, 2], "memory": 2,
                                                     "gains": [[1.7e308, 1e308], [0.0, -1e308]]}),
    "reduce-objectives": (["reduce", "--cycle", "2 2 2 1"], {"prices": [1, 2], "memory": 2,
                                                             "gains": [[1.7e308, 1e308], [0.0, -1e308]]}),
    "solve-residual": (["solve"], {"prices": [1, 2, 3], "memory": 1, "gains": [
        [1e308, -1e308, -1.7e308], [1.7e308, 1.0, -1e308], [-1e308, -1e308, 0.0]]}),
}


@pytest.mark.parametrize("name", list(EXTREME_TABLES))
def test_a_result_beyond_a_float_is_a_validation_error(name, capsys, tmp_path):
    command, table = EXTREME_TABLES[name]
    path = tmp_path / "gains.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, command[0], "--gains", path, *command[1:])
    assert (code, out) == (2, "")
    assert "refcycle: error:" in err


def reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


EXTREME_GAINS = st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308, 0.0, 1.0])


def extreme_case(n):
    """A table of ``n`` prices with gains at the ends of the float range, and a
    cycle over its prices for ``reduce``."""
    table = st.fixed_dictionaries({
        "prices": st.just(list(range(1, n + 1))),
        "memory": st.integers(1, 3),
        "gains": st.lists(st.lists(EXTREME_GAINS, min_size=n, max_size=n), min_size=n, max_size=n),
    })
    cycle = st.lists(st.integers(1, n), min_size=1, max_size=6).map(lambda c: " ".join(map(str, c)))
    return st.tuples(table, cycle)


@pytest.mark.parametrize("command", [["solve"], ["oracle"], ["oracle", "--horizon", "7"], ["reduce"]])
def test_extreme_finite_gains_keep_exit_code_contract(command):
    @given(st.integers(1, 3).flatmap(extreme_case))
    def check(case):
        table, cycle = case
        stdout = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gains.json"
            path.write_text(json.dumps(table))
            argv = [command[0], "--gains", str(path), *command[1:]]
            if command[0] == "reduce":
                argv += ["--cycle", cycle]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in {0, 2, 3}
        if code == 0:
            json.loads(stdout.getvalue(), parse_constant=reject_constant)
        else:
            assert stdout.getvalue() == ""

    check()


HUGE_PRICE = "1" + "0" * 400 + ".5"


@pytest.mark.parametrize("command", [
    ["solve", "--gains", "huge.json"],
    ["oracle", "--gains", "huge.json", "--horizon", "5"],
    ["reduce", "--gains", "huge.json", "--cycle", f"{HUGE_PRICE} 1"],
    ["tightness", "--prices", f"1 {HUGE_PRICE}", "--memory", "2", "--target", f"1 {HUGE_PRICE}"],
])
def test_a_price_too_large_for_a_float_is_printed_exactly(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("huge.json").write_text(json.dumps({"prices": ["1", HUGE_PRICE], "memory": 2,
                                             "gains": [[0.5, 1.0], [0.25, 0.75]]}))
    code, out, err = run(capsys, *command)
    assert (code, err.count("refcycle: error")) == (0, 0)
    assert HUGE_PRICE in out


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


def test_the_module_runs_in_a_fresh_process(tmp_path):
    # what in-process tests cannot see: ``python -m refcycle.cli`` itself, and
    # a fault at import time in a fresh interpreter
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    write_gain_table(nonmonotone_demo_table(), tmp_path / "demo.json")
    selftest = subprocess.run([sys.executable, "-m", "refcycle.cli", "selftest"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
    assert selftest.returncode == 0, selftest.stderr
    assert "PASS" in selftest.stdout and "FAIL" not in selftest.stdout
    solved = subprocess.run([sys.executable, "-m", "refcycle.cli", "solve", "--gains", "demo.json"],
                            capture_output=True, text=True, env=env, cwd=tmp_path)
    assert solved.returncode == 0, solved.stderr
    assert json.loads(solved.stdout)["opt"] == 1.0
    assert json.loads(solved.stderr.splitlines()[-1])["command"] == "solve"


def parse_outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exit_info:
        parse(list(argv))
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


def usage_errors(name):
    """``-h``, an unknown option, a missing required option and each bad
    ``type=`` value of command ``name``, in an argv otherwise complete."""
    _, _, arguments = cli.COMMANDS[name]
    complete = [token for flag, options in arguments if options.get("required")
                for token in (flag, "1")]
    cases = [[name, "-h"], [name, *complete, "--bogus", "1"]]
    cases += [[name, *complete[2:]]] if complete else []
    return cases + [[name, *complete, flag, "x"] for flag, options in arguments if "type" in options]


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"],
                                  *(argv for name in cli.COMMANDS for argv in usage_errors(name))])
def test_a_command_parser_reports_as_the_full_parser(argv, capsys):
    # main parses a command with its own parser; help and usage errors keep their bytes
    expected = parse_outcome(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    assert expected[1] or expected[2]
    assert parse_outcome(capsys, main, argv) == expected


def test_the_full_parser_lists_every_command():
    assert "{" + ",".join(cli.COMMANDS) + "}" in cli.build_parser().format_usage()


def test_a_command_runs_without_the_full_parser(demo_file, capsys, monkeypatch):
    def refuse():
        raise AssertionError("the full refcycle parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, "selftest")[0] == 0
    assert run(capsys, "solve", "--gains", demo_file)[0] == 0
