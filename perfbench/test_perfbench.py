"""Self-tests of the benchmark: the certificate gate, the tracing and the counts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

workloads = bench.import_program()

import tracing  # noqa: E402  (needs the program on the path)
from refcycle.allocator import model  # noqa: E402

SEED = 0


def _setup(name: str, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name]()
    workload.setup(SEED, workdir)
    return workload


@pytest.fixture(scope="module")
def solve_wl(tmp_path_factory):
    return _setup("cycles-solve", tmp_path_factory.mktemp("solve"))


@pytest.fixture(scope="module")
def certify_wl(tmp_path_factory):
    return _setup("cycles-certify", tmp_path_factory.mktemp("certify"))


@pytest.fixture(scope="module")
def files_wl(tmp_path_factory):
    return _setup("coupons-files", tmp_path_factory.mktemp("files"))


@pytest.fixture(scope="module")
def batch_wl(tmp_path_factory):
    return _setup("coupons-batch", tmp_path_factory.mktemp("batch"))


def _cheap_ops(name, workload):
    """A few fast operations of round 0 that still cover every command."""
    first = workload.rounds[0]
    if name == "cycles-solve":
        return first[:5]  # 4-8 prices, so the exhaustive check runs too
    if name == "cycles-certify":
        keep = {"oracle-r0-0", "oracle-r0-1", "oracle-r0-2", "tight-r0-0"}
        return ([op for op in first if op.key in keep]
                + [op for op in first if op.command == "reduce"][:8])
    if name == "coupons-files":
        return workload.warmup
    return [first[0]] + [op for op in first[1:] if op.call.X.shape[0] <= 10_000]


def _outputs(ops):
    results = []
    for op in ops:
        elapsed, ok, output = bench.run_op(op)
        assert ok, op.key
        results.append(output)
    return results


@pytest.fixture(scope="module")
def all_workloads(solve_wl, certify_wl, files_wl, batch_wl):
    return {"cycles-solve": solve_wl, "cycles-certify": certify_wl,
            "coupons-files": files_wl, "coupons-batch": batch_wl}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_seed_outputs(name, all_workloads):
    ops = _cheap_ops(name, all_workloads[name])
    checker = bench.Gate()
    for op, output in zip(ops, _outputs(ops)):
        checker.check(op, output)
    assert checker.violations == []


def _payload(op):
    _, ok, output = bench.run_op(op)
    assert ok
    return json.loads(output[0]), output


def test_gate_rejects_opt_one_ulp_off(solve_wl):
    op = solve_wl.rounds[0][0]
    payload, _ = _payload(op)
    payload["opt"] = math.nextafter(payload["opt"], math.inf)
    assert op.verify(payload, "")


def test_gate_rejects_oracle_value_one_ulp_off(certify_wl):
    op = certify_wl.rounds[0][0]
    payload, _ = _payload(op)
    payload["value"] = math.nextafter(payload["value"], -math.inf)
    assert op.verify(payload, "")


def test_gate_rejects_unverified_tightness(certify_wl):
    op = next(op for op in certify_wl.rounds[0] if op.command == "tightness")
    payload, _ = _payload(op)
    assert op.verify(payload, "") == []
    payload["verified_unique"] = False
    assert op.verify(payload, "")


def test_gate_rejects_reduce_result_not_l_up_1_down(certify_wl):
    op = next(op for op in certify_wl.rounds[0] if op.command == "reduce")
    payload, _ = _payload(op)
    payload["final"] = payload["initial"]  # a long random cycle is not l-up-1-down
    payload["steps"] = []
    assert op.verify(payload, "")


def test_gate_rejects_lowering_reduce_step(certify_wl):
    op = next(op for op in certify_wl.rounds[0]
              if op.command == "reduce" and json.loads(bench.run_op(op)[2][0])["steps"])
    payload, _ = _payload(op)
    step = payload["steps"][0]
    step["before"], step["after"] = step["after"], step["before"]
    assert op.verify(payload, "")


def test_gate_rejects_infeasible_lambda(batch_wl):
    op = next(op for op in batch_wl.rounds[0] if op.command == "request"
              and op.call.X.shape[0] <= 10_000 and op.call.budget < 7.0 * op.call.X.shape[0])
    lam, redemption, assignments = op.call()
    assert op.check((lam, redemption, assignments)) == []
    request = op.call
    cheap = lam / 2.0 if lam / 2.0 >= 1.0 else 1.0
    spent = model.myopic_assign(request.truth, request.X, cheap, request.discounts)
    spent_redemption = model.projected_redemption(request.truth, request.X, spent,
                                                  workloads.BASKET)
    assert spent_redemption > request.budget
    assert op.check((cheap, spent_redemption, spent))
    # a feasible but larger lambda is not the smallest one
    larger = lam + 0.5
    slack = model.myopic_assign(request.truth, request.X, larger, request.discounts)
    slack_redemption = model.projected_redemption(request.truth, request.X, slack,
                                                  workloads.BASKET)
    assert op.check((larger, slack_redemption, slack))


def test_gate_rejects_allocate_csv_missing_a_customer(files_wl):
    op = next(op for op in files_wl.warmup if op.command == "allocate")
    for earlier in files_wl.warmup[:2]:
        bench.run_op(earlier)
    payload, (_, csv_text) = _payload(op)
    assert op.verify(payload, csv_text) == []
    assert op.verify(payload, "\n".join(csv_text.splitlines()[:-1]))


def test_gate_rejects_fit_off_the_optimum(batch_wl):
    refit = batch_wl.warmup[1].call
    (beta,) = refit()
    assert refit.check((beta,)) == []
    assert refit.check((beta * 1.01,))


def test_traced_and_untraced_outputs_identical(all_workloads):
    for name, workload in all_workloads.items():
        for i, op in enumerate(_cheap_ops(name, workload)[:6]):
            _, _, plain = bench.run_op(op)
            tracer = tracing.Tracer()
            with tracer.installed():
                _, ok, traced = bench.run_op(op, lambda: tracer.operation(i, op.command, op.argv))
            assert ok and op.digest(plain) == op.digest(traced), op.key
            assert tracer.spans, op.key


def test_wrappers_are_removed_after_the_traced_run():
    from refcycle import cli
    from refcycle.oracle import StateGraph

    main, build = cli.main, StateGraph.__dict__["build"]
    with tracing.Tracer().installed():
        assert cli.main is not main
    assert cli.main is main and StateGraph.__dict__["build"] is build


def _counts(name, workload):
    workload.rounds = [_cheap_ops(name, workload)]
    result = bench.traced_phase(workload, bench.Gate())
    assert result["failed"] == 0
    return {metric: value for metric, (value, unit) in result["metrics"].items()
            if unit in ("count", "bytes")}


def test_counts_repeat_exactly_between_runs(tmp_path):
    for name in ("cycles-certify", "coupons-files", "coupons-batch"):
        first = _counts(name, _setup(name, tmp_path / f"{name}-1"))
        second = _counts(name, _setup(name, tmp_path / f"{name}-2"))
        assert first == second, name
        assert any(first.values()), name


def test_layer_self_times_cover_the_traced_op_time(certify_wl):
    workload = workloads.CyclesCertify()
    workload.rounds = [_cheap_ops("cycles-certify", certify_wl)]
    metrics = bench.traced_phase(workload, bench.Gate())["metrics"]
    assert metrics["trace.attributed_share"][0] > 0.95
    assert metrics["tightness.graphs_per_call"][0] == 2.0
    assert metrics["oracle.graphs_built"][0] > 0 and metrics["reduce.steps"][0] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cycles-solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
