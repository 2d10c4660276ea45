"""The four workloads: seeded inputs, their operations and the checks on them.

Each workload is one closed-loop client: an operation starts when the previous
one has returned.  Inputs come in rounds.  Every round has the same composition
(sizes, kinds and commands) and fresh random values drawn from the seed, so a
run's median and tail do not depend on where its time limit falls.

Rounds are built in tiers of operations of similar cost, and each workload's
``tail_pct`` is chosen so that both the median and the tail percentile fall
inside a tier, several operations per round, rather than on the step between
two tiers, where a few percent of noise would move them far.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate
from refcycle import cli
from refcycle.allocator import analytics, budget, fitting, model, population
from refcycle.core import GainTable, PriceCycle, PriceGrid

GAIN_KINDS = ("monotone", "nonmonotone", "ties")
TIE_LEVELS = 4


@dataclass
class CliOp:
    """One `refcycle.cli.main` call; its result goes to ``out`` (or stdout)."""

    key: str
    argv: list[str]
    out: Path | None
    verify: Callable[[dict, str], list[str]]
    extra: Path | None = None  # a second output file, read with the payload

    @property
    def command(self) -> str:
        return self.argv[0]

    def execute(self, span=contextlib.nullcontext):
        stdout, stderr = io.StringIO(), io.StringIO()  # manifests and warnings stay here
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span():
            start = time.perf_counter()
            code = cli.main(self.argv)
            elapsed = time.perf_counter() - start
        return elapsed, code == 0, stdout.getvalue()

    def output(self, raw: str) -> tuple[str, str]:
        payload = self.out.read_text() if self.out is not None else raw
        return payload, self.extra.read_text() if self.extra is not None else ""

    def digest(self, output: tuple[str, str]) -> str:
        return hashlib.sha256("\0".join(output).encode()).hexdigest()

    def check(self, output: tuple[str, str]) -> list[str]:
        return self.verify(json.loads(output[0]), output[1])


@dataclass
class CallOp:
    """One library call made by the benchmark itself."""

    key: str
    command: str
    call: Callable[[], object]
    verify: Callable[[object], list[str]]
    argv = None

    def execute(self, span=contextlib.nullcontext):
        stderr = io.StringIO()  # the negative-sensitivity warning stays here
        with contextlib.redirect_stderr(stderr), span():
            start = time.perf_counter()
            result = self.call()
            elapsed = time.perf_counter() - start
        return elapsed, True, result

    def output(self, raw):
        return raw

    def digest(self, output) -> str:
        return hashlib.sha256(repr(output).encode() + b"".join(
            np.ascontiguousarray(part).tobytes() for part in output
            if isinstance(part, np.ndarray))).hexdigest()

    def check(self, output) -> list[str]:
        return self.verify(output)


def _prices(n: int) -> list[int]:
    return list(range(1, n + 1))


def gain_rows(rng: np.random.Generator, n: int, kind: str) -> list[list[float]]:
    """Gains per reference row: sorted columns (reference-monotone), plain
    uniform draws, or a few integer levels (many ties)."""
    if kind == "monotone":
        return np.sort(rng.uniform(0.0, 1.0, (n, n)), axis=0).tolist()
    if kind == "nonmonotone":
        return rng.uniform(0.0, 1.0, (n, n)).tolist()
    return rng.integers(0, TIE_LEVELS, (n, n)).astype(float).tolist()


def write_table(path: Path, n: int, memory: int, rows: list[list[float]]) -> GainTable:
    path.write_text(json.dumps({"prices": _prices(n), "memory": memory, "gains": rows}))
    return GainTable.from_rows(PriceGrid.from_values(_prices(n), memory), rows)


def _text(tokens) -> str:
    return " ".join(str(int(t) + 1) for t in tokens)


class Workload:
    name = ""
    tail_pct = 90
    rounds_generated = 1  # rounds made at setup; a long run cycles through them

    def __init__(self) -> None:
        self.rounds: list[list] = []
        self.warmup: list = []

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError


class CyclesSolve(Workload):
    """`refcycle solve` on 4-20 price tables, memory 2-7, kinds in equal shares."""

    name = "cycles-solve"
    # the median falls among the six 10-price tables, the tail among the three 16-price ones
    tail_pct = 86
    sizes = (4, 5, 6, 7, 8, 9, 10, 10, 10, 10, 10, 10, 12, 12, 16, 16, 16, 20)
    rounds_generated = 10

    def solve_op(self, key, workdir, table_path, table):
        out = workdir / f"{key}.out.json"
        return CliOp(key, ["solve", "--gains", str(table_path), "--out", str(out)], out,
                     lambda payload, _: gate.check_solve(table, payload))

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.rounds = []
        for r in range(self.rounds_generated):
            ops = []
            for i, n in enumerate(self.sizes):
                memory = 2 + (i // 2) % 6
                key = f"solve-r{r}-{i}"
                path = workdir / f"{key}.json"
                table = write_table(path, n, memory, gain_rows(rng, n, GAIN_KINDS[i % 3]))
                ops.append(self.solve_op(key, workdir, path, table))
            self.rounds.append(ops)
        path = workdir / "warm.json"
        self.warmup = [self.solve_op("warm", workdir, path,
                                     write_table(path, 3, 2, gain_rows(rng, 3, "monotone")))]


class CyclesCertify(Workload):
    """`refcycle oracle`, `tightness` and `reduce` on 27-256 state graphs."""

    name = "cycles-certify"
    # the median falls among the reduce ops, the tail among the three ~0.5 s certifications
    tail_pct = 93
    rounds_generated = 8
    # (prices, memory, gain kind, replay horizon); 2 prices at memory 7 is the allocator's window
    oracle_cells = ((3, 3, "monotone", 0), (2, 5, "nonmonotone", 0), (4, 3, "monotone", 600),
                    (2, 7, "monotone", 0), (3, 4, "ties", 0),
                    (5, 3, "monotone", 600), (5, 3, "nonmonotone", 0),
                    (4, 4, "nonmonotone", 0))
    tightness_cells = ((3, 3), (4, 3), (3, 4), (2, 7))
    reduce_cells = ((4, 2), (5, 3), (4, 4), (5, 2))
    reduce_ops = 26
    reduce_lengths = (40, 120)

    def oracle_op(self, key, workdir, rng, n, memory, kind, horizon):
        path = workdir / f"{key}.json"
        table = write_table(path, n, memory, gain_rows(rng, n, kind))
        out = workdir / f"{key}.out.json"
        argv = ["oracle", "--gains", str(path), "--out", str(out)]
        if horizon:
            argv += ["--horizon", str(horizon)]
        return CliOp(key, argv, out, lambda payload, _: gate.check_oracle(table, payload, horizon))

    def tightness_op(self, key, workdir, rng, n, memory):
        target = _text(rng.permutation(n)[: int(rng.integers(2, n + 1))])
        out = workdir / f"{key}.out.json"
        argv = ["tightness", "--prices", _text(range(n)), "--memory", str(memory),
                "--target", target, "--out", str(out)]
        return CliOp(key, argv, out, lambda payload, _: gate.check_tightness(payload, target))

    def reduce_op(self, key, workdir, rng, n, memory, length):
        path = workdir / f"{key}.json"
        table = write_table(path, n, memory, gain_rows(rng, n, "monotone"))
        tokens = rng.integers(0, n, length)
        cycle = PriceCycle(tuple(int(t) for t in tokens))
        out = workdir / f"{key}.out.json"
        argv = ["reduce", "--gains", str(path), "--cycle", _text(tokens), "--out", str(out)]
        return CliOp(key, argv, out, lambda payload, _: gate.check_reduce(table, cycle, payload))

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        lo, hi = self.reduce_lengths
        self.rounds = []
        for r in range(self.rounds_generated):
            heavy = [self.oracle_op(f"oracle-r{r}-{i}", workdir, rng, *cell)
                     for i, cell in enumerate(self.oracle_cells)]
            heavy += [self.tightness_op(f"tight-r{r}-{i}", workdir, rng, *cell)
                      for i, cell in enumerate(self.tightness_cells)]
            light = [self.reduce_op(f"reduce-r{r}-{i}", workdir, rng,
                                    *self.reduce_cells[i % len(self.reduce_cells)],
                                    lo + (hi - lo) * i // (self.reduce_ops - 1))
                     for i in range(self.reduce_ops)]
            # spread the cheap reduce ops evenly between the heavy ones
            ops = []
            for i, op in enumerate(heavy):
                ops.append(op)
                ops += light[i * len(light) // len(heavy):(i + 1) * len(light) // len(heavy)]
            self.rounds.append(ops)
        self.warmup = [self.oracle_op("warm-oracle", workdir, rng, 2, 2, "monotone", 10),
                       self.tightness_op("warm-tight", workdir, rng, 2, 2),
                       self.reduce_op("warm-reduce", workdir, rng, 3, 2, 12)]


DISCOUNTS = (0.10, 0.12, 0.15, 0.17, 0.20)
MEMORY = 7
BASKET = 100.0
ANALYZE_WINDOWS = (3, 4, 5, 7)


def write_model(path: Path) -> None:
    truth = population.default_ground_truth(MEMORY)
    path.write_text(json.dumps({
        "feature_names": list(truth.feature_names),
        "alpha_weights": truth.alpha_weights.tolist(),
        "beta_weights": truth.beta_weights.tolist(),
        "pivot": truth.pivot,
        "discounts": list(DISCOUNTS),
    }))


class Panel:
    """A simulated panel's spec and what the checks compare its outputs with."""

    def __init__(self, size: int, horizon: int, seed: int) -> None:
        self.spec = population.PopulationSpec(size, horizon, MEMORY, DISCOUNTS)
        self.seed = seed
        self._expected = None

    def expected(self) -> dict:
        """Simulate the same spec and seed in memory; keep only what the checks
        need, so the full panel does not add to the run's peak memory."""
        if self._expected is None:
            truth = population.default_ground_truth(MEMORY)
            data = population.simulate_population(self.spec, truth, "uniform", self.seed)
            windows = list(ANALYZE_WINDOWS)
            self._expected = {
                "simulate": gate.simulate_summary(data),
                "analyze": gate.analyze_payload(analytics.reference_correlations(data, windows),
                                                analytics.monotonicity_table(data, windows)),
                "latest_features": data.features.reshape(
                    self.spec.size, self.spec.horizon, -1)[:, -1].copy(),
            }
        return self._expected


def check_allocate(panel: Panel, budget_value: float, payload: dict, csv_text: str) -> list[str]:
    ids, assignments = gate.parse_assignments(csv_text)
    if ids != list(range(panel.spec.size)) or payload["customers"] != panel.spec.size:
        return ["allocate: assignments CSV does not have one row per customer"]
    return gate.check_allocation(population.default_ground_truth(MEMORY),
                                 panel.expected()["latest_features"],
                                 model.DiscountSet(DISCOUNTS), BASKET, budget_value,
                                 payload["lambda"], payload["redemption"], assignments)


class CouponsFiles(Workload):
    """CLI chain simulate -> analyze -> allocate on CSV panels in the run's directory."""

    name = "coupons-files"
    # the median falls among the 600-customer allocations, the tail among the 900-customer ops
    tail_pct = 83
    rounds_generated = 8
    panel_sizes = (300, 600, 900)
    horizon = 30
    # budgets per customer, inside (redemption at lambda 10, at lambda 1) = (~0.22, ~7.0)
    budgets_per_customer = (1.5, 3.0, 4.5)

    def chain(self, key, workdir, model_path, panel):
        spec_path = workdir / f"{key}.spec.json"
        spec_path.write_text(json.dumps({
            "population": panel.spec.size, "horizon": panel.spec.horizon,
            "memory": MEMORY, "discounts": list(DISCOUNTS), "policy": "uniform"}))
        data = workdir / f"{key}.csv"
        ops = [
            CliOp(f"{key}-simulate", ["simulate", "--spec", str(spec_path), "--seed",
                                      str(panel.seed), "--out", str(data)], None,
                  lambda payload, _: gate.check_simulate(panel.expected()["simulate"], payload)),
            CliOp(f"{key}-analyze", ["analyze", "--dataset", str(data), "--memory",
                                     ",".join(map(str, ANALYZE_WINDOWS)),
                                     "--out", str(workdir / f"{key}.analyze.json")],
                  workdir / f"{key}.analyze.json",
                  lambda payload, _: gate.check_analyze(panel.expected()["analyze"], payload)),
        ]
        for j, per_customer in enumerate(self.budgets_per_customer):
            amount = per_customer * panel.spec.size
            out = workdir / f"{key}-b{j}.json"
            ops.append(CliOp(
                f"{key}-allocate{j}",
                ["allocate", "--model", str(model_path), "--customers", str(data),
                 "--budget", repr(amount), "--W", repr(BASKET), "--out", str(out)],
                out, lambda payload, csv, amount=amount: check_allocate(panel, amount, payload, csv),
                extra=workdir / f"{key}-b{j}.assignments.csv"))
        return ops

    def setup(self, seed, workdir):
        model_path = workdir / "model.json"
        write_model(model_path)
        self.rounds = []
        for r in range(self.rounds_generated):
            ops = []
            for j, size in enumerate(self.panel_sizes):
                panel = Panel(size, self.horizon, seed * 1000 + r * 10 + j)
                ops += self.chain(f"panel-r{r}-{j}", workdir, model_path, panel)
            self.rounds.append(ops)
        self.warmup = self.chain("warm", workdir, model_path, Panel(60, self.horizon, seed))


@dataclass
class Request:
    """A budgeted allocation request on a slice of the customer pool."""

    truth: model.AllocationModel
    X: np.ndarray
    budget: float
    discounts: model.DiscountSet = model.DiscountSet(DISCOUNTS)

    def __call__(self):
        config = budget.BudgetConfig(BASKET, self.budget)
        lam = budget.tune_lambda(self.truth, self.X, config, self.discounts)
        assignments = model.myopic_assign(self.truth, self.X, lam, self.discounts)
        return lam, model.projected_redemption(self.truth, self.X, assignments, BASKET), assignments

    def check(self, result) -> list[str]:
        lam, redemption, assignments = result
        return gate.check_allocation(self.truth, self.X, self.discounts, BASKET, self.budget,
                                     lam, redemption, assignments)


@dataclass
class Refit:
    """Newton refit of the sensitivity weights on a history panel."""

    features: np.ndarray
    coupons: np.ndarray
    outcomes: np.ndarray
    alpha: np.ndarray

    def __call__(self):
        return (fitting.fit_beta(self.features, self.coupons, self.outcomes, self.alpha),)

    def check(self, result) -> list[str]:
        return gate.check_fit(result[0], self.features, self.coupons, self.outcomes, self.alpha)


class CouponsBatch(Workload):
    """In-memory budgeted allocation requests on 5k-200k customers, plus a refit."""

    name = "coupons-batch"
    # the median falls among the refit and the five 20k requests, the tail among the 100k ones
    tail_pct = 80
    rounds_generated = 8
    pool_size = 200_000
    pool_chunk = 10_000
    pool_horizon = 8
    history = (5_000, 30)  # customers, days of the refit panel
    request_sizes = (5_000, 5_000, 10_000, 10_000, 20_000, 20_000, 20_000, 20_000, 20_000,
                     50_000, 50_000, 100_000, 100_000, 200_000, 200_000)
    # requests whose budget is above redemption at the lower lambda bound: the early return
    early_return = (3, 10)
    # budgets per customer, inside (redemption at lambda 10, at lambda 1) = (~0.22, ~7.0)
    interior_budget = (0.9, 6.3)
    early_budget = 7.6

    def setup(self, seed, workdir):
        truth = population.default_ground_truth(MEMORY)
        chunks = []
        for c in range(self.pool_size // self.pool_chunk):
            spec = population.PopulationSpec(self.pool_chunk, self.pool_horizon, MEMORY, DISCOUNTS)
            data = population.simulate_population(spec, truth, "uniform", seed * 1000 + c)
            # copy the last day, so the chunk's full history is freed
            chunks.append(data.features.reshape(self.pool_chunk, self.pool_horizon, -1)[:, -1].copy())
        pool = np.vstack(chunks)
        size, days = self.history
        spec = population.PopulationSpec(size, days, MEMORY, DISCOUNTS)
        past = population.simulate_population(spec, truth, "uniform", seed * 1000 + 999)
        refit = Refit(past.features, past.coupons, past.purchases, truth.alpha_values(past.features))

        rng = np.random.default_rng([seed, 4])
        lo, hi = self.interior_budget
        self.rounds = []
        for r in range(self.rounds_generated):
            ops = [CallOp(f"refit-r{r}", "refit", refit, refit.check)]
            for j, n in enumerate(self.request_sizes):
                start = int(rng.integers(0, self.pool_size - n + 1))
                per_customer = self.early_budget if j in self.early_return else rng.uniform(lo, hi)
                request = Request(truth, pool[start:start + n], per_customer * n)
                ops.append(CallOp(f"request-r{r}-{j}", "request", request, request.check))
            self.rounds.append(ops)
        small = Request(truth, pool[:2_000], 3.0 * 2_000)
        rows = 100 * days  # the first 100 customers' histories
        warm_fit = Refit(past.features[:rows], past.coupons[:rows], past.purchases[:rows],
                         refit.alpha[:rows])
        self.warmup = [CallOp("warm-request", "request", small, small.check),
                       CallOp("warm-refit", "refit", warm_fit, warm_fit.check)]


WORKLOADS = {cls.name: cls for cls in (CyclesSolve, CyclesCertify, CouponsFiles, CouponsBatch)}
