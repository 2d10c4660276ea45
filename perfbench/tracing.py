"""Span tracing from outside the program.

The traced run replaces refcycle's public functions, at the names their callers
look them up by, with wrappers that record one span per call: name, start, end,
operation id and parent span.  Spans stay in memory; `layer_metrics` turns them
into the per-layer metrics.  A layer's self time is its span's duration minus
the time its child spans cover.  The untraced run installs nothing.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
from collections import Counter, defaultdict

# CLI commands whose median cli self time is reported as cli.<command>_p50_ms
CLI_COMMANDS = ("solve", "oracle", "tightness", "reduce", "simulate", "analyze", "allocate")

# input files each command hashes into its run manifest
_HASHED_INPUTS = {
    "solve": ("--gains",),
    "oracle": ("--gains",),
    "reduce": ("--gains",),
    "tightness": (),
    "simulate": ("--spec",),
    "analyze": ("--dataset",),
    "allocate": ("--model", "--customers"),
}


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _sidecar(path) -> str:
    return str(path) + ".meta.json"


# Counters: each takes (counts, args, kwargs, result) after a wrapped call returns.

def _count_gain_table(counts, args, kwargs, result):
    counts["fileio.bytes_read"] += _file_size(args[0])


def _count_save_dataset(counts, args, kwargs, result):
    counts["fileio.rows"] += args[0].num_rows
    counts["fileio.bytes_written"] += _file_size(args[1]) + _file_size(result)


def _count_load_dataset(counts, args, kwargs, result):
    counts["fileio.rows"] += result.num_rows
    counts["fileio.bytes_read"] += _file_size(args[0]) + _file_size(_sidecar(args[0]))


def _count_graph(counts, args, kwargs, result):
    counts["oracle.graphs_built"] += 1
    counts["oracle.states"] += result.num_nodes
    counts["oracle.edges"] += result.num_nodes * result.num_actions


def _count_reduce(counts, args, kwargs, result):
    counts["reduce.steps"] += len(result[1])
    counts["reduce.input_tokens"] += len(args[0])


def _count_population(counts, args, kwargs, result):
    counts["allocator.population.rows"] += result.num_rows


def _count_tune(counts, args, kwargs, result):
    counts["allocator.budget.tune_lambda_calls"] += 1


def _count_probe(counts, args, kwargs, result):
    counts["allocator.budget.probes"] += 1
    counts["allocator.model.rows_scored"] += len(args[2])


def _count_scored(counts, args, kwargs, result):
    counts["allocator.model.rows_scored"] += len(args[1])


def _count_redemption(counts, args, kwargs, result):
    counts["allocator.model.rows_scored"] += len(args[2])


def _count_fit(counts, args, kwargs, result):
    counts["allocator.fitting.fit_calls"] += 1


def _count_sigmoid(counts, args, kwargs, result):
    counts["allocator.fitting.sigmoid_calls"] += 1


def _count_solve(counts, args, kwargs, result):
    counts["solver.solve_calls"] += 1


# (module, attribute, span name or None for a count-only hook, counter or None)
HOOKS = (
    ("refcycle.cli", "main", "cli.main", None),
    ("refcycle.cli", "load_gain_table", "fileio.load_gain_table", _count_gain_table),
    ("refcycle.cli", "save_dataset", "fileio.save_dataset", _count_save_dataset),
    ("refcycle.cli", "load_dataset", "fileio.load_dataset", _count_load_dataset),
    ("refcycle.cli", "customers_from_dataset", "fileio.customers_from_dataset", None),
    ("refcycle.cli", "solve", "solver.solve", _count_solve),
    ("refcycle.cli", "bellman_residual", "solver.bellman_residual", None),
    ("refcycle.cli", "max_mean_cycle", "oracle.max_mean_cycle", None),
    ("refcycle.cli", "simulate", "oracle.simulate", None),
    ("refcycle.tightness", "optimal_cycles_unique", "oracle.optimal_cycles_unique", None),
    ("refcycle.cli", "build_tightness", "tightness.build", None),
    ("refcycle.cli", "verify_uniqueness", "tightness.verify_uniqueness", None),
    ("refcycle.cli", "reduce_to_l_up_1_down", "reduce.reduce_to_l_up_1_down", _count_reduce),
    ("refcycle.cli", "simulate_population", "allocator.population.simulate_population",
     _count_population),
    ("refcycle.cli", "reference_correlations", "allocator.analytics.reference_correlations", None),
    ("refcycle.cli", "monotonicity_table", "allocator.analytics.monotonicity_table", None),
    ("refcycle.cli", "tune_lambda", "allocator.budget.tune_lambda", _count_tune),
    ("refcycle.allocator.budget", "tune_lambda", "allocator.budget.tune_lambda", _count_tune),
    ("refcycle.allocator.budget", "myopic_assign", "allocator.model.myopic_assign", None),
    ("refcycle.allocator.budget", "projected_redemption", "allocator.model.projected_redemption",
     _count_probe),
    ("refcycle.cli", "myopic_assign", "allocator.model.myopic_assign", None),
    ("refcycle.cli", "projected_redemption", "allocator.model.projected_redemption",
     _count_redemption),
    ("refcycle.cli", "purchase_prob_table", "allocator.model.purchase_prob_table", _count_scored),
    ("refcycle.allocator.model", "myopic_assign", "allocator.model.myopic_assign", None),
    ("refcycle.allocator.model", "projected_redemption", "allocator.model.projected_redemption",
     _count_redemption),
    ("refcycle.allocator.model", "purchase_prob_table", "allocator.model.purchase_prob_table",
     _count_scored),
    ("refcycle.allocator.fitting", "fit_beta", "allocator.fitting.fit_beta", _count_fit),
    ("refcycle.allocator.fitting", "sigmoid", None, _count_sigmoid),
)


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, op id, parent index]
        self.counts: Counter = Counter()
        self.op_commands: dict[int, str] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self.op_id, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def operation(self, op_id: int, command: str, argv: list[str] | None):
        """Root span of one operation; also records the bytes its manifest hashes."""
        self.op_id = op_id
        self.op_commands[op_id] = command
        if argv is not None:
            for flag in _HASHED_INPUTS.get(command, ()):
                self.counts["cli.input_bytes_hashed"] += _file_size(argv[argv.index(flag) + 1])
        return self.span("op")

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, counter in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
            graph_cls = importlib.import_module("refcycle.oracle").StateGraph
            build = graph_cls.__dict__["build"]
            saved.append((graph_cls, "build", build))
            graph_cls.build = classmethod(self._wrap("oracle.build", build.__func__, _count_graph))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its direct children.

    One thread runs everything, so children of one span never overlap.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, _, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _p50_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, untraced_op_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    ``untraced_op_s`` is the summed latency of the same operations run without
    wrappers, which gives the tracing overhead.
    """
    own = _self_times(tracer.spans)
    self_ms: dict[str, float] = defaultdict(float)
    cli_self: dict[str, list[float]] = defaultdict(list)
    graphs_in_tightness = 0
    op_total = 0.0
    for (name, start, end, op_id, _), own_s in zip(tracer.spans, own):
        self_ms[name] += 1000.0 * own_s
        if name == "op":
            op_total += end - start
        elif name == "cli.main":
            cli_self[tracer.op_commands[op_id]].append(own_s)
        elif name == "oracle.build" and tracer.op_commands[op_id] == "tightness":
            graphs_in_tightness += 1
    counts = tracer.counts
    ms = lambda name: (self_ms[name], "ms")  # noqa: E731
    count = lambda name: (float(counts[name]), "count")  # noqa: E731
    solved_ms = self_ms["oracle.max_mean_cycle"] + self_ms["oracle.optimal_cycles_unique"]
    tightness_ops = len(cli_self["tightness"])
    tune_calls = counts["allocator.budget.tune_lambda_calls"]
    attributed = sum(value for name, value in self_ms.items() if name != "op")

    metrics = {"cli.self_ms": ms("cli.main")}
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_p50_ms"] = (_p50_ms(cli_self[command]), "ms")
    metrics.update({
        "cli.input_bytes_hashed": (float(counts["cli.input_bytes_hashed"]), "bytes"),
        "fileio.load_gain_table_ms": ms("fileio.load_gain_table"),
        "fileio.save_dataset_ms": ms("fileio.save_dataset"),
        "fileio.load_dataset_ms": ms("fileio.load_dataset"),
        "fileio.customers_from_dataset_ms": ms("fileio.customers_from_dataset"),
        "fileio.bytes_written": (float(counts["fileio.bytes_written"]), "bytes"),
        "fileio.bytes_read": (float(counts["fileio.bytes_read"]), "bytes"),
        "fileio.rows": count("fileio.rows"),
        "solver.solve_ms": ms("solver.solve"),
        "solver.solve_calls": count("solver.solve_calls"),
        "solver.bellman_residual_ms": ms("solver.bellman_residual"),
        "oracle.build_ms": ms("oracle.build"),
        "oracle.max_mean_cycle_ms": ms("oracle.max_mean_cycle"),
        "oracle.unique_ms": ms("oracle.optimal_cycles_unique"),
        "oracle.simulate_ms": ms("oracle.simulate"),
        "oracle.graphs_built": count("oracle.graphs_built"),
        "oracle.states": count("oracle.states"),
        "oracle.edges": count("oracle.edges"),
        "oracle.us_per_edge": (
            1000.0 * solved_ms / counts["oracle.edges"] if counts["oracle.edges"] else 0.0, "us"),
        "tightness.build_ms": ms("tightness.build"),
        "tightness.verify_ms": ms("tightness.verify_uniqueness"),
        "tightness.graphs_per_call": (
            graphs_in_tightness / tightness_ops if tightness_ops else 0.0, "count"),
        "reduce.reduce_ms": ms("reduce.reduce_to_l_up_1_down"),
        "reduce.steps": count("reduce.steps"),
        "reduce.input_tokens": count("reduce.input_tokens"),
        "allocator.population.simulate_ms": ms("allocator.population.simulate_population"),
        "allocator.population.rows": count("allocator.population.rows"),
        "allocator.analytics.correlations_ms": ms("allocator.analytics.reference_correlations"),
        "allocator.analytics.monotonicity_ms": ms("allocator.analytics.monotonicity_table"),
        "allocator.budget.tune_lambda_ms": ms("allocator.budget.tune_lambda"),
        "allocator.budget.probes": count("allocator.budget.probes"),
        "allocator.budget.probes_per_call": (
            counts["allocator.budget.probes"] / tune_calls if tune_calls else 0.0, "count"),
        "allocator.model.myopic_assign_ms": ms("allocator.model.myopic_assign"),
        "allocator.model.projected_redemption_ms": ms("allocator.model.projected_redemption"),
        "allocator.model.purchase_prob_table_ms": ms("allocator.model.purchase_prob_table"),
        "allocator.model.rows_scored": count("allocator.model.rows_scored"),
        "allocator.fitting.fit_beta_ms": ms("allocator.fitting.fit_beta"),
        "allocator.fitting.newton_steps": (
            float(counts["allocator.fitting.sigmoid_calls"] - counts["allocator.fitting.fit_calls"]),
            "count"),
        "trace.overhead_share": (
            op_total / untraced_op_s - 1.0 if untraced_op_s else 0.0, "share"),
        "trace.attributed_share": (attributed / (1000.0 * op_total) if op_total else 0.0, "share"),
    })
    return metrics
