"""Command-line interface: refcycle <solve|oracle|reduce|tightness|allocate|simulate|analyze|selftest>.

All results are machine-readable JSON on stdout (or --out).  Floats are
printed with 17 significant digits so outputs round-trip doubles exactly and
identical inputs plus --seed give byte-identical results.  A run manifest
(command, input hashes, seed, version, timing, output paths) goes to stderr,
and next to --out when set.

Each command is parsed by its own parser, built from :data:`COMMANDS`; the
full ``refcycle`` parser is built only for help, an unknown command and
unrecognized arguments, so those messages read as they always have.

Each command reads its inputs, starts the manifest, computes, and hands its
payload to :func:`_emit`, the one report path; ``wall_time_s`` is the time
from reading the inputs to writing the result, for every command.

Exit codes: 0 success, 2 validation/usage error (a result with a non-finite
float included), 3 violated-assumption error (for example a reduction step
with no non-decreasing rewrite, a budget the search interval cannot meet, or
a diagnostic cell with no rows or purchases).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import (
    BudgetConfig,
    EmptyCellError,
    InfeasibleBudgetError,
    simulate_population,
)
from .allocator.analytics import _diagnostics
from .allocator.budget import _tuned_choice
# perfbench/tracing.py wraps these names in this module
from .allocator import (  # noqa: F401
    monotonicity_table,
    myopic_assign,
    projected_redemption,
    purchase_prob_table,
    reference_correlations,
    tune_lambda,
)
from .core import GeneratorCycle, PriceCycle, PriceGrid, cycle_objective, expand, is_l_up_1_down
from .fileio import (
    cache_path,
    customers_from_dataset,
    file_sha256,
    format_cycle,
    format_price,
    gain_table_to_dict,
    load_dataset,
    load_gain_table,
    load_model,
    load_simulation_spec,
    parse_cycle_text,
    parse_price_list,
    save_dataset,
    write_csv_rows,
)
from .instances import integer_grid, nonmonotone_demo_table, random_monotone_table
from .oracle import StateGraph, check_node_budget, max_mean_cycle, optimal_cycles_unique, simulate
from .reduce import ReductionViolationError, reduce_to_l_up_1_down
from .solver import bellman_residual, solve
from .tightness import build as build_tightness
from .tightness import verify_uniqueness


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------


def _render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {_render_json(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return json.dumps(format_price(value))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"the result holds {value}, which JSON cannot carry")
        return format(value, ".17g")
    return json.dumps(value)


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def _manifest(args: argparse.Namespace, inputs: list[str | Path],
              digests: dict[str, str] | None = None) -> dict:
    """The run manifest of a command that has read its inputs; its clock starts
    here, and ``wall_time_s`` holds the start until :func:`_emit` stops it.

    Each of ``inputs`` is hashed here; ``digests`` gives the sha256 of inputs
    already hashed as they were read (a gain table, a panel), so no file is read twice."""
    return {
        "command": args.command,
        "inputs": {**{str(p): file_sha256(p) for p in inputs}, **(digests or {})},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": time.perf_counter(),
        "outputs": [],
    }


def _emit(payload: dict, out: str | None, manifest: dict, write_files=None) -> int:
    """Render the payload, then call ``write_files`` (a result that cannot render
    leaves no file), write the payload to ``out`` or stdout, stop the clock, write
    the manifest to stderr (and next to ``out``), and return exit code 0."""
    text = _render_json(payload) + "\n"
    if write_files:
        write_files()
    if out:
        Path(out).write_text(text)
        manifest["outputs"].append(str(out))
    else:
        sys.stdout.write(text)
    manifest["wall_time_s"] = time.perf_counter() - manifest["wall_time_s"]
    manifest_text = json.dumps(manifest, sort_keys=True)
    print(manifest_text, file=sys.stderr)
    if out:
        Path(out).with_name(Path(out).name + ".manifest.json").write_text(manifest_text + "\n")
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    table, digest = load_gain_table(args.gains, args.memory)
    manifest = _manifest(args, [], {args.gains: digest})
    result = solve(table)
    return _emit({
        "opt": result.opt,
        "generator": format_cycle(result.generator, table.grid),
        "cycle": format_cycle(result.cycle, table.grid),
        "bias": list(result.bias),
        "residual": bellman_residual(result, table),
        "reference_monotone": not result.assumption_violated,
    }, args.out, manifest)


def _cmd_oracle(args) -> int:
    table, digest = load_gain_table(args.gains, args.memory)
    manifest = _manifest(args, [], {args.gains: digest})
    result = max_mean_cycle(StateGraph.build(table))
    payload = {
        "value": result.value,
        "cycle": format_cycle(result.cycle, table.grid),
        "nodes": result.nodes,
    }
    if args.horizon is not None:
        payload["simulation"] = {
            "horizon": args.horizon,
            "running_average": simulate(result.cycle, table, args.horizon),
        }
    return _emit(payload, args.out, manifest)


def _cmd_reduce(args) -> int:
    table, digest = load_gain_table(args.gains, args.memory)
    cycle = parse_cycle_text(args.cycle, table.grid)
    manifest = _manifest(args, [], {args.gains: digest})
    final, steps = reduce_to_l_up_1_down(cycle, table)
    _, generator = is_l_up_1_down(final, table.grid)
    return _emit({
        "initial": format_cycle(cycle, table.grid),
        "initial_objective": steps[0].objective_before if steps else cycle_objective(final, table),
        "final": format_cycle(final, table.grid),
        "final_objective": cycle_objective(final, table),
        "generator": format_cycle(generator, table.grid) if generator else None,
        "steps": [
            {
                "kind": step.kind,
                "before": format_cycle(step.before, table.grid),
                "after": format_cycle(step.after, table.grid),
                "objective_before": step.objective_before,
                "objective_after": step.objective_after,
            }
            for step in steps
        ],
    }, args.out, manifest)


def _cmd_tightness(args) -> int:
    grid = PriceGrid(tuple(parse_price_list(args.prices)), args.memory)
    target = GeneratorCycle.from_prices(grid, parse_price_list(args.target))
    check_node_budget(len(grid), grid.memory)  # before the n x n table is built
    manifest = _manifest(args, [])
    inst = build_tightness(target, grid)
    unique = verify_uniqueness(inst)
    graph_value = max_mean_cycle(StateGraph.build(inst.table)).value
    return _emit({
        "gain_table": gain_table_to_dict(inst.table),
        "target": format_cycle(target, grid),
        "expansion": format_cycle(expand(target, grid), grid),
        "optimal_value": inst.optimal_value,
        "bias": inst.bias,
        "penalty": inst.penalty,
        "verified_unique": unique,
        "oracle_value": graph_value,
    }, args.out, manifest)


def _cmd_allocate(args) -> int:
    model, discounts = load_model(args.model)
    dataset = load_dataset(args.customers)
    if model.feature_names != dataset.feature_names:
        raise ValueError(f"the model's features {list(model.feature_names)} are not the "
                         f"panel's feature columns {list(dataset.feature_names)}")
    ids, X = customers_from_dataset(dataset)
    manifest = _manifest(args, [args.model], {args.customers: dataset.source_sha256})
    config = BudgetConfig(basket_value=args.W, budget=args.budget)
    lam, assignments, chosen_q, redemption = _tuned_choice(model, X, config, discounts)
    if args.out:
        csv_path = Path(args.out).with_name(Path(args.out).stem + ".assignments.csv")
    else:
        csv_path = Path("assignments.csv")

    def write_assignments():
        with csv_path.open("w", newline="") as handle:
            handle.write("customer_id,discount,purchase_prob\n")
            write_csv_rows(handle, [ids, assignments, chosen_q], "\n")

    manifest["outputs"].append(str(csv_path))
    return _emit({
        "lambda": lam,
        "redemption": redemption,
        "expected_revenue": float(np.sum((1.0 - assignments) * args.W * chosen_q)),
        "customers": len(ids),
        "assignments_csv": str(csv_path),
    }, args.out, manifest, write_assignments)


def _cmd_simulate(args) -> int:
    spec, truth, policy = load_simulation_spec(args.spec)
    manifest = _manifest(args, [args.spec])
    dataset = simulate_population(spec, truth, policy, seed=args.seed)
    out_path = Path(args.out) if args.out else Path("dataset.csv")
    sidecar = save_dataset(dataset, out_path)
    manifest["outputs"] += [str(p) for p in (out_path, sidecar, cache_path(out_path))
                            if p.exists()]
    return _emit({
        "rows": dataset.num_rows,
        "customers": spec.size,
        "horizon": spec.horizon,
        "purchase_rate": float(dataset.purchases.mean()),
        "dataset": str(out_path),
        "sidecar": str(sidecar),
    }, None, manifest)


def _cmd_analyze(args) -> int:
    dataset = load_dataset(args.dataset)
    windows = [int(tok) for tok in str(args.memory).replace(",", " ").split()]
    manifest = _manifest(args, [], {args.dataset: dataset.source_sha256})
    correlations, monotonicity = _diagnostics(dataset, windows)
    return _emit({
        "correlations": [asdict(row) for row in correlations],
        "monotonicity": [asdict(row) for row in monotonicity],
    }, args.out, manifest)


def _cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    grid3 = integer_grid(3, 3)
    expanded = expand(GeneratorCycle.from_prices(grid3, [1, 2]), grid3)
    checks.append(("expand (1,2) memory 3 -> 1222",
                   expanded.tokens == (0, 1, 1, 1)))
    expanded = expand(GeneratorCycle.from_prices(grid3, [1, 3, 2]), grid3)
    checks.append(("expand (1,3,2) memory 3 -> 13332",
                   expanded.tokens == (0, 2, 2, 2, 1)))
    ok, _ = is_l_up_1_down(PriceCycle.from_prices(grid3, [1, 2]), grid3)
    checks.append(("12 is not an expansion under memory 3", not ok))
    ok, _ = is_l_up_1_down(PriceCycle.from_prices(grid3, [1, 2, 2, 2, 3, 3, 3, 2]), grid3)
    checks.append(("12223332 is not an expansion (2 recurs)", not ok))

    demo = nonmonotone_demo_table()
    demo_graph = StateGraph.build(demo)
    oracle_result = max_mean_cycle(demo_graph)
    checks.append(("demo table: oracle value exactly 1.0", oracle_result.value == 1.0))
    checks.append((
        "demo table: witness objective matches value",
        cycle_objective(oracle_result.cycle, demo) == oracle_result.value,
    ))
    checks.append(("demo table: optimum not unique (12233 and 414243 tie)",
                   optimal_cycles_unique(demo_graph)[1] is None))
    solved = solve(demo)
    checks.append(("demo table: non-monotone flagged", solved.assumption_violated))
    checks.append(("demo table: best generator value 1.0", solved.opt == 1.0))

    grid2 = integer_grid(2, 2)
    inst = build_tightness(GeneratorCycle.from_prices(grid2, [1, 2]), grid2)
    checks.append(("two-price target uniquely optimal", verify_uniqueness(inst)))

    rng = np.random.default_rng(args.seed)
    table = random_monotone_table(rng, 4, 2)
    cycle = PriceCycle(tuple(int(x) for x in rng.integers(0, 4, size=9)))
    final, _ = reduce_to_l_up_1_down(cycle, table)
    ok, _ = is_l_up_1_down(final, table.grid)
    improved = cycle_objective(final, table) >= cycle_objective(cycle, table) - 1e-12
    checks.append(("random reduction reaches l-up-1-down without loss", ok and improved))

    failures = 0
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        failures += 0 if passed else 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_GAINS = ("--gains", {"required": True})
_OUT = ("--out", {"help": "write the JSON result to this path"})
_SEED = ("--seed", {"type": int, "default": 0})

# command -> (handler, help, its arguments as (flag, add_argument keywords))
COMMANDS = {
    "solve": (_cmd_solve, "optimal distinct-price cycle for a gain table", [
        _GAINS, ("--memory", {"type": int, "help": "memory length for CSV gain tables"}), _OUT]),
    "oracle": (_cmd_oracle, "exact optimum over the suffix-minimum state graph", [
        _GAINS, ("--memory", {"type": int}),
        ("--horizon", {"type": int, "help": "also replay the witness this many steps"}), _OUT]),
    "reduce": (_cmd_reduce, "rewrite a cycle into l-up-1-down form", [
        _GAINS, ("--cycle", {"required": True, "help": "whitespace-separated price values"}),
        ("--memory", {"type": int}), _OUT]),
    "tightness": (_cmd_tightness, "build a table whose unique optimum is a chosen cycle", [
        ("--prices", {"required": True, "help": "whitespace-separated price values"}),
        ("--memory", {"type": int, "required": True}),
        ("--target", {"required": True, "help": "generator cycle of distinct prices"}), _OUT]),
    "allocate": (_cmd_allocate, "assign coupons under a redemption budget", [
        ("--model", {"required": True}),
        ("--customers", {"required": True, "help": "dataset CSV with sidecar"}),
        ("--budget", {"type": float, "required": True}),
        ("--W", {"type": float, "required": True, "help": "average basket value"}), _OUT]),
    "simulate": (_cmd_simulate, "generate a synthetic coupon dataset", [
        ("--spec", {"required": True}),
        ("--out", {"help": "write the panel CSV to this path (default dataset.csv) and "
                           "its sidecar next to it; the JSON result goes to stdout"}), _SEED]),
    "analyze": (_cmd_analyze, "reference-effect diagnostics on a dataset", [
        ("--dataset", {"required": True}),
        ("--memory", {"required": True, "help": "comma-separated window lengths"}), _OUT]),
    "selftest": (_cmd_selftest, "run the bundled fixture checks", [_SEED]),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``parser`` the arguments of command ``name`` and its handler."""
    handler, _, arguments = COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(command=name, func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refcycle",
        description="Price-cycle optimization under peak-end reference effects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = None, None
    if argv and argv[0] in COMMANDS:
        parser = _add_command(argparse.ArgumentParser(prog=f"refcycle {argv[0]}"), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
    if args is None or extra:  # no command, or arguments left over: the full parser reports it
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReductionViolationError, InfeasibleBudgetError, EmptyCellError) as exc:
        print(f"refcycle: assumption violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OverflowError, OSError, MemoryError) as exc:
        print(f"refcycle: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
