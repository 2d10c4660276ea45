"""Command-line interface: refcycle <solve|oracle|reduce|tightness|allocate|simulate|analyze|selftest>.

All results are machine-readable JSON on stdout (or --out).  Floats are
printed with 17 significant digits so outputs round-trip doubles exactly and
identical inputs plus --seed give byte-identical results.  A run manifest
(command, input hashes, seed, version, timing, output paths) goes to stderr,
and next to --out when set.

Exit codes: 0 success, 2 validation/usage error, 3 violated-assumption error
(for example a reduction step with no non-decreasing rewrite, a budget the
search interval cannot meet, or a diagnostic cell with no rows or purchases).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import (
    BudgetConfig,
    ConstantPolicy,
    EmptyCellError,
    InfeasibleBudgetError,
    MyopicPolicy,
    PopulationSpec,
    default_ground_truth,
    monotonicity_table,
    reference_correlations,
    simulate_population,
)
from .allocator.budget import _tuned_choice
# perfbench/tracing.py wraps these names in this module
from .allocator import (  # noqa: F401
    myopic_assign,
    projected_redemption,
    purchase_prob_table,
    tune_lambda,
)
from .core import GeneratorCycle, PriceCycle, PriceGrid, cycle_objective, expand, is_l_up_1_down
from .fileio import (
    customers_from_dataset,
    format_cycle,
    format_price,
    gain_table_to_dict,
    load_dataset,
    load_gain_table,
    load_model,
    load_simulation_spec,
    model_from_dict,
    parse_cycle_text,
    parse_price_list,
    save_dataset,
    write_csv_rows,
)
from .instances import integer_grid, nonmonotone_demo_table, random_monotone_table
from .oracle import NodeBudgetError, StateGraph, max_mean_cycle, optimal_cycles_unique, simulate
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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        return json.dumps(format_price(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return json.dumps(value)


def dumps_result(payload: dict) -> str:
    return _render_json(payload) + "\n"


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(payload: dict, out: str | None, manifest: dict) -> None:
    text = dumps_result(payload)
    if out:
        Path(out).write_text(text)
        manifest["outputs"].append(str(out))
    else:
        sys.stdout.write(text)
    manifest_text = json.dumps(manifest, sort_keys=True)
    print(manifest_text, file=sys.stderr)
    if out:
        Path(out).with_name(Path(out).name + ".manifest.json").write_text(manifest_text + "\n")


def _manifest(args: argparse.Namespace, inputs: list[str | Path]) -> dict:
    return {
        "command": args.command,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": None,
        "outputs": [],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    table = load_gain_table(args.gains, args.memory)
    manifest = _manifest(args, [args.gains])
    start = time.perf_counter()
    result = solve(table)
    manifest["wall_time_s"] = time.perf_counter() - start
    payload = {
        "opt": result.opt,
        "generator": format_cycle(result.generator, table.grid),
        "cycle": format_cycle(result.cycle, table.grid),
        "bias": list(result.bias),
        "residual": bellman_residual(result, table),
        "reference_monotone": not result.assumption_violated,
    }
    _emit(payload, args.out, manifest)
    return 0


def _cmd_oracle(args) -> int:
    table = load_gain_table(args.gains, args.memory)
    manifest = _manifest(args, [args.gains])
    start = time.perf_counter()
    graph = StateGraph.build(table)
    result = max_mean_cycle(graph)
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
    manifest["wall_time_s"] = time.perf_counter() - start
    _emit(payload, args.out, manifest)
    return 0


def _cmd_reduce(args) -> int:
    table = load_gain_table(args.gains, args.memory)
    cycle = parse_cycle_text(args.cycle, table.grid)
    manifest = _manifest(args, [args.gains])
    start = time.perf_counter()
    final, steps = reduce_to_l_up_1_down(cycle, table)
    manifest["wall_time_s"] = time.perf_counter() - start
    _, generator = is_l_up_1_down(final, table.grid)
    payload = {
        "initial": format_cycle(cycle, table.grid),
        "initial_objective": cycle_objective(cycle, table),
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
    }
    _emit(payload, args.out, manifest)
    return 0


def _cmd_tightness(args) -> int:
    grid = PriceGrid(tuple(parse_price_list(args.prices)), args.memory)
    target = GeneratorCycle.from_prices(grid, parse_price_list(args.target))
    manifest = _manifest(args, [])
    start = time.perf_counter()
    inst = build_tightness(target, grid)
    unique = verify_uniqueness(inst)
    graph_value = max_mean_cycle(StateGraph.build(inst.table)).value
    manifest["wall_time_s"] = time.perf_counter() - start
    payload = {
        "gain_table": gain_table_to_dict(inst.table),
        "target": format_cycle(target, grid),
        "expansion": format_cycle(expand(target, grid), grid),
        "optimal_value": float(inst.optimal_value),
        "bias": [float(b) for b in inst.bias],
        "penalty": inst.penalty,
        "verified_unique": unique,
        "oracle_value": graph_value,
    }
    _emit(payload, args.out, manifest)
    return 0


def _cmd_allocate(args) -> int:
    model, discounts = load_model(args.model)
    dataset = load_dataset(args.customers)
    ids, X = customers_from_dataset(dataset)
    manifest = _manifest(args, [args.model, args.customers])
    start = time.perf_counter()
    config = BudgetConfig(basket_value=args.W, budget=args.budget)
    lam, assignments, chosen_q, redemption = _tuned_choice(model, X, config, discounts)
    revenue = float(np.sum((1.0 - assignments) * args.W * chosen_q))
    manifest["wall_time_s"] = time.perf_counter() - start

    if args.out:
        csv_path = Path(args.out).with_name(Path(args.out).stem + ".assignments.csv")
    else:
        csv_path = Path("assignments.csv")
    with csv_path.open("w", newline="") as handle:
        handle.write("customer_id,discount,purchase_prob\n")
        write_csv_rows(handle, [(ids, str), (assignments, float), (chosen_q, float)], "\n")
    manifest["outputs"].append(str(csv_path))

    payload = {
        "lambda": lam,
        "redemption": redemption,
        "expected_revenue": revenue,
        "customers": len(ids),
        "assignments_csv": str(csv_path),
    }
    _emit(payload, args.out, manifest)
    return 0


def _parse_policy(payload, model):
    if payload in (None, "uniform"):
        return "uniform"
    if isinstance(payload, dict):
        kind = payload.get("type")
        if kind == "constant":
            return ConstantPolicy(float(payload["value"]))
        if kind == "myopic":
            return MyopicPolicy(model, float(payload.get("shadow_price", 1.0)))
    raise ValueError(f"unsupported policy spec {payload!r}")


def _cmd_simulate(args) -> int:
    raw = load_simulation_spec(args.spec)
    manifest = _manifest(args, [args.spec])
    spec = PopulationSpec(
        size=raw["population"],
        horizon=raw["horizon"],
        memory=raw.get("memory", 7),
        discounts=tuple(raw.get("discounts", (0.10, 0.12, 0.15, 0.17, 0.20))),
    )
    if "ground_truth" in raw:
        truth = model_from_dict(raw["ground_truth"], spec.feature_names)
    else:
        truth = default_ground_truth(spec.memory)
    policy = _parse_policy(raw.get("policy"), truth)
    start = time.perf_counter()
    dataset = simulate_population(spec, truth, policy, seed=args.seed)
    out_path = Path(args.out) if args.out else Path("dataset.csv")
    sidecar = save_dataset(dataset, out_path)
    manifest["wall_time_s"] = time.perf_counter() - start
    manifest["outputs"] += [str(out_path), str(sidecar)]
    payload = {
        "rows": dataset.num_rows,
        "customers": spec.size,
        "horizon": spec.horizon,
        "purchase_rate": float(dataset.purchases.mean()),
        "dataset": str(out_path),
        "sidecar": str(sidecar),
    }
    _emit(payload, None, manifest)
    return 0


def _cmd_analyze(args) -> int:
    dataset = load_dataset(args.dataset)
    windows = [int(tok) for tok in str(args.memory).replace(",", " ").split()]
    manifest = _manifest(args, [args.dataset])
    start = time.perf_counter()
    correlations = reference_correlations(dataset, windows)
    monotonicity = monotonicity_table(dataset, windows)
    manifest["wall_time_s"] = time.perf_counter() - start
    payload = {
        "correlations": [
            {"memory": row.memory, "corr_max": row.corr_max, "corr_avg": row.corr_avg}
            for row in correlations
        ],
        "monotonicity": [
            {
                "memory": row.memory,
                "small_coupon_pct": row.small_coupon_pct,
                "large_coupon_pct": row.large_coupon_pct,
            }
            for row in monotonicity
        ],
    }
    _emit(payload, args.out, manifest)
    return 0


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
    oracle_result = max_mean_cycle(StateGraph.build(demo))
    checks.append(("demo table: oracle value exactly 1.0", oracle_result.value == 1.0))
    checks.append((
        "demo table: witness objective matches value",
        cycle_objective(oracle_result.cycle, demo) == oracle_result.value,
    ))
    checks.append(("demo table: optimum not unique (12233 and 414243 tie)",
                   optimal_cycles_unique(StateGraph.build(demo))[1] is None))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refcycle",
        description="Price-cycle optimization under peak-end reference effects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False):
        p.add_argument("--out", help="write the JSON result to this path")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="optimal distinct-price cycle for a gain table")
    p.add_argument("--gains", required=True)
    p.add_argument("--memory", type=int, help="memory length for CSV gain tables")
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum over the suffix-minimum state graph")
    p.add_argument("--gains", required=True)
    p.add_argument("--memory", type=int)
    p.add_argument("--horizon", type=int, help="also replay the witness this many steps")
    add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reduce", help="rewrite a cycle into l-up-1-down form")
    p.add_argument("--gains", required=True)
    p.add_argument("--cycle", required=True, help="whitespace-separated price values")
    p.add_argument("--memory", type=int)
    add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("tightness", help="build a table whose unique optimum is a chosen cycle")
    p.add_argument("--prices", required=True, help="whitespace-separated price values")
    p.add_argument("--memory", type=int, required=True)
    p.add_argument("--target", required=True, help="generator cycle of distinct prices")
    add_common(p)
    p.set_defaults(func=_cmd_tightness)

    p = sub.add_parser("allocate", help="assign coupons under a redemption budget")
    p.add_argument("--model", required=True)
    p.add_argument("--customers", required=True, help="dataset CSV with sidecar")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--W", type=float, required=True, help="average basket value")
    add_common(p)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("simulate", help="generate a synthetic coupon dataset")
    p.add_argument("--spec", required=True)
    add_common(p, seed=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="reference-effect diagnostics on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--memory", required=True, help="comma-separated window lengths")
    add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("selftest", help="run the bundled fixture checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReductionViolationError, InfeasibleBudgetError, EmptyCellError) as exc:
        print(f"refcycle: assumption violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, NodeBudgetError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"refcycle: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
