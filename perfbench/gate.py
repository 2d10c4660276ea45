"""Certificate checks on operation outputs.

Each check returns a list of violations, empty when the output is correct.  A
check asserts only what the code guarantees for every correct output: exact
objectives recomputed in rational arithmetic, optimality-equation residuals,
budget feasibility and minimality of the shadow price.  It never asserts which
of several optimal cycles a tie-break picks, an exact shadow price, or bytes
stored from an earlier run.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from refcycle.allocator import fitting, model
from refcycle.core import (
    GainTable,
    GeneratorCycle,
    PriceCycle,
    PriceGrid,
    cycle_objective,
    expand,
    is_l_up_1_down,
)
from refcycle.oracle import exact_objective, exhaustive_generators
from refcycle.solver import solve

RESIDUAL_LIMIT = 1e-9
EXHAUSTIVE_MAX_PRICES = 7
REDUCE_STEP_TOLERANCE = 1e-12
# verify_uniqueness accepts the oracle's value within this distance of the constructed mean
TIGHTNESS_VALUE_TOLERANCE = 1e-9
REDEMPTION_MATCH = 1e-9


def _cycle(text: str, grid: PriceGrid) -> PriceCycle:
    return PriceCycle.from_prices(grid, [Fraction(tok) for tok in text.split()])


def _generator(text: str, grid: PriceGrid) -> GeneratorCycle:
    return GeneratorCycle.from_prices(grid, [Fraction(tok) for tok in text.split()])


def check_solve(table: GainTable, payload: dict) -> list[str]:
    """opt is the exact objective of the reported generator's expansion, the
    bias solves the optimality equations, and on small grids no distinct-price
    cycle does better."""
    bad = []
    exact = exact_objective(expand(_generator(payload["generator"], table.grid), table.grid), table)
    if payload["opt"] != float(exact):
        bad.append(f"solve: opt {payload['opt']!r} != generator objective {float(exact)!r}")
    if not payload["residual"] <= RESIDUAL_LIMIT:
        bad.append(f"solve: residual {payload['residual']!r} above {RESIDUAL_LIMIT}")
    if len(table.grid) <= EXHAUSTIVE_MAX_PRICES:
        best = exhaustive_generators(table).value_exact
        if exact != best or payload["opt"] != float(best):
            bad.append(f"solve: opt {payload['opt']!r} != exhaustive optimum {float(best)!r}")
    return bad


def check_oracle(table: GainTable, payload: dict, horizon: int | None) -> list[str]:
    """The witness attains the reported value exactly; the value is at least
    the solver's best distinct-price cycle, and equal to it on
    reference-monotone tables."""
    bad = []
    witness = exact_objective(_cycle(payload["cycle"], table.grid), table)
    if payload["value"] != float(witness):
        bad.append(f"oracle: value {payload['value']!r} != witness objective {float(witness)!r}")
    solved = solve(table).opt_exact
    if witness < solved:
        bad.append(f"oracle: value {float(witness)!r} below the solver's {float(solved)!r}")
    if table.reference_monotone() and witness != solved:
        bad.append(f"oracle: monotone table, value {float(witness)!r} != solver {float(solved)!r}")
    if horizon and payload.get("simulation", {}).get("horizon") != horizon:
        bad.append("oracle: replay missing or over the wrong horizon")
    return bad


def check_tightness(payload: dict, target: str) -> list[str]:
    """The target is certified unique; the oracle value is the exact objective
    of the target's expansion on the returned table and lies within
    verify_uniqueness's tolerance of the constructed mean."""
    bad = []
    raw = payload["gain_table"]
    grid = PriceGrid.from_values(raw["prices"], raw["memory"])
    table = GainTable.from_rows(grid, raw["gains"])
    if payload["verified_unique"] is not True:
        bad.append("tightness: verified_unique is not true")
    if not table.reference_monotone():
        bad.append("tightness: constructed table is not reference-monotone")
    if payload["target"] != target:
        bad.append(f"tightness: target {payload['target']!r} != requested {target!r}")
    exact = exact_objective(expand(_generator(target, grid), grid), table)
    if payload["oracle_value"] != float(exact):
        bad.append(f"tightness: oracle_value {payload['oracle_value']!r} != "
                   f"target objective {float(exact)!r}")
    gap = abs(payload["oracle_value"] - payload["optimal_value"])
    if not gap <= TIGHTNESS_VALUE_TOLERANCE * max(1.0, abs(payload["optimal_value"])):
        bad.append(f"tightness: oracle_value {payload['oracle_value']!r} far from "
                   f"optimal_value {payload['optimal_value']!r}")
    return bad


def check_reduce(table: GainTable, cycle: PriceCycle, payload: dict) -> list[str]:
    """The trace chains from the input to an l-up-1-down final cycle and no
    step lowers the objective beyond the relative tolerance."""
    bad = []
    grid = table.grid
    final = _cycle(payload["final"], grid)
    if not is_l_up_1_down(final, grid)[0]:
        bad.append(f"reduce: final cycle {payload['final']!r} is not l-up-1-down")
    current = cycle
    for step in payload["steps"]:
        before, after = _cycle(step["before"], grid), _cycle(step["after"], grid)
        if not before.equivalent(current):
            bad.append("reduce: trace does not chain from the previous cycle")
        lo, hi = cycle_objective(before, table), cycle_objective(after, table)
        if hi < lo - REDUCE_STEP_TOLERANCE * (1.0 + abs(lo)):
            bad.append(f"reduce: {step['kind']} step lowers the objective {lo!r} -> {hi!r}")
        current = after
    if not final.equivalent(current):
        bad.append("reduce: final cycle is not the end of the trace")
    return bad


def simulate_summary(dataset) -> dict:
    """The fields of the simulate command's payload that a dataset determines."""
    customers = len(np.unique(dataset.customer_ids))
    return {
        "rows": dataset.num_rows,
        "customers": customers,
        "horizon": dataset.num_rows // customers,
        "purchase_rate": float(dataset.purchases.mean()),
    }


def check_simulate(expected: dict, payload: dict) -> list[str]:
    """Sizes and purchase rate match the in-memory simulation of the same spec."""
    got = {key: payload[key] for key in expected}
    return [] if got == expected else [f"simulate: {got} != in-memory {expected}"]


def analyze_payload(correlations, monotonicity) -> dict:
    """The analyze command's payload for analytics rows computed in memory."""
    return {
        "correlations": [
            {"memory": row.memory, "corr_max": row.corr_max, "corr_avg": row.corr_avg}
            for row in correlations
        ],
        "monotonicity": [
            {"memory": row.memory, "small_coupon_pct": row.small_coupon_pct,
             "large_coupon_pct": row.large_coupon_pct}
            for row in monotonicity
        ],
    }


def check_analyze(expected: dict, payload: dict) -> list[str]:
    """Floats are printed with 17 significant digits, so the analytics of the
    reloaded dataset equal the in-memory ones exactly."""
    return [] if payload == expected else ["analyze: output differs from the in-memory analytics"]


def parse_assignments(text: str) -> tuple[list[int], np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] != "customer_id,discount,purchase_prob":
        return [], np.zeros(0)
    rows = [line.split(",") for line in lines[1:] if line]
    return [int(row[0]) for row in rows], np.array([float(row[1]) for row in rows])


def check_allocation(alloc_model, X: np.ndarray, discounts, basket_value: float, budget: float,
                     lam: float, redemption: float, assignments: np.ndarray,
                     lambda_bounds: tuple[float, float] = (1.0, 10.0),
                     tolerance: float = 1e-6) -> list[str]:
    """The delivered assignments meet the budget, the reported redemption is
    theirs, and a shadow price one tolerance lower would overspend."""
    bad = []
    if assignments.shape != (X.shape[0],):
        return [f"allocation: {assignments.shape[0]} assignments for {X.shape[0]} customers"]
    if not np.all(np.isin(assignments, np.asarray(discounts.values))):
        bad.append("allocation: a discount outside the discount set")
    recomputed = model.projected_redemption(alloc_model, X, assignments, basket_value)
    if not recomputed <= budget:
        bad.append(f"allocation: redemption {recomputed!r} exceeds budget {budget!r}")
    if not math.isclose(recomputed, redemption, rel_tol=REDEMPTION_MATCH, abs_tol=0.0):
        bad.append(f"allocation: reported redemption {redemption!r} != recomputed {recomputed!r}")
    low = lambda_bounds[0]
    if not low <= lam <= lambda_bounds[1]:
        bad.append(f"allocation: lambda {lam!r} outside {lambda_bounds}")
    elif lam != low:
        cheaper = model.myopic_assign(alloc_model, X, max(low, lam - tolerance), discounts)
        if not model.projected_redemption(alloc_model, X, cheaper, basket_value) > budget:
            bad.append(f"allocation: lambda {lam!r} is not minimal within {tolerance}")
    return bad


def check_fit(beta: np.ndarray, features, coupons, outcomes, alpha, grad_tol: float = 1e-8,
              pivot: float = 0.15) -> list[str]:
    """The gradient of the mean log-likelihood vanishes at the returned weights."""
    grad = fitting.likelihood_gradient(beta, features, coupons, outcomes, alpha, pivot)
    norm = float(np.max(np.abs(grad)))
    return [] if norm <= grad_tol else [f"fit_beta: gradient max-norm {norm!r} > {grad_tol}"]
