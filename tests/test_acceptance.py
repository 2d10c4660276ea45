"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 checks that the exact oracle reproduces the optimum 1 of
the bundled non-monotone demo table and that the designed mixed cycle 414243,
which is not l-up-1-down, attains it.  The optimum is tied: the expansion
12233 of the distinct-price cycle 1 2 3 collects (g(3,1) + 2*g(1,2) +
2*g(2,3)) / 5 = (1 + 2 + 2) / 5 = 1 as well, so the test asserts the tie
openly and pins no particular tie-broken witness.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
from test_fitting import mean_log_likelihood

from refcycle.allocator import (
    AllocationModel,
    DiscountSet,
    PopulationSpec,
    default_ground_truth,
    fit_beta,
    likelihood_gradient,
    monotonicity_table,
    myopic_assign,
    projected_redemption,
    purchase_prob_table,
    reference_correlations,
    simulate_population,
    tune_lambda,
    BudgetConfig,
)
from refcycle.allocator.budget import LAMBDA_BOUNDS, TOLERANCE
from refcycle.core import GeneratorCycle, PriceCycle, cycle_objective, expand, is_l_up_1_down
from refcycle.fileio import format_cycle
from refcycle.instances import integer_grid, random_monotone_table
from refcycle.oracle import (
    StateGraph,
    exact_objective,
    exhaustive_generators,
    max_mean_cycle,
    optimal_cycles_unique,
)
from refcycle.reduce import reduce_to_l_up_1_down
from refcycle.solver import bellman_residual, solve
from refcycle.tightness import build, verify_uniqueness


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    suffix = f" — {detail}" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}{suffix}")
    return ok


def all_generator_cycles(n: int):
    for length in range(1, n + 1):
        for combo in itertools.combinations(range(n), length):
            for rest in itertools.permutations(combo[1:]):
                yield GeneratorCycle((combo[0],) + rest)


# -----------------------------------------------------------------------------
# 1. demo-instance reproduction
# -----------------------------------------------------------------------------


def price_string(cycle, grid) -> str:
    return format_cycle(cycle, grid).replace(" ", "")


def test_criterion_1_demo_instance(demo_table):
    """Exact oracle on the 4-price, memory-2 demo table.

    All values are compared exactly, as rationals.  Asserted:

    1. the oracle's optimum is exactly 1, found in under a second;
    2. the designed cycle 414243 attains it, and so does whichever witness
       the oracle returns;
    3. 414243 is not l-up-1-down, so this optimum lies outside that class;
    4. the optimum is not unique.  The table is 0/1 with ones exactly on the
       six (reference, price) pairs that 414243 visits, and 12233, the
       expansion of the distinct-price cycle 1 2 3, visits only pairs from
       that set: (g(3,1) + 2*g(1,2) + 2*g(2,3)) / 5 = (1 + 2 + 2) / 5 = 1.
       So the uniqueness check reports no single optimal cycle and the
       distinct-price enumeration reaches the optimum too.

    Which optimal cycle the oracle returns is its tie-break's choice; the
    test holds for any of them.
    """
    grid = demo_table.grid
    g = demo_table.gains
    designed = PriceCycle.from_prices(grid, [4, 1, 4, 2, 4, 3])
    tied = PriceCycle.from_prices(grid, [1, 2, 2, 3, 3])

    start = time.perf_counter()
    graph = StateGraph.build(demo_table)
    result = max_mean_cycle(graph)
    enumerated = exhaustive_generators(demo_table)
    elapsed = time.perf_counter() - start

    designed_value = exact_objective(designed, demo_table)
    witness_value = exact_objective(result.cycle, demo_table)
    designed_shaped, _ = is_l_up_1_down(designed, grid)
    _, unique_cycle = optimal_cycles_unique(graph)
    # 12233 by hand: reference 3 before the 1, reference 1 before both 2s,
    # reference 2 before both 3s
    tied_by_hand = (Fraction(g[2][0]) + 2 * Fraction(g[0][1]) + 2 * Fraction(g[1][2])) / 5
    best_expansion = expand(enumerated.best, grid)
    generated = expand(GeneratorCycle.from_prices(grid, [1, 2, 3]), grid)

    checks = {
        "value": result.value_exact == Fraction(1) and elapsed < 1.0,
        "414243 optimal": designed_value == result.value_exact,
        "witness optimal": witness_value == result.value_exact,
        "414243 not l-up-1-down": not designed_shaped,
        "not unique": unique_cycle is None,
        "12233 tied": (
            tied_by_hand == result.value_exact
            and exact_objective(tied, demo_table) == tied_by_hand
            and generated.equivalent(tied)
        ),
        "enumeration reaches optimum": (
            enumerated.value_exact == result.value_exact
            and exact_objective(best_expansion, demo_table) == enumerated.value_exact
        ),
    }
    failed = [name for name, held in checks.items() if not held]
    ok = report(
        "criterion 1: demo-instance reproduction",
        not failed,
        f"optimum={result.value_exact} in {elapsed:.3f}s; "
        f"414243={designed_value} (l-up-1-down: {designed_shaped}); "
        f"witness={price_string(result.cycle, grid)}={witness_value}; "
        f"best generator {price_string(enumerated.best, grid)} -> "
        f"{price_string(best_expansion, grid)}={enumerated.value_exact}; "
        f"12233 by hand={tied_by_hand}; unique: {unique_cycle is not None}",
    )
    assert ok, f"failed checks: {failed}"


# -----------------------------------------------------------------------------
# 2. solver equals oracle on reference-monotone instances
# -----------------------------------------------------------------------------


def test_criterion_2_solver_matches_oracle():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for n, memory in itertools.product((2, 3, 4), (1, 2, 3)):
        for _ in range(24):
            table = random_monotone_table(rng, n, memory)
            fast = solve(table)
            exact = max_mean_cycle(StateGraph.build(table))
            worst = max(worst, abs(fast.opt - exact.value))
            # monotone tables never need repeated prices: the brute-force
            # enumeration of distinct-price cycles reaches the same optimum
            enumerated = exhaustive_generators(table)
            worst = max(worst, abs(enumerated.value - exact.value))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = report(
        "criterion 2: solver == oracle == enumeration on monotone instances",
        worst <= 1e-9 and elapsed < 60.0 and checked >= 200,
        f"{checked} instances, worst gap {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


# -----------------------------------------------------------------------------
# 3. constructive reduction certificates
# -----------------------------------------------------------------------------


def test_criterion_3_reduction_certificates():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 5))
        memory = int(rng.integers(1, 4))
        table = random_monotone_table(rng, n, memory)
        cycle = PriceCycle(tuple(int(x) for x in rng.integers(0, n, size=int(rng.integers(1, 13)))))
        before = cycle_objective(cycle, table)
        final, _ = reduce_to_l_up_1_down(cycle, table)
        after = cycle_objective(final, table)
        shaped, _ = is_l_up_1_down(final, table.grid)
        assert shaped, "reduction must land on an l-up-1-down cycle"
        assert after >= before - 1e-12
        assert after <= solve(table).opt + 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    ok = report(
        "criterion 3: reduction certificates",
        elapsed < 60.0,
        f"{checked} random (cycle, table) pairs, {elapsed:.1f}s",
    )
    assert ok


# -----------------------------------------------------------------------------
# 4. unique-optimum certification for every small target
# -----------------------------------------------------------------------------


def test_criterion_4_unique_optimum_certification():
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4):
        for memory in (1, 2, 3):
            grid = integer_grid(n, memory)
            for target in all_generator_cycles(n):
                inst = build(target, grid)
                assert verify_uniqueness(inst), (n, memory, target.values)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = report(
        "criterion 4: unique-optimum certification",
        elapsed < 120.0,
        f"{checked} targets certified, {elapsed:.1f}s",
    )
    assert ok


# -----------------------------------------------------------------------------
# 5. redemption monotone in the shadow price
# -----------------------------------------------------------------------------


def random_nonnegative_population(rng, size=120, dims=4):
    X = rng.uniform(0.0, 2.0, size=(size, dims))
    beta = rng.uniform(0.0, 8.0, size=dims)
    alpha = np.concatenate([[rng.uniform(-3.0, -1.0)], rng.uniform(-0.2, 0.2, size=dims)])
    return X, AllocationModel(tuple(f"f{i}" for i in range(dims)), alpha, beta)


def test_criterion_5_redemption_monotonicity():
    rng = np.random.default_rng(5)
    discounts = DiscountSet()
    lambdas = np.linspace(1.0, 1.0 / discounts.values[0], 20)
    violations = 0
    for _ in range(50):
        X, model = random_nonnegative_population(rng)
        previous_assignment = None
        previous_redemption = None
        for lam in lambdas:
            assignment = myopic_assign(model, X, lam, discounts)
            redemption = projected_redemption(model, X, assignment, 100.0)
            if previous_assignment is not None:
                violations += int(np.any(assignment > previous_assignment))
                violations += int(redemption > previous_redemption)
            previous_assignment = assignment
            previous_redemption = redemption
    ok = report(
        "criterion 5: redemption/assignments monotone in the shadow price",
        violations == 0,
        f"50 populations x 20 shadow prices, {violations} violations",
    )
    assert ok


# -----------------------------------------------------------------------------
# 6. bisection contract against a dense grid oracle
# -----------------------------------------------------------------------------


def grid_redemptions(model, X, lambdas, basket, discounts):
    """Redemption at every shadow price, vectorized over the whole grid."""
    q = purchase_prob_table(model, X, discounts)
    v = np.asarray(discounts.values)
    out = np.empty(len(lambdas))
    chunk = 500
    for lo in range(0, len(lambdas), chunk):
        lam = lambdas[lo:lo + chunk]
        scores = (1.0 - lam[:, None, None] * v[None, None, :]) * q[None, :, :]
        choice = np.argmax(scores, axis=2)
        chosen_v = v[choice]
        chosen_q = np.take_along_axis(q[None, :, :].repeat(len(lam), 0), choice[:, :, None], axis=2)[:, :, 0]
        out[lo:lo + chunk] = np.sum(chosen_v * basket * chosen_q, axis=1)
    return out


def test_criterion_6_bisection_contract():
    rng = np.random.default_rng(6)
    discounts = DiscountSet()
    basket = 100.0
    for _ in range(5):
        X, model = random_nonnegative_population(rng, size=150)
        base = projected_redemption(model, X, myopic_assign(model, X, 1.0, discounts), basket)
        budget = 0.5 * base
        config = BudgetConfig(basket_value=basket, budget=budget)
        lam = tune_lambda(model, X, config, discounts)

        assert projected_redemption(model, X, myopic_assign(model, X, lam, discounts), basket) <= budget
        shaved = lam - 10 * TOLERANCE
        assert projected_redemption(model, X, myopic_assign(model, X, shaved, discounts), basket) > budget

        lambdas = np.linspace(1.0, LAMBDA_BOUNDS[1], 10_000)
        redemptions = grid_redemptions(model, X, lambdas, basket, discounts)
        feasible = lambdas[redemptions <= budget]
        assert feasible.size, "grid oracle found no feasible point"
        spacing = lambdas[1] - lambdas[0]
        assert abs(lam - feasible[0]) <= spacing + 10 * TOLERANCE
    ok = report("criterion 6: bisection matches the 10^4-point grid oracle", True,
                "5 populations, budget = 50% of unconstrained redemption")
    assert ok


# -----------------------------------------------------------------------------
# 7. sign recovery of the planted sensitivity weights
# -----------------------------------------------------------------------------


def test_criterion_7_sign_recovery():
    spec = PopulationSpec(size=2000, horizon=50, memory=3)
    truth = default_ground_truth(3)
    start = time.perf_counter()
    matches = 0
    total = 0
    worst_fd = 0.0
    for seed in range(20):
        dataset = simulate_population(spec, truth, seed=seed)
        alpha = truth.alpha_values(dataset.features)
        beta = fit_beta(dataset.features, dataset.coupons, dataset.purchases, alpha)
        matches += int(np.sum(np.sign(beta) == np.sign(truth.beta_weights)))
        total += len(beta)
        assert np.max(np.abs(likelihood_gradient(
            beta, dataset.features, dataset.coupons, dataset.purchases, alpha
        ))) <= 1e-6
        eps = 1e-5
        for j in range(len(beta)):
            bump = np.zeros_like(beta)
            bump[j] = eps
            fd = (
                mean_log_likelihood(beta + bump, dataset.features, dataset.coupons,
                                    dataset.purchases, alpha)
                - mean_log_likelihood(beta - bump, dataset.features, dataset.coupons,
                                      dataset.purchases, alpha)
            ) / (2 * eps)
            worst_fd = max(worst_fd, abs(fd))
        assert worst_fd <= 1e-6
    elapsed = time.perf_counter() - start
    accuracy = matches / total
    ok = report(
        "criterion 7: planted-sign recovery at 1e5 rows",
        accuracy >= 0.95,
        f"{matches}/{total} signs over 20 seeds ({accuracy:.1%}), "
        f"worst |finite-difference gradient| {worst_fd:.1e}, {elapsed:.1f}s",
    )
    assert ok


# -----------------------------------------------------------------------------
# 8. directional analytics under a negative reference ground truth
# -----------------------------------------------------------------------------


def test_criterion_8_directional_analytics():
    spec = PopulationSpec(size=20_000, horizon=30, memory=7,
                          discounts=(0.12, 0.15, 0.17, 0.20))
    dataset = simulate_population(spec, default_ground_truth(7), seed=8)
    windows = (3, 4, 5, 7)
    correlations = reference_correlations(dataset, windows)
    lifts = monotonicity_table(dataset, windows)
    corr_ok = all(
        row.corr_max is not None and row.corr_max < 0 and row.corr_max < row.corr_avg
        for row in correlations
    )
    lift_ok = all(row.small_coupon_pct > 0 and row.large_coupon_pct > 0 for row in lifts)
    ok = report(
        "criterion 8: directional analytics",
        corr_ok and lift_ok,
        "corr_max " + ", ".join(f"{row.memory}d={row.corr_max:.4f}" for row in correlations),
    )
    assert ok


# -----------------------------------------------------------------------------
# 9. cross-route identities
# -----------------------------------------------------------------------------


def test_criterion_9_identities():
    rng = np.random.default_rng(9)
    worst_gap = 0.0
    for n in (2, 3, 4, 5):
        for memory in (1, 2, 3):
            table = random_monotone_table(rng, n, memory)
            for generator in all_generator_cycles(n):
                direct = float(exact_objective(expand(generator, table.grid), table))
                roundabout = cycle_objective(expand(generator, table.grid), table)
                worst_gap = max(worst_gap, abs(direct - roundabout))
    worst_residual = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        memory = int(rng.integers(1, 4))
        table = random_monotone_table(rng, n, memory)
        worst_residual = max(worst_residual, bellman_residual(solve(table), table))
    ok = report(
        "criterion 9: ratio/expansion identity and optimality-equation residuals",
        worst_gap <= 1e-12 and worst_residual <= 1e-8,
        f"worst identity gap {worst_gap:.2e}, worst residual {worst_residual:.2e}",
    )
    assert ok
