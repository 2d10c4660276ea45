#!/usr/bin/env python3
"""End-to-end allocator demo on synthetic data.

Simulates a randomized-coupon population with a negative reference effect,
re-estimates the sensitivity weights with the supplied baseline, tunes the
shadow price to a budget, and prints the reference-effect diagnostics.
"""

import argparse

import numpy as np

from refcycle.allocator import (
    BudgetConfig,
    DiscountSet,
    PopulationSpec,
    default_ground_truth,
    fit_beta,
    monotonicity_table,
    myopic_assign,
    projected_redemption,
    reference_correlations,
    simulate_population,
    tune_lambda,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--customers", type=int, default=5000)
    parser.add_argument("--days", type=int, default=30)
    parser.add_argument("--memory", type=int, default=7)
    parser.add_argument("--basket", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = PopulationSpec(size=args.customers, horizon=args.days, memory=args.memory,
                          discounts=(0.12, 0.15, 0.17, 0.20))
    truth = default_ground_truth(args.memory)
    dataset = simulate_population(spec, truth, seed=args.seed)
    print(f"simulated {dataset.num_rows} rows, purchase rate {dataset.purchases.mean():.3f}")

    alpha = truth.alpha_values(dataset.features)
    beta = fit_beta(dataset.features, dataset.coupons, dataset.purchases, alpha)
    print("\nsensitivity weights (planted vs fitted):")
    for name, planted, fitted in zip(dataset.feature_names, truth.beta_weights, beta):
        print(f"  {name:<24} {planted:>8.1f} {fitted:>9.2f}")

    print("\nreference diagnostics:")
    for row in reference_correlations(dataset, (3, 4, 5, 7)):
        print(f"  window {row.memory}d: corr(max)={row.corr_max:+.4f} "
              f"corr(avg)={row.corr_avg:+.4f}")
    for row in monotonicity_table(dataset, (3, 4, 5, 7)):
        print(f"  window {row.memory}d: lift small-coupon {row.small_coupon_pct:+.1f}% "
              f"large-coupon {row.large_coupon_pct:+.1f}%")

    # allocate on the final day's contexts under half the unconstrained spend
    discounts = DiscountSet(spec.discounts)
    last_day = dataset.days == args.days
    X = dataset.features[last_day]
    base = projected_redemption(truth, X, myopic_assign(truth, X, 1.0, discounts), args.basket)
    config = BudgetConfig(basket_value=args.basket, budget=0.5 * base)
    lam = tune_lambda(truth, X, config, discounts)
    assignments = myopic_assign(truth, X, lam, discounts)
    spent = projected_redemption(truth, X, assignments, args.basket)
    shares = {v: float(np.mean(assignments == v)) for v in discounts}
    print(f"\nunconstrained redemption {base:,.0f}; budget {0.5 * base:,.0f}")
    print(f"tuned shadow price {lam:.4f}, redemption {spent:,.0f}")
    print("coupon shares: " + ", ".join(f"{v:.2f}: {s:.1%}" for v, s in shares.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
