"""Shadow-price bisection against the redemption budget."""

import logging
from fractions import Fraction

import numpy as np
import pytest

from refcycle.allocator import budget
from refcycle.allocator import (
    AllocationModel,
    BudgetConfig,
    DiscountSet,
    InfeasibleBudgetError,
    myopic_assign,
    projected_redemption,
    purchase_prob_table,
    tune_lambda,
)
from refcycle.allocator.budget import LAMBDA_BOUNDS, TOLERANCE


def population(rng, size=150, dims=4):
    X = rng.uniform(0.0, 2.0, size=(size, dims))
    beta = rng.uniform(1.0, 10.0, size=dims)
    alpha = np.concatenate([[rng.uniform(-2.5, -1.0)], rng.uniform(-0.1, 0.1, size=dims)])
    model = AllocationModel(tuple(f"f{i}" for i in range(dims)), alpha, beta)
    return X, model


def redemption_at(model, X, lam, basket, discounts):
    return projected_redemption(model, X, myopic_assign(model, X, lam, discounts), basket)


def test_config_validation():
    with pytest.raises(ValueError):
        BudgetConfig(basket_value=0.0, budget=1.0)
    with pytest.raises(ValueError):
        BudgetConfig(basket_value=1.0, budget=-1.0)
    for basket, budget in ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            BudgetConfig(basket_value=basket, budget=budget)
    assert BudgetConfig(basket_value=1.0, budget=float("inf")).budget == float("inf")


def test_loose_budget_returns_lower_bound(rng):
    X, model = population(rng)
    discounts = DiscountSet()
    base = redemption_at(model, X, 1.0, 100.0, discounts)
    config = BudgetConfig(basket_value=100.0, budget=base * 2)
    assert tune_lambda(model, X, config, discounts) == 1.0


def test_zero_budget_is_infeasible(rng):
    X, model = population(rng)
    config = BudgetConfig(basket_value=100.0, budget=0.0)
    with pytest.raises(InfeasibleBudgetError):
        tune_lambda(model, X, config)


def test_bisection_contract_against_grid(rng):
    discounts = DiscountSet()
    for _ in range(5):
        X, model = population(rng)
        basket = 100.0
        base = redemption_at(model, X, 1.0, basket, discounts)
        budget = 0.5 * base
        config = BudgetConfig(basket_value=basket, budget=budget)
        lam = tune_lambda(model, X, config, discounts)
        assert redemption_at(model, X, lam, basket, discounts) <= budget
        assert redemption_at(model, X, lam - 10 * TOLERANCE, basket, discounts) > budget
        # 1000-point grid oracle (the acceptance suite uses 10^4 points)
        grid = np.linspace(1.0, LAMBDA_BOUNDS[1], 1000)
        feasible = [g for g in grid if redemption_at(model, X, g, basket, discounts) <= budget]
        grid_opt = feasible[0]
        spacing = grid[1] - grid[0]
        assert abs(lam - grid_opt) <= spacing + 10 * TOLERANCE


def test_negative_sensitivity_share_logged(rng, caplog):
    X = rng.uniform(0.0, 2.0, size=(30, 2))
    model = AllocationModel(("a", "b"), np.array([-1.0, 0.0, 0.0]), np.array([-3.0, -1.0]))
    config = BudgetConfig(basket_value=10.0, budget=1e9)
    with caplog.at_level(logging.WARNING):
        tune_lambda(model, X, config)
    assert any("negative coupon sensitivity" in r.message for r in caplog.records)


def test_nonfinite_features_raise_instead_of_returning_uncertified_lambda():
    X = np.array([[1.0, np.nan], [0.5, 0.5]])
    model = AllocationModel(("a", "b"), np.array([-1.0, 0.0, 0.0]), np.array([2.0, 1.0]))
    with pytest.raises(InfeasibleBudgetError, match="does not meet budget"):
        tune_lambda(model, X, BudgetConfig(basket_value=10.0, budget=1.0))


@pytest.mark.parametrize("row", [0, 1])
def test_nonfinite_features_raise_on_a_sampled_table(row):
    """The same on a table large enough to be bisected from its strided
    sample, with the NaN row in the sample (row 0) or outside it (row 1, the
    stride being 2): every probe's sum is NaN, the top is not refused, and
    the certificate refuses the interval's top, as on a small table."""
    rng = np.random.default_rng(3)
    X, model = population(rng, size=5_000)
    basket = 100.0
    low, high = (redemption_at(model, X, lam, basket, DiscountSet())
                 for lam in reversed(LAMBDA_BOUNDS))
    config = BudgetConfig(basket_value=basket, budget=0.5 * (low + high))
    assert LAMBDA_BOUNDS[0] < tune_lambda(model, X, config) < LAMBDA_BOUNDS[1]
    X[row, 1] = np.nan
    assert 5_000 // budget.SAMPLE_ROWS == 2
    with pytest.raises(InfeasibleBudgetError,
                       match=rf"shadow price {LAMBDA_BOUNDS[1]} does not meet budget"):
        tune_lambda(model, X, config)


# -----------------------------------------------------------------------------
# every probe off one table: the same numbers as the public functions, and
# the same shadow price as a bisection that rescores every row
# -----------------------------------------------------------------------------


def mixed_population(rng, size, dims=3):
    """Features and weights such that some rows have negative sensitivity."""
    X = rng.uniform(-0.6, 2.0, size=(size, dims))
    beta = rng.uniform(-2.0, 10.0, size=dims)
    alpha = np.concatenate([[rng.uniform(-3.0, 0.5)], rng.uniform(-0.5, 0.5, size=dims)])
    return X, AllocationModel(tuple(f"f{i}" for i in range(dims)), alpha, beta)


def random_discounts(rng):
    count = int(rng.integers(1, 6))
    return DiscountSet(tuple(np.sort(rng.choice(np.arange(5, 40), count, replace=False)) / 100))


@pytest.mark.parametrize("size", [1, 2, 7, 63, 64, 65, 4099])
def test_probe_matches_public_functions_exactly(size):
    rng = np.random.default_rng(1000 + size)
    negative_rows = 0
    for _ in range(8 if size < 4099 else 3):
        X, model = mixed_population(rng, size)
        negative_rows += int(np.sum(model.sensitivity(X) < 0))
        discounts = random_discounts(rng)
        q = purchase_prob_table(model, X, discounts)
        v = np.asarray(discounts.values)
        basket = float(rng.uniform(1.0, 200.0))
        lambdas = [0.0, 1.0, 10.0, 1.0 / discounts.values[0], *rng.uniform(0.0, 12.0, 6)]
        for lam in lambdas:
            expected = redemption_at(model, X, lam, basket, discounts)
            spent = budget._spend(q, v, budget._best_discount(q, v, lam), basket)
            assert float(np.sum(spent)) == expected
    if size >= 7:
        assert negative_rows > 0


def reference_tune_lambda(model, X, config, discounts, bounds, tolerance):
    """The bisection over ``bounds`` to ``tolerance`` as it was before the
    table was shared: every probe calls ``myopic_assign`` and
    ``projected_redemption``."""

    def redemption(lam):
        return redemption_at(model, X, lam, config.basket_value, discounts)

    lo, hi = bounds
    if redemption(lo) <= config.budget:
        return lo
    if redemption(hi) > config.budget:
        raise InfeasibleBudgetError("infeasible")
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if redemption(mid) <= config.budget:
            hi = mid
        else:
            lo = mid
    return hi


def outcome(tune, *args):
    try:
        return tune(*args)
    except InfeasibleBudgetError:
        return "infeasible"


BEST_DISCOUNT = budget._best_discount  # the tests below count calls to a patched copy


def bisected(q, v, config):
    """``budget._bisect``'s shadow price, once the choice it returns with it
    is checked to be the table's choice there, byte for byte."""
    lam, chosen = budget._bisect(q, v, config)
    assert chosen.tobytes() == BEST_DISCOUNT(q, v, lam).tobytes(), lam
    return lam


def test_same_lambda_as_reference_bisection(monkeypatch):
    rng = np.random.default_rng(8)
    kinds = {"interior": 0, "lower bound": 0, "infeasible": 0}
    for case in range(330):
        X, model = mixed_population(rng, int(rng.integers(1, 120)))
        discounts = random_discounts(rng)
        basket = float(rng.uniform(1.0, 200.0))
        bounds = [(1.0, 10.0), (0.0, 10.0), (1.0, 3.0)][case % 3]
        top = redemption_at(model, X, bounds[1], basket, discounts)
        base = redemption_at(model, X, bounds[0], basket, discounts)
        low, high = min(top, base), max(top, base)
        # most budgets inside the interval, a few on or outside its ends
        budget_value = [
            rng.uniform(low, high), rng.uniform(low, high), rng.uniform(low, high),
            high * rng.uniform(1.0, 1.5), low * rng.uniform(0.0, 1.0), high, low,
        ][case % 7]
        config = BudgetConfig(basket, budget_value)
        monkeypatch.setattr(budget, "LAMBDA_BOUNDS", bounds)
        for tolerance in (1e-3, 1e-6, 1e-9):
            monkeypatch.setattr(budget, "TOLERANCE", tolerance)
            expected = outcome(reference_tune_lambda, model, X, config, discounts,
                               bounds, tolerance)
            got = outcome(tune_lambda, model, X, config, discounts)
            assert got == expected
            assert (got == bounds[0]) == (expected == bounds[0])
            assert (got == "infeasible") == (expected == "infeasible")
            if got != "infeasible":
                # the choice certified with the shadow price is the public functions' choice
                lam, assignments, chosen_q, spent = budget._tuned_choice(
                    model, X, config, discounts)
                assert lam == got
                assert np.array_equal(assignments, myopic_assign(model, X, lam, discounts))
                q = purchase_prob_table(model, X, discounts)
                chosen = np.searchsorted(np.asarray(discounts.values), assignments)
                assert chosen_q.tobytes() == q[np.arange(len(X)), chosen].tobytes()
                assert spent == projected_redemption(model, X, assignments, basket)
        # which of the three a case is does not depend on the tolerance
        if expected == "infeasible":
            kinds["infeasible"] += 1
        elif expected == bounds[0]:
            kinds["lower bound"] += 1
        else:
            kinds["interior"] += 1
    assert kinds["interior"] >= 100 and kinds["lower bound"] >= 100 and kinds["infeasible"] >= 30


def full_probe(q, v, lam, basket):
    """A probe that rescores every row of the table."""
    k = budget._best_discount(q, v, lam)
    return float(np.sum(v[k] * basket * q[np.arange(q.shape[0]), k]))


def full_row_bisect(q, v, config, bounds, tolerance, probed=None):
    """The bisection over ``bounds`` to ``tolerance`` with every probe scored
    on all rows of the table; ``probed`` collects the shadow prices probed."""

    def redemption(lam):
        if probed is not None:
            probed.append(lam)
        return full_probe(q, v, lam, config.basket_value)

    lo, hi = bounds
    if redemption(lo) <= config.budget:
        return lo
    if redemption(hi) > config.budget:
        raise InfeasibleBudgetError("infeasible")
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if redemption(mid) <= config.budget:
            hi = mid
        else:
            lo = mid
    return hi


def request_table(rng, kind, size):
    """A table q and discounts v of one of four kinds: a model's table with
    negative- and zero-sensitivity rows, the same with duplicated columns,
    and two on the grid k/64 (with dyadic discounts in the last), where
    (1 - λv)·q ties exactly at many of the shadow prices a bisection probes."""
    if kind in ("model", "duplicated columns"):
        X, model = mixed_population(rng, size)
        X[rng.random(size) < 0.2] = 0.0  # zero sensitivity: q is the same for every v
        discounts = random_discounts(rng)
        q = purchase_prob_table(model, X, discounts)
        v = np.asarray(discounts.values)
        if kind == "duplicated columns":
            v = np.sort(rng.choice(np.arange(5, 40), 5, replace=False)) / 100
            q = q[:, np.sort(rng.integers(0, q.shape[1], 5))]
        return q, v
    options = int(rng.integers(2, 6))
    q = rng.integers(0, 65, size=(size, options)) / 64
    if kind == "grid, dyadic discounts":
        v = np.sort(rng.choice(np.arange(1, 32), options, replace=False)) / 32
    else:
        v = np.sort(rng.choice(np.arange(5, 40), options, replace=False)) / 100
    if rng.random() < 0.5:
        q[:, -1] = q[:, 0]  # a duplicated column
    return q, v


def test_open_row_bisection_matches_full_row_bisection(monkeypatch):
    rng = np.random.default_rng(23)
    kinds = ("model", "duplicated columns", "grid", "grid, dyadic discounts")
    seen = {"interior": 0, "lower bound": 0, "infeasible": 0}
    probed_ties = 0
    for case in range(600):
        size = 5000 if case % 100 == 99 else int(rng.integers(1, 300))
        q, v = request_table(rng, kinds[case % 4], size)
        basket = float(rng.uniform(1.0, 200.0))
        bounds = [(1.0, 10.0), (0.0, 10.0), (1.0, 3.0)][case % 3]
        top = full_probe(q, v, bounds[1], basket)
        base = full_probe(q, v, bounds[0], basket)
        low, high = min(top, base), max(top, base)
        budget_value = [
            rng.uniform(low, high), rng.uniform(low, high), rng.uniform(low, high),
            high * rng.uniform(1.0, 1.5), low * rng.uniform(0.0, 1.0), high, low,
        ][(case // 4) % 7]
        config = BudgetConfig(basket, budget_value)
        monkeypatch.setattr(budget, "LAMBDA_BOUNDS", bounds)
        for tolerance in (1e-3, 1e-6, 1e-9):
            monkeypatch.setattr(budget, "TOLERANCE", tolerance)
            probed = []
            expected = outcome(full_row_bisect, q, v, config, bounds, tolerance, probed)
            assert outcome(bisected, q.copy(), v, config) == expected, case
            for lam in probed:
                scores = (1.0 - lam * v)[None, :] * q
                top_scores = scores == scores.max(axis=1, keepdims=True)
                probed_ties += int(np.sum(top_scores.sum(axis=1) > 1))
        if expected == "infeasible":
            seen["infeasible"] += 1
        elif expected == bounds[0]:
            seen["lower bound"] += 1
        else:
            seen["interior"] += 1
    assert seen["interior"] >= 250 and seen["lower bound"] >= 100 and seen["infeasible"] >= 50
    assert probed_ties > 10_000, probed_ties  # rows whose best score ties at a probed λ


def test_open_rows_shrink(monkeypatch):
    """Most of a bisection's row work is on the few rows still open."""
    rng = np.random.default_rng(5)
    X, model = population(rng, size=20_000)
    discounts = DiscountSet()
    q = purchase_prob_table(model, X, discounts)
    v = np.asarray(discounts.values)
    basket = 100.0
    low, high = (full_probe(q, v, lam, basket) for lam in reversed(LAMBDA_BOUNDS))
    config = BudgetConfig(basket, 0.5 * (low + high))
    expected = full_row_bisect(q, v, config, LAMBDA_BOUNDS, TOLERANCE)
    scored = []
    best_discount = budget._best_discount

    def counted(q, v, lam):
        scored.append(q.shape[0])
        return best_discount(q, v, lam)

    monkeypatch.setattr(budget, "_best_discount", counted)
    lam = bisected(q, v, config)
    assert lam == expected
    assert LAMBDA_BOUNDS[0] < lam < LAMBDA_BOUNDS[1]
    assert len(scored) > 20
    assert sum(scored) < len(scored) * len(X) / 3, (sum(scored), len(scored))


def test_redemption_never_rises_with_the_shadow_price_for_any_table(rng):
    """The exchange argument of the module docstring, in exact arithmetic: if
    the myopic rule picks a at λ₁ and b at λ₂ > λ₁, then v_b·q_b ≤ v_a·q_a,
    for any purchase probabilities, also ones that fall as the discount rises,
    and under either tie-break."""
    lambdas = [Fraction(k, 8) for k in range(81)]  # 0..10, past 1/v for every discount
    switches = 0
    for trial in range(300):
        options = int(rng.integers(1, 6))
        v = sorted(Fraction(int(x), 100) for x in rng.choice(np.arange(1, 60), options,
                                                              replace=False))
        q = [Fraction(int(x), 64) for x in rng.integers(0, 65, options)]
        if trial % 2:  # negative sensitivity: q falls as v rises
            q.sort(reverse=True)
        for order in (range(options), reversed(range(options))):  # first or last of a tie
            order = list(order)
            spent = []
            for lam in lambdas:
                score = [(1 - lam * v[k]) * q[k] for k in order]
                k = order[score.index(max(score))]
                spent.append(v[k] * q[k])
            assert all(later <= earlier for earlier, later in zip(spent, spent[1:]))
            if trial % 2 and len(set(spent)) > 1:
                switches += 1
    assert switches > 20, switches  # the falling tables do change their choice with λ


def interleaved_by_best_spend(q, v):
    """The rows sorted by the most each can redeem, then the two halves
    interleaved, so that a strided sample with an even stride sees only the
    lower half."""
    order = np.argsort((v[None, :] * q).max(axis=1), kind="stable")
    half = (len(order) + 1) // 2
    mixed = np.empty_like(order)
    mixed[0::2], mixed[1::2] = order[:half], order[half:]
    return q[mixed]


def bracket(guess, bounds, tolerance):
    """The tree points just below guess·(1 - m) and just above guess·(1 + m),
    m = ``BRACKET_MARGIN``: walked down the bisection over ``bounds`` to
    ``tolerance``, midpoint by midpoint."""
    points = []
    for target, side in ((guess * (1 - budget.BRACKET_MARGIN), 0),
                         (guess * (1 + budget.BRACKET_MARGIN), 1)):
        a, b = bounds
        while b - a > tolerance:
            mid = 0.5 * (a + b)
            a, b = (a, mid) if target <= mid else (mid, b)
        points.append((a, b)[side])
    return points


def test_sampled_bisection_matches_full_row_bisection(monkeypatch):
    """Tables large enough to be seeded from a strided sample, some ordered
    so that the sample is biased: the same outcome as the full-row
    bisection, whether the sample's bracket holds or an end of the interval
    is probed after all."""
    rng = np.random.default_rng(31)
    kinds = ("model", "duplicated columns", "grid", "grid, dyadic discounts")
    guessed = {"confirmed": 0, "fallback": 0}
    bisect = budget._bisect
    guesses = []  # the sample's shadow price, None when it overspends at the top

    def recorded(q, v, config):
        sample = q.shape[0] < 2 * budget.SAMPLE_ROWS
        try:
            result = bisect(q, v, config)
        except InfeasibleBudgetError:
            if sample:
                guesses.append(None)
            raise
        if sample:
            guesses.append(result[0])
        return result

    monkeypatch.setattr(budget, "_bisect", recorded)
    for case in range(80):
        size = int(np.exp(rng.uniform(np.log(2 * budget.SAMPLE_ROWS), np.log(40_000))))
        q, v = request_table(rng, kinds[case % 4], size)
        if case // 3 % 3 == 2:  # a third of the tables, under each of the bounds
            q = interleaved_by_best_spend(q, v)
        basket = float(rng.uniform(1.0, 200.0))
        bounds = [(1.0, 10.0), (0.0, 10.0), (1.0, 3.0)][case % 3]
        top = full_probe(q, v, bounds[1], basket)
        base = full_probe(q, v, bounds[0], basket)
        low, high = min(top, base), max(top, base)
        # most budgets inside the interval, every eighth outside one of its ends
        outside = [high * 1.1, low * 0.9][case % 16 // 8]
        budget_value = rng.uniform(low, high) if case % 8 else outside
        config = BudgetConfig(basket, budget_value)
        monkeypatch.setattr(budget, "LAMBDA_BOUNDS", bounds)
        for tolerance in (1e-3, 1e-6, 1e-9):
            monkeypatch.setattr(budget, "TOLERANCE", tolerance)
            expected = outcome(full_row_bisect, q, v, config, bounds, tolerance)
            guesses.clear()
            assert outcome(bisected, q.copy(), v, config) == expected, case
            assert len(guesses) == 1, case  # every run bisects its sample, once
            # the bracket the program probes first, and whether it decides both ends
            lower, upper = bracket(bounds[1] if guesses[0] is None else guesses[0], bounds,
                                   tolerance)
            right = full_probe(q, v, upper, basket) <= config.budget < full_probe(q, v, lower,
                                                                                   basket)
            guessed["confirmed" if right else "fallback"] += 1
    assert guessed["confirmed"] >= 10 and guessed["fallback"] >= 10, guessed


def counted_bisection(monkeypatch, q, v, config, with_sample=False):
    """``_bisect``'s outcome, and the rows each of its probes scored; the
    probes of its bisection of the sample are left out unless ``with_sample``."""
    scored, nested = [], []
    bisect = budget._bisect

    def entered(table, v, config):
        nested.append(table)
        try:
            return bisect(table, v, config)
        finally:
            nested.pop()

    def counted(table, v, lam):
        if with_sample or len(nested) == 1:
            scored.append(table.shape[0])
        return BEST_DISCOUNT(table, v, lam)

    with monkeypatch.context() as patched:
        patched.setattr(budget, "_bisect", entered)
        patched.setattr(budget, "_best_discount", counted)
        return outcome(bisected, q, v, config), scored


@pytest.mark.parametrize("share", [0.2, 0.5, 0.8])
def test_sampled_bisection_scores_fewer_rows(monkeypatch, share):
    """The sample's bracket spares the probes at the interval's ends and the
    first midpoints, which score nearly every row."""
    rng = np.random.default_rng(5)
    X, model = population(rng, size=20_000)
    discounts = DiscountSet()
    q = purchase_prob_table(model, X, discounts)
    v = np.asarray(discounts.values)
    basket = 100.0
    low, high = (full_probe(q, v, lam, basket) for lam in reversed(LAMBDA_BOUNDS))
    config = BudgetConfig(basket, low + share * (high - low))
    guided, guided_rows = counted_bisection(monkeypatch, q, v, config, with_sample=True)
    monkeypatch.setattr(budget, "SAMPLE_ROWS", len(X))  # the table is under 2·SAMPLE_ROWS rows
    unguided, unguided_rows = counted_bisection(monkeypatch, q, v, config)
    assert guided == unguided
    assert LAMBDA_BOUNDS[0] < guided < LAMBDA_BOUNDS[1]
    assert sum(guided_rows) <= 0.75 * sum(unguided_rows), (guided_rows, unguided_rows)


@pytest.mark.parametrize("interleaved", [False, True])
def test_bracket_probes_the_full_table_at_most_twice_when_it_holds(monkeypatch, interleaved):
    """A bracket that holds decides both ends of the interval: two probes
    score every row, and the rest only the rows open inside the bracket.  One
    that misses adds one full probe, at the end of the interval it leaves
    undecided.  (Probing both ends first, as a bisection without the
    sample does, takes two full probes before the first midpoint.)"""
    rng = np.random.default_rng(7)
    X, model = population(rng, size=8 * budget.SAMPLE_ROWS)  # an even stride, 8
    discounts = DiscountSet()
    q = purchase_prob_table(model, X, discounts)
    v = np.asarray(discounts.values)
    if interleaved:  # a sample biased toward the rows that redeem least
        q = interleaved_by_best_spend(q, v)
    basket = 100.0
    low, high = (full_probe(q, v, lam, basket) for lam in reversed(LAMBDA_BOUNDS))
    seen = {"confirmed": 0, "fallback": 0}
    for share in np.linspace(0.02, 0.98, 25):
        config = BudgetConfig(basket, low + share * (high - low))
        lam, scored = counted_bisection(monkeypatch, q, v, config)
        assert lam == full_row_bisect(q, v, config, LAMBDA_BOUNDS, TOLERANCE)
        stride = len(q) // budget.SAMPLE_ROWS
        sample_config = BudgetConfig(basket, config.budget * len(q[::stride]) / len(q))
        guess = outcome(full_row_bisect, q[::stride], v, sample_config, LAMBDA_BOUNDS, TOLERANCE)
        lower, upper = bracket(LAMBDA_BOUNDS[1] if guess == "infeasible" else guess,
                               LAMBDA_BOUNDS, TOLERANCE)
        confirmed = full_probe(q, v, upper, basket) <= config.budget < full_probe(q, v, lower,
                                                                                   basket)
        seen["confirmed" if confirmed else "fallback"] += 1
        full = scored.count(len(q))
        assert full <= (2 if confirmed else 3), (share, scored)
        assert scored[:full] == [len(q)] * full, scored  # the full probes come first
        if confirmed:
            assert sum(scored[full:]) < 0.5 * len(q), (share, scored)  # 0.03-0.35 here
    assert seen["fallback" if interleaved else "confirmed"] >= 20, seen
    # a budget the sample meets at the bottom, or overspends at the top: that end, probed first
    for share, end in ((1.2, LAMBDA_BOUNDS[0]), (-0.2, "infeasible")):
        config = BudgetConfig(basket, max(0.0, low + share * (high - low)))
        assert counted_bisection(monkeypatch, q, v, config) == (end, [len(q)])


def test_bracket_is_made_of_tree_points(monkeypatch):
    """A sample whose λ·(1 + m) falls inside the answer's leaf of the
    bisection tree, past the least shadow price that meets the budget: the
    upper point is the leaf's top, the answer itself, so the search ends on
    a probed point.  (The point λ·(1 + m) itself would meet the budget, and
    the answer above it would be decided without a probe.)"""
    rng = np.random.default_rng(11)
    X, model = population(rng, size=2 * budget.SAMPLE_ROWS)
    discounts = DiscountSet()
    q = purchase_prob_table(model, X, discounts)
    v = np.asarray(discounts.values)
    basket = 100.0
    low, high = (full_probe(q, v, lam, basket) for lam in reversed(LAMBDA_BOUNDS))
    config = BudgetConfig(basket, 0.5 * (low + high))
    expected = full_row_bisect(q, v, config, LAMBDA_BOUNDS, TOLERANCE)
    over, fits = expected - TOLERANCE, expected  # the answer's leaf holds the least such price
    for _ in range(60):
        mid = 0.5 * (over + fits)
        over, fits = (over, mid) if full_probe(q, v, mid, basket) <= config.budget else (mid, fits)
    assert fits < expected
    guess = 0.5 * (fits + expected) / (1 + budget.BRACKET_MARGIN)
    bisect = budget._bisect
    monkeypatch.setattr(budget, "_bisect", lambda table, v, config: (
        (guess, None) if len(table) < len(q) else bisect(table, v, config)))
    assert bracket(guess, LAMBDA_BOUNDS, TOLERANCE)[1] == expected
    assert bisected(q, v, config) == expected
