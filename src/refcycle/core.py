"""Domain types for price grids, gain tables, and price cycles.

A customer's *reference* at time t is the best (lowest) price they saw in the
previous ``memory`` periods; :func:`reference_indices` walks a cycle once and
returns every position's reference.  A pricing policy over a finite price set
settles into a cycle, and the quantity of interest is the long-run average gain

    (1/c) * sum_t g(r_t, p_t)

over a cycle of price indices p_0, ..., p_(c-1), where r_t is
``reference_indices(cycle, grid)[t]``: :func:`cycle_objective` in floats,
:func:`exact_objective` in rationals, both from the same walk over the
canonical cycle's offers.  Cycles of a special shape — each price increase
held for ``memory`` consecutive periods, each decrease offered once — are
generated by a short cycle of distinct prices; those are the "l-up-1-down"
cycles handled by :func:`expand` and :func:`is_l_up_1_down`.

Prices are exact rationals so that cycle canonicalisation and equality are
exact; gains are plain floats.  Everything here is immutable and pure, so all
operations are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "PriceGrid",
    "GainTable",
    "PriceCycle",
    "GeneratorCycle",
    "as_price",
    "reference_indices",
    "cycle_objective",
    "exact_objective",
    "MAX_EXPANSION",
    "expand",
    "is_l_up_1_down",
]


def as_price(value: int | float | str | Fraction) -> Fraction:
    """Convert a price-like value to an exact Fraction.

    Floats go through their shortest decimal repr, so 0.12 becomes 3/25
    rather than the nearest binary fraction.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"price {value!r} has a zero denominator") from None


@dataclass(frozen=True)
class PriceGrid:
    """Ordered set of feasible prices plus the customer's memory length."""

    prices: tuple[Fraction, ...]
    memory: int

    def __post_init__(self) -> None:
        if len(self.prices) < 1:
            raise ValueError("price grid needs at least one price")
        if any(b <= a for a, b in zip(self.prices, self.prices[1:])):
            raise ValueError("prices must be strictly increasing")
        if self.memory < 1:
            raise ValueError("memory length must be a positive integer")

    @classmethod
    def from_values(cls, values: Iterable[int | float | str | Fraction], memory: int) -> "PriceGrid":
        return cls(tuple(as_price(v) for v in values), memory)

    def __len__(self) -> int:
        return len(self.prices)

    def index_of(self, price: int | float | str | Fraction) -> int:
        target = as_price(price)
        for i, p in enumerate(self.prices):
            if p == target:
                return i
        raise ValueError(f"price {price!r} not in grid")


@dataclass(frozen=True)
class GainTable:
    """Per-step gain g(reference, price) on the grid, rows indexed by reference.

    ``gains[r][p]`` is the gain from offering the price with index ``p`` while
    the customer's reference is the price with index ``r``.
    """

    grid: PriceGrid
    gains: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.grid)
        if len(self.gains) != n or any(len(row) != n for row in self.gains):
            raise ValueError(f"gain matrix must be {n}x{n}")
        for row in self.gains:
            for value in row:
                if value != value or value in (float("inf"), float("-inf")):
                    raise ValueError("gain entries must be finite")

    @classmethod
    def from_rows(cls, grid: PriceGrid, rows: Sequence[Sequence[float]]) -> "GainTable":
        return cls(grid, tuple(tuple(float(v) for v in row) for row in rows))

    def reference_monotone(self) -> bool:
        """True iff every column is weakly increasing in the reference index.

        A higher reference (the customer remembers only worse prices) should
        never reduce the gain of any offer.
        """
        n = len(self.grid)
        return all(
            self.gains[r][p] <= self.gains[r + 1][p]
            for p in range(n)
            for r in range(n - 1)
        )


def _primitive_period(tokens: tuple[int, ...]) -> int:
    c = len(tokens)
    for period in range(1, c + 1):
        if c % period:
            continue
        if all(tokens[i] == tokens[(i + period) % c] for i in range(c)):
            return period
    return c


@dataclass(frozen=True)
class PriceCycle:
    """Cyclic sequence of price indices into a grid.

    Two cycles are equivalent when one is a rotation of a repetition of the
    other; :meth:`canonical` (primitive period, then lexicographically least
    rotation) is the normal form for that equivalence.
    """

    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) < 1:
            raise ValueError("cycle needs at least one token")
        if any(t < 0 for t in self.tokens):
            raise ValueError("tokens are nonnegative price indices")

    @classmethod
    def from_prices(cls, grid: PriceGrid, values: Iterable[int | float | str | Fraction]) -> "PriceCycle":
        return cls(tuple(grid.index_of(v) for v in values))

    def __len__(self) -> int:
        return len(self.tokens)

    def canonical(self) -> "PriceCycle":
        period = _primitive_period(self.tokens)
        base = self.tokens[:period]
        best = min(base[k:] + base[:k] for k in range(period))
        return PriceCycle(best)

    def equivalent(self, other: "PriceCycle") -> bool:
        return self.canonical().tokens == other.canonical().tokens

    def validate_for(self, grid: PriceGrid) -> None:
        if any(t >= len(grid) for t in self.tokens):
            raise ValueError("cycle token out of range for grid")


@dataclass(frozen=True)
class GeneratorCycle:
    """Cycle of distinct price indices generating an l-up-1-down price cycle."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("generator cycle needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError("generator cycle values must be distinct")
        if any(v < 0 for v in self.values):
            raise ValueError("values are nonnegative price indices")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_prices(cls, grid: PriceGrid, values: Iterable[int | float | str | Fraction]) -> "GeneratorCycle":
        return cls(tuple(grid.index_of(v) for v in values))

    def canonical(self) -> "GeneratorCycle":
        d = len(self.values)
        best = min(self.values[k:] + self.values[:k] for k in range(d))
        return GeneratorCycle(best)


def reference_indices(cycle: PriceCycle, grid: PriceGrid) -> list[int]:
    """Index of the best price in the memory window preceding each position.

    The window wraps around the cycle; when the cycle is shorter than the
    memory it covers the whole cycle.  Position t reads the slice
    ``history[t:t + w]`` of the cycle prefixed by its last w tokens.
    """
    tokens = cycle.tokens
    c = len(tokens)
    window = min(grid.memory, c)
    history = tokens[c - window:] + tokens
    return [min(history[t:t + window]) for t in range(c)]


def _offer_gains(cycle: PriceCycle, table: GainTable) -> list[float]:
    """Gains of the canonical cycle's offers, in order."""
    cycle.validate_for(table.grid)
    canon = cycle.canonical()
    refs = reference_indices(canon, table.grid)
    return [table.gains[ref][tok] for ref, tok in zip(refs, canon.tokens)]


def cycle_objective(cycle: PriceCycle, table: GainTable) -> float:
    """Long-run average gain of a price cycle.

    Evaluated on the canonical form, so the result is exactly invariant under
    rotation and under repeating the cycle.
    """
    gains = _offer_gains(cycle, table)
    total = 0.0
    for gain in gains:
        total += gain
    return total / len(gains)


def exact_objective(cycle: PriceCycle, table: GainTable) -> Fraction:
    """Rational-arithmetic version of :func:`cycle_objective`."""
    gains = _offer_gains(cycle, table)
    return sum(map(Fraction, gains), Fraction(0)) / len(gains)


def expansion_count(memory: int, previous_index: int, value_index: int) -> int:
    """Number of consecutive offers of a generator value: memory when the price
    moves up from its predecessor, otherwise one.  This is also the step count
    k(r, p) of offering price p from reference r in the reduced process."""
    return memory if value_index > previous_index else 1


MAX_EXPANSION = 10**7


def expand(generator: GeneratorCycle, grid: PriceGrid) -> PriceCycle:
    """Price cycle generated by a cycle of distinct prices.

    Each value is repeated ``memory`` times when it is an increase over the
    previous value and offered once otherwise.  A single-value generator
    expands to the constant one-token cycle.  The length is counted before
    anything is built, and one over :data:`MAX_EXPANSION` tokens is refused.
    """
    values = generator.values
    if any(v >= len(grid) for v in values):
        raise ValueError("generator value out of range for grid")
    if len(values) == 1:
        return PriceCycle((values[0],))
    d = len(values)
    counts = [expansion_count(grid.memory, values[(t - 1) % d], v) for t, v in enumerate(values)]
    if sum(counts) > MAX_EXPANSION:
        raise ValueError(f"expansion of {sum(counts)} tokens exceeds the bound {MAX_EXPANSION}")
    tokens: list[int] = []
    for v, count in zip(values, counts):
        tokens.extend([v] * count)
    return PriceCycle(tuple(tokens))


def _cyclic_runs(tokens: tuple[int, ...]) -> list[tuple[int, int]]:
    """Run-length encoding of a cyclic string; wrap-around runs are merged."""
    runs: list[list[int]] = []
    for tok in tokens:
        if runs and runs[-1][0] == tok:
            runs[-1][1] += 1
        else:
            runs.append([tok, 1])
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        runs[0][1] += runs[-1][1]
        runs.pop()
    return [(tok, count) for tok, count in runs]


def is_l_up_1_down(cycle: PriceCycle, grid: PriceGrid) -> tuple[bool, GeneratorCycle | None]:
    """Test whether a cycle is the expansion of some distinct-price generator.

    Returns ``(True, generator)`` when some rotation of the canonical cycle
    equals :func:`expand` of a generator cycle, else ``(False, None)``.  The
    generator is returned in canonical rotation.
    """
    cycle.validate_for(grid)
    canon = cycle.canonical()
    runs = _cyclic_runs(canon.tokens)
    values = [tok for tok, _ in runs]
    if len(values) == 1:
        return True, GeneratorCycle((values[0],))
    if len(set(values)) != len(values):
        return False, None
    d = len(values)
    for t, (tok, count) in enumerate(runs):
        if count != expansion_count(grid.memory, values[(t - 1) % d], tok):
            return False, None
    return True, GeneratorCycle(tuple(values)).canonical()
