"""Domain types for price grids, gain tables, and price cycles.

A customer's *reference* at time t is the best (lowest) price they saw in the
previous ``memory`` periods; one streamed sliding-window minimum, linear in the
prices walked, gives every position's reference (:func:`reference_indices`)
and drives the oracle's replay.  A pricing policy over a finite price set
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

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, Sequence

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
        if not all(all(map(math.isfinite, row)) for row in self.gains):
            raise ValueError("gain entries must be finite")

    @classmethod
    def from_rows(cls, grid: PriceGrid, rows: Sequence[Sequence[float]]) -> "GainTable":
        return cls(grid, tuple(tuple(map(float, row)) for row in rows))

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


def _least_rotation(tokens: Sequence[int]) -> int:
    """Start of the lexicographically least rotation, in linear time.

    Two candidate starts i and j are compared token by token.  At the first
    difference, k tokens in, neither the start with the larger token nor any
    of the k starts after it can begin the least rotation, so it jumps past
    them; a start that passes the end, or k reaching the length, ends the scan.
    """
    c = len(tokens)
    doubled = tokens + tokens
    i, j, k = 0, 1, 0
    while i < c and j < c and k < c:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _canonical_span(tokens: Sequence[int]) -> tuple[int, int]:
    """``(start, period)``: the canonical form of the cycle ``tokens`` is the
    primitive period ``tokens[:period]`` rotated to begin at ``start``."""
    c = len(tokens)
    period = next(p for p in range(1, c + 1) if not c % p and tokens[p:] == tokens[:c - p])
    return _least_rotation(tokens[:period]), period


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
        if min(self.tokens) < 0:
            raise ValueError("tokens are nonnegative price indices")

    @classmethod
    def from_prices(cls, grid: PriceGrid, values: Iterable[int | float | str | Fraction]) -> "PriceCycle":
        return cls(tuple(grid.index_of(v) for v in values))

    def __len__(self) -> int:
        return len(self.tokens)

    def canonical(self) -> "PriceCycle":
        start, period = _canonical_span(self.tokens)
        return PriceCycle(self.tokens[start:period] + self.tokens[:start])

    def equivalent(self, other: "PriceCycle") -> bool:
        return self.canonical().tokens == other.canonical().tokens

    def validate_for(self, grid: PriceGrid) -> None:
        if max(self.tokens) >= len(grid):
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
        if min(self.values) < 0:
            raise ValueError("values are nonnegative price indices")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_prices(cls, grid: PriceGrid, values: Iterable[int | float | str | Fraction]) -> "GeneratorCycle":
        return cls(tuple(grid.index_of(v) for v in values))

    def canonical(self) -> "GeneratorCycle":
        return GeneratorCycle(PriceCycle(self.values).canonical().tokens)


def _reference_walk(values: Iterable[int], window: int) -> Iterator[tuple[int, int]]:
    """``(reference, offer)`` for each value after the first ``window``: the
    least of the ``window`` values before it, and the value.  ``low`` holds
    (value, position) candidates, values strictly increasing; one drops out
    when a value no greater arrives or it falls out of the window, so each
    value enters and leaves once and at most one per price is held."""
    low: deque[tuple[int, int]] = deque()
    for t, value in enumerate(values):
        if t >= window:
            if low[0][1] < t - window:
                low.popleft()
            yield low[0][0], value
        while low and low[-1][0] >= value:
            low.pop()
        low.append((value, t))


def reference_indices(cycle: PriceCycle, grid: PriceGrid) -> list[int]:
    """Index of the best price in the memory window preceding each position.

    The window wraps around the cycle; when the cycle is shorter than the
    memory it covers the whole cycle.  The walk reads the cycle prefixed by
    its last w = min(memory, c) tokens as history.
    """
    cycle.validate_for(grid)
    tokens = cycle.tokens
    window = min(grid.memory, len(tokens))
    return [ref for ref, _ in _reference_walk(tokens[-window:] + tokens, window)]


def _offer_gains(cycle: PriceCycle, table: GainTable) -> list[float]:
    """Gains of the canonical cycle's offers, in order."""
    canon = cycle.canonical()
    refs = reference_indices(canon, table.grid)
    return [table.gains[ref][tok] for ref, tok in zip(refs, canon.tokens)]


def _common_denominator(rows: Iterable[Iterable[float]]) -> tuple[int, list[list[int]]]:
    """``(unit, integers)``: the values of ``rows`` over their least common denominator."""
    ratios = [[value.as_integer_ratio() for value in row] for row in rows]
    unit = math.lcm(*{d for row in ratios for _, d in row})
    return unit, [[p * (unit // d) for p, d in row] for row in ratios]


def _mean(gains: Sequence[float]) -> float:
    """The float mean of ``gains``, summed in order from 0.0."""
    total = 0.0
    for gain in gains:
        total += gain
    return total / len(gains)


def cycle_objective(cycle: PriceCycle, table: GainTable) -> float:
    """Long-run average gain of a price cycle.

    Evaluated on the canonical form, so the result is exactly invariant under
    rotation and under repeating the cycle.
    """
    return _mean(_offer_gains(cycle, table))


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
    d = len(values)
    counts = [expansion_count(grid.memory, values[(t - 1) % d], v) for t, v in enumerate(values)]
    if sum(counts) > MAX_EXPANSION:
        raise ValueError(f"expansion of {sum(counts)} tokens exceeds the bound {MAX_EXPANSION}")
    tokens: list[int] = []
    for v, count in zip(values, counts):
        tokens.extend([v] * count)
    return PriceCycle(tuple(tokens))


def is_l_up_1_down(cycle: PriceCycle, grid: PriceGrid) -> tuple[bool, GeneratorCycle | None]:
    """Test whether a cycle is the expansion of some distinct-price generator.

    Returns ``(True, generator)`` when some rotation of the canonical cycle
    equals :func:`expand` of a generator cycle, else ``(False, None)``.  The
    generator is returned in canonical rotation.
    """
    cycle.validate_for(grid)
    # the least rotation starts a whole run of its minimum: no run wraps, values are canonical
    runs = [(tok, len(list(run))) for tok, run in groupby(cycle.canonical().tokens)]
    values = [tok for tok, _ in runs]
    if len(set(values)) != len(values):
        return False, None
    d = len(values)
    for t, (tok, count) in enumerate(runs):
        if count != expansion_count(grid.memory, values[(t - 1) % d], tok):
            return False, None
    return True, GeneratorCycle(tuple(values))
