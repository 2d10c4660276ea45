import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from refcycle.core import GainTable
from refcycle.instances import integer_grid, nonmonotone_demo_table

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_table(rng: np.random.Generator, num_prices: int, memory: int) -> GainTable:
    """Random gains in [0, 1) with no monotonicity constraint."""
    draws = rng.uniform(0.0, 1.0, size=(num_prices, num_prices))
    return GainTable.from_rows(integer_grid(num_prices, memory), draws.tolist())


@pytest.fixture
def demo_table():
    """Four prices, memory 2, not reference-monotone; optimal mean is 1.0."""
    return nonmonotone_demo_table()


@pytest.fixture
def grid4():
    return integer_grid(4, memory=2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
