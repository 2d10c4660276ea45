"""refcycle: optimal price cycles under peak-end reference effects, plus a
budget-constrained myopic coupon allocator.

The customer's only intertemporal state is the best price they saw over the
last ``memory`` periods.  `core` defines the cycle calculus, `oracle` the
exact exponential verifiers, `solver` the polynomial reduced-process solver,
`reduce` the constructive cycle rewriting, `tightness` the unique-optimum
instance builder, and `allocator` the deployed-style coupon pipeline.
"""

__version__ = "0.1.0"

from .core import (
    GainTable,
    GeneratorCycle,
    PriceCycle,
    PriceGrid,
    cycle_objective,
    expand,
    is_l_up_1_down,
)
from .solver import SolveResult, bellman_residual, solve

__all__ = [
    "GainTable",
    "GeneratorCycle",
    "PriceCycle",
    "PriceGrid",
    "SolveResult",
    "bellman_residual",
    "cycle_objective",
    "expand",
    "is_l_up_1_down",
    "solve",
    "__version__",
]
