"""Simulation lab for the limiting Normal law of X^s/(X+Y)^r with Binomial X, Y."""

from .errors import BinRatioError, BudgetError, ParameterError, RegimeError
from .model import LimitLaw, ModelParams, Regime, RegimeKind, limit_law
from .sampling import (
    SampleBatch,
    SeedSpec,
    draw_counts,
    reference_normal_batch,
    simulate_batch,
    standardized_statistic,
)
from .divergence import (
    Direction,
    DivergenceReport,
    Histogram,
    common_bins,
    compare_batches,
    kl_divergence,
)
from .oracle import ExactDistribution, exact_distribution
from .runner import (
    SweepSpec,
    preset,
    run_bound_diagnostics,
    run_single,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BinRatioError",
    "BudgetError",
    "ParameterError",
    "RegimeError",
    "LimitLaw",
    "ModelParams",
    "Regime",
    "RegimeKind",
    "limit_law",
    "SampleBatch",
    "SeedSpec",
    "draw_counts",
    "reference_normal_batch",
    "simulate_batch",
    "standardized_statistic",
    "Direction",
    "DivergenceReport",
    "Histogram",
    "common_bins",
    "compare_batches",
    "kl_divergence",
    "ExactDistribution",
    "exact_distribution",
    "SweepSpec",
    "preset",
    "run_bound_diagnostics",
    "run_single",
    "run_sweep",
    "__version__",
]
