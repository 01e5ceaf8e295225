"""Experiment orchestration: single runs, parameter sweeps, bound diagnostics.

A sweep varies one parameter of a base model over a grid, runs the full
simulate/compare pipeline at every grid point with a per-point derived seed,
and collects one row per (point, replicate). Points are independent tasks:
they may execute on a thread pool, and results are identical to serial
execution because each point's seed is a pure function of
(master_seed, point index) and rows are emitted in grid order.

Built-in presets named fig1a..fig4e encode the sweep ranges of the four
simulation studies (collapse, heavy-denominator, balanced, and
light-denominator regimes).
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from numbers import Real

import numpy as np

from .calculus import scaled_remainder_bound, scaled_remainder_samples
from .divergence import (
    DEFAULT_BIN_COUNT,
    Direction,
    DivergenceReport,
    compare_batches,
)
from .errors import ParameterError
from .model import ModelParams, Regime, RegimeKind, limit_law
from .sampling import (
    SampleBatch,
    SeedSpec,
    check_trials,
    draw_counts,
    reference_normal_batch,
    simulate_batch,
    thread_generator_scope,
)

__all__ = [
    "DEFAULT_BOUND_SAMPLES",
    "DEFAULT_SAMPLES",
    "SweepSpec",
    "SweepRow",
    "SingleRunResult",
    "BoundDiagnosticsRow",
    "run_single",
    "run_sweep",
    "run_bound_diagnostics",
    "preset",
    "PRESET_NAMES",
]

DEFAULT_SAMPLES = 100_000
DEFAULT_BOUND_SAMPLES = 10_000

# Streams consumed per run: X draws, Y draws, Normal reference.
_STREAMS_PER_RUN = 3


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description.

    ``vary`` names the swept field of ModelParams ('p', 's', 'r', 'm', 'n');
    ``grid`` is the explicit list of values it takes. A BALANCED regime with
    alpha=None takes alpha = m/n at every grid point. ``direction``
    None means the regime-based default.
    """

    base: ModelParams
    regime: Regime
    vary: str
    grid: tuple
    replicates_per_point: int = 1
    samples: int = DEFAULT_SAMPLES
    bins: int = DEFAULT_BIN_COUNT
    direction: Direction | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.vary not in ("p", "s", "r", "m", "n"):
            raise ParameterError(f"cannot vary {self.vary!r}")
        if len(self.grid) == 0:
            raise ParameterError("grid must be nonempty")
        if self.replicates_per_point < 1:
            raise ParameterError("replicates_per_point must be >= 1")
        object.__setattr__(self, "grid", tuple(self.grid))

    def params_at(self, value) -> ModelParams:
        if self.vary in ("m", "n") and isinstance(value, Real) and math.isfinite(value):
            value = int(round(value))  # anything else is left for ModelParams to reject
        return replace(self.base, **{self.vary: value})


@dataclass(frozen=True)
class SweepRow:
    varied_param: str
    varied_value: float
    kl: float
    direction: Direction
    smoothed_bins: int
    zero_denominator_count: int
    seed: SeedSpec
    wall_time_ms: float


@dataclass(frozen=True)
class SingleRunResult:
    report: DivergenceReport
    simulated: SampleBatch
    reference: SampleBatch
    wall_time_ms: float
    seed: SeedSpec


def run_single(
    params: ModelParams,
    regime: Regime,
    samples: int = DEFAULT_SAMPLES,
    bins: int = DEFAULT_BIN_COUNT,
    direction: Direction | None = None,
    seed: SeedSpec = SeedSpec(0),
) -> SingleRunResult:
    """Simulate one batch, draw the matched Normal reference, compare."""
    start = time.perf_counter()
    law = limit_law(params, regime)
    collapse = regime.kind is RegimeKind.COLLAPSE  # degenerate: forward KL is moot
    direction = direction or (Direction.REVERSED if collapse else Direction.FORWARD)
    sim = simulate_batch(params, law, samples, seed)
    ref = reference_normal_batch(law.variance, samples, seed.substream(2))
    report = compare_batches(sim.values, ref.values, direction, bins)
    elapsed = (time.perf_counter() - start) * 1e3
    return SingleRunResult(
        report=report, simulated=sim, reference=ref, wall_time_ms=elapsed, seed=seed
    )


def _point_seed(spec: SweepSpec, point: int, rep: int) -> SeedSpec:
    index = point * spec.replicates_per_point + rep
    return SeedSpec(spec.master_seed, index * _STREAMS_PER_RUN)


def _run_point(spec: SweepSpec, params: ModelParams, point: int, rep: int) -> SweepRow:
    seed = _point_seed(spec, point, rep)
    result = run_single(
        params,
        spec.regime,
        samples=spec.samples,
        bins=spec.bins,
        direction=spec.direction,
        seed=seed,
    )
    return SweepRow(
        varied_param=spec.vary,
        varied_value=float(spec.grid[point]),
        kl=result.report.kl,
        direction=result.report.direction,
        smoothed_bins=result.report.smoothed_bins,
        zero_denominator_count=result.simulated.zero_denominator_count,
        seed=seed,
        wall_time_ms=result.wall_time_ms,
    )


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """All grid points (times replicates), rows in grid order.

    Every grid point's params are built, and so validated (trial counts
    included), once before any simulation starts, so an invalid point fails
    fast. Results are independent of ``threads``. Each thread that runs
    points draws from one generator, dropped when the sweep ends.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads!r}")
    points = [spec.params_at(value) for value in spec.grid]
    for params in points:
        check_trials(params)
    tasks = [
        (params, point, rep)
        for point, params in enumerate(points)
        for rep in range(spec.replicates_per_point)
    ]
    if threads == 1:
        with thread_generator_scope():
            return [_run_point(spec, *task) for task in tasks]
    # Pool threads end with the pool, and their generators with them.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_run_point, spec, *task) for task in tasks]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class BoundDiagnosticsRow:
    n: int
    m: int
    bound: float
    q50: float
    q99: float
    q100: float


def run_bound_diagnostics(
    params: ModelParams,
    regime: Regime,
    samples: int = DEFAULT_BOUND_SAMPLES,
    seed: SeedSpec = SeedSpec(0),
) -> BoundDiagnosticsRow:
    """Analytic remainder bound next to empirical |scale * Q| quantiles."""
    law = limit_law(params, regime)
    with thread_generator_scope():
        x, y = draw_counts(params, samples, seed)
    scaled_q = np.abs(scaled_remainder_samples(params, law, x, y))
    q50, q99 = np.quantile(scaled_q, [0.5, 0.99])
    return BoundDiagnosticsRow(
        n=params.n,
        m=params.m,
        bound=scaled_remainder_bound(params, regime, law),
        q50=float(q50),
        q99=float(q99),
        q100=float(scaled_q.max()),
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _p_grid() -> tuple:
    # "range 0 to 1" clipped to the open interval the model admits.
    return tuple(np.round(np.linspace(0.01, 0.99, 25), 6))

def _exp_grid() -> tuple:
    return tuple(float(v) for v in range(1, 31))

def _size_grid(lo: float, hi: float, steps: int = 11) -> tuple:
    return tuple(int(round(v)) for v in np.linspace(lo, hi, steps))


_PRESET_BASES = {
    "fig1": (ModelParams(n=200_000, m=2_000_000_000, p=0.5, s=15.0, r=15.0),
             Regime.collapse()),
    "fig2": (ModelParams(n=3_800_000, m=1_100_000_000, p=0.5, s=15.0, r=15.0),
             Regime.case_i()),
    "fig3": (ModelParams(n=1_000_000, m=1_000_000, p=0.5, s=15.0, r=15.0),
             Regime.case_ii(None)),
    "fig4": (ModelParams(n=1_100_000_000, m=3_800_000, p=0.5, s=16.0, r=15.0),
             Regime.case_iii()),
}

_PRESET_SWEEPS = {
    "fig1a": ("fig1", "p", _p_grid),
    "fig1b": ("fig1", "s", _exp_grid),
    "fig1c": ("fig1", "r", _exp_grid),
    "fig1d": ("fig1", "m", lambda: _size_grid(2e9, 2.001e9)),
    "fig1e": ("fig1", "n", lambda: _size_grid(2e5, 1.2e6)),
    "fig2a": ("fig2", "p", _p_grid),
    "fig2b": ("fig2", "s", _exp_grid),
    "fig2c": ("fig2", "r", _exp_grid),
    "fig2d": ("fig2", "m", lambda: _size_grid(1.1e9, 1.101e9)),
    "fig2e": ("fig2", "n", lambda: _size_grid(3.8e6, 4.8e6)),
    "fig3a": ("fig3", "p", _p_grid),
    "fig3b": ("fig3", "s", _exp_grid),
    "fig3c": ("fig3", "r", _exp_grid),
    "fig3d": ("fig3", "m", lambda: _size_grid(1e6, 2e6)),
    "fig3e": ("fig3", "n", lambda: _size_grid(1e6, 2e6)),
    "fig4a": ("fig4", "p", _p_grid),
    "fig4b": ("fig4", "s", _exp_grid),
    "fig4c": ("fig4", "r", _exp_grid),
    # Published range recorded verbatim even though it runs downward and
    # disagrees with the fixed m used elsewhere in that study.
    "fig4d": ("fig4", "m", lambda: _size_grid(2.8e6, 1.2e6)),
    "fig4e": ("fig4", "n", lambda: _size_grid(1.1e9, 1.101e9)),
}

PRESET_NAMES = tuple(sorted(_PRESET_SWEEPS))


def preset(
    name: str,
    samples: int = DEFAULT_SAMPLES,
    bins: int = DEFAULT_BIN_COUNT,
    master_seed: int = 0,
) -> SweepSpec:
    """Look up a built-in sweep preset by name (fig1a .. fig4e)."""
    try:
        base_key, vary, grid_fn = _PRESET_SWEEPS[name]
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    if name == "fig4d":
        warnings.warn(
            "fig4d keeps its published descending m range verbatim; it is "
            "inconsistent with the fixed m of the other fig4 sweeps",
            stacklevel=2,
        )
    base, regime = _PRESET_BASES[base_key]
    return SweepSpec(
        base=base,
        regime=regime,
        vary=vary,
        grid=grid_fn(),
        samples=samples,
        bins=bins,
        master_seed=master_seed,
    )
