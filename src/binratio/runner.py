"""Experiment orchestration: single runs, parameter sweeps, bound diagnostics.

A sweep varies one parameter of a base model over a grid, runs the full
simulate/compare pipeline at every grid point with a per-run derived seed,
and collects one row per (point, replicate). Every sweep runs on a thread
pool, in at most ``MAX_THREADS`` contiguous shares of its runs, and its rows
are the same at every thread count because each run's seed is a pure
function of (master_seed, run index) and rows are emitted in grid order.

Built-in presets named fig1a..fig4e encode the sweep ranges of the four
simulation studies (collapse, heavy-denominator, balanced, and
light-denominator regimes).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .calculus import scaled_remainder_bound, scaled_remainder_samples
from .divergence import (
    DEFAULT_BIN_COUNT,
    Direction,
    DivergenceReport,
    compare_batches,
)
from .errors import ParameterError, RegimeError
from .model import ModelParams, Regime, RegimeKind, _instance, _integer, limit_law
from .sampling import (
    STREAMS_PER_RUN,
    SampleBatch,
    SeedSpec,
    check_trials,
    draw_counts,
    reference_normal_batch,
    simulate_batch,
)

__all__ = [
    "DEFAULT_BOUND_SAMPLES",
    "DEFAULT_SAMPLES",
    "MAX_THREADS",
    "RUN_MEMORY_BUDGET",
    "SWEEP_RUN_LIMIT",
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

# Memory budget of one run, in bytes. Peak RSS grows by 17 to 19 bytes per
# sample (the two count buffers, which end as the sorted statistic and the
# sorted reference, plus byte masks; 19 when some x = 0) and by about 40
# bytes per bin, or 640 when ``simulate`` prints both histograms as JSON,
# measured at 1e6 and 4e6 of each; the estimate below rounds these up. A run
# estimated above the budget is refused before any draw.
RUN_MEMORY_BUDGET = 2**32
_SAMPLE_BYTES = 20
_BIN_BYTES = 640
# ``bound``'s peak RSS grows by 32.1 to 32.7 bytes per sample (the two count
# buffers, the linear term and one temporary of it; 32 under tracemalloc),
# measured at 1e6 and 4e6 samples with n = 3, 1e3, 1e6 and 1e7; rounded up.
_BOUND_SAMPLE_BYTES = 36
# Largest sweep, in runs (grid points times replicates). Besides its runs, a
# sweep's peak RSS grows by about 310 bytes per run at any thread count (its
# rows; 500 with the CSV text), measured at 1e5 and 2e5 runs with
# run_single stubbed: about 0.5 GB at the limit, within RUN_MEMORY_BUDGET.
SWEEP_RUN_LIMIT = 10**6
# Most threads and shares of a sweep; a thread holds one run's arrays at a time.
MAX_THREADS = 256


def _check_run_size(samples: int, bins: int) -> tuple[int, int]:
    """``samples`` >= 1 and ``bins`` >= 2 as ints, if within ``RUN_MEMORY_BUDGET``."""
    samples, bins = _integer(samples, "samples", 1), _integer(bins, "bins", 2)
    _check_memory(samples * _SAMPLE_BYTES + bins * _BIN_BYTES,
                  f"{samples} samples in {bins} bins")
    return samples, bins


def _check_memory(need: int, what: str) -> None:
    """ParameterError if ``need`` bytes exceed ``RUN_MEMORY_BUDGET``.

    The message gives both in MiB, the need rounded up, so it reads above the budget.
    """
    if need > RUN_MEMORY_BUDGET:
        raise ParameterError(
            f"{what} need about {-(-need >> 20)} MiB, "
            f"over the run memory budget of {RUN_MEMORY_BUDGET >> 20} MiB"
        )


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description.

    ``vary`` names the swept field of ModelParams ('p', 's', 'r', 'm', 'n');
    ``grid`` is the explicit list of values it takes. A BALANCED regime with
    alpha=None takes alpha = m/n at every grid point. ``direction`` None means
    the regime-based default. Every setting is defaulted and checked here
    alone, integers by ``model``'s rule, so an invalid one fails before any draw.
    Real values of ``m`` or ``n`` not of an integer type are rounded as floats are.
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
        _instance(self.base, ModelParams, "base")
        _instance(self.regime, Regime, "regime", RegimeError)
        replicates = _integer(self.replicates_per_point, "replicates_per_point", 1)
        samples, bins = _check_run_size(self.samples, self.bins)
        seed = _integer(self.master_seed, "master_seed", 0, 2**64)
        if self.direction is not None:
            _instance(self.direction, Direction, "direction")
        for key, value in dict(replicates_per_point=replicates, samples=samples, bins=bins,
                               master_seed=seed, grid=tuple(self.grid)).items():
            object.__setattr__(self, key, value)
        if self.vary not in ("p", "s", "r", "m", "n"):
            raise ParameterError(f"cannot vary {self.vary!r}")
        runs = len(self.grid) * replicates
        if not 1 <= runs <= SWEEP_RUN_LIMIT:
            raise ParameterError(f"a sweep holds 1 to {SWEEP_RUN_LIMIT} runs (grid "
                                 f"points times replicates_per_point), got {runs}")

    def params_at(self, value) -> ModelParams:
        sized = self.vary in ("m", "n")  # integers and bools reach ModelParams as they are
        if sized and isinstance(value, Real) and not isinstance(value, Integral):
            with suppress(OverflowError, ValueError):  # not finite: ModelParams rejects it
                value = int(round(float(value)))
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
    """One run: the KL report and the simulated draws."""

    report: DivergenceReport
    simulated: SampleBatch
    wall_time_ms: float


def run_single(
    params: ModelParams,
    regime: Regime,
    samples: int = DEFAULT_SAMPLES,
    bins: int = DEFAULT_BIN_COUNT,
    direction: Direction | None = None,
    seed: SeedSpec = SeedSpec(0),
) -> SingleRunResult:
    """One run: ``limit_law``, ``draw_counts``, ``simulate_batch``,
    ``reference_normal_batch``, then ``compare_batches`` of the two sorted samples.

    ``samples``, ``bins``, the law and ``direction`` are checked before any draw.
    """
    samples, bins = _check_run_size(samples, bins)
    start = time.perf_counter()
    law = limit_law(params, regime)  # checks the types of params and regime
    collapse = regime.kind is RegimeKind.COLLAPSE  # degenerate: forward KL is moot
    default = Direction.REVERSED if collapse else Direction.FORWARD
    direction = _instance(default if direction is None else direction,
                          Direction, "direction")
    sim = simulate_batch(*draw_counts(params, samples, seed), law)
    ref = reference_normal_batch(law.variance, samples, seed)
    report = compare_batches(sim.values, ref, direction, bins)
    elapsed = (time.perf_counter() - start) * 1e3
    return SingleRunResult(report=report, simulated=sim, wall_time_ms=elapsed)


def _run_point(spec: SweepSpec, points: list[ModelParams], run: int) -> SweepRow:
    """Sweep run ``run``, at grid point run // replicates_per_point."""
    point = run // spec.replicates_per_point
    seed = SeedSpec(spec.master_seed, run * STREAMS_PER_RUN)
    result = run_single(points[point], spec.regime, samples=spec.samples, bins=spec.bins,
                        direction=spec.direction, seed=seed)
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
    fast. Rows and the first failing run's error do not depend on ``threads``;
    once a share has failed, no share after it starts its runs.
    """
    threads = _integer(threads, "threads", 1, MAX_THREADS + 1)
    points = [spec.params_at(value) for value in spec.grid]
    for params in points:
        check_trials(params)
    runs = len(points) * spec.replicates_per_point
    size = math.ceil(runs / MAX_THREADS)  # at most MAX_THREADS shares, in order
    failed = []  # starts of the failed shares; it only grows, by atomic appends

    def run_share(start: int) -> list[SweepRow]:
        if failed and start > min(failed):
            return []  # never read: the earlier failed share raises first
        try:  # stops at its first failure
            return [_run_point(spec, points, run)
                    for run in range(start, min(start + size, runs))]
        except Exception:
            failed.append(start)
            raise

    with ThreadPoolExecutor(max_workers=threads) as pool:
        shares = [pool.submit(run_share, start) for start in range(0, runs, size)]
    return [row for share in shares for row in share.result()]  # in order, after the join


@dataclass(frozen=True)
class BoundDiagnosticsRow:
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
    """Analytic remainder bound next to empirical |scale * Q| quantiles.

    ``samples`` is checked before any draw, against ``RUN_MEMORY_BUDGET`` too;
    a bound or quantile that is not finite is a ParameterError.
    """
    samples = _integer(samples, "samples", 1)
    _check_memory(samples * _BOUND_SAMPLE_BYTES, f"{samples} samples")
    law = limit_law(params, regime)
    x, y = draw_counts(params, samples, seed)
    # beyond float range the quantiles are inf or NaN, unwarned: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        scaled_q = scaled_remainder_samples(params, law, x, y)
        np.abs(scaled_q, out=scaled_q)
        q50, q99 = np.quantile(scaled_q, [0.5, 0.99], overwrite_input=True)
    row = BoundDiagnosticsRow(
        bound=scaled_remainder_bound(params, regime, law),
        q50=float(q50),
        q99=float(q99),
        q100=float(scaled_q.max()),
    )
    if not all(map(math.isfinite, (row.bound, row.q50, row.q99, row.q100))):
        raise ParameterError(f"bound diagnostics are not finite at {params}: {row}")
    return row


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


def preset(name: str) -> SweepSpec:
    """The built-in sweep preset ``name`` (fig1a .. fig4e), at SweepSpec's defaults.

    fig4d keeps its published ``m`` range verbatim: it runs downward, from
    2.8e6 to 1.2e6, and disagrees with the fixed m of the other fig4 sweeps.
    """
    try:
        base_key, vary, grid_fn = _PRESET_SWEEPS[name]
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    base, regime = _PRESET_BASES[base_key]
    return SweepSpec(base=base, regime=regime, vary=vary, grid=grid_fn())
