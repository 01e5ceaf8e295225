"""Deterministic Monte Carlo generation of the standardized statistic.

Randomness comes from numpy's counter-based Philox generator keyed by a
(master_seed, stream_index) pair, so every stream is an independent, pure
function of its SeedSpec: batches are bitwise reproducible regardless of how
work is split across threads. Binomial draws use numpy's exact sampler
(inversion for small np, acceptance-rejection otherwise), whose cost per
draw is bounded independent of n.

Stream layout: ``draw_counts`` draws X from substream 0 of its SeedSpec and
Y from substream 1; ``reference_normal_batch`` consumes the stream it is
given directly (the runner hands it substream 2). Both draw from one
Philox generator per thread, re-keyed for each stream: resetting the key,
the counter and the output buffer through the bit generator's ``state``
gives exactly the stream a fresh ``make_generator`` would, for a fraction
of the cost of building one. ``make_generator`` builds a thread's
generator at its first draw; the runner drops it when a sweep or a bound
diagnostic ends (``thread_generator_scope``), so none outlives the run
that drew from it.

Standardization reads the integer counts as drawn, with no float copies: it
forms x + y and the two logs in float64 and does every later step in place,
so a batch of N draws costs two float arrays of length N. The x = 0
conventions are applied by masks only when some count is zero.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import LimitLaw, ModelParams

__all__ = [
    "SeedSpec",
    "SampleBatch",
    "make_generator",
    "thread_generator_scope",
    "check_trials",
    "draw_binomial",
    "draw_counts",
    "standardized_statistic",
    "simulate_batch",
    "reference_normal_batch",
]


@dataclass(frozen=True)
class SeedSpec:
    """Keyed RNG stream identity: (master_seed, stream_index) -> Philox key.

    Distinct stream indices under one master seed give statistically
    independent streams; ``substream`` derives related streams.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 2**64):
            raise ParameterError("master_seed must fit in 64 unsigned bits")
        if not (0 <= self.stream_index < 2**64):
            raise ParameterError("stream_index must fit in 64 unsigned bits")

    def substream(self, offset: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, (self.stream_index + offset) % 2**64)


def make_generator(seed: SeedSpec) -> np.random.Generator:
    """Philox generator keyed directly by the seed pair (pure function)."""
    key = np.array([seed.master_seed, seed.stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The largest trial count Generator.binomial accepts: it reads n as int64.
MAX_TRIALS = 2**63 - 1

_FRESH_BLOCK = (0, 0, 0, 0)
_thread = threading.local()


def _keyed_generator(seed: SeedSpec) -> np.random.Generator:
    """This thread's generator, re-keyed to give ``make_generator(seed)``'s stream.

    The state of a freshly keyed Philox is counter 0, an exhausted output
    buffer and no cached 32-bit half; the Generator's only other state, the
    Binomial set-up cache, is a pure function of (n, p). The returned object
    is shared: the next call on this thread re-keys it.
    """
    gen = getattr(_thread, "generator", None)
    if gen is None:
        _thread.generator = make_generator(seed)
        return _thread.generator
    key = (seed.master_seed, seed.stream_index)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _FRESH_BLOCK, "key": key},
        "buffer": _FRESH_BLOCK,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@contextmanager
def thread_generator_scope():
    """Drop this thread's generator when the block exits.

    Draws inside the block share one generator, built at the first of them;
    the next draw after the block builds a new one. Streams do not depend on
    the scope: every draw re-keys the generator first.
    """
    try:
        yield
    finally:
        _thread.__dict__.pop("generator", None)


def check_trials(params: ModelParams) -> None:
    """ParameterError unless the sampler can draw ``params``' trial counts.

    ``Generator.binomial`` takes n as a 64-bit integer, so n and m must be
    at most ``MAX_TRIALS``.
    """
    if max(params.n, params.m) > MAX_TRIALS:
        raise ParameterError(
            f"n and m must be at most 2**63 - 1 to sample, "
            f"got n={params.n}, m={params.m}"
        )


def draw_binomial(n: int, p: float, gen: np.random.Generator, size=None):
    """Exact Binomial(n, p) draw(s) from an already-constructed generator."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n!r}")
    if not (0.0 < p < 1.0):
        raise ParameterError(f"p must lie in (0, 1), got {p!r}")
    return gen.binomial(n, p, size=size)


def draw_counts(params: ModelParams, count: int, seed: SeedSpec):
    """``count`` independent (X, Y) draws: X from substream 0, Y from 1.

    Trial counts above ``MAX_TRIALS`` are a ParameterError (``check_trials``).
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count!r}")
    check_trials(params)
    x = draw_binomial(params.n, params.p, _keyed_generator(seed.substream(0)), count)
    y = draw_binomial(params.m, params.p, _keyed_generator(seed.substream(1)), count)
    return x, y


@dataclass(frozen=True)
class SampleBatch:
    """Read-only draws plus their degeneracy counts; no model or regime.

    ``zero_numerator_count`` counts draws with x = 0 and
    ``zero_denominator_count`` those with x + y = 0; the batch size is
    ``len(values)``.
    """

    values: np.ndarray
    zero_numerator_count: int
    zero_denominator_count: int

    def __post_init__(self) -> None:
        self.values.flags.writeable = False
        size = len(self.values)
        if not 0 <= self.zero_denominator_count <= self.zero_numerator_count <= size:
            raise ParameterError("inconsistent degeneracy counts")


def _numeric(v) -> np.ndarray:
    """``v`` as an array of at least one dimension with a numeric dtype.

    Integer, unsigned, bool and float arrays pass through uncopied; anything
    else (Python ints beyond 64 bits become object arrays) goes to float64.
    """
    arr = np.atleast_1d(v)
    return arr if arr.dtype.kind in "biuf" else arr.astype(np.float64)


def standardized_statistic(x, y, law: LimitLaw):
    """T = scale * (R - center), evaluated as amp * expm1(delta).

    Here amp = exp(log_scale + log_center) and
    delta = s*log(x) - r*log(x+y) - log_center, which survives exponents and
    sizes where x^s alone overflows. A draw with x = 0 sits at the
    statistic's minimum T = -amp (R taken as 0); a fully degenerate
    x + y = 0 draw follows the same convention. Accepts scalars or arrays of
    any integer or float dtype; array inputs broadcast.

    The counts are read as given, the sum and both logs are formed in
    float64 and every later step runs in place on the sum's buffer; the
    x = 0 and x + y = 0 masks apply only when some count is not positive.
    """
    amp = math.exp(law.log_scale + law.log_center)
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    x_arr, y_arr = _numeric(x), _numeric(y)
    # x.min() > 0 and y.min() >= 0 also rule out NaN, so no mask is needed
    masked = not (x_arr.size and y_arr.size and x_arr.min() > 0 and y_arr.min() >= 0)
    if masked and (np.any(x_arr < 0) or np.any(y_arr < 0)):
        raise ParameterError("counts must be nonnegative")
    out = np.add(x_arr, y_arr, dtype=np.float64)
    if masked:
        np.copyto(out, 1.0, where=~(out > 0))
        x_pos = x_arr > 0
        x_arr = np.where(x_pos, x_arr, 1)
    np.log(out, out=out)
    out *= law.r
    delta = np.log(x_arr, dtype=np.float64)
    delta *= law.s
    np.subtract(delta, out, out=out)
    out -= law.log_center
    np.expm1(out, out=out)
    if masked:
        np.copyto(out, -1.0, where=~x_pos)
    out *= amp
    return float(out[0]) if scalar else out


def simulate_batch(
    params: ModelParams, law: LimitLaw, count: int, seed: SeedSpec
) -> SampleBatch:
    """``count`` independent draws of the ratio statistic standardized by ``law``.

    Deterministic in (params, law, count, seed); ``law`` is the caller's
    ``limit_law(params, regime)``. X and Y come from ``draw_counts``.
    """
    x, y = draw_counts(params, count, seed)
    values = standardized_statistic(x, y, law)
    zero_num = zero_den = 0
    if x.min() == 0:
        zero_num = int(np.count_nonzero(x == 0))
        zero_den = int(np.count_nonzero((x == 0) & (y == 0)))
    return SampleBatch(
        values=values, zero_numerator_count=zero_num, zero_denominator_count=zero_den
    )


def reference_normal_batch(variance: float, count: int, seed: SeedSpec) -> SampleBatch:
    """iid N(0, variance) draws from ``seed``; variance = 0 gives all zeros."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count!r}")
    if not (variance >= 0 and math.isfinite(variance)):
        raise ParameterError(f"variance must be finite and >= 0, got {variance!r}")
    if variance == 0.0:
        values = np.zeros(count)
    else:
        gen = _keyed_generator(seed)
        values = gen.normal(0.0, math.sqrt(variance), size=count)
    return SampleBatch(values=values, zero_numerator_count=0, zero_denominator_count=0)
