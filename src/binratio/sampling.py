"""Deterministic Monte Carlo generation of the standardized statistic.

Randomness comes from numpy's counter-based Philox generator keyed by a
(master_seed, stream_index) pair, so every stream is an independent, pure
function of its SeedSpec: batches are bitwise reproducible regardless of how
work is split across threads. Binomial draws use numpy's exact sampler
(inversion for small np, acceptance-rejection otherwise), whose cost per
draw is bounded independent of n.

Stream layout, owned here: a run consumes ``STREAMS_PER_RUN`` substreams of
its SeedSpec, substream k being stream index (stream_index + k) mod 2**64.
``draw_counts`` draws X from substream 0 and Y from substream 1,
``reference_normal_batch`` from substream 2. All draw from one Philox
generator per thread, and every draw re-keys it first: resetting the key,
the counter and the output buffer through the bit generator's ``state``
gives exactly the stream a fresh ``make_generator`` would, for a fraction of
the cost of building one. ``make_generator`` builds a thread's generator at
its first draw, which re-keys it too. A CLI command drops it when the
command ends; a library caller's thread keeps it until the thread ends or
until a ``thread_generator_scope`` that caller opened closes. Streams never
depend on this, because every draw re-keys the generator first.

``draw_counts`` turns each int64 draw array to float64 in its own buffer, and
``simulate_batch`` gives up both to ``standardized_statistic`` and sorts the
statistic where it lies: a batch of N draws holds two arrays of length N at
its peak. ``reference_normal_batch`` sorts its own draws, so both batches come
sorted. The x = 0 conventions are applied by masks only when some count is zero.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import LimitLaw, ModelParams, _integer

__all__ = [
    "STREAMS_PER_RUN",
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

    Both are Python ints in [0, 2**64), by ``model``'s rule. Distinct stream indices
    under one master seed give independent streams; a run's substreams are consecutive.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0, 2**64))


def make_generator(seed: SeedSpec) -> np.random.Generator:
    """Philox generator keyed directly by the seed pair (pure function)."""
    key = np.array([seed.master_seed, seed.stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Substreams a run consumes: X draws, Y draws, Normal reference.
STREAMS_PER_RUN = 3
# The largest trial count Generator.binomial accepts: it reads n as int64.
MAX_TRIALS = 2**63 - 1

_FRESH_BLOCK = (0, 0, 0, 0)
_thread = threading.local()


def _keyed_generator(seed: SeedSpec, substream: int) -> np.random.Generator:
    """This thread's generator, re-keyed to stream (stream_index + substream) mod 2**64.

    Every call re-keys, a thread's first one too. The state of a freshly
    keyed Philox is counter 0, an exhausted output buffer and no cached
    32-bit half; the Generator's only other state, the Binomial set-up
    cache, is a pure function of (n, p). The returned object is shared: the
    next call on this thread re-keys it.
    """
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = make_generator(seed)
    key = (seed.master_seed, (seed.stream_index + substream) % 2**64)
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

    Each thread keeps one generator and re-keys it for every stream: draws
    inside the block share the one built at the first of them, and the next
    draw after the block builds a new one. A CLI command runs inside one
    scope; a library caller's thread keeps its generator until the thread
    ends or until a scope that caller opened closes. Streams never depend on
    the scope, because every draw re-keys the generator first.
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
    n = _integer(n, "n", 1)
    if not (0.0 < p < 1.0):
        raise ParameterError(f"p must lie in (0, 1), got {p!r}")
    return gen.binomial(n, p, size=size)


def _float_counts(counts: np.ndarray) -> np.ndarray:
    """int64 ``counts`` turned to float64 in their own buffer, returned as that view."""
    as_float = counts.view(np.float64)
    as_float[...] = counts  # an exact overlap: numpy casts element by element, no copy
    return as_float


def draw_counts(params: ModelParams, count: int, seed: SeedSpec):
    """``count`` independent (X, Y) draws as float64: X from substream 0, Y from 1.

    Each int64 draw array is turned to float64 in its own buffer, ready to be
    given up to ``simulate_batch``. Trial counts above ``MAX_TRIALS``
    are a ParameterError (``check_trials``).
    """
    count = _integer(count, "count", 1)
    check_trials(params)
    x = draw_binomial(params.n, params.p, _keyed_generator(seed, 0), count)
    y = draw_binomial(params.m, params.p, _keyed_generator(seed, 1), count)
    return _float_counts(x), _float_counts(y)


@dataclass(frozen=True)
class SampleBatch:
    """Read-only simulated draws plus their degeneracy counts; no model or regime.

    ``simulate_batch`` gives its ``values`` in ascending order; ``zero_numerator_count``
    counts draws with x = 0 and ``zero_denominator_count`` those with x + y = 0; the
    batch size is ``len(values)``.
    """

    values: np.ndarray
    zero_numerator_count: int
    zero_denominator_count: int

    def __post_init__(self) -> None:
        self.values.flags.writeable = False
        size = len(self.values)
        if not 0 <= self.zero_denominator_count <= self.zero_numerator_count <= size:
            raise ParameterError("inconsistent degeneracy counts")


def _meets_contract(x, y, r_log_sum, out) -> bool:
    """Whether the inputs meet one of ``standardized_statistic``'s two contracts."""
    arrays = isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
    if r_log_sum is None:
        return (arrays and out is None and x.dtype == y.dtype == np.float64
                and x.shape == y.shape and x.flags.writeable and y.flags.writeable
                and not np.shares_memory(x, y))  # exact: interleaved columns pass
    with suppress(ValueError):  # x and y do not broadcast
        return (arrays and x.dtype.kind in "biuf" and y.dtype.kind in "biuf"
                and isinstance(out, np.ndarray) and out.dtype == np.float64
                and out.shape == np.broadcast_shapes(x.shape, y.shape))
    return False


def standardized_statistic(x, y, law: LimitLaw, r_log_sum=None, out=None):
    """T = scale * (R - center), evaluated as amp * expm1(delta).

    Here amp = exp(log_scale + log_center) and
    delta = s*log(x) - r*log(x+y) - log_center, which survives exponents and
    sizes where x^s alone overflows. A draw with x = 0 sits at the
    statistic's minimum T = -amp (R taken as 0); a fully degenerate
    x + y = 0 draw follows the same convention. The x = 0 and x + y = 0
    masks apply only when some count is not positive.

    Without ``r_log_sum``, x and y are writeable float64 arrays of one shape,
    disjoint in memory, that the caller gives up: r*log(x + y) is formed in
    y's buffer, s*log(x) in x's, and T is returned in y's. With it, x and y
    are integer or float arrays, ``r_log_sum`` holds r*log(x + y) (log(0)
    read as log(1)) in their broadcast shape, and ``out`` is a float64 array
    of that shape: x, y and ``r_log_sum`` are only read, and T is formed in
    ``out`` and returned, bit for bit as without ``r_log_sum``. The oracle
    reads it from one table this way. Any other input is a ParameterError.
    """
    amp = math.exp(law.log_scale + law.log_center)
    if not _meets_contract(x, y, r_log_sum, out):
        raise ParameterError(
            "standardized_statistic takes writeable float64 arrays x and y of one shape "
            "that share no memory, or r_log_sum, integer or float arrays x and y and "
            "out, a float64 array of their broadcast shape"
        )
    given_up = r_log_sum is None
    # x.min() > 0 and y.min() >= 0 also rule out NaN, so no mask is needed
    masked = not (x.size and y.size and x.min() > 0 and y.min() >= 0)
    if masked and (np.any(x < 0) or np.any(y < 0)):
        raise ParameterError("counts must be nonnegative")
    # beyond float range T is inf or NaN, unwarned: every caller rejects it;
    # log(0) is -inf, unwarned: the x = 0 mask replaces it by log(1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if given_up:
            out = r_log_sum = np.add(x, y, out=y)
            if masked:
                np.copyto(out, 1.0, where=~(out > 0))
            np.log(out, out=out)
            out *= law.r
        if masked:
            x_pos = x > 0
        delta = np.log(x, out=x if given_up else None, dtype=np.float64)
        if masked:
            np.copyto(delta, 0.0, where=~x_pos)
        delta *= law.s
        np.subtract(delta, r_log_sum, out=out)
        out -= law.log_center
        np.expm1(out, out=out)
        if masked:
            np.copyto(out, -1.0, where=~x_pos)
        out *= amp
    return out


def simulate_batch(x, y, law: LimitLaw) -> SampleBatch:
    """The draws (x, y) standardized by ``law``, as a batch in ascending order.

    x and y are the float64 counts ``draw_counts`` returns, or any pair that
    meets ``standardized_statistic``'s given-up contract and is one
    nonempty row; anything else is a ParameterError, raised before any read.
    ``law`` is the caller's ``limit_law(params, regime)``. The statistic is
    formed in the two buffers and sorted where it lies; makes no draw.
    """
    if not (_meets_contract(x, y, None, None) and x.ndim == 1 and x.size):
        raise ParameterError("simulate_batch takes nonempty one-dimensional writeable "
                             "float64 arrays x and y of one shape that share no memory")
    zero_num = zero_den = 0
    if not x.min() > 0:  # a NaN minimum can hide an x = 0
        x_zero = x == 0
        zero_num = int(np.count_nonzero(x_zero))
        zero_den = int(np.count_nonzero(y[x_zero] == 0))
    values = standardized_statistic(x, y, law)
    values.sort()
    return SampleBatch(
        values=values, zero_numerator_count=zero_num, zero_denominator_count=zero_den
    )


def reference_normal_batch(variance: float, count: int, seed: SeedSpec) -> np.ndarray:
    """``count`` N(0, variance) draws from substream 2 of ``seed``, in ascending order."""
    count = _integer(count, "count", 1)
    if not (variance >= 0 and math.isfinite(variance)):
        raise ParameterError(f"variance must be finite and >= 0, got {variance!r}")
    ref = _keyed_generator(seed, 2).normal(0.0, math.sqrt(variance), size=count)
    ref.sort()
    return ref
