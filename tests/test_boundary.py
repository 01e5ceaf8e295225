"""Numbers at the library boundary: each one is stored as a Python int or
float, or is the one ParameterError (RegimeError for alpha) it should be.

Fields are drawn from Python ints, floats and bools and from numpy's integer,
float and bool scalars. The expected outcome follows the package rule: an
integer field takes any integer but a bool, a real field any real but a bool,
within the field's range. Warnings are errors throughout.
"""

import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binratio import (
    Direction,
    ModelParams,
    ParameterError,
    Regime,
    RegimeError,
    RegimeKind,
    SweepSpec,
    run_single,
    run_sweep,
)
from binratio import runner
from binratio.sampling import SeedSpec

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)
NUMPY_FLOATS = {np.float16: 16, np.float32: 32, np.float64: 64}
EDGE_INTS = (-1, 0, 1, 2, 3, 255, 256, 257, 2**63 - 1, 2**63, 2**64 - 1, 2**64)


def _numpy_int(dtype):
    info = np.iinfo(dtype)
    small = st.integers(max(int(info.min), -3), min(int(info.max), 300))
    edges = st.sampled_from([v for v in EDGE_INTS if info.min <= v <= info.max])
    return st.one_of(small, edges, st.integers(int(info.min), int(info.max))).map(dtype)


NUMBERS = st.one_of(
    st.integers(-3, 300),
    st.sampled_from(EDGE_INTS),
    st.floats(),
    st.sampled_from((0.5, 1.0, 2.0, 3.0, 100.0, 1e300)),  # integral floats included
    st.booleans(),
    *(_numpy_int(dtype) for dtype in NUMPY_INTS),
    *(st.floats(width=width).map(dtype) for dtype, width in NUMPY_FLOATS.items()),
    st.booleans().map(np.bool_),
)
PARAMS = ModelParams(n=1000, m=1000, p=0.5, s=2.0, r=1.0)
DIRECTIONS = st.sampled_from((None, Direction.FORWARD, Direction.REVERSED,
                              "forward", "reversed", "sideways"))


def integer_in(value, least, below=math.inf) -> bool:
    """A Python or numpy integer, not a bool, in [least, below)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and least <= int(value) < below


def real_in(value, below=math.inf) -> bool:
    """A non-bool real whose float lies in (0, below) and is finite."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    return 0 < float(value) < below and math.isfinite(float(value))


def run_fits(samples, bins) -> bool:
    need = int(samples) * runner._SAMPLE_BYTES + int(bins) * runner._BIN_BYTES
    return need <= runner.RUN_MEMORY_BUDGET


def build_or_raise(build, valid: bool, error=ParameterError):
    """``build()`` when ``valid``; else check it raises ``error`` and return None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if valid:
            return build()
        with pytest.raises(error):
            build()
    return None


def assert_stored(obj, fields: dict, kind: type):
    for name, given_value in fields.items():
        stored = getattr(obj, name)
        assert type(stored) is kind, (name, given_value, stored)
        assert stored == kind(given_value)


@settings(max_examples=400, deadline=None)
@given(n=NUMBERS, m=NUMBERS, p=NUMBERS, s=NUMBERS, r=NUMBERS)
def test_model_params(n, m, p, s, r):
    valid = (integer_in(n, 1) and integer_in(m, 1) and real_in(p, below=1.0)
             and real_in(s) and real_in(r))
    params = build_or_raise(lambda: ModelParams(n=n, m=m, p=p, s=s, r=r), valid)
    if params is not None:
        assert_stored(params, {"n": n, "m": m}, int)
        assert_stored(params, {"p": p, "s": s, "r": r}, float)


@settings(max_examples=300, deadline=None)
@given(alpha=NUMBERS)
def test_regime_alpha(alpha):
    regime = build_or_raise(lambda: Regime(RegimeKind.BALANCED, alpha), real_in(alpha),
                            RegimeError)
    if regime is not None:
        assert_stored(regime, {"alpha": alpha}, float)


@settings(max_examples=300, deadline=None)
@given(master_seed=NUMBERS, stream_index=NUMBERS)
def test_seed_spec(master_seed, stream_index):
    valid = integer_in(master_seed, 0, 2**64) and integer_in(stream_index, 0, 2**64)
    seed = build_or_raise(lambda: SeedSpec(master_seed, stream_index), valid)
    if seed is not None:
        assert_stored(seed, {"master_seed": master_seed, "stream_index": stream_index}, int)


@settings(max_examples=400, deadline=None)
@given(replicates=NUMBERS, samples=NUMBERS, bins=NUMBERS, master_seed=NUMBERS,
       direction=DIRECTIONS)
def test_sweep_spec(replicates, samples, bins, master_seed, direction):
    fields = {"replicates_per_point": replicates, "samples": samples, "bins": bins,
              "master_seed": master_seed}
    valid = (integer_in(replicates, 1, runner.SWEEP_RUN_LIMIT + 1)
             and integer_in(samples, 1) and integer_in(bins, 2)
             and run_fits(samples, bins) and integer_in(master_seed, 0, 2**64)
             and (direction is None or isinstance(direction, Direction)))
    regime = Regime(RegimeKind.BALANCED, None)
    spec = build_or_raise(lambda: SweepSpec(base=PARAMS, regime=regime, vary="p", grid=(0.5,),
                                            direction=direction, **fields), valid)
    if spec is not None:
        assert_stored(spec, fields, int)


class Drew(Exception):
    """Raised in place of the first draw of a run."""


@settings(max_examples=300, deadline=None)
@given(samples=NUMBERS, bins=NUMBERS, direction=DIRECTIONS)
def test_run_single_checks_settings_before_any_draw(samples, bins, direction):
    def first_draw(params, count, seed):
        assert type(count) is int and count == samples
        raise Drew

    valid = (integer_in(samples, 1) and integer_in(bins, 2) and run_fits(samples, bins)
             and (direction is None or isinstance(direction, Direction)))
    def run():
        return run_single(PARAMS, Regime(RegimeKind.BALANCED, None), samples=samples, bins=bins,
                          direction=direction)

    with mock.patch.object(runner, "draw_counts", first_draw):
        if valid:
            with pytest.raises(Drew):
                build_or_raise(run, True)
        else:
            build_or_raise(run, False)


# what _run_point reads of a run, for sweeps with run_single stubbed out
STUB_RUN = SimpleNamespace(
    report=SimpleNamespace(kl=0.0, direction=Direction.FORWARD, smoothed_bins=0),
    simulated=SimpleNamespace(zero_denominator_count=0),
    wall_time_ms=0.0,
)


@settings(max_examples=300, deadline=None)
@given(threads=NUMBERS)
def test_run_sweep_threads(threads):
    spec = SweepSpec(base=PARAMS, regime=Regime(RegimeKind.BALANCED, None), vary="p",
                     grid=(0.5,), samples=100)
    with mock.patch.object(runner, "run_single", lambda *args, **kw: STUB_RUN):
        rows = build_or_raise(lambda: run_sweep(spec, threads=threads),
                              integer_in(threads, 1, runner.MAX_THREADS + 1))
    if rows is not None:
        assert len(rows) == 1
