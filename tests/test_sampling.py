import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from read_only import statistic
from scipy.special import gammaln

from binratio import (
    ModelParams,
    ParameterError,
    Regime,
    RegimeKind,
    SeedSpec,
    limit_law,
    reference_normal_batch,
    simulate_batch,
    standardized_statistic,
)
from binratio.sampling import (
    MAX_TRIALS,
    _keyed_generator,
    draw_binomial,
    draw_counts,
    make_generator,
    thread_generator_scope,
)


def substream(seed, offset):
    """The SeedSpec whose stream is substream ``offset`` of ``seed``."""
    return SeedSpec(seed.master_seed, (seed.stream_index + offset) % 2**64)


def reference_standardized_statistic(x, y, law):
    """The float-copy, always-masked formulation the kernel must match bitwise."""
    amp = math.exp(law.log_scale + law.log_center)
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(x_arr < 0) or np.any(y_arr < 0):
        raise ParameterError("counts must be nonnegative")
    scalar = x_arr.ndim == 0 and y_arr.ndim == 0
    x_arr, y_arr = np.atleast_1d(x_arr), np.atleast_1d(y_arr)
    t_sum = x_arr + y_arr
    safe_x = np.where(x_arr > 0, x_arr, 1.0)
    safe_t = np.where(t_sum > 0, t_sum, 1.0)
    with np.errstate(invalid="ignore"):
        delta = law.s * np.log(safe_x) - law.r * np.log(safe_t) - law.log_center
    out = amp * np.where(x_arr > 0, np.expm1(delta), -1.0)
    return float(out[0]) if scalar else out


def assert_bitwise(got, want):
    """Same type and shape, same float64 bit patterns (-0.0 and NaN included)."""
    assert type(got) is type(want)
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def exact_binomial_cdf(n, p):
    k = np.arange(n + 1)
    log_pmf = (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return np.cumsum(np.exp(log_pmf))


class TestSeedSpec:
    @pytest.mark.parametrize("index, key", [(5, 7), (2**64 - 1, 1)])
    def test_substream_offsets(self, index, key):
        with thread_generator_scope():  # a thread's first call re-keys too
            state = _keyed_generator(SeedSpec(99, index), 2).bit_generator.state
        assert state["state"]["key"].tolist() == [99, key]

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            SeedSpec(-1)
        with pytest.raises(ParameterError):
            SeedSpec(0, 2**64)

    def test_streams_are_pure_functions(self):
        a = make_generator(SeedSpec(1, 2)).integers(0, 2**32, 16)
        b = make_generator(SeedSpec(1, 2)).integers(0, 2**32, 16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_generator(SeedSpec(1, 2)).integers(0, 2**32, 16)
        b = make_generator(SeedSpec(1, 3)).integers(0, 2**32, 16)
        assert not np.array_equal(a, b)


class TestDrawBinomial:
    def test_bernoulli_support(self):
        gen = make_generator(SeedSpec(3))
        draws = draw_binomial(1, 0.4, gen, 200)
        assert set(np.unique(draws)) <= {0, 1}

    def test_moments_at_large_n(self):
        gen = make_generator(SeedSpec(17))
        draws = draw_binomial(10**6, 0.5, gen, 10**5)
        mean, var = draws.mean(), draws.var()
        stderr = math.sqrt(10**6 * 0.25 / 10**5)
        assert abs(mean - 5e5) < 5 * stderr
        assert var == pytest.approx(2.5e5, rel=0.05)

    def test_constant_time_at_huge_n(self):
        gen = make_generator(SeedSpec(23))
        start = time.perf_counter()
        draws = draw_binomial(2_000_000_000, 0.5, gen, 10**5)
        elapsed = time.perf_counter() - start
        assert len(draws) == 10**5
        assert elapsed < 1.0  # >= 1e5 draws/second

    def test_matches_exact_cdf_ks(self):
        n, p, size = 50, 0.3, 10**5
        gen = make_generator(SeedSpec(29))
        draws = draw_binomial(n, p, gen, size)
        cdf = exact_binomial_cdf(n, p)
        ecdf = np.cumsum(np.bincount(draws, minlength=n + 1)) / size
        d_stat = np.max(np.abs(ecdf - cdf))
        crit = math.sqrt(math.log(2 / 0.001) / 2) / math.sqrt(size)
        assert d_stat < crit

    def test_rejects_bad_args(self):
        gen = make_generator(SeedSpec(0))
        with pytest.raises(ParameterError):
            draw_binomial(0, 0.5, gen, 3)
        with pytest.raises(ParameterError):
            draw_binomial(10, 1.0, gen, 3)


class TestStandardizedStatistic:
    def test_zero_at_expansion_point(self):
        params = ModelParams(n=100, m=100, p=0.5, s=1.0, r=1.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        t = statistic(50, 50, law)
        amp = math.exp(law.log_scale + law.log_center)
        assert abs(t) < 1e-12 * amp

    def test_direct_arithmetic_at_small_scale(self):
        params = ModelParams(n=100, m=100, p=0.5, s=1.0, r=1.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        direct = math.exp(law.log_scale) * (60 / 110 - 0.5)
        assert statistic(60, 50, law) == pytest.approx(direct, rel=1e-12)

    def test_finite_under_extreme_exponents(self):
        # x^30 ~ 1e170 overflows, but the log-space path stays finite
        n = m = 10**6
        params = ModelParams(n=n, m=m, p=0.5, s=30.0, r=30.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        sigma = math.sqrt(n * 0.25)
        x = np.arange(n / 2 - 10 * sigma, n / 2 + 10 * sigma, 50.0)
        t = statistic(x, np.full_like(x, m / 2), law)
        assert np.all(np.isfinite(t))
        assert np.max(np.abs(t)) < 1e3

    def test_zero_numerator_convention(self):
        params = ModelParams(n=10, m=10, p=0.5, s=1.5, r=1.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        amp = math.exp(law.log_scale + law.log_center)
        assert statistic(0, 7, law) == pytest.approx(-amp)
        assert statistic(0, 0, law) == pytest.approx(-amp)

    def test_monotone_in_x_for_fixed_sum(self):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        total = 110
        x = np.arange(1, total)
        t = statistic(x, total - x, law)
        assert np.all(np.diff(t) > 0)

    def test_monotone_decreasing_in_y_for_fixed_x(self):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.5)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        y = np.arange(0, 200)
        t = statistic(np.full_like(y, 55), y, law)
        assert np.all(np.diff(t) < 0)

    def test_broadcast_grid_matches_rows(self):
        # the exact oracle evaluates whole (x, y) blocks in one call
        params = ModelParams(n=40, m=60, p=0.3, s=2.0, r=1.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.5))
        xs, ys = np.arange(41), np.arange(61)
        grid = statistic(xs[:, None], ys[None, :], law)
        assert grid.shape == (41, 61)
        rows = np.stack([statistic(np.full(61, x), ys, law) for x in xs])
        assert np.array_equal(grid, rows)
        amp = math.exp(law.log_scale + law.log_center)
        assert np.all(grid[0] == -amp)

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.integers(1, 1000),
        y=st.integers(0, 1000),
        s=st.floats(0.5, 5.0),
        r=st.floats(0.5, 5.0),
    )
    def test_expm1_path_matches_direct_path(self, x, y, s, r):
        params = ModelParams(n=500, m=500, p=0.5, s=s, r=r)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        amp = math.exp(law.log_scale + law.log_center)
        direct = math.exp(law.log_scale) * (x**s / (x + y) ** r - law.center)
        got = statistic(x, y, law)
        # absolute floor: both paths carry ~eps-level noise relative to amp
        assert abs(got - direct) <= 1e-10 * abs(direct) + 1e-12 * amp


# the law under which one array passed as both x and y used to give [-2.4, -2.4]
SMALL_LAW = limit_law(ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.0),
                      Regime(RegimeKind.BALANCED, None))


def _read_only(a):
    a.flags.writeable = False
    return a


def _read_only_pair():
    return np.ones(3), _read_only(np.ones(3))


def _one_array_pair():
    a = np.array([50.0, 60.0])
    return a, a


def _overlapping_pair():
    buffer = np.arange(1.0, 5.0)
    return buffer[:3], buffer[1:]


# pairs simulate_batch refuses, each built afresh
BAD_PAIRS = {
    "empty": lambda: (np.empty(0), np.empty(0)),
    "int64": lambda: (np.ones(3, np.int64), np.ones(3, np.int64)),
    "float32": lambda: (np.ones(3, np.float32), np.ones(3, np.float32)),
    "lengths": lambda: (np.ones(3), np.ones(4)),
    "two_dim": lambda: (np.ones((2, 3)), np.ones((2, 3))),
    "lists": lambda: ([1.0, 2.0], [1.0, 2.0]),
    "read_only": _read_only_pair,
    "one_array": _one_array_pair,
    "overlapping": _overlapping_pair,
}


class TestKernelMatchesReference:
    """standardized_statistic equals the float-copy formulation bit for bit."""

    LAW = limit_law(ModelParams(n=120, m=80, p=0.4, s=2.5, r=1.75),
                    Regime(RegimeKind.BALANCED, 1.5))

    @staticmethod
    def read(x, y, law):
        """T on the read-only contract, with r*log(x + y) formed as the kernel forms it."""
        t = np.add(x, y, dtype=np.float64)
        t[~(t > 0)] = 1.0
        return standardized_statistic(x, y, law, np.log(t) * law.r)

    # the read-only contract reads integer and float counts of any width
    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int32, np.int64, np.float32, np.float64]
    )
    def test_dtypes(self, dtype):
        gen = np.random.default_rng(7)
        x = gen.integers(0, 120, 500).astype(dtype)
        y = gen.integers(0, 8, 500).astype(dtype)
        x[:3], y[:2] = 0, 0  # x = 0 rows, one of them with x + y = 0
        assert_bitwise(
            self.read(x, y, self.LAW),
            reference_standardized_statistic(x, y, self.LAW),
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32])
    def test_all_positive_dtypes(self, dtype):
        # the unmasked path, with int8 logs that must not run in float16
        x = np.arange(1, 121).astype(dtype)
        y = (np.arange(120) % 9).astype(dtype)
        assert_bitwise(
            self.read(x, y, self.LAW),
            reference_standardized_statistic(x, y, self.LAW),
        )

    def test_large_counts(self):
        gen = make_generator(SeedSpec(3))
        x = draw_binomial(2_000_000_000, 0.5, gen, 1000)
        y = draw_binomial(3_800_000, 0.5, gen, 1000)
        law = limit_law(ModelParams(n=2_000_000_000, m=3_800_000, p=0.5, s=16.0,
                                    r=15.0), Regime(RegimeKind.LIGHT_DENOMINATOR))
        assert_bitwise(statistic(x, y, law), reference_standardized_statistic(x, y, law))

    def test_nan_in_y_stays_finite(self):
        # x + y is NaN there, and the reference reads it as log(1) = 0
        x = np.array([5.0, 0.0, 7.0, 3.0])
        y = np.array([np.nan, np.nan, 2.0, 0.0])
        got = statistic(x, y, self.LAW)
        assert np.all(np.isfinite(got))
        assert_bitwise(got, reference_standardized_statistic(x, y, self.LAW))

    def test_nan_and_inf_in_x(self):
        x = np.array([np.nan, 4.0, np.inf, 2.0])
        y = np.array([1.0, 1.0, 1.0, np.inf])
        with np.errstate(invalid="ignore"):
            assert_bitwise(
                statistic(x, y, self.LAW), reference_standardized_statistic(x, y, self.LAW)
            )

    @pytest.mark.parametrize(
        "x, y", [(np.zeros(0, np.int64), np.zeros(0, np.int64)),
                 (np.zeros((0, 1)), np.arange(4)[None, :]),
                 (np.arange(3)[:, None], np.zeros((1, 0), np.int32))]
    )
    def test_empty(self, x, y):
        got = statistic(x, y, self.LAW)
        assert got.size == 0
        assert_bitwise(got, reference_standardized_statistic(x, y, self.LAW))

    def test_oracle_broadcast_block(self):
        xs, ys = np.arange(121), np.arange(81)
        for lo, hi in [(0, 40), (40, 121)]:
            assert_bitwise(
                statistic(xs[lo:hi, None], ys[None, :], self.LAW),
                reference_standardized_statistic(xs[lo:hi, None], ys[None, :], self.LAW),
            )

    def test_read_only_log_sum_is_refused_and_changes_no_bit(self):
        # T would replace it: a read-only window over one table of r*log(t) is refused
        xs, ys = np.arange(121), np.arange(81)
        table = np.log(np.maximum(np.arange(201), 1), dtype=np.float64) * self.LAW.r
        want = table.copy()
        window = np.lib.stride_tricks.sliding_window_view(table, 81)
        with pytest.raises(ParameterError, match="a writeable float64 array"):
            standardized_statistic(xs[:40, None], ys[None, :], self.LAW, r_log_sum=window[:40])
        assert_bitwise(table, want)

    @pytest.mark.parametrize("zeros", [False, True])
    def test_given_buffers_hold_the_result(self, zeros):
        gen = np.random.default_rng(11)
        x = gen.integers(1, 120, 500).astype(np.float64)
        y = gen.integers(0, 8, 500).astype(np.float64)
        if zeros:
            x[:3], y[:2] = 0, 0  # x = 0 rows, one of them with x + y = 0
        want = reference_standardized_statistic(x, y, self.LAW)
        got = standardized_statistic(x, y, self.LAW)
        assert got is y
        assert_bitwise(got, want)

    @pytest.mark.parametrize("x, y", [
        (np.ones(3, np.int64), np.ones(3, np.int64)),
        (np.ones(3), np.ones(3, np.int64)),
        (np.ones(3, np.float32), np.ones(3, np.float32)),
        (np.ones(3), np.ones(4)),
        (np.ones((3, 1)), np.ones((1, 4))),
        ([1.0, 2.0], [1.0, 2.0]),
        (2.0, 3.0),
        (np.float64(2.0), np.float64(3.0)),
        _one_array_pair(),
        _overlapping_pair(),
    ], ids=["int", "mixed_dtypes", "float32", "lengths", "broadcast", "list", "scalar",
            "numpy_scalar", "one_array", "overlapping"])
    def test_without_log_sum_needs_two_float64_arrays_of_one_shape(self, x, y):
        with pytest.raises(ParameterError, match="writeable float64 arrays"):
            standardized_statistic(x, y, self.LAW)

    def test_without_log_sum_needs_writeable_arrays(self):
        x, y = np.ones(3), np.ones(3)
        y.flags.writeable = False
        with pytest.raises(ParameterError, match="writeable float64 arrays"):
            standardized_statistic(x, y, self.LAW)
        assert np.array_equal(x, np.ones(3))

    def test_without_log_sum_takes_interleaved_columns_as_copies(self):
        b = np.array([[50.0, 60.0], [55.0, 40.0], [0.0, 3.0], [0.0, 0.0]])
        want = statistic(b[:, 0], b[:, 1], SMALL_LAW)
        got = standardized_statistic(b[:, 0], b[:, 1], SMALL_LAW)
        assert_bitwise(got, want)
        assert np.shares_memory(got, b)

    @staticmethod
    def oracle_window(xs, ys, r):
        t = np.maximum(np.arange(len(xs) + len(ys) - 1), 1)
        table = np.log(t, dtype=np.float64) * r
        return np.lib.stride_tricks.sliding_window_view(table, len(ys))

    @pytest.mark.parametrize("step", [1, 2], ids=["leading_rows", "strided"])
    def test_log_sum_is_returned_with_the_bits_of_the_given_buffers(self, step):
        # as the oracle passes it: the leading rows of a larger buffer, into
        # which it copies the window rows; x and y are only read. With step 2
        # the buffer is every other column, and the columns between keep NaN
        xs, ys = np.arange(121), np.arange(81)
        window = self.oracle_window(xs, ys, self.LAW.r)
        buffer = np.full((50, 81 * step), np.nan)
        for lo, hi in [(0, 40), (40, 90), (90, 121)]:  # x = 0 and x + y = 0 in the first
            log_sum = buffer[: hi - lo, ::step]
            np.copyto(log_sum, window[lo:hi])
            got = standardized_statistic(xs[lo:hi, None], ys[None, :], self.LAW,
                                         r_log_sum=log_sum)
            assert got is log_sum
            assert_bitwise(got, statistic(xs[lo:hi, None], ys[None, :], self.LAW))
            assert step == 1 or np.isnan(buffer[:, 1::2]).all()
        assert np.array_equal(xs, np.arange(121)) and np.array_equal(ys, np.arange(81))

    @pytest.mark.parametrize("log_sum, x, y", [
        (np.empty((4, 6)), None, None),  # wrong shape
        (np.empty((3, 5)), None, None),
        (np.empty((3, 6), np.float32), None, None),  # wrong dtype
        (np.empty((3, 6), np.int64), None, None),
        ([[0.0] * 6] * 3, None, None),  # not an array
        (_read_only(np.empty((3, 6))), None, None),  # T could not be formed in it
        (np.empty((3, 6)), [1.0, 2.0, 3.0], None),  # counts not arrays
        (np.empty((3, 6)), None, np.ones((1, 5))),  # counts that do not broadcast
        (np.empty((3, 6)), np.ones((3, 1), dtype=object), None),  # not numeric
    ], ids=["rows", "columns", "float32", "int64", "list", "read_only", "list_counts",
            "no_broadcast", "object_counts"])
    def test_log_sum_needs_a_float64_array_of_the_shape(self, log_sum, x, y):
        xs, ys = np.arange(1.0, 4.0)[:, None], np.arange(6.0)[None, :]
        x, y = xs if x is None else x, ys if y is None else y
        with pytest.raises(ParameterError, match="x and y and r_log_sum, a writeable"):
            standardized_statistic(x, y, self.LAW, log_sum)

    @pytest.mark.parametrize(
        "x, y", [(-1, 3), ([2, -1], [1, 1]), ([2, 3], [0, -4]),
                 (np.array([np.nan, -1.0]), np.array([1.0, 1.0]))]
    )
    def test_negative_counts_rejected(self, x, y):
        with pytest.raises(ParameterError):
            reference_standardized_statistic(x, y, self.LAW)
        with pytest.raises(ParameterError):
            statistic(x, y, self.LAW)


class TestDrawCounts:
    def test_matches_draws_on_substreams_0_and_1(self):
        n, m, seed = 1000, 2_000_000_000, SeedSpec(11, 5)
        x, y = draw_counts(ModelParams(n=n, m=m, p=0.3, s=1.0, r=1.0), 5000, seed)
        want_x = draw_binomial(n, 0.3, make_generator(substream(seed, 0)), 5000)
        want_y = draw_binomial(m, 0.3, make_generator(substream(seed, 1)), 5000)
        assert want_x.dtype == want_y.dtype == np.int64
        assert x.dtype == y.dtype == np.float64
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y)

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_nonpositive_count(self, count):
        params = ModelParams(n=10, m=10, p=0.5, s=1.0, r=1.0)
        with pytest.raises(ParameterError):
            draw_counts(params, count, SeedSpec(0))

    @pytest.mark.parametrize("count", [3.0, 2.5, True, "3"])
    def test_rejects_non_integer_count(self, count):
        # a float count used to reach numpy and raise a raw TypeError
        params = ModelParams(n=10, m=10, p=0.5, s=1.0, r=1.0)
        message = "count must be an integer, got "
        with pytest.raises(ParameterError, match=message):
            draw_counts(params, count, SeedSpec(0))
        with pytest.raises(ParameterError, match=message):
            reference_normal_batch(1.0, count, SeedSpec(0))
        with pytest.raises(ParameterError, match="n must be an integer, got "):
            draw_binomial(count, 0.5, make_generator(SeedSpec(0)), 3)

    @pytest.mark.parametrize("n, m", [(2**63, 10), (10, 2**63), (10**23, 100)])
    def test_rejects_trial_counts_above_int64(self, n, m):
        params = ModelParams(n=n, m=m, p=0.5, s=1.0, r=1.0)
        with pytest.raises(ParameterError, match="at most 2\\*\\*63 - 1"):
            draw_counts(params, 3, SeedSpec(0))

    def test_largest_trial_count_is_drawn(self):
        params = ModelParams(n=MAX_TRIALS, m=MAX_TRIALS, p=0.5, s=1.0, r=1.0)
        x, y = draw_counts(params, 3, SeedSpec(0))
        assert x.dtype == np.float64 and ((x > 0) & (y > 0)).all()


def _use(gen, kind):
    """Leave ``gen`` just after one kind of draw, with any cache it fills."""
    if kind == "binomial_same":
        gen.binomial(10**6, 0.3, size=7)
    elif kind == "binomial_other":
        gen.binomial(2_000_000_000, 0.71, size=5)
    elif kind == "binomial_inversion":
        gen.binomial(12, 0.2, size=9)  # n * p <= 30: the inversion sampler
    elif kind == "normal":
        gen.normal(size=3)
    elif kind == "uint32":
        gen.integers(0, 2**32, size=1, dtype=np.uint32)  # leaves a cached half


PRIOR_USES = ["fresh", "binomial_same", "binomial_other", "binomial_inversion",
              "normal", "uint32"]


class TestKeyedGenerator:
    SEED = SeedSpec(2**64 - 1, 12345)

    @pytest.mark.parametrize("prior", PRIOR_USES)
    def test_rekey_reproduces_fresh_generator(self, prior):
        gen = _keyed_generator(SeedSpec(3, 4), 0)
        _use(gen, prior)
        gen = _keyed_generator(self.SEED, 0)
        fresh = make_generator(self.SEED)
        state, want = gen.bit_generator.state, fresh.bit_generator.state
        assert state["state"]["key"].tolist() == want["state"]["key"].tolist()
        assert state["state"]["counter"].tolist() == want["state"]["counter"].tolist()
        assert state["buffer"].tolist() == want["buffer"].tolist()
        for key in ("buffer_pos", "has_uint32", "uinteger"):
            assert state[key] == want[key]
        for draw in (
            lambda g: g.binomial(10**6, 0.3, size=4000),
            lambda g: g.binomial(12, 0.2, size=4000),
            lambda g: g.normal(0.0, 1.5, size=4000),
            lambda g: g.binomial(2_000_000_000, 0.71, size=4000),
        ):
            got, expected = draw(gen), draw(fresh)
            assert got.dtype == expected.dtype
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_one_generator_per_thread(self):
        mine = _keyed_generator(SeedSpec(1), 0)
        seen = []
        worker = threading.Thread(
            target=lambda: seen.append(_keyed_generator(SeedSpec(1), 0))
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert _keyed_generator(SeedSpec(2), 0) is mine
        assert seen[0] is not mine

    def test_scope_drops_the_thread_generator(self):
        with thread_generator_scope():
            inside = _keyed_generator(SeedSpec(1), 0)
            assert _keyed_generator(SeedSpec(2), 0) is inside
        after = _keyed_generator(SeedSpec(1), 0)
        assert after is not inside
        assert np.array_equal(after.normal(size=8), make_generator(SeedSpec(1)).normal(size=8))

    @pytest.mark.parametrize("prior", PRIOR_USES)
    def test_draws_match_fresh_generators_after_any_use(self, prior):
        _use(_keyed_generator(SeedSpec(8), 0), prior)
        params = ModelParams(n=40, m=3_000_000, p=0.35, s=1.0, r=1.0)
        x, y = draw_counts(params, 3000, self.SEED)
        x_gen = make_generator(substream(self.SEED, 0))
        y_gen = make_generator(substream(self.SEED, 1))
        assert np.array_equal(x, x_gen.binomial(40, 0.35, 3000))
        assert np.array_equal(y, y_gen.binomial(3_000_000, 0.35, 3000))
        _use(_keyed_generator(SeedSpec(8), 0), prior)
        ref = reference_normal_batch(2.5, 3000, self.SEED)
        want = make_generator(substream(self.SEED, 2)).normal(0.0, math.sqrt(2.5), size=3000)
        assert np.array_equal(ref.view(np.uint64), np.sort(want).view(np.uint64))


class TestSimulateBatch:
    def test_deterministic(self):
        params = ModelParams(n=1000, m=1000, p=0.5, s=2.0, r=1.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        a = simulate_batch(*draw_counts(params, 500, SeedSpec(8)), law)
        b = simulate_batch(*draw_counts(params, 500, SeedSpec(8)), law)
        assert np.array_equal(a.values, b.values)

    def test_no_zero_numerators_at_large_n(self):
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        batch = simulate_batch(*draw_counts(params, 10**5, SeedSpec(4)), law)
        assert batch.zero_numerator_count == 0
        assert batch.zero_denominator_count == 0

    def test_variance_approaches_law(self):
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0)
        regime = Regime(RegimeKind.BALANCED, 1.0)
        law = limit_law(params, regime)
        batch = simulate_batch(*draw_counts(params, 10**5, SeedSpec(12)), law)
        assert batch.values.var() == pytest.approx(law.variance, rel=0.10)

    def test_variance_error_shrinks_with_n(self):
        # high exponents make the finite-size variance deficit large enough
        # to dominate Monte Carlo noise at every size
        regime = Regime(RegimeKind.BALANCED, 1.0)
        errs = []
        for n in [10**2, 10**4, 10**6]:
            params = ModelParams(n=n, m=n, p=0.5, s=15.0, r=15.0)
            law = limit_law(params, regime)
            batch = simulate_batch(*draw_counts(params, 10**5, SeedSpec(31)), law)
            errs.append(abs(batch.values.var() - law.variance) / law.variance)
        assert errs[0] > errs[1] > errs[2]

    def test_zero_counts_on_small_n(self):
        params = ModelParams(n=3, m=2, p=0.3, s=1.0, r=1.0)
        seed = SeedSpec(6)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        batch = simulate_batch(*draw_counts(params, 2000, seed), law)
        x = draw_binomial(3, 0.3, make_generator(substream(seed, 0)), 2000)
        y = draw_binomial(2, 0.3, make_generator(substream(seed, 1)), 2000)
        assert batch.zero_numerator_count == np.count_nonzero(x == 0) > 0
        assert batch.zero_denominator_count == np.count_nonzero((x == 0) & (y == 0)) > 0

    def test_values_immutable(self):
        params = ModelParams(n=100, m=100, p=0.5, s=1.0, r=1.0)
        law = limit_law(params, Regime(RegimeKind.BALANCED, 1.0))
        batch = simulate_batch(*draw_counts(params, 10, SeedSpec(0)), law)
        with pytest.raises(ValueError):
            batch.values[0] = 0.0

    @pytest.mark.parametrize("n", [3, 1000])  # with and without x = 0 draws
    def test_values_are_the_sorted_statistic_of_the_draws(self, n):
        params = ModelParams(n=n, m=2 * n, p=0.3, s=2.0, r=1.5)
        law = limit_law(params, Regime(RegimeKind.BALANCED, None))
        seed = SeedSpec(21)
        batch = simulate_batch(*draw_counts(params, 3000, seed), law)
        x, y = draw_counts(params, 3000, seed)
        assert_bitwise(batch.values, np.sort(standardized_statistic(x, y, law)))
        assert not batch.values.flags.writeable

    def test_takes_caller_counts_and_gives_up_their_buffers(self):
        x, y = np.array([3.0, 0.0, 5.0, 0.0]), np.array([1.0, 0.0, 2.0, 4.0])
        want = np.sort(statistic(x, y, SMALL_LAW))
        batch = simulate_batch(x, y, SMALL_LAW)
        assert batch.values is y  # formed and sorted in y's buffer
        assert_bitwise(batch.values, want)
        assert (batch.zero_numerator_count, batch.zero_denominator_count) == (2, 1)

    def test_counts_zeros_beside_nan(self):
        # np.min of [nan, 0, 3] is nan, which must not hide the x = 0 draw
        x, y = np.array([np.nan, 0.0, 3.0]), np.array([1.0, 0.0, 1.0])
        batch = simulate_batch(x, y, SMALL_LAW)
        assert (batch.zero_numerator_count, batch.zero_denominator_count) == (1, 1)

    def test_interleaved_columns_equal_copies(self):
        # b[:, 0] and b[:, 1] share a buffer but no element
        b = np.array([[50.0, 60.0], [55.0, 40.0], [0.0, 3.0]])
        want = np.sort(statistic(b[:, 0], b[:, 1], SMALL_LAW))
        assert_bitwise(simulate_batch(b[:, 0], b[:, 1], SMALL_LAW).values, want)

    @pytest.mark.parametrize("pair", BAD_PAIRS.values(), ids=BAD_PAIRS.keys())
    def test_input_errors_are_parameter_errors(self, pair):
        x, y = pair()
        before = [np.array(a) for a in (x, y)]
        with pytest.raises(ParameterError, match="simulate_batch takes nonempty"):
            simulate_batch(x, y, SMALL_LAW)
        for got, want in zip((x, y), before):  # refused before any write
            assert np.array_equal(got, want)


class TestReferenceNormalBatch:
    def test_zero_variance_gives_zeros(self):
        ref = reference_normal_batch(0.0, 10, SeedSpec(1))
        assert ref.dtype == np.float64 and np.array_equal(ref, np.zeros(10))
        assert np.array_equal(ref.view(np.uint64), np.zeros(10).view(np.uint64))  # no -0.0

    def test_unit_variance_concentration(self):
        ref = reference_normal_batch(1.0, 10**5, SeedSpec(2))
        assert ref.dtype == np.float64
        assert ref.var() == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        a = reference_normal_batch(2.0, 100, SeedSpec(5))
        b = reference_normal_batch(2.0, 100, SeedSpec(5))
        assert np.array_equal(a, b)

    def test_rejects_negative_variance(self):
        with pytest.raises(ParameterError):
            reference_normal_batch(-1.0, 10, SeedSpec(0))
