import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from binratio import (
    ModelParams,
    ParameterError,
    Regime,
    SeedSpec,
    draw_binomial,
    limit_law,
    make_generator,
    reference_normal_batch,
    simulate_batch,
    standardized_statistic,
)


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
    def test_substream_offsets(self):
        seed = SeedSpec(99, 5)
        assert seed.substream(2) == SeedSpec(99, 7)

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
            draw_binomial(0, 0.5, gen)
        with pytest.raises(ParameterError):
            draw_binomial(10, 1.0, gen)


class TestStandardizedStatistic:
    def test_zero_at_expansion_point(self):
        params = ModelParams(n=100, m=100, p=0.5, s=1.0, r=1.0)
        law = limit_law(params, Regime.case_ii(1.0))
        t = standardized_statistic(50, 50, law)
        amp = math.exp(law.log_scale + law.log_center)
        assert abs(t) < 1e-12 * amp

    def test_direct_arithmetic_at_small_scale(self):
        params = ModelParams(n=100, m=100, p=0.5, s=1.0, r=1.0)
        law = limit_law(params, Regime.case_ii(1.0))
        direct = law.scale * (60 / 110 - 0.5)
        assert standardized_statistic(60, 50, law) == pytest.approx(direct, rel=1e-12)

    def test_finite_under_extreme_exponents(self):
        # x^30 ~ 1e170 overflows, but the log-space path stays finite
        n = m = 10**6
        params = ModelParams(n=n, m=m, p=0.5, s=30.0, r=30.0)
        law = limit_law(params, Regime.case_ii(1.0))
        sigma = math.sqrt(n * 0.25)
        x = np.arange(n / 2 - 10 * sigma, n / 2 + 10 * sigma, 50.0)
        t = standardized_statistic(x, np.full_like(x, m / 2), law)
        assert np.all(np.isfinite(t))
        assert np.max(np.abs(t)) < 1e3

    def test_zero_numerator_convention(self):
        params = ModelParams(n=10, m=10, p=0.5, s=1.5, r=1.0)
        law = limit_law(params, Regime.case_ii(1.0))
        amp = math.exp(law.log_scale + law.log_center)
        assert standardized_statistic(0, 7, law) == pytest.approx(-amp)
        assert standardized_statistic(0, 0, law) == pytest.approx(-amp)

    def test_monotone_in_x_for_fixed_sum(self):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.0)
        law = limit_law(params, Regime.case_ii(1.0))
        total = 110
        x = np.arange(1, total)
        t = standardized_statistic(x, total - x, law)
        assert np.all(np.diff(t) > 0)

    def test_monotone_decreasing_in_y_for_fixed_x(self):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.5)
        law = limit_law(params, Regime.case_ii(1.0))
        y = np.arange(0, 200)
        t = standardized_statistic(np.full_like(y, 55), y, law)
        assert np.all(np.diff(t) < 0)

    def test_broadcast_grid_matches_rows(self):
        # the exact oracle evaluates whole (x, y) blocks in one call
        params = ModelParams(n=40, m=60, p=0.3, s=2.0, r=1.0)
        law = limit_law(params, Regime.case_ii(1.5))
        xs, ys = np.arange(41), np.arange(61)
        grid = standardized_statistic(xs[:, None], ys[None, :], law)
        assert grid.shape == (41, 61)
        rows = np.stack([standardized_statistic(np.full(61, x), ys, law) for x in xs])
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
        law = limit_law(params, Regime.case_ii(1.0))
        amp = math.exp(law.log_scale + law.log_center)
        direct = law.scale * (x**s / (x + y) ** r - law.center)
        got = standardized_statistic(x, y, law)
        # absolute floor: both paths carry ~eps-level noise relative to amp
        assert abs(got - direct) <= 1e-10 * abs(direct) + 1e-12 * amp


class TestSimulateBatch:
    def test_deterministic(self):
        params = ModelParams(n=1000, m=1000, p=0.5, s=2.0, r=1.0)
        a = simulate_batch(params, Regime.case_ii(1.0), 500, SeedSpec(8))
        b = simulate_batch(params, Regime.case_ii(1.0), 500, SeedSpec(8))
        assert np.array_equal(a.values, b.values)

    def test_no_zero_numerators_at_large_n(self):
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0)
        batch = simulate_batch(params, Regime.case_ii(1.0), 10**5, SeedSpec(4))
        assert batch.zero_numerator_count == 0
        assert batch.zero_denominator_count == 0

    def test_variance_approaches_law(self):
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0)
        regime = Regime.case_ii(1.0)
        law = limit_law(params, regime)
        batch = simulate_batch(params, regime, 10**5, SeedSpec(12))
        assert batch.values.var() == pytest.approx(law.variance, rel=0.10)

    def test_variance_error_shrinks_with_n(self):
        # high exponents make the finite-size variance deficit large enough
        # to dominate Monte Carlo noise at every size
        regime = Regime.case_ii(1.0)
        errs = []
        for n in [10**2, 10**4, 10**6]:
            params = ModelParams(n=n, m=n, p=0.5, s=15.0, r=15.0)
            law = limit_law(params, regime)
            batch = simulate_batch(params, regime, 10**5, SeedSpec(31))
            errs.append(abs(batch.values.var() - law.variance) / law.variance)
        assert errs[0] > errs[1] > errs[2]

    def test_resolves_balanced_alpha(self):
        params = ModelParams(n=1000, m=2500, p=0.5, s=1.0, r=1.0)
        batch = simulate_batch(params, Regime.case_ii(None), 10, SeedSpec(0))
        assert batch.regime.alpha == pytest.approx(2.5)

    def test_values_immutable(self):
        params = ModelParams(n=100, m=100, p=0.5, s=1.0, r=1.0)
        batch = simulate_batch(params, Regime.case_ii(1.0), 10, SeedSpec(0))
        with pytest.raises(ValueError):
            batch.values[0] = 0.0


class TestReferenceNormalBatch:
    def test_zero_variance_gives_zeros(self):
        batch = reference_normal_batch(0.0, 10, SeedSpec(1))
        assert np.array_equal(batch.values, np.zeros(10))

    def test_unit_variance_concentration(self):
        batch = reference_normal_batch(1.0, 10**5, SeedSpec(2))
        assert batch.values.var() == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        a = reference_normal_batch(2.0, 100, SeedSpec(5))
        b = reference_normal_batch(2.0, 100, SeedSpec(5))
        assert np.array_equal(a.values, b.values)

    def test_rejects_negative_variance(self):
        with pytest.raises(ParameterError):
            reference_normal_batch(-1.0, 10, SeedSpec(0))
