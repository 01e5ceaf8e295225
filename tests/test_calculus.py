import math

import numpy as np
import pytest
from delta_method import (
    eval_f,
    fd_gradient,
    fd_hessian,
    gerschgorin_norm_bound,
    gradient,
    hessian,
    spectral_norm_2x2,
)
from read_only import statistic

from binratio import ModelParams, ParameterError, Regime, limit_law
from binratio.calculus import scaled_remainder_bound, scaled_remainder_samples
from binratio.sampling import SeedSpec, draw_binomial, make_generator


def random_points(count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.5, 10.0, size=(count, 2))
    rs = rng.uniform(0.5, 30.0, size=(count, 2))
    return [(tuple(pt), r, s) for pt, (r, s) in zip(pts, rs)]


class TestEvalF:
    def test_unit_exponents(self):
        assert eval_f((3, 1), r=1.0, s=1.0) == pytest.approx(0.75)

    def test_zero_y_equal_exponents(self):
        assert eval_f((4, 0), r=3.0, s=3.0) == pytest.approx(1.0)

    def test_square_over_sum(self):
        assert eval_f((2, 2), r=1.0, s=2.0) == pytest.approx(1.0)


class TestGradient:
    def test_unit_exponents_at_one_one(self):
        gx, gy = gradient((1, 1), r=1.0, s=1.0)
        assert gx == pytest.approx(0.25)
        assert gy == pytest.approx(-0.25)

    def test_zero_x_partial_when_factor_vanishes(self):
        # s(x+y) = r x at x=3, y=1, s=3, r=4
        gx, _ = gradient((3, 1), r=4.0, s=3.0)
        assert gx == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences_single(self):
        pt = (2, 3)
        an = gradient(pt, r=3.0, s=2.0)
        fd = fd_gradient(pt, 3.0, 2.0)
        for a, f in zip(an, fd):
            assert f == pytest.approx(a, rel=1e-6)

    def test_matches_finite_differences_grid(self):
        for pt, r, s in random_points(100, seed=42):
            an = gradient(pt, r, s)
            fd = fd_gradient(pt, r, s)
            # guard against exact cancellation in df/dx
            x, y = pt
            floor = 1e-9 * eval_f(pt, r, s) * (s / x + r / (x + y))
            for a, f in zip(an, fd):
                assert abs(f - a) <= 1e-5 * max(abs(a), floor)


class TestHessian:
    def test_unit_exponents_at_one_one(self):
        fxx, fxy, fyy = hessian((1, 1), r=1.0, s=1.0)
        assert fxx == pytest.approx(-0.25)
        assert fxy == pytest.approx(0.0, abs=1e-15)
        assert fyy == pytest.approx(0.25)

    def test_off_diagonal_vanishes_when_factor_does(self):
        # r(r+1)x^2 = rsx(x+y) iff s(x+y) = (r+1)x: x=3, y=1, r=2, s=2.25
        _, fxy, _ = hessian((3, 1), r=2.0, s=2.25)
        assert fxy == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences_single(self):
        pt = (5, 7)
        an = hessian(pt, r=2.0, s=3.0)
        fd = fd_hessian(pt, 2.0, 3.0)
        for a, f in zip(an, fd):
            assert f == pytest.approx(a, rel=1e-5)

    def test_matches_finite_differences_grid(self):
        for pt, r, s in random_points(100, seed=7):
            an = hessian(pt, r, s)
            fd = fd_hessian(pt, r, s)
            x, y = pt
            floor = 1e-9 * eval_f(pt, r, s) * (s * s / x**2 + r * r / (x + y) ** 2)
            for a, f in zip(an, fd):
                assert abs(f - a) <= 1e-4 * max(abs(a), floor)


class TestGerschgorin:
    def test_diagonal_example(self):
        assert gerschgorin_norm_bound((-0.25, 0.0, 0.25)) == pytest.approx(0.5)

    def test_rank_one_example(self):
        h = (1.0, 1.0, 1.0)
        assert gerschgorin_norm_bound(h) == pytest.approx(4.0)
        assert spectral_norm_2x2(h) == pytest.approx(2.0)

    def test_dominates_spectral_norm_on_random_hessians(self):
        violations = 0
        for pt, r, s in random_points(1000, seed=11):
            h = hessian(pt, r, s)
            if gerschgorin_norm_bound(h) < spectral_norm_2x2(h) * (1 - 1e-12):
                violations += 1
        assert violations == 0


def remainder(params, regime, x, y):
    """Q(x, y) from its one implementation: scale * Q over the law's scale."""
    law = limit_law(params, regime)
    scaled_q = scaled_remainder_samples(params, law, np.array([x]), np.array([y]))
    return float(scaled_q[0] / math.exp(law.log_scale))


REMAINDER_REGIMES = [Regime.case_i(), Regime.case_ii(None), Regime.case_iii()]


class TestRemainder:
    def test_matches_extended_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        n, m, p, s, r = 100, 100, 0.5, 2.0, 1.0
        x, y = 55.0, 48.0
        params = ModelParams(n=n, m=m, p=p, s=s, r=r)

        def f(u, v):
            return mpmath.mpf(u) ** s / (mpmath.mpf(u) + mpmath.mpf(v)) ** r

        x0, y0 = mpmath.mpf(n) * p, mpmath.mpf(m) * p
        t0 = x0 + y0
        f0 = f(x0, y0)
        gx = f0 * (s * t0 - r * x0) / (x0 * t0)
        gy = -f0 * r / t0
        expected = f(x, y) - f0 - gx * (x - x0) - gy * (y - y0)
        for regime in REMAINDER_REGIMES:
            q = remainder(params, regime, x, y)
            assert q == pytest.approx(float(expected), rel=1e-10), regime

    def test_quadratic_decay_recovers_hessian_form(self):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.0)
        x0, y0 = 50.0, 50.0
        u, v = 1.0, -2.0
        fxx, fxy, fyy = hessian((x0, y0), params.r, params.s)
        target = abs(0.5 * (u * u * fxx + 2 * u * v * fxy + v * v * fyy))
        t = 1e-3
        q = remainder(params, Regime.case_ii(None), x0 + t * u, y0 + t * v)
        assert abs(q) / t**2 == pytest.approx(target, rel=0.01)

    def test_rejects_negative_observations(self):
        params = ModelParams(n=10, m=10, p=0.5, s=1.0, r=1.0)
        with pytest.raises(ParameterError):
            remainder(params, Regime.case_ii(None), -1.0, 2.0)


def bound_of(params, regime):
    return scaled_remainder_bound(params, regime, limit_law(params, regime))


class TestScaledRemainderBound:
    def test_balanced_decreases_with_n(self):
        vals = [
            bound_of(ModelParams(n=n, m=n, p=0.5, s=2.0, r=1.0), Regime.case_ii(1.0))
            for n in [10**6, 4 * 10**6]
        ]
        assert vals[1] < vals[0]

    def test_heavy_denominator_sequence_decreases(self):
        # m_k = n_k^1.2 keeps m log(m) / n^1.5 -> 0 fast enough that the
        # bound decreases over desk-scale sizes
        vals = []
        for n in [10**4, 10**5, 10**6]:
            m = int(n**1.2)
            params = ModelParams(n=n, m=m, p=0.5, s=2.0, r=2.0)
            vals.append(bound_of(params, Regime.case_i()))
        assert vals[0] > vals[1] > vals[2]

    def test_collapse_bound_is_large(self):
        params = ModelParams(n=200_000, m=2_000_000_000, p=0.5, s=15.0, r=15.0)
        assert bound_of(params, Regime.collapse()) > 1.0


# scale * Q written out: T minus scale * grad f(np, mp) . (x - np, y - mp);
# scaled_remainder_samples must give its bits.
def reference_scaled_remainder_samples(params, law, x, y):
    x0, y0 = params.n * params.p, params.m * params.p
    t0 = x0 + y0
    amp = math.exp(law.log_scale + law.log_center)
    sgx = amp * (params.s * t0 - params.r * x0) / (x0 * t0)
    sgy = -amp * params.r / t0
    t_vals = statistic(x, y, law)
    return t_vals - (sgx * (x - x0) + sgy * (y - y0))


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# (n, m, p, r, s): balanced, heavy and light denominators, equal and
# unequal exponents, and an f(np, mp) far below 1
REMAINDER_BITS_GRID = [
    (100, 300, 0.5, 1.0, 1.0),
    (1000, 10, 0.3, 2.5, 4.0),
    (10**6, 10**6, 0.5, 15.0, 15.0),
    (7, 2 * 10**9, 0.9, 30.0, 0.5),
]


def observation_rows(n, m, p):
    """Observed (x, y) rows around (np, mp), with x = 0 and x + y = 0 among them."""
    x0, y0 = n * p, m * p
    return [
        (0.0, 0.0), (0.0, 1.0), (0.0, y0), (1.0, 0.0), (x0, 0.0), (x0, y0),
        (x0 + 1.5, max(y0 - 2.0, 0.0)), (2 * x0, 3 * y0), (1.0, 1.0),
    ]


class TestScaledRemainderSamples:
    def _p99(self, n, m, regime, samples=10_000, seed=123):
        params = ModelParams(n=n, m=m, p=0.5, s=15.0, r=15.0)
        law = limit_law(params, regime)
        x = draw_binomial(n, 0.5, make_generator(SeedSpec(seed, 0)), samples)
        y = draw_binomial(m, 0.5, make_generator(SeedSpec(seed, 1)), samples)
        sq = np.abs(scaled_remainder_samples(params, law, x.astype(np.float64),
                                             y.astype(np.float64)))
        return float(np.quantile(sq, 0.99))

    def test_balanced_p99_decreases_with_size(self):
        p99s = [self._p99(n, n, Regime.case_ii(1.0)) for n in [10**4, 10**5, 10**6]]
        assert p99s[0] > p99s[1] > p99s[2]

    def test_zero_at_expansion_point(self):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.0)
        law = limit_law(params, Regime.case_ii(1.0))
        sq = scaled_remainder_samples(
            params, law, np.array([50.0]), np.array([50.0])
        )
        assert sq[0] == pytest.approx(0.0, abs=1e-12)

    def test_result_is_returned_in_y_buffer(self):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.0)
        law = limit_law(params, Regime.case_ii(1.0))
        y = np.array([50.0, 48.0])
        assert scaled_remainder_samples(params, law, np.array([40.0, 55.0]), y) is y

    @pytest.mark.parametrize("x, y", [
        (np.array([40, 55]), np.array([50, 48])),
        (np.array([40.0]), np.array([50.0, 48.0])),
    ], ids=["int", "lengths"])
    def test_needs_two_float64_arrays_of_one_shape(self, x, y):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.0)
        law = limit_law(params, Regime.case_ii(1.0))
        with pytest.raises(ParameterError, match="writeable float64 arrays"):
            scaled_remainder_samples(params, law, x, y)

    def test_underflowing_denominator_is_parameter_error(self):
        # x*(x+y) = 1.6e-299 * 2e-291 at (np, mp) is 0 as a float, though
        # x and x + y are positive
        params = ModelParams(n=16, m=2 * 10**9, p=1e-300, s=1e-300, r=1e-160)
        law = limit_law(params, Regime.collapse())
        with pytest.raises(ParameterError, match="underflows to 0"):
            scaled_remainder_samples(params, law, np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize("regime", [
        Regime.case_i(), Regime.case_ii(None), Regime.case_iii(), Regime.collapse(),
    ], ids=lambda regime: regime.kind.value)
    @pytest.mark.parametrize("n, m, p, r, s", REMAINDER_BITS_GRID)
    def test_bits_match_written_out_form(self, n, m, p, r, s, regime):
        params = ModelParams(n=n, m=m, p=p, s=s, r=r)
        if (n, m, regime) == (7, 2 * 10**9, Regime.case_ii(None)):
            # alpha = m/n makes the balanced variance underflow to 0, which
            # limit_law rejects; scaled_remainder_samples does not read the
            # variance, and case 3 has the same center and scale
            with pytest.raises(ParameterError, match="underflows to 0"):
                limit_law(params, regime)
            regime = Regime.case_iii()
        law = limit_law(params, regime)
        x, y = (np.array(col) for col in zip(*observation_rows(n, m, p)))
        got = scaled_remainder_samples(params, law, x.copy(), y.copy())
        want = reference_scaled_remainder_samples(params, law, x, y)
        assert float_bits(got) == float_bits(want)
