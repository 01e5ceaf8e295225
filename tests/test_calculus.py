import math

import numpy as np
import pytest

from binratio import ModelParams, ParameterError, Regime, limit_law
from binratio.calculus import (
    Hessian2,
    Point2,
    _remainder_raw,
    eval_f,
    eval_log_f,
    gerschgorin_norm_bound,
    gradient,
    hessian,
    remainder,
    scaled_remainder_bound,
    scaled_remainder_samples,
    spectral_norm_2x2,
)
from binratio.sampling import (
    SeedSpec,
    draw_binomial,
    make_generator,
    standardized_statistic,
)


def fd_gradient(pt, r, s):
    out = []
    for i in range(2):
        h = max(1e-6 * pt[i], 1e-6)
        hi = list(pt)
        lo = list(pt)
        hi[i] += h
        lo[i] -= h
        out.append((eval_f(Point2(*hi), r, s) - eval_f(Point2(*lo), r, s)) / (2 * h))
    return tuple(out)


def fd_hessian(pt, r, s):
    cols = []
    for i in range(2):
        h = max(1e-6 * pt[i], 1e-6)
        hi = list(pt)
        lo = list(pt)
        hi[i] += h
        lo[i] -= h
        ghi = gradient(Point2(*hi), r, s)
        glo = gradient(Point2(*lo), r, s)
        cols.append(((ghi[0] - glo[0]) / (2 * h), (ghi[1] - glo[1]) / (2 * h)))
    return Hessian2(fxx=cols[0][0], fxy=0.5 * (cols[0][1] + cols[1][0]), fyy=cols[1][1])


def random_points(count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.5, 10.0, size=(count, 2))
    rs = rng.uniform(0.5, 30.0, size=(count, 2))
    return [(Point2(*pt), r, s) for pt, (r, s) in zip(pts, rs)]


class TestEvalF:
    def test_unit_exponents(self):
        assert eval_f(Point2(3, 1), r=1.0, s=1.0) == pytest.approx(0.75)

    def test_zero_y_equal_exponents(self):
        assert eval_f(Point2(4, 0), r=3.0, s=3.0) == pytest.approx(1.0)

    def test_square_over_sum(self):
        assert eval_f(Point2(2, 2), r=1.0, s=2.0) == pytest.approx(1.0)

    def test_log_form_matches(self):
        pt = Point2(7.0, 2.5)
        assert math.exp(eval_log_f(pt, 2.5, 1.5)) == pytest.approx(
            eval_f(pt, 2.5, 1.5), rel=1e-14
        )

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ParameterError):
            eval_f(Point2(0.0, 1.0), r=1.0, s=1.5)

    def test_overflow_is_reported(self):
        with pytest.raises(OverflowError):
            eval_f(Point2(1e300, 1.0), r=0.5, s=30.0)


class TestGradient:
    def test_unit_exponents_at_one_one(self):
        gx, gy = gradient(Point2(1, 1), r=1.0, s=1.0)
        assert gx == pytest.approx(0.25)
        assert gy == pytest.approx(-0.25)

    def test_zero_x_partial_when_factor_vanishes(self):
        # s(x+y) = r x at x=3, y=1, s=3, r=4
        gx, _ = gradient(Point2(3, 1), r=4.0, s=3.0)
        assert gx == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences_single(self):
        pt = Point2(2, 3)
        an = gradient(pt, r=3.0, s=2.0)
        fd = fd_gradient(pt, 3.0, 2.0)
        for a, f in zip(an, fd):
            assert f == pytest.approx(a, rel=1e-6)

    def test_matches_finite_differences_grid(self):
        for pt, r, s in random_points(100, seed=42):
            an = gradient(pt, r, s)
            fd = fd_gradient(pt, r, s)
            # guard against exact cancellation in df/dx
            floor = 1e-9 * eval_f(pt, r, s) * (s / pt.x + r / (pt.x + pt.y))
            for a, f in zip(an, fd):
                assert abs(f - a) <= 1e-5 * max(abs(a), floor)


class TestHessian:
    def test_unit_exponents_at_one_one(self):
        h = hessian(Point2(1, 1), r=1.0, s=1.0)
        assert h.fxx == pytest.approx(-0.25)
        assert h.fxy == pytest.approx(0.0, abs=1e-15)
        assert h.fyy == pytest.approx(0.25)

    def test_off_diagonal_vanishes_when_factor_does(self):
        # r(r+1)x^2 = rsx(x+y) iff s(x+y) = (r+1)x: x=3, y=1, r=2, s=2.25
        h = hessian(Point2(3, 1), r=2.0, s=2.25)
        assert h.fxy == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences_single(self):
        pt = Point2(5, 7)
        an = hessian(pt, r=2.0, s=3.0)
        fd = fd_hessian(pt, 2.0, 3.0)
        for a, f in zip(an, fd):
            assert f == pytest.approx(a, rel=1e-5)

    def test_matches_finite_differences_grid(self):
        for pt, r, s in random_points(100, seed=7):
            an = hessian(pt, r, s)
            fd = fd_hessian(pt, r, s)
            floor = 1e-9 * eval_f(pt, r, s) * (s * s / pt.x**2 + r * r / (pt.x + pt.y) ** 2)
            for a, f in zip(an, fd):
                assert abs(f - a) <= 1e-4 * max(abs(a), floor)


class TestGerschgorin:
    def test_diagonal_example(self):
        assert gerschgorin_norm_bound(Hessian2(-0.25, 0.0, 0.25)) == pytest.approx(0.5)

    def test_rank_one_example(self):
        h = Hessian2(1.0, 1.0, 1.0)
        assert gerschgorin_norm_bound(h) == pytest.approx(4.0)
        assert spectral_norm_2x2(h) == pytest.approx(2.0)

    def test_dominates_spectral_norm_on_random_hessians(self):
        violations = 0
        for pt, r, s in random_points(1000, seed=11):
            h = hessian(pt, r, s)
            if gerschgorin_norm_bound(h) < spectral_norm_2x2(h) * (1 - 1e-12):
                violations += 1
        assert violations == 0


class TestRemainder:
    def test_zero_at_expansion_point(self):
        params = ModelParams(n=100, m=200, p=0.5, s=2.0, r=1.0)
        assert remainder(params, 100 * 0.5, 200 * 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_linear_function_has_zero_remainder(self):
        # r = 0, s = 1 makes f(x, y) = x; diagnostic-only path
        for x, y in [(3.0, 9.0), (55.0, 48.0), (0.0, 10.0)]:
            q = _remainder_raw(100, 100, 0.5, r=0.0, s=1.0, x_obs=x, y_obs=y)
            assert q == pytest.approx(0.0, abs=1e-12)

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
        assert remainder(params, x, y) == pytest.approx(float(expected), rel=1e-10)

    def test_quadratic_decay_recovers_hessian_form(self):
        params = ModelParams(n=100, m=100, p=0.5, s=2.0, r=1.0)
        x0, y0 = 50.0, 50.0
        u, v = 1.0, -2.0
        h = hessian(Point2(x0, y0), params.r, params.s)
        target = abs(0.5 * (u * u * h.fxx + 2 * u * v * h.fxy + v * v * h.fyy))
        t = 1e-3
        ratio = abs(remainder(params, x0 + t * u, y0 + t * v)) / t**2
        assert ratio == pytest.approx(target, rel=0.01)

    def test_rejects_negative_observations(self):
        params = ModelParams(n=10, m=10, p=0.5, s=1.0, r=1.0)
        with pytest.raises(ParameterError):
            remainder(params, -1.0, 2.0)


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


class TestScaledRemainderSamples:
    def _p99(self, n, m, regime, samples=10_000, seed=123):
        params = ModelParams(n=n, m=m, p=0.5, s=15.0, r=15.0)
        law = limit_law(params, regime)
        x = draw_binomial(n, 0.5, make_generator(SeedSpec(seed, 0)), samples)
        y = draw_binomial(m, 0.5, make_generator(SeedSpec(seed, 1)), samples)
        sq = np.abs(scaled_remainder_samples(params, law, x, y))
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


# The gradient of f as gradient, _remainder_raw and scaled_remainder_samples
# each wrote it before they shared one helper; the shared form must give
# the same bits.
def reference_gradient(pt, r, s):
    x, y = pt
    f = eval_f(pt, r, s)
    t = x + y
    return f * (s * t - r * x) / (x * t), -f * r / t


def reference_remainder_raw(n, m, p, r, s, x_obs, y_obs):
    x0, y0 = n * p, m * p
    t0 = x0 + y0
    log_f0 = s * math.log(x0) - r * math.log(t0)
    f0 = math.exp(log_f0)
    gx = f0 * (s * t0 - r * x0) / (x0 * t0)
    gy = -f0 * r / t0
    dx, dy = x_obs - x0, y_obs - y0
    if x_obs > 0 and x_obs + y_obs > 0:
        delta = s * math.log(x_obs) - r * math.log(x_obs + y_obs) - log_f0
        df = f0 * math.expm1(delta)
    else:
        df = -f0
    return df - (gx * dx + gy * dy)


def reference_scaled_remainder_samples(params, law, x, y):
    x0, y0 = params.n * params.p, params.m * params.p
    t0 = x0 + y0
    amp = math.exp(law.log_scale + law.log_center)
    sgx = amp * (params.s * t0 - params.r * x0) / (x0 * t0)
    sgy = -amp * params.r / t0
    t_vals = standardized_statistic(x, y, law)
    return t_vals - (sgx * (x - x0) + sgy * (y - y0))


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def outcome(fn, *args):
    """The result's float bits, or ParameterError (x = 0 or x + y = 0)."""
    try:
        return float_bits(fn(*args))
    except ParameterError:
        return ParameterError


# (n, m, p, r, s): balanced, heavy and light denominators, equal and
# unequal exponents, and an f(np, mp) far below 1
SHARED_GRADIENT_GRID = [
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


class TestSharedGradientMatchesReference:
    @pytest.mark.parametrize("n, m, p, r, s", SHARED_GRADIENT_GRID)
    def test_gradient_bits(self, n, m, p, r, s):
        points = [Point2(n * p, m * p)]
        points += [Point2(*row) for row in observation_rows(n, m, p)]
        for pt in points:
            want = outcome(reference_gradient, pt, r, s)
            assert outcome(gradient, pt, r, s) == want, pt

    @pytest.mark.parametrize("n, m, p, r, s", SHARED_GRADIENT_GRID)
    def test_remainder_raw_bits(self, n, m, p, r, s):
        for x_obs, y_obs in observation_rows(n, m, p):
            args = (n, m, p, r, s, x_obs, y_obs)
            want = float_bits(reference_remainder_raw(*args))
            assert float_bits(_remainder_raw(*args)) == want, (x_obs, y_obs)

    @pytest.mark.parametrize("regime", [
        Regime.case_i(), Regime.case_ii(None), Regime.case_iii(), Regime.collapse(),
    ], ids=lambda regime: regime.kind.value)
    @pytest.mark.parametrize("n, m, p, r, s", SHARED_GRADIENT_GRID)
    def test_scaled_remainder_samples_bits(self, n, m, p, r, s, regime):
        params = ModelParams(n=n, m=m, p=p, s=s, r=r)
        law = limit_law(params, regime)
        x, y = (np.array(col) for col in zip(*observation_rows(n, m, p)))
        got = scaled_remainder_samples(params, law, x, y)
        want = reference_scaled_remainder_samples(params, law, x, y)
        assert float_bits(got) == float_bits(want)
