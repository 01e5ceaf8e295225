import json
import math
from pathlib import Path

import numpy as np
import pytest

from binratio import (
    BudgetError,
    ModelParams,
    ParameterError,
    Regime,
    exact_distribution,
    exact_vs_theory_convergence,
    limit_law,
    simulate_batch,
)
from binratio.oracle import (
    BLOCK_OUTCOMES,
    EXP_ZERO_BELOW,
    SUPPORT_LIMIT,
    ExactDistribution,
    _enumerate_moments,
    _exact_distribution_raw,
    _log_binom_pmf,
)
from binratio.sampling import SeedSpec, standardized_statistic

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def two_pass_reference(n, m, p, s, r, law):
    """The row-by-row, mean-then-variance enumeration the oracle replaced."""
    xs, ys = np.arange(n + 1), np.arange(m + 1)
    lpx, lpy = _log_binom_pmf(xs, n, p), _log_binom_pmf(ys, m, p)

    def row_values(x):
        if law is not None:
            return standardized_statistic(np.full(len(ys), x), ys, law)
        if x == 0:
            return np.zeros(len(ys))
        t = x + ys.astype(np.float64)
        t[t == 0] = 1.0
        return np.exp(s * math.log(x) - r * np.log(t))

    prob_sums, mean_terms = [], []
    for x in xs:
        row_p = np.exp(lpx[x] + lpy)
        row_v = row_values(x)
        prob_sums.append(float(np.sum(row_p)))
        mean_terms.append(float(np.dot(row_p, row_v)))
    mean = math.fsum(mean_terms)
    var_terms, sup_v, sup_p = [], [], []
    for x in xs:
        row_p = np.exp(lpx[x] + lpy)
        row_v = row_values(x)
        var_terms.append(float(np.dot(row_p, (row_v - mean) ** 2)))
        sup_v.append(row_v)
        sup_p.append(row_p)
    return ExactDistribution(
        values=np.concatenate(sup_v),
        probabilities=np.concatenate(sup_p),
        mean=mean,
        variance=math.fsum(var_terms),
        probability_total=math.fsum(prob_sums),
    )


def full_exp_reference(n, m, p, s, r, law, keep_support):
    """The blocked enumeration as it was before exp skipped outcomes it rounds to 0."""
    outcomes = (n + 1) * (m + 1)
    xs = np.arange(n + 1)
    ys = np.arange(m + 1)
    lpx = _log_binom_pmf(xs, n, p)
    lpy = _log_binom_pmf(ys, m, p)
    if law is None:
        s_log_x = np.array([s * math.log(x) if x else -math.inf for x in range(n + 1)])
    keep = keep_support and outcomes <= SUPPORT_LIMIT
    sup_v = np.empty(outcomes) if keep else None
    sup_p = np.empty(outcomes) if keep else None
    w, pv, mu, m2 = (np.zeros(n + 1) for _ in range(4))
    rows = max(1, BLOCK_OUTCOMES // (m + 1))
    for lo in range(0, n + 1, rows):
        hi = min(lo + rows, n + 1)
        prob = np.exp(lpx[lo:hi, None] + lpy[None, :])
        if law is None:
            t = (xs[lo:hi, None] + ys[None, :]).astype(np.float64)
            t[t == 0] = 1.0
            val = np.exp(s_log_x[lo:hi, None] - r * np.log(t))
        else:
            val = standardized_statistic(xs[lo:hi, None], ys[None, :], law)
        w[lo:hi] = prob.sum(axis=1)
        pv[lo:hi] = np.einsum("ij,ij->i", prob, val)
        np.divide(pv[lo:hi], w[lo:hi], out=mu[lo:hi], where=w[lo:hi] > 0)
        m2[lo:hi] = np.einsum("ij,ij->i", prob, (val - mu[lo:hi, None]) ** 2)
        if keep:
            sup_v[lo * (m + 1):hi * (m + 1)] = val.ravel()
            sup_p[lo * (m + 1):hi * (m + 1)] = prob.ravel()
    total = math.fsum(w)
    mean = math.fsum(pv)
    variance = math.fsum(m2 + w * (mu - mean) ** 2)
    return ExactDistribution(
        values=sup_v,
        probabilities=sup_p,
        mean=mean,
        variance=variance,
        probability_total=total,
    )


def assert_moments_close(got, want, rtol=1e-12):
    for key in ("mean", "variance", "probability_total"):
        a, b = getattr(got, key), getattr(want, key)
        assert math.isfinite(a), key
        assert abs(a - b) <= rtol * abs(b), (key, a, b)


class TestExactDistribution:
    def test_symmetric_tiny_instance_mean(self):
        # E[R | X+Y=k] = 1/2 for k >= 1 by symmetry, so E[R] = (1 - 2^-4)/2
        params = ModelParams(n=2, m=2, p=0.5, s=1.0, r=1.0)
        dist = exact_distribution(params)
        assert dist.mean == pytest.approx(15 / 32, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        for n, m, p in [(2, 2, 0.5), (50, 80, 0.3), (400, 600, 0.7)]:
            params = ModelParams(n=n, m=m, p=p, s=2.0, r=1.0)
            dist = exact_distribution(params, keep_support=False)
            assert dist.probability_total == pytest.approx(1.0, abs=1e-12)

    def test_support_is_full_grid(self):
        params = ModelParams(n=3, m=4, p=0.5, s=1.0, r=1.0)
        dist = exact_distribution(params)
        assert len(dist.values) == 4 * 5
        assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_zero_exponent_diagnostic_path(self):
        # r = 0 makes R = X, whose mean is n p
        dist = _exact_distribution_raw(1, 1, 0.5, s=1.0, r=0.0)
        assert dist.mean == pytest.approx(0.5, rel=1e-12)
        dist2 = _exact_distribution_raw(10, 5, 0.3, s=1.0, r=0.0)
        assert dist2.mean == pytest.approx(3.0, rel=1e-12)
        assert dist2.variance == pytest.approx(10 * 0.3 * 0.7, rel=1e-12)

    def test_standardized_variance_tracks_law(self):
        regime = Regime.case_ii(1.5)
        small = ModelParams(n=40, m=60, p=0.5, s=2.0, r=1.0)
        big = ModelParams(n=400, m=600, p=0.5, s=2.0, r=1.0)
        law_small = limit_law(small, regime)
        law_big = limit_law(big, regime)
        var_small = exact_distribution(small, regime).variance
        var_big = exact_distribution(big, regime).variance
        assert var_small == pytest.approx(law_small.variance, rel=0.25)
        assert var_big == pytest.approx(law_big.variance, rel=0.05)

    def test_matches_monte_carlo(self):
        params = ModelParams(n=50, m=80, p=0.3, s=2.0, r=1.0)
        regime = Regime.case_ii(1.6)
        dist = exact_distribution(params, regime)
        batch = simulate_batch(params, limit_law(params, regime), 10**6, SeedSpec(77))
        stderr_mean = batch.values.std() / math.sqrt(len(batch.values))
        assert abs(batch.values.mean() - dist.mean) < 5 * stderr_mean
        # variance stderr ~ var * sqrt(2/N) for near-Normal samples
        stderr_var = dist.variance * math.sqrt(2 / len(batch.values))
        assert abs(batch.values.var() - dist.variance) < 5 * stderr_var

    def test_non_finite_moments_raise(self, recwarn):
        # x^1e300 overflows for every x >= 2
        params = ModelParams(n=10, m=10, p=0.5, s=1e300, r=1.0)
        with pytest.raises(ParameterError, match="exact moments are not finite"):
            exact_distribution(params)

    def test_budget_exceeded(self):
        params = ModelParams(n=20_000, m=20_000, p=0.5, s=1.0, r=1.0)
        with pytest.raises(BudgetError):
            exact_distribution(params)


class TestConvergence:
    def test_relative_error_decreases(self):
        base = ModelParams(n=50, m=50, p=0.5, s=1.0, r=1.0)
        rows = exact_vs_theory_convergence(base, Regime.case_ii(1.0), [1, 4, 16])
        errs = [row.relative_error for row in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_first_row_matches_direct_enumeration(self):
        base = ModelParams(n=50, m=50, p=0.5, s=1.0, r=1.0)
        regime = Regime.case_ii(1.0)
        rows = exact_vs_theory_convergence(base, regime, [1])
        direct = exact_distribution(base, regime)
        assert rows[0].exact_variance == direct.variance

    def test_degenerate_law_reports_absolute_variance(self):
        base = ModelParams(n=30, m=30, p=0.5, s=2.0, r=2.0)
        rows = exact_vs_theory_convergence(base, Regime.case_iii(), [1, 4, 16])
        assert all(row.theory_variance == 0.0 for row in rows)
        vals = [row.relative_error for row in rows]
        assert vals[0] > vals[1] > vals[2]

    def test_standardized_mean_shrinks(self):
        # asymmetric instance so the first-order bias is nonzero and the
        # standardized mean has something to shrink from
        regime = Regime.case_ii(1.0)
        means = []
        for k in [1, 4, 16]:
            params = ModelParams(n=50 * k, m=50 * k, p=0.3, s=2.0, r=1.0)
            dist = exact_distribution(params, regime, keep_support=False)
            means.append(abs(dist.mean))
        assert means[0] > means[1] > means[2]


class TestOnePassEquivalence:
    """The blocked one-pass enumeration against the two-pass reference."""

    def check(self, n, m, p, s, r, regime=None, keep_support=True):
        law = None
        if regime is not None:
            params = ModelParams(n=n, m=m, p=p, s=s, r=r)
            law = limit_law(params, regime)
        got = _enumerate_moments(n, m, p, s, r, law, keep_support)
        want = two_pass_reference(n, m, p, s, r, law)
        assert_moments_close(got, want)
        if keep_support:
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.probabilities, want.probabilities)
        return got

    def test_benchmark_instance_matches_golden(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["oracle_moments"][0]
        got = self.check(1600, 2400, 0.5, 2.0, 1.0, Regime.case_ii(None),
                         keep_support=False)
        for key, want in golden.items():
            assert getattr(got, key) == pytest.approx(float(want), rel=1e-12, abs=0)

    @pytest.mark.parametrize("regime", [None, Regime.case_ii(None)])
    def test_single_row_blocks(self, regime):
        m = BLOCK_OUTCOMES + 10
        assert max(1, BLOCK_OUTCOMES // (m + 1)) == 1
        self.check(4, m, 0.3, 2.0, 1.0, regime)

    @pytest.mark.parametrize("regime", [None, Regime.case_ii(None)])
    def test_ragged_last_block(self, regime):
        n, m = 400, 99
        rows = BLOCK_OUTCOMES // (m + 1)
        assert rows > 1 and (n + 1) % rows != 0
        self.check(n, m, 0.4, 2.0, 1.0, regime)

    @pytest.mark.parametrize("p", [0.999, 1e-6])
    def test_underflowing_strata(self, p):
        lpx = _log_binom_pmf(np.arange(3001), 3000, p)
        assert np.count_nonzero(np.exp(lpx) == 0) > 0  # some strata have w_x = 0
        self.check(3000, 2000, p, 2.0, 1.0, Regime.case_ii(None), keep_support=False)

    def test_zero_exponent_raw_path(self):
        got = self.check(30, 20, 0.3, 1.0, 0.0)
        assert got.mean == pytest.approx(30 * 0.3, rel=1e-12)
        assert got.variance == pytest.approx(30 * 0.3 * 0.7, rel=1e-12)


class TestSkippedExp:
    """exp is skipped only where it would return +0.0, so nothing changes."""

    def test_threshold_is_below_every_nonzero_exp(self):
        grid = np.concatenate([
            np.linspace(-1e4, EXP_ZERO_BELOW, 10**6),
            EXP_ZERO_BELOW - np.arange(10**4) * np.spacing(EXP_ZERO_BELOW),
            [-math.inf],
        ])
        assert np.all(np.exp(grid).view(np.uint64) == 0)  # +0.0, never -0.0
        assert np.isnan(np.exp(np.nan))
        assert np.exp(-745.0) > 0  # a subnormal result above the cut-off is kept

    @pytest.mark.parametrize("n, m, p, r, regime, keep_support", [
        (1600, 2400, 0.5, 1.0, Regime.case_ii(None), False),
        (3000, 2000, 0.999, 1.0, Regime.case_ii(None), False),
        (3000, 2000, 1e-6, 1.0, Regime.case_ii(None), False),
        (700, 800, 0.5, 1.0, Regime.case_ii(None), True),
        (700, 800, 0.5, 1.0, None, True),
        (1500, 600, 0.5, 0.0, None, True),  # r = 0: the raw path, R = X^s
    ])
    def test_bitwise_equal_to_full_exp(self, n, m, p, r, regime, keep_support):
        s = 2.0
        lpx = _log_binom_pmf(np.arange(n + 1), n, p)
        lpy = _log_binom_pmf(np.arange(m + 1), m, p)
        assert lpx.min() + lpy.min() < EXP_ZERO_BELOW  # some outcomes skip exp
        law = None
        if regime is not None:
            law = limit_law(ModelParams(n=n, m=m, p=p, s=s, r=r), regime)
        got = _enumerate_moments(n, m, p, s, r, law, keep_support)
        want = full_exp_reference(n, m, p, s, r, law, keep_support)
        for key in ("mean", "variance", "probability_total"):
            assert getattr(got, key) == getattr(want, key), key
        if keep_support:
            assert got.values.tobytes() == want.values.tobytes()
            assert got.probabilities.tobytes() == want.probabilities.tobytes()
        else:
            assert got.values is None and want.values is None
