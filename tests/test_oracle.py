import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from read_only import statistic
from scipy.special import gammaln

import binratio.oracle
from binratio import (
    BudgetError,
    ModelParams,
    ParameterError,
    Regime,
    draw_counts,
    exact_distribution,
    limit_law,
    simulate_batch,
)
from binratio.oracle import (
    BLOCK_OUTCOMES,
    ENUMERATION_BUDGET,
    EXP_SUBNORMAL_BELOW,
    EXP_ZERO_BELOW,
    SUPPORT_LIMIT,
    ExactDistribution,
    _enumerate_moments,
    _log_binom_pmf,
    _log_factorials,
    _log_gamma_stirling,
    _scaled_log_sums,
)
from binratio.sampling import SeedSpec

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def two_pass_reference(n, m, p, s, r, law):
    """The row-by-row, mean-then-variance enumeration the oracle replaced."""
    xs, ys = np.arange(n + 1), np.arange(m + 1)
    lpx, lpy = _log_binom_pmf(xs, n, p), _log_binom_pmf(ys, m, p)

    def row_values(x):
        if law is not None:
            return statistic(np.full(len(ys), x), ys, law)
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


def full_exp_reference(n, m, p, s, r, law):
    """The blocked enumeration with exp at every outcome and fsum over every term.

    The oracle skips exp where it returns +0.0 and, above the support limit,
    also where it returns a subnormal, and it sums only nonzero terms.
    """
    outcomes = (n + 1) * (m + 1)
    xs = np.arange(n + 1)
    ys = np.arange(m + 1)
    lpx = _log_binom_pmf(xs, n, p)
    lpy = _log_binom_pmf(ys, m, p)
    if law is None:
        s_log_x = np.array([s * math.log(x) if x else -math.inf for x in range(n + 1)])
    keep = outcomes <= SUPPORT_LIMIT
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
            val = statistic(xs[lo:hi, None], ys[None, :], law)
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
    @pytest.mark.parametrize("n, m, p", [
        (2, 2, 0.5), (10, 5, 0.3), (3, 200, 0.01), (300, 7, 0.9),
    ])
    def test_mean_matches_hypergeometric_closed_form(self, n, m, p):
        # given X + Y = k >= 1, X is hypergeometric with mean k n/(n+m), so
        # E[X/(X+Y)] = n/(n+m) (1 - (1-p)^(n+m)); at (2, 2, 0.5) that is 15/32
        params = ModelParams(n=n, m=m, p=p, s=1.0, r=1.0)
        dist = exact_distribution(params)
        want = n / (n + m) * -math.expm1((n + m) * math.log1p(-p))
        assert dist.mean == pytest.approx(want, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        for n, m, p in [(2, 2, 0.5), (50, 80, 0.3), (400, 600, 0.7)]:
            params = ModelParams(n=n, m=m, p=p, s=2.0, r=1.0)
            dist = exact_distribution(params)
            assert dist.probability_total == pytest.approx(1.0, abs=1e-12)

    def test_support_is_full_grid(self):
        params = ModelParams(n=3, m=4, p=0.5, s=1.0, r=1.0)
        dist = exact_distribution(params)
        assert len(dist.values) == 4 * 5
        assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_zero_exponent_diagnostic_path(self):
        # r = 0 makes R = X, whose mean is n p
        dist = _enumerate_moments(1, 1, 0.5, 1.0, 0.0, None)
        assert dist.mean == pytest.approx(0.5, rel=1e-12)
        dist2 = _enumerate_moments(10, 5, 0.3, 1.0, 0.0, None)
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
        law = limit_law(params, regime)
        batch = simulate_batch(*draw_counts(params, 10**6, SeedSpec(77)), law)
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

    @pytest.mark.parametrize("n, r, message", [
        # T overflows at (1, 0), (1, 1) and (2, 0) alone, where the probability
        # is +0.0 but not in every column of their block
        (1000, 120.0, "mean nan"),
        # T overflows in a block whose probabilities are all +0.0
        (2000, 120.0, "mean nan"),
        # T is finite and T**2 overflows, only in such a block
        (2000, 60.0, "variance nan"),
    ])
    def test_non_finite_terms_at_zero_probability_raise(self, n, r, message):
        # exp is skipped there, but 0 * inf is still NaN in the moments
        params = ModelParams(n=n, m=n, p=0.5, s=1.0, r=r)
        regime = Regime.case_ii(None)
        xs = np.arange(n + 1)
        val = statistic(xs[:, None], xs[None, :], limit_law(params, regime))
        lp = _log_binom_pmf(xs, n, 0.5)
        prob = np.exp(lp[:, None] + lp[None, :])
        with np.errstate(over="ignore"):
            square = val**2
        assert not np.all(np.isfinite(square))
        assert np.all(np.isfinite(square[prob > 0]))
        with pytest.raises(ParameterError, match=message):
            exact_distribution(params, regime)

    def test_budget_exceeded(self):
        params = ModelParams(n=20_000, m=20_000, p=0.5, s=1.0, r=1.0)
        with pytest.raises(BudgetError):
            exact_distribution(params)

    # (999 + 1)(999 + 1) is SUPPORT_LIMIT outcomes exactly; one more column
    # is past it, and only the moments are returned
    @pytest.mark.parametrize("m, kept", [(999, True), (1000, False)])
    def test_support_kept_up_to_the_limit(self, m, kept):
        n, p, s, r = 999, 0.5, 2.0, 1.0
        params = ModelParams(n=n, m=m, p=p, s=s, r=r)
        regime = Regime.case_ii(None)
        got = exact_distribution(params, regime)
        want = full_exp_reference(n, m, p, s, r, limit_law(params, regime))
        for key in ("mean", "variance", "probability_total"):
            assert getattr(got, key) == getattr(want, key), key
        if kept:
            assert len(got.values) == len(got.probabilities) == SUPPORT_LIMIT
            assert got.values.tobytes() == want.values.tobytes()
            assert got.probabilities.tobytes() == want.probabilities.tobytes()
        else:
            assert got.values is None and got.probabilities is None


def variances(base, regime, factors):
    """(exact, limit-law) variance of T at (k n, k m) for each factor k."""
    out = []
    for k in factors:
        params = replace(base, n=base.n * k, m=base.m * k)
        law = limit_law(params, regime)
        out.append((exact_distribution(params, regime).variance, law.variance))
    return out


class TestConvergence:
    def test_relative_error_decreases(self):
        base = ModelParams(n=50, m=50, p=0.5, s=1.0, r=1.0)
        rows = variances(base, Regime.case_ii(1.0), [1, 4, 16])
        errs = [abs(exact - law) / law for exact, law in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_degenerate_law_variance_shrinks(self):
        # the limit law's variance is 0 at s = r under case 3, so the exact
        # variance itself must shrink
        base = ModelParams(n=30, m=30, p=0.5, s=2.0, r=2.0)
        rows = variances(base, Regime.case_iii(), [1, 4, 16])
        assert all(law == 0.0 for _, law in rows)
        vals = [exact for exact, _ in rows]
        assert vals[0] > vals[1] > vals[2]

    def test_standardized_mean_shrinks(self):
        # asymmetric instance so the first-order bias is nonzero and the
        # standardized mean has something to shrink from
        regime = Regime.case_ii(1.0)
        means = []
        for k in [1, 4, 16]:
            params = ModelParams(n=50 * k, m=50 * k, p=0.3, s=2.0, r=1.0)
            dist = exact_distribution(params, regime)
            means.append(abs(dist.mean))
        assert means[0] > means[1] > means[2]


class TestOnePassEquivalence:
    """The blocked one-pass enumeration against the two-pass reference."""

    def check(self, n, m, p, s, r, regime=None):
        law = None
        if regime is not None:
            params = ModelParams(n=n, m=m, p=p, s=s, r=r)
            law = limit_law(params, regime)
        got = _enumerate_moments(n, m, p, s, r, law)
        want = two_pass_reference(n, m, p, s, r, law)
        assert_moments_close(got, want)
        if got.values is not None:
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.probabilities, want.probabilities)
        return got

    def test_benchmark_instance_matches_golden(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["oracle_moments"][0]
        got = self.check(1600, 2400, 0.5, 2.0, 1.0, Regime.case_ii(None))
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
        self.check(3000, 2000, p, 2.0, 1.0, Regime.case_ii(None))

    def test_zero_exponent_raw_path(self):
        got = self.check(30, 20, 0.3, 1.0, 0.0)
        assert got.mean == pytest.approx(30 * 0.3, rel=1e-12)
        assert got.variance == pytest.approx(30 * 0.3 * 0.7, rel=1e-12)


class TestBlockSize:
    """Every reduction spans whole rows, so the block size changes no bit."""

    @pytest.mark.parametrize("regime", [None, Regime.case_ii(None)], ids=["raw", "case2"])
    @pytest.mark.parametrize("n, m, p", [
        (700, 800, 0.3),  # support kept
        (1600, 2400, 0.5),  # moments only
    ])
    def test_moments_and_support_do_not_depend_on_it(self, monkeypatch, n, m, p, regime):
        law = None
        if regime is not None:
            law = limit_law(ModelParams(n=n, m=m, p=p, s=2.0, r=1.0), regime)
        # one row per block, 16k and 64k outcomes, and 5 rows: all but one
        # leave a ragged last block
        sizes = (1, 2**14, 2**16, 5 * (m + 1) + 3)
        assert any((n + 1) % max(1, size // (m + 1)) for size in sizes)
        got = []
        for size in sizes:
            monkeypatch.setattr(binratio.oracle, "BLOCK_OUTCOMES", size)
            got.append(_enumerate_moments(n, m, p, 2.0, 1.0, law))
        for other in got[1:]:
            for key in ("mean", "variance", "probability_total"):
                assert getattr(other, key) == getattr(got[0], key), key
            if got[0].values is None:
                assert other.values is None and other.probabilities is None
            else:
                assert other.values.tobytes() == got[0].values.tobytes()
                assert other.probabilities.tobytes() == got[0].probabilities.tobytes()

    def test_no_block_sized_array_per_block(self):
        # the three block buffers take about 1.1 MB here; arrays allocated
        # afresh in every block would push the peak above 2 MB
        params = ModelParams(n=1600, m=2400, p=0.5, s=2.0, r=1.0)
        exact_distribution(params, Regime.case_ii(None))
        tracemalloc.start()
        try:
            exact_distribution(params, Regime.case_ii(None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestScaledLogSums:
    """The window rows are the per-outcome r*log(x + y) they replaced."""

    @pytest.mark.parametrize("n, m", [(0, 0), (6, 0), (0, 9), (40, 60), (3000, 17)])
    @pytest.mark.parametrize("r", [1.0, 2.5])
    def test_rows_match_per_outcome_log(self, n, m, r):
        window = _scaled_log_sums(n, m, r)
        assert window.shape == (n + 1, m + 1)
        for x in (0, n):  # the first row holds t = 0, read as t = 1
            want = np.array([r * np.log(float(max(x + y, 1))) for y in range(m + 1)])
            assert_same_bits(window[x], want)
        assert window[0, 0].view(np.uint64) == 0  # +0.0 at t = 0


class TestLogFactorials:
    """The table is bit for bit scipy's gammaln(k + 1), the reference it replaced."""

    def test_first_20000_match_gammaln(self):
        assert_same_bits(_log_factorials(20000), gammaln(np.arange(20001) + 1))

    # x = top + 1 on each side of lgam's branch points: the exact product
    # below 13, the five-term series below 1000, the three-term one above
    @pytest.mark.parametrize("x", [1, 2, 12, 13, 14, 999, 1000, 1001])
    def test_table_ending_at_a_branch_edge(self, x):
        assert_same_bits(_log_factorials(x - 1), gammaln(np.arange(x) + 1))

    @pytest.mark.parametrize("lo, hi", [
        (13, 14), (999, 1001), (10**8 - 1000, 10**8 + 1001), (10**8, 10**8 + 1),
    ])
    def test_series_kernel_matches_gammaln(self, lo, hi):
        # above x = 1e8 lgam drops the series' correction term
        x = np.arange(lo, hi, dtype=np.float64)
        assert_same_bits(_log_gamma_stirling(lo, hi), gammaln(x))

    def test_one_polynomial_on_the_budgets_domain(self):
        # 100 windows of 100 integers, log-uniform over 13 .. 5e7 + 1: every x
        # a table under the enumeration budget can hold
        top = ENUMERATION_BUDGET // 2 + 1
        for lo in np.geomspace(13, top - 99, 100).astype(np.int64).tolist():
            x = np.arange(lo, lo + 100, dtype=np.float64)
            assert_same_bits(_log_gamma_stirling(lo, lo + 100), gammaln(x))

    @pytest.mark.parametrize("n, p", [
        (1, 0.5), (40, 0.3), (2400, 0.5), (3000, 0.999), (20000, 1e-6),
    ])
    def test_log_binom_pmf_matches_gammaln_expression(self, n, p):
        k = np.arange(n + 1)
        want = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                + k * math.log(p) + (n - k) * math.log1p(-p))
        assert_same_bits(_log_binom_pmf(k, n, p), want)


class TestSkippedExp:
    """exp is skipped where it would return +0.0 and, when only the moments are
    kept (above the support limit), where it would return a subnormal.

    Skipping +0.0 changes nothing. A skipped subnormal (below 2**-1022) changes
    a moment only if the exact sum lies that close to a rounding boundary, so
    equality with exp everywhere is pinned at the inputs listed below.
    """

    def test_threshold_is_below_every_nonzero_exp(self):
        grid = np.concatenate([
            np.linspace(-1e4, EXP_ZERO_BELOW, 10**6),
            EXP_ZERO_BELOW - np.arange(10**4) * np.spacing(EXP_ZERO_BELOW),
            [-math.inf],
        ])
        assert np.all(np.exp(grid).view(np.uint64) == 0)  # +0.0, never -0.0
        assert np.isnan(np.exp(np.nan))
        assert np.exp(-745.0) > 0  # a subnormal result the support keeps

    def test_moments_cut_drops_exactly_the_subnormal_results(self):
        cut = EXP_SUBNORMAL_BELOW
        assert np.exp(cut) >= 2.0**-1022
        assert np.exp(np.nextafter(cut, -np.inf)) < 2.0**-1022

    @pytest.mark.parametrize("n, m, p, s, r, regime", [
        (1600, 2400, 0.5, 2.0, 1.0, Regime.case_ii(None)),
        (1600, 2400, 0.5, 15.0, 15.0, Regime.case_ii(None)),
        (1600, 2400, 0.3, 2.0, 1.0, None),
        (3000, 2000, 0.999, 2.0, 1.0, Regime.case_ii(None)),
        (3000, 2000, 1e-6, 2.0, 1.0, Regime.case_ii(None)),
        (700, 800, 0.5, 2.0, 1.0, Regime.case_ii(None)),  # support kept
        (700, 800, 0.5, 2.0, 1.0, None),
        (1500, 600, 0.5, 2.0, 0.0, None),  # r = 0: the raw path, R = X^s
        # most blocks have no column whose probability can be nonzero
        (20000, 300, 0.01, 2.0, 1.0, Regime.case_ii(None)),
        # raw, support kept: the x = 0 row and t = x + y = 0 are compared too
        (700, 800, 0.3, 2.0, 2.0, None),
    ])
    def test_bitwise_equal_to_full_exp(self, n, m, p, s, r, regime):
        lpx = _log_binom_pmf(np.arange(n + 1), n, p)
        lpy = np.sort(_log_binom_pmf(np.arange(m + 1), m, p))
        kept = (n + 1) * (m + 1) <= SUPPORT_LIMIT
        # some outcomes skip exp: below the +0.0 cut-off, and above the
        # support limit also between it and the subnormal one
        assert lpx.min() + lpy[0] < EXP_ZERO_BELOW
        if not kept:
            skipped = (np.searchsorted(lpy, EXP_SUBNORMAL_BELOW - lpx)
                       - np.searchsorted(lpy, EXP_ZERO_BELOW - lpx))
            assert skipped.sum() > 0
        law = None
        if regime is not None:
            law = limit_law(ModelParams(n=n, m=m, p=p, s=s, r=r), regime)
        got = _enumerate_moments(n, m, p, s, r, law)
        want = full_exp_reference(n, m, p, s, r, law)
        for key in ("mean", "variance", "probability_total"):
            assert getattr(got, key) == getattr(want, key), key
        if kept:
            assert got.values.tobytes() == want.values.tobytes()
            assert got.probabilities.tobytes() == want.probabilities.tobytes()
        else:
            assert got.values is None and want.values is None
