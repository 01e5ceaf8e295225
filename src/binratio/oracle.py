"""Exact small-instance ground truth by full enumeration of the joint pmf.

Enumerates all (x, y) in [0, n] x [0, m], weights each outcome by the product
of the two Binomial pmfs (log-factorial table), and aggregates the exact
mean and variance of the ratio statistic, optionally standardized by a limit
law. One pass visits blocks of whole x-strata of about 64k outcomes each, in
three reused buffers, evaluating the pmf and the statistic once per outcome;
each stratum's weight, first moment and centered second moment are combined
in stratum order with fsum. A block writes its statistic, probability and
live mask into the leading rows of three buffers allocated once per
enumeration: about 1.1 MB at (1600, 2400), which stays in a 4 MiB L2 cache.
Arrays allocated afresh in every block of that size cost page faults, and
smaller blocks cost more per-call overhead. Feasible only while (n+1)(m+1)
stays within the enumeration budget; beyond that, Monte Carlo is the tool.

Log-factorials come from a table built with the five-term Stirling polynomial
of Cephes lgam (Moshier, Methods and Programs for Mathematical Functions, 1989)
and glibc's log, which give scipy.special.gammaln's bits on the budget's
domain, so the pmf is bit for bit the one gammaln gives without importing scipy.

The statistic needs r*log(x + y) at every outcome. Row x of it is the
slice [x, x + m] of one table of r*log(t), t = 0 .. n + m, so the table is
built once per enumeration and seen through a sliding window. A block hands
its rows of the window to ``standardized_statistic`` (or, for R, subtracts
them from s*log(x)), so it takes one subtraction per outcome and no log,
and the statistic is bit for bit the one formed from the counts.

Underflow rule: in every block, exp runs only on the outcomes whose
log-probability is not below a cut-off, and the others weigh exactly +0.0.
While the support is kept, the cut-off is EXP_ZERO_BELOW: below it exp would
return +0.0 anyway, so every printed probability and moment is the same as
with exp everywhere. Above SUPPORT_LIMIT only the moments are printed, and the
cut-off is EXP_SUBNORMAL_BELOW = ln(2**-1022), so subnormal probabilities are
dropped too; they are what exp costs most: numpy's exp took 110-127 ns per
subnormal result against 0.7-1.2 ns per normal one (14k-element blocks, 2
vCPUs, numpy 2.4.6), and 2.4% of the outcomes at (1600, 2400), p = 0.5, are
subnormal. A dropped outcome takes out of each sum a probability below
2**-1022, alone or times its statistic or centered square; a term far below
the last bit of its sum changes a moment only when the exact sum lies that
close to a rounding boundary. That cannot be ruled out in general, so
equality with exp everywhere is checked at fixed inputs. The statistic and
the sums span whole rows, so the sums group their terms as before, and a
statistic (or its square) that is not finite at an outcome of probability
+0.0 still makes the moments NaN. The three fsum calls see only the nonzero
terms, which leaves their correctly rounded results as they are.
Moments that are not finite (a statistic that overflows a float) raise
ParameterError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetError, ParameterError
from .model import LimitLaw, ModelParams, Regime, _instance, limit_law
from .sampling import standardized_statistic

__all__ = [
    "ENUMERATION_BUDGET",
    "SUPPORT_LIMIT",
    "ExactDistribution",
    "exact_distribution",
]

ENUMERATION_BUDGET = 10**8
SUPPORT_LIMIT = 10**6  # support arrays are elided above this many outcomes
# Outcomes per enumeration block: the block's three buffers (two float64, one
# bool) stay in L2, and fewer, larger blocks pay less per-call overhead.
BLOCK_OUTCOMES = 2**16
# exp(x) is +0.0 for every x below ln(2**-1075) = -745.1332..., and numpy's
# exp is many times slower there than in range; -746 leaves a margin below it.
EXP_ZERO_BELOW = -746.0
# exp(x) is subnormal (or +0.0) for every x below ln(2**-1022); only the
# moments-only path skips exp there, since no probability of it is printed.
EXP_SUBNORMAL_BELOW = math.log(2.0**-1022)
# Cephes lgam's Stirling series: log(sqrt(2 pi)) and the coefficients of its
# five-term 1/x**2 polynomial (Moshier 1989)
_LS2PI = 0.91893853320467274178
_STIRLING_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact distribution of R (or standardized T) on its finite support.

    ``values``/``probabilities`` are parallel arrays over all enumerated
    outcomes, or None when the support was elided for size; the moments are
    always present.
    """

    values: np.ndarray | None
    probabilities: np.ndarray | None
    mean: float
    variance: float
    probability_total: float


def _log_gamma_stirling(lo: int, hi: int) -> np.ndarray:
    """log Gamma(x) at the integers x = lo .. hi - 1 (lo >= 13), as Cephes lgam.

    The Stirling series with Moshier's five-term polynomial in 1/x**2, in
    lgam's operation order, at every x. lgam takes three terms from x = 1000
    and none above 1e8; on the budget's domain, x <= 5e7 + 1, the five-term
    correction differs from the three-term one by under 2e-19 against an ulp
    of 9e-13 or more, and gives gammaln's bits at every integer there.
    """
    x = np.arange(lo, hi, dtype=np.float64)
    # glibc's log through math.log, as Cephes calls it; numpy's SIMD log
    # differs in the last bit at some integers. In place from here on, so
    # that building the table holds few arrays of its length at once.
    q = (x - 0.5) * np.fromiter(map(math.log, range(lo, hi)), np.float64, hi - lo)
    q -= x
    q += _LS2PI
    p = 1.0 / (x * x)
    a0, a1, a2, a3, a4 = _STIRLING_A
    q += ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x
    return q


def _log_factorials(top: int) -> np.ndarray:
    """log(k!) for k = 0 .. top, bit for bit scipy.special.gammaln(k + 1)."""
    # below x = k + 1 = 13 lgam takes the log of the exact product
    exact = [math.log(math.factorial(k)) for k in range(min(top, 11) + 1)]
    if top <= 11:
        return np.array(exact)
    return np.concatenate((exact, _log_gamma_stirling(13, top + 2)))


def _log_binom_pmf(k: np.ndarray, n: int, p: float) -> np.ndarray:
    lf = _log_factorials(n)
    return lf[n] - lf[k] - lf[n - k] + k * math.log(p) + (n - k) * math.log1p(-p)


def _scaled_log_sums(n: int, m: int, r: float) -> np.ndarray:
    """r*log(x + y) at rows x = 0 .. n and columns y = 0 .. m, log(0) read as log(1).

    A read-only window view over one table of r*log(t), t = 0 .. n + m: row x
    is the table's slice [x, x + m], so it costs n + m + 1 logs, not one per
    outcome. Each entry is bit for bit r * np.log(float(x + y)).
    """
    table = np.arange(n + m + 1, dtype=np.float64)
    table[0] = 1.0
    np.log(table, out=table)
    table *= r
    return sliding_window_view(table, m + 1)


def _enumerate_moments(
    n: int, m: int, p: float, s: float, r: float, law: LimitLaw | None
) -> ExactDistribution:
    outcomes = (n + 1) * (m + 1)
    if outcomes > ENUMERATION_BUDGET:
        raise BudgetError(
            f"(n+1)*(m+1) = {outcomes} exceeds the enumeration budget "
            f"{ENUMERATION_BUDGET}; use Monte Carlo simulation instead"
        )
    xs = np.arange(n + 1)
    ys = np.arange(m + 1)
    lpx = _log_binom_pmf(xs, n, p)
    lpy = _log_binom_pmf(ys, m, p)
    if law is None:
        # Unstandardized R, with log(x) from math.log once per stratum (glibc's,
        # as in _log_gamma_stirling); x = 0 gives log R = -inf, so R = 0
        # (x + y = 0 included). Scaled by s below.
        s_log_x = np.empty(n + 1)
        s_log_x[0] = -math.inf
        s_log_x[1:] = np.fromiter(map(math.log, range(1, n + 1)), np.float64, n)

    # One pass over blocks of whole x-strata, each reduced to its weight, first
    # moment and second moment about its own mean; the strata are then
    # combined in stratum order with fsum (Chan, Golub & LeVeque 1983).
    keep = outcomes <= SUPPORT_LIMIT
    cut = EXP_ZERO_BELOW if keep else EXP_SUBNORMAL_BELOW
    sup_v = np.empty(outcomes) if keep else None
    sup_p = np.empty(outcomes) if keep else None
    w, pv, mu, m2 = (np.zeros(n + 1) for _ in range(4))  # mu = 0 where w = 0
    rows = max(1, BLOCK_OUTCOMES // (m + 1))
    # every block writes into the leading rows of these three
    stat_buf, prob_buf = np.empty((rows, m + 1)), np.empty((rows, m + 1))
    live_buf = np.empty((rows, m + 1), dtype=bool)
    # beyond float range the moments are inf or NaN, unwarned: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        r_log_t = _scaled_log_sums(n, m, r)
        if law is None:
            s_log_x *= s
        for lo in range(0, n + 1, rows):
            hi = min(lo + rows, n + 1)
            block = slice(lo * (m + 1), hi * (m + 1))
            val, prob, live = stat_buf[: hi - lo], prob_buf[: hi - lo], live_buf[: hi - lo]
            if law is None:
                np.subtract(s_log_x[lo:hi, None], r_log_t[lo:hi], out=val)
                np.exp(val, out=val)
            else:
                standardized_statistic(
                    xs[lo:hi, None], ys[None, :], law, r_log_sum=r_log_t[lo:hi], out=val
                )
            if keep:
                sup_v[block] = val.ravel()
            # lpy + lpx is lpx + lpy bit for bit, and faster than the outer add
            np.copyto(prob, lpy)
            prob += lpx[lo:hi, None]
            np.greater_equal(prob, cut, out=live)
            np.exp(prob, out=prob, where=live)
            # the other outcomes still hold a log-probability below the cut,
            # which this makes +0.0; a NaN one stays NaN, as exp would leave it
            np.maximum(prob, 0.0, out=prob)
            if keep:
                sup_p[block] = prob.ravel()
            # reductions over whole rows: their grouping depends on position
            prob.sum(axis=1, out=w[lo:hi])
            np.einsum("ij,ij->i", prob, val, out=pv[lo:hi])
            np.divide(pv[lo:hi], w[lo:hi], out=mu[lo:hi], where=w[lo:hi] > 0)
            val -= mu[lo:hi, None]
            np.square(val, out=val)
            np.einsum("ij,ij->i", prob, val, out=m2[lo:hi])
        # exact zeros leave a correctly rounded sum as it is; NaN and inf stay
        total = math.fsum(w[w != 0])
        mean = math.fsum(pv[pv != 0])
        terms = m2 + w * (mu - mean) ** 2
        variance = math.fsum(terms[terms != 0])
    if not all(map(math.isfinite, (mean, variance, total))):
        raise ParameterError(
            f"exact moments are not finite at n={n}, m={m}, p={p!r}, s={s!r}, "
            f"r={r!r}: mean {mean!r}, variance {variance!r}, "
            f"probability total {total!r}"
        )
    return ExactDistribution(
        values=sup_v,
        probabilities=sup_p,
        mean=mean,
        variance=variance,
        probability_total=total,
    )


def exact_distribution(
    params: ModelParams, regime: Regime | None = None
) -> ExactDistribution:
    """Exact distribution of R, or of T under ``regime``'s law when one is given.

    The support is kept exactly when there are at most ``SUPPORT_LIMIT``
    outcomes; above that ``values`` and ``probabilities`` are None.
    """
    if regime is None:
        _instance(params, ModelParams, "params")  # else limit_law checks it
    law = None if regime is None else limit_law(params, regime)
    return _enumerate_moments(params.n, params.m, params.p, params.s, params.r, law)
