"""Exact small-instance ground truth by full enumeration of the joint pmf.

Enumerates all (x, y) in [0, n] x [0, m], weights each outcome by the product
of the two Binomial pmfs (log-gamma evaluation), and aggregates the exact
mean and variance of the ratio statistic, optionally standardized by a limit
law. One pass visits blocks of whole x-strata of about 16k outcomes each,
evaluating the pmf and the statistic once per outcome; each stratum's weight,
first moment and centered second moment are combined in stratum order with
fsum. Feasible only while (n+1)(m+1) stays within the enumeration budget;
beyond that, Monte Carlo is the tool.

Underflow rule: exp is skipped only for outcomes whose log-probability is
below EXP_ZERO_BELOW, where it would return +0.0 anyway, so those outcomes
weigh exactly +0.0 and every output is the same as with exp everywhere.
Subnormal probabilities above that cut-off are computed and kept, never
flushed to zero. Moments that are not finite (a statistic that overflows a
float) raise ParameterError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError
from .model import LimitLaw, ModelParams, Regime, limit_law
from .sampling import standardized_statistic

__all__ = [
    "ENUMERATION_BUDGET",
    "SUPPORT_LIMIT",
    "ExactDistribution",
    "ConvergenceRow",
    "exact_distribution",
    "exact_vs_theory_convergence",
]

ENUMERATION_BUDGET = 10**8
SUPPORT_LIMIT = 10**6  # support arrays are elided above this many outcomes
BLOCK_OUTCOMES = 2**14  # outcomes per enumeration block, so temporaries stay in cache
# exp(x) is +0.0 for every x below ln(2**-1075) = -745.1332..., and numpy's
# exp is many times slower there than in range; -746 leaves a margin below it.
EXP_ZERO_BELOW = -746.0


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


def _log_binom_pmf(k: np.ndarray, n: int, p: float) -> np.ndarray:
    from scipy.special import gammaln  # only oracle runs pay for importing scipy

    return (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _enumerate_moments(
    n: int, m: int, p: float, s: float, r: float, law: LimitLaw | None,
    keep_support: bool,
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
        # Unstandardized R, with s*log(x) from math.log once per stratum;
        # x = 0 gives log R = -inf, so R = 0 (x + y = 0 included).
        s_log_x = np.array([s * math.log(x) if x else -math.inf for x in range(n + 1)])

    # One pass over blocks of whole x-strata, each reduced to its weight, first
    # moment and second moment about its own mean; the strata are then
    # combined in stratum order with fsum (Chan, Golub & LeVeque 1983).
    keep = keep_support and outcomes <= SUPPORT_LIMIT
    sup_v = np.empty(outcomes) if keep else None
    sup_p = np.empty(outcomes) if keep else None
    w, pv, mu, m2 = (np.zeros(n + 1) for _ in range(4))  # mu = 0 where w = 0
    rows = max(1, BLOCK_OUTCOMES // (m + 1))
    for lo in range(0, n + 1, rows):
        hi = min(lo + rows, n + 1)
        arg = lpx[lo:hi, None] + lpy[None, :]
        prob = np.zeros_like(arg)
        np.exp(arg, out=prob, where=~(arg < EXP_ZERO_BELOW))  # NaN goes through exp
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
    params: ModelParams, regime: Regime | None = None, keep_support: bool = True
) -> ExactDistribution:
    """Exact distribution of R, or of T under ``regime``'s law when one is given."""
    law = None if regime is None else limit_law(params, regime)
    return _enumerate_moments(
        params.n, params.m, params.p, params.s, params.r, law, keep_support
    )


def _exact_distribution_raw(
    n: int, m: int, p: float, s: float, r: float
) -> ExactDistribution:
    """Unstandardized enumeration without the r, s > 0 contract.

    Diagnostic-only path: r = 0 turns R into the plain power X^s, which
    gives independently checkable moments.
    """
    return _enumerate_moments(n, m, p, s, r, None, keep_support=True)


@dataclass(frozen=True)
class ConvergenceRow:
    scale_factor: int
    n: int
    m: int
    exact_variance: float
    theory_variance: float
    relative_error: float


def exact_vs_theory_convergence(
    base_params: ModelParams, regime: Regime, scale_factors
) -> list[ConvergenceRow]:
    """Exact standardized variance vs the limit-law variance across sizes.

    Each scale factor k enumerates the model at (k*n, k*m); the relative
    error column is expected to shrink as k grows (degenerate zero-variance
    laws fall back to reporting the raw exact variance).
    """
    rows = []
    for k in scale_factors:
        params = ModelParams(
            n=base_params.n * int(k),
            m=base_params.m * int(k),
            p=base_params.p,
            s=base_params.s,
            r=base_params.r,
        )
        law = limit_law(params, regime)
        dist = _enumerate_moments(
            params.n, params.m, params.p, params.s, params.r, law, keep_support=False
        )
        if law.variance > 0:
            rel = abs(dist.variance - law.variance) / law.variance
        else:
            rel = dist.variance  # absolute scale; must itself shrink
        rows.append(
            ConvergenceRow(
                scale_factor=int(k),
                n=params.n,
                m=params.m,
                exact_variance=dist.variance,
                theory_variance=law.variance,
                relative_error=rel,
            )
        )
    return rows
