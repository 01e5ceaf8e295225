"""Parameter space, asymptotic regimes, and the closed-form limit law.

The object of study is the ratio statistic R = X^s / (X+Y)^r for independent
X ~ Binomial(n, p) and Y ~ Binomial(m, p). Depending on how m grows relative
to n, a centered and rescaled version of R converges to a Normal distribution
whose variance has a closed form; ``limit_law`` packages the centering
constant, the scaling factor, and that variance for a given regime.

All centers and scales are carried in natural-log form so that exponents up
to ~30 at trial counts up to ~2e9 stay representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

from .errors import ParameterError, RegimeError

__all__ = [
    "ModelParams",
    "Regime",
    "RegimeKind",
    "LimitLaw",
    "limit_law",
    "variance_limit_consistency",
    "heavy_denominator_variance",
    "balanced_variance",
    "light_denominator_variance",
]


@dataclass(frozen=True)
class ModelParams:
    """The quintuple (n, m, p, s, r) defining the two Binomials and exponents.

    n, m are the trial counts of X and Y; p is the shared success probability
    (strictly interior); s and r are the positive numerator and denominator
    exponents of R = X^s / (X+Y)^r.
    """

    n: int
    m: int
    p: float
    s: float
    r: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ParameterError(f"m must be a positive integer, got {self.m!r}")
        if not (isinstance(self.p, Real) and 0.0 < self.p < 1.0):
            raise ParameterError(f"p must lie strictly in (0, 1), got {self.p!r}")
        if not (isinstance(self.s, Real) and self.s > 0 and math.isfinite(self.s)):
            raise ParameterError(f"s must be a positive real, got {self.s!r}")
        if not (isinstance(self.r, Real) and self.r > 0 and math.isfinite(self.r)):
            raise ParameterError(f"r must be a positive real, got {self.r!r}")


class RegimeKind(str, Enum):
    """Growth pattern of m relative to n."""

    HEAVY_DENOMINATOR = "case1"  # m/n -> infinity, remainder-friendly growth
    BALANCED = "case2"           # m/n -> alpha in (0, inf)
    LIGHT_DENOMINATOR = "case3"  # m/n -> 0
    COLLAPSE = "collapse"        # m/n -> infinity, too fast: statistic degenerates


@dataclass(frozen=True)
class Regime:
    """An asymptotic regime; BALANCED carries the ratio limit alpha = lim m/n.

    For BALANCED, ``alpha=None`` means "alpha is m/n of the concrete sizes",
    which ``limit_law`` takes from its params. Collapse is always an
    explicit user choice, never inferred from finite sizes.
    """

    kind: RegimeKind
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind is RegimeKind.BALANCED:
            if self.alpha is not None and not (
                isinstance(self.alpha, Real) and 0 < self.alpha < math.inf
            ):
                raise RegimeError(
                    f"balanced regime needs alpha > 0 and finite, got {self.alpha!r}"
                )
        elif self.alpha is not None:
            raise RegimeError(f"regime {self.kind.value} does not take alpha")

    @classmethod
    def case_i(cls) -> "Regime":
        return cls(RegimeKind.HEAVY_DENOMINATOR)

    @classmethod
    def case_ii(cls, alpha: float | None) -> "Regime":
        return cls(RegimeKind.BALANCED, alpha)

    @classmethod
    def case_iii(cls) -> "Regime":
        return cls(RegimeKind.LIGHT_DENOMINATOR)

    @classmethod
    def collapse(cls) -> "Regime":
        return cls(RegimeKind.COLLAPSE)


@dataclass(frozen=True)
class LimitLaw:
    """Centering constant, scaling factor, and limiting variance.

    ``center`` is n^s/(n+m)^r * p^(s-r); ``log_center`` and ``log_scale`` are
    natural logs kept for overflow-safe arithmetic. ``variance`` is the
    sigma^2 of the limiting Normal of scale * (R - center). The exponents
    ride along so the statistic can be standardized from the law alone.
    """

    center: float
    log_center: float
    log_scale: float
    variance: float
    s: float
    r: float

    @property
    def scale(self) -> float:
        return math.exp(self.log_scale)


def _prefactor(p: float, s: float, r: float) -> float:
    """p^(2(s-r)-1) * (1-p), the factor every regime's variance shares."""
    try:
        return p ** (2 * (s - r) - 1) * (1 - p)
    except OverflowError:
        raise ParameterError(
            f"variance prefactor p^(2(s-r)-1) overflows at p={p!r}, s={s!r}, r={r!r}"
        ) from None


def heavy_denominator_variance(p: float, s: float, r: float) -> float:
    """Limiting variance when the denominator trial count dominates."""
    return _prefactor(p, s, r) * s * s


def balanced_variance(p: float, s: float, r: float, alpha: float) -> float:
    """Limiting variance when m/n -> alpha in (0, inf)."""
    try:
        num = (s * (1 + alpha) - r) ** 2 + alpha * r * r
    except OverflowError:
        raise ParameterError(
            f"balanced variance overflows at s={s!r}, r={r!r}, alpha={alpha!r}"
        ) from None
    # (1 + alpha)^(2(r+1)) can overflow on its own at large alpha even though
    # the ratio is tame, so keep the alpha-dependent factor in log space
    log_ratio = math.log(num) - 2 * (r + 1) * math.log1p(alpha)
    return _prefactor(p, s, r) * math.exp(log_ratio)


def light_denominator_variance(p: float, s: float, r: float) -> float:
    """Limiting variance when m/n -> 0; degenerates to 0 at r = s."""
    return _prefactor(p, s, r) * (s - r) ** 2


def limit_law(params: ModelParams, regime: Regime) -> LimitLaw:
    """Closed-form limit law for the standardized ratio statistic.

    The scaling factor is m^r / n^(s-1/2) in the heavy-denominator regime and
    n^(r-s+1/2) otherwise. The collapse regime has no Normal limit of its
    own: it keeps the n^(r-s+1/2) scaling (under which the statistic
    degenerates to a point mass at these growth rates) and borrows the
    heavy-denominator variance formula as the comparison Normal. A BALANCED
    regime without alpha takes alpha = m/n, which must then be a positive
    finite float.
    """
    n, m, p, s, r = params.n, params.m, params.p, params.s, params.r
    log_center = s * math.log(n) - r * math.log(n + m) + (s - r) * math.log(p)

    kind = regime.kind
    if kind is RegimeKind.HEAVY_DENOMINATOR:
        log_scale = r * math.log(m) - (s - 0.5) * math.log(n)
        variance = heavy_denominator_variance(p, s, r)
    elif kind is RegimeKind.BALANCED:
        alpha = regime.alpha
        if alpha is None:
            try:
                alpha = m / n
            except OverflowError:
                alpha = math.inf
            if not 0 < alpha < math.inf:
                raise ParameterError(
                    f"balanced regime needs m/n positive and finite as a "
                    f"float, got m/n = {alpha!r}"
                )
        log_scale = (r - s + 0.5) * math.log(n)
        variance = balanced_variance(p, s, r, alpha)
    elif kind is RegimeKind.LIGHT_DENOMINATOR:
        log_scale = (r - s + 0.5) * math.log(n)
        variance = light_denominator_variance(p, s, r)
    elif kind is RegimeKind.COLLAPSE:
        log_scale = (r - s + 0.5) * math.log(n)
        variance = heavy_denominator_variance(p, s, r)
    else:  # pragma: no cover
        raise RegimeError(f"unknown regime kind {kind!r}")
    if not math.isfinite(variance):
        raise ParameterError(
            f"limiting variance overflows at p={p!r}, s={s!r}, r={r!r}"
        )

    try:
        center = math.exp(log_center)
    except OverflowError:
        center = math.inf
    return LimitLaw(
        center=center,
        log_center=log_center,
        log_scale=log_scale,
        variance=variance,
        s=s,
        r=r,
    )


def variance_limit_consistency(
    params: ModelParams, alpha: float
) -> tuple[float, float]:
    """(balanced variance at the given alpha, light-denominator variance).

    Cross-case probe: as alpha -> 0 the first component must approach the
    second, since the balanced formula is continuous at alpha = 0.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise RegimeError(f"alpha must be positive and finite, got {alpha!r}")
    p, s, r = params.p, params.s, params.r
    return balanced_variance(p, s, r, alpha), light_denominator_variance(p, s, r)
