"""Parameter space, asymptotic regimes, and the closed-form limit law.

The object of study is the ratio statistic R = X^s / (X+Y)^r for independent
X ~ Binomial(n, p) and Y ~ Binomial(m, p). Depending on how m grows relative
to n, a centered and rescaled version of R converges to a Normal distribution
whose variance has a closed form; ``limit_law`` packages the centering
constant, the scaling factor, and that variance for a given regime. It is
the one place a variance becomes an error: one that overflows, or underflows
to 0, is a ParameterError that reads "limiting variance overflows at s=...,
r=..., p=... under case2 with alpha=...", with alpha under case 2 only.

All centers and scales are carried in natural-log form so that exponents up
to ~30 at trial counts up to ~2e9 stay representable.

Every number enters through ``_integer`` or ``_positive_real``: Python and numpy
integers and reals are stored as Python ints and floats; a bool, a non-integral
value where an integer is due, or a value out of range is a ParameterError.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from numbers import Rational, Real

from .errors import ParameterError, RegimeError

__all__ = [
    "ModelParams",
    "Regime",
    "RegimeKind",
    "LimitLaw",
    "limit_law",
]


def _integer(value, name: str, least: int, below: int | None = None) -> int:
    """``value`` as a Python int in [least, below), through ``operator.index``."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if number < least or (below is not None and number >= below):
        most = "" if below is None else f" and <= {below - 1}"
        raise ParameterError(f"{name} must be >= {least}{most}, got {value!r}")
    return number


def _positive_real(value, rule: str, error=ParameterError, below=math.inf) -> float:
    """``value`` as a float in (0, below), else ``error``("<rule>, got <value>")."""
    number = math.nan
    if isinstance(value, Real) and not isinstance(value, bool):
        exact = value if isinstance(value, Rational) else float(value)  # compared exactly
        number = float(value) if 0 < exact <= sys.float_info.max else math.nan
    if not 0 < number < below:  # 0.0 too: a positive rational can round to it
        raise error(f"{rule}, got {value!r}")
    return number


def _instance(value, kind: type, name: str, error=ParameterError):
    """``value`` if it is a ``kind``, else ``error``("<name> must be a <kind>, ...")."""
    if not isinstance(value, kind):
        raise error(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """The quintuple (n, m, p, s, r) defining the two Binomials and exponents.

    n, m are the trial counts of X and Y; p is the shared success probability
    (strictly interior); s and r are the positive numerator and denominator
    exponents of R = X^s / (X+Y)^r. n and m are stored as Python ints and p,
    s and r as Python floats, whatever integer or real type they are given as.
    """

    n: int
    m: int
    p: float
    s: float
    r: float

    def __post_init__(self) -> None:
        checked = (_integer(self.n, "n", 1), _integer(self.m, "m", 1),
                   _positive_real(self.p, "p must lie strictly in (0, 1)", below=1.0),
                   _positive_real(self.s, "s must be a positive real"),
                   _positive_real(self.r, "r must be a positive real"))
        for name, value in zip("nmpsr", checked):
            object.__setattr__(self, name, value)


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
        _instance(self.kind, RegimeKind, "regime kind", RegimeError)
        if self.alpha is not None and self.kind is not RegimeKind.BALANCED:
            raise RegimeError(f"regime {self.kind.value} does not take alpha")
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _positive_real(
                self.alpha, "balanced regime needs alpha > 0 and finite", RegimeError))


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


def _prefactor(p: float, s: float, r: float) -> float:
    """p^(2(s-r)-1) * (1-p), the factor every regime's variance shares."""
    return p ** (2 * (s - r) - 1) * (1 - p)


def _heavy_denominator_variance(p: float, s: float, r: float) -> float:
    """Limiting variance when the denominator trial count dominates."""
    return _prefactor(p, s, r) * s * s


def _balanced_variance(p: float, s: float, r: float, alpha: float) -> float:
    """Limiting variance when m/n -> alpha; 0.0 if its numerator underflows."""
    num = (s * (1 + alpha) - r) ** 2 + alpha * r * r
    if num == 0:
        return 0.0
    # (1 + alpha)^(2(r+1)) can overflow on its own at large alpha even though
    # the ratio is tame, so keep the alpha-dependent factor in log space
    log_ratio = math.log(num) - 2 * (r + 1) * math.log1p(alpha)
    return _prefactor(p, s, r) * math.exp(log_ratio)


def _light_denominator_variance(p: float, s: float, r: float) -> float:
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
    finite float. A variance that overflows (or is NaN), or underflows to 0,
    is a ParameterError naming s, r, p, the regime and, under case 2, the
    alpha used; case 3 at r = s is the one exact 0. ``params`` that is not a
    ModelParams is a ParameterError, ``regime`` that is not a Regime a RegimeError.
    """
    _instance(params, ModelParams, "params")
    _instance(regime, Regime, "regime", RegimeError)
    n, m, p, s, r = params.n, params.m, params.p, params.s, params.r
    log_center = s * math.log(n) - r * math.log(n + m) + (s - r) * math.log(p)

    kind, alpha = regime.kind, regime.alpha
    if kind is RegimeKind.BALANCED and alpha is None:
        try:
            alpha = m / n
        except OverflowError:
            alpha = math.inf
        if not 0 < alpha < math.inf:
            raise ParameterError(
                f"balanced regime needs m/n positive and finite as a "
                f"float, got m/n = {alpha!r}"
            )
    if kind is RegimeKind.HEAVY_DENOMINATOR:
        log_scale = r * math.log(m) - (s - 0.5) * math.log(n)
    else:
        log_scale = (r - s + 0.5) * math.log(n)
    try:
        if kind is RegimeKind.BALANCED:
            variance = _balanced_variance(p, s, r, alpha)
        elif kind is RegimeKind.LIGHT_DENOMINATOR:
            variance = _light_denominator_variance(p, s, r)
        else:  # heavy denominator; collapse borrows its variance
            variance = _heavy_denominator_variance(p, s, r)
    except OverflowError:
        variance = math.inf
    # only the (s - r)^2 factor of case 3 makes the variance exactly 0
    if not math.isfinite(variance) or (
        variance == 0 and not (kind is RegimeKind.LIGHT_DENOMINATOR and s == r)
    ):
        fault = "underflows to 0" if variance == 0 else "overflows"
        with_alpha = f" with alpha={alpha!r}" if kind is RegimeKind.BALANCED else ""
        raise ParameterError(f"limiting variance {fault} at s={s!r}, r={r!r}, "
                             f"p={p!r} under {kind.value}{with_alpha}")

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
