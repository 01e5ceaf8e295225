"""First- and second-order structure of f(x, y) = x^s / (x+y)^r.

Provides the gradient and Hessian in closed form, a Gerschgorin-style bound
on the Hessian spectral norm, the exact quadratic Taylor remainder of f at
the mean point (np, mp), and the analytic bound on that remainder after the
regime-appropriate rescaling.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .model import LimitLaw, ModelParams, Regime, RegimeKind, limit_law

__all__ = [
    "Point2",
    "Hessian2",
    "eval_log_f",
    "eval_f",
    "gradient",
    "hessian",
    "gerschgorin_norm_bound",
    "spectral_norm_2x2",
    "remainder",
    "scaled_remainder_samples",
    "scaled_remainder_bound",
]


class Point2(NamedTuple):
    """Evaluation point; typically (np, mp) or an observed (x, y)."""

    x: float
    y: float


class Hessian2(NamedTuple):
    """Symmetric 2x2 Hessian of f, stored by its three distinct entries."""

    fxx: float
    fxy: float
    fyy: float


def _check_point(pt: Point2) -> None:
    if not (pt.x > 0):
        raise ParameterError(f"point needs x > 0, got x={pt.x!r}")
    if not (pt.x + pt.y > 0):
        raise ParameterError(f"point needs x + y > 0, got {pt!r}")


def eval_log_f(pt: Point2, r: float, s: float) -> float:
    """log f = s*log(x) - r*log(x+y)."""
    _check_point(pt)
    return s * math.log(pt.x) - r * math.log(pt.x + pt.y)


def eval_f(pt: Point2, r: float, s: float) -> float:
    """f(x, y) = x^s / (x+y)^r; raises OverflowError when not representable."""
    return math.exp(eval_log_f(pt, r, s))


def _scaled_gradient(f: float, x: float, y: float, r: float, s: float):
    """Gradient of x^s/(x+y)^r at (x, y), rescaled so the value there reads ``f``.

    ``f`` = f(x, y) gives the gradient itself, scale * f(x, y) the scaled one.
    """
    t = x + y
    return f * (s * t - r * x) / (x * t), -f * r / t


def gradient(pt: Point2, r: float, s: float) -> tuple[float, float]:
    """(df/dx, df/dy) = f * ((s(x+y) - r x) / (x(x+y)), -r / (x+y))."""
    _check_point(pt)
    return _scaled_gradient(eval_f(pt, r, s), pt.x, pt.y, r, s)


def hessian(pt: Point2, r: float, s: float) -> Hessian2:
    """Second derivatives of f, sharing the prefactor x^(s-2)/(x+y)^(r+2)."""
    _check_point(pt)
    x, y = pt
    t = x + y
    pre = math.exp((s - 2) * math.log(x) - (r + 2) * math.log(t))
    return Hessian2(
        fxx=pre * (s * (s - 1) * t * t - 2 * r * s * x * t + r * (r + 1) * x * x),
        fxy=pre * (r * (r + 1) * x * x - r * s * x * t),
        fyy=pre * r * (r + 1) * x * x,
    )


def gerschgorin_norm_bound(h: Hessian2) -> float:
    """Total absolute-entry sum |fxx| + 2|fxy| + |fyy|.

    Dominates the max-row Gerschgorin radius, hence the spectral norm of the
    symmetric matrix.
    """
    return abs(h.fxx) + 2 * abs(h.fxy) + abs(h.fyy)


def spectral_norm_2x2(h: Hessian2) -> float:
    """Exact spectral norm from the closed-form 2x2 eigenvalues."""
    half_trace = 0.5 * (h.fxx + h.fyy)
    disc = math.hypot(0.5 * (h.fxx - h.fyy), h.fxy)
    return max(abs(half_trace + disc), abs(half_trace - disc))


def _remainder_raw(
    n: float, m: float, p: float, r: float, s: float, x_obs: float, y_obs: float
) -> float:
    """Exact Taylor residual Q without parameter-domain validation.

    Separated out so diagnostic paths (e.g. r = 0, where f is a pure power of
    x) can bypass the r, s > 0 contract of ModelParams.
    """
    x0, y0 = n * p, m * p
    log_f0 = s * math.log(x0) - r * math.log(x0 + y0)
    f0 = math.exp(log_f0)
    gx, gy = _scaled_gradient(f0, x0, y0, r, s)
    dx, dy = x_obs - x0, y_obs - y0
    if x_obs > 0 and x_obs + y_obs > 0:
        # f(x, y) - f(x0, y0) via expm1 so nearby points do not cancel in f.
        delta = s * math.log(x_obs) - r * math.log(x_obs + y_obs) - log_f0
        df = f0 * math.expm1(delta)
    else:
        # x = 0 (or a fully degenerate draw): f is taken as 0, its minimum.
        df = -f0
    return df - (gx * dx + gy * dy)


def remainder(params: ModelParams, x_obs: float, y_obs: float) -> float:
    """Q(x, y) = f(x, y) - f(np, mp) - grad f(np, mp) . (x - np, y - mp)."""
    if x_obs < 0 or y_obs < 0:
        raise ParameterError("observations must be nonnegative")
    return _remainder_raw(
        params.n, params.m, params.p, params.r, params.s, x_obs, y_obs
    )


def scaled_remainder_samples(
    params: ModelParams, law: LimitLaw, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """scale * Q(x_i, y_i) for arrays of observed counts, in log-safe form.

    Computed as T_i minus the rescaled linear term, where T_i is the
    standardized statistic; both pieces are O(1) under the law's scaling even
    when f itself would overflow or underflow.
    """
    from .sampling import standardized_statistic

    x, y = np.asarray(x), np.asarray(y)
    x0, y0 = params.n * params.p, params.m * params.p
    amp = math.exp(law.log_scale + law.log_center)  # scale * f(np, mp)
    sgx, sgy = _scaled_gradient(amp, x0, y0, params.r, params.s)
    t_vals = standardized_statistic(x, y, law)
    return t_vals - (sgx * (x - x0) + sgy * (y - y0))


def scaled_remainder_bound(params: ModelParams, regime: Regime, law: LimitLaw) -> float:
    """Analytic remainder bound n^(s-2) log(n+m) / (n+m)^(r-1), rescaled.

    ``law`` is ``limit_law(params, regime)`` and supplies the scale. The
    collapse diagnostic asks whether the heavy-denominator proof scaling
    would kill the bound, so under collapse the scale is that regime's.
    The unknown concentration constant is fixed at 1, so only trends across
    sizes are meaningful, not absolute domination of the empirical remainder.
    """
    if regime.kind is RegimeKind.COLLAPSE:
        law = limit_law(params, Regime.case_i())
    n, m, r, s = params.n, params.m, params.r, params.s
    log_bound = (
        (s - 2) * math.log(n)
        - (r - 1) * math.log(n + m)
        + math.log(math.log(n + m))
        + law.log_scale
    )
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf
