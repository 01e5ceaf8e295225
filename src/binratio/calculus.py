"""The quadratic Taylor remainder of f(x, y) = x^s / (x+y)^r and its bound.

``scaled_remainder_samples`` gives the remainder Q of f at the mean point
(np, mp) after the regime's rescaling, in the float64 counts' own buffers;
it is the one implementation of Q: Q itself is
``scaled_remainder_samples(params, law, x, y)`` divided by
``math.exp(law.log_scale)``. ``scaled_remainder_bound`` is the analytic
bound on it. No command needs the gradient, Hessian or Hessian norm bound
of f that the proof uses; their closed forms are in tests/delta_method.py.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .model import LimitLaw, ModelParams, Regime, RegimeKind, limit_law
from .sampling import standardized_statistic

__all__ = ["scaled_remainder_samples", "scaled_remainder_bound"]


def scaled_remainder_samples(
    params: ModelParams, law: LimitLaw, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """scale * Q(x_i, y_i) for float64 arrays of observed counts, in log-safe form.

    Q(x, y) = f(x, y) - f(np, mp) - grad f(np, mp) . (x - np, y - mp), with
    f taken as 0 where x = 0. Computed as T_i minus the rescaled linear term,
    where T_i is the standardized statistic; both pieces are O(1) under the
    law's scaling even when f itself would overflow or underflow. The linear
    term is formed first; x and y are then given up to
    ``standardized_statistic`` as its working buffers, as its first contract
    asks, and the result is returned in y's buffer.
    """
    x0, y0 = params.n * params.p, params.m * params.p
    t0 = x0 + y0
    amp = math.exp(law.log_scale + law.log_center)  # scale * f(np, mp)
    # scale * grad f(np, mp); grad f = f * ((s t - r x) / (x t), -r / t)
    try:
        sgx = amp * (params.s * t0 - params.r * x0) / (x0 * t0)
    except ZeroDivisionError:
        raise ParameterError(
            f"gradient at ({x0!r}, {y0!r}) divides by x*(x+y), which underflows to 0"
        ) from None
    sgy = -amp * params.r / t0
    linear = sgx * (x - x0) + sgy * (y - y0)
    t_vals = standardized_statistic(x, y, law)
    t_vals -= linear
    return t_vals


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
