"""Closed forms of f(x, y) = x^s / (x+y)^r that the delta-method proof uses.

The gradient, the Hessian and the Gerschgorin-style bound on the Hessian's
spectral norm are proof tools: no command computes them, so they live here,
next to the tests (acceptance criterion 5 and test_calculus.py) that check
them against central finite differences. A point is a pair (x, y) with
x > 0; a Hessian is its three distinct entries (fxx, fxy, fyy).
"""

import math


def eval_f(pt, r, s):
    """x^s / (x+y)^r, through its logarithm; OverflowError when not a float."""
    x, y = pt
    return math.exp(s * math.log(x) - r * math.log(x + y))


def gradient(pt, r, s):
    """(df/dx, df/dy) = f * ((s(x+y) - r x) / (x(x+y)), -r / (x+y))."""
    x, y = pt
    t = x + y
    fv = eval_f(pt, r, s)
    return fv * (s * t - r * x) / (x * t), -fv * r / t


def hessian(pt, r, s):
    """(fxx, fxy, fyy), sharing the prefactor x^(s-2) / (x+y)^(r+2)."""
    x, y = pt
    t = x + y
    pre = math.exp((s - 2) * math.log(x) - (r + 2) * math.log(t))
    return (
        pre * (s * (s - 1) * t * t - 2 * r * s * x * t + r * (r + 1) * x * x),
        pre * (r * (r + 1) * x * x - r * s * x * t),
        pre * r * (r + 1) * x * x,
    )


def gerschgorin_norm_bound(h):
    """|fxx| + 2|fxy| + |fyy|: at least the largest Gerschgorin row sum, so at
    least the spectral norm of the symmetric matrix."""
    fxx, fxy, fyy = h
    return abs(fxx) + 2 * abs(fxy) + abs(fyy)


def spectral_norm_2x2(h):
    """Exact spectral norm from the closed-form 2x2 eigenvalues."""
    fxx, fxy, fyy = h
    half_trace = 0.5 * (fxx + fyy)
    disc = math.hypot(0.5 * (fxx - fyy), fxy)
    return max(abs(half_trace + disc), abs(half_trace - disc))


def _steps(pt, i):
    """pt moved by -h and by +h along coordinate i, and h = 1e-6 * pt[i]."""
    h = 1e-6 * pt[i]
    lo, hi = list(pt), list(pt)
    lo[i] -= h
    hi[i] += h
    return lo, hi, h


def fd_gradient(pt, r, s):
    """The gradient of f by central differences."""
    out = []
    for i in range(2):
        lo, hi, h = _steps(pt, i)
        out.append((eval_f(hi, r, s) - eval_f(lo, r, s)) / (2 * h))
    return out


def fd_hessian(pt, r, s):
    """The Hessian of f by central differences of ``gradient``, symmetrized."""
    cols = []
    for i in range(2):
        lo, hi, h = _steps(pt, i)
        ghi, glo = gradient(hi, r, s), gradient(lo, r, s)
        cols.append([(a - b) / (2 * h) for a, b in zip(ghi, glo)])
    (fxx, fyx), (fxy, fyy) = cols
    return fxx, 0.5 * (fyx + fxy), fyy
