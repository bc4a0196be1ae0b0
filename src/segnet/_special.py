"""The logistic and Student t distribution functions segnet needs.

``expit`` evaluates ``scipy.special``'s formula one element at a time with
``math.exp``, the C library's ``exp`` that scipy calls too, so on the same
C library it equals scipy's result bit for bit.  numpy's vectorised
``np.exp`` is a different implementation and differs in the last bit on a
few percent of inputs.  ``stdtr`` is the Student t CDF through a continued
fraction for the regularized incomplete beta function; it is within
``(64 + 2 |ln p|)`` ulp of a 40-digit reference where the result ``p`` is
at least 1e-290 (``tests/test_special.py``): ~1e-14 relative for ordinary
p-values, not bit for bit with scipy.  The normal tail of the Wald
p-values is the C library's ``erfc`` (``dyadic._wald_p_values``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expit", "stdtr"]


def _expit(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        # exp(-v) is past the largest double: 1 / (1 + inf) is 0.
        return 0.0


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-x))`` of each element of a 1-D array."""
    return np.array([_expit(v) for v in x.tolist()], dtype=float)


# Terms c_k / a^k of log(Gamma(a + 1/2) / Gamma(a + 1)) + log(a) / 2 for
# large a: c_k = (2^-k - 2) B_{k+1} / (k (k + 1)) with Bernoulli numbers
# B_{k+1}, odd k only.  At a >= _ASYMPTOTIC_A the first omitted term,
# 691 / (180224 a^11), is below 2e-17.
_GAMMA_HALF_RATIO_TERMS = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432)
_ASYMPTOTIC_A = 20.0
_SQRT_PI = math.sqrt(math.pi)
# Lentz: a zero denominator is replaced by _CF_TINY; the fraction has
# converged when a step changes it by at most one ulp of 1.  For df up to
# 1e6 it needs at most ~100 terms, so the cap only stops a runaway loop.
_CF_TINY = 1e-300
_CF_EPS = 2.0**-52
_CF_MAX_TERMS = 10_000


def _gamma_half_ratio(a: float) -> float:
    """``Gamma(a + 1/2) / Gamma(a + 1)`` for ``a > 0``, within ~2 ulp.

    Below ``_ASYMPTOTIC_A`` the recurrence ``G(a) = G(a + 1) (a + 1) / (a + 1/2)``
    carries ``a`` up to the asymptotic series; the logs of the factors and
    of the series are summed exactly rounded, which ``math.gamma`` (tens of
    ulp) does not reach.
    """
    n = max(0, math.ceil(_ASYMPTOTIC_A - a))
    big = a + n
    inv = 1.0 / big
    inv2 = inv * inv
    series = 0.0
    for c in reversed(_GAMMA_HALF_RATIO_TERMS):
        series = series * inv2 + c
    logs = [math.log1p(0.5 / (a + 0.5 + k)) for k in range(n)]
    logs.append(series * inv)
    return math.exp(math.fsum(logs)) / math.sqrt(big)


def _beta_continued_fraction(a: float, b: float, x: float, y: float) -> float:
    """``x^a y^b / (a B(a, b) I_x(a, b))`` for ``y = 1 - x``, by modified Lentz.

    This is the even contraction of the continued fraction DLMF 8.17.22,
    ``D_0 + N_1 / (D_1 + N_2 / (D_2 + ...))``.  Each ``D_k`` is summed in
    the form that has no cancellation: ``C_k + y Y_k`` (``C_k = 1 - Y_k``)
    when ``x`` is near 1, where both terms are positive for ``b = 1/2``,
    and ``1 - x Y_k`` otherwise.  Converges quickly for
    ``x < (a + 1) / (a + b + 2)`` and still in under ~100 terms for the
    ``x`` that ``stdtr`` passes.
    """
    near_one = x > 0.5
    if near_one:
        g = ((1.0 - b) + (a + b) * y) / (a + 1.0)
    else:
        g = 1.0 - (a + b) * x / (a + 1.0)
    c = g
    d = 0.0
    for k in range(1, _CF_MAX_TERMS + 1):
        odd = a + 2 * k - 1.0
        even = a + 2 * k
        scale = odd * (even + 1.0)
        numerator = (a + k - 1.0) * (a + b + k - 1.0) * k * (b - k) * x * x / (
            (even - 2.0) * odd * odd * even
        )
        y_k = (even * (a + b - 1.0) + 2 * k * (k + 1.0 - b) - b) / scale
        if near_one:
            c_k = ((2 * k + 1.0 - b) * a + 2 * k * k + b - 1.0) / scale
            denominator = c_k + y * y_k
        else:
            denominator = 1.0 - x * y_k
        d = denominator + numerator * d
        d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
        c = denominator + numerator / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        delta = c * d
        g *= delta
        if abs(delta - 1.0) <= _CF_EPS:
            return g
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def stdtr(df: float, t: float) -> float:
    """Student t CDF ``P(T <= t)`` with ``df > 0`` degrees of freedom, ``t`` finite.

    With ``a = df / 2``, ``x = df / (df + t^2)`` and ``y = 1 - x``, the tail
    ``P(T <= -|t|)`` is ``I_x(a, 1/2) / 2``.  It is evaluated as that
    continued fraction when ``t^2 >= 2a / (a + 1)`` and as
    ``(1 - I_y(1/2, a)) / 2`` below.  The usual switch at ``3a / (a + 1)``,
    where both fractions converge equally fast, leaves the second one a
    first denominator that nearly cancels at large ``df`` (errors of ~60
    ulp at ``df`` ~ 2000); this one keeps both under ~45 ulp.
    """
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    a = 0.5 * df
    # x^a (1 - x)^(1/2), and x^a by log1p for accuracy when t^2 << df
    power = math.exp(-a * math.log1p(t2 / df)) * math.sqrt(y)
    ratio = _gamma_half_ratio(a) / _SQRT_PI
    if t2 * (a + 1.0) >= 2.0 * a:
        tail = 0.5 * power * ratio / _beta_continued_fraction(a, 0.5, x, y)
    else:
        tail = 0.5 - power * a * ratio / _beta_continued_fraction(0.5, a, y, x)
    return tail if t <= 0 else 1.0 - tail
