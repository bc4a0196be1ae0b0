"""segnet._special: ``expit`` bit for bit against scipy.special; ``stdtr``
and the Wald tail ``dyadic._wald_p_values`` (``math.erfc``) against a
40-digit mpmath reference, and ``stdtr`` against scipy."""

import math
import sys

import numpy as np
import pytest
from scipy import special

from segnet import _special
from segnet.dyadic import _wald_p_values


def _neighbours(x, steps=3):
    """``x`` and the ``steps`` doubles on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def _edge_values():
    # exp overflows past log(DBL_MAX) ~ 709.78 and underflows to 0 near -745;
    # erfc(|x| / sqrt 2) is checked around arguments 1 and 8 (|x| = sqrt 2
    # and 8 sqrt 2), where cephes' erfc switches polynomials, and the
    # two-sided normal tail reaches the subnormals between |x| = 37.5 and 38.5.
    points = [math.log(sys.float_info.max), 709.78, 745.0, 745.2, 1.0, 8.0,
              math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 38.5, 1e308]
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
    for p in points:
        for v in _neighbours(p):
            values += [v, -v]
    return np.array(values)


def _random_values():
    rng = np.random.default_rng(20261018)
    return np.concatenate(
        [
            rng.normal(0.0, 1.0, 20_000),
            rng.uniform(-12.0, 12.0, 20_000),
            rng.uniform(-40.0, 40.0, 20_000),
            rng.uniform(-800.0, 800.0, 10_000),
        ]
    )


def _assert_same_bits(ours, theirs):
    assert ours.dtype == theirs.dtype == np.float64 and ours.shape == theirs.shape
    np.testing.assert_array_equal(ours.view(np.uint64), theirs.view(np.uint64))


@pytest.mark.parametrize("values", [_edge_values(), _random_values()], ids=["edges", "random"])
@pytest.mark.parametrize("name", ["expit"])
def test_equals_scipy_special_bit_for_bit(name, values):
    _assert_same_bits(getattr(_special, name)(values), getattr(special, name)(values))


def _ulp_bound(mpmath, ref):
    """``(64 + 2 |ln p|)`` ulp of ``ref``, the bound of the Wald tail and ``stdtr``.

    ``exp(E)`` with ``|E|`` up to ~700 carries an absolute error of about
    ``|E|`` ulp, so the relative error grows with ``|log p|``.
    """
    return (64 + 2 * abs(float(mpmath.log(ref)))) * sys.float_info.epsilon * ref


# Every 10th random draw: 40-digit mpmath takes ~0.1 ms per value.
@pytest.mark.parametrize(
    "values", [_edge_values(), _random_values()[::10]], ids=["edges", "random"]
)
def test_wald_tail_against_mpmath(values):
    mpmath = pytest.importorskip("mpmath")
    for z, ours in zip(values.tolist(), _wald_p_values(values).tolist()):
        if math.isnan(z):
            assert math.isnan(ours)
            continue
        if abs(z) > 40.0:
            # the tail is below 1e-340; mpmath's erfc overflows near 1e308
            assert 0.0 <= ours <= 1e-300, z
            continue
        with mpmath.workdps(40):
            ref = mpmath.erfc(abs(mpmath.mpf(z)) / mpmath.sqrt(2))
            if ref < 1e-290:
                assert abs(ours - float(ref)) <= 1e-300, z
                continue
            # On the edges and all 70k random draws the largest error was
            # 0.71 of the bound (at z = 23.0, p ~ 1e-116).
            assert abs(ours - ref) <= _ulp_bound(mpmath, ref), (z, ours, float(ref))


def _stdtr_reference(mpmath, df, t):
    """Student t CDF at 40 digits from the exact binary values of ``df`` and ``t``."""
    with mpmath.workdps(40):
        df, t = mpmath.mpf(df), mpmath.mpf(t)
        x = df / (df + t * t)
        tail = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
        return tail if t <= 0 else 1 - tail


def _stdtr_cases():
    rng = np.random.default_rng(411)
    df = np.exp(rng.uniform(0.0, math.log(1e4), 300))
    t = rng.uniform(-40.0, 40.0, 300)
    cases = list(zip(df.tolist(), t.tolist()))
    for d in (1.0, 1.5, 2.0, 10.0, 62.0, 1e3, 1e4):
        a = d / 2
        ts = [0.0, 1e-8, 0.5, 2.0, 10.0, 40.0]
        # stdtr switches fractions at t^2 = 2a / (a + 1); near 3a / (a + 1)
        # the complement fraction's first denominator nearly cancels
        for t2 in (2 * a / (a + 1), 3 * a / (a + 1)):
            ts += [math.sqrt(t2) * f for f in (0.999, 1.0, 1.001)]
        cases += [(d, s * t) for t in ts for s in (1.0, -1.0)]
    return cases


def test_stdtr_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for df, t in _stdtr_cases():
        ours = _special.stdtr(df, t)
        ref = _stdtr_reference(mpmath, df, t)
        if ref < 1e-290:
            # the prefactor's products leave the normal range before the result
            assert abs(ours - float(ref)) <= 1e-300, (df, t)
            continue
        # x^(df/2) is such an exp(E).  On 12k draws of this domain, 2k of
        # them near the two t^2 above, the largest error was 0.65 of the
        # bound (45 ulp at df 2828, p = 0.073).
        assert abs(ours - ref) <= _ulp_bound(mpmath, ref), (df, t, ours, float(ref))


def test_stdtr_against_scipy_and_at_zero():
    for df, t in _stdtr_cases():
        ref = float(special.stdtr(df, t))
        # scipy's own error against mpmath reaches ~3e-13 on this domain, and
        # 3e-9 at df = 1, t = 1e-8 (where segnet's matches mpmath exactly).
        if ref >= 1e-290 and df != 1.0:
            assert _special.stdtr(df, t) == pytest.approx(ref, rel=1e-12, abs=0.0), (df, t)
    assert _special.stdtr(1.0, 0.0) == _special.stdtr(1e4, -0.0) == 0.5
