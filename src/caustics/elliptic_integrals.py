"""Complete elliptic integrals K and Pi in the parameter convention.

    complete_k(m)    = integral_0^{pi/2} d alpha / sqrt(1 - m sin^2 alpha)
    complete_pi(n,m) = integral_0^{pi/2} d alpha / ((1 - n sin^2 alpha) sqrt(1 - m sin^2 alpha))

Every caller passes the parameter m (not the modulus k = sqrt(m)); keeping a
single convention at the API boundary prevents silent square/square-root
mix-ups when transcribing closed-form averages.  The two functions whose
names end in _m1 take the complements instead, m1 = 1 - m and n1 = 1 - n,
which are what Carlson's forms read: a caller that has them in factored form
(the closed forms near the degenerate caustic, where m -> 1) passes them
without the cancellation of forming 1 - m from m.

Both are evaluated through Carlson's symmetric integrals R_F and R_J, by
duplication (Carlson, Numer. Algorithms 10 (1995) 13; DLMF 19.36(i)):
_rf and _rj, in plain Python floats.
"""
from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["complete_k", "complete_pi", "complete_k_m1", "complete_pi_minus_k_m1"]

# Duplication stops once every variable lies within A_m / _SPREAD of their
# mean A_m.  The series of DLMF 19.36.1-2, kept to seventh order, then leaves
# an eighth-order remainder below 2^-53 (measured: at half this spread both
# kernels stay within 3.8e-16 and 5.6e-16 of 40-digit values; at a quarter,
# 3.8e-14 and 1.5e-14).
_SPREAD = 2.0 ** (53.0 / 8.0)


def _rf(x, y, z):
    """Carlson's R_F(x, y, z) for x, y, z >= 0, at most one of them 0."""
    sqrt = math.sqrt
    a0 = (x + y + z) / 3.0
    reach = _SPREAD * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    x0, y0 = x, y
    a, scale = a0, 1.0  # scale = 4^m: the spread shrinks fourfold per step
    while scale * a <= reach:
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        a, x, y, z = 0.25 * (a + lam), 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        scale *= 4.0
    f = 1.0 / (scale * a)
    dx, dy = (a0 - x0) * f, (a0 - y0) * f
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    series = (1.0 + e2 * (-1.0 / 10.0 + e2 * (1.0 / 24.0 - 5.0 / 208.0 * e2) + e3 * (-3.0 / 44.0 + e2 / 16.0))
              + e3 * (1.0 / 14.0 + 3.0 / 104.0 * e3))
    return series / sqrt(a)


def _rj(x, y, z, p):
    """Carlson's R_J(x, y, z, p) for x, y, z >= 0, at most one of them 0, and p > 0.

    Each duplication step adds 4^-m R_C(1, 1 + e_m) / d_m to the sum, with
    e_m = 4^-3m delta / d_m^2 > -1.  R_C is atan(t)/t or atanh(t)/t,
    t = sqrt(|e_m|), which keep their relative accuracy as e_m -> 0; atanh is
    taken through log1p with 1 + e_m = 2 sqrt(p_m) (p_m + lam_m) / d_m, which
    does not cancel as e_m -> -1 (at 1 - n = 1.6e-5, 1 - m = 2.5e-11 the
    difference 1 + e_0 lost 9.5e-15).
    """
    sqrt, atan, log1p = math.sqrt, math.atan, math.log1p
    a0 = (x + y + z + p + p) / 5.0
    delta = (p - x) * (p - y) * (p - z)
    reach = _SPREAD * max(abs(a0 - x), abs(a0 - y), abs(a0 - z), abs(a0 - p))
    x0, y0, z0 = x, y, z
    a, scale, total = a0, 1.0, 0.0
    while scale * a <= reach:
        sx, sy, sz, sp = sqrt(x), sqrt(y), sqrt(z), sqrt(p)
        lam = sx * (sy + sz) + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        e = delta / (d * d)
        if e > 0.0:
            t = sqrt(e)
            total += atan(t) / (t * d * scale)
        elif e < 0.0:
            t = sqrt(-e)
            total += log1p(t * (1.0 + t) * d / (sp * (p + lam))) / (2.0 * t * d * scale)
        else:
            total += 1.0 / (d * scale)
        delta *= 1.0 / 64.0
        a, x, y, z, p = (0.25 * (a + lam), 0.25 * (x + lam), 0.25 * (y + lam),
                         0.25 * (z + lam), 0.25 * (p + lam))
        scale *= 4.0
    f = 1.0 / (scale * a)
    dx, dy, dz = (a0 - x0) * f, (a0 - y0) * f, (a0 - z0) * f
    dp = -0.5 * (dx + dy + dz)
    xyz, pp = dx * dy * dz, dp * dp
    e2 = dx * dy + dx * dz + dy * dz - 3.0 * pp
    e3 = xyz + 2.0 * e2 * dp + 4.0 * pp * dp
    e4 = (2.0 * xyz + e2 * dp + 3.0 * pp * dp) * dp
    e5 = xyz * pp
    series = (1.0 - 3.0 / 14.0 * e2 + e3 / 6.0 + 9.0 / 88.0 * e2 * e2 - 3.0 / 22.0 * e4
              - 9.0 / 52.0 * e2 * e3 + 3.0 / 26.0 * e5 - e2 * e2 * e2 / 16.0 + 3.0 / 40.0 * e3 * e3
              + 3.0 / 20.0 * e2 * e4 + 45.0 / 272.0 * e2 * e2 * e3 - 9.0 / 68.0 * (e3 * e4 + e2 * e5))
    return series / (scale * a * sqrt(a)) + 6.0 * total


def complete_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention."""
    if not (0.0 <= m < 1.0):
        raise DomainError(f"complete_k requires 0 <= m < 1; got m={m}")
    return complete_k_m1(1.0 - m)


def complete_pi(n: float, m: float) -> float:
    """Complete elliptic integral of the third kind, parameter convention.

    Evaluated as Pi(n, m) = K(m) + n H(n, m), with H = (Pi - K)/n from
    complete_pi_minus_k_m1, which rejects n >= 1 as 1 - n <= 0.  n may be
    negative (n < 1); Pi(0, m) = K(m) exactly.
    """
    return complete_k(m) + n * complete_pi_minus_k_m1(1.0 - n, 1.0 - m)


def complete_k_m1(m1: float) -> float:
    """K(m) from the complementary parameter m1 = 1 - m: R_F(0, m1, 1)."""
    if not (0.0 < m1 <= 1.0):
        raise DomainError(f"complete_k_m1 requires 0 < m1 <= 1; got m1={m1}")
    return _rf(0.0, m1, 1.0)


def complete_pi_minus_k_m1(n1: float, m1: float) -> float:
    """(Pi(n, m) - K(m)) / n, continued to its finite limit at n = 0, from the
    complements n1 = 1 - n and m1 = 1 - m.

    Equals R_J(0, m1, 1, n1)/3 identically, which stays well conditioned as
    n -> 0 where the difference quotient would lose all significant digits.
    """
    if not (0.0 < m1 <= 1.0):
        raise DomainError(f"complete_pi_minus_k_m1 requires 0 < m1 <= 1; got m1={m1}")
    if not n1 > 0.0:
        raise DomainError(f"complete_pi_minus_k_m1 requires n1 > 0; got n1={n1}")
    return _rj(0.0, m1, 1.0, n1) / 3.0
