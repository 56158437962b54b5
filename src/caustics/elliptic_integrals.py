"""Complete elliptic integrals K and Pi in the parameter convention.

    complete_k(m)    = integral_0^{pi/2} d alpha / sqrt(1 - m sin^2 alpha)
    complete_pi(n,m) = integral_0^{pi/2} d alpha / ((1 - n sin^2 alpha) sqrt(1 - m sin^2 alpha))

Every caller passes the parameter m (not the modulus k = sqrt(m)); keeping a
single convention at the API boundary prevents silent square/square-root
mix-ups when transcribing closed-form averages.
"""
from __future__ import annotations

from scipy.special import elliprf, elliprj

from .errors import DomainError

__all__ = ["complete_k", "complete_pi", "complete_pi_minus_k"]


def complete_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention.

    Evaluated through the Carlson symmetric form K(m) = R_F(0, 1-m, 1).
    """
    if not (0.0 <= m < 1.0):
        raise DomainError(f"complete_k requires 0 <= m < 1; got m={m}")
    return float(elliprf(0.0, 1.0 - m, 1.0))


def complete_pi(n: float, m: float) -> float:
    """Complete elliptic integral of the third kind, parameter convention.

    Evaluated through Carlson symmetric forms:
    Pi(n, m) = K(m) + (n/3) R_J(0, 1-m, 1, 1-n).
    n may be negative; Pi(0, m) = K(m) exactly.
    """
    if not n < 1.0:
        raise DomainError(f"complete_pi requires characteristic n < 1; got n={n}")
    value = complete_k(m)
    if n != 0.0:
        value += (n / 3.0) * float(elliprj(0.0, 1.0 - m, 1.0, 1.0 - n))
    return value


def complete_pi_minus_k(n: float, m: float) -> float:
    """(Pi(n, m) - K(m)) / n, continued to its finite limit at n = 0.

    Equals R_J(0, 1-m, 1, 1-n)/3 identically, which stays well conditioned as
    n -> 0 where the difference quotient would lose all significant digits.
    """
    if not (0.0 <= m < 1.0):
        raise DomainError(f"complete_pi_minus_k requires 0 <= m < 1; got m={m}")
    if not n < 1.0:
        raise DomainError(f"complete_pi_minus_k requires n < 1; got n={n}")
    return float(elliprj(0.0, 1.0 - m, 1.0, 1.0 - n)) / 3.0
