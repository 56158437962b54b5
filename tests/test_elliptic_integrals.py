"""Complete elliptic integrals in the parameter convention.

Proves:
 Group 1 - Known values and domain validation
   - K(0) = pi/2, K(0.5) = 1.8540746773013719 (frozen quadrature value)
   - Pi(0, 0) = pi/2, Pi(0.3, 0) = pi/(2 sqrt(0.7)) closed forms
   - m outside [0, 1) and n >= 1 rejected, by Pi and by the (Pi - K)/n helper,
     and as their complements m1 outside (0, 1] and n1 <= 0 by the _m1 forms
 Group 2 - Cross-route oracles
   - K against scipy.special.ellipk and against adaptive quadrature of the
     defining integral (the implementation is Carlson's R_F, so both
     routes are independent)
   - Pi against adaptive quadrature, including negative characteristic
 Group 3 - Structure
   - Pi(0, m) = K(m) to 1e-14 (by construction: Pi adds its R_J term to K)
   - complete_k and complete_pi are the complement (_m1) forms at
     m1 = 1 - m, n1 = 1 - n, bit for bit
   - monotonicity of K in m and of Pi in n and m
   - (Pi - K)/n helper is the stable limit form, finite as n -> 0
 Group 4 - The Carlson kernels against 40-digit values
   - R_F(0, 1-m, 1) within 5e-16 relative for m from 0 to 1 - 1e-9 and at
     every complement m1 the closed forms pass on a grid out to the guard
     (measured: 3.7e-16)
   - R_J(0, 1-m, 1, 1-n) within 1e-15 relative at every complement pair
     (n1, m1) the closed forms pass on that grid, and for n from -1e3 to
     1 - 1e-9 with m out to
     1 - 1e-9 (measured: 5.3e-16; scipy's elliprj was 9.7e-15 off at
     n = 1 - 1.6e-5, m = 1 - 2.5e-11, where 1 + e_0 cancels)
   - R_F and R_J on general arguments within 1e-15 (measured: 4.8e-16)
"""
from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special

import caustics.conic_geometry as cg
import caustics.spatial_averages as sa
from caustics.elliptic_integrals import _rf, _rj, complete_k, complete_k_m1, complete_pi, complete_pi_minus_k_m1
from caustics.errors import DomainError

K_HALF = 1.8540746773013719  # adaptive quadrature of the defining integral


def quad_k(m):
    with warnings.catch_warnings():
        # roundoff notices at 1e-14 tolerances; values are still good
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(
            lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
            0.0,
            math.pi / 2.0,
            epsabs=1e-14,
            epsrel=1e-14,
        )
    return val


def quad_pi(n, m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(
            lambda t: 1.0 / ((1.0 - n * math.sin(t) ** 2) * math.sqrt(1.0 - m * math.sin(t) ** 2)),
            0.0,
            math.pi / 2.0,
            epsabs=1e-14,
            epsrel=1e-14,
        )
    return val


# ----------------------------------------------------------------- group 1


def test_k_known_values():
    assert complete_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert complete_k(0.5) == pytest.approx(K_HALF, abs=1e-13)


def test_pi_known_values():
    assert complete_pi(0.0, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert complete_pi(0.3, 0.0) == pytest.approx(math.pi / (2.0 * math.sqrt(0.7)), abs=1e-14)


@pytest.mark.parametrize("m", [-0.1, 1.0, 1.5])
def test_k_domain(m):
    with pytest.raises(DomainError):
        complete_k(m)


@pytest.mark.parametrize("n,m", [(1.0, 0.5), (1.2, 0.5), (0.5, 1.0), (0.5, -0.1), (math.nan, 0.5)])
def test_pi_domain(n, m):
    """Pi rejects n >= 1 and m outside [0, 1), and the complement forms the
    same points as n1 = 1 - n <= 0 and m1 = 1 - m outside (0, 1]."""
    with pytest.raises(DomainError):
        complete_pi(n, m)
    with pytest.raises(DomainError):
        complete_pi_minus_k_m1(1.0 - n, 1.0 - m)
    if not 0.0 <= m < 1.0:
        with pytest.raises(DomainError):
            complete_k_m1(1.0 - m)


# ----------------------------------------------------------------- group 2


@pytest.mark.parametrize("m", [0.0, 0.1, 0.37, 0.5, 0.8, 0.95, 0.999])
def test_k_against_scipy(m):
    assert complete_k(m) == pytest.approx(scipy.special.ellipk(m), rel=1e-14)


@pytest.mark.parametrize("m", [0.05, 0.5, 0.9])
def test_k_against_quadrature(m):
    assert complete_k(m) == pytest.approx(quad_k(m), rel=1e-12)


@pytest.mark.parametrize(
    "n,m",
    [(0.25, 0.5), (0.9, 0.9), (-0.5, 0.5), (-3.0, 0.2), (0.0, 0.7), (0.6, 0.0)],
)
def test_pi_against_quadrature(n, m):
    assert complete_pi(n, m) == pytest.approx(quad_pi(n, m), rel=1e-12)


# ----------------------------------------------------------------- group 3


def test_pi_reduces_to_k():
    for m in (0.0, 0.3, 0.77, 0.99):
        assert complete_pi(0.0, m) == pytest.approx(complete_k(m), abs=1e-14, rel=1e-14)


def test_k_monotone_in_m():
    ms = np.linspace(0.0, 0.99, 40)
    vals = [complete_k(float(m)) for m in ms]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] >= math.pi / 2.0


def test_pi_monotone_in_n_and_m():
    for m in (0.1, 0.6):
        vals = [complete_pi(float(n), m) for n in np.linspace(-0.9, 0.9, 19)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for n in (-0.5, 0.4):
        vals = [complete_pi(n, float(m)) for m in np.linspace(0.0, 0.95, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pi_minus_k_stable_form():
    # (Pi(n, m) - K(m))/n evaluated directly loses digits as n -> 0; the
    # Carlson form stays finite and matches the difference quotient
    m = 0.41
    for n in (0.3, 1e-3, -1e-3):
        direct = (complete_pi(n, m) - complete_k(m)) / n
        assert complete_pi_minus_k_m1(1.0 - n, 1.0 - m) == pytest.approx(direct, rel=1e-6)
    tiny = complete_pi_minus_k_m1(1.0, 1.0 - m)
    assert math.isfinite(tiny) and tiny > 0.0


@pytest.mark.parametrize("m", [0.0, 0.3, 0.99, 1.0 - 1e-9])
def test_the_public_forms_are_the_complement_forms_at_one_minus(m):
    """complete_k(m) and complete_pi(n, m) are the _m1 forms at m1 = 1 - m
    and n1 = 1 - n, bit for bit: one convention, stated once."""
    assert complete_k(m) == complete_k_m1(1.0 - m)
    for n in (-3.0, 0.0, 0.5, 1.0 - 1e-6):
        assert complete_pi(n, m) == complete_k_m1(1.0 - m) + n * complete_pi_minus_k_m1(1.0 - n, 1.0 - m)


# ----------------------------------------------------------------- group 4

GRID_M = (0.0, 1e-9, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99) + tuple(1.0 - 10.0**-k for k in range(3, 10))
GRID_N = (-1e3, -10.0, -3.0, -0.5, -1e-9, 0.0, 1e-9, 0.3, 0.7, 0.99, 1.0 - 1e-6, 1.0 - 1e-9)


def closed_form_arguments():
    """The m1 = 1 - m of every K and the (n1, m1) = (1 - n, 1 - m) of every
    (Pi - K)/n that _closed_forms evaluates on a in {1.0001, 1.2, 2, 5, 20}
    and (3, 1.7), lambda/b^2 from 1e-6 to the guard, the ca = 0 caustic
    included."""
    ks, pis = [], []
    tables = [cg.BilliardTable(a, 1.0) for a in (1.0001, 1.2, 2.0, 5.0, 20.0)]
    tables.append(cg.BilliardTable(3.0, 1.7))
    fractions = (1e-6, 1e-3, 0.1, 0.3, 0.5, 0.8) + tuple(1.0 - 10.0**-k for k in range(1, 10))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sa, "complete_k_m1", lambda m1: ks.append(m1) or complete_k_m1(m1))
        patch.setattr(sa, "complete_pi_minus_k_m1",
                      lambda n1, m1: pis.append((n1, m1)) or complete_pi_minus_k_m1(n1, m1))
        for table in tables:
            b2, a2 = table.b * table.b, table.a * table.a
            for lam in [f * b2 for f in fractions] + [a2 * b2 / (a2 + b2)]:
                sa._closed_forms.__wrapped__(*cg._unit(table, cg.CausticSpec(lam))[:2])
    return ks, pis


def forty_digit_rel(value, reference):
    return float(abs(value - reference) / reference)


def test_rf_against_40_digits():
    worst = 0.0
    with mp.workdps(40):
        for y in [1.0 - m for m in GRID_M] + closed_form_arguments()[0]:
            worst = max(worst, forty_digit_rel(_rf(0.0, y, 1.0), mp.elliprf(0, y, 1)))
    assert worst <= 5e-16, worst


def test_rj_against_40_digits():
    worst = 0.0
    with mp.workdps(40):
        for p, y in [(1.0 - n, 1.0 - m) for n in GRID_N for m in GRID_M] + closed_form_arguments()[1]:
            worst = max(worst, forty_digit_rel(_rj(0.0, y, 1.0, p), mp.elliprj(0, y, 1, p)))
    assert worst <= 1e-15, worst


def test_kernels_on_general_arguments():
    rng = np.random.default_rng(19)
    worst = 0.0
    with mp.workdps(40):
        for x, y, z, p in 10.0 ** rng.uniform(-8.0, 3.0, (200, 4)):
            x = 0.0 if x < 1e-6 else float(x)
            y, z, p = float(y), float(z), float(p)
            worst = max(worst, forty_digit_rel(_rf(x, y, z), mp.elliprf(x, y, z)),
                        forty_digit_rel(_rj(x, y, z, p), mp.elliprj(x, y, z, p)))
    assert worst <= 1e-15, worst
