"""The discrete system: billiard map in the caustic coordinate, orbit
iteration with angular lift, rotation numbers, N-periodic caustic location,
and time averages.

Proves:
 Group 1 - One-step map
   - circle advance is exactly 2 arccos(sqrt(1 - lambda))
   - endpoint sharing P1(u) = P2(u+) to 1e-10 on generic tables
   - prev_tangency inverts next_tangency to 1e-9
   - the lift step always lies in (0, pi)
   - the cached orbit shared by time averages is read-only
 Group 2 - Orbit iteration
   - n+1 lifted parameters, strictly increasing lift
   - every chord tangent to the caustic, Joachimsthal constant at every
     vertex, all vertices on the boundary (self-validating 1e5-step run)
   - circle square orbit closes exactly after 4 steps
   - n = 1 gives two parameters, one chord
 Group 3 - Rotation numbers and periodic caustics
   - circle pentagon rotation number 1/5 within 1/n
   - rho -> 0+ in the grazing limit; rho in (0, 1/2) always
   - Richardson consistency between n and 2n estimates
   - monotonicity of rho in lambda on a 50-point grid
   - find_caustic_for_period: circle lambda_N = sin^2(pi/N) b^2 to 1e-12,
     the exact N=4 value a^2 b^2/(a^2+b^2), frozen regression values for
     a in {1.2, 2, 5}, and 10-seed closure certificates
   - unbracketable period raises a numerical error
 Group 4 - Time averages
   - constant quantity on the circle averages exactly
   - 1e6-bounce averages match spatial quadrature to 1e-3 (a=2, lambda=0.37)
   - error estimate and bookkeeping fields
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import caustics.conic_geometry as cg
import caustics.spatial_averages as sa
from caustics.billiard_dynamics import (
    TIME_AVERAGE_QUANTITIES,
    _u_sequence_cached,
    find_caustic_for_period,
    iterate_orbit,
    next_tangency,
    prev_tangency,
    rotation_number,
    time_average,
)
from caustics.errors import DomainError, NumericalError

T12 = cg.BilliardTable(1.2, 1.0)
T2 = cg.BilliardTable(2.0, 1.0)
T5 = cg.BilliardTable(5.0, 1.0)
CIRCLE = cg.BilliardTable(1.0, 1.0)

# lambda_N for N = 3..7, pinned from independent high-precision root solves
# of the closure condition (regression guard for the caustic finder)
FROZEN_LAMBDA_N = {
    1.2: {
        3: 0.8646489623846765,
        4: 0.5901639344262299,
        5: 0.4101726763298750,
        6: 0.2975206611570250,
        7: 0.2243216767574898,
    },
    2.0: {
        3: 0.9827122448568794,
        4: 0.8,
        5: 0.5944977897488660,
        6: 4.0 / 9.0,
        7: 0.3405821257825344,
    },
    5.0: {
        3: 0.9995921305783443,
        4: 25.0 / 26.0,
        5: 0.8399500732978932,
        6: 0.6944444444444445,
        7: 0.5659925697298688,
    },
}


# ----------------------------------------------------------------- group 1


def test_circle_advance_exact():
    for lam in (0.2, 0.5, 0.75):
        step = 2.0 * math.acos(math.sqrt(1.0 - lam))
        for u in (0.0, 1.3, -2.0):
            assert next_tangency(CIRCLE, cg.CausticSpec(lam), u) - u == pytest.approx(
                step, abs=1e-13
            )


def test_endpoint_sharing():
    for table, lam in ((T2, 0.5), (T12, 0.25), (T5, 0.9), (T5, 0.05)):
        caustic = cg.CausticSpec(lam)
        for u in np.linspace(-3.0, 9.0, 25):
            u_next = next_tangency(table, caustic, float(u))
            assert u < u_next < u + math.pi
            here = cg.chord_endpoints(table, caustic, float(u))
            there = cg.chord_endpoints(table, caustic, u_next)
            assert math.dist(here.p1, there.p2) < 1e-10


def test_prev_inverts_next():
    for table, lam in ((T2, 0.5), (T5, 0.9), (T12, 0.1)):
        caustic = cg.CausticSpec(lam)
        for u in (0.0, 0.9, 2.2, 4.8):
            u_next = next_tangency(table, caustic, u)
            assert prev_tangency(table, caustic, u_next) == pytest.approx(u, abs=1e-9)


def test_cached_orbit_is_read_only():
    # time_average and rotation_number share one cached array per orbit
    us = _u_sequence_cached(T2, cg.CausticSpec(0.5), 0.1, 100)
    with pytest.raises(ValueError, match="read-only"):
        us[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        us[:10] *= 2.0


# ----------------------------------------------------------------- group 2


def test_orbit_sample_shapes():
    sample = iterate_orbit(T2, cg.CausticSpec(0.5), 0.3, 1)
    assert len(sample.u_sequence) == 2
    assert sample.vertex_sequence.shape == (2, 2)
    with pytest.raises(DomainError):
        iterate_orbit(T2, cg.CausticSpec(0.5), 0.3, 0)


def test_orbit_self_validates():
    """1e5-step orbit: monotone lift, tangency of every chord, constant
    Joachimsthal inner product, vertices on the boundary."""
    table, caustic = T2, cg.CausticSpec(0.5)
    sample = iterate_orbit(table, caustic, 0.3, 100_000)
    us = sample.u_sequence
    verts = sample.vertex_sequence
    assert np.all(np.diff(us) > 0.0)

    on_boundary = verts[:, 0] ** 2 / 4.0 + verts[:, 1] ** 2 - 1.0
    assert float(np.max(np.abs(on_boundary))) < 1e-10

    # tangency of chord i to the caustic at u_i
    ac, bc = cg.caustic_axes(table, caustic)
    px, py = ac * np.cos(us[:-1]), bc * np.sin(us[:-1])
    dx = verts[1:, 0] - verts[:-1, 0]
    dy = verts[1:, 1] - verts[:-1, 1]
    dist = np.abs(dy * (px - verts[:-1, 0]) - dx * (py - verts[:-1, 1])) / np.hypot(dx, dy)
    assert float(np.max(dist)) < 1e-9

    # <A P_i, unit chord> = J at every arrival vertex
    j = cg.joachimsthal(table, caustic)
    norm = np.hypot(dx, dy)
    dots = (verts[1:, 0] / 4.0 * dx + verts[1:, 1] * dy) / norm
    assert float(np.max(np.abs(dots - j))) < 1e-9


def test_circle_square_closes():
    sample = iterate_orbit(CIRCLE, cg.CausticSpec(0.5), 0.0, 4)
    assert sample.u_sequence[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert float(np.max(np.abs(sample.vertex_sequence[4] - sample.vertex_sequence[0]))) < 1e-12


# ----------------------------------------------------------------- group 3


def test_rotation_circle_pentagon():
    n = 50_000
    est = rotation_number(CIRCLE, cg.CausticSpec(math.sin(math.pi / 5.0) ** 2), n)
    assert est.steps == n
    assert est.rho == pytest.approx(0.2, abs=1.0 / n)


def test_rotation_grazing_limit_and_range():
    rho_small = rotation_number(T2, cg.CausticSpec(1e-4), 20_000).rho
    assert 0.0 < rho_small < 0.01
    for lam in (0.1, 0.5, 0.9, 0.9999):
        est = rotation_number(T2, cg.CausticSpec(lam), 20_000)
        assert 0.0 < est.rho < 0.5
        assert est.residual >= 0.0


def test_rotation_richardson_consistency():
    caustic = cg.CausticSpec(0.5)
    n = 100_000
    r1 = rotation_number(T2, caustic, n).rho
    r2 = rotation_number(T2, caustic, 2 * n).rho
    assert abs(r1 - r2) < 2.0 / n


def test_rotation_monotone_in_lambda():
    rhos = [
        rotation_number(T2, cg.CausticSpec(float(lam)), 4000).rho
        for lam in np.linspace(0.01, 0.99, 50)
    ]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))


def test_find_caustic_circle_exact():
    for n in range(3, 8):
        lam = find_caustic_for_period(CIRCLE, n).lam
        assert lam == pytest.approx(math.sin(math.pi / n) ** 2, abs=1e-12)


def test_find_caustic_four_periodic_closed_form():
    # lambda_4 = a^2 b^2 / (a^2 + b^2) makes the caustic inscribed in the
    # rectangle family; exact for every table
    for table in (T12, T2, T5):
        lam = find_caustic_for_period(table, 4).lam
        exact = table.a**2 * table.b**2 / (table.a**2 + table.b**2)
        assert lam == pytest.approx(exact, rel=1e-12)


def test_find_caustic_frozen_values():
    for a, per_n in FROZEN_LAMBDA_N.items():
        table = cg.BilliardTable(a, 1.0)
        for n, lam_expected in per_n.items():
            assert find_caustic_for_period(table, n).lam == pytest.approx(
                lam_expected, rel=1e-12
            ), (a, n)


def test_find_caustic_closure_certificate():
    """Poncelet: at lambda_5 the 5-step orbit closes from any seed."""
    caustic = find_caustic_for_period(T2, 5)
    rng = np.random.default_rng(7)
    for u0 in rng.uniform(0.0, 2.0 * math.pi, 10):
        sample = iterate_orbit(T2, caustic, float(u0), 5)
        defect = abs(sample.u_sequence[-1] - sample.u_sequence[0] - 2.0 * math.pi)
        assert defect < 1e-10
        assert float(np.max(np.abs(sample.vertex_sequence[-1] - sample.vertex_sequence[0]))) < 1e-8


def test_find_caustic_validation_and_bracket_failure():
    with pytest.raises(DomainError):
        find_caustic_for_period(T2, 2)
    with pytest.raises(NumericalError):
        find_caustic_for_period(T2, 1_000_000)


# ----------------------------------------------------------------- group 4


def test_time_average_circle_exact():
    res = time_average(CIRCLE, cg.CausticSpec(0.5), "sidelength", 2000)
    assert res.value == pytest.approx(2.0 * math.sqrt(0.5), abs=1e-14)
    assert res.method == "time_average"
    assert res.err_estimate >= 0.0
    assert res.lam == 0.5


def test_time_average_matches_quadrature():
    caustic = cg.CausticSpec(0.37)
    n = 1_000_000
    for quantity, ref in (
        ("sidelength", sa.mean_sidelength(T2, caustic, method="quadrature").value),
        ("interior_cosine", sa.mean_cosine(T2, caustic, method="quadrature").value),
    ):
        res = time_average(T2, caustic, quantity, n)
        assert abs(res.value - ref) / abs(ref) < 1e-3, quantity


def test_time_average_validation():
    assert set(TIME_AVERAGE_QUANTITIES) == {
        "sidelength",
        "interior_cosine",
        "curvature23",
        "log_abs_outer_cosine",
    }
    with pytest.raises(DomainError):
        time_average(T2, cg.CausticSpec(0.5), "perimeter", 100)
