"""N-periodic orbits at the Poncelet caustic parameter and their invariants:
perimeter, Joachimsthal constant, sum of interior cosines, product of outer
cosines, sum of kappa^(2/3).

Proves:
 Group 1 - Orbit construction
   - circle hexagon: regular vertices, exact spacing
   - closure certificates and boundary residuals on generic tables
   - two seeds give distinct polygons with equal perimeter (Poncelet)
   - period < 3 rejected; construction records lambda and the seed
 Group 2 - Exact circle invariants
   - square: L = 4 sqrt(2), J = sqrt(1/2), sum_cos = 0, product = 0
   - triangle: L = 3 sqrt(3), sum_cos = 3/2, product = -1/8
 Group 3 - Identities and seed invariance
   - sum cos theta_i = J L - N to 1e-9 for a in {1, 1.2, 2, 5}, N in 3..7
   - product sign equals sign(ca)^N
   - ten-seed relative spreads below 1e-8 for all reported invariants
   - residual bookkeeping: every defect recorded and small
   - the vertices are checked against the boundary once: sum_kappa23 and
     boundary_max are bit for bit the public curvature23's, and a vertex off
     the boundary raises curvature23's DomainError
   - every field of the report, read off the polygon's x and y columns, is
     bit for bit the row-wise evaluation kept in tests/oracles.py, on
     a in {1, 1.2, 2, 5} x N in 3..40 x 4 seeds
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import caustics.conic_geometry as cg
from caustics.billiard_dynamics import find_caustic_for_period
from caustics.errors import DomainError
from caustics.invariant_suite import InvariantReport, build_periodic_orbit, evaluate_invariants
from oracles import row_wise_invariants

T12 = cg.BilliardTable(1.2, 1.0)
T2 = cg.BilliardTable(2.0, 1.0)
T5 = cg.BilliardTable(5.0, 1.0)
CIRCLE = cg.BilliardTable(1.0, 1.0)


# ----------------------------------------------------------------- group 1


def test_circle_hexagon_is_regular():
    orbit = build_periodic_orbit(CIRCLE, 6, seed_u=0.0)
    assert orbit.n == 6
    assert orbit.lam == pytest.approx(0.25, abs=1e-12)
    radii = np.hypot(orbit.vertices[:, 0], orbit.vertices[:, 1])
    assert float(np.max(np.abs(radii - 1.0))) < 1e-12
    angles = np.unwrap(np.arctan2(orbit.vertices[:, 1], orbit.vertices[:, 0]))
    assert np.allclose(np.diff(angles), math.pi / 3.0, atol=1e-12)


def test_closure_and_boundary_residuals():
    orbit = build_periodic_orbit(T5, 7, seed_u=0.2)
    assert orbit.closure_defect < 1e-8
    assert orbit.seed_u == 0.2
    on_boundary = orbit.vertices[:, 0] ** 2 / 25.0 + orbit.vertices[:, 1] ** 2 - 1.0
    assert float(np.max(np.abs(on_boundary))) < 1e-10


def test_poncelet_same_perimeter_different_triangles():
    one = build_periodic_orbit(T2, 3, seed_u=0.0)
    other = build_periodic_orbit(T2, 3, seed_u=1.0)
    assert float(np.min(np.abs(one.vertices[:, 0][:, None] - other.vertices[:, 0]))) > 1e-3
    l1 = evaluate_invariants(one).perimeter
    l2 = evaluate_invariants(other).perimeter
    assert abs(l1 - l2) / l1 < 1e-9


def test_period_validation():
    with pytest.raises(DomainError):
        build_periodic_orbit(T2, 2)


# ----------------------------------------------------------------- group 2


def test_circle_square_invariants():
    report = evaluate_invariants(build_periodic_orbit(CIRCLE, 4, seed_u=0.3))
    assert report.perimeter == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
    assert report.joachimsthal == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert abs(report.sum_cos) < 1e-12
    assert abs(report.product_outer_cos) < 1e-12
    assert report.sum_kappa23 == pytest.approx(4.0, rel=1e-12)


def test_circle_triangle_invariants():
    report = evaluate_invariants(build_periodic_orbit(CIRCLE, 3, seed_u=0.0))
    assert report.perimeter == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-12)
    assert report.sum_cos == pytest.approx(1.5, abs=1e-12)
    assert report.product_outer_cos == pytest.approx(-0.125, abs=1e-12)
    assert report.sum_kappa23 == pytest.approx(3.0, rel=1e-12)


# ----------------------------------------------------------------- group 3


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
def test_sum_cos_identity(a):
    table = cg.BilliardTable(a, 1.0)
    for n in range(3, 8):
        report = evaluate_invariants(build_periodic_orbit(table, n, seed_u=0.4))
        expected = report.joachimsthal * report.perimeter - n
        assert abs(report.sum_cos - expected) < 1e-9
        assert report.identity_residuals["sum_cos_identity"] < 1e-9


def test_product_sign_follows_ca():
    for a, n in ((2.0, 3), (2.0, 5), (5.0, 6)):
        table = cg.BilliardTable(a, 1.0)
        lam = find_caustic_for_period(table, n).lam
        ca = a * a - lam * (a * a + 1.0)
        report = evaluate_invariants(build_periodic_orbit(table, n))
        assert math.copysign(1.0, report.product_outer_cos) == math.copysign(1.0, ca) ** n


def test_ten_seed_invariance():
    for table, n in ((T2, 5), (T12, 3), (T5, 7)):
        reports = [
            evaluate_invariants(build_periodic_orbit(table, n, seed_u=float(s)))
            for s in np.linspace(0.0, 2.0 * math.pi / n, 10, endpoint=False)
        ]
        for field in ("perimeter", "joachimsthal", "sum_cos", "product_outer_cos", "sum_kappa23"):
            values = np.array([getattr(r, field) for r in reports])
            spread = float(np.ptp(values)) / float(np.max(np.abs(values)))
            assert spread < 1e-8, (table.a, n, field)


def test_boundary_is_checked_once_with_curvature23s_error():
    """evaluate_invariants checks the vertices against the boundary once: its
    kappa^(2/3) sum and boundary residual are bit for bit the public
    curvature23's sum and the residual's maximum, and a vertex moved off the
    boundary raises curvature23's DomainError, message included."""
    orbit = build_periodic_orbit(T5, 7, seed_u=0.4)
    v, table = orbit.vertices, orbit.table
    report = evaluate_invariants(orbit)
    assert report.sum_kappa23 == float(np.sum(cg.curvature23(table, v)))
    residual = np.abs(v[:, 0] ** 2 / table.a**2 + v[:, 1] ** 2 / table.b**2 - 1.0)
    assert report.identity_residuals["boundary_max"] == float(np.max(residual))
    moved = v.copy()
    moved[3] *= 1.0 + 1e-7
    with pytest.raises(DomainError) as public:
        cg.curvature23(table, moved)
    with pytest.raises(DomainError, match="not on the billiard boundary") as raised:
        evaluate_invariants(dataclasses.replace(orbit, vertices=moved))
    assert str(raised.value) == str(public.value)


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
def test_report_is_bit_for_bit_the_row_wise_evaluation(a):
    """The columns' evaluation takes the direction to the previous vertex as
    minus the previous edge's unit direction, which is exact, so every
    field, the identity residuals included, is the row-wise one's."""
    table = cg.BilliardTable(a, 1.0)
    rng = np.random.default_rng(17)
    for n in range(3, 41):
        for seed in rng.uniform(0.0, 2.0 * math.pi, 4):
            orbit = build_periodic_orbit(table, n, seed_u=float(seed))
            got, expected = evaluate_invariants(orbit), row_wise_invariants(orbit)
            for field in dataclasses.fields(InvariantReport):
                name = field.name
                assert getattr(got, name) == getattr(expected, name), (n, seed, name)


def test_residuals_recorded():
    report = evaluate_invariants(build_periodic_orbit(T2, 6))
    for key in ("sum_cos_identity", "joachimsthal_spread", "boundary_max", "closure_defect"):
        assert key in report.identity_residuals
        assert 0.0 <= report.identity_residuals[key] < 1e-9
