"""Geometry of the confocal pair: chords tangent to a caustic, their endpoints
on the billiard boundary, and the pointwise quantities built from them.

Proves:
 Group 1 - Construction and validation
   - table/caustic validation rejects bad axes and out-of-range lambda
   - caustic_axes values and the identity a_c^2 - b_c^2 = c^2
 Group 2 - Chord endpoints against an independent oracle
   - endpoints from the tangent-line/ellipse quadratic match endpoint_coordinates
   - on-boundary and tangency residuals over random (table, lambda, u)
   - periodicity and branch consistency of the P1/P2 labels
   - a degenerate chord (psi <= 0) raises naming its first index and angle
   - property: both endpoints of the shared pass lie on the boundary and on
     the tangent line at u, and chord_length is their distance, for a in
     [1, 20], lambda out to the guard and any u (bounds set from measurement)
   - both endpoints within 1.5e-14 of 40-digit values at a in {1, 1.2, 2, 5,
     20} and lambda from 1e-9 to b^2 (1 - 1e-9)
 Group 3 - Lengths, cosines, curvature
   - chord_length equals the Euclidean endpoint distance everywhere
   - joachimsthal equals sqrt(lambda)/(ab) and the chord inner products
   - interior_cosine matches the vertex-angle oracle built from adjacent chords
   - interior_cosine within 2e-15 of 40-digit vertex angles from a = 1 to 20
     and lambda/b^2 from 1e-9 to 1 - 1e-9
   - the rational form of interior_cosine in cos^2 u and its endpoint values
   - outer_cosine: factored form vs tangent-direction oracle vs gradient form
   - curvature23 against the parametric curvature formula and the linear
     identity in the interior cosine
   - the boundary residual is one reduction: NaN is returned, and raised
     only beside a residual above 1e-8, with the same message as before
 Group 4 - Measure density and symmetry
   - explicit density values, circle constancy, u -> -u and u -> u+pi symmetry
   - ranges: cosines in [-1, 1], lengths and density positive
 Group 5 - The per-point forms bit for bit
   - each of the four private per-point forms an orbit reads is bit for bit
     its expression in tests/oracles.py on the read-only arrays a scalar
     and a composed orbit hand out, on a quadrature grid's (2, n) rows and
     on 0-d arrays and numpy scalars, at the circle, at ca = 0 and near the
     guard, and leaves its inputs as they were; the public functions of a
     scalar still return a float

The oracles focal_distances and interior_cosine_rational are local to this
module; outer_cosine_gradient, the rational form's coefficients
rational_coefficients and the billiard step next_tangency come from
tests/oracles.py, and the inverse step is -next_tangency(-u).
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caustics.billiard_dynamics as bd
import caustics.conic_geometry as cg
from caustics.errors import DomainError, NumericalError
from oracles import EXPRESSION_FORMS, next_tangency, outer_cosine_gradient, rational_coefficients

RNG = np.random.default_rng(20240817)

T12 = cg.BilliardTable(1.2, 1.0)
T2 = cg.BilliardTable(2.0, 1.0)
T5 = cg.BilliardTable(5.0, 1.0)
CIRCLE = cg.BilliardTable(1.0, 1.0)

tables = st.sampled_from([T12, T2, T5, CIRCLE])
lam_fractions = st.floats(0.02, 0.97)
angles = st.floats(-20.0, 20.0)


def endpoints(table, caustic, u):
    """Endpoints (P1, P2) of the chord tangent at scalar u, as points."""
    x1, y1, x2, y2 = cg.endpoint_coordinates(table, caustic, float(u))
    return np.array([x1, y1]), np.array([x2, y2])


def focal_distances(table, p):
    """Distances (d1, d2) from boundary point p to the foci (-c, 0), (c, 0).

    Satisfies d1 + d2 = 2a and d1 d2 = (b^4 x^2 + a^4 y^2)/(a^2 b^2).
    p has shape (2,) or (..., 2); raises DomainError off the boundary.
    """
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    res = np.abs(x * x / table.a**2 + y * y / table.b**2 - 1.0)
    if np.any(res > 1e-8):
        raise DomainError(f"point not on the billiard boundary (residual {float(np.max(res)):.3e})")
    c = math.sqrt(table.c2)
    d1 = np.hypot(x + c, y)
    d2 = np.hypot(x - c, y)
    if p.ndim == 1:
        return float(d1), float(d2)
    return d1, d2


def interior_cosine_rational(table, caustic, u):
    """interior_cosine as (r1 + r2 z)/(r3 + r4 z) in z = cos^2 u; u may be an array."""
    r1, r2, r3, r4 = rational_coefficients(table, caustic)
    z = np.cos(np.asarray(u, dtype=float)) ** 2
    val = (r1 + r2 * z) / (r3 + r4 * z)
    return float(val) if val.ndim == 0 else val


def oracle_endpoints(table, caustic, u):
    """Independent endpoint construction: intersect the caustic tangent line
    x x_c/a_c^2 + y y_c/b_c^2 = 1 with the boundary ellipse via the quadratic
    formula, parameterizing the line by arc length from the tangency point.
    """
    ac, bc = cg.caustic_axes(table, caustic)
    xc, yc = ac * math.cos(u), bc * math.sin(u)
    tx, ty = -ac * math.sin(u), bc * math.cos(u)
    norm = math.hypot(tx, ty)
    tx, ty = tx / norm, ty / norm
    a2, b2 = table.a**2, table.b**2
    # (xc + t tx)^2/a^2 + (yc + t ty)^2/b^2 = 1
    qa = tx**2 / a2 + ty**2 / b2
    qb = 2.0 * (xc * tx / a2 + yc * ty / b2)
    qc = xc**2 / a2 + yc**2 / b2 - 1.0
    disc = qb**2 - 4.0 * qa * qc
    assert disc > 0.0
    t1 = (-qb + math.sqrt(disc)) / (2.0 * qa)
    t2 = (-qb - math.sqrt(disc)) / (2.0 * qa)
    return (xc + t1 * tx, yc + t1 * ty), (xc + t2 * tx, yc + t2 * ty)


def endpoints_mp(a, b, lam, u):
    """The endpoints (P1, P2) of the chord tangent at u, as 40-digit points
    (call it within mp.workdps(40)), from the tangent-line/ellipse quadratic;
    P1 is the root ahead along the counterclockwise tangent."""
    a, b, lam, u = mp.mpf(a), mp.mpf(b), mp.mpf(lam), mp.mpf(u)
    ac, bc = mp.sqrt(a * a - lam), mp.sqrt(b * b - lam)
    xc, yc = ac * mp.cos(u), bc * mp.sin(u)
    tx, ty = -ac * mp.sin(u), bc * mp.cos(u)
    qa = tx * tx / (a * a) + ty * ty / (b * b)
    qb = 2 * (xc * tx / (a * a) + yc * ty / (b * b))
    qc = xc * xc / (a * a) + yc * yc / (b * b) - 1
    root = mp.sqrt(qb * qb - 4 * qa * qc)
    return tuple((xc + t * tx, yc + t * ty) for t in ((-qb + root) / (2 * qa), (-qb - root) / (2 * qa)))


def interior_cosine_mp(a, b, lam, u):
    """interior_cosine at 40 digits, geometrically: the endpoints from the
    tangent-line/ellipse quadratic, and at each the cosine of the angle between
    the rays toward its two tangency points on the caustic."""
    with mp.workdps(40):
        ac, bc = mp.sqrt(mp.mpf(a) ** 2 - lam), mp.sqrt(mp.mpf(b) ** 2 - lam)
        total = 0
        for px, py in endpoints_mp(a, b, lam, u):
            # tangency parameters w from (px/a_c) cos w + (py/b_c) sin w = 1
            phi = mp.atan2(py / bc, px / ac)
            delta = mp.acos(1 / mp.hypot(px / ac, py / bc))
            (r1x, r1y), (r2x, r2y) = (
                (ac * mp.cos(w) - px, bc * mp.sin(w) - py) for w in (phi + delta, phi - delta)
            )
            total += (r1x * r2x + r1y * r2y) / (mp.hypot(r1x, r1y) * mp.hypot(r2x, r2y))
        return float(total / 2)


def vertex_cosine_oracle(table, caustic, u_in, u_out):
    """Interior-angle cosine at the vertex shared by chords u_in and u_out,
    from rays toward both polygon neighbours."""
    in_p1, in_p2 = endpoints(table, caustic, u_in)
    out_p1, out_p2 = endpoints(table, caustic, u_out)
    v = in_p1
    assert math.dist(in_p1, out_p2) < 1e-8
    r1 = in_p2 - v
    r2 = out_p1 - v
    return float(r1 @ r2 / (np.linalg.norm(r1) * np.linalg.norm(r2)))


# ----------------------------------------------------------------- group 1


def test_table_validation():
    with pytest.raises(DomainError):
        cg.BilliardTable(1.0, 2.0)  # a < b
    with pytest.raises(DomainError):
        cg.BilliardTable(1.0, 0.0)
    with pytest.raises(DomainError):
        cg.BilliardTable(-2.0, -1.0)


@pytest.mark.parametrize("lam", [-0.1, 0.0, 1.0, 1.5])
def test_caustic_range_rejected(lam):
    with pytest.raises(DomainError):
        cg.caustic_axes(T2, cg.CausticSpec(lam))


def test_caustic_axes_values():
    ac, bc = cg.caustic_axes(CIRCLE, cg.CausticSpec(0.5))
    assert ac == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert bc == pytest.approx(math.sqrt(0.5), abs=1e-15)

    ac, bc = cg.caustic_axes(T2, cg.CausticSpec(0.75))
    assert ac == pytest.approx(math.sqrt(3.25), abs=1e-15)
    assert bc == pytest.approx(0.5, abs=1e-15)
    assert ac**2 - bc**2 == pytest.approx(T2.c2, abs=1e-12)


# ----------------------------------------------------------------- group 2


def test_circle_vertical_tangent_chord():
    r = math.sqrt(0.5)
    got = sorted(endpoints(CIRCLE, cg.CausticSpec(0.5), 0.0), key=lambda p: p[1])
    assert got[0] == pytest.approx((r, -r), abs=1e-14)
    assert got[1] == pytest.approx((r, r), abs=1e-14)


def test_endpoints_match_tangent_line_oracle():
    caustic = cg.CausticSpec(0.5)
    for u in np.linspace(0.0, 2.0 * math.pi, 37):
        p1, p2 = endpoints(T2, caustic, u)
        o1, o2 = oracle_endpoints(T2, caustic, u)
        direct = max(math.dist(p1, o1), math.dist(p2, o2))
        swapped = max(math.dist(p1, o2), math.dist(p2, o1))
        assert min(direct, swapped) < 1e-10


def test_degenerate_chord_names_its_first_index():
    """The psi guard names the first failing index and its angle, atan2 of
    the sine and cosine it was given, not the whole input."""
    caustic = cg.CausticSpec(0.5)
    u = np.linspace(0.0, 6.0, 1000)
    u[[417, 600]] = np.nan
    with pytest.raises(NumericalError, match=r"psi <= 0 at index 417, u=nan$"):
        cg.endpoint_coordinates(T2, caustic, u)
    with pytest.raises(NumericalError, match=r"psi <= 0 at index 0, u=nan$"):
        cg.endpoint_coordinates(T2, caustic, math.nan)
    # (cos u, sin u) = (0, 0) is no point of the circle: psi = 0 there
    cos_u, sin_u = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -0.0])
    with pytest.raises(NumericalError, match=r"psi <= 0 at index 1, u=0\.0$"):
        cg._endpoints(T2, caustic, cos_u, sin_u)


def test_chord_periodicity():
    caustic = cg.CausticSpec(0.5)
    for u in (0.0, 1.1, 4.0):
        here = endpoints(T2, caustic, u)
        turned = endpoints(T2, caustic, u + 2.0 * math.pi)
        assert math.dist(here[0], turned[0]) < 1e-12
        assert math.dist(here[1], turned[1]) < 1e-12


def test_random_tangency_and_boundary_residuals():
    """10^4 random (table, lambda, u): endpoints on the boundary and the
    chord tangent to the caustic at its construction point."""
    for table in (T12, T2, T5, CIRCLE):
        n = 2500
        lam = RNG.uniform(0.02, 0.98, n) * table.b**2
        u = RNG.uniform(-10.0, 10.0, n)
        for li, ui in zip(lam, u):
            caustic = cg.CausticSpec(float(li))
            x1, y1, x2, y2 = cg.endpoint_coordinates(table, caustic, float(ui))
            for x, y in ((x1, y1), (x2, y2)):
                assert abs(x**2 / table.a**2 + y**2 / table.b**2 - 1.0) < 1e-10
            ac, bc = cg.caustic_axes(table, caustic)
            px, py = ac * math.cos(ui), bc * math.sin(ui)
            # distance from the tangency point to the chord line
            dx, dy = x2 - x1, y2 - y1
            dist = abs(dy * (px - x1) - dx * (py - y1)) / math.hypot(dx, dy)
            assert dist < 1e-10


@settings(deadline=None, max_examples=80)
@given(tables, lam_fractions, angles)
def test_endpoint_labels_are_consistent(table, frac, u):
    """P1 sits ahead of the tangency point in the counterclockwise sense,
    P2 behind; the labels never swap across u."""
    caustic = cg.CausticSpec(frac * table.b**2)
    p1, p2 = endpoints(table, caustic, u)
    ac, bc = cg.caustic_axes(table, caustic)
    c = np.array([ac * math.cos(u), bc * math.sin(u)])
    t = np.array([-ac * math.sin(u), bc * math.cos(u)])
    assert (p1 - c) @ t > 0.0
    assert (p2 - c) @ t < 0.0


# Bounds on the endpoints of the shared pass, from the worst cases measured
# over a in [1, 20] and lambda/b^2 from 1e-9 to the guard: 2.3e-14 for the
# gap between chord_length and the distance of the two points, 1.3e-15 for
# their boundary residuals and 7.3e-15 for their distances from the tangent
# line (4,000 random cases); 9.5e-15 for the coordinates against 40-digit
# endpoints on test_endpoints_against_40_digits' grid (a = 20, lambda = 0.9999).
CHORD_GAP = 6e-14
ON_BOUNDARY = 4e-15
ON_TANGENT = 2e-14
ENDPOINTS_40_DIGITS = 1.5e-14


@settings(deadline=None, max_examples=150)
@given(st.floats(1.0, 20.0), st.floats(0.05, 9.0), st.booleans(), st.floats(-1e6, 1e6))
def test_shared_chord_factors(a, k, toward_guard, u):
    """One pass gives both endpoints from the chord factors w and D: each lies
    on the boundary and on the caustic's tangent line at u, and their distance
    is chord_length(u), for a in [1, 20] and lambda/b^2 = 10^-k or
    1 - 10^-k out to the guard 1 - 1e-9 (residuals taken at 40 digits).  A
    slipped sign or factor in w or D moves a point off one of them."""
    lam = min(1.0 - 10.0**-k if toward_guard else 10.0**-k, 1.0 - 1e-9)
    table, caustic = cg.BilliardTable(a, 1.0), cg.CausticSpec(lam)
    x1, y1, x2, y2 = cg.endpoint_coordinates(table, caustic, u)
    length = cg.chord_length(table, caustic, u)
    with mp.workdps(40):
        a_, lam_, u_ = mp.mpf(a), mp.mpf(lam), mp.mpf(u)
        ac, bc = mp.sqrt(a_ * a_ - lam_), mp.sqrt(1 - lam_)
        # the tangent line b_c cos u x + a_c sin u y = a_c b_c, and its normal's length
        nx, ny = bc * mp.cos(u_), ac * mp.sin(u_)
        for x, y in ((mp.mpf(x1), mp.mpf(y1)), (mp.mpf(x2), mp.mpf(y2))):
            assert abs(x * x / (a_ * a_) + y * y - 1) <= ON_BOUNDARY, (a, lam, u)
            assert abs(nx * x + ny * y - ac * bc) <= ON_TANGENT * mp.hypot(nx, ny), (a, lam, u)
        gap = mp.hypot(mp.mpf(x1) - mp.mpf(x2), mp.mpf(y1) - mp.mpf(y2)) - length
        assert abs(gap) <= CHORD_GAP, (a, lam, u)


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0, 20.0])
def test_endpoints_against_40_digits(a):
    """Both endpoints within ENDPOINTS_40_DIGITS of the 40-digit
    tangent-line/ellipse quadratic (endpoints_mp), absolute, at 35 angles
    for lambda = b^2 (1 - 10^-k), k = 1..9, and lambda in {1e-9, 0.3, 0.7}."""
    table = cg.BilliardTable(a, 1.0)
    us = np.r_[np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False), 1e-3, math.pi / 2 - 1e-7, 3.0]
    for lam in [1.0 - 10.0**-k for k in range(1, 10)] + [1e-9, 0.3, 0.7]:
        got = cg.endpoint_coordinates(table, cg.CausticSpec(lam), us)
        with mp.workdps(40):
            for i, u in enumerate(us):
                (x1, y1), (x2, y2) = endpoints_mp(a, 1.0, lam, u)
                for value, want in zip((g[i] for g in got), (x1, y1, x2, y2)):
                    assert abs(value - want) <= ENDPOINTS_40_DIGITS, (a, lam, u)


# ----------------------------------------------------------------- group 3


def test_chord_length_circle_constant():
    for lam in (0.1, 0.5, 0.9):
        for u in (0.0, 0.7, 2.0):
            assert cg.chord_length(CIRCLE, cg.CausticSpec(lam), u) == pytest.approx(
                2.0 * math.sqrt(lam), abs=1e-14
            )


def test_chord_length_matches_euclidean_distance():
    caustic = cg.CausticSpec(0.5)
    us = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    closed = cg.chord_length(T2, caustic, us)
    x1, y1, x2, y2 = cg.endpoint_coordinates(T2, caustic, us)
    euclid = np.hypot(x2 - x1, y2 - y1)
    assert float(np.max(np.abs(closed - euclid))) < 1e-10


def test_joachimsthal_values():
    assert cg.joachimsthal(T2, cg.CausticSpec(0.25)) == pytest.approx(0.25, abs=1e-15)
    assert cg.joachimsthal(CIRCLE, cg.CausticSpec(0.75)) == pytest.approx(
        math.sqrt(3.0) / 2.0, abs=1e-15
    )


@settings(deadline=None, max_examples=60)
@given(tables, lam_fractions, angles)
def test_joachimsthal_is_the_chord_inner_product(table, frac, u):
    """<A P, w> with w the unit chord direction P2 -> P1 equals +J at the
    arrival endpoint P1 and -J at the departure endpoint P2."""
    caustic = cg.CausticSpec(frac * table.b**2)
    j = cg.joachimsthal(table, caustic)
    p1, p2 = endpoints(table, caustic, u)
    w = p1 - p2
    w /= np.linalg.norm(w)
    n1 = np.array([p1[0] / table.a**2, p1[1] / table.b**2])
    n2 = np.array([p2[0] / table.a**2, p2[1] / table.b**2])
    assert float(n1 @ w) == pytest.approx(j, abs=1e-12)
    assert float(n2 @ w) == pytest.approx(-j, abs=1e-12)


def test_focal_distances():
    d1, d2 = focal_distances(T2, (2.0, 0.0))
    assert sorted([d1, d2]) == pytest.approx([2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)], abs=1e-12)
    assert focal_distances(T2, (0.0, 1.0)) == pytest.approx((2.0, 2.0), abs=1e-12)
    assert focal_distances(CIRCLE, (math.cos(1.0), math.sin(1.0))) == pytest.approx(
        (1.0, 1.0), abs=1e-12
    )
    with pytest.raises(DomainError):
        focal_distances(T2, (1.0, 1.0))


def test_focal_distance_identities():
    for u in np.linspace(0.0, 2.0 * math.pi, 23):
        p = (2.0 * math.cos(u), math.sin(u))
        d1, d2 = focal_distances(T2, p)
        assert d1 + d2 == pytest.approx(4.0, abs=1e-10)
        prod = (T2.b**4 * p[0] ** 2 + T2.a**4 * p[1] ** 2) / (T2.a**2 * T2.b**2)
        assert d1 * d2 == pytest.approx(prod, abs=1e-10)


def test_interior_cosine_circle_families():
    for u in (0.0, 0.9, 3.3):
        assert cg.interior_cosine(CIRCLE, cg.CausticSpec(0.5), u) == pytest.approx(0.0, abs=1e-14)
        assert cg.interior_cosine(CIRCLE, cg.CausticSpec(0.75), u) == pytest.approx(0.5, abs=1e-14)


def test_interior_cosine_matches_vertex_angle_oracle():
    """The endpoint-mean cosine of chord u equals the mean of the two vertex
    interior angles read off the adjacent chords supplied by the billiard map."""
    for table, lam in ((T2, 0.5), (T12, 0.3), (T5, 0.9)):
        caustic = cg.CausticSpec(lam)
        for u in (0.0, 1.0, 2.4, 5.0):
            u_next = next_tangency(table, caustic, u)
            u_prev = -next_tangency(table, caustic, -u)  # the y -> -y reflection
            cos_at_p1 = vertex_cosine_oracle(table, caustic, u, u_next)
            cos_at_p2 = vertex_cosine_oracle(table, caustic, u_prev, u)
            oracle = 0.5 * (cos_at_p1 + cos_at_p2)
            assert cg.interior_cosine(table, caustic, u) == pytest.approx(oracle, abs=1e-10)


def test_interior_cosine_focal_identity():
    """cos(theta_i) = 2 lambda/(d1 d2) - 1 at each endpoint; the endpoint mean
    reproduces interior_cosine."""
    for table, lam in ((T2, 0.5), (T5, 0.9), (T12, 0.2)):
        caustic = cg.CausticSpec(lam)
        for u in np.linspace(0.0, 2.0 * math.pi, 17):
            vals = []
            for p in endpoints(table, caustic, u):
                d1, d2 = focal_distances(table, p)
                vals.append(2.0 * lam / (d1 * d2) - 1.0)
            assert cg.interior_cosine(table, caustic, float(u)) == pytest.approx(
                0.5 * (vals[0] + vals[1]), abs=1e-10
            )


def test_interior_cosine_against_40_digit_vertex_angles():
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for a in (1.0, 1.2, 2.0, 5.0, 20.0):
        table = cg.BilliardTable(a, 1.0)
        for frac in (1e-9, 1e-5, 0.01, 0.3, 0.7, 0.99, 1.0 - 1e-6, 1.0 - 1e-9):
            us = rng.uniform(0.0, 2.0 * math.pi, 20)
            got = cg.interior_cosine(table, cg.CausticSpec(frac), us)
            ref = np.array([interior_cosine_mp(a, 1.0, frac, u) for u in us])
            worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 2e-15


def test_rational_form_matches_geometric_cosine():
    caustic = cg.CausticSpec(0.3)
    us = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    rational = interior_cosine_rational(T2, caustic, us)
    geometric = cg.interior_cosine(T2, caustic, us)
    assert float(np.max(np.abs(rational - geometric))) < 1e-9


def test_rational_form_endpoint_values():
    table, caustic = T5, cg.CausticSpec(0.9)
    r1, r2, r3, r4 = rational_coefficients(table, caustic)
    s1, s2 = -r2 / r1, -r4 / r3
    at_zero = (r1 / r3) * (1.0 - s1) / (1.0 - s2)
    at_half_pi = r1 / r3
    assert interior_cosine_rational(table, caustic, 0.0) == pytest.approx(at_zero, abs=1e-12)
    assert interior_cosine_rational(table, caustic, math.pi / 2) == pytest.approx(
        at_half_pi, abs=1e-12
    )


def test_rational_form_circle_constant_zero():
    caustic = cg.CausticSpec(0.5)
    for u in np.linspace(0.0, 2.0 * math.pi, 11):
        assert abs(interior_cosine_rational(CIRCLE, caustic, float(u))) < 1e-14


def test_outer_cosine_circle_families():
    for u in (0.0, 1.2, 4.4):
        assert cg.outer_cosine(CIRCLE, cg.CausticSpec(0.75), u) == pytest.approx(-0.5, abs=1e-13)
        assert abs(cg.outer_cosine(CIRCLE, cg.CausticSpec(0.5), u)) < 1e-13


def test_outer_cosine_tangent_direction_oracle():
    """|cos theta'| equals |t1 . t2| for unit tangent directions at the two
    endpoints (tangents are the gradients rotated by 90 degrees), and the
    sign is sign(ca) with ca = a^2 b^2 - lam (a^2 + b^2)."""
    for table, lam in ((T2, 0.5), (T5, 0.5), (T5, 0.99), (T12, 0.7)):
        caustic = cg.CausticSpec(lam)
        ca = table.a**2 * table.b**2 - lam * (table.a**2 + table.b**2)
        for u in np.linspace(0.0, 2.0 * math.pi, 29):
            ts = []
            for x, y in endpoints(table, caustic, u):
                t = np.array([-y / table.b**2, x / table.a**2])
                ts.append(t / np.linalg.norm(t))
            got = cg.outer_cosine(table, caustic, float(u))
            assert abs(got) == pytest.approx(abs(float(ts[0] @ ts[1])), abs=1e-12)
            if ca != 0.0:
                assert math.copysign(1.0, got) == math.copysign(1.0, ca)


def test_outer_cosine_closed_form_agreement():
    for table, lam in ((T2, 0.5), (T5, 0.5), (T12, 0.35), (CIRCLE, 0.75)):
        caustic = cg.CausticSpec(lam)
        us = np.linspace(0.0, 2.0 * math.pi, 500, endpoint=False)
        assert float(
            np.max(np.abs(outer_cosine_gradient(table, caustic, us) - cg.outer_cosine(table, caustic, us)))
        ) < 1e-9


def test_outer_cosine_specific_point():
    caustic = cg.CausticSpec(0.5)
    got = cg.outer_cosine(T5, caustic, 0.7)
    assert outer_cosine_gradient(T5, caustic, 0.7) == pytest.approx(got, abs=1e-9)


def test_curvature23_reference_points():
    assert cg.curvature23(CIRCLE, (0.0, 1.0)) == pytest.approx(1.0, abs=1e-14)
    assert cg.curvature23(T2, (2.0, 0.0)) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-13)
    assert cg.curvature23(T2, (0.0, 1.0)) == pytest.approx(4.0 ** (-2.0 / 3.0), abs=1e-13)
    with pytest.raises(DomainError):
        cg.curvature23(T2, (0.5, 0.5))


def test_boundary_residual_is_one_reduction_with_the_old_nan_behaviour():
    """_boundary_residual reduces once: a NaN residual is returned rather
    than raised, unless a finite residual beside it exceeds 1e-8, and then
    the message carries nan, the maximum, as it did with a separate check."""
    zeros = np.zeros(2)
    assert cg._boundary_residual(T2, np.array([2.0, -2.0]), zeros) == 0.0
    assert math.isnan(cg._boundary_residual(T2, np.array([2.0, np.nan]), zeros))
    with pytest.raises(DomainError, match=r"\(residual nan > 1e-8\)"):
        cg._boundary_residual(T2, np.array([2.1, np.nan]), zeros)
    with pytest.raises(DomainError, match=r"\(residual 1\.025e-01 > 1e-8\)"):
        cg._boundary_residual(T2, np.array([2.1, 2.0]), zeros)
    with pytest.raises(DomainError, match=r"\(residual 1\.025e-01 > 1e-8\)"):
        cg.curvature23(T2, (2.1, 0.0))


def test_curvature23_parametric_oracle():
    """kappa = |x'y'' - y'x''| / (x'^2+y'^2)^(3/2) on (a cos t, b sin t)."""
    for table in (T12, T2, T5):
        a, b = table.a, table.b
        for t in np.linspace(0.0, 2.0 * math.pi, 19):
            num = a * b  # |x'y'' - y'x''| for the ellipse parameterization
            den = (a**2 * math.sin(t) ** 2 + b**2 * math.cos(t) ** 2) ** 1.5
            kappa = num / den
            p = (a * math.cos(t), b * math.sin(t))
            assert cg.curvature23(table, p) == pytest.approx(kappa ** (2.0 / 3.0), rel=1e-12)


def test_curvature23_focal_product_form():
    for u in np.linspace(0.1, 6.1, 13):
        p = (2.0 * math.cos(u), math.sin(u))
        d1, d2 = focal_distances(T2, p)
        expected = (T2.a * T2.b) ** (2.0 / 3.0) / (d1 * d2)
        assert cg.curvature23(T2, p) == pytest.approx(expected, rel=1e-10)


def test_curvature23_linear_in_cosine_identity():
    """kappa^(2/3) = (ab)^(-4/3) (1 + cos theta) / (2 J^2) with
    cos theta = 2 lambda/(d1 d2) - 1."""
    for table, lam in ((T2, 0.5), (T5, 0.9), (T12, 0.15)):
        caustic = cg.CausticSpec(lam)
        j = cg.joachimsthal(table, caustic)
        for u in np.linspace(0.0, 2.0 * math.pi, 17):
            for p in endpoints(table, caustic, u):
                d1, d2 = focal_distances(table, p)
                cos_theta = 2.0 * lam / (d1 * d2) - 1.0
                lhs = cg.curvature23(table, p)
                rhs = (table.a * table.b) ** (-4.0 / 3.0) * (1.0 + cos_theta) / (2.0 * j**2)
                assert lhs == pytest.approx(rhs, abs=1e-10)


# ----------------------------------------------------------------- group 4


def test_measure_density_values():
    assert cg.measure_density(CIRCLE, cg.CausticSpec(0.3), 1.7) == pytest.approx(
        0.7 ** (1.0 / 6.0), abs=1e-14
    )
    expected = (3.5 ** (1.0 / 3.0)) * (0.5 ** (1.0 / 3.0)) / math.sqrt(0.5)
    assert cg.measure_density(T2, cg.CausticSpec(0.5), 0.0) == pytest.approx(expected, abs=1e-13)


@settings(deadline=None, max_examples=80)
@given(tables, lam_fractions, angles)
def test_pointwise_symmetry_and_ranges(table, frac, u):
    caustic = cg.CausticSpec(frac * table.b**2)
    for fn in (cg.chord_length, cg.interior_cosine, cg.outer_cosine, cg.measure_density):
        v = fn(table, caustic, u)
        assert fn(table, caustic, -u) == pytest.approx(v, rel=1e-9, abs=1e-12)
        assert fn(table, caustic, u + math.pi) == pytest.approx(v, rel=1e-9, abs=1e-12)
    assert cg.chord_length(table, caustic, u) > 0.0
    assert cg.measure_density(table, caustic, u) > 0.0
    assert -1.0 <= cg.interior_cosine(table, caustic, u) <= 1.0
    assert -1.0 <= cg.outer_cosine(table, caustic, u) <= 1.0


def test_circle_degeneration_everything_constant():
    caustic = cg.CausticSpec(0.42)
    us = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for fn in (cg.chord_length, cg.interior_cosine, cg.outer_cosine, cg.measure_density):
        vals = fn(CIRCLE, caustic, us)
        assert float(np.ptp(vals)) < 1e-12


# ----------------------------------------------------------------- group 5


def _form_inputs(table, caustic):
    """(w, x, y) as the per-point forms are handed them: by a scalar and a
    composed orbit (read-only; x and y its planar vertex rows, and the
    strided columns of the vertices it hands out), by a quadrature grid
    ((2, n) rows of the endpoint pass) and as 0-d arrays and numpy scalars."""
    for n in (bd._COMPOSE_MIN - 1, 2_000):
        _, (x, y), w = bd._orbit(table, caustic, 0.1, n)
        yield w, x, y
        vertices = bd.iterate_orbit(table, caustic, 0.1, n).vertex_sequence
        yield w, vertices[:, 0], vertices[:, 1]
    u = np.linspace(0.0, math.pi, 512, endpoint=False)
    (x, y), w = cg._endpoints(table, caustic, np.cos(u), np.sin(u))
    yield w, x, y
    yield np.asarray(w[3]), np.asarray(x[0, 3]), np.asarray(y[0, 3])
    yield w[3], x[0, 3], y[0, 3]


@pytest.mark.parametrize("name", sorted(EXPRESSION_FORMS))
@pytest.mark.parametrize("table, frac", [(CIRCLE, 0.42), (T2, 0.37), (T2, 0.8), (T5, 1.0 - 1e-9)])
def test_per_point_forms_are_their_expressions_bit_for_bit(name, table, frac):
    """T2 at lam = 0.8 is ca = 0, where the outer cosine is 0 everywhere."""
    form, (expression, kind) = getattr(cg, name), EXPRESSION_FORMS[name]
    caustic = cg.CausticSpec(frac * table.b**2)
    for w, x, y in _form_inputs(table, caustic):
        arrays = {"cw": (w,), "y": (y,), "xy": (x, y)}[kind]
        args = (caustic,) + arrays if kind == "cw" else arrays
        before = [np.array(array, copy=True) for array in arrays]
        got, want = form(table, *args), expression(table, *args)
        assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for array, copy in zip(arrays, before):
            assert np.asarray(array).tobytes() == copy.tobytes()


def test_public_functions_of_a_scalar_return_floats():
    caustic = cg.CausticSpec(0.37)
    for fn in (cg.chord_length, cg.interior_cosine, cg.outer_cosine, cg.measure_density):
        for u in (0.3, np.float64(0.3), np.asarray(0.3)):
            assert type(fn(T2, caustic, u)) is float
    x1, y1, _, _ = cg.endpoint_coordinates(T2, caustic, 0.3)
    assert type(cg.curvature23(T2, (float(x1), float(y1)))) is float
