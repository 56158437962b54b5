"""Pointwise geometry of a confocal ellipse pair.

The outer ellipse x^2/a^2 + y^2/b^2 = 1 is the billiard boundary; the inner
(caustic) ellipse x^2/(a^2-lam) + y^2/(b^2-lam) = 1 is confocal with it for
0 < lam < b^2.  Every chord of the billiard tangent to the caustic is described
by the angular parameter u of its tangency point.  This module computes the
chord endpoints, lengths, vertex cosines, outer-normal cosines, curvature and
the invariant measure density, all as plain functions of (table, caustic, u).
Each formula is written once, in the values it needs: the endpoints in
(cos u, sin u) (_endpoints), the chord length, outer cosine and density in
s = sin^2 u (_chord_length_at, _outer_cosine_at, _measure_density_at), and
kappa^(2/3) and the inverse focal product 1/(d1 d2) at a boundary point
(_curvature23_at, _inverse_focal_product).  The public functions wrap them;
an orbit or a quadrature grid takes cos and sin once, evaluates each point
once and calls the private forms, which check no point against the boundary:
only curvature23 does (_boundary_residual, which evaluate_invariants reports).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "BilliardTable",
    "CausticSpec",
    "caustic_axes",
    "joachimsthal",
    "endpoint_coordinates",
    "chord_length",
    "interior_cosine",
    "outer_cosine",
    "measure_density",
    "curvature23",
]


@dataclass(frozen=True)
class BilliardTable:
    """Semi-axes (a, b) of the billiard boundary ellipse.  a = b (circle) is allowed."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= self.b > 0.0):
            raise DomainError(
                f"semi-axes must satisfy a >= b > 0; got a={self.a}, b={self.b}"
            )

    @property
    def c2(self) -> float:
        """Squared focal half-distance c^2 = a^2 - b^2 >= 0."""
        return self.a * self.a - self.b * self.b


@dataclass(frozen=True)
class CausticSpec:
    """Caustic parameter lam (length^2) selecting one confocal inner ellipse."""

    lam: float


def caustic_axes(table: BilliardTable, caustic: CausticSpec) -> tuple[float, float]:
    """Semi-axes (a_c, b_c) = (sqrt(a^2-lam), sqrt(b^2-lam)) of the caustic.

    Raises DomainError unless 0 < lam < b^2 (elliptic caustic strictly inside
    the billiard).  Note a_c^2 - b_c^2 = c^2: the pair is confocal.
    """
    lam = caustic.lam
    b2 = table.b * table.b
    if not lam > 0.0:
        raise DomainError(f"caustic parameter must satisfy lam > 0; got lam={lam}")
    if not lam < b2:
        raise DomainError(
            f"caustic parameter must satisfy lam < b^2 = {b2}; got lam={lam}"
        )
    return math.sqrt(table.a * table.a - lam), math.sqrt(b2 - lam)


def joachimsthal(table: BilliardTable, caustic: CausticSpec) -> float:
    """Conserved quantity J = sqrt(lam)/(a b) of every orbit tangent to the caustic.

    Equals <A P, v> at each vertex P with unit incoming direction v, where
    A = diag(1/a^2, 1/b^2); the outgoing direction gives -J.
    """
    caustic_axes(table, caustic)  # domain check
    return math.sqrt(caustic.lam) / (table.a * table.b)


def endpoint_coordinates(table, caustic, u):
    """Endpoint coordinates (x1, y1, x2, y2) of the chord tangent at u; u may be an array.

    P1 is the endpoint ahead of the tangency point in the counterclockwise
    direction, P2 the one behind, so consecutive chords share P1(u) = P2(u+).
    """
    u = np.asarray(u, dtype=float)
    return _endpoints(table, caustic, np.cos(u), np.sin(u))


def _endpoints(table, caustic, cos_u, sin_u):
    """endpoint_coordinates of the chords tangent at the angles u with the
    given cos u and sin u, which the caller has at hand: an orbit or a
    quadrature grid takes them once for every sample it needs.

    After the psi check each array is overwritten once it is read for the
    last time, so a call holds six arrays of the input's size at most.
    """
    a, b = table.a, table.b
    ac, bc = caustic_axes(table, caustic)
    ac2, bc2 = ac * ac, bc * bc
    xc, yc = ac * cos_u, bc * sin_u
    # zeta >= 0 fixes which endpoint is labeled P1 for every u
    zeta = np.sqrt(caustic.lam * (bc2 * bc2 * xc * xc + ac2 * ac2 * yc * yc))
    psi = a * a * bc2 * bc2 * xc * xc + b * b * ac2 * ac2 * yc * yc
    positive = psi > 0.0
    if not np.all(positive):
        k = int(np.argmin(positive))  # the first failing index
        u = math.atan2(np.ravel(sin_u)[k], np.ravel(cos_u)[k])
        raise NumericalError(f"degenerate chord denominator psi <= 0 at index {k}, u={u!r}")
    bz = zeta * b * yc
    az = zeta
    az *= a
    az *= xc
    ax = xc
    ax *= a * bc2 * bc2
    by = yc
    by *= b * ac2 * ac2
    x1 = ac2 * a * (ax - bz) / psi
    x2 = ax
    x2 += bz
    x2 *= ac2 * a
    x2 /= psi
    del bz
    y1 = bc2 * b * (by + az) / psi
    y2 = by
    y2 -= az
    y2 *= bc2 * b
    y2 /= psi
    return x1, y1, x2, y2


def _pointwise(formula, table, caustic, u):
    """formula(table, caustic, sin^2 u) at u, a float where u is a scalar."""
    val = formula(table, caustic, np.sin(np.asarray(u, dtype=float)) ** 2)
    return float(val) if val.ndim == 0 else val


def chord_length(table, caustic, u):
    """Length of the chord tangent at u; u may be an array (_chord_length_at)."""
    return _pointwise(_chord_length_at, table, caustic, u)


def _chord_length_at(table, caustic, s):
    """chord_length at s = sin^2 u:

        2 a b sqrt(lam) (b_c^2 + c^2 s)/(a^2 b_c^2 + lam c^2 s);

    its terms are all non-negative, so nothing cancels as lam -> b^2.
    """
    a, b = table.a, table.b
    _, bc = caustic_axes(table, caustic)
    bc2, c2, lam = bc * bc, table.c2, caustic.lam
    return 2.0 * a * b * math.sqrt(lam) * (bc2 + c2 * s) / (a * a * bc2 + lam * c2 * s)


def interior_cosine(table, caustic, u):
    """Mean of the interior vertex cosines at the two endpoints of the chord at u.

    At a vertex (x, y) of any orbit tangent to the caustic, the cosine of the
    angle between the rays toward its two neighbors is 2 lam/(d1 d2) - 1, with
    d1 d2 = b^2 + c^2 y^2/b^2 its focal distances' product (no cancellation).
    The constant 2 lam (and not lam/2) is forced by the circle degenerations
    (square family -> 0, triangle family -> 1/2) and by the periodic-orbit
    identity sum(cos theta_i) = J L - N.  u may be an array.
    """
    _, y1, _, y2 = endpoint_coordinates(table, caustic, u)
    q1, q2 = _inverse_focal_product(table, y1), _inverse_focal_product(table, y2)
    val = caustic.lam * (q1 + q2) - 1.0
    return float(val) if np.ndim(val) == 0 else val


def _inverse_focal_product(table, y):
    """1/(d1 d2) = 1/(b^2 + c^2 y^2/b^2) at the boundary points of ordinate y."""
    return 1.0 / (table.b * table.b + table.c2 / table.b**2 * y * y)


def _ca(table, caustic):
    """ca = a^2 b^2 - lam (a^2 + b^2); the outer cosine has the sign of ca."""
    a, b = table.a, table.b
    return a * a * b * b - caustic.lam * (a * a + b * b)


def outer_cosine(table, caustic, u):
    """Cosine of the angle between the boundary normals at the two chord endpoints.

    Its sign is sign(ca); it vanishes identically at ca = 0, and its log stays
    finite when ca is within roundoff of zero.  u may be an array
    (_outer_cosine_at).
    """
    return _pointwise(_outer_cosine_at, table, caustic, u)


def _outer_cosine_at(table, caustic, s):
    """outer_cosine at s = sin^2 u, in the factored form

        ca sqrt(b_c^2 + c^2 s)/sqrt(r3 + r4 - r4 s)

    of the normalized dot product of the gradients A P1, A P2
    (A = diag(1/a^2, 1/b^2)), with ca = a^2 b^2 - lam (a^2 + b^2) and r3, r4
    the denominator coefficients of the interior cosine's rational form
    (spatial_averages._closed_forms): r4 = -c^2 ca^2 and
    r3 + r4 = b_c^2 (a^2 b^2 + lam c^2)^2, so nothing cancels as lam -> b^2.
    """
    a, b, lam = table.a, table.b, caustic.lam
    _, bc = caustic_axes(table, caustic)
    bc2, c2 = bc * bc, table.c2
    ca = _ca(table, caustic)
    r4 = -c2 * ca * ca
    r34 = bc2 * (a * a * b * b + lam * c2) ** 2
    return ca * np.sqrt((bc2 + c2 * s) / (r34 - r4 * s))


def measure_density(table, caustic, u):
    """Invariant measure density rho(u) = (a_c b_c)^(2/3) / sqrt(b_c^2 + c^2 sin^2 u).

    rho du is the asymptotic density of chord tangency points of any aperiodic
    orbit; it is 2pi-periodic and symmetric under u -> -u and u -> pi - u.
    u may be an array (_measure_density_at).
    """
    return _pointwise(_measure_density_at, table, caustic, u)


def _measure_density_at(table, caustic, s):
    """measure_density at s = sin^2 u."""
    ac, bc = caustic_axes(table, caustic)
    return (ac * bc) ** (2.0 / 3.0) / np.sqrt(bc * bc + table.c2 * s)


def curvature23(table, p):
    """Boundary curvature to the power 2/3 at boundary point p:

        kappa^(2/3) = (a b)^(-4/3) (x^2/a^4 + y^2/b^4)^(-1) = (a b)^(2/3)/(d1 d2),

    with d1, d2 the distances from p to the two foci.

    The linear identity kappa^(2/3) = (a b)^(-4/3) (1 + cos theta)/(2 J^2), with
    cos theta = 2 lam/(d1 d2) - 1 the vertex cosine, holds for every caustic
    (the 2 J^2 = 2 lam/(a^2 b^2) factor cancels the lam dependence).
    p has shape (2,) or (..., 2); raises DomainError off the boundary
    (_boundary_residual), which _curvature23_at does not check.
    """
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    _boundary_residual(table, x, y)
    val = _curvature23_at(table, x, y)
    return float(val) if p.ndim == 1 else val


def _curvature23_at(table, x, y):
    """curvature23 at the boundary points (x, y), which are not checked."""
    a, b = table.a, table.b
    return (a * b) ** (-4.0 / 3.0) / (x * x / a**4 + y * y / b**4)


def _boundary_residual(table, x, y):
    """The largest |x^2/a^2 + y^2/b^2 - 1| of the points (x, y); DomainError
    if a point's exceeds 1e-8."""
    res = np.abs(x * x / table.a**2 + y * y / table.b**2 - 1.0)
    worst = float(res.max())
    # a NaN residual is the largest; it raises only beside a finite one above 1e-8
    if worst > 1e-8 or (worst != worst and (res > 1e-8).any()):
        raise DomainError(f"point not on the billiard boundary (residual {worst:.3e} > 1e-8)")
    return worst
