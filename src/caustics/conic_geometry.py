"""Pointwise geometry of a confocal ellipse pair.

The outer ellipse x^2/a^2 + y^2/b^2 = 1 is the billiard boundary; the inner
(caustic) ellipse x^2/(a^2-lam) + y^2/(b^2-lam) = 1 is confocal with it for
0 < lam < b^2.  Every chord of the billiard tangent to the caustic is described
by the angular parameter u of its tangency point.  This module computes the
chord endpoints, lengths, vertex cosines, outer-normal cosines, curvature and
the invariant measure density, all as plain functions of (table, caustic, u).
Each formula is written once, in the values it needs: both endpoints in one
pass over (cos u, sin u), from the chord factors w = b_c^2 cos^2 u +
a_c^2 sin^2 u and D = a^2 b_c^2 cos^2 u + b^2 a_c^2 sin^2 u (_endpoints),
which hands out w; the chord length, outer cosine and density in that w
(_chord_length_at, _outer_cosine_at, _measure_density_at); and kappa^(2/3)
and the inverse focal product 1/(d1 d2) at boundary points, both endpoints'
rows at once (_curvature23_at, _inverse_focal_product); each is one numpy
expression.  The public functions wrap them; an orbit or a quadrature grid
takes cos and sin once, evaluates each point once and calls the private
forms, which check no point against the boundary: only curvature23 does
(_boundary_residual, which evaluate_invariants reports).
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
    ((x1, x2), (y1, y2)), _ = _endpoints(table, caustic, np.cos(u), np.sin(u))
    return x1, y1, x2, y2


def _endpoints(table, caustic, cos_u, sin_u):
    """Both endpoints of the chords tangent at the angles u with the given
    cos u and sin u (arrays), which the caller has at hand: an orbit or a
    quadrature grid takes them once for every sample it needs.  They come
    stacked as [x, y] = [[x1, x2], [y1, y2]], so that a formula of a boundary
    point evaluates both endpoints together, and with the chord factor w,
    which the per-chord forms below read: (ends, w).

    Both read the chord factors, homogeneous in (C, S) = (cos u, sin u),

        w = b_c^2 C^2 + a_c^2 S^2,    D = a^2 b_c^2 C^2 + b^2 a_c^2 S^2,

    as x = a a_c (a b_c^2 C -/+ sqrt(lam) b sqrt(w) S)/D and
    y = b b_c (b a_c^2 S +/- sqrt(lam) a sqrt(w) C)/D, upper signs at P1.
    They are the billiard step's z^2/lam and d; the chord length is
    2 a b sqrt(lam) w/D and rho is (a_c b_c)^(2/3)/sqrt(w), each written in
    w below.  psi = a_c^2 b_c^2 D is the chord's denominator:
    NumericalError where D is not positive, as at a NaN angle or at
    (C, S) = (0, 0), which is no point of the circle.  A call holds seven
    arrays of u's size, its result included: sqrt(w) is taken into the row
    of D's terms, so w survives for the caller.
    """
    a, b = table.a, table.b
    ac, bc = caustic_axes(table, caustic)
    ac2, bc2 = ac * ac, bc * bc
    shape = cos_u.shape
    c, s = cos_u.reshape(-1), sin_u.reshape(-1)  # so that every row below is an array
    # in place: as plain expressions perfbench's ergodic-orbits ran 466-581
    # against 862-1,020 ops/s and verify peaked at 255.5 against 186.5 MB
    # (4 of 4 8 s pairs, 2 vCPUs)
    f = np.empty((2, len(c)))  # b_c^2 C^2 and a_c^2 S^2, then D and 1/D in row 0, sqrt(w) in row 1
    f0, f1 = f[0], f[1]
    np.multiply(c, c, out=f0)
    np.multiply(s, s, out=f1)
    f0 *= bc2
    f1 *= ac2
    w = f0 + f1
    f0 *= a * a
    f1 *= b * b
    d = np.add(f0, f1, out=f0)
    if not d.min(initial=math.inf) > 0.0:  # NaN fails too
        k = int(np.argmin(d > 0.0))  # the first failing index
        u = math.atan2(s[k], c[k])
        raise NumericalError(f"degenerate chord denominator psi <= 0 at index {k}, u={u!r}")
    inv_d = np.reciprocal(d, out=d)
    root_w = np.sqrt(w, out=f1)
    rl = math.sqrt(caustic.lam)
    ends = np.empty((2, 2, len(c)))  # x (P1, P2), y (P1, P2)
    # P2 first holds C/D and S/D, then the terms common to both endpoints;
    # f, whose 1/D and then sqrt(w) are spent, the ones that P1 adds and P2
    # subtracts
    x2, y2 = ends[0, 1], ends[1, 1]
    np.multiply(c, inv_d, out=x2)
    np.multiply(s, inv_d, out=y2)
    np.multiply(y2, root_w, out=f0)
    np.multiply(x2, root_w, out=f1)
    x2 *= a * ac * a * bc2
    y2 *= b * bc * b * ac2
    f0 *= -(a * ac * rl * b)
    f1 *= b * bc * rl * a
    mid = ends[:, 1]
    np.add(mid, f, out=ends[:, 0])
    mid -= f
    return ends.reshape((2, 2) + shape), w.reshape(shape)


def _pointwise(formula, table, caustic, u):
    """formula(table, caustic, w) at u, a float where u is a scalar, with the
    chord factor w formed as _endpoints forms it, so that a public function
    of u is bit for bit its private form on an endpoint pass's w."""
    ac, bc = caustic_axes(table, caustic)
    u = np.asarray(u, dtype=float)
    c, s = np.cos(u), np.sin(u)
    val = formula(table, caustic, c * c * (bc * bc) + s * s * (ac * ac))
    return float(val) if val.ndim == 0 else val


def chord_length(table, caustic, u):
    """Length of the chord tangent at u; u may be an array (_chord_length_at)."""
    return _pointwise(_chord_length_at, table, caustic, u)


def _chord_length_at(table, caustic, w):
    """chord_length at the chord factor w of _endpoints: 2 a b sqrt(lam) w/D,
    with D = a_c^2 b_c^2 + lam w on the circle C^2 + S^2 = 1, as

        2 a b sqrt(lam)/(lam + a_c^2 b_c^2/w);

    its terms are all non-negative, so nothing cancels as lam -> b^2.
    """
    ac, bc = caustic_axes(table, caustic)
    lam = caustic.lam
    return 2.0 * table.a * table.b * math.sqrt(lam) / (lam + (ac * ac) * (bc * bc) / w)


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


def _outer_cosine_at(table, caustic, w):
    """outer_cosine at the chord factor w of _endpoints, in the factored form

        ca/sqrt(ca^2 + E/w),  E = 4 lam a^2 b^2 a_c^2 b_c^2,

    of the normalized dot product of the gradients A P1, A P2
    (A = diag(1/a^2, 1/b^2)), with ca = a^2 b^2 - lam (a^2 + b^2).  It is
    ca sqrt(w)/sqrt(r3 + r4 - r4 s) with r3, r4 the denominator coefficients
    of the interior cosine's rational form (spatial_averages._closed_forms),
    since r3 + r4 - r4 s = E + ca^2 w at s = sin^2 u, where w = b_c^2 + c^2 s;
    every term is non-negative, so nothing cancels as lam -> b^2.
    """
    a, b = table.a, table.b
    ac, bc = caustic_axes(table, caustic)
    ca = _ca(table, caustic)
    e = 4.0 * caustic.lam * (a * a) * (b * b) * (ac * ac) * (bc * bc)
    return ca / np.sqrt(ca * ca + e / w)


def measure_density(table, caustic, u):
    """Invariant measure density rho(u) = (a_c b_c)^(2/3) / sqrt(b_c^2 + c^2 sin^2 u).

    rho du is the asymptotic density of chord tangency points of any aperiodic
    orbit; it is 2pi-periodic and symmetric under u -> -u and u -> pi - u.
    u may be an array (_measure_density_at).
    """
    return _pointwise(_measure_density_at, table, caustic, u)


def _measure_density_at(table, caustic, w):
    """measure_density at the chord factor w of _endpoints: (a_c b_c)^(2/3)/sqrt(w)."""
    ac, bc = caustic_axes(table, caustic)
    return (ac * bc) ** (2.0 / 3.0) / np.sqrt(w)


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
