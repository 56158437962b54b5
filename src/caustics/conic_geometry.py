"""Pointwise geometry of a confocal ellipse pair.

The outer ellipse x^2/a^2 + y^2/b^2 = 1 is the billiard boundary; the inner
(caustic) ellipse x^2/(a^2-lam) + y^2/(b^2-lam) = 1 is confocal with it for
0 < lam < b^2.  Every chord of the billiard tangent to the caustic is described
by the angular parameter u of its tangency point.  This module computes the
chord endpoints, lengths, vertex cosines, outer-normal cosines, curvature and
the invariant measure density, all as plain functions of (table, caustic, u).

Scale convention: b is only a unit of length.  The private forms compute on
the unit table (a/b, 1) and the caustic lam/b^2, given as the two floats
(a, lam), and never see b; _unit converts a (table, caustic) pair, and each
public function converts on the way in and multiplies its result by b to
its quantity's power on the way out: lengths, vertices, a_c and b_c by b,
kappa^(2/3) by b^(-2/3), rho(u) and Z by b^(1/3), J by 1/b and lam by b^2,
while cosines and the rotation number are scale-free.  At b = 1 every
factor is 1.0 and the result is the unit table's, bit for bit.
Each formula is written once, in the values it needs: both endpoints in one
pass over (cos u, sin u), from the chord factors w = b_c^2 cos^2 u +
a_c^2 sin^2 u and D = a^2 b_c^2 cos^2 u + a_c^2 sin^2 u (_endpoints),
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
        if not math.isfinite(self.a):
            raise DomainError(f"semi-axis a must be finite; got a={self.a}")

    @property
    def c2(self) -> float:
        """Squared focal half-distance c^2 = a^2 - b^2 >= 0."""
        return self.a * self.a - self.b * self.b


@dataclass(frozen=True)
class CausticSpec:
    """Caustic parameter lam (length^2) selecting one confocal inner ellipse."""

    lam: float


def _unit(table: BilliardTable, caustic: CausticSpec) -> tuple[float, float, float]:
    """(a/b, lam/b^2, b): the unit table and caustic that the private forms
    compute on, and the scale that the public functions put back.

    Raises DomainError unless 0 < lam < b^2 (elliptic caustic strictly inside
    the billiard), checked as 0 < lam/b^2 < 1.
    """
    b = table.b
    lam = caustic.lam / b / b
    if not lam > 0.0:
        raise DomainError(f"caustic parameter must satisfy lam > 0; got lam={caustic.lam}")
    if not lam < 1.0:
        raise DomainError(f"caustic parameter must satisfy lam < b^2 = {b * b}; got lam={caustic.lam}")
    return table.a / b, lam, b


# The largest a/b that the averages and orbits compute at.  Their products
# stay finite below it: the closed forms' q r3 is at most a^8, the
# quadrature's kappa^(2/3) forms a^4, and the composed orbit's denominators
# are at least b_c^2/a_c^2 >= 2^-53/a^2, whose square it takes.
_MAX_ASPECT = 2.0**127


def _check_aspect(a):
    """NumericalError naming a/b where a exceeds _MAX_ASPECT (1.7e38)."""
    if not a <= _MAX_ASPECT:
        raise NumericalError(f"aspect ratio a/b={a} exceeds 2^127, past which the routes overflow")


def _axes(a, lam):
    """The unit caustic's semi-axes (sqrt(a^2 - lam), sqrt(1 - lam)), unchecked."""
    return math.sqrt(a * a - lam), math.sqrt(1.0 - lam)


def caustic_axes(table: BilliardTable, caustic: CausticSpec) -> tuple[float, float]:
    """Semi-axes (a_c, b_c) = (sqrt(a^2-lam), sqrt(b^2-lam)) of the caustic.

    Raises DomainError unless 0 < lam < b^2 (elliptic caustic strictly inside
    the billiard).  Note a_c^2 - b_c^2 = c^2: the pair is confocal.
    """
    a, lam, b = _unit(table, caustic)
    return tuple(axis * b for axis in _axes(a, lam))


def joachimsthal(table: BilliardTable, caustic: CausticSpec) -> float:
    """Conserved quantity J = sqrt(lam)/(a b) of every orbit tangent to the caustic.

    Equals <A P, v> at each vertex P with unit incoming direction v, where
    A = diag(1/a^2, 1/b^2); the outgoing direction gives -J.
    """
    return _joachimsthal(*_unit(table, caustic)[:2]) / table.b


def _joachimsthal(a, lam):
    """J = sqrt(lam)/a of the unit table and caustic."""
    return math.sqrt(lam) / a


def endpoint_coordinates(table, caustic, u):
    """Endpoint coordinates (x1, y1, x2, y2) of the chord tangent at u; u may be an array.

    P1 is the endpoint ahead of the tangency point in the counterclockwise
    direction, P2 the one behind, so consecutive chords share P1(u) = P2(u+).
    """
    a, lam, b = _unit(table, caustic)
    u = np.asarray(u, dtype=float)
    ((x1, x2), (y1, y2)), _ = _endpoints(a, lam, np.cos(u), np.sin(u))
    return x1 * b, y1 * b, x2 * b, y2 * b


def _endpoints(a, lam, cos_u, sin_u):
    """Both endpoints of the chords tangent at the angles u with the given
    cos u and sin u (arrays), which the caller has at hand: an orbit or a
    quadrature grid takes them once for every sample it needs.  They come
    stacked as [x, y] = [[x1, x2], [y1, y2]], so that a formula of a boundary
    point evaluates both endpoints together, and with the chord factor w,
    which the per-chord forms below read: (ends, w).

    Both read the chord factors, homogeneous in (C, S) = (cos u, sin u),

        w = b_c^2 C^2 + a_c^2 S^2,    D = a^2 b_c^2 C^2 + a_c^2 S^2,

    as x = a a_c (a b_c^2 C -/+ sqrt(lam) sqrt(w) S)/D and
    y = b_c (a_c^2 S +/- sqrt(lam) a sqrt(w) C)/D, upper signs at P1.
    They are the billiard step's z^2/lam and d; the chord length is
    2 a sqrt(lam) w/D and rho is (a_c b_c)^(2/3)/sqrt(w), each written in
    w below.  psi = a_c^2 b_c^2 D is the chord's denominator:
    NumericalError where D is not positive, as at a NaN angle or at
    (C, S) = (0, 0), which is no point of the circle.  A call holds seven
    arrays of u's size, its result included: sqrt(w) is taken into the row
    of D's terms, so w survives for the caller.
    """
    ac, bc = _axes(a, lam)
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
    d = np.add(f0, f1, out=f0)
    if not d.min(initial=math.inf) > 0.0:  # NaN fails too
        k = int(np.argmin(d > 0.0))  # the first failing index
        u = math.atan2(s[k], c[k])
        raise NumericalError(f"degenerate chord denominator psi <= 0 at index {k}, u={u!r}")
    inv_d = np.reciprocal(d, out=d)
    root_w = np.sqrt(w, out=f1)
    rl = math.sqrt(lam)
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
    y2 *= bc * ac2
    f0 *= -(a * ac * rl)
    f1 *= bc * rl * a
    mid = ends[:, 1]
    np.add(mid, f, out=ends[:, 0])
    mid -= f
    return ends.reshape((2, 2) + shape), w.reshape(shape)


def _pointwise(formula, a, lam, u):
    """formula(a, lam, w) at u, a float where u is a scalar, with the chord
    factor w formed as _endpoints forms it, so that a public function of u
    is bit for bit its private form on an endpoint pass's w."""
    ac, bc = _axes(a, lam)
    u = np.asarray(u, dtype=float)
    c, s = np.cos(u), np.sin(u)
    val = formula(a, lam, c * c * (bc * bc) + s * s * (ac * ac))
    return float(val) if val.ndim == 0 else val


def chord_length(table, caustic, u):
    """Length of the chord tangent at u; u may be an array (_chord_length_at)."""
    a, lam, b = _unit(table, caustic)
    return _pointwise(_chord_length_at, a, lam, u) * b


def _chord_length_at(a, lam, w):
    """chord_length at the chord factor w of _endpoints: 2 a sqrt(lam) w/D,
    with D = a_c^2 b_c^2 + lam w on the circle C^2 + S^2 = 1, as

        2 a sqrt(lam)/(lam + a_c^2 b_c^2/w);

    its terms are all non-negative, so nothing cancels as lam -> 1.
    """
    ac, bc = _axes(a, lam)
    return 2.0 * a * math.sqrt(lam) / (lam + (ac * ac) * (bc * bc) / w)


def interior_cosine(table, caustic, u):
    """Mean of the interior vertex cosines at the two endpoints of the chord at u.

    At a vertex (x, y) of any orbit tangent to the caustic, the cosine of the
    angle between the rays toward its two neighbors is 2 lam/(d1 d2) - 1, with
    d1 d2 = 1 + c^2 y^2 its focal distances' product (no cancellation).
    The constant 2 lam (and not lam/2) is forced by the circle degenerations
    (square family -> 0, triangle family -> 1/2) and by the periodic-orbit
    identity sum(cos theta_i) = J L - N.  u may be an array.
    """
    a, lam, _ = _unit(table, caustic)
    u = np.asarray(u, dtype=float)
    (_, (y1, y2)), _ = _endpoints(a, lam, np.cos(u), np.sin(u))
    val = lam * (_inverse_focal_product(a, y1) + _inverse_focal_product(a, y2)) - 1.0
    return float(val) if np.ndim(val) == 0 else val


def _inverse_focal_product(a, y):
    """1/(d1 d2) = 1/(1 + c^2 y^2) at the boundary points of ordinate y."""
    return 1.0 / (1.0 + (a * a - 1.0) * y * y)


def _ca(a, lam):
    """ca = a^2 - lam (a^2 + 1); the outer cosine has the sign of ca."""
    return a * a - lam * (a * a + 1.0)


def outer_cosine(table, caustic, u):
    """Cosine of the angle between the boundary normals at the two chord endpoints.

    Its sign is sign(ca); it vanishes identically at ca = 0, and its log stays
    finite when ca is within roundoff of zero.  u may be an array
    (_outer_cosine_at).
    """
    return _pointwise(_outer_cosine_at, *_unit(table, caustic)[:2], u)


def _outer_cosine_at(a, lam, w):
    """outer_cosine at the chord factor w of _endpoints, in the factored form

        ca/sqrt(ca^2 + E/w),  E = 4 lam a^2 a_c^2 b_c^2,

    of the normalized dot product of the gradients A P1, A P2
    (A = diag(1/a^2, 1)), with ca = a^2 - lam (a^2 + 1).  It is
    ca sqrt(w)/sqrt(r3 + r4 - r4 s) with r3, r4 the denominator coefficients
    of the interior cosine's rational form (spatial_averages._closed_forms),
    since r3 + r4 - r4 s = E + ca^2 w at s = sin^2 u, where w = b_c^2 + c^2 s;
    every term is non-negative, so nothing cancels as lam -> 1.
    """
    ac, bc = _axes(a, lam)
    ca = _ca(a, lam)
    e = 4.0 * lam * (a * a) * (ac * ac) * (bc * bc)
    return ca / np.sqrt(ca * ca + e / w)


def measure_density(table, caustic, u):
    """Invariant measure density rho(u) = (a_c b_c)^(2/3) / sqrt(b_c^2 + c^2 sin^2 u).

    rho du is the asymptotic density of chord tangency points of any aperiodic
    orbit; it is 2pi-periodic and symmetric under u -> -u and u -> pi - u.
    u may be an array (_measure_density_at).
    """
    a, lam, b = _unit(table, caustic)
    return _pointwise(_measure_density_at, a, lam, u) * b ** (1.0 / 3.0)


def _measure_density_at(a, lam, w):
    """measure_density at the chord factor w of _endpoints: (a_c b_c)^(2/3)/sqrt(w)."""
    ac, bc = _axes(a, lam)
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
    a, b = table.a / table.b, table.b
    p = np.asarray(p, dtype=float) / b
    x, y = p[..., 0], p[..., 1]
    _boundary_residual(a, x, y)
    val = _curvature23_at(a, x, y) * b ** (-2.0 / 3.0)
    return float(val) if p.ndim == 1 else val


def _curvature23_at(a, x, y):
    """curvature23 at the boundary points (x, y), which are not checked."""
    return a ** (-4.0 / 3.0) / (x * x / a**4 + y * y)


def _boundary_residual(a, x, y):
    """The largest |x^2/a^2 + y^2 - 1| of the points (x, y); DomainError
    if a point's exceeds 1e-8."""
    res = np.abs(x * x / a**2 + y * y - 1.0)
    worst = float(res.max())
    # a NaN residual is the largest; it raises only beside a finite one above 1e-8
    if worst > 1e-8 or (worst != worst and (res > 1e-8).any()):
        raise DomainError(f"point not on the billiard boundary (residual {worst:.3e} > 1e-8)")
    return worst
