"""The billiard map in caustic coordinates and everything built on iterating it.

A vertex of an orbit tangent to the caustic sees the caustic under two tangent
lines; the billiard map sends the current tangency parameter to the other one.
From an external point (px, py) the tangency parameters w of the caustic
x = a_c cos w, y = b_c sin w solve

    (px/a_c) cos w + (py/b_c) sin w = 1,

i.e. R cos(w - phi) = 1 with (R, phi) the polar form of (px/a_c, py/b_c), so
w = phi +/- delta with delta = arccos(1/R) = arctan(sqrt(R^2 - 1)).
Counterclockwise orientation makes the step u -> u + 2 delta, with delta
evaluated at the forward endpoint P1(u).  _advance_sequence is the one
implementation of that step.  The map is conjugate to a rigid rotation
t -> t + Delta, so rotation_number is exact, and an orbit of _COMPOSE_MIN or
more bounces is composed from two ~sqrt(n)-bounce runs of the step by the
addition theorem of sn, cn, dn (_composed_sequence).  Every orbit, composed or
scalar, is certified step by step by _orbit on its points (cos u, sin u) and
angles mod 2pi, whose cosines and sines are taken once; the monotone lift
u_sequence is derived from the angles where it is read.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipkinc, ellipkm1

from . import conic_geometry as cg
from .errors import DomainError, NumericalError
from .spatial_averages import _CHORD_QUANTITIES, _DEGENERACY_GUARD, AverageResult, _chord_samples

__all__ = [
    "OrbitSample",
    "iterate_orbit",
    "rotation_number",
    "find_caustic_for_period",
    "time_average",
    "TIME_AVERAGE_QUANTITIES",
]

_SHARE_TOL = 1e-8  # endpoint-sharing residual accepted from the closed-form step
_TAU = 2.0 * math.pi
_SECANT_STEPS = 6  # brentq's secant steps toward a bracket; the poncelet pool takes at most 5
_COMPOSE_MIN = 200  # orbit length from which composing wins; the measured break-even is ~150


@dataclass(frozen=True, eq=False)
class OrbitSample:
    """A simulated orbit: certified tangency angles and boundary vertices.

    angles[i] is the tangency parameter of the i-th chord mod 2pi, as the
    orbit was certified; vertex_sequence[i] is the vertex shared by chords
    i-1 and i, so chord i joins vertex i to vertex i+1.  Vertex i+1 is P1 at
    the orbit's point i, whose angle is its rounded read: on a composed orbit
    (_COMPOSE_MIN bounces or more) the vertex read at the angle instead moves
    by up to 5.8e-12 at a = 20, lam = b^2 (1 - 1e-6), against the orbit's own
    error of 9e-9 there (1,500 bounces, 40-digit reference).  Both arrays have
    length n+1 for an n-step orbit and are read-only.  u_sequence, built on
    first access, is their monotone lift from u0: u0 + (angles - angles[0])
    + 2pi (whole turns so far), a turn being a step that lowers the angle.
    """

    u0: float
    angles: np.ndarray
    vertex_sequence: np.ndarray

    @functools.cached_property
    def u_sequence(self) -> np.ndarray:
        turns = np.r_[0.0, np.cumsum(self.angles[1:] < self.angles[:-1])]
        return self.u0 + ((self.angles - self.angles[0]) + _TAU * turns)


def _advance_sequence(table, caustic, u0, n):
    """Scalar iteration of the map: the n+1 tangency angles from u0, kept in [0, 2pi)."""
    a, b = table.a, table.b
    ac, bc = cg.caustic_axes(table, caustic)
    ac2, bc2 = ac * ac, bc * bc
    lam = caustic.lam
    # tan(delta) = sqrt(R^2 - 1), R^2 = x^2/a_c^2 + y^2/b_c^2 at P1(u) = (x, y).
    # With P1 from endpoint_coordinates and C, S = cos u, sin u this is
    #   tan(delta) = sqrt(lam) hypot(a b_c^2 C - b z S, b a_c^2 S + a z C) / d,
    #   z = sqrt(lam (b_c^2 C^2 + a_c^2 S^2)),  d = a^2 b_c^2 C^2 + b^2 a_c^2 S^2,
    # which keeps its relative accuracy as lam -> 0, where R -> 1 and acos(1/R)
    # would not.  _orbit certifies every step against the chord endpoints.
    sqrt_lam, abc2, bac2 = math.sqrt(lam), a * bc2, b * ac2
    a2bc2, b2ac2 = a * abc2, b * bac2
    cos, sin, sqrt, atan, hypot = math.cos, math.sin, math.sqrt, math.atan, math.hypot
    tau = _TAU
    us = np.empty(n + 1)
    u = float(u0)
    for i in range(n):
        us[i] = u
        C, S = cos(u), sin(u)
        z = sqrt(lam * (bc2 * C * C + ac2 * S * S))
        d = a2bc2 * C * C + b2ac2 * S * S
        u = u + 2.0 * atan(sqrt_lam * hypot(abc2 * C - b * z * S, bac2 * S + a * z * C) / d)
        if u >= tau:  # a step is below pi, so one turn at most; u - 2pi is exact
            u -= tau
    us[n] = u
    return us


def _composed_sequence(table, caustic, u0, n):
    """(angles, cos u, sin u) of the n+1 tangency points from u0, composed
    from two short runs; the angles lie in [-pi, pi].

    In t = F(u - pi/2 | s3), s3 = c^2/a_c^2, the map is the rotation
    t -> t + Delta, and the chord at u has (sn t, cn t, dn t) =
    (-cos u, sin u, sqrt(b_c^2 + c^2 sin^2 u)/a_c).  Two runs of the scalar
    loop, B ~ sqrt(n) bounces each, give the base u_0 ... u_{B-1} and, from
    u = pi/2 (t = 0), the jump state at t = B Delta.  The shifts S_j at
    t = j B Delta are j jumps chained by the addition theorem (DLMF 22.8.1-2),
    each link renormalized to sn^2 + cn^2 = 1 with dn^2 = b_c^2/a_c^2 + s3 cn^2,
    and point jB+i is base_i + S_j.  The theorem's common denominator
    1 - s3 sn^2 sn^2 is positive, so it drops out: point k is (-sn, cn) of
    the sum divided by its norm, and u_k is its rounded atan2 read.  The
    points are handed out with the angles, so their cosines and sines are
    never taken again.
    """
    ac, bc = cg.caustic_axes(table, caustic)
    c2 = table.c2
    s3, kp2 = c2 / (ac * ac), (bc * bc) / (ac * ac)
    runs = math.isqrt(n) + 1  # runs^2 > n, so runs * blocks >= n + 1
    blocks = -(-(n + 1) // runs)
    base = _advance_sequence(table, caustic, u0, runs - 1)
    sb, cb = -np.cos(base), np.sin(base)
    db = np.sqrt(bc * bc + c2 * cb * cb) / ac
    v = float(_advance_sequence(table, caustic, 0.5 * math.pi, runs)[-1])
    sj, cj = -math.cos(v), math.sin(v)
    dj = math.sqrt(bc * bc + c2 * cj * cj) / ac
    cjdj, sjdj = cj * dj, sj * dj
    shifts = []
    s, c, d = 0.0, 1.0, 1.0
    sqrt, hypot = math.sqrt, math.hypot
    for _ in range(blocks):
        shifts.append((s, c, d))
        s, c = s * cjdj + sj * c * d, c * cj - s * sjdj * d
        h = hypot(s, c)
        s, c = s / h, c / h
        d = sqrt(kp2 + s3 * c * c)
    ss, cs, ds = np.array(shifts).T
    sn = np.multiply.outer(cs * ds, sb) + np.multiply.outer(ss, cb * db)
    cn = np.multiply.outer(cs, cb) - np.multiply.outer(ss * ds, sb * db)
    cos_u, sin_u = np.negative(sn, out=sn).ravel()[: n + 1], cn.ravel()[: n + 1]
    angles = np.arctan2(sin_u, cos_u)
    norm = np.sqrt(cos_u * cos_u + sin_u * sin_u)
    cos_u /= norm
    sin_u /= norm
    return angles, cos_u, sin_u


@functools.lru_cache(maxsize=2)
def _orbit(table, caustic, u0, n):
    """The certified n-step orbit from u0 mod 2pi: read-only (angles,
    vertices, sin^2 u) of its n+1 tangency points.

    From _COMPOSE_MIN bounces the points are composed (_composed_sequence),
    each with its angle, its rounded atan2 read; below it the scalar loop runs
    and its angles are the points.  Either way they are certified as computed,
    never lifted, so each is rounded at ulp(2pi) at most and a far seed costs
    no precision: the chord at point k+1 must start where the chord at point k
    ends, P2 = P1 to _SHARE_TOL (compared squared), and u_{k+1} - u_k mod 2pi
    must lie in (0, pi); otherwise NumericalError.  Vertex 0 is P2 at point 0,
    vertex k+1 is P1 at point k (OrbitSample says how far a vertex read at the
    rounded angle moves).  sin^2 u of the points is kept for the samples that
    need it, so no caller takes a sine again.  Callers share the cached
    arrays, so they are handed out read-only.
    """
    r0 = u0 % _TAU % _TAU  # the second % maps 2 pi, rounded from a tiny negative u0, to 0
    if n >= _COMPOSE_MIN:
        angles, cos_u, sin_u = _composed_sequence(table, caustic, r0, n)
    else:
        angles = _advance_sequence(table, caustic, r0, n)
        cos_u, sin_u = np.cos(angles), np.sin(angles)
    # allocated before the endpoints' temporaries, so that the cached array
    # does not sit above their freed space: verify then peaks at 224-238 MB,
    # against 232-246 MB with it allocated after them
    vertices = np.empty((n + 1, 2))
    x1, y1, x2, y2 = cg._endpoints(table, caustic, cos_u, sin_u)
    del cos_u
    sin2 = np.square(sin_u, out=sin_u)
    vertices[0] = x2[0], y2[0]
    vertices[1:, 0], vertices[1:, 1] = x1[:-1], y1[:-1]
    # the squared gap from P2 at point k+1 to P1 at point k, formed in x2, y2
    gap, dy = x2[1:], y2[1:]
    gap -= x1[:-1]
    gap *= gap
    dy -= y1[:-1]
    dy *= dy
    gap += dy
    del x1, y1
    steps = angles[1:] - angles[:-1]
    steps += _TAU * (steps < 0.0)  # both angles lie in one interval of length 2pi
    ok = gap <= _SHARE_TOL**2
    ok &= steps > 0.0
    ok &= steps < math.pi
    if not ok.all():
        k = int(np.argmin(ok))  # the first failing step
        raise NumericalError(
            f"billiard step {k} failed at u={angles[k]}, lam={caustic.lam}: "
            f"endpoint-sharing residual {math.sqrt(gap[k]):.3e}, advance {float(steps[k])!r}"
        )
    for array in (angles, vertices, sin2):
        array.flags.writeable = False
    return angles, vertices, sin2


def iterate_orbit(table, caustic, u0: float, n: int) -> OrbitSample:
    """Iterate the billiard map n times from tangency parameter u0.

    Returns an OrbitSample with n+1 angles and n+1 vertices; vertex 0 is the
    backward endpoint P2(u0), vertex i+1 the forward endpoint P1(u_i), so the
    sample describes n chords.  The arrays are read-only.
    """
    if n < 1:
        raise DomainError(f"orbit length must be >= 1; got n={n}")
    angles, verts, _ = _orbit(table, caustic, float(u0), int(n))
    return OrbitSample(float(u0), angles, verts)


def rotation_number(table, caustic) -> float:
    """Exact rotation number rho = F(phi | s3) / (2 K(s3)), phi = arcsin(sqrt(lam)/b).

    In t = F(u - pi/2 | s3), s3 = c^2/(a^2 - lam), the billiard map is the
    rigid rotation t -> t + 2 F(phi | s3) and one turn of u is 4 K(s3)
    (Chang & Friedberg, J. Math. Phys. 29 (1988) 1537).  rho is the fraction
    of a turn per bounce; on the circle it is phi/pi.  s3 rounds toward 1 as
    a grows or lam -> b^2, so K is taken from the complementary parameter,
    ellipkm1(b_c^2/a_c^2), and phi as atan2(sqrt(lam), b_c), which keeps its
    digits near pi/2 where arcsin would not.  NumericalError where rho is not
    finite (a^2 overflows).
    """
    ac, bc = cg.caustic_axes(table, caustic)
    lam = caustic.lam
    s3 = table.c2 / (table.a * table.a - lam)
    phi = math.atan2(math.sqrt(lam), bc)
    rho = float(ellipkinc(phi, s3) / (2.0 * ellipkm1(bc * bc / (ac * ac))))
    if not math.isfinite(rho):
        raise NumericalError(f"rotation number {rho} at a={table.a}, b={table.b}, lam={lam}")
    return rho


def brentq(f, lo, hi, x0, anchor, tol, maxiter=100):
    """The root of the increasing function f on [lo, hi], from a first
    evaluation at x0 and a known point anchor = (x, f(x)).

    Secant steps, held in [lo, hi], run from the anchor through x0 until two
    points bracket the root; after _SECANT_STEPS of them, or at one that
    finds f not increasing, the end of [lo, hi] beyond the last point is
    evaluated instead.  Every evaluation at an end is the bracket check:
    ValueError unless f(lo) < 0 < f(hi), as scipy.optimize.brentq raises it.
    Then Brent's safeguard, as scipy runs it: a secant step while it stays
    inside the bracket and below half the step before last, bisection
    otherwise, so it cannot stall.  It returns the bracket's end with the
    smaller |f| once the bracket is narrower than tol(x) there, and raises
    NumericalError after maxiter evaluations of f.
    """
    evals = 0

    def evaluate(x):
        nonlocal evals
        if evals == maxiter:
            raise NumericalError(f"root solve did not converge in {maxiter} evaluations")
        evals += 1
        fx = f(x)
        if (x == lo and not fx < 0.0) or (x == hi and not fx > 0.0):
            raise ValueError(f"f has no sign change on [{lo!r}, {hi!r}]")
        return fx

    xpre, fpre = anchor
    xcur = min(max(x0, lo), hi)
    fcur = evaluate(xcur)
    bracketed = False
    for _ in range(_SECANT_STEPS):
        if fcur == 0.0 or bracketed:
            break
        slope = (fcur - fpre) / (xcur - xpre)
        if not slope > 0.0:
            break
        step, delta = -fcur / slope, 0.5 * tol(xcur)
        xpre, fpre = xcur, fcur
        xcur = min(max(xcur + (step if abs(step) > delta else math.copysign(delta, step)), lo), hi)
        fcur = evaluate(xcur)
        bracketed = (fcur > 0.0) != (fpre > 0.0)
    if fcur != 0.0 and not bracketed:
        xpre = lo if fcur > 0.0 else hi
        fpre = evaluate(xpre)
    # xblk is the bracket's other end; spre and scur, the steps before last and last
    xblk, fblk = xpre, fpre
    spre = scur = xcur - xpre
    while True:
        if (fpre > 0.0) != (fcur > 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * tol(xcur)
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            stry = -fcur * (xcur - xpre) / (fcur - fpre)
            bisect = not 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (sbis, sbis) if bisect else (scur, stry)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = evaluate(xcur)


def find_caustic_for_period(table, n: int) -> cg.CausticSpec:
    """Caustic parameter lam_n of the non-self-intersecting n-periodic family.

    Solves rotation_number(lam) = 1/n on (b^2 1e-9, b^2 (1 - 1e-9)), the
    degeneracy guard, in phi = atan2(sqrt(lam), b_c), so lam = b^2 sin^2 phi.
    rho is phi/pi on the circle and nearly linear in phi elsewhere, and
    since F(phi | m)/phi increases with phi, rho <= phi/pi: the root lies at
    or above pi/n, the circle's root.  brentq starts there, takes its first
    secant step from the exact rho(0) = 0 and stops within the tolerance of
    a solve in lam, 1e-15 b^2 + 8.9e-16 lam; on the poncelet benchmark's
    tables (a in [1, 5], n in [3, 40]) it evaluates rho 5.6 times per
    period on average and at most 15 times.  rho increases strictly with
    lam from 0; it tends to 1/2 as lam -> b^2, but for a > b only
    logarithmically, so at the upper guard it is below 1/2 (0.414 at a = 5)
    and periods n with 1/n above it are not bracketed: NumericalError, as
    where a solve does not converge.  The root is certified independently
    of the solve: the n-step orbit from u_0 = 0 must close after one turn,
    |u_n - u_0 - 2 pi| <= 1e-10, read off its angles and their count of
    wraps (by Poncelet it then closes from every seed).  On the circle
    lam_n = b^2 sin^2(pi/n) exactly.  The last two (table, n) solved are
    kept, so a caller that builds several seeds of one period solves it once.
    """
    if n < 3:
        raise DomainError(f"period must be >= 3; got n={n}")
    return _caustic_for_period(table, int(n))


@functools.lru_cache(maxsize=2)
def _caustic_for_period(table, n):
    """find_caustic_for_period's bracket, root solve and closure certificate."""
    b2 = table.b * table.b
    lo, hi = 1e-9 * b2, _DEGENERACY_GUARD * b2
    phi_lo, phi_hi = (math.atan2(math.sqrt(lam), math.sqrt(b2 - lam)) for lam in (lo, hi))

    def lam_at(phi):  # lo and hi at the ends of the bracket, where b^2 sin^2 may round off them
        if phi <= phi_lo or phi >= phi_hi:
            return lo if phi <= phi_lo else hi
        return min(max(b2 * math.sin(phi) ** 2, lo), hi)

    def tol(phi):
        # 8.9e-16 phi, or where that is finer than lam resolves, the phi-width of
        # 2.2e-16 lam (d lam/d phi = b^2 sin 2 phi): each keeps lam within the
        # tolerance of a solve in lam, 1e-15 b^2 + 8.9e-16 lam
        return max(8.9e-16 * phi, 1.1e-16 * math.tan(phi))

    def excess(phi):
        return rotation_number(table, cg.CausticSpec(lam_at(phi))) - 1.0 / n

    try:
        phi_n = brentq(excess, phi_lo, phi_hi, math.pi / n, (0.0, -1.0 / n), tol)
    except ValueError:
        raise NumericalError(
            f"failed to bracket the {n}-periodic caustic in (0, b^2) for a={table.a}, b={table.b}"
        ) from None
    caustic = cg.CausticSpec(lam_at(phi_n))
    angles = _orbit(table, caustic, 0.0, n)[0]
    wraps = int(np.count_nonzero(angles[1:] < angles[:-1]))  # a Python int: numpy scalar math is slow
    residual = abs(angles[-1] - angles[0] + _TAU * (wraps - 1))
    if residual > 1e-10:
        raise NumericalError(
            f"{n}-periodic closure defect {residual:.3e} at lam={caustic.lam}"
        )
    return caustic


TIME_AVERAGE_QUANTITIES = _CHORD_QUANTITIES


@functools.lru_cache(maxsize=2)
def _orbit_means(table, caustic, u0, n):
    """(mean over the first n chords, mean over the first half of them) of
    each per-chord sample, in TIME_AVERAGE_QUANTITIES order, from one pass of
    _chord_samples over the certified orbit.  Chord k joins vertex k to
    vertex k+1, which _orbit certified as P2 and P1 at point k, so each
    vertex's inverse focal product and kappa^(2/3) are evaluated once and
    read by both of its chords, with the points' sin^2 u: no endpoint, no
    boundary check and no trigonometric function is evaluated again."""
    _, vertices, sin2 = _orbit(table, caustic, u0, n)
    x, y = vertices[:, 0], vertices[:, 1]
    q, k = cg._inverse_focal_product(table, y), cg._curvature23_at(table, x, y)
    samples = _chord_samples(table, caustic, sin2[:n], q[1:], q[:-1], k[1:], k[:-1])
    full = np.mean(samples, axis=-1).tolist()
    half = np.mean(samples[:, : max(1, n // 2)], axis=-1).tolist()
    return tuple(zip(full, half))


def time_average(table, caustic, quantity: str, n: int, u0: float = 0.1) -> AverageResult:
    """Arithmetic mean of a per-chord quantity over the first n chords of an orbit.

    Each chord is evaluated at its tangency parameter; curvature23 means the
    average of kappa^(2/3) at the chord's two endpoints, the orbit's vertices.
    The error estimate is the drift between the half-orbit and full-orbit means.
    All four quantities of the last two orbits asked for are kept, so asking
    for the others costs no further pass over the orbit.
    """
    if quantity not in TIME_AVERAGE_QUANTITIES:
        raise DomainError(
            f"unknown quantity {quantity!r}; expected one of {TIME_AVERAGE_QUANTITIES}"
        )
    if n < 1:
        raise DomainError(f"orbit length must be >= 1; got n={n}")
    means = _orbit_means(table, caustic, float(u0), int(n))
    value, half = means[TIME_AVERAGE_QUANTITIES.index(quantity)]
    # equal means drift by 0, also where both are -inf (log|outer cosine| at ca = 0)
    err = abs(value - half) if value != half else 0.0
    return AverageResult(value, "time_average", err, caustic.lam)
