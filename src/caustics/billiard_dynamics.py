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
more bounces is composed in three levels from two ~cbrt(n)-bounce runs of the
step by the addition theorem of sn, cn, dn (_composed_sequence).  Every
orbit, composed or scalar, is certified step by step by _orbit on its points
(cos u, sin u) and angles mod 2pi, whose cosines and sines are taken once;
the monotone lift u_sequence is derived from the angles where it is read.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
_MAX_EVALS = 100  # brentq's evaluations of f before it gives up
_COMPOSE_MIN = 120  # orbit length from which composing wins; measured break-even 110-120
_AGM_TOL = 2.0**-30  # c/a at which rotation_number's mean stops; the steps left move rho < 2^-60
_AGM_STEPS = 30  # the least k', 5e-324, takes 12 steps; more means a runaway mean


@dataclass(frozen=True, eq=False)
class OrbitSample:
    """A simulated orbit: certified tangency angles and boundary vertices.

    angles[i] is the tangency parameter of the i-th chord mod 2pi, as the
    orbit was certified; vertex_sequence[i] is the vertex shared by chords
    i-1 and i, so chord i joins vertex i to vertex i+1.  Vertex i+1 is P1 at
    the orbit's point i, whose angle is its rounded read: on a composed orbit
    (_COMPOSE_MIN bounces or more) the vertex read at the angle instead moves
    by up to 5.0e-12 at a = 20, lam = b^2 (1 - 1e-6), against the orbit's own
    error of 2.5e-9 there (1,500 bounces, 40-digit reference).  Both arrays have
    length n+1 for an n-step orbit and are read-only: vertex_sequence, of
    shape (n+1, 2), is the transposed view of the orbit's cached vertices,
    which are kept as two contiguous rows x and y.  u_sequence, built on
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
    #   z = sqrt(lam w),  d = D,
    # in the chord factors of conic_geometry._endpoints, w = b_c^2 C^2 + a_c^2 S^2
    # and D = a^2 b_c^2 C^2 + b^2 a_c^2 S^2.  This keeps its relative accuracy
    # as lam -> 0, where R -> 1 and acos(1/R) would not.  _orbit certifies
    # every step against the chord endpoints.
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


def _addition_chain(jump, links, s3, kp2):
    """(sn, cn, dn) at t = 0, h, 2h, ..., links h, as three arrays, from
    jump = (sn, cn, dn) at h: links steps of the addition theorem (DLMF
    22.8.1-2), each renormalized to sn^2 + cn^2 = 1 with dn^2 = kp2 + s3 cn^2,
    kp2 = b_c^2/a_c^2.  The theorem's common denominator 1 - s3 sn^2 sn^2 is
    positive, so the renormalization drops it."""
    sj, cj, dj = jump
    cjdj, sjdj = cj * dj, sj * dj
    s, c, d = 0.0, 1.0, 1.0
    states = [(s, c, d)]
    sqrt, hypot = math.sqrt, math.hypot
    for _ in range(links):
        s, c = s * cjdj + sj * c * d, c * cj - s * sjdj * d
        h = hypot(s, c)
        s, c = s / h, c / h
        d = sqrt(kp2 + s3 * c * c)
        states.append((s, c, d))
    return np.array(states).T


def _sums(shifts, points):
    """(sn, cn) at every sum of a shift (rows) and a point (columns), each
    given as (sn, cn, dn), by the addition theorem without its common
    denominator: each pair is off by that positive factor until normalized.

    Each is one two-term contraction of a (shifts, 2) and a (2, points)
    operand, written into two small arrays:

        sn = [cs ds, ss] . [sp; cp dp],    cn = [cs, -ss ds] . [cp; sp dp],

    so the two results are the only arrays of the orbit's size.  Plain
    einsum sums p0 + p1 of the two rounded products, as the outer products
    did, bit for bit; with optimize it would call BLAS, whose first GEMM
    maps OpenBLAS's buffer."""
    ss, cs, ds = shifts
    sp, cp, dp = points
    # written with out=, as _advances is: without it perfbench's ergodic-orbits
    # ran fewer ops in 4 of 4 pairs (826-980 against 852-1,020 ops/s; 8 s, 2 vCPUs)
    lhs, rhs = np.empty((len(ss), 2)), np.empty((2, len(sp)))
    np.multiply(cs, ds, out=lhs[:, 0])
    lhs[:, 1] = ss
    rhs[0] = sp
    np.multiply(cp, dp, out=rhs[1])
    sn = np.einsum("ik,kj->ij", lhs, rhs)
    lhs[:, 0] = cs
    np.multiply(ss, ds, out=lhs[:, 1])
    np.negative(lhs[:, 1], out=lhs[:, 1])
    rhs[0] = cp
    np.multiply(sp, dp, out=rhs[1])
    cn = np.einsum("ik,kj->ij", lhs, rhs)
    return sn, cn


def _composed_sequence(table, caustic, u0, n):
    """(angles, cos u, sin u) of the n+1 tangency points from u0, composed
    in three levels from two short runs; the angles lie in [-pi, pi].

    In t = F(u - pi/2 | s3), s3 = c^2/a_c^2, the map is the rotation
    t -> t + Delta, and the chord at u has (sn t, cn t, dn t) =
    (-cos u, sin u, sqrt(b_c^2 + c^2 sin^2 u)/a_c).  With r the whole part
    of the cube root of n+1 plus one, so r^3 >= n+1, two runs of the scalar
    loop give the base u_0 ... u_{r-1} and, from u = pi/2 (t = 0), the jump
    state at t = r Delta.  A chain of r addition-theorem links from it
    (_addition_chain) gives the shifts at t = j r Delta, j < r, which put on
    the base give the r^2 points j r + i (_sums), each normalized and given
    its dn, and with its last link the jump at r^2 Delta.  A chain of
    T - 1 <= r - 1 such jumps, T = ceil((n+1)/r^2), gives the top shifts,
    and point J r^2 + k is point k of the r^2 plus top shift J.  Each
    (-sn, cn) is divided by its norm, and u_k is its rounded atan2 read:
    the points are handed out with the angles, so their cosines and sines
    are never taken again.  In all, 2r - 1 scalar steps and r + T - 1 links,
    at most 4r - 2 Python steps against about 3 sqrt(n) for two levels.
    """
    ac, bc = cg.caustic_axes(table, caustic)
    s3, kp2 = table.c2 / (ac * ac), (bc * bc) / (ac * ac)
    r = int((n + 1) ** (1.0 / 3.0)) + 1  # r^3 >= n + 1, so the top chain takes at most r states
    base = _advance_sequence(table, caustic, u0, r - 1)
    sb, cb = -np.cos(base), np.sin(base)
    v = float(_advance_sequence(table, caustic, 0.5 * math.pi, r)[-1])
    cj = math.sin(v)
    ss, cs, ds = _addition_chain((-math.cos(v), cj, math.sqrt(kp2 + s3 * cj * cj)), r, s3, kp2)
    sm, cm = _sums((ss[:-1], cs[:-1], ds[:-1]), (sb, cb, np.sqrt(kp2 + s3 * cb * cb)))
    sm, cm = sm.ravel(), cm.ravel()
    h = np.hypot(sm, cm)
    sm /= h
    cm /= h
    tops = _addition_chain((ss[-1], cs[-1], ds[-1]), -(-(n + 1) // (r * r)) - 1, s3, kp2)
    sn, cn = _sums(tops, (sm, cm, np.sqrt(kp2 + s3 * cm * cm)))
    # shrunk in place to the n+1 points: read through slices, ergodic-orbits'
    # op_tail was 1.39-1.47 against 1.10-1.16 ms (4 of 4 8 s pairs, 2 vCPUs)
    sn.resize(n + 1, refcheck=False)
    cn.resize(n + 1, refcheck=False)
    cos_u, sin_u = np.negative(sn, out=sn), cn
    norm = np.multiply(cos_u, cos_u)
    angles = np.multiply(sin_u, sin_u)  # sin^2 u until the angles are read
    norm += angles
    np.sqrt(norm, out=norm)
    np.arctan2(sin_u, cos_u, out=angles)
    cos_u /= norm
    sin_u /= norm
    return angles, cos_u, sin_u


@functools.lru_cache(maxsize=2)
def _orbit(table, caustic, u0, n):
    """The certified n-step orbit from u0 mod 2pi: read-only (angles,
    vertices, w) of its n+1 tangency points, w the endpoint pass's chord
    factor b_c^2 cos^2 u + a_c^2 sin^2 u.

    From _COMPOSE_MIN bounces the points are composed (_composed_sequence),
    each with its angle, its rounded atan2 read; below it the scalar loop runs
    and its angles are the points.  Either way they are certified as computed,
    never lifted, so each is rounded at ulp(2pi) at most and a far seed costs
    no precision: the chord at point k+1 must start where the chord at point k
    ends, P2 = P1 to _SHARE_TOL (compared squared), and u_{k+1} - u_k mod 2pi
    must lie in (0, pi), which _advances asks of the raw difference by plain
    comparisons, exactly as a wrap of a negative one by 2pi would; otherwise
    NumericalError.  The vertices are planar, (2, n+1) rows x and y, so the
    per-vertex forms read contiguous rows: vertex 0 is P2 at point 0, vertex
    k+1 is P1 at point k (OrbitSample says how far a vertex read at the
    rounded angle moves).  w of the points is kept for the samples that read
    it, so no caller forms it or takes a sine again.  Callers share the
    cached arrays, so they are handed out read-only.

    The maxsize=2 cache also holds up ergodic throughput: its arrays keep
    glibc's heap grown between ops, and without it perfbench's
    ergodic-orbits ran 574-605 against 838-926 ops/s (maxsize=1: 748-863
    against 902-933; 8 s pairs, 2 vCPUs).  It costs memory: the two cached
    10^6-bounce orbits are 61 MB of verify's 176 MB peak (115 MB without it).
    """
    r0 = u0 % _TAU % _TAU  # the second % maps 2 pi, rounded from a tiny negative u0, to 0
    if n >= _COMPOSE_MIN:
        angles, cos_u, sin_u = _composed_sequence(table, caustic, r0, n)
    else:
        angles = _advance_sequence(table, caustic, r0, n)
        cos_u, sin_u = np.cos(angles), np.sin(angles)
    ends, w = cg._endpoints(table, caustic, cos_u, sin_u)  # rows x, y of (P1, P2)
    del cos_u, sin_u
    # allocated once the endpoint pass has freed its temporaries: verify then
    # peaks at 177 MB, against 184 MB with it allocated before the pass
    vertices = np.empty((2, n + 1))
    vertices[:, 0] = ends[:, 1, 0]
    vertices[:, 1:] = ends[:, 0, :-1]
    # the squared gap from P2 at point k+1 to P1 at point k, formed in P2's rows
    delta = ends[:, 1, 1:]
    delta -= vertices[:, 1:]
    delta *= delta
    gap = np.add(delta[0], delta[1], out=delta[0])
    steps = angles[1:] - angles[:-1]
    ok = _advances(steps)
    if not (ok.all() and np.maximum.reduce(gap) <= _SHARE_TOL**2):  # NaN fails too
        ok &= gap <= _SHARE_TOL**2
        k = int(np.argmin(ok))  # the first failing step
        step = float(steps[k])
        if step < 0.0:  # both angles lie in one interval of length 2pi
            step += _TAU
        raise NumericalError(
            f"billiard step {k} failed at u={angles[k]}, lam={caustic.lam}: "
            f"endpoint-sharing residual {math.sqrt(gap[k]):.3e}, advance {step!r}"
        )
    for array in (angles, vertices, w):
        array.flags.writeable = False
    return angles, vertices, w


def _advances(steps):
    """Whether each d in steps, the difference angle[k+1] - angle[k] of two
    angles that lie in one interval of length 2pi, advances by (0, pi) mod
    2pi, as a boolean array: by plain comparisons, 0 < d < pi or
    -2pi < d < -pi.

    That is the wrap of a negative d by 2pi followed by 0 < d < pi, exactly:
    on [-2pi, -pi] the sum d + 2pi is exact (Sterbenz's lemma), and elsewhere
    rounding cannot carry it across an end of (0, pi).  NaN fails."""
    ok = steps > 0.0
    test = steps >= -math.pi  # reused with out=, for the reason _sums gives
    np.equal(ok, test, out=ok)  # forward, or back by more than pi: a turn
    ok &= np.less(steps, math.pi, out=test)
    ok &= np.greater(steps, -_TAU, out=test)
    return ok


def _whole(n, least, what):
    """n as an int; DomainError unless n is a whole number >= least (4.0 is
    one; 3.5, nan and inf are not)."""
    if not n >= least or n % 1:
        raise DomainError(f"{what} must be an integer >= {least}; got n={n}")
    return int(n)


def _seed(u0):
    """u0 as a float; DomainError unless it is finite (1e300 is; nan and inf
    are not, and would fail as a degenerate chord)."""
    u0 = float(u0)
    if not math.isfinite(u0):
        raise DomainError(f"seed u0 must be a finite number; got u0={u0}")
    return u0


def iterate_orbit(table, caustic, u0: float, n: int) -> OrbitSample:
    """Iterate the billiard map n times from tangency parameter u0.

    Returns an OrbitSample with n+1 angles and n+1 vertices; vertex 0 is the
    backward endpoint P2(u0), vertex i+1 the forward endpoint P1(u_i), so the
    sample describes n chords.  The arrays are read-only; vertex_sequence is
    the (n+1, 2) transposed view of the cached orbit's two vertex rows.
    DomainError unless u0 is finite and n a whole number >= 1.
    """
    u0 = _seed(u0)
    angles, verts, _ = _orbit(table, caustic, u0, _whole(n, 1, "orbit length"))
    return OrbitSample(u0, angles, verts.T)


def rotation_number(table, caustic) -> float:
    """Exact rotation number rho = F(phi | s3) / (2 K(s3)), phi = arcsin(sqrt(lam)/b).

    In t = F(u - pi/2 | s3), s3 = c^2/(a^2 - lam), the billiard map is the
    rigid rotation t -> t + 2 F(phi | s3) and one turn of u is 4 K(s3)
    (Chang & Friedberg, J. Math. Phys. 29 (1988) 1537).  rho is the fraction
    of a turn per bounce; on the circle it is phi/pi.

    Both integrals come from one arithmetic-geometric mean, a_0 = 1 and
    g_0 = k' = b_c/a_c, fed the complementary modulus directly since s3
    rounds toward 1 as a grows or lam -> b^2.  Its descending Landen steps
    (DLMF 19.8; Bulirsch, Numer. Math. 7 (1965) 78) carry the amplitude as
    phi_{n+1} = phi_n + arctan((g_n/a_n) tan phi_n), continued, so that
    F(phi | s3) = phi_N / (2^N a_N) and K(s3) = pi / (2 a_N): rho is
    phi_N / (2^N pi) and a_N drops out.  phi_n is kept as a whole number of
    half turns and a direction (x, y), rescaled each step, never as an angle
    (an angle near pi/2 would lose the digits of tan phi = sqrt(lam)/b_c),
    and c = (a - g)/2 is carried as c_{n+1} = c_n^2 / (4 a_{n+1}), which
    keeps its digits where a - g would cancel.  The steps stop once
    c/a <= _AGM_TOL, and the last one is applied to the angle in closed form,
    so the steps left out move rho by below 2^-60 relative: rho stays smooth
    where a solve meets a change in the step count, and the circle (c = 0)
    takes no step at all.  Measured within 7.1e-16 of 40-digit values for
    a in [1.0001, 1e8] and lam from 1e-9 b^2 out to the degeneracy guard
    (scipy's ellipkinc over ellipkm1 was 1.1e-9 off).  NumericalError where
    rho is not finite (a^2 overflows) or the mean does not settle within
    _AGM_STEPS steps.
    """
    ac, bc = cg.caustic_axes(table, caustic)
    a_t, b_t = table.a, table.b
    g = bc / ac
    if not g > 0.0:  # a_c overflowed with a^2
        raise NumericalError(f"rotation number is not finite at a={a_t}, b={b_t}, lam={caustic.lam}")
    c = 0.5 * (1.0 - g)
    x, y = bc, math.sqrt(caustic.lam)
    a, turns, n = 1.0, 0, 0
    sqrt = math.sqrt
    while c > _AGM_TOL * a:
        if n == _AGM_STEPS:
            raise NumericalError(
                f"rotation number: the mean did not settle at a={a_t}, b={b_t}, lam={caustic.lam}"
            )
        xx, yy = x * x, y * y
        h = 1.0 / (xx + yy)
        # (x, y) -> (a x^2 - g y^2, (a + g) x y) doubles the angle less the
        # Landen correction; past pi/2 the direction is turned back by pi
        if x > 0.0:
            x, y = (a * xx - g * yy) * h, (a + g) * x * y * h
            turns += turns
        else:
            x, y = (g * yy - a * xx) * h, -(a + g) * x * y * h
            turns += turns + 1
        a, g = 0.5 * (a + g), sqrt(a * g)
        c = c * c / (2.0 * (a + g))
        n += 1
    angle = math.atan2(y, x) - math.atan2(c * x * y, a * x * x + g * y * y)
    rho = (turns + angle / math.pi) / (1 << n)
    if not math.isfinite(rho):
        raise NumericalError(f"rotation number {rho} at a={a_t}, b={b_t}, lam={caustic.lam}")
    return rho


def brentq(f, lo, hi, x0, anchor, tol):
    """The root of the increasing function f on [lo, hi], from a first
    evaluation at x0 and a known point anchor = (x, f(x)) below the root.

    One bracketed secant iteration (regula falsi with the Illinois
    modification: Dowell & Jarratt, BIT 11 (1971) 168).  While every point
    lies below the root, secant steps run from the anchor through x0; a slope
    that is not positive sends the next step to hi.  Once a point lands above
    the root, each step is regula falsi between the newest point and the
    other end of the bracket, and where the newest point falls on the side
    of the one before, the kept end's f is halved in the step, so that end
    cannot stall.  Every step moves at least tol(x)/2 and stays in [lo, hi].
    Every evaluation at an end is the bracket check: ValueError unless
    f(lo) < 0 < f(hi).  It returns the bracket's end with the smaller true
    |f| once the bracket is narrower than tol(x) there, and raises
    NumericalError after _MAX_EVALS evaluations of f.  The name stays from
    the Brent solver this replaced, since the benchmark's tracer binds it.
    """
    evals = 0

    def evaluate(x):
        nonlocal evals
        if evals == _MAX_EVALS:
            raise NumericalError(f"root solve did not converge in {_MAX_EVALS} evaluations")
        evals += 1
        fx = f(x)
        if (x == lo and not fx < 0.0) or (x == hi and not fx > 0.0):
            raise ValueError(f"f has no sign change on [{lo!r}, {hi!r}]")
        return fx

    # (xb, fb) is the newest point; (xa, fa) the one before or, once they
    # bracket the root, its other end, whose f enters the step as wa
    xa, fa = anchor
    wa = fa
    xb = min(max(x0, lo), hi)
    fb = evaluate(xb)
    while fb != 0.0:
        bracketed = (fa > 0.0) != (fb > 0.0)
        if bracketed:
            best = xb if abs(fb) <= abs(fa) else xa
            if abs(xb - xa) < tol(best):
                return best
        slope = (fb - wa) / (xb - xa)
        if bracketed or slope > 0.0:
            step, delta = -fb / slope, 0.5 * tol(xb)
            x = min(max(xb + (step if abs(step) > delta else math.copysign(delta, step)), lo), hi)
        else:
            x = hi
        fx = evaluate(x)
        if bracketed and (fx > 0.0) == (fb > 0.0):
            wa *= 0.5
        else:
            xa, fa, wa = xb, fb, fb
        xb, fb = x, fx
    return xb


def find_caustic_for_period(table, n: int) -> cg.CausticSpec:
    """Caustic parameter lam_n of the non-self-intersecting n-periodic family.

    Solves rotation_number(lam) = 1/n on (b^2 1e-9, b^2 (1 - 1e-9)), the
    degeneracy guard, in phi = atan2(sqrt(lam), b_c), so lam = b^2 sin^2 phi.
    rho is phi/pi on the circle and nearly linear in phi elsewhere, and
    since F(phi | m)/phi increases with phi, rho <= phi/pi: the root lies at
    or above pi/n, the circle's root.  brentq starts there, takes its first
    secant step from the exact rho(0) = 0 and stops within the tolerance of
    a solve in lam, 1e-15 b^2 + 8.9e-16 lam; on the poncelet benchmark's
    tables (a in [1, 5], n in [3, 40]) it evaluates rho 5.7 times per
    period on average and at most 14 times.  rho increases strictly with
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
    return _caustic_for_period(table, _whole(n, 3, "period"))


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
    read by both of its chords, with the points' w: no endpoint, no
    boundary check and no trigonometric function is evaluated again."""
    _, (x, y), w = _orbit(table, caustic, u0, n)
    q, k = cg._inverse_focal_product(table, y), cg._curvature23_at(table, x, y)
    samples = _chord_samples(table, caustic, w[:n], q[1:], q[:-1], k[1:], k[:-1])
    m = max(1, n // 2)
    full = (np.add.reduce(samples, axis=-1) / n).tolist()  # np.mean's sum and division
    half = (np.add.reduce(samples[:, :m], axis=-1) / m).tolist()
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
    means = _orbit_means(table, caustic, _seed(u0), _whole(n, 1, "orbit length"))
    value, half = means[TIME_AVERAGE_QUANTITIES.index(quantity)]
    # equal means drift by 0, also where both are -inf (log|outer cosine| at ca = 0)
    err = abs(value - half) if value != half else 0.0
    return AverageResult(value, "time_average", err, caustic.lam)
