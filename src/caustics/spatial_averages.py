"""Measure-weighted spatial averages over a confocal caustic.

For any per-chord quantity g(u) the spatial average is

    gbar = (1/Z) integral_0^{2pi} g(u) rho(u) du,   Z = integral rho du,

with rho the invariant measure density from conic_geometry.  For an aperiodic
orbit this equals the asymptotic time average of g over the bounce sequence.
Mean sidelength and mean vertex cosine also admit closed forms in the complete
elliptic integrals K and Pi, and kappa^(2/3) follows from the cosine; the three
are evaluated together, once per caustic (_closed_forms), from the complements
1 - m and 1 - n in factored form, and both routes are cross-checked.  The
quadrature route integrates Z itself, so it evaluates no elliptic integral and
no closed form.
All four per-chord samples are evaluated together (_chord_samples), from one
cos u and sin u per node: the endpoint pass's chord factor w and each
endpoint's kappa^(2/3) and inverse focal product, and one
periodic_quadrature call per caustic integrates them all on one grid: each
average pairs its sample with Z and converges, or fails, on
its own.  The samples are pi-periodic, so the grid holds the chords at u in
[0, pi), each once.  Its first integrand call evaluates every level from 16
nodes up to the grid that the caustic's analyticity strip, atanh(b_c/a_c),
predicts: 256 nodes, or 512, 1024 or 2048 where the strip is narrower, and
every bulk-sweep caustic converges within its levels, 89% within 256.  The
first grids are prefixes of one node table in level order, taken once at
import with its trigonometry, so each level's new nodes are one contiguous
block of it; one loop reads the levels, each a numpy sum taken to Python
floats, and closes each group in plain float arithmetic.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import conic_geometry as cg
from .elliptic_integrals import complete_k_m1, complete_pi_minus_k_m1
from .errors import DomainError, NumericalError

__all__ = [
    "AverageResult",
    "periodic_quadrature",
    "normalization",
    "mean_sidelength",
    "mean_cosine",
    "mean_curvature23",
    "log_geomean_outer",
]

# Beyond this fraction of b^2 the cancellation in b_c = sqrt(b^2 - lam)
# dominates the integrands; reject rather than return garbage.
_DEGENERACY_GUARD = 1.0 - 1e-9

_QUAD_TOL = 1e-12
_MAX_NODES = 2**20
# periodic_quadrature's first integrand call evaluates a grid of at least
# this many nodes, which holds levels 16 through 256.  A call has a fixed
# cost (numpy dispatch) that its nodes add to, so evaluating ahead to 256
# wastes little and saves the level-by-level calls; a floor of 128 would
# give 13 of 2,048 bulk-sweep caustics a second call.
_FIRST_GRID = 256
# An integrand analytic in the strip |Im v| < s has a trapezoid error like
# e^(-s n), so the defect between n and n/2 nodes falls like e^(-s n/2), and
# ln(1/_QUAD_TOL) = 27.6.  The first grid is the least power of two from
# _FIRST_GRID up to _FIRST_CAP with s n/2 >= _STRIP_EXPONENT; on bulk-sweep's
# caustics that grid is where the defect first passes or one level past it,
# never short of it.  Past _FIRST_CAP the grid doubles from there: on
# grazing caustics the law often predicts one level too many, and a first
# call of 2^20 nodes doubled grazing-sweep's median op and added 90 MB to
# its peak memory.
_STRIP_EXPONENT = 29.0
_FIRST_CAP = 2048


def _new_nodes(level):
    """The nodes k 2pi/level that a level of the doubling adds: k = 0..15 at
    level 16, the odd k after it, which are the level's midpoints,
    np.linspace(0, 2pi, level, endpoint=False)[1::2] bit for bit, with no
    array of the level's size."""
    step = 1 if level == 16 else 2
    return np.arange(step - 1, level, step) * (2.0 * math.pi / level)


# The nodes of the largest first grid in level order, level 16's and then
# each next level's new nodes, so that every first grid of n nodes is the
# prefix [:n] and level m's new nodes are [m/2, m); with cos u and sin u at
# u = v/2 for _quadrature_averages.  Taken once, read-only.
_FIRST_NODES = np.concatenate([_new_nodes(16 << k) for k in range((_FIRST_CAP // 16).bit_length())])
_FIRST_TRIG = np.array([np.cos(0.5 * _FIRST_NODES), np.sin(0.5 * _FIRST_NODES)])
_FIRST_NODES.flags.writeable = _FIRST_TRIG.flags.writeable = False


@dataclass(frozen=True)
class AverageResult:
    """A scalar average, how it was obtained, and an absolute error estimate."""

    value: float
    method: str  # "quadrature" | "closed_form" | "time_average"
    err_estimate: float
    lam: float


def _check_caustic(table, caustic):
    ac, bc = cg.caustic_axes(table, caustic)  # raises outside (0, b^2)
    if caustic.lam > _DEGENERACY_GUARD * table.b**2:
        raise DomainError(
            f"lam={caustic.lam} exceeds b^2 (1 - 1e-9) = "
            f"{_DEGENERACY_GUARD * table.b**2}; spatial averages lose all "
            "precision this close to the degenerate caustic"
        )
    return ac, bc


def periodic_quadrature(f, strip=math.inf):
    """Trapezoid integrals over one period of a weight rho and k weighted
    integrands g_i rho, all smooth and 2pi-periodic.

    f(v), for an array v in [0, 2pi), returns shape (1 + k, len(v)): rho,
    then each g_i rho.  The grid doubles from 16 up to 2^20 nodes (the
    trapezoid rule converges spectrally on smooth periodic integrands).
    Group i pairs row 0 with row i + 1 and keeps the first level at which
    both defects (changes from the level before) are below _QUAD_TOL or
    either is NaN, so it gets what it would alone; doubling stops once every
    group has closed.  Returns the list of each group's (Z, integral g_i rho)
    and the list of its defects, the larger of the two, the last level's
    where it never closed, all Python floats.  Nothing raises; _average
    rejects an open or NaN defect.

    strip is the half-width s of the strip |Im v| < s where f is analytic
    (inf, the default, for none given).  It only sizes the first call, on
    the least power of two n from 256 to _FIRST_CAP with s n/2 >=
    _STRIP_EXPONENT, where the defect is predicted to pass; the defects alone
    decide every level, so the result is the same whatever strip says.

    The first call is on _FIRST_NODES[:n], n nodes in level order (the
    nodes of nested power-of-two grids coincide), whose columns [m/2, m)
    are level m's new nodes; each level past n is one call on its own new
    nodes.  Each level's sums are those of one call per level, bit for bit,
    taken to Python floats, and the recurrence, the defects and the closing
    of groups are a few float operations per level, read until every group
    has closed, so a caustic that closes below n sums no level above it.
    """
    n = _FIRST_GRID
    while n < _FIRST_CAP and 0.5 * n * strip < _STRIP_EXPONENT:
        n *= 2
    grid = f(_FIRST_NODES[:n])
    estimates = [s / 16.0 * 2.0 * math.pi for s in np.add.reduce(grid[:, :16], axis=-1).tolist()]
    values, defects = [None] * (len(grid) - 1), [None] * (len(grid) - 1)
    still_open, level = range(len(values)), 32
    while still_open and level <= _MAX_NODES:
        new = grid[:, level // 2:level] if level <= n else f(_new_nodes(level))
        sums = np.add.reduce(new, axis=-1).tolist()
        last, estimates = estimates, [s / (level // 2) * math.pi + 0.5 * e for s, e in zip(sums, estimates)]
        level *= 2
        z, change = estimates[0], abs(estimates[0] - last[0])
        kept = []
        for i in still_open:
            defect = abs(estimates[i + 1] - last[i + 1])
            if defect == defect and not defect > change:  # the larger, NaN if either is
                defect = change
            values[i], defects[i] = (z, estimates[i + 1]), defect
            if defect >= _QUAD_TOL:  # neither converged nor NaN
                kept.append(i)
        still_open = kept
    return values, defects


def normalization(table, caustic) -> float:
    """Total measure Z = integral rho du = 4 (a_c b_c)^(2/3) K(s3) / a_c, in closed form.

    The quadrature averages integrate their own Z and never call this; the
    verify battery and the tests check it against a quadrature of rho.  On
    the circle (s3 = 0) this reduces to 2pi (1-lam)^(1/6).
    """
    ac, bc = _check_caustic(table, caustic)
    return 4.0 * (ac * bc) ** (2.0 / 3.0) * complete_k_m1(bc * bc / (ac * ac)) / ac


# The per-chord samples behind the four averages, in the row order of
# _chord_samples; billiard_dynamics exports them as TIME_AVERAGE_QUANTITIES.
_CHORD_QUANTITIES = ("sidelength", "interior_cosine", "curvature23", "log_abs_outer_cosine")


def _chord_samples(table, caustic, w, q1, q2, k1, k2):
    """The per-chord g(u) of each average at the chords tangent at u, one row
    per _CHORD_QUANTITIES entry: chord length, interior cosine, the mean of
    kappa^(2/3) at the two endpoints and log|outer cosine| (-inf where ca = 0,
    at which the outer cosine vanishes identically).

    The chord factor w of the endpoint pass, the inverse focal products
    q1, q2 and kappa^(2/3) k1, k2 at P1(u) and P2(u) are what the caller has
    at hand: a quadrature grid takes cos u and sin u once for them, an orbit
    evaluates each certified vertex once and hands out w of its points.
    Every conic_geometry function is looked up at call time, so a wrapper
    bound there sees every call.
    """
    # filled row by row: built with np.array([...]) perfbench's ergodic-orbits
    # ran 784-816 against 849-905 ops/s (4 of 4 8 s pairs, 2 vCPUs)
    rows = np.empty((len(_CHORD_QUANTITIES),) + np.shape(w))
    rows[0] = cg._chord_length_at(table, caustic, w)
    cosine = np.add(q1, q2, out=rows[1])
    cosine *= caustic.lam
    cosine -= 1.0
    kappa = np.add(k1, k2, out=rows[2])
    kappa *= 0.5
    if cg._ca(table, caustic) == 0.0:
        rows[3] = -math.inf
    else:
        outer = np.abs(cg._outer_cosine_at(table, caustic, w), out=rows[3])
        np.log(outer, out=outer)
    return rows


@functools.lru_cache(maxsize=2)
def _quadrature_averages(table, caustic):
    """(average, error estimate, defect, Z) of each per-chord sample, in
    _CHORD_QUANTITIES order, from one periodic_quadrature call.

    The grid's rows are rho and each g_i rho, so average i is integral
    g_i rho over integral rho = Z on the same nodes, frozen at the first
    level where both defects are below _QUAD_TOL; its error estimate is
    defect / Z.  The chord at u + pi is the chord at u turned by pi, so the
    grid integrates each pi-periodic f as f(v/2) over v in [0, 2pi): n nodes,
    one per chord, give the 2n-node trapezoid of f.  Nothing here evaluates
    an elliptic integral, so this route stays independent of the closed
    forms.  At ca = 0, log|outer cosine| is -inf on every node: its row is
    left out of the grid and reads (-inf, 0.0, 0.0, None).
    """
    ac, bc = _check_caustic(table, caustic)
    rows = len(_CHORD_QUANTITIES) - (cg._ca(table, caustic) == 0.0)

    def weighted(v):
        if v.base is _FIRST_NODES:
            cos_u, sin_u = _FIRST_TRIG[0, :len(v)], _FIRST_TRIG[1, :len(v)]
        else:
            u = 0.5 * v
            cos_u, sin_u = np.cos(u), np.sin(u)
        (x, y), w = cg._endpoints(table, caustic, cos_u, sin_u)  # x, y: rows P1, P2
        q, k = cg._inverse_focal_product(table, y), cg._curvature23_at(table, x, y)
        samples = _chord_samples(table, caustic, w, q[0], q[1], k[0], k[1])
        grid = np.empty((1 + rows, len(v)))
        grid[0] = rho = cg._measure_density_at(table, caustic, w)
        np.multiply(samples[:rows], rho, out=grid[1:])
        return grid

    # rho and the samples are analytic in u out to |Im u| = atanh(b_c/a_c),
    # where w vanishes: in v = 2u, twice that (none on the circle)
    values, defects = periodic_quadrature(weighted, 2.0 * math.atanh(bc / ac) if bc < ac else math.inf)
    averages = tuple((raw / z, d / z, d, z) for (z, raw), d in zip(values, defects))
    return averages + ((-math.inf, 0.0, 0.0, None),) * (len(_CHORD_QUANTITIES) - rows)


@functools.lru_cache(maxsize=2)
def _closed_forms(table, caustic):
    """The closed form of each average in _CHORD_QUANTITIES order (None for
    log|outer cosine|, which has none yet), with s3 = c^2/(a^2 - lam) and
    K(s3) taken once for all three: a caustic makes three elliptic calls.
    kappa^(2/3) is as in mean_curvature23.  The sidelength of
    mean_sidelength, with Pi(s5, s3) = K + s5 H(s5, s3) and lam - b^2 =
    -b_c^2, is

        Lbar = 2a sqrt(lam) (K(s3) - r H(s5, s3)) / (b K(s3)),
        r = b_c^2 c^2/(a_c^2 b^2),

    whose two terms do not cancel as lam -> 0 (K - r H tends to E(s3)),
    where b^2 K + (lam - b^2) Pi cancels like 1/lam.  The mean cosine is

        Cbar = r1/r3 + (r2 r3 - r1 r4)/r3^2 * H(s2, s3) / K(s3),  s2 = -r4/r3,

    with H(n, m) = (Pi(n, m) - K(m))/n in its stable Carlson form and r1..r4
    the coefficients of interior_cosine(u) = (r1 + r2 z)/(r3 + r4 z) in
    z = cos^2 u:

        r1 = -ca (a^4 b_c^2 + lam^2 c^2)   r2 = ca c^2 (ca + 2 lam^2)
        r3 = q^2 a_c^2                     r4 = -c^2 ca^2,

    q = a^2 b^2 - lam c^2 = a^2 b_c^2 + lam b^2.  It rearranges
    (r1/r3)((s2 - s1) Pi(s2, s3) + s1 K)/(s2 K), s1 = -r2/r1, so that it stays
    finite at ca = 0, where r1, r2 and r4 vanish (Cbar = 0 there).

    Near the degenerate caustic s3, s5 and s2 all tend to 1, so the kernels
    take their complements in factored form: 1 - s3 = b_c^2/a_c^2,
    1 - s5 = a^2 b_c^2/(b^2 a_c^2) and 1 - s2 = b_c^2 (q^2 + 4 lam a^2 b^2
    c^2)/(q^2 a_c^2).  So does the cosine's coefficient, r2 r3 - r1 r4 =
    2 lam c^2 a_c^2 b_c^2 ca q (a^2 b^2 + lam c^2), which as a difference
    cancels from order 1 down to order b_c^2.
    """
    ac, bc = _check_caustic(table, caustic)
    a, b, lam, c2 = table.a, table.b, caustic.lam, table.c2
    ac2, bc2 = ac * ac, bc * bc
    m1 = bc2 / ac2  # 1 - s3
    k = complete_k_m1(m1)
    h5 = complete_pi_minus_k_m1(a * a * bc2 / (b * b * ac2), m1)
    sidelength = 2.0 * a * math.sqrt(lam) * (k - bc2 * c2 / (ac2 * b * b) * h5) / (b * k)
    ca = cg._ca(table, caustic)
    q = a * a * bc2 + lam * b * b
    r1 = -ca * (a**4 * bc2 + lam * lam * c2)
    r3 = q * q * ac2
    n1 = bc2 * (q * q + 4.0 * lam * a * a * b * b * c2) / r3
    coefficient = 2.0 * lam * c2 * bc2 * ca * (a * a * b * b + lam * c2) / (q * r3)  # (r2 r3 - r1 r4)/r3^2
    term = coefficient * complete_pi_minus_k_m1(n1, m1) / k
    cosine = r1 / r3 + term
    j = cg.joachimsthal(table, caustic)
    one_plus_cosine = 2.0 * lam * b * b / q + term if ca > 0.0 else 1.0 + cosine  # (r1 + r3)/r3 = 2 lam b^2/q
    curvature23 = (a * b) ** (-4.0 / 3.0) * one_plus_cosine / (2.0 * j * j)
    return sidelength, cosine, curvature23, None


def _average(table, caustic, method, quantity):
    """Route dispatch of the averages: the entry for quantity of the caustic's
    _closed_forms ("closed_form") or _quadrature_averages ("quadrature")
    record; NumericalError if its quadrature pair did not converge.  Each
    record checks its caustic as it is built; lru_cache keeps no exception,
    so a rejected caustic is checked, and rejected, on every call."""
    i = _CHORD_QUANTITIES.index(quantity)
    if method == "closed_form":
        return AverageResult(_closed_forms(table, caustic)[i], method, 0.0, caustic.lam)
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}")
    value, err, defect, _ = _quadrature_averages(table, caustic)[i]
    if math.isnan(defect):
        raise NumericalError("periodic quadrature estimate is NaN; refinement cannot converge")
    if not defect < _QUAD_TOL:
        raise NumericalError(
            f"periodic quadrature did not converge at {_MAX_NODES} nodes "
            f"(last defect {defect:.3e} > tol {_QUAD_TOL:.3e})"
        )
    return AverageResult(value, method, err, caustic.lam)


def mean_sidelength(table, caustic, method: str = "closed_form") -> AverageResult:
    """Measure-weighted mean chord length.

    closed_form: Lbar = 2a (b^2 K(s3) + (lam - b^2) Pi(s5, s3)) / (b sqrt(lam) K(s3)),
                 with s3 = c^2/(a^2 - lam) and s5 = lam s3/b^2, evaluated
                 as 2a sqrt(lam) (K - r H(s5, s3)) / (b K) with H = (Pi -
                 K)/s5 and r = b_c^2 c^2/(a_c^2 b^2), which does not cancel
                 as lam -> 0.
    quadrature:  integral of chord_length(u) rho(u) du / integral rho(u) du.
    The two agree to 1e-9 relative; on the circle both reduce to 2 sqrt(lam).
    """
    return _average(table, caustic, method, "sidelength")


def mean_cosine(table, caustic, method: str = "closed_form") -> AverageResult:
    """Measure-weighted mean interior vertex cosine.

    quadrature route integrates the geometric interior_cosine; the closed form
    in K and Pi, written out in _closed_forms, is 0 at ca = 0.  On the circle
    Cbar = 2 lam - 1 exactly.
    """
    return _average(table, caustic, method, "interior_cosine")


def mean_curvature23(table, caustic, method: str = "quadrature") -> AverageResult:
    """Measure-weighted mean of kappa^(2/3) at the chord endpoints.

    quadrature route integrates the mean of curvature23 at the two endpoints of
    the chord at u.  closed_form uses the linear identity
    kappa23bar = (a b)^(-4/3) (1 + Cbar) / (2 J^2) with the closed-form Cbar
    of _closed_forms.  As lam -> 0, Cbar -> -1 and 1 + Cbar cancels, so
    where ca > 0 it is formed as 2 lam b^2/q + (r2 r3 - r1 r4)/r3^2 *
    H(s2, s3)/K(s3), two positive terms, since r1 + r3 = 2 lam b^2 a_c^2 q;
    where ca <= 0, Cbar >= 0 and 1 + Cbar is formed as it reads.
    """
    return _average(table, caustic, method, "curvature23")


def log_geomean_outer(table, caustic) -> tuple[float, int]:
    """Log of the geometric mean of |outer cosine|, plus a sign.

    Returns (log_mean, sign) where exp(log_mean) is the measure-weighted
    geometric mean of |cos theta'| and sign = -sign(ca) with
    ca = a^2 b^2 - lam (a^2 + b^2): the outer polygon's interior angle is the
    supplement of the angle between the boundary normals, so its cosine has
    the opposite sign.  At ca = 0 the outer cosine vanishes identically and
    the result is (-inf, 0), meaning geometric mean 0.
    """
    value = _average(table, caustic, "quadrature", "log_abs_outer_cosine").value
    ca = cg._ca(table, caustic)
    return value, int(ca < 0.0) - int(ca > 0.0)  # ca may be a numpy float, whose bools do not subtract
