"""Measure-weighted spatial averages over a confocal caustic.

For any per-chord quantity g(u) the spatial average is

    gbar = (1/Z) integral_0^{2pi} g(u) rho(u) du,   Z = integral rho du,

with rho the invariant measure density from conic_geometry.  For an aperiodic
orbit this equals the asymptotic time average of g over the bounce sequence.
Mean sidelength and mean vertex cosine also admit closed forms in the complete
elliptic integrals K and Pi, and kappa^(2/3) follows from the cosine; the three
are evaluated together, once per caustic (_closed_forms), and both routes are
cross-checked.  The quadrature route integrates Z itself, so it evaluates no
elliptic integral and no closed form.
All four per-chord samples are evaluated together (_chord_samples), and one
periodic_quadrature call per caustic integrates them all on one grid: each
average pairs its sample with Z and converges, or fails, on its own.  That
call evaluates its first six levels (16 to 512 nodes) in one integrand call,
and most caustics converge within them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import conic_geometry as cg
from .elliptic_integrals import complete_k, complete_pi, complete_pi_minus_k
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
# periodic_quadrature's first integrand call evaluates this grid, which holds
# levels 16 through 512.  Below about 1,000 nodes a call costs nearly the same
# whatever its size (numpy dispatch, not nodes), and of bulk-sweep's caustics
# 55% converge by 256 nodes, 34% at 512 and 11% beyond, so evaluating ahead
# to 512 wastes little and saves the level-by-level calls.
_FIRST_GRID = 512


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


def periodic_quadrature(f):
    """Integrate smooth 2pi-periodic functions over one period.

    Composite trapezoid on uniform grids, doubling from 16 up to 2^20 nodes
    until successive estimates differ by less than _QUAD_TOL (the trapezoid rule
    converges spectrally for smooth periodic integrands, so doubling is the
    whole refinement strategy).  Returns (value, last defect).

    The first call of f evaluates the _FIRST_GRID = 512 nodes, which hold
    every level from 16 to 512; the doubling reads those levels off strided
    slices of it, each summed as a contiguous copy, so every estimate is bit
    for bit what one call per level would give.  Past 512 nodes each level
    calls f on its midpoints only.

    f : vectorized callable on arrays of u in [0, 2pi).  It returns shape
        (len(u),) for one integral, (m, len(u)) for m integrals that converge
        together (the defect is the largest of theirs), or (k, m, len(u)) for
        k such groups on one grid.  Each group keeps the values and defect of
        the first level at which all its defects are below _QUAD_TOL, so it
        gets what it would get alone; doubling stops once every group has.
        value has f's leading shape, the defect one entry per group.  A lone
        group that has not converged at 2^20 nodes raises NumericalError; one
        of k groups is returned with its last defect, for the caller to reject.
    """
    grid = f(np.linspace(0.0, 2.0 * math.pi, _FIRST_GRID, endpoint=False))
    n = 16
    # each level is summed as a fresh contiguous array: numpy may add the
    # elements of a strided view in another order
    value = np.mean(np.ascontiguousarray(grid[..., :: _FIRST_GRID // n]), axis=-1) * 2.0 * math.pi
    shape = value.shape
    value = value.reshape(-1, shape[-1] if shape else 1)  # groups x integrals
    result, defect = value.copy(), np.full(len(value), np.inf)
    while n < _MAX_NODES and not np.all(defect < _QUAD_TOL):
        if 2 * n <= _FIRST_GRID:
            stride = _FIRST_GRID // n
            at_midpoints = np.ascontiguousarray(grid[..., stride // 2 :: stride])
        else:
            at_midpoints = f(np.linspace(0.0, 2.0 * math.pi, 2 * n, endpoint=False)[1::2])
        refined = 0.5 * value + np.mean(at_midpoints, axis=-1).reshape(value.shape) * math.pi
        still_open = ~(defect < _QUAD_TOL)  # a NaN defect never converges
        result[still_open] = refined[still_open]
        defect[still_open] = np.max(np.abs(refined - value), axis=-1)[still_open]
        value, n = refined, 2 * n
    result, defect = result.reshape(shape)[()], defect.reshape(shape[:-1])[()]
    if np.ndim(defect) == 0 and not defect < _QUAD_TOL:
        raise _not_converged(defect)
    return result, defect


def _not_converged(defect):
    return NumericalError(
        f"periodic quadrature did not converge at {_MAX_NODES} nodes "
        f"(last defect {defect:.3e} > tol {_QUAD_TOL:.3e})"
    )


def normalization(table, caustic) -> float:
    """Total measure Z = integral rho du = 4 (a_c b_c)^(2/3) K(s3) / a_c, in closed form.

    The quadrature averages integrate their own Z and never call this; the
    verify battery and the tests check it against a quadrature of rho.  On
    the circle (s3 = 0) this reduces to 2pi (1-lam)^(1/6).
    """
    ac, bc = _check_caustic(table, caustic)
    return 4.0 * (ac * bc) ** (2.0 / 3.0) * complete_k(table.c2 / (ac * ac)) / ac


# The per-chord samples behind the four averages, in the row order of
# _chord_samples; billiard_dynamics exports them as TIME_AVERAGE_QUANTITIES.
_CHORD_QUANTITIES = ("sidelength", "interior_cosine", "curvature23", "log_abs_outer_cosine")


def _chord_samples(table, caustic, u, p1, p2):
    """The per-chord g(u) of each average at the chords tangent at u, one row
    per _CHORD_QUANTITIES entry: chord length, interior cosine, the mean of
    kappa^(2/3) at the two endpoints and log|outer cosine| (-inf where ca = 0).

    p1 and p2, shape (len(u), 2), are the endpoints P1(u) and P2(u), which the
    caller has at hand: the quadrature route from endpoint_coordinates, an
    orbit from its certified vertices.  Every conic_geometry function is looked
    up at call time, so a wrapper bound there sees every call.
    """
    rows = np.empty((len(_CHORD_QUANTITIES),) + np.shape(u))
    rows[0] = cg.chord_length(table, caustic, u)
    rows[1] = cg._interior_cosine_at(table, caustic, p1[:, 1], p2[:, 1])
    rows[2] = cg.curvature23(table, p1)
    rows[2] += cg.curvature23(table, p2)
    rows[2] *= 0.5
    with np.errstate(divide="ignore"):
        rows[3] = np.log(np.abs(cg.outer_cosine(table, caustic, u)))
    return rows


@functools.lru_cache(maxsize=2)
def _quadrature_averages(table, caustic):
    """(average, error estimate, defect, Z) of each per-chord sample, in
    _CHORD_QUANTITIES order, from one periodic_quadrature call.

    Group i pairs rho with g_i rho, so average i is integral g_i rho over
    integral rho = Z on the same nodes, frozen at the first level where both
    defects are below _QUAD_TOL; its error estimate is defect / Z.  Nothing
    here evaluates an elliptic integral, so this route stays independent of
    the closed forms.  At ca = 0, log|outer cosine| is -inf on every node: its
    row is left out of the grid and reads (-inf, 0.0, 0.0, None).
    """
    rows = len(_CHORD_QUANTITIES) - (cg._ca(table, caustic) == 0.0)

    def weighted(u):
        x1, y1, x2, y2 = cg.endpoint_coordinates(table, caustic, u)
        samples = _chord_samples(
            table, caustic, u, np.stack([x1, y1], axis=-1), np.stack([x2, y2], axis=-1)
        )
        pairs = np.empty((rows, 2, len(u)))
        pairs[:, 0] = rho = cg.measure_density(table, caustic, u)
        np.multiply(samples[:rows], rho, out=pairs[:, 1])
        return pairs

    values, defects = periodic_quadrature(weighted)
    averages = tuple(
        (float(raw / z), float(d / z), float(d), float(z)) for (z, raw), d in zip(values, defects)
    )
    return averages + ((-math.inf, 0.0, 0.0, None),) * (len(_CHORD_QUANTITIES) - rows)


@functools.lru_cache(maxsize=2)
def _closed_forms(table, caustic):
    """The closed form of each average in _CHORD_QUANTITIES order (None for
    log|outer cosine|, which has none yet), with s3 = c^2/(a^2 - lam) and
    K(s3) taken once for all three.  Sidelength and kappa^(2/3) are as in
    mean_sidelength and mean_curvature23; the mean cosine is

        Cbar = r1/r3 + (r2 r3 - r1 r4)/r3^2 * H(s2, s3) / K(s3),  s2 = -r4/r3,

    with H(n, m) = (Pi(n, m) - K(m))/n in its stable Carlson form and r1..r4,
    written out below, the coefficients of interior_cosine(u) =
    (r1 + r2 z)/(r3 + r4 z) in z = cos^2 u.  It rearranges
    (r1/r3)((s2 - s1) Pi(s2, s3) + s1 K)/(s2 K), s1 = -r2/r1, so that it stays
    finite at ca = 0, where r1, r2 and r4 vanish (Cbar = 0 there).
    """
    ac, _ = _check_caustic(table, caustic)
    a, b, lam, c2 = table.a, table.b, caustic.lam, table.c2
    s3 = c2 / (ac * ac)
    k = complete_k(s3)
    sidelength = (
        2.0 * a * (b * b * k + (lam - b * b) * complete_pi(lam * s3 / (b * b), s3))
        / (b * math.sqrt(lam) * k)
    )
    ca = cg._ca(table, caustic)
    r1 = -ca * (a**4 * (b * b - lam) + lam * lam * c2)
    r2 = ca * c2 * (ca + 2.0 * lam * lam)
    r3 = (a * a * b * b - lam * c2) ** 2 * (a * a - lam)
    r4 = -c2 * ca * ca
    cosine = r1 / r3 + (r2 * r3 - r1 * r4) / (r3 * r3) * complete_pi_minus_k(-r4 / r3, s3) / k
    j = cg.joachimsthal(table, caustic)
    curvature23 = (a * b) ** (-4.0 / 3.0) * (1.0 + cosine) / (2.0 * j * j)
    return sidelength, cosine, curvature23, None


def _average(table, caustic, method, quantity):
    """Route dispatch of the averages: the entry for quantity of the caustic's
    _closed_forms ("closed_form") or _quadrature_averages ("quadrature")
    record; NumericalError if its quadrature pair did not converge."""
    _check_caustic(table, caustic)
    i = _CHORD_QUANTITIES.index(quantity)
    if method == "closed_form":
        return AverageResult(_closed_forms(table, caustic)[i], method, 0.0, caustic.lam)
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}")
    value, err, defect, _ = _quadrature_averages(table, caustic)[i]
    if not defect < _QUAD_TOL:
        raise _not_converged(defect)
    return AverageResult(value, method, err, caustic.lam)


def mean_sidelength(table, caustic, method: str = "closed_form") -> AverageResult:
    """Measure-weighted mean chord length.

    closed_form: Lbar = 2a (b^2 K(s3) + (lam - b^2) Pi(s5, s3)) / (b sqrt(lam) K(s3)),
                 with s3 = c^2/(a^2 - lam) and s5 = lam s3/b^2.
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
    kappa23bar = (a b)^(-4/3) (1 + Cbar) / (2 J^2) with the closed-form Cbar.
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
    return value, (ca < 0.0) - (ca > 0.0)
