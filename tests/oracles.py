"""Test oracles shared by several test modules.

next_tangency is the one-step billiard map, read off a certified one-step
orbit; outer_cosine_gradient is the outer cosine built independently of
conic_geometry.outer_cosine's factored form; rational_coefficients restates
the coefficients of the interior cosine's rational form, which the cosine's
closed form is built on; level_by_level_quadrature is periodic_quadrature
with one integrand call per doubling level; lam_space_period_solve is
find_caustic_for_period's root as scipy.optimize.brentq found it in lam;
row_wise_invariants is evaluate_invariants on the rows of the vertex array.
"""
from __future__ import annotations

import math

import numpy as np

import caustics.conic_geometry as cg
import caustics.spatial_averages as sa
from caustics.billiard_dynamics import iterate_orbit, rotation_number
from caustics.invariant_suite import InvariantReport


def next_tangency(table, caustic, u):
    """Tangency parameter of the next chord, lifted so that u < u+ < u + pi.

    The one-step orbit from u, certified like every orbit.
    """
    return float(iterate_orbit(table, caustic, u, 1).u_sequence[1])


def outer_cosine_gradient(table, caustic, u):
    """outer_cosine as the normalized dot product of the gradients A P1 and A P2,
    with A = diag(1/a^2, 1/b^2); u may be an array."""
    x1, y1, x2, y2 = cg.endpoint_coordinates(table, caustic, u)
    n1x, n1y = x1 / table.a**2, y1 / table.b**2
    n2x, n2y = x2 / table.a**2, y2 / table.b**2
    val = (n1x * n2x + n1y * n2y) / np.sqrt((n1x * n1x + n1y * n1y) * (n2x * n2x + n2y * n2y))
    return float(val) if np.ndim(val) == 0 else val


def rational_coefficients(table, caustic):
    """Coefficients (r1, r2, r3, r4) of interior_cosine as a rational function
    (r1 + r2 z)/(r3 + r4 z) of z = cos^2 u, with ca = a^2 b^2 - lam (a^2 + b^2):

        r1 = -ca (a^4 (b^2-lam) + lam^2 c^2)     r2 = ca c^2 (ca + 2 lam^2)
        r3 = (a^2 b^2 - lam c^2)^2 (a^2 - lam)   r4 = -c^2 ca^2
    """
    a2, b2, lam = table.a**2, table.b**2, caustic.lam
    c2, ca = a2 - b2, a2 * b2 - lam * (a2 + b2)
    return (
        -ca * (a2 * a2 * (b2 - lam) + lam * lam * c2),
        ca * c2 * (ca + 2.0 * lam * lam),
        (a2 * b2 - lam * c2) ** 2 * (a2 - lam),
        -c2 * ca * ca,
    )


def level_by_level_quadrature(f):
    """spatial_averages.periodic_quadrature as it was before its first call
    evaluated several levels at once: f is called on the 16 nodes, then on
    each level's midpoints, and the same doubling recursion, per-group
    freezing and lone-group raise follow."""
    n = 16
    value = np.mean(f(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)), axis=-1) * 2.0 * math.pi
    shape = value.shape
    value = value.reshape(-1, shape[-1] if shape else 1)
    result, defect = value.copy(), np.full(len(value), np.inf)
    while n < sa._MAX_NODES and not np.all(defect < sa._QUAD_TOL):
        midpoints = np.linspace(0.0, 2.0 * math.pi, 2 * n, endpoint=False)[1::2]
        refined = 0.5 * value + np.mean(f(midpoints), axis=-1).reshape(value.shape) * math.pi
        still_open = ~(defect < sa._QUAD_TOL)
        result[still_open] = refined[still_open]
        defect[still_open] = np.max(np.abs(refined - value), axis=-1)[still_open]
        value, n = refined, 2 * n
    result, defect = result.reshape(shape)[()], defect.reshape(shape[:-1])[()]
    if np.ndim(defect) == 0 and not defect < sa._QUAD_TOL:
        raise sa._not_converged(defect)
    return result, defect


def lam_space_period_solve(table, n):
    """The root of rotation_number(lam) = 1/n as find_caustic_for_period
    solved it before it solved in phi: scipy.optimize.brentq in lam on
    (1e-9 b^2, (1 - 1e-9) b^2) with xtol = 1e-15 b^2 and rtol = 8.9e-16, no
    closure certificate; None where the ends do not bracket it."""
    from scipy.optimize import brentq  # the package itself never imports scipy.optimize

    b2 = table.b * table.b
    lo, hi = 1e-9 * b2, sa._DEGENERACY_GUARD * b2

    def excess(lam):
        return rotation_number(table, cg.CausticSpec(lam)) - 1.0 / n

    if not excess(lo) < 0.0 < excess(hi):
        return None
    return brentq(excess, lo, hi, xtol=1e-15 * b2, rtol=8.9e-16)


def row_wise_invariants(orbit):
    """invariant_suite.evaluate_invariants as it was before it read the
    polygon's x and y columns: one (n, 2) array of vertices, the previous
    and next vertex of each by concatenation, and each direction divided by
    its own edge length."""
    table = orbit.table
    v = orbit.vertices
    n = orbit.n
    nxt = np.concatenate((v[1:], v[:1]))
    prv = np.concatenate((v[-1:], v[:-1]))
    edges = nxt - v
    edge_len = np.hypot(edges[:, 0], edges[:, 1])
    perimeter = float(np.sum(edge_len))
    j = cg.joachimsthal(table, cg.CausticSpec(orbit.lam))

    to_next = edges / edge_len[:, None]
    to_prev = (prv - v) / edge_len[np.arange(-1, n - 1) % n, None]
    sum_cos = float(np.sum(np.sum(to_next * to_prev, axis=1)))

    normals = np.column_stack([v[:, 0] / table.a**2, v[:, 1] / table.b**2])
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    nxt_normals = np.concatenate((normals[1:], normals[:1]))
    product_outer = float(np.prod(np.sum(normals * nxt_normals, axis=1)))

    boundary_max = cg._boundary_residual(table, v[:, 0], v[:, 1])
    sum_kappa23 = float(np.sum(cg._curvature23_at(table, v[:, 0], v[:, 1])))

    arrivals = np.sum(
        np.column_stack([nxt[:, 0] / table.a**2, nxt[:, 1] / table.b**2]) * to_next,
        axis=1,
    )
    residuals = {
        "sum_cos_identity": abs(sum_cos - (j * perimeter - n)),
        "joachimsthal_spread": float(np.max(np.abs(arrivals - j))),
        "boundary_max": boundary_max,
        "closure_defect": orbit.closure_defect,
    }
    return InvariantReport(perimeter, j, sum_cos, product_outer, sum_kappa23, residuals)
