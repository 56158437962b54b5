"""Test oracles shared by several test modules.

next_tangency is the one-step billiard map, read off a certified one-step
orbit; outer_cosine_gradient is the outer cosine built independently of
conic_geometry.outer_cosine's factored form; rational_coefficients restates
the coefficients of the interior cosine's rational form, which the cosine's
closed form is built on; level_by_level_quadrature is periodic_quadrature
with one integrand call per doubling level; lam_space_period_solve is
find_caustic_for_period's root as scipy.optimize.brentq found it in lam;
row_wise_invariants is evaluate_invariants on the rows of the vertex array;
patch_complete_integrals swaps out every complete elliptic integral;
outer_product_sums is billiard_dynamics._sums as it was written before its
einsum contractions; EXPRESSION_FORMS are the four conic_geometry per-point
forms that an orbit reads, one numpy expression each in the order of
operations that pins their bits;
masked_wrap_advances is billiard_dynamics._advances as _orbit's step check
was written before it compared raw differences.
"""
from __future__ import annotations

import math

import numpy as np

import caustics.conic_geometry as cg
import caustics.elliptic_integrals as ei
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
    evaluated several levels at once: f returns the weight row and k weighted
    rows, and is called on the 16 nodes, then on each level's midpoints; the
    same doubling recursion and per-group freezing follow (group i pairs row
    0 with row i + 1 and closes when both defects fall below tol or either
    turns NaN), with a mask per level."""

    def pairs(estimates):  # (k, 2): the weight's estimate beside each weighted row's
        return np.stack([np.broadcast_to(estimates[0], estimates[1:].shape), estimates[1:]], axis=-1)

    n = 16
    value = pairs(np.mean(f(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)), axis=-1) * 2.0 * math.pi)
    result, defect = value.copy(), np.full(len(value), np.inf)
    still_open = np.ones(len(value), dtype=bool)
    while n < sa._MAX_NODES and np.any(still_open):
        midpoints = np.linspace(0.0, 2.0 * math.pi, 2 * n, endpoint=False)[1::2]
        refined = 0.5 * value + pairs(np.mean(f(midpoints), axis=-1)) * math.pi
        result[still_open] = refined[still_open]
        defect[still_open] = np.max(np.abs(refined - value), axis=-1)[still_open]
        still_open &= defect >= sa._QUAD_TOL
        value, n = refined, 2 * n
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


def patch_complete_integrals(monkeypatch, replacement):
    """Set every complete_* function of elliptic_integrals to
    replacement(original), and in spatial_averages each name of them that it
    binds; asserts that spatial_averages binds them under their own names and
    under no other, so that no call there escapes the patch."""
    originals = {getattr(ei, name): name for name in vars(ei) if name.startswith("complete_")}
    bound = {name: originals[obj] for name, obj in vars(sa).items() if callable(obj) and obj in originals}
    assert all(name == own for name, own in bound.items()), bound
    for fn, name in originals.items():
        monkeypatch.setattr(ei, name, replacement(fn))
        if name in bound:
            monkeypatch.setattr(sa, name, getattr(ei, name))
    return sorted(bound)


def outer_product_sums(shifts, points):
    """billiard_dynamics._sums as four outer products and two array sums."""
    ss, cs, ds = shifts
    sp, cp, dp = points
    sn = np.multiply.outer(cs * ds, sp) + np.multiply.outer(ss, cp * dp)
    cn = np.multiply.outer(cs, cp) - np.multiply.outer(ss * ds, sp * dp)
    return sn, cn


def masked_wrap_advances(steps):
    """billiard_dynamics._advances as a masked wrap: each negative difference
    of angles is wrapped by 2pi in a masked add, then 0 < step < pi."""
    steps = np.array(steps, dtype=float)
    test = steps < 0.0
    np.add(steps, 2.0 * math.pi, out=steps, where=test)
    return (steps > 0.0) & (steps < math.pi)


def _chord_length_expression(table, caustic, w):
    ac, bc = cg.caustic_axes(table, caustic)
    lam = caustic.lam
    return 2.0 * table.a * table.b * math.sqrt(lam) / (lam + (ac * ac) * (bc * bc) / w)


def _outer_cosine_expression(table, caustic, w):
    a, b = table.a, table.b
    ac, bc = cg.caustic_axes(table, caustic)
    ca = cg._ca(table, caustic)
    e = 4.0 * caustic.lam * (a * a) * (b * b) * (ac * ac) * (bc * bc)
    return ca / np.sqrt(ca * ca + e / w)


def _inverse_focal_product_expression(table, y):
    return 1.0 / (table.b * table.b + table.c2 / table.b**2 * y * y)


def _curvature23_expression(table, x, y):
    a, b = table.a, table.b
    return (a * b) ** (-4.0 / 3.0) / (x * x / a**4 + y * y / b**4)


# name of the conic_geometry form -> (expression form, its arguments after
# table: "cw" for (caustic, w), "y" for y, "xy" for (x, y))
EXPRESSION_FORMS = {
    "_chord_length_at": (_chord_length_expression, "cw"),
    "_outer_cosine_at": (_outer_cosine_expression, "cw"),
    "_inverse_focal_product": (_inverse_focal_product_expression, "y"),
    "_curvature23_at": (_curvature23_expression, "xy"),
}
