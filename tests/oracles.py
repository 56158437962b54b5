"""Test oracles shared by several test modules.

next_tangency is the one-step billiard map, read off a certified one-step
orbit; outer_cosine_gradient is the outer cosine built independently of
conic_geometry.outer_cosine's factored form; level_by_level_quadrature is
periodic_quadrature with one integrand call per doubling level.
"""
from __future__ import annotations

import math

import numpy as np

import caustics.conic_geometry as cg
import caustics.spatial_averages as sa
from caustics.billiard_dynamics import iterate_orbit


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
