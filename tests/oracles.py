"""Test oracles shared by several test modules.

next_tangency is the one-step billiard map, read off a certified one-step
orbit; outer_cosine_gradient is the outer cosine built independently of
conic_geometry.outer_cosine's factored form.
"""
from __future__ import annotations

import numpy as np

import caustics.conic_geometry as cg
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
