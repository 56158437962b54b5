"""Construction of N-periodic orbits and evaluation of their invariants.

By the Poncelet porism, if one orbit tangent to the caustic at lam_N closes
after N bounces then every orbit tangent to it does.  Along that family the
perimeter L, the sum of interior vertex cosines, the product of outer-normal
cosines and the sum of kappa^(2/3) over the vertices are all independent of
the seed; sum(cos theta_i) = J L - N ties the first two together.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic_geometry as cg
from .billiard_dynamics import find_caustic_for_period, iterate_orbit
from .errors import NumericalError

__all__ = ["PeriodicOrbit", "InvariantReport", "build_periodic_orbit", "evaluate_invariants"]


@dataclass(frozen=True, eq=False)
class PeriodicOrbit:
    """An N-periodic billiard polygon: vertices in bounce order, unclosed."""

    n: int
    vertices: np.ndarray  # shape (n, 2)
    lam: float
    seed_u: float
    table: cg.BilliardTable
    closure_defect: float


@dataclass(frozen=True, eq=False)
class InvariantReport:
    """The seed-independent quantities of a periodic orbit plus identity residuals."""

    perimeter: float
    joachimsthal: float
    sum_cos: float
    product_outer_cos: float
    sum_kappa23: float
    identity_residuals: dict


def build_periodic_orbit(table, n: int, seed_u: float = 0.0) -> PeriodicOrbit:
    """Locate lam_n and iterate n steps from seed_u; certifies closure below
    1e-6 min(1, b), the same relative defect on every table smaller than
    b = 1."""
    caustic = find_caustic_for_period(table, n)  # DomainError unless n is a whole number >= 3
    n = int(n)
    sample = iterate_orbit(table, caustic, seed_u, n)
    verts = sample.vertex_sequence
    defect = float(np.hypot(*(verts[n] - verts[0])))
    if defect >= 1e-6 * min(1.0, table.b):
        raise NumericalError(
            f"{n}-periodic orbit from seed {seed_u} failed to close: "
            f"defect {defect:.3e} at lam={caustic.lam}"
        )
    return PeriodicOrbit(n, verts[:n].copy(), caustic.lam, seed_u, table, defect)


def evaluate_invariants(orbit: PeriodicOrbit) -> InvariantReport:
    """Perimeter, Joachimsthal constant, and the three invariant aggregates.

    sum_cos uses the interior-angle convention: at vertex P_i the angle between
    the rays P_i -> P_{i-1} and P_i -> P_{i+1} (the unique convention for which
    sum(cos) = J L - N holds; the circle triangle family gives 3 * 1/2).
    product_outer_cos multiplies the normalized-gradient cosines over the N
    consecutive vertex pairs and keeps its sign.
    """
    n = orbit.n
    a, lam, b = cg._unit(orbit.table, cg.CausticSpec(orbit.lam))
    j = cg._joachimsthal(a, lam)
    # the unit polygon closed once on each side, as rows x and y: column k + 1
    # is vertex k, column 0 vertex n - 1 and column n + 1 vertex 0
    v = np.concatenate((orbit.vertices[-1:], orbit.vertices, orbit.vertices[:1])).T / b
    edge_len, to_next, gradients, arrival_residuals = _polygon(a, j, v)
    perimeter = float(edge_len[1:].sum())

    # at vertex k the unit direction to vertex k - 1 is exactly minus the one
    # from vertex k - 1 to vertex k
    sum_cos = -float(_dots(to_next[:, 1:], to_next[:, :-1]).sum())

    normals = gradients / np.hypot(gradients[0], gradients[1])
    product_outer = float(_dots(normals[:, 1:-1], normals[:, 2:]).prod())

    x, y = v[0, 1:-1], v[1, 1:-1]
    boundary_max = cg._boundary_residual(a, x, y)
    sum_kappa23 = float(cg._curvature23_at(a, x, y).sum())

    residuals = {
        "sum_cos_identity": abs(sum_cos - (j * perimeter - n)),
        "joachimsthal_spread": float(arrival_residuals.max()) / b,
        "boundary_max": boundary_max,
        "closure_defect": orbit.closure_defect,
    }
    # back in the table's units: lengths by b, J by 1/b, kappa^(2/3) by b^(-2/3)
    return InvariantReport(perimeter * b, j / b, sum_cos, product_outer,
                           sum_kappa23 * b ** (-2.0 / 3.0), residuals)


def _polygon(a, j, v):
    """Edge lengths, unit edges and gradients A P = (x/a^2, y) of a polygon on
    the unit table given as vertex columns v = [x, y], open or closed, and
    each edge's Joachimsthal residual |<A P, e> - J| at its arrival vertex P,
    e the unit edge: edge k runs from vertex k to vertex k + 1, and
    <A P, e> = +J there."""
    edges = v[:, 1:] - v[:, :-1]
    edge_len = np.hypot(edges[0], edges[1])
    to_next = edges / edge_len
    gradients = v / np.array([[a**2], [1.0]])
    return edge_len, to_next, gradients, np.abs(_dots(gradients[:, 1:], to_next) - j)


def _dots(p, q):
    """The dot products of the columns of two arrays of rows x and y."""
    pq = p * q
    return pq[0] + pq[1]
