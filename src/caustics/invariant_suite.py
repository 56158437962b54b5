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
    """Locate lam_n and iterate n steps from seed_u; certifies closure < 1e-6."""
    caustic = find_caustic_for_period(table, n)
    sample = iterate_orbit(table, caustic, seed_u, n)
    verts = sample.vertex_sequence
    defect = float(np.hypot(*(verts[n] - verts[0])))
    if defect >= 1e-6:
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

    # <A P, v> with v the unit incoming direction equals +J at every vertex
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
