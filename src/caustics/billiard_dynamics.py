"""The billiard map in caustic coordinates and everything built on iterating it.

A vertex of an orbit tangent to the caustic sees the caustic under two tangent
lines; the billiard map sends the current tangency parameter to the other one.
From an external point (px, py) the tangency parameters w of the caustic
x = a_c cos w, y = b_c sin w solve

    (px/a_c) cos w + (py/b_c) sin w = 1,

i.e. R cos(w - phi) = 1 with (R, phi) the polar form of (px/a_c, py/b_c), so
w = phi +/- delta with delta = arccos(1/R).  Counterclockwise orientation makes
the step u -> u + 2 delta, with delta evaluated at the forward endpoint P1(u).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import conic_geometry as cg
from .errors import DomainError, NumericalError
from .spatial_averages import AverageResult

__all__ = [
    "OrbitSample",
    "RotationEstimate",
    "next_tangency",
    "prev_tangency",
    "iterate_orbit",
    "rotation_number",
    "find_caustic_for_period",
    "time_average",
    "TIME_AVERAGE_QUANTITIES",
]

_SHARE_TOL = 1e-8  # endpoint-sharing residual accepted from the closed-form step


@dataclass(frozen=True, eq=False)
class OrbitSample:
    """A simulated orbit: lifted tangency parameters and boundary vertices.

    u_sequence[i] is the tangency parameter of the i-th chord (monotone lift,
    not reduced mod 2pi); vertex_sequence[i] is the vertex shared by chords
    i-1 and i, so chord i joins vertex i to vertex i+1.  Both arrays have
    length n+1 for an n-step orbit.
    """

    u_sequence: np.ndarray
    vertex_sequence: np.ndarray
    table: cg.BilliardTable
    caustic: cg.CausticSpec


@dataclass(frozen=True)
class RotationEstimate:
    """Winding estimate rho = (u_n - u_0)/(2 pi n) plus the closure defect."""

    rho: float
    steps: int
    residual: float


def next_tangency(table, caustic, u: float) -> float:
    """Tangency parameter of the next chord; lifted so that u < u+ < u + pi.

    One step of the orbit iteration, certified: the chord at u+ must share
    the forward endpoint, P2(u+) = P1(u), to 1e-8 as evaluated by
    endpoint_coordinates, or a NumericalError is raised.
    """
    u = float(u)
    us, _ = _advance_sequence(table, caustic, u, 1, False)
    u_next = float(us[1])
    x1, y1, _, _ = cg.endpoint_coordinates(table, caustic, u)
    _, _, x2n, y2n = cg.endpoint_coordinates(table, caustic, u_next)
    residual = math.hypot(x2n - x1, y2n - y1)
    if residual > _SHARE_TOL:
        raise NumericalError(
            f"billiard step failed at u={u}, lam={caustic.lam}: "
            f"endpoint-sharing residual {residual:.3e}"
        )
    if not (u < u_next < u + math.pi):
        raise NumericalError(
            f"billiard step left (u, u+pi) at u={u}, lam={caustic.lam}: u_next={u_next}"
        )
    return u_next


def prev_tangency(table, caustic, u: float) -> float:
    """Inverse billiard step; lifted so that u - pi < u- < u.

    The reflection y -> -y maps the chord at u to the chord at -u with P1 and
    P2 swapped, so it reverses the orbit: prev(u) = -next(-u).
    """
    return -next_tangency(table, caustic, -float(u))


def _advance_sequence(table, caustic, u0, n, want_vertices):
    """Fast scalar iteration of the map.  Returns (u array, vertex array or None)."""
    a, b = table.a, table.b
    ac, bc = cg.caustic_axes(table, caustic)
    ac2, bc2 = ac * ac, bc * bc
    lam = caustic.lam
    cos, sin, sqrt, hypot, acos = math.cos, math.sin, math.sqrt, math.hypot, math.acos
    us = np.empty(n + 1)
    verts = np.empty((n + 1, 2)) if want_vertices else None
    u = float(u0)
    if want_vertices:
        _, _, x2, y2 = cg.endpoint_coordinates(table, caustic, u)
        verts[0, 0], verts[0, 1] = x2, y2
    for i in range(n):
        us[i] = u
        # P1(u) inlined from endpoint_coordinates: a scalar call there costs
        # 8.6 us of numpy overhead against 0.85 us for a whole inlined bounce
        # (2-vCPU Xeon VM, CPython 3.11, numpy 2.4).
        # next_tangency certifies this formula against endpoint_coordinates
        # (P2(u+) = P1(u) to _SHARE_TOL); test_endpoint_sharing exercises it.
        xc, yc = ac * cos(u), bc * sin(u)
        zeta = sqrt(lam * (bc2 * bc2 * xc * xc + ac2 * ac2 * yc * yc))
        psi = a * a * bc2 * bc2 * xc * xc + b * b * ac2 * ac2 * yc * yc
        x1 = ac2 * a * (a * bc2 * bc2 * xc - zeta * b * yc) / psi
        y1 = bc2 * b * (b * ac2 * ac2 * yc + zeta * a * xc) / psi
        if want_vertices:
            verts[i + 1, 0], verts[i + 1, 1] = x1, y1
        r = hypot(x1 / ac, y1 / bc)
        if r <= 1.0:
            raise NumericalError(
                f"vertex fell inside the caustic at step {i} (u={u}, lam={lam})"
            )
        u = u + 2.0 * acos(1.0 / r)
    us[n] = u
    return us, verts


@functools.lru_cache(maxsize=4)
def _u_sequence_cached(table, caustic, u0, n):
    # every caller shares the cached array, so hand it out read-only
    us, _ = _advance_sequence(table, caustic, u0, n, want_vertices=False)
    us.flags.writeable = False
    return us


def iterate_orbit(table, caustic, u0: float, n: int) -> OrbitSample:
    """Iterate the billiard map n times from tangency parameter u0.

    Returns an OrbitSample with n+1 lifted parameters and n+1 vertices;
    vertex 0 is the backward endpoint P2(u0), vertex i+1 the forward endpoint
    P1(u_i), so the sample describes n chords.
    """
    if n < 1:
        raise DomainError(f"orbit length must be >= 1; got n={n}")
    us, verts = _advance_sequence(table, caustic, u0, int(n), want_vertices=True)
    return OrbitSample(us, verts, table, caustic)


def rotation_number(table, caustic, n: int, u0: float = 0.0) -> RotationEstimate:
    """Winding estimate rho = (u_n - u_0)/(2 pi n); error O(1/n).

    The residual is the distance of the total advance from the nearest whole
    number of turns (the closure defect; ~0 when n is a multiple of a period).
    Intended for n >= 1e3.
    """
    us = _u_sequence_cached(table, caustic, float(u0), int(n))
    advance = us[-1] - us[0]
    turns = round(advance / (2.0 * math.pi))
    return RotationEstimate(
        rho=advance / (2.0 * math.pi * n),
        steps=int(n),
        residual=abs(advance - 2.0 * math.pi * turns),
    )


def find_caustic_for_period(table, n: int) -> cg.CausticSpec:
    """Caustic parameter lam_n of the non-self-intersecting n-periodic family.

    Solves the closure defect g(lam) = u_n(lam; u_0) - u_0 - 2 pi = 0 by
    bracketed root-finding.  g has the sign of rho(lam) - 1/n for every seed
    (a circle-map lift crosses a rational rotation number simultaneously in
    all seeds), rho increases from 0 to 1/2 across lam in (0, b^2), and at the
    root the orbit closes from every seed (Poncelet), so the single root is
    lam_n.  On the circle lam_n = b^2 sin^2(pi/n) exactly.
    """
    if n < 3:
        raise DomainError(f"period must be >= 3; got n={n}")
    b2 = table.b * table.b
    lo, hi = 1e-9 * b2, (1.0 - 1e-9) * b2

    def defect(lam):
        us, _ = _advance_sequence(table, cg.CausticSpec(lam), 0.0, n, False)
        return us[-1] - us[0] - 2.0 * math.pi

    if not defect(lo) < 0.0 < defect(hi):
        raise NumericalError(
            f"failed to bracket the {n}-periodic caustic in (0, b^2) for a={table.a}, b={table.b}"
        )
    lam_n = brentq(defect, lo, hi, xtol=1e-15 * b2, rtol=8.9e-16)
    caustic = cg.CausticSpec(lam_n)
    residual = abs(defect(lam_n))
    if residual > 1e-10:
        raise NumericalError(
            f"{n}-periodic closure defect {residual:.3e} at lam={lam_n}"
        )
    return caustic


TIME_AVERAGE_QUANTITIES = (
    "sidelength",
    "interior_cosine",
    "curvature23",
    "log_abs_outer_cosine",
)


def time_average(table, caustic, quantity: str, n: int, u0: float = 0.1) -> AverageResult:
    """Arithmetic mean of a per-chord quantity over the first n chords of an orbit.

    Each chord is evaluated at its tangency parameter; curvature23 means the
    average of kappa^(2/3) at the chord's two endpoints.  The error estimate
    is the drift between the half-orbit and full-orbit means.
    """
    if quantity not in TIME_AVERAGE_QUANTITIES:
        raise DomainError(
            f"unknown quantity {quantity!r}; expected one of {TIME_AVERAGE_QUANTITIES}"
        )
    if n < 1:
        raise DomainError(f"orbit length must be >= 1; got n={n}")
    us = _u_sequence_cached(table, caustic, float(u0), int(n))[:n]
    if quantity == "sidelength":
        samples = cg.chord_length(table, caustic, us)
    elif quantity == "interior_cosine":
        samples = cg.interior_cosine(table, caustic, us)
    elif quantity == "curvature23":
        x1, y1, x2, y2 = cg.endpoint_coordinates(table, caustic, us)
        samples = 0.5 * (
            cg.curvature23(table, np.stack([x1, y1], axis=-1))
            + cg.curvature23(table, np.stack([x2, y2], axis=-1))
        )
    else:
        with np.errstate(divide="ignore"):
            samples = np.log(np.abs(cg.outer_cosine(table, caustic, us)))
    samples = np.atleast_1d(samples)
    value = float(np.mean(samples))
    half = float(np.mean(samples[: max(1, n // 2)]))
    return AverageResult(value, "time_average", abs(value - half), caustic.lam)
