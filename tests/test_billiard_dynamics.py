"""The discrete system: billiard map in the caustic coordinate, orbit
iteration certified on angles mod 2 pi with a derived lift, the exact rotation
number, N-periodic caustic location, and time averages.

Proves:
 Group 1 - One-step map
   - circle advance is exactly 2 arccos(sqrt(1 - lambda))
   - endpoint sharing P1(u) = P2(u+) to 1e-10 on generic tables and down to
     the lambda -> 0 guard (lambda = 1e-9 on a = 5 and 5.14)
   - the inverse step -next_tangency(-u) (the y -> -y reflection) inverts
     next_tangency to 1e-9
   - the lift step always lies in (0, pi)
   - the cached orbit shared by every caller, its w included, is
     read-only, scalar or composed; its vertices are planar rows x and y,
     handed out as their read-only transposed view
   - lambda_N is solved once while seeded periodic orbits of period N are
     built; the import, a solve, a periodic orbit, its invariants and the
     sweep, periodic and orbit commands load no scipy module, and the CLI's
     import loads no importlib.metadata (fresh interpreter)
   - the step check's plain comparisons accept exactly the steps that the
     masked wrap of a negative step by 2pi accepted (tests/oracles.py), on
     random angle pairs in both conventions, the floats next to 0, +-pi and
     -2pi, infinities and NaN
   - one uncached orbit's traced peak, net of a 1-bounce orbit's, stays
     within 10.0 arrays of n+1 doubles at n = 100 (scalar) and 10.1 at
     n = 1e5 (composed)
   - a corrupted step is rejected by the orbit certificate in every caller,
     through the composed path of a long orbit too, naming the first failing
     step; a composed orbit with a corrupted point raises as well
 Group 2 - Orbit iteration
   - n+1 angles and lifted parameters, strictly increasing lift
   - every chord tangent to the caustic, Joachimsthal constant at every
     vertex, all vertices on the boundary (self-validating 1e5-step run)
   - circle square orbit closes exactly after 4 steps
   - n = 1 gives two parameters, one chord
   - a seed u0 that is nan or +-inf is a DomainError naming it in
     iterate_orbit, time_average and build_periodic_orbit; u0 = 1e300 runs
   - property: an orbit length or period (iterate_orbit, time_average,
     find_caustic_for_period, build_periodic_orbit) that is a whole number,
     int or float, gives what the int gives; 3.5, 250.7, nan or inf raise
     DomainError
   - seeds at u0 = 1e8 and 1e9 keep full precision: the orbit is the one from
     u0 mod 2 pi, shifted by the seed's whole turns, with u_sequence[0] = u0
   - 2e4-bounce composed orbits agree with the scalar loop to 1e-9 in the
     angles on a in {1, 1.2, 2, 5} x lambda/b^2 in {0.05, 0.3, 0.68, 0.95}
   - the composition's sums, one plain einsum contraction each, are bit
     for bit the outer products they replace (tests/oracles.py) on random
     shapes from 1 x 1 to 30 x 1,000, and no einsum call passes optimize
     (which would call BLAS)
   - the composed points (cos u, sin u) lie within 8.9e-16 of np.cos and
     np.sin of their angles on a in {1, 1.2, 2, 5, 20}, lambda out to the
     guard; 500-bounce composed vertices at (5, 0.99) and (20, 1 - 1e-6) are
     within 7e-12 and 2.7e-9 of a 40-digit orbit, bounds set from the error
     of the vertices read at the rounded angles
   - property: on any admitted (a, lambda, u0), a from 1 to 1e4 log-spaced
     and lambda out to the guard, and n up to 3e4, iterate_orbit returns
     an orbit whose points, re-read, share every endpoint to 1e-8 (up to
     a = 5 the angles re-check through endpoint_coordinates too) and a lift
     that differs from the angles by whole turns, or raises NumericalError;
     three near-guard orbits of up to 1e6 bounces certify, and eccentric
     orbits where composition has failed the certificate (a up to 1e4)
     certify on their points or raise
 Group 3 - Rotation numbers and periodic caustics
   - circle pentagon rotation number exactly 1/5 (to 1e-15)
   - rho -> 0+ in the grazing limit; rho in (0, 1/2) always
   - the exact rho matches the winding (u_n - u_0)/(2 pi n) of a 1e5-step
     orbit within 1/n on four tables, the circle included
   - strict monotonicity of rho in lambda on a 200-point grid
   - rho within 1e-15 of 40-digit references for a from 1.0001 to 1e8 and
     lambda out to the guard (measured: 6.4e-16), and of 340-digit ones at
     a = 1e150 and 1.3e154; NumericalError where a^2 overflows
   - find_caustic_for_period: circle lambda_N = sin^2(pi/N) b^2 to 5 ulp
     for N in 3..40, the exact N=4 value a^2 b^2/(a^2+b^2) to 4 ulp for a
     from 1.0001 to 1e4, frozen regression values for
     a in {1.2, 2, 5}, 10-seed closure certificates, periods 2000 and
     5000 on a in {1.1, 1.2}, and far-from-circular tables: N = 3 at a = 100,
     N in {5, 20, 40} at a in {1e4, 1e5}
   - the solve in phi is within twice the tolerance of a solve in lam of
     scipy.optimize.brentq in lam, on a in {1, 1.2, 2, 5, 100, 1e4} x N in
     3..40, 2000, 5000
   - a solve evaluates rho 5.88 times on average and at most 14 times on
     tables like the poncelet benchmark's, and 5 times at (3.14, 55)
   - a period bracketed at neither end, and a solve that does not converge,
     raise NumericalError
   - brentq's bracketed secant iteration: a concave root approached from
     below only, a convex one overshot and finished inside the bracket, a
     slope that does not rise sent to hi, ValueError at an end with no sign
     change; every solved period lies within tol of a sign change of
     rho - 1/n for a in [1, 100] and n in [3, 400]
 Group 4 - Time averages
   - constant quantity on the circle averages exactly
   - 1e6-bounce averages match spatial quadrature to 1e-3 (a=2, lambda=0.37)
   - log|outer cosine| at lambda_4 (ca within roundoff of 0) matches the
     spatial route to 1e-9 on a in {1.2, 2, 5}
   - error estimate and bookkeeping fields; at ca = 0 (circle lambda = 1/2,
     a = 2 lambda = 0.8) log|outer cosine| averages to -inf with estimate 0
   - the four time averages, which evaluate each vertex once for both of its
     chords, are bit for bit the means of samples built chord by chord from
     the public curvature23 and the focal-identity cosine at both vertices,
     on scalar and composed orbits, at ca = 0 and near the guard
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import caustics.billiard_dynamics as bd
import caustics.conic_geometry as cg
import caustics.spatial_averages as sa
from caustics.billiard_dynamics import (
    TIME_AVERAGE_QUANTITIES,
    find_caustic_for_period,
    iterate_orbit,
    rotation_number,
    time_average,
)
from caustics.errors import DomainError, NumericalError
from caustics.invariant_suite import build_periodic_orbit
from oracles import lam_space_period_solve, masked_wrap_advances, next_tangency, outer_product_sums

T12 = cg.BilliardTable(1.2, 1.0)
T2 = cg.BilliardTable(2.0, 1.0)
T5 = cg.BilliardTable(5.0, 1.0)
CIRCLE = cg.BilliardTable(1.0, 1.0)

# lambda_N for N = 3..7, pinned from independent high-precision root solves
# of the closure condition (regression guard for the caustic finder)
FROZEN_LAMBDA_N = {
    1.2: {
        3: 0.8646489623846765,
        4: 0.5901639344262299,
        5: 0.4101726763298750,
        6: 0.2975206611570250,
        7: 0.2243216767574898,
    },
    2.0: {
        3: 0.9827122448568794,
        4: 0.8,
        5: 0.5944977897488660,
        6: 4.0 / 9.0,
        7: 0.3405821257825344,
    },
    5.0: {
        3: 0.9995921305783443,
        4: 25.0 / 26.0,
        5: 0.8399500732978932,
        6: 0.6944444444444445,
        7: 0.5659925697298688,
    },
}


# ----------------------------------------------------------------- group 1


def test_circle_advance_exact():
    for lam in (0.2, 0.5, 0.75):
        step = 2.0 * math.acos(math.sqrt(1.0 - lam))
        for u in (0.0, 1.3, -2.0):
            assert next_tangency(CIRCLE, cg.CausticSpec(lam), u) - u == pytest.approx(
                step, abs=1e-13
            )


def test_endpoint_sharing():
    cases = (
        (2.0, 0.5, 25), (1.2, 0.25, 25), (5.0, 0.9, 25), (5.0, 0.05, 25),
        # near the lambda -> 0 guard the forward vertex sits just outside the
        # caustic (R -> 1+), where a step through acos(1/R) shares only to ~1e-10
        (5.14, 1.7e-9, 400), (5.0, 1e-9, 400),
    )
    for a, lam, points in cases:
        table, caustic = cg.BilliardTable(a, 1.0), cg.CausticSpec(lam)
        for u in np.linspace(-3.0, 9.0, points):
            u_next = next_tangency(table, caustic, float(u))
            assert u < u_next < u + math.pi
            x1, y1, _, _ = cg.endpoint_coordinates(table, caustic, float(u))
            _, _, x2, y2 = cg.endpoint_coordinates(table, caustic, u_next)
            assert math.hypot(x2 - x1, y2 - y1) < 1e-10, (a, lam, u)


def test_prev_inverts_next():
    for table, lam in ((T2, 0.5), (T5, 0.9), (T12, 0.1)):
        caustic = cg.CausticSpec(lam)
        for u in (0.0, 0.9, 2.2, 4.8):
            u_next = next_tangency(table, caustic, u)
            assert -next_tangency(table, caustic, -u_next) == pytest.approx(u, abs=1e-9)


def test_cached_orbit_is_read_only():
    # iterate_orbit, time_average and the periodic certificate share one
    # cached orbit per (table, caustic, u0, n)
    for n in (100, 1000):  # the scalar loop and a composed orbit
        angles, verts, w = bd._orbit(T2, cg.CausticSpec(0.5), 0.1, n)
        sample = iterate_orbit(T2, cg.CausticSpec(0.5), 0.1, n)
        # the vertices are cached as planar rows x and y, and handed out as
        # their transposed view, one vertex per row
        assert verts.shape == (2, n + 1) and verts.flags.c_contiguous
        assert sample.angles is angles and sample.vertex_sequence.base is verts
        assert sample.vertex_sequence.shape == (n + 1, 2)
        with pytest.raises(ValueError, match="read-only"):
            sample.vertex_sequence[3, 1] = 0.0
        with pytest.raises(ValueError):
            sample.vertex_sequence.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            angles[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            angles[:10] *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            verts[1, 3] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            w[5] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            w[:10] *= 2.0


def _neighbours(x, k=3):
    """x and the k floats on either side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -math.inf))
        above.append(np.nextafter(above[-1], math.inf))
    return below[1:] + above


def test_step_check_accepts_what_the_masked_wrap_accepted():
    """The certificate accepts d = angle[k+1] - angle[k] by plain comparisons,
    0 < d < pi or -2pi < d < -pi, where it wrapped a negative d by 2pi in a
    masked add and asked 0 < step < pi: both accept and reject the same
    steps, on differences of random angles in [0, 2pi) (the scalar loop's)
    and [-pi, pi] (a composed orbit's), and at every edge of the test."""
    rng = np.random.default_rng(25)
    scalar = rng.uniform(0.0, 2.0 * math.pi, (2, 100_000))
    composed = rng.uniform(-math.pi, math.pi, (2, 100_000))
    edges = [0.0, math.pi, -math.pi, -2.0 * math.pi, 2.0 * math.pi]
    special = np.array(
        [x for edge in edges for x in _neighbours(edge)]
        + [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.5 * math.pi, -1.5 * math.pi]
    )
    # angles that meet at an edge: pi and -pi, the ends of the composed range
    ends = np.array([math.pi, -math.pi] + _neighbours(math.pi) + _neighbours(-math.pi))
    met = np.subtract.outer(ends, ends).ravel()
    for steps in (scalar[1] - scalar[0], composed[1] - composed[0], special, met):
        got, want = bd._advances(steps), masked_wrap_advances(steps)
        assert got.dtype == bool and np.array_equal(got, want), steps[got != want]
    # each edge of the test is met: accepted and rejected steps on both sides
    accepted = special[bd._advances(special)]
    assert accepted.min() > -2.0 * math.pi and accepted.max() < math.pi
    assert np.any(accepted < -math.pi) and np.any(accepted > 0.0)
    assert not bd._advances(np.array([-math.pi, 0.0, -2.0 * math.pi, math.nan])).any()


@pytest.mark.parametrize("n, ceiling", [(100, 10.0), (100_000, 10.1)], ids=["scalar", "composed"])
def test_orbit_memory_ceiling(n, ceiling):
    """The traced peak of one uncached orbit, less that of a 1-bounce orbit
    (frames, array headers and the small arrays of composition), counted in
    arrays of n doubles: the endpoint pass holds the angles, the points
    (cos u, sin u), its scratch (2), w and the stacked ends (4).  Measured
    on CPython 3.11 and numpy 2.4: 9.9 at n = 100 and 10.0016 at n = 1e5.
    verify's peak RSS rests on these allocations for its 1e6-bounce orbit,
    so a new temporary of the orbit's size fails here first."""
    caustic = cg.CausticSpec(0.37)

    def peak(n):
        bd._orbit.__wrapped__(T2, caustic, 0.1, n)  # first-call allocations are not the orbit's
        tracemalloc.start()
        try:
            bd._orbit.__wrapped__(T2, caustic, 0.1, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    arrays = (peak(n) - peak(1)) / (8 * n)
    assert 9.0 < arrays <= ceiling


def test_period_is_solved_once_for_its_seeds(monkeypatch):
    # build_periodic_orbit asks for lambda_N at every seed; the root solve and
    # its closure certificate run once per (table, N)
    solves = []

    def counting_brentq(*args, **kwargs):
        solves.append(args[1:3])
        return brentq(*args, **kwargs)

    brentq = bd.brentq
    monkeypatch.setattr(bd, "brentq", counting_brentq)
    find_caustic_for_period(T2, 7)
    for seed in (0.3, 0.6):
        build_periodic_orbit(T2, 7, seed_u=seed)
    assert len(solves) == 1


def test_no_solve_or_periodic_run_imports_the_scipy_solver():
    """The package imports no part of scipy: in a fresh interpreter, the
    import, a solve, a periodic orbit, its invariants and the sweep (both
    routes), periodic and orbit commands leave no scipy module loaded.  The
    CLI reads the package's own version, so its import adds no
    importlib.metadata either."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        before = set(sys.modules)
        import caustics
        from caustics.cli import main
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        added = [m for m in set(sys.modules) - before if m.startswith("importlib.metadata")]
        assert not added, added
        table = caustics.BilliardTable(2.0, 1.0)
        lam = caustics.find_caustic_for_period(table, 4).lam
        assert abs(lam - 0.8) < 1e-12, lam
        caustics.evaluate_invariants(caustics.build_periodic_orbit(table, 7, seed_u=0.3))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["periodic", "--a", "2", "--n", "3,4,5,6,7,8,9,10,11,12"]) == 0
        assert out.getvalue().count(",OK\\n") == 10, out.getvalue()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--a", "2", "--steps", "5", "--method", "both"]) == 0
            assert main(["orbit", "--a", "2", "--lambda", "0.4", "--n", "300"]) == 0
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not loaded, loaded
    """)
    src = str(Path(bd.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})


def corrupt(sequence):
    """sequence with its middle angle moved by 1e-6; where it also returns the
    points (cos u, sin u), as the composed sequence does, the middle point
    moves with its angle."""

    def corrupted(table, caustic, u0, n):
        result = sequence(table, caustic, u0, n)
        us = result[0] if isinstance(result, tuple) else result
        k = len(us) // 2
        us[k] += 1e-6
        if isinstance(result, tuple):
            result[1][k], result[2][k] = math.cos(us[k]), math.sin(us[k])
        return result

    return corrupted


def test_certificate_rejects_a_corrupted_step(monkeypatch):
    """Every orbit reaches its callers through the one certificate in _orbit:
    a single perturbed parameter makes each of them raise, and a corrupted
    composed orbit raises too, with no other path to fall back on."""
    monkeypatch.setattr(bd, "_advance_sequence", corrupt(bd._advance_sequence))
    caustic = cg.CausticSpec(0.5)
    # point 50 moved, so step 49, into it, is the first to fail
    first_failure = r"^billiard step 49 failed at u=5\.55975387686\d*, lam=0\.5: endpoint-sharing"
    with pytest.raises(NumericalError, match=first_failure):
        iterate_orbit(T2, caustic, 0.3, 100)
    with pytest.raises(NumericalError, match="endpoint-sharing"):
        iterate_orbit(T2, caustic, 0.3, 20_000)  # composed from corrupted runs
    with pytest.raises(NumericalError, match="endpoint-sharing"):
        time_average(T2, caustic, "sidelength", 100, u0=0.3)
    with pytest.raises(NumericalError, match="endpoint-sharing"):
        find_caustic_for_period(T2, 5)
    monkeypatch.undo()
    monkeypatch.setattr(bd, "_composed_sequence", corrupt(bd._composed_sequence))
    bd._orbit.cache_clear()
    with pytest.raises(NumericalError, match="endpoint-sharing"):
        iterate_orbit(T2, caustic, 0.3, 20_000)


# ----------------------------------------------------------------- group 2


def test_orbit_sample_shapes():
    sample = iterate_orbit(T2, cg.CausticSpec(0.5), 0.3, 1)
    assert len(sample.angles) == len(sample.u_sequence) == 2
    assert sample.vertex_sequence.shape == (2, 2)
    with pytest.raises(DomainError):
        iterate_orbit(T2, cg.CausticSpec(0.5), 0.3, 0)


@pytest.mark.parametrize("u0", [math.nan, math.inf, -math.inf])
def test_a_non_finite_seed_is_a_domain_error(u0):
    """A seed that is not finite is refused by name, not reported as a
    degenerate chord (NumericalError) at index 0; a huge finite one runs."""
    caustic = cg.CausticSpec(0.5)
    calls = (
        lambda u: iterate_orbit(T2, caustic, u, 10).angles,
        lambda u: time_average(T2, caustic, "sidelength", 10, u0=u).value,
        lambda u: build_periodic_orbit(T2, 5, seed_u=u).vertices,
    )
    for call in calls:
        with pytest.raises(DomainError, match=rf"seed u0 must be a finite number; got u0={u0}"):
            call(u0)
        assert np.all(np.isfinite(call(1e300)))


def test_orbit_self_validates():
    """1e5-step orbit: monotone lift, tangency of every chord, constant
    Joachimsthal inner product, vertices on the boundary."""
    table, caustic = T2, cg.CausticSpec(0.5)
    sample = iterate_orbit(table, caustic, 0.3, 100_000)
    us = sample.u_sequence
    verts = sample.vertex_sequence
    assert np.all(np.diff(us) > 0.0)

    on_boundary = verts[:, 0] ** 2 / 4.0 + verts[:, 1] ** 2 - 1.0
    assert float(np.max(np.abs(on_boundary))) < 1e-10

    # tangency of chord i to the caustic at u_i
    ac, bc = cg.caustic_axes(table, caustic)
    px, py = ac * np.cos(us[:-1]), bc * np.sin(us[:-1])
    dx = verts[1:, 0] - verts[:-1, 0]
    dy = verts[1:, 1] - verts[:-1, 1]
    dist = np.abs(dy * (px - verts[:-1, 0]) - dx * (py - verts[:-1, 1])) / np.hypot(dx, dy)
    assert float(np.max(dist)) < 1e-9

    # <A P_i, unit chord> = J at every arrival vertex
    j = cg.joachimsthal(table, caustic)
    norm = np.hypot(dx, dy)
    dots = (verts[1:, 0] / 4.0 * dx + verts[1:, 1] * dy) / norm
    assert float(np.max(np.abs(dots - j))) < 1e-9


def test_circle_square_closes():
    sample = iterate_orbit(CIRCLE, cg.CausticSpec(0.5), 0.0, 4)
    assert sample.u_sequence[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert float(np.max(np.abs(sample.vertex_sequence[4] - sample.vertex_sequence[0]))) < 1e-12


@pytest.mark.parametrize("u0", [1e8, 1e9])
@pytest.mark.parametrize("n", [10, 1000])
def test_far_seed_keeps_full_precision(u0, n):
    """A seed's whole turns are carried apart from the iteration: the orbit is
    the one from u0 mod 2 pi, lifted back, so ulp(u0) never enters a step."""
    caustic = cg.CausticSpec(0.5)
    sample = iterate_orbit(T2, caustic, u0, n)
    r0 = u0 % (2.0 * math.pi)
    near = iterate_orbit(T2, caustic, r0, n)
    us = sample.u_sequence
    assert us[0] == u0
    assert np.array_equal(sample.angles, near.angles)
    assert np.array_equal(sample.vertex_sequence, near.vertex_sequence)
    assert np.max(np.abs((us - u0) - (near.u_sequence - r0))) <= 2.0 * np.spacing(us[-1])


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
@pytest.mark.parametrize("fraction", [0.05, 0.3, 0.68, 0.95])
def test_composed_orbit_matches_the_scalar_loop(a, fraction):
    """The composed angles against the scalar loop's run in one piece, which
    keeps its angle in [0, 2 pi), so each of its steps rounds at ulp(2 pi)."""
    table, caustic, n = cg.BilliardTable(a, 1.0), cg.CausticSpec(fraction), 20_000
    assert n >= bd._COMPOSE_MIN
    angles = iterate_orbit(table, caustic, 0.3, n).angles
    gap = angles - bd._advance_sequence(table, caustic, 0.3, n)
    assert np.max(np.abs((gap + math.pi) % bd._TAU - math.pi)) < 1e-9


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0, 20.0])
def test_composed_points_are_the_cosines_and_sines_of_their_angles(a):
    """The composed orbit hands out its points (cos u, sin u) with their
    angles, so neither is taken again; each lies within 8.9e-16 of np.cos
    and np.sin of its angle (measured: 3.3e-16), out to the guard."""
    table = cg.BilliardTable(a, 1.0)
    for fraction in (0.01, 0.3, 0.68, 0.95, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9):
        angles, cos_u, sin_u = bd._composed_sequence(table, cg.CausticSpec(fraction), 0.3, 20_000)
        assert len(angles) == len(cos_u) == len(sin_u) == 20_001
        assert np.max(np.abs(cos_u - np.cos(angles))) <= 8.9e-16, fraction
        assert np.max(np.abs(sin_u - np.sin(angles))) <= 8.9e-16, fraction


@pytest.mark.parametrize("n", [bd._COMPOSE_MIN, 200, 500, 999, 2_000, 20_000, 1_000_000])
def test_a_composed_orbit_takes_about_four_cube_roots_of_python_steps(monkeypatch, n):
    """The scalar steps (_advance_sequence) and addition-theorem links
    (_addition_chain) of a composed orbit, counted.  With r the whole part
    of cbrt(n+1) plus one, so (r-1)^3 <= n+1 <= r^3, they are r - 1 base
    steps, r steps to the jump, r links of the middle chain and T - 1 of the
    top one, T = ceil((n+1)/r^2) <= r: 3r + T - 2 <= 4r - 2 in all, and
    since r <= ceil(cbrt(n+1)) + 1 (equal where n+1 is a cube, as at
    n = 999), at most 4 ceil(cbrt(n+1)) + 2: the constant is 2.  Both
    chains take links at every length from _COMPOSE_MIN on, 500 (the
    40-digit tests' orbits) included, so all three levels run; two levels
    took about 3 sqrt(n) steps (424 at 20,000)."""
    steps, links = [], []
    advance, chain = bd._advance_sequence, bd._addition_chain

    def counted_steps(table, caustic, u0, k):
        steps.append(k)
        return advance(table, caustic, u0, k)

    def counted_links(jump, k, s3, kp2):
        links.append(k)
        return chain(jump, k, s3, kp2)

    monkeypatch.setattr(bd, "_advance_sequence", counted_steps)
    monkeypatch.setattr(bd, "_addition_chain", counted_links)
    angles, cos_u, sin_u = bd._composed_sequence(T2, cg.CausticSpec(0.37), 0.3, n)
    assert len(angles) == len(cos_u) == len(sin_u) == n + 1
    r = steps[1]
    assert (r - 1) ** 3 <= n + 1 <= r**3
    assert steps == [r - 1, r] and links == [r, -(-(n + 1) // (r * r)) - 1] and links[1] >= 1
    cube = round((n + 1) ** (1.0 / 3.0))
    cube += cube**3 < n + 1  # ceil(cbrt(n+1)), exact
    assert sum(steps) + sum(links) <= 4 * cube + 2, (steps, links)


def test_sums_are_the_outer_products_bit_for_bit():
    rng = np.random.default_rng(22)
    shapes = [(1, 1), (30, 1_000), (1, 1_000), (30, 1)]
    shapes += [(int(t), int(r)) for t, r in zip(rng.integers(1, 31, 40), rng.integers(1, 1_001, 40))]
    for t, r in shapes:
        shifts, points = (rng.uniform(-1.0, 1.0, (3, k)) for k in (t, r))
        shifts[2], points[2] = np.abs(shifts[2]), np.abs(points[2])  # dn > 0
        got, want = bd._sums(shifts, points), outer_product_sums(shifts, points)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (t, r) and g.tobytes() == w.tobytes()


def test_the_composition_calls_einsum_without_optimize(monkeypatch):
    """With optimize, einsum hands a contraction to BLAS, whose first GEMM
    in a process maps OpenBLAS's buffer."""
    einsum, subscripts = np.einsum, []

    def plain(*operands, **kwargs):
        assert "optimize" not in kwargs
        subscripts.append(operands[0])
        return einsum(*operands, **kwargs)

    monkeypatch.setattr(bd.np, "einsum", plain)
    iterate_orbit(T2, cg.CausticSpec(0.37), 0.3, 20_000)
    assert subscripts == ["ik,kj->ij"] * 4


def forty_digit_vertices(a, lam, u0, n):
    """Vertices of the n-step orbit from u0 at 40 digits (b = 1), P2 at u0 and
    then P1 at each tangency: each chord is the tangent line at
    (a_c cos u, b_c sin u) cut by the boundary, and the next tangency is the
    other tangent from its forward endpoint, phi + arccos(1/R)."""
    with mp.workdps(40):
        a, lam = mp.mpf(a), mp.mpf(lam)
        ac, bc = mp.sqrt(a * a - lam), mp.sqrt(1 - lam)

        def forward_and_backward(u):
            tx, ty, dx, dy = ac * mp.cos(u), bc * mp.sin(u), -ac * mp.sin(u), bc * mp.cos(u)
            qa, qb = dx * dx / (a * a) + dy * dy, tx * dx / (a * a) + ty * dy
            qc = tx * tx / (a * a) + ty * ty - 1
            root = mp.sqrt(qb * qb - qa * qc)
            return [(tx + t * dx, ty + t * dy) for t in ((root - qb) / qa, (-root - qb) / qa)]

        u = mp.mpf(u0)
        vertices = [forward_and_backward(u)[1]]
        for _ in range(n):
            x, y = forward_and_backward(u)[0]
            vertices.append((x, y))
            u = mp.atan2(y / bc, x / ac) + mp.acos(1 / mp.sqrt((x / ac) ** 2 + (y / bc) ** 2))
        return np.array(vertices, dtype=float)


# (a, lambda/b^2, bound): composed vertices read at the rounded angles were
# 5.48e-12 and 2.15e-9 off the 40-digit orbit at 500 bounces; the bounds
# leave about 25% over that
COMPOSED_ERRORS = ((5.0, 0.99, 7e-12), (20.0, 1.0 - 1e-6, 2.7e-9))


@pytest.mark.parametrize("a, fraction, bound", COMPOSED_ERRORS)
def test_composed_vertices_against_a_40_digit_orbit(a, fraction, bound):
    """Vertices read at the composed points are no farther from a 40-digit
    orbit than those read at the rounded angles were: the points move the
    vertices by roundoff (up to 5.8e-12 near the guard), far inside the
    orbit's own error."""
    n = 500
    assert n >= bd._COMPOSE_MIN
    table, caustic = cg.BilliardTable(a, 1.0), cg.CausticSpec(fraction)
    vertices = iterate_orbit(table, caustic, 0.1, n).vertex_sequence
    assert np.max(np.abs(vertices - forty_digit_vertices(a, fraction, 0.1, n))) <= bound


# (a, lambda/b^2, u0, n) near the guard, where the lifted u's, each rounded at
# ulp(u), fail the certificate that the angles pass
NEAR_THE_GUARD = (
    (2.2006651396449017, 0.9999950402926633, 0.1, 64_000),
    (5.0, 0.99, 0.1, 1_000_000),
    (2.0, 1.0 - 1e-8, 0.1, 1_000_000),
)


# (a, lambda/b^2, u0, n) on eccentric tables: the first three composed
# orbits have failed the certificate that the scalar loop passed; the
# fourth certifies where two levels failed; the fifth certifies on its
# points, while its rounded angles re-check at 1.005 times _SHARE_TOL
ECCENTRIC = (
    (1e3, 1.0 - 1e-4, 0.1, 120),
    (1e4, 1.0 - 1e-4, 0.1, 120),
    (1e4, 0.5, 1e9, 250),
    (30.0, 1.0 - 1e-9, 0.1, 5_000),
    (194.1137319418009, 0.999999953479264, 15.697119333707327, 301),
)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0.0, 4.0).map(lambda k: 10.0**k),
    st.one_of(st.floats(1e-9, 1.0 - 1e-9), st.floats(1.0, 9.0).map(lambda k: 1.0 - 10.0**-k)),
    st.floats(-20.0, 20.0),
    st.integers(1, 30_000),
)
@example(*NEAR_THE_GUARD[0])
@example(*NEAR_THE_GUARD[1])
@example(*NEAR_THE_GUARD[2])
@example(*ECCENTRIC[0])
@example(*ECCENTRIC[1])
@example(*ECCENTRIC[2])
@example(*ECCENTRIC[3])
@example(*ECCENTRIC[4])
def test_every_returned_orbit_is_certified(a, fraction, u0, n):
    """Each step of the orbit's points, re-read, shares its endpoint to
    _SHARE_TOL: cos and sin of the angles _orbit returns, or on a composed
    orbit the points composed again, whose angles they are.  Up to a = 5 the
    angles themselves re-check through endpoint_coordinates too; past it a
    vertex read at a rounded angle can move by a percent of _SHARE_TOL (the
    ECCENTRIC orbit at a = 194 re-checks at 1.005 times it), so there only
    the points are re-read.  The lift starts at u0, advances by less than pi
    and differs from the angles by whole turns.  Otherwise iterate_orbit
    raises NumericalError, which the NEAR_THE_GUARD orbits must not.  a runs
    from 1 to 1e4, log-spaced."""
    table, caustic = cg.BilliardTable(a, 1.0), cg.CausticSpec(fraction)
    try:
        sample = iterate_orbit(table, caustic, u0, n)
    except NumericalError:
        assert (a, fraction, u0, n) not in NEAR_THE_GUARD
        return
    angles, us = sample.angles, sample.u_sequence
    assert angles is bd._orbit(table, caustic, u0, n)[0]
    if n >= bd._COMPOSE_MIN:
        composed, cos_u, sin_u = bd._composed_sequence(table, caustic, u0 % bd._TAU % bd._TAU, n)
        assert np.array_equal(composed, angles)
    else:
        cos_u, sin_u = np.cos(angles), np.sin(angles)
    ((x1, x2), (y1, y2)), _ = cg._endpoints(table, caustic, cos_u, sin_u)
    assert np.max(np.hypot(x2[1:] - x1[:-1], y2[1:] - y1[:-1])) <= bd._SHARE_TOL
    if a <= 5.0:
        x1, y1, x2, y2 = cg.endpoint_coordinates(table, caustic, angles)
        assert np.max(np.hypot(x2[1:] - x1[:-1], y2[1:] - y1[:-1])) <= bd._SHARE_TOL
    steps = np.diff(angles) % bd._TAU
    assert np.all(steps > 0.0) and np.all(steps < math.pi)
    assert us[0] == u0
    steps = np.diff(us)
    assert np.all(steps > 0.0) and np.all(steps < math.pi)
    offset = us - angles
    whole = bd._TAU * np.round(offset / bd._TAU)
    assert np.max(np.abs(offset - whole)) <= 8.0 * np.spacing(max(abs(us[-1]), bd._TAU))


# ----------------------------------------------------------------- group 3


def test_rotation_circle_pentagon():
    rho = rotation_number(CIRCLE, cg.CausticSpec(math.sin(math.pi / 5.0) ** 2))
    assert rho == pytest.approx(0.2, abs=1e-15)


def test_rotation_grazing_limit_and_range():
    rho_small = rotation_number(T2, cg.CausticSpec(1e-4))
    assert 0.0 < rho_small < 0.01
    for lam in (0.1, 0.5, 0.9, 0.9999):
        assert 0.0 < rotation_number(T2, cg.CausticSpec(lam)) < 0.5


def test_rotation_matches_orbit_winding():
    """A circle-map lift winds within one turn of n rho after n steps, so the
    orbit's winding (u_n - u_0)/(2 pi n) is within 1/n of the exact rho."""
    n = 100_000
    for table, lam in ((CIRCLE, 0.3), (T12, 0.5), (T2, 0.5), (T5, 0.9)):
        caustic = cg.CausticSpec(lam)
        us = iterate_orbit(table, caustic, 0.0, n).u_sequence
        winding = (us[-1] - us[0]) / (2.0 * math.pi * n)
        assert abs(winding - rotation_number(table, caustic)) < 1.0 / n, table


def test_rotation_monotone_in_lambda():
    rhos = [
        rotation_number(T2, cg.CausticSpec(float(lam)))
        for lam in np.linspace(0.01, 0.99, 200)
    ]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))


def forty_digit_rotation_number(a, lam):
    """F(arcsin(sqrt(lam)) | m) / (2 K(m)), m = (a^2 - 1)/(a^2 - lam), at 40 digits (b = 1)."""
    with mp.workdps(40):
        a, lam = mp.mpf(a), mp.mpf(lam)
        m = (a * a - 1) / (a * a - lam)
        return mp.ellipf(mp.asin(mp.sqrt(lam)), m) / (2 * mp.ellipk(m))


@pytest.mark.parametrize("a", [1.0001, 1.01, 1.2, 2.0, 20.0, 1e3, 1e5, 1e6, 1e8])
def test_rotation_number_against_40_digits(a):
    """s3 = c^2/(a^2 - lam) rounds toward 1 as a grows or lam -> b^2; the
    mean fed k' = b_c/a_c and the amplitude kept as the direction
    (b_c, sqrt(lam)) keep rho within 1e-15 out to the guard (measured:
    6.4e-16 over a in [1.0001, 1e8]).  scipy's ellipkinc(phi, s3) over
    ellipkm1 was 4.0e-12 and 1.1e-9 off; K(s3) and arcsin gave 2.1e-2 at
    (1e5, 1 - 1e-6) and exactly 0 from a = 1e6."""
    table = cg.BilliardTable(a, 1.0)
    for lam in (0.01, 0.2, 0.5, 0.8) + tuple(1.0 - 10.0**-k for k in range(1, 10)):
        ref = forty_digit_rotation_number(a, lam)
        rel = float(abs(rotation_number(table, cg.CausticSpec(lam)) - ref) / ref)
        assert rel <= 1e-15, (a, lam, rel)


@pytest.mark.parametrize("a", [1e150, 1.3e154])
def test_rotation_number_up_to_the_largest_table(a):
    """Where a_c^2 nears the largest float the mean takes 12 steps from
    k' ~ 1e-154: rho is within 1e-15 of a 340-digit value (measured: 2.0e-16
    and 1.7e-16)."""
    with mp.workdps(340):
        a_mp, lam = mp.mpf(a), mp.mpf(0.5)
        m = (a_mp * a_mp - 1) / (a_mp * a_mp - lam)
        ref = mp.ellipf(mp.asin(mp.sqrt(lam)), m) / (2 * mp.ellipk(m))
        rel = abs(rotation_number(cg.BilliardTable(a, 1.0), cg.CausticSpec(0.5)) - ref) / ref
    assert float(rel) <= 1e-15


@pytest.mark.parametrize("a", [1e200, math.inf])
def test_rotation_number_raises_where_it_is_not_finite(a):
    with pytest.raises(NumericalError, match="rotation number"):
        rotation_number(cg.BilliardTable(a, 1.0), cg.CausticSpec(0.5))


@pytest.mark.parametrize("a, n", [(100.0, 3), (1e4, 5), (1e4, 20), (1e4, 40),
                                  (1e5, 5), (1e5, 20), (1e5, 40)])
def test_find_caustic_far_from_the_circle(a, n):
    """Bracketed and certified on tables where s3 rounds toward 1: the
    certificate closed only to 1.7e-10 at (100, 3) and the others failed to
    bracket while K was taken from s3."""
    table = cg.BilliardTable(a, 1.0)
    caustic = find_caustic_for_period(table, n)
    us = iterate_orbit(table, caustic, 0.0, n).u_sequence
    assert abs(us[-1] - us[0] - 2.0 * math.pi) < 1e-10


def test_find_caustic_circle_exact():
    """lam_n = b^2 sin^2(pi/n) to 5 ulp for n in 3..40: the rounding of rho
    itself moves the root by an ulp or two of phi, which is 5 ulp of lam at
    n = 24 and 30 (the solve in lam was up to 62 ulp off, at n = 18)."""
    for b in (0.5, 1.0, 3.0):
        circle = cg.BilliardTable(b, b)
        for n in range(3, 41):
            exact = b * b * math.sin(math.pi / n) ** 2
            lam = find_caustic_for_period(circle, n).lam
            assert abs(lam - exact) <= 5 * math.ulp(exact), (b, n)


def test_find_caustic_four_periodic_closed_form():
    """lambda_4 = a^2 b^2 / (a^2 + b^2) makes the caustic inscribed in the
    rectangle family, exact for every table; found to 4 ulp of its value at
    the float a (measured: 3, at a = 1.2)."""
    for a in (1.0001, 1.2, 1.5, 2.0, 2.5, 3.14, 5.0, 100.0, 1e4):
        exact = float(Fraction(a) ** 2 / (Fraction(a) ** 2 + 1))
        lam = find_caustic_for_period(cg.BilliardTable(a, 1.0), 4).lam
        assert abs(lam - exact) <= 4 * math.ulp(exact), a


def test_find_caustic_frozen_values():
    for a, per_n in FROZEN_LAMBDA_N.items():
        table = cg.BilliardTable(a, 1.0)
        for n, lam_expected in per_n.items():
            assert find_caustic_for_period(table, n).lam == pytest.approx(
                lam_expected, rel=1e-12
            ), (a, n)


def test_find_caustic_closure_certificate():
    """Poncelet: at lambda_5 the 5-step orbit closes from any seed."""
    caustic = find_caustic_for_period(T2, 5)
    rng = np.random.default_rng(7)
    for u0 in rng.uniform(0.0, 2.0 * math.pi, 10):
        sample = iterate_orbit(T2, caustic, float(u0), 5)
        defect = abs(sample.u_sequence[-1] - sample.u_sequence[0] - 2.0 * math.pi)
        assert defect < 1e-10
        assert float(np.max(np.abs(sample.vertex_sequence[-1] - sample.vertex_sequence[0]))) < 1e-8


@pytest.mark.parametrize("a", [1.1, 1.2])
@pytest.mark.parametrize("n", [2000, 5000])
def test_find_caustic_large_periods(a, n):
    """Long periods: the root solve needs no n-step loop, and the certificate's
    n-step orbit still closes to 1e-10."""
    table = cg.BilliardTable(a, 1.0)
    caustic = find_caustic_for_period(table, n)
    assert rotation_number(table, caustic) == pytest.approx(1.0 / n, rel=1e-12)
    us = iterate_orbit(table, caustic, 0.0, n).u_sequence
    assert abs(us[-1] - us[0] - 2.0 * math.pi) < 1e-10


def test_find_caustic_validation_and_bracket_failure():
    """A root below the lower end (pi/n itself is below it) or above the
    upper end is not bracketed, and the solve raises at the end it reaches."""
    with pytest.raises(DomainError):
        find_caustic_for_period(T2, 2)
    with pytest.raises(NumericalError, match="failed to bracket the 1000000-periodic"):
        find_caustic_for_period(T2, 1_000_000)
    with pytest.raises(NumericalError, match="failed to bracket the 3-periodic"):
        find_caustic_for_period(cg.BilliardTable(1e4, 1.0), 3)


def test_a_solve_that_does_not_converge_raises(monkeypatch):
    """brentq gives up after _MAX_EVALS evaluations, here 3, with NumericalError."""
    monkeypatch.setattr(bd, "_MAX_EVALS", 3)
    with pytest.raises(NumericalError, match="did not converge in 3 evaluations"):
        find_caustic_for_period(T2, 7)


def _traced_brentq(f, lo, hi, x0, anchor, tol=lambda x: 1e-15):
    """bd.brentq's root and the points it evaluated, in order."""
    points = []

    def traced(x):
        points.append(x)
        return f(x)

    return bd.brentq(traced, lo, hi, x0, anchor, tol), points


def test_brentq_approaches_a_concave_root_from_below():
    """On a concave f every secant step from the anchor lands below the root,
    and the iteration finishes within tol from that side without evaluating
    the far end of the range."""
    root, points = _traced_brentq(lambda x: math.sqrt(x) - 1.0, 0.01, 4.0, 0.01, (0.0, -1.0))
    assert abs(root - 1.0) <= 1e-15
    assert all(x < 1.0 for x in points[:-1]) and 4.0 not in points


def test_brentq_overshoots_a_convex_root_and_finishes_in_the_bracket():
    """On a convex f the first secant step lands above the root; from there
    every point lies strictly inside the bracket of the points before it.
    Halving the kept end's f keeps regula falsi from stalling: 11 evaluations,
    where regula falsi without it keeps x = 2 and takes over 200."""
    root, points = _traced_brentq(lambda x: x * x - 1.0, 0.01, 4.0, 0.5, (0.0, -1.0))
    assert abs(root - 1.0) <= 1e-15
    assert points[1] == 2.0 and len(points) <= 11
    below, above = 0.5, 2.0
    for x in points[2:]:
        assert below < x < above
        below, above = (x, above) if x < 1.0 else (below, x)


def test_brentq_sends_a_step_with_no_rising_slope_to_hi():
    root, points = _traced_brentq(lambda x: max(x, 0.6) - 0.9, 0.1, 1.0, 0.5, (0.0, -0.3))
    assert points[:2] == [0.5, 1.0] and abs(root - 0.9) <= 1e-15


def test_brentq_raises_at_an_end_with_no_sign_change():
    """The root above hi is met at hi, the root below lo at lo."""
    with pytest.raises(ValueError, match="no sign change"):
        bd.brentq(lambda x: x - 2.0, 0.0, 1.0, 0.5, (-2.0, -4.0), lambda x: 1e-15)
    with pytest.raises(ValueError, match="no sign change"):
        bd.brentq(lambda x: x + 1.0, 0.0, 1.0, 0.5, (-2.0, -1.0), lambda x: 1e-15)


@settings(deadline=None, max_examples=60)
@given(a=st.floats(1.0, 100.0), n=st.integers(3, 400))
@example(a=1.0, n=3)
@example(a=100.0, n=3)
@example(a=1.0, n=400)
def test_a_solved_period_lies_within_tol_of_a_sign_change(a, n):
    """Each solve in phi either fails to bracket, or rho - 1/n changes sign
    between phi_n - tol(phi_n) and phi_n + tol(phi_n), within _MAX_EVALS
    evaluations (the solve raises past them)."""
    solves = []

    def recording_brentq(f, lo, hi, x0, anchor, tol):
        solves.append((f, tol, brentq(f, lo, hi, x0, anchor, tol)))
        return solves[-1][2]

    brentq = bd.brentq
    with mock.patch.object(bd, "brentq", recording_brentq):
        try:
            bd._caustic_for_period.__wrapped__(cg.BilliardTable(a, 1.0), n)
        except NumericalError as exc:
            assert "failed to bracket" in str(exc)
            return
    (f, tol, phi_n), = solves
    assert f(phi_n - tol(phi_n)) < 0.0 < f(phi_n + tol(phi_n))


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0, 100.0, 1e4])
def test_find_caustic_matches_a_solve_in_lam(a):
    """The solve in phi lands within 2 (1e-15 b^2 + 8.9e-16 lam_n) of
    scipy.optimize.brentq run in lam with the tolerances the package used to
    give it, 1e-15 b^2 + 8.9e-16 lam_n, twice that because both solves carry
    it (measured: 0.18 of the bound on this grid), and where one does not
    bracket a period, neither does the other."""
    table = cg.BilliardTable(a, 1.0)
    for n in [*range(3, 41), 2000, 5000]:
        expected = lam_space_period_solve(table, n)
        if expected is None:
            with pytest.raises(NumericalError, match="failed to bracket"):
                find_caustic_for_period(table, n)
            continue
        lam = find_caustic_for_period(table, n).lam
        assert abs(lam - expected) <= 2.0 * (1e-15 + 8.9e-16 * lam), (n, lam, expected)


def test_find_caustic_evaluates_rho_a_few_times(monkeypatch):
    """On tables like the poncelet benchmark's (a in [1, 5], every 16th the
    circle, n in 3..40) a solve evaluates rho 5.88 times on average and 14 at
    most (5.71 and 14 with Brent's steps after the secant steps; scipy's
    brentq in lam: 11.25 with its two bracket checks), and 5 at (3.14, 55)."""
    calls = []

    def counted(table, caustic):
        calls[-1] += 1
        return rotation_number(table, caustic)

    monkeypatch.setattr(bd, "rotation_number", counted)
    rng = np.random.default_rng(2024)
    a = rng.uniform(1.0, 5.0, 256)
    a[::16] = 1.0
    for table_a, n in zip(a, rng.integers(3, 41, 256)):
        calls.append(0)
        bd._caustic_for_period(cg.BilliardTable(float(table_a), 1.0), int(n))
    assert np.mean(calls) <= 6.0 and max(calls) <= 16, (np.mean(calls), max(calls))
    calls.append(0)
    bd._caustic_for_period(cg.BilliardTable(3.14, 1.0), 55)
    assert calls[-1] <= 5


# ----------------------------------------------------------------- group 4


def test_time_average_circle_exact():
    res = time_average(CIRCLE, cg.CausticSpec(0.5), "sidelength", 2000)
    assert res.value == pytest.approx(2.0 * math.sqrt(0.5), abs=1e-14)
    assert res.method == "time_average"
    assert res.err_estimate >= 0.0
    assert res.lam == 0.5


def test_time_average_matches_quadrature():
    caustic = cg.CausticSpec(0.37)
    n = 1_000_000
    for quantity, ref in (
        ("sidelength", sa.mean_sidelength(T2, caustic, method="quadrature").value),
        ("interior_cosine", sa.mean_cosine(T2, caustic, method="quadrature").value),
    ):
        res = time_average(T2, caustic, quantity, n)
        assert abs(res.value - ref) / abs(ref) < 1e-3, quantity


def test_log_outer_time_average_at_the_four_periodic_caustic():
    """At lam_4, where ca = a^2 b^2 - lam (a^2 + b^2) is within roundoff of
    zero, the orbit route of log|outer cosine| stays finite and equals the
    spatial route (the 4-gon's average is the invariant-measure average)."""
    for table in (T12, T2, T5):
        caustic = find_caustic_for_period(table, 4)
        got = time_average(table, caustic, "log_abs_outer_cosine", 20000).value
        ref, _ = sa.log_geomean_outer(table, caustic)
        assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("table, lam", [(CIRCLE, 0.5), (T2, 0.8)])
def test_log_outer_time_average_where_ca_vanishes(table, lam):
    """At ca = 0 every outer cosine is 0: both means are -inf, and they drift
    by 0, as log_geomean_outer reports."""
    caustic = cg.CausticSpec(lam)
    assert cg._ca(table, caustic) == 0.0
    res = time_average(table, caustic, "log_abs_outer_cosine", 1000)
    assert (res.value, res.err_estimate) == (-math.inf, 0.0)
    assert sa.log_geomean_outer(table, caustic) == (-math.inf, 0)


def samples_at_the_vertices(table, caustic, u0, n):
    """The four per-chord samples of the certified orbit's n chords, each
    chord's built from both of its vertices: the mean of the public
    curvature23 at them, and interior_cosine's focal identity
    lam (1/(d1 d2) + 1/(d1 d2)) - 1 with d1 d2 = b^2 + c^2 y^2/b^2 at them;
    the chord length and outer cosine at the points' chord factor w."""
    _, vertices, w = bd._orbit(table, caustic, u0, n)
    p1, p2 = vertices.T[1:], vertices.T[:-1]
    b2, c2_b2 = table.b * table.b, table.c2 / table.b**2
    rows = np.empty((len(TIME_AVERAGE_QUANTITIES), n))
    rows[0] = cg._chord_length_at(table, caustic, w[:n])
    rows[1] = caustic.lam * (
        1.0 / (b2 + c2_b2 * p1[:, 1] * p1[:, 1]) + 1.0 / (b2 + c2_b2 * p2[:, 1] * p2[:, 1])
    ) - 1.0
    rows[2] = 0.5 * (cg.curvature23(table, p1) + cg.curvature23(table, p2))
    with np.errstate(divide="ignore"):
        rows[3] = np.log(np.abs(cg._outer_cosine_at(table, caustic, w[:n])))
    return rows


@pytest.mark.parametrize("table, lam", [(T5, 0.61), (T2, 0.8), (CIRCLE, 0.3),
                                        (cg.BilliardTable(20.0, 1.0), 1.0 - 1e-6)])
@pytest.mark.parametrize("n", [100, 2000], ids=["scalar", "composed"])
def test_time_averages_evaluate_each_vertex_once(table, lam, n):
    """The time averages evaluate each vertex once, for both chords that
    share it, and give bit for bit the means of the samples built chord by
    chord from both vertices (samples_at_the_vertices), on scalar and
    composed orbits, at ca = 0 and near the guard.  On a scalar orbit the
    chord length and outer cosine are those of the public functions of its
    angles."""
    caustic = cg.CausticSpec(lam)
    rows = samples_at_the_vertices(table, caustic, 0.1, n)
    half = rows[:, : n // 2]
    want = tuple(zip(np.mean(rows, axis=-1).tolist(), np.mean(half, axis=-1).tolist()))
    assert bd._orbit_means(table, caustic, 0.1, n) == want
    for quantity, (value, _) in zip(TIME_AVERAGE_QUANTITIES, want):
        assert time_average(table, caustic, quantity, n).value == value
    if n < bd._COMPOSE_MIN:
        angles = bd._orbit(table, caustic, 0.1, n)[0][:n]
        assert rows[0].tobytes() == cg.chord_length(table, caustic, angles).tobytes()
        with np.errstate(divide="ignore"):
            outer = np.log(np.abs(cg.outer_cosine(table, caustic, angles)))
        assert rows[3].tobytes() == outer.tobytes()


def test_time_average_validation():
    assert set(TIME_AVERAGE_QUANTITIES) == {
        "sidelength",
        "interior_cosine",
        "curvature23",
        "log_abs_outer_cosine",
    }
    with pytest.raises(DomainError):
        time_average(T2, cg.CausticSpec(0.5), "perimeter", 100)


# each counted input's least admitted value, and the calls that take it
COUNTED = {
    1: (lambda n: iterate_orbit(T2, cg.CausticSpec(0.37), 0.3, n).angles,
        lambda n: time_average(T2, cg.CausticSpec(0.37), "sidelength", n).value),
    3: (lambda n: find_caustic_for_period(T2, n).lam,
        lambda n: build_periodic_orbit(T2, n).vertices),
}


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.integers(-2, 9), st.floats(-2.0, 9.0), st.sampled_from([math.nan, math.inf])))
@example(3.5)
@example(4.9)
@example(2.5)
@example(250.7)
@example(4.0)
def test_orbit_lengths_and_periods_are_whole_numbers(n):
    """An orbit length or a period that is a whole number at or above its
    least value, as an int or a float, gives what the int gives; any other
    raises DomainError.  A non-integral one was truncated (3.5 gave lambda_3,
    250.7 bounces averaged 250 chords), or raised IndexError in
    build_periodic_orbit."""
    whole = not isinstance(n, float) or n.is_integer()
    for least, calls in COUNTED.items():
        for call in calls:
            if whole and n >= least:
                assert np.array_equal(call(n), call(int(n)))
            else:
                with pytest.raises(DomainError, match="must be an integer"):
                    call(n)
