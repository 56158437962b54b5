"""Measure-weighted spatial averages over the caustic: quadrature and closed
forms for mean sidelength, mean interior cosine, mean kappa^(2/3), and the
log-geometric mean of outer cosines.

Proves:
 Group 1 - Periodic quadrature
   - exact smooth integrals, spectral convergence, non-convergence error
   - groups on one grid: a group that does not converge is reported, not
     raised, and leaves the others as they are alone
   - each of the four averages, read off one shared grid, equals bit for bit
     a quadrature of its own [rho, g rho] pair on 40 cells (the circle and
     the near-guard cells included); a sample made discontinuous fails only
     its own average
   - the first integrand call evaluates 512 nodes and the levels up to 512
     are replayed from it: values, defects and raises are bit for bit those
     of the level-by-level loop (tests/oracles.py) on the test integrands and
     on 44 caustics (the circle and the near-guard cells included); a caustic
     that converges by 512 nodes costs one integrand call, and past 512 no
     node is evaluated twice
   - one quadrature per caustic for all four averages, one endpoint pass per
     integrand call, and one per orbit (its certificate) for all four time
     averages
   - at ca = 0 (circle lambda = 1/2, a = 2 lambda = 0.8) log|outer cosine|
     stays off the grid, so the other averages converge as usual
 Group 2 - Normalization
   - circle closed form 2 pi (1-lambda)^(1/6)
   - dual route (quadrature vs K(s3) closed form) to 1e-11, incl. b != 1
   - independent scipy quadrature oracle, stressed near s3 -> 1
 Group 3 - Mean sidelength
   - circle value 2 sqrt(lambda); limit 2a as lambda -> b^2
   - closed form equals the K/Pi expression written out literally (b = 1)
   - dual-route agreement and N-periodic L/N matching
 Group 4 - Mean cosine and mean curvature
   - circle families 0 and 1/2; value at the ca = 0 caustic is exactly 0
   - closed form equals the printed Pi/K combination at generic lambda
   - kappa^(2/3): circle exactness, linear-identity route, discrete matching
 Group 5 - Log-geometric mean of outer cosines
   - circle families log(1/2) and the (-inf, 0) degenerate point
   - sign convention -sign(ca) across the sweep range
   - discrete product matching at lambda_5 (a = 5)
   - near the guard, lambda = b^2 (1 - 1e-6) on a in {2, 5}, the quadrature
     sidelength and log-geometric mean match 40-digit references to 1e-12
 Group 6 - Structure
   - monotonicity in lambda, range bounds, degeneracy guard, result fields
   - the quadrature and orbit routes run with every K/Pi evaluation and the
     closed forms' record disabled
"""
from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate

import caustics.conic_geometry as cg
import caustics.elliptic_integrals as ei
import caustics.spatial_averages as sa
from caustics.billiard_dynamics import (
    TIME_AVERAGE_QUANTITIES,
    find_caustic_for_period,
    time_average,
)
from caustics.elliptic_integrals import complete_k, complete_pi
from caustics.errors import DomainError, NumericalError
from caustics.invariant_suite import build_periodic_orbit, evaluate_invariants
from oracles import level_by_level_quadrature, outer_cosine_gradient, rational_coefficients

T12 = cg.BilliardTable(1.2, 1.0)
T2 = cg.BilliardTable(2.0, 1.0)
T5 = cg.BilliardTable(5.0, 1.0)
TB = cg.BilliardTable(3.0, 1.7)  # exercises every b != 1 code path
CIRCLE = cg.BilliardTable(1.0, 1.0)


def scipy_density_integral(table, caustic):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(
            lambda u: cg.measure_density(table, caustic, u),
            0.0,
            2.0 * math.pi,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=400,
        )
    return val


# ----------------------------------------------------------------- group 1


def test_periodic_quadrature_exact_values():
    value, err = sa.periodic_quadrature(lambda u: np.sin(u) ** 2)
    assert value == pytest.approx(math.pi, abs=1e-13)
    assert err >= 0.0
    value, _ = sa.periodic_quadrature(lambda u: np.ones_like(u))
    assert value == pytest.approx(2.0 * math.pi, abs=1e-14)


def test_periodic_quadrature_spectral_convergence():
    # smooth periodic integrand: a handful of doublings reaches 1e-12
    value, err = sa.periodic_quadrature(lambda u: np.exp(np.cos(u)))
    bessel_i0 = 1.2660658777520084  # I_0(1), series value
    assert value == pytest.approx(2.0 * math.pi * bessel_i0, rel=1e-12)
    assert err < 1e-12


def test_periodic_quadrature_nonconvergence():
    with pytest.raises(NumericalError, match="defect"):
        sa.periodic_quadrature(jump)
    # as one group of several on one grid it is reported, not raised, and the
    # smooth group keeps the level and value it has alone
    values, defects = sa.periodic_quadrature(
        lambda u: np.stack([np.stack([np.ones_like(u), np.exp(np.cos(u))]),
                            np.stack([np.ones_like(u), jump(u)])])
    )
    alone, defect = sa.periodic_quadrature(lambda u: np.stack([np.ones_like(u), np.exp(np.cos(u))]))
    assert np.array_equal(values[0], alone) and defects[0] == defect < sa._QUAD_TOL
    assert not defects[1] < sa._QUAD_TOL


def jump(u):
    return np.sign(np.cos(u)) * np.cos(u / 2.0 + 0.1)


def raised(quadrature, f):
    """quadrature(f), or the message of the NumericalError it raises."""
    try:
        return quadrature(f)
    except NumericalError as exc:
        return str(exc)


def assert_same_quadrature(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for g, w in zip(got, want, strict=True):
        assert np.shape(g) == np.shape(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("f", [
    lambda u: np.sin(u) ** 2,
    np.ones_like,
    lambda u: np.exp(np.cos(u)),
    jump,
    lambda u: np.stack([np.ones_like(u), np.exp(np.cos(u))]),
    lambda u: np.stack([np.stack([np.ones_like(u), np.exp(np.cos(u))]),
                        np.stack([np.ones_like(u), jump(u)])]),
], ids=["sin2", "one", "exp_cos", "jump", "pair", "groups_one_open"])
def test_first_grid_replays_the_level_by_level_loop(f):
    """The levels read off the first 512-node call are those of one call per
    level, bit for bit: values, defects, and the lone group's raise."""
    assert_same_quadrature(raised(sa.periodic_quadrature, f), raised(level_by_level_quadrature, f))


def chord_sample(quantity, table, caustic, u):
    """The per-chord sample of one average from the public pointwise functions."""
    if quantity == "sidelength":
        return cg.chord_length(table, caustic, u)
    if quantity == "interior_cosine":
        return cg.interior_cosine(table, caustic, u)
    if quantity == "curvature23":
        x1, y1, x2, y2 = cg.endpoint_coordinates(table, caustic, u)
        ends = (np.stack([x1, y1], axis=-1), np.stack([x2, y2], axis=-1))
        return 0.5 * (cg.curvature23(table, ends[0]) + cg.curvature23(table, ends[1]))
    return np.log(np.abs(cg.outer_cosine(table, caustic, u)))


def shared_grid_averages(table, caustic):
    """{quantity: value or NumericalError} of the four averages, read off a
    fresh shared grid that is not left in the cache for later callers."""
    sa._quadrature_averages.cache_clear()
    got = {}
    for quantity in TIME_AVERAGE_QUANTITIES:
        try:
            res = sa._average(table, caustic, "quadrature", quantity)
            got[quantity] = (res.value, res.err_estimate)
        except NumericalError as exc:
            got[quantity] = exc
    sa._quadrature_averages.cache_clear()
    return got


# lambda / b^2 of the shared-grid cells; 1 - 1e-6 is the cell of the 40-digit references
CELLS = (0.01, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 0.99, 1.0 - 1e-6)


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
def test_each_average_on_the_shared_grid_is_its_own_quadrature(a):
    """Each average converges on its own [rho, g rho] pair: the shared grid
    gives bit for bit what a quadrature of that pair alone gives, error
    estimate and failures included.  lambda = b^2 (1 - 1e-6) is the cell of
    the 40-digit references below."""
    table = cg.BilliardTable(a, 1.0)
    for fraction in CELLS:
        caustic = cg.CausticSpec(fraction)
        got = shared_grid_averages(table, caustic)
        for quantity in TIME_AVERAGE_QUANTITIES:
            def pair(u):
                rho = cg.measure_density(table, caustic, u)
                return np.stack([rho, chord_sample(quantity, table, caustic, u) * rho])

            try:
                (z, raw), defect = sa.periodic_quadrature(pair)
            except NumericalError:
                assert isinstance(got[quantity], NumericalError), (a, fraction, quantity)
                continue
            assert got[quantity] == (float(raw / z), float(defect / z)), (a, fraction, quantity)


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
def test_shared_grid_on_the_first_grid_is_the_level_by_level_loop(monkeypatch, a):
    """Every caustic's grouped quadrature gives, bit for bit, the values and
    defects of the level-by-level loop, on the cells above and at the guard
    lambda = b^2 (1 - 1e-9), where a in {2, 5} leaves all four groups
    unconverged at 2^20 nodes."""
    table = cg.BilliardTable(a, 1.0)
    first_grid, calls = sa.periodic_quadrature, []

    def both(f):
        got = first_grid(f)
        assert_same_quadrature(got, level_by_level_quadrature(f))
        calls.append(f)
        return got

    monkeypatch.setattr(sa, "periodic_quadrature", both)
    for fraction in CELLS + (1.0 - 1e-9,):
        shared_grid_averages(table, cg.CausticSpec(fraction))
    assert len(calls) == len(CELLS) + 1


@pytest.mark.parametrize("broken", TIME_AVERAGE_QUANTITIES)
def test_a_discontinuous_sample_fails_only_its_own_average(monkeypatch, broken):
    table, caustic = T2, cg.CausticSpec(0.37)
    intact = shared_grid_averages(table, caustic)
    samples = sa._chord_samples

    def with_a_jump(table, caustic, u, p1, p2):
        rows = samples(table, caustic, u, p1, p2)
        rows[TIME_AVERAGE_QUANTITIES.index(broken)] = jump(u)
        return rows

    monkeypatch.setattr(sa, "_chord_samples", with_a_jump)
    got = shared_grid_averages(table, caustic)
    for quantity in TIME_AVERAGE_QUANTITIES:
        if quantity == broken:
            assert isinstance(got[quantity], NumericalError)
            assert "did not converge" in str(got[quantity])
        else:
            assert got[quantity] == intact[quantity], quantity


@pytest.fixture
def passes(monkeypatch):
    """Counts of endpoint_coordinates passes and of periodic_quadrature calls
    and their integrand calls ("levels"), with the nodes of each call."""
    counts = {"endpoints": 0, "quadratures": 0, "levels": 0, "grids": []}
    endpoints, quadrature = cg.endpoint_coordinates, sa.periodic_quadrature

    def counting_endpoints(table, caustic, u):
        counts["endpoints"] += 1
        return endpoints(table, caustic, u)

    def counting_quadrature(f):
        def level(u):
            counts["levels"] += 1
            counts["grids"].append(np.array(u))
            return f(u)

        counts["quadratures"] += 1
        return quadrature(level)

    monkeypatch.setattr(cg, "endpoint_coordinates", counting_endpoints)
    monkeypatch.setattr(sa, "periodic_quadrature", counting_quadrature)
    return counts


def test_one_pass_over_the_samples_per_set_of_chords(passes):
    # (5, 0.95) converges at 2048 nodes: three integrand calls
    table, caustic = T5, cg.CausticSpec(0.95)
    for average in (sa.mean_sidelength, sa.mean_cosine, sa.mean_curvature23):
        average(table, caustic, method="quadrature")
    sa.log_geomean_outer(table, caustic)
    assert passes["quadratures"] == 1
    assert passes["endpoints"] == passes["levels"] > 1
    passes["endpoints"] = 0
    for quantity in TIME_AVERAGE_QUANTITIES:
        time_average(table, caustic, quantity, 1000)
    assert passes["endpoints"] == 1  # the certificate; the samples read its vertices


def test_first_grid_is_one_integrand_call(passes):
    """A caustic that converges by 512 nodes costs one integrand call; one
    that needs 4096 evaluates each node of the 4096-node grid exactly once."""
    sa.mean_sidelength(T5, cg.CausticSpec(0.61), method="quadrature")
    assert [len(u) for u in passes["grids"]] == [512]
    passes["grids"].clear()
    sa.mean_sidelength(T5, cg.CausticSpec(0.99), method="quadrature")
    nodes = np.sort(np.concatenate(passes["grids"]))
    assert len(passes["grids"]) == 4
    assert np.array_equal(nodes, np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))


@pytest.mark.parametrize("table, lam", [(CIRCLE, 0.5), (T2, 0.8)])
def test_shared_grid_at_vanishing_ca(passes, table, lam):
    """At ca = 0 log|outer cosine| is -inf on every node and never converges;
    it stays off the grid, so the other three converge at their usual level
    rather than doubling to the 2^20-node cap."""
    caustic = cg.CausticSpec(lam)
    assert cg._ca(table, caustic) == 0.0
    for average in (sa.mean_sidelength, sa.mean_cosine, sa.mean_curvature23):
        quad = average(table, caustic, method="quadrature").value
        closed = average(table, caustic, method="closed_form").value
        assert abs(quad - closed) <= 1e-9 * max(1.0, abs(closed))
    assert sa.log_geomean_outer(table, caustic) == (-math.inf, 0)
    assert passes["quadratures"] == 1 and sum(map(len, passes["grids"])) <= 512


# ----------------------------------------------------------------- group 2


def test_normalization_circle():
    for lam in (0.1, 0.5, 0.9):
        assert sa.normalization(CIRCLE, cg.CausticSpec(lam)) == pytest.approx(
            2.0 * math.pi * (1.0 - lam) ** (1.0 / 6.0), rel=1e-13
        )


def test_normalization_dual_route():
    for table in (T12, T2, T5, TB):
        for frac in (0.05, 0.5, 0.95):
            caustic = cg.CausticSpec(frac * table.b**2)
            quad, _ = sa.periodic_quadrature(lambda u: cg.measure_density(table, caustic, u))
            closed = sa.normalization(table, caustic)
            assert abs(quad - closed) / closed < 1e-11


def test_normalization_against_scipy_near_singular():
    # s3 = c^2/(a^2 - lambda) close to 1 stresses K near its log singularity
    caustic = cg.CausticSpec(0.99)
    val = sa.normalization(T5, caustic)
    assert math.isfinite(val) and val > 0.0
    assert val == pytest.approx(scipy_density_integral(T5, caustic), rel=1e-11)


# ----------------------------------------------------------------- group 3


def test_mean_sidelength_circle():
    for lam in (0.25, 0.5, 0.81):
        res = sa.mean_sidelength(CIRCLE, cg.CausticSpec(lam))
        assert res.value == pytest.approx(2.0 * math.sqrt(lam), rel=1e-13)


def test_mean_sidelength_limit_two_a():
    """As lambda -> b^2 the mean sidelength climbs toward 2a from below.
    The approach is logarithmic (the measure weight of the short focal
    chords decays like 1/K(s3)), so even at 1 - 1e-9 the gap is percents."""
    values = [
        sa.mean_sidelength(T2, cg.CausticSpec(1.0 - eps)).value
        for eps in (1e-3, 1e-6, 1e-9)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 4.0 for v in values)
    assert values[-1] > 3.6


def test_mean_sidelength_closed_form_written_out():
    """The closed form is 2a (b^2 K + (lambda - b^2) Pi(s5, s3)) / (b sqrt(lambda) K);
    for b = 1 this is the K/Pi combination with no extra factor."""
    for lam in (0.2, 0.5, 0.8):
        s3 = 3.0 / (4.0 - lam)
        s5 = lam * s3
        k = complete_k(s3)
        literal = 2.0 * 2.0 / (math.sqrt(lam) * k) * ((lam - 1.0) * complete_pi(s5, s3) + k)
        assert sa.mean_sidelength(T2, cg.CausticSpec(lam)).value == pytest.approx(
            literal, rel=1e-13
        )


def test_mean_sidelength_dual_route():
    for table in (T12, T2, T5, TB):
        for frac in (0.1, 0.45, 0.9):
            caustic = cg.CausticSpec(frac * table.b**2)
            closed = sa.mean_sidelength(table, caustic, method="closed_form")
            quad = sa.mean_sidelength(table, caustic, method="quadrature")
            assert abs(closed.value - quad.value) / closed.value < 1e-9
            assert closed.method == "closed_form"
            assert quad.method == "quadrature"


def test_mean_sidelength_matches_five_periodic():
    caustic = find_caustic_for_period(T2, 5)
    report = evaluate_invariants(build_periodic_orbit(T2, 5))
    lbar = sa.mean_sidelength(T2, caustic).value
    assert abs(report.perimeter / 5.0 - lbar) / lbar < 1e-6


# ----------------------------------------------------------------- group 4


def test_mean_cosine_circle_families():
    assert sa.mean_cosine(CIRCLE, cg.CausticSpec(0.5)).value == pytest.approx(0.0, abs=1e-13)
    assert sa.mean_cosine(CIRCLE, cg.CausticSpec(0.75)).value == pytest.approx(0.5, rel=1e-13)


def test_mean_cosine_circle_linear_in_lambda():
    for lam in (0.1, 0.33, 0.9):
        assert sa.mean_cosine(CIRCLE, cg.CausticSpec(lam)).value == pytest.approx(
            2.0 * lam - 1.0, abs=1e-12
        )


def test_mean_cosine_zero_at_degenerate_caustic():
    # ca = a^2 b^2 - lambda (a^2 + b^2) = 0 at lambda = 0.8 exactly for a = 2
    assert sa.mean_cosine(T2, cg.CausticSpec(0.8)).value == 0.0


def test_mean_cosine_closed_form_written_out():
    """C = (r1/r3) ((s2 - s1) Pi(s2, s3) + s1 K(s3)) / (s2 K(s3)) away from
    the ca = 0 cancellation, with re-derived coefficients."""
    for table, lam in ((T2, 0.3), (T5, 0.7), (TB, 1.5)):
        caustic = cg.CausticSpec(lam)
        r1, r2, r3, r4 = rational_coefficients(table, caustic)
        s1, s2 = -r2 / r1, -r4 / r3
        s3 = table.c2 / (table.a**2 - lam)
        k = complete_k(s3)
        literal = (r1 / r3) * ((s2 - s1) * complete_pi(s2, s3) + s1 * k) / (s2 * k)
        assert sa.mean_cosine(table, caustic).value == pytest.approx(literal, rel=1e-11)


def test_mean_cosine_dual_route():
    for table in (T12, T2, T5, TB):
        for frac in (0.1, 0.45, 0.9):
            caustic = cg.CausticSpec(frac * table.b**2)
            closed = sa.mean_cosine(table, caustic, method="closed_form")
            quad = sa.mean_cosine(table, caustic, method="quadrature")
            assert abs(closed.value - quad.value) <= 1e-9 * max(1.0, abs(closed.value))


def test_mean_cosine_matches_periodic_identity():
    for n in (3, 6):
        caustic = find_caustic_for_period(T2, n)
        report = evaluate_invariants(build_periodic_orbit(T2, n))
        cbar = sa.mean_cosine(T2, caustic).value
        assert abs(report.joachimsthal * report.perimeter / n - 1.0 - cbar) < 1e-6


def test_mean_curvature23_circle_exact():
    for lam in (0.2, 0.6):
        assert sa.mean_curvature23(CIRCLE, cg.CausticSpec(lam)).value == pytest.approx(
            1.0, rel=1e-13
        )


def test_mean_curvature23_linear_identity_route():
    for table, lam in ((T2, 0.5), (T5, 0.9), (TB, 2.0)):
        caustic = cg.CausticSpec(lam)
        quad = sa.mean_curvature23(table, caustic)
        closed = sa.mean_curvature23(table, caustic, method="closed_form")
        assert abs(quad.value - closed.value) / closed.value < 1e-9
        j = cg.joachimsthal(table, caustic)
        cbar = sa.mean_cosine(table, caustic).value
        expected = (table.a * table.b) ** (-4.0 / 3.0) * (1.0 + cbar) / (2.0 * j**2)
        assert closed.value == pytest.approx(expected, rel=1e-12)


def test_mean_curvature23_matches_four_periodic():
    caustic = find_caustic_for_period(T2, 4)
    report = evaluate_invariants(build_periodic_orbit(T2, 4))
    kbar = sa.mean_curvature23(T2, caustic).value
    assert abs(report.sum_kappa23 / 4.0 - kbar) / kbar < 1e-6


# ----------------------------------------------------------------- group 5


def test_log_geomean_circle_triangle():
    log_mean, sign = sa.log_geomean_outer(CIRCLE, cg.CausticSpec(0.75))
    assert log_mean == pytest.approx(math.log(0.5), abs=1e-12)
    assert sign == 1  # ca = 1 - 1.5 < 0


def test_log_geomean_degenerate_point():
    log_mean, sign = sa.log_geomean_outer(CIRCLE, cg.CausticSpec(0.5))
    assert log_mean == -math.inf and sign == 0
    log_mean, sign = sa.log_geomean_outer(T2, cg.CausticSpec(0.8))
    assert log_mean == -math.inf and sign == 0


def test_log_geomean_circle_any_lambda():
    # constant |cos theta'| = |1 - 2 lambda| on the circle
    for lam in (0.1, 0.4, 0.9):
        log_mean, sign = sa.log_geomean_outer(CIRCLE, cg.CausticSpec(lam))
        assert log_mean == pytest.approx(math.log(abs(1.0 - 2.0 * lam)), abs=1e-12)
        assert sign == (-1 if lam < 0.5 else 1)


def test_log_geomean_sign_convention():
    for table in (T12, T2, T5, TB):
        lam_star = table.a**2 * table.b**2 / (table.a**2 + table.b**2)
        _, before = sa.log_geomean_outer(table, cg.CausticSpec(0.9 * lam_star))
        _, after = sa.log_geomean_outer(
            table, cg.CausticSpec(lam_star + 0.5 * (table.b**2 - lam_star))
        )
        assert before == -1 and after == 1


def test_log_geomean_matches_five_periodic_product():
    caustic = find_caustic_for_period(T5, 5)
    report = evaluate_invariants(build_periodic_orbit(T5, 5))
    log_mean, _ = sa.log_geomean_outer(T5, caustic)
    assert abs(abs(report.product_outer_cos) ** 0.2 - math.exp(log_mean)) < 1e-6


def test_log_geomean_quadrature_route_is_consistent():
    """The factored integrand (log|ca| + log g) agrees with brute quadrature
    of log|cos theta'| computed from the gradient formula."""
    for table, lam in ((T2, 0.5), (T5, 0.93), (TB, 1.1)):
        caustic = cg.CausticSpec(lam)
        log_mean, _ = sa.log_geomean_outer(table, caustic)
        brute, _ = sa.periodic_quadrature(
            lambda u: np.log(np.abs(outer_cosine_gradient(table, caustic, u)))
            * cg.measure_density(table, caustic, u)
        )
        assert log_mean == pytest.approx(brute / sa.normalization(table, caustic), abs=1e-11)


def forty_digit_average(a, lam, quantity):
    """The spatial average of the chord length or of log|outer cosine| (b = 1),
    by mpmath quadrature at 40 digits of their a_c^2 - c^2 cos^2 u forms, over
    a quarter turn split where rho peaks near u = 0, at width about b_c/c."""
    with mp.workdps(40):
        a, lam = mp.mpf(a), mp.mpf(lam)
        ac2, c2 = a * a - lam, a * a - 1
        ca = a * a - lam * (a * a + 1)
        r3, r4 = (a * a - lam * c2) ** 2 * ac2, -c2 * ca * ca

        def rho(u):
            return 1 / mp.sqrt(ac2 - c2 * mp.cos(u) ** 2)

        def sample(u):
            z = mp.cos(u) ** 2
            if quantity == "sidelength":
                return 2 * a * mp.sqrt(lam) * (ac2 - c2 * z) / (ac2 - lam * c2 * z)
            return mp.log(abs(ca)) + mp.log((ac2 - c2 * z) / (r3 + r4 * z)) / 2

        w = mp.sqrt((1 - lam) / c2)
        nodes = [0, w, 10 * w, 100 * w, mp.pi / 2]
        return float(mp.quad(lambda u: sample(u) * rho(u), nodes) / mp.quad(rho, nodes))


@pytest.mark.parametrize("a", [2.0, 5.0])
def test_quadrature_near_the_guard_against_40_digits(a):
    """In float the a_c^2 - c^2 cos^2 u forms cancel near cos^2 u = 1 as
    lam -> b^2; the integrands' b_c^2 + c^2 sin^2 u forms keep the quadrature
    within 1e-12 of the 40-digit references (measured: 1.6e-13 at worst)."""
    table, caustic = cg.BilliardTable(a, 1.0), cg.CausticSpec(1.0 - 1e-6)
    sidelength = sa.mean_sidelength(table, caustic, method="quadrature").value
    log_mean, _ = sa.log_geomean_outer(table, caustic)
    assert abs(sidelength - forty_digit_average(a, caustic.lam, "sidelength")) <= 1e-12
    assert abs(log_mean - forty_digit_average(a, caustic.lam, "outer")) <= 1e-12


# ----------------------------------------------------------------- group 6


def test_monotonicity_in_lambda():
    lams = np.linspace(0.01, 0.99, 50)
    lbars = [sa.mean_sidelength(T2, cg.CausticSpec(float(l))).value for l in lams]
    cbars = [sa.mean_cosine(T2, cg.CausticSpec(float(l))).value for l in lams]
    assert all(b > a for a, b in zip(lbars, lbars[1:]))
    assert all(b > a for a, b in zip(cbars, cbars[1:]))


def test_bounds():
    for table in (T12, T5, TB):
        for frac in (0.05, 0.5, 0.95):
            caustic = cg.CausticSpec(frac * table.b**2)
            assert 0.0 < sa.mean_sidelength(table, caustic).value < 2.0 * table.a
            assert -1.0 < sa.mean_cosine(table, caustic).value < 1.0
            log_mean, _ = sa.log_geomean_outer(table, caustic)
            assert 0.0 <= math.exp(log_mean) <= 1.0


def test_degeneracy_guard():
    with pytest.raises(DomainError):
        sa.mean_sidelength(T2, cg.CausticSpec(1.0 - 1e-10))
    with pytest.raises(DomainError):
        sa.normalization(T2, cg.CausticSpec(1.0))


def test_average_result_fields():
    res = sa.mean_sidelength(T2, cg.CausticSpec(0.5), method="quadrature")
    assert res.err_estimate >= 0.0
    assert res.lam == 0.5
    with pytest.raises(DomainError):
        sa.mean_sidelength(T2, cg.CausticSpec(0.5), method="simpson")


def test_routes_independent_of_elliptic_integrals(monkeypatch):
    """Quadrature and orbit routes never evaluate K or Pi, nor the closed
    forms' record, so they cross-check the closed forms rather than repeat them."""

    def forbidden(*args):
        raise RuntimeError("complete elliptic integral evaluated")

    for name in ("complete_k", "complete_pi", "complete_pi_minus_k"):
        monkeypatch.setattr(ei, name, forbidden)
        monkeypatch.setattr(sa, name, forbidden)
    caustic = cg.CausticSpec(0.37)
    with pytest.raises(RuntimeError, match="elliptic"):
        sa.mean_sidelength(T2, caustic, method="closed_form")
    monkeypatch.setattr(sa, "_closed_forms", forbidden)
    for average in (sa.mean_sidelength, sa.mean_cosine, sa.mean_curvature23):
        res = average(T2, caustic, method="quadrature")
        assert res.method == "quadrature" and math.isfinite(res.value)
    log_mean, sign = sa.log_geomean_outer(T2, caustic)
    assert math.isfinite(log_mean) and sign == -1
    assert math.isfinite(time_average(T2, caustic, "sidelength", 1000).value)
    assert find_caustic_for_period(T2, 4).lam == pytest.approx(0.8, abs=1e-12)

