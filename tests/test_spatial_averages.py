"""Measure-weighted spatial averages over the caustic: quadrature and closed
forms for mean sidelength, mean interior cosine, mean kappa^(2/3), and the
log-geometric mean of outer cosines.

Proves:
 Group 1 - Periodic quadrature
   - one contract: the integrand returns a weight row and its weighted
     rows, and group i pairs the weight with row i + 1
   - exact smooth integrals, spectral convergence; the weight's defect holds
     its groups open as its own
   - groups on one grid: a group that does not converge is returned with
     its defect, never raised, and leaves the others as they are alone;
     _average rejects it with NumericalError
   - each of the four averages, read off one shared grid over the half period
     u = v/2 in [0, pi), equals bit for bit a quadrature of its own
     [rho, g rho] pair at v/2 on 40 cells (the circle and the near-guard
     cells included); a sample made discontinuous fails only its own average
   - the shared grid's integrand, which takes cos u and sin u once, equals
     bit for bit one built from the public functions of u = v/2 on every
     node of those 40 cells
   - property: rho and the four samples of the chord at the point
     (-cos u, -sin u), at u + pi, are those at u to 4 ulps for a in [1, 20]
     and lambda out to the guard, which the half period rests on; its
     averages and Z match a full-period quadrature of the public integrand
     to 1e-15 relative on 36 of the 40 cells, to 5e-14 on the four at
     lambda = b^2 (1 - 1e-6)
   - the first integrand call evaluates the grid the strip predicts, 256,
     512, 1024 or 2048 nodes, and the levels up to it are read from it in
     one pass: values and defects are bit for bit those of the
     level-by-level loop (tests/oracles.py) on the test integrands from each
     of the four first grids, on groups that settle at every level from 16
     to 1024 (one call per level past the first grid), with a NaN group
     among them, a weight that settles last and a NaN weight, and on 51
     caustics (the circle, caustics that start at 512, 1024 and 2048 nodes,
     one level past their level or short of it, and the near-guard cells
     included); a caustic predicted within 512 nodes starts on the table's
     prefix of the grid its strip names, one that converges on its first
     grid costs one integrand call, no first call exceeds 2048 nodes nor any
     call 2^19, no node is evaluated twice, and each refinement call's
     midpoints are np.linspace's bits in an array of their own
   - on 256 caustics spread over bulk-sweep's range (a in [1, 5] with the
     circle, lambda/b^2 in [0.01, 0.99]) each takes exactly one integrand
     call, on the grid the strip law names
   - property: _quadrature_averages is bit for bit the route built on the
     level-by-level loop, on a in [1, 20] with the circle and lambda/b^2
     uniform and 1 - 10^-U(0.5, 8.5), which draws every first grid, the
     refinements past it and the 2^20-node cap
   - a NaN estimate stops its group: it closes at the level where its
     defect turns NaN, alone after one 256-node call, and is returned with
     its NaN defect, which _average rejects; a defect of exactly _QUAD_TOL
     keeps its group open, and _average rejects a record whose defect is
     exactly _QUAD_TOL and reads one an ulp below it
   - the first grids are one read-only table of 2048 nodes in level order,
     with cos u and sin u at u = v/2: each prefix of n nodes is np.linspace's
     n-node grid, sorted, and each block [m/2, m) level m's midpoints, bit
     for bit, the trigonometry is np.cos and np.sin on each prefix and on
     each sorted grid, and the first integrand call receives a prefix of
     the table itself
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
   - property: the closed sidelength, cosine and kappa^(2/3) match 40-digit
     values of their formulas on a in [1, 20] and lambda = b^2 (1 - 10^-k),
     k in [0.05, 9], out to the guard, to 8e-15, 3.2e-14 (absolute) and
     2e-14 (measured: 3.7e-15, 1.59e-14 and 1.03e-14)
   - property: the closed sidelength and kappa^(2/3) match their 40-digit
     values at small lambda, lambda = b^2 10^-k with k in [0.05, 3], to
     4e-15 each (measured: 2.0e-15 and 1.55e-15)
   - the three closed forms are their factored formulas on the unit table,
     written out in the same order of operations, bit for bit on nine
     caustics out to the guard, at small lambda and at ca = 0
 Group 5 - Log-geometric mean of outer cosines
   - circle families log(1/2) and the (-inf, 0) degenerate point
   - sign convention -sign(ca) across the sweep range, a Python int also
     on a table of numpy floats
   - discrete product matching at lambda_5 (a = 5)
   - near the guard, lambda = b^2 (1 - 1e-6) on a in {2, 5}, the quadrature
     sidelength and log-geometric mean match 40-digit references to 1e-12
 Group 6 - Structure
   - monotonicity in lambda, range bounds, degeneracy guard (each route,
     on every call), result fields
   - the quadrature and orbit routes run with every K/Pi evaluation and the
     closed forms' record disabled
   - property: on tables scaled by s = 10^k, k in [-150, 150], each average
     by each route with its error estimate, Z and the outer sign are b^p
     times the unit table's, bit for bit
"""
from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import event, given, settings
from hypothesis import strategies as st

import caustics.conic_geometry as cg
import caustics.spatial_averages as sa
from caustics.billiard_dynamics import (
    TIME_AVERAGE_QUANTITIES,
    find_caustic_for_period,
    time_average,
)
from caustics.elliptic_integrals import complete_k, complete_k_m1, complete_pi, complete_pi_minus_k_m1
from caustics.errors import DomainError, NumericalError
from caustics.invariant_suite import build_periodic_orbit, evaluate_invariants
from oracles import (
    level_by_level_quadrature,
    outer_cosine_gradient,
    SCALE_DRAWS,
    patch_complete_integrals,
    rational_coefficients,
    scaled_tables,
)

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


def groups(*fs):
    """The integrand of len(fs) groups on one grid: the weight row 1 and the
    weighted rows f(u)."""
    return lambda u: np.stack([np.ones_like(u)] + [f(u) for f in fs])


def jump(u):
    return np.sign(np.cos(u)) * np.cos(u / 2.0 + 0.1)


def average_of(monkeypatch, f):
    """_average of the first group of f as the quadrature route reads it: a
    caustic's quadrature record integrates f in place of its own grid, with
    the caustic's strip."""
    quadrature = sa.periodic_quadrature
    monkeypatch.setattr(sa, "periodic_quadrature", lambda _, strip: quadrature(f, strip))
    sa._quadrature_averages.cache_clear()
    try:
        return sa._average(T2, cg.CausticSpec(0.37), "quadrature", "sidelength")
    finally:
        monkeypatch.setattr(sa, "periodic_quadrature", quadrature)
        sa._quadrature_averages.cache_clear()


def test_periodic_quadrature_exact_values():
    values, defects = sa.periodic_quadrature(groups(lambda u: np.sin(u) ** 2, np.ones_like))
    assert values[0][0] == values[1][0] == pytest.approx(2.0 * math.pi, abs=1e-14)
    assert values[0][1] == pytest.approx(math.pi, abs=1e-13)
    assert values[1][1] == pytest.approx(2.0 * math.pi, abs=1e-14)
    assert np.all(np.asarray(defects) >= 0.0)


def test_periodic_quadrature_spectral_convergence():
    # smooth periodic integrand: a handful of doublings reaches 1e-12
    ((_, value),), (err,) = sa.periodic_quadrature(groups(lambda u: np.exp(np.cos(u))))
    bessel_i0 = 1.2660658777520084  # I_0(1), series value
    assert value == pytest.approx(2.0 * math.pi * bessel_i0, rel=1e-12)
    assert err < 1e-12
    # the weight's defect holds its groups open as its own: exp(cos u) as the
    # weight converges where it does as a weighted row
    ((z, one),), (defect,) = sa.periodic_quadrature(
        lambda u: np.stack([np.exp(np.cos(u)), np.ones_like(u)]))
    assert z == value and defect == err and one == pytest.approx(2.0 * math.pi, abs=1e-14)


def test_periodic_quadrature_nonconvergence(monkeypatch):
    """A group that does not converge is returned with its last defect, and
    the smooth group beside it keeps the level and value it has alone; the
    quadrature route's _average rejects it with NumericalError."""
    values, defects = sa.periodic_quadrature(groups(lambda u: np.exp(np.cos(u)), jump))
    alone, defect = sa.periodic_quadrature(groups(lambda u: np.exp(np.cos(u))))
    assert np.array_equal(values[:1], alone) and defects[0] == defect[0] < sa._QUAD_TOL
    assert not defects[1] < sa._QUAD_TOL
    with pytest.raises(NumericalError, match="did not converge at 1048576 nodes .last defect"):
        average_of(monkeypatch, groups(jump))
    assert average_of(monkeypatch, groups(lambda u: np.exp(np.cos(u)))).value == float(
        alone[0][1] / alone[0][0])


def assert_same_quadrature(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.shape(g) == np.shape(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()


def strip_for(first):
    """A strip whose predicted first grid is first nodes."""
    return 2.0 * sa._STRIP_EXPONENT / first


FIRST_GRIDS = (256, 512, 1024, 2048)


@pytest.mark.parametrize("first", FIRST_GRIDS)
@pytest.mark.parametrize("f", [
    groups(lambda u: np.sin(u) ** 2),
    groups(np.ones_like),
    groups(lambda u: np.exp(np.cos(u))),
    groups(jump),
    lambda u: np.stack([np.exp(np.cos(u)), np.ones_like(u)]),
    groups(lambda u: np.exp(np.cos(u)), jump),
], ids=["sin2", "one", "exp_cos", "jump", "pair", "groups_one_open"])
def test_first_grid_replays_the_level_by_level_loop(f, first):
    """The levels read off the first call, of 256, 512, 1024 or 2048 nodes, are
    those of one call per level, bit for bit: values and defects, a group
    that never converges included."""
    counted = counting(f)
    assert_same_quadrature(sa.periodic_quadrature(counted, strip_for(first)), level_by_level_quadrature(f))
    assert counted.nodes[0] == first


def settling_at(level):
    """1 plus cos(k u) for k = 8, 16, ..., level/2: on n nodes the trapezoid
    adds 2 pi for each k that n divides, so its estimate changes at every
    level up to `level` and is 2 pi from there on: a group of it closes at
    2 level nodes."""
    ks = [k for k in (8, 16, 32, 64, 128, 256, 512) if k < level]
    return lambda u: 1.0 + sum(np.cos(k * u) for k in ks)


def counting(f):
    """f, with the lengths of the node arrays it is called on in f.nodes."""
    def counted(u):
        counted.nodes.append(len(u))
        return f(u)

    counted.nodes = []
    return counted


def nan_everywhere(u):
    return np.full_like(u, np.nan)


LEVELS = (16, 32, 64, 128, 256, 512, 1024)


@pytest.mark.parametrize("first", FIRST_GRIDS)
@pytest.mark.parametrize("level", LEVELS)
def test_each_settling_level_is_read_as_the_level_by_level_loop(level, first):
    """A lone group settles at each level of the first grid and past it: the
    one-pass readout gives the loop's value and defect, bit for bit, and
    calls f once on the first grid, then once per level past it."""
    quadrature, oracle = counting(groups(settling_at(level))), counting(groups(settling_at(level)))
    got, want = sa.periodic_quadrature(quadrature, strip_for(first)), level_by_level_quadrature(oracle)
    assert_same_quadrature(got, want)
    assert got[0][0][1] == pytest.approx(2.0 * math.pi, rel=1e-15) and got[1][0] < sa._QUAD_TOL
    assert oracle.nodes[-1] == level  # its last call: the midpoints of 2 level nodes
    assert quadrature.nodes == [first] + [n for n in (256, 512, 1024) if first <= n <= level]


@pytest.mark.parametrize("first", FIRST_GRIDS)
@pytest.mark.parametrize("f", [
    groups(*map(settling_at, LEVELS), lambda u: np.exp(np.cos(u))),
    groups(settling_at(64), nan_everywhere, settling_at(1024)),
    groups(nan_everywhere, settling_at(32)),
    lambda u: np.stack([settling_at(1024)(u)] + [settling_at(level)(u) for level in LEVELS]),
    lambda u: np.stack([nan_everywhere(u), settling_at(1024)(u), np.ones_like(u)]),
    groups(settling_at(512)),
    groups(nan_everywhere),
    lambda v: np.stack([cg.measure_density(T2, cg.CausticSpec(1.0 - 1e-6), 0.5 * v),
                        np.full_like(v, 2.0)]),
], ids=["groups_at_every_level", "nan_among_groups", "nan_first", "weight_settles_last",
        "nan_weight", "one", "lone_nan", "near_guard_past_512"])
def test_one_pass_readout_is_the_level_by_level_loop(f, first):
    """The one-pass readout of each first grid equals the loop, bit for bit,
    on groups that close at every level from 32 to 2048 nodes, with a NaN
    group among them (its defect stays NaN while the others refine), on a
    weight that settles last and holds every group open until it does, and
    on a NaN weight, which closes every group at once: values and defects;
    groups_one_open above has a group that never converges."""
    counted = counting(f)
    assert_same_quadrature(sa.periodic_quadrature(counted, strip_for(first)), level_by_level_quadrature(f))
    assert counted.nodes[0] == first


def test_a_nan_estimate_stops_its_group(monkeypatch):
    """A NaN estimate cannot converge: a lone NaN group closes at the level
    where its defect turns NaN, after the first grid's 256 nodes alone (it
    took 12 calls over 1,048,576 nodes), and _average rejects it; among
    groups it is returned with its NaN defect while the others converge as
    they would alone, here within the first grid; a group that turns NaN on
    the first refinement closes there."""
    f = counting(groups(nan_everywhere))
    _, (defect,) = sa.periodic_quadrature(f)
    assert f.nodes == [256] and np.isnan(defect)
    with pytest.raises(NumericalError, match=r"estimate is NaN; refinement cannot converge"):
        average_of(monkeypatch, groups(nan_everywhere))
    f = counting(groups(nan_everywhere, settling_at(128)))
    values, defects = sa.periodic_quadrature(f)
    assert f.nodes == [256] and np.isnan(defects[0]) and defects[1] < sa._QUAD_TOL
    assert values[1] == pytest.approx([2.0 * math.pi] * 2, rel=1e-15)
    late = counting(groups(lambda u: settling_at(512)(u) + (0.0 if u.base is sa._FIRST_NODES else np.nan)))
    _, (defect,) = sa.periodic_quadrature(late)
    assert late.nodes == [256, 256] and np.isnan(defect)


def test_a_defect_of_exactly_the_tolerance_keeps_its_group_open():
    """A group closes at the first level where its defect is not >=
    _QUAD_TOL.  A weighted row of v = _QUAD_TOL/pi on level 32's new nodes,
    where cos 16u = -1, and 0 elsewhere changes by exactly _QUAD_TOL from 16
    to 32 nodes, so its group stays open there and closes at 64 nodes, where
    it changes by half that, as in the level-by-level loop."""
    v = sa._QUAD_TOL / math.pi
    assert v * math.pi == sa._QUAD_TOL
    f = groups(lambda u: np.where(np.isclose(np.cos(16.0 * u), -1.0), v, 0.0))
    got = sa.periodic_quadrature(f)
    assert_same_quadrature(got, level_by_level_quadrature(f))
    ((z, value),), (defect,) = got
    assert z == 2.0 * math.pi and value == defect == 0.5 * sa._QUAD_TOL


def on_the_table(v, n):
    """Whether v is the first n nodes of the level-ordered table itself."""
    return v.base is sa._FIRST_NODES and len(v) == n


def first_grid_prefix_is_linspace(n):
    """Checks the table's first n nodes against np.linspace's n-node grid:
    sorted, they are that grid bit for bit; their block [n/2, n) is level
    n's new nodes, grid[1::2]; and cos u and sin u beside them are what
    np.cos and np.sin give on the prefix alone and on the sorted grid."""
    nodes, trig = sa._FIRST_NODES, sa._FIRST_TRIG
    grid = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    order = np.argsort(nodes[:n])
    assert nodes[:n][order].tobytes() == grid.tobytes()
    assert n == 16 or nodes[n // 2:n].tobytes() == grid[1::2].tobytes()
    for row, trig_of in zip(trig, (np.cos, np.sin)):
        assert row[:n].tobytes() == trig_of(0.5 * nodes[:n]).tobytes()
        assert row[:n][order].tobytes() == trig_of(0.5 * grid).tobytes()


def test_the_first_grid_is_one_table_in_level_order():
    """The first grids are one read-only table of 2048 nodes in level order
    and its trigonometry at u = v/2; its first 16 nodes are np.linspace's
    16-node grid, bit for bit, and each prefix of 32 to 128 nodes is
    np.linspace's grid of that size in level order, with its trigonometry."""
    nodes, trig = sa._FIRST_NODES, sa._FIRST_TRIG
    assert nodes.shape == (2048,) and trig.shape == (2, 2048)
    for constant in (nodes, trig[0], trig[1]):
        assert not constant.flags.writeable
        with pytest.raises(ValueError):
            constant[0] = 0.0
    assert nodes[:16].tobytes() == np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False).tobytes()
    for n in (16, 32, 64, 128):
        first_grid_prefix_is_linspace(n)


@pytest.mark.parametrize("first", FIRST_GRIDS)
def test_first_grid_constants(first):
    """Each first grid is the table's prefix of that size: np.linspace's
    grid in level order, its newest level in the last half, and its
    trigonometry at u = v/2 what np.cos and np.sin give, bit for bit; the
    quadrature hands its first call that prefix, a view of the table."""
    first_grid_prefix_is_linspace(first)
    seen = []
    sa.periodic_quadrature(lambda v: seen.append(v) or groups(np.ones_like)(v), strip_for(first))
    assert on_the_table(seen[0], first)


@pytest.mark.parametrize("first", FIRST_GRIDS)
def test_each_call_gets_linspace_nodes_in_an_array_of_its_own(first):
    """A group that never converges doubles to the 2^20-node cap: the first
    call's nodes are the table's first n, np.linspace's n nodes in level
    order, and each later call's midpoints of 2n nodes are
    np.linspace(0, 2pi, 2n)[1::2] bit for bit, in a contiguous array of n
    values that keeps no 2n-node array alive."""
    seen = []
    sa.periodic_quadrature(lambda v: seen.append(v) or groups(jump)(v), strip_for(first))
    assert [len(v) for v in seen] == [first] + [2**k for k in range(first.bit_length() - 1, 20)]
    assert on_the_table(seen[0], first)
    assert np.sort(seen[0]).tobytes() == np.linspace(0.0, 2.0 * math.pi, first, endpoint=False).tobytes()
    for v in seen[1:]:
        n = len(v)
        assert v.base is None and v.flags.c_contiguous and v.nbytes == 8 * n
        assert v.tobytes() == np.linspace(0.0, 2.0 * math.pi, 2 * n, endpoint=False)[1::2].tobytes()


def test_the_strip_sizes_the_first_call():
    """The first call is the least power of two from 256 up to the 2048-node
    cap at which strip n/2 reaches _STRIP_EXPONENT: 256 nodes, the table's
    first 256 themselves, with no strip or a strip of 2 _STRIP_EXPONENT/256 or
    wider; each next grid from just below its predecessor's strip down to
    its own; 2048 for a strip of 0 or one too narrow for any grid (beyond
    the cap the grid doubles from there)."""
    def first_call(strip):
        seen = []
        sa.periodic_quadrature(lambda v: seen.append(v) or groups(np.ones_like)(v), strip)
        return seen[0]

    for strip in (math.inf, 10.0, strip_for(256)):
        assert on_the_table(first_call(strip), 256)
    assert on_the_table(first_call(np.nextafter(strip_for(256), 0.0)), 512)
    assert on_the_table(first_call(strip_for(512)), 512)
    assert on_the_table(first_call(np.nextafter(strip_for(512), 0.0)), 1024)
    assert on_the_table(first_call(strip_for(1024)), 1024)
    assert on_the_table(first_call(np.nextafter(strip_for(1024), 0.0)), 2048)
    for strip in (strip_for(2048), strip_for(4096), 1e-300, 0.0):
        assert on_the_table(first_call(strip), 2048)


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


def on_the_half_period(f):
    """f(v/2): the shared grid integrates its pi-periodic integrand as this
    function of v in [0, 2pi), whose n-node trapezoid is f's 2n-node one."""
    return lambda v: f(0.5 * v)


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
    gives bit for bit what a quadrature of that pair alone, on the same half
    period u = v/2, gives, error estimate and failures included.
    lambda = b^2 (1 - 1e-6) is the cell of the 40-digit references below."""
    table = cg.BilliardTable(a, 1.0)
    for fraction in CELLS:
        caustic = cg.CausticSpec(fraction)
        got = shared_grid_averages(table, caustic)
        for quantity in TIME_AVERAGE_QUANTITIES:
            def pair(u):
                rho = cg.measure_density(table, caustic, u)
                return np.stack([rho, chord_sample(quantity, table, caustic, u) * rho])

            ((z, raw),), (defect,) = sa.periodic_quadrature(on_the_half_period(pair))
            if not defect < sa._QUAD_TOL:
                assert isinstance(got[quantity], NumericalError), (a, fraction, quantity)
                continue
            assert got[quantity] == (float(raw / z), float(defect / z)), (a, fraction, quantity)


def public_integrand(table, caustic):
    """The shared grid's integrand, rho and then g rho for each sample the
    grid holds (all but log|outer cosine| where ca = 0), built from the
    public functions of u alone."""
    rows = len(TIME_AVERAGE_QUANTITIES) - (cg._ca(*cg._unit(table, caustic)[:2]) == 0.0)

    def weighted(u):
        rho = cg.measure_density(table, caustic, u)
        return np.stack([rho] + [chord_sample(quantity, table, caustic, u) * rho
                                 for quantity in TIME_AVERAGE_QUANTITIES[:rows]])

    return weighted


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
def test_shared_grid_integrand_is_the_public_functions_of_u(monkeypatch, a):
    """The quadrature integrand takes cos u and sin u once at u = v/2 and
    calls the private forms; on every node of every cell it gives, bit for
    bit, what the public functions of u give there, so the averages, their
    estimates and their raises are those of the public integrand on the same
    half period."""
    table, quadrature = cg.BilliardTable(a, 1.0), sa.periodic_quadrature
    for fraction in CELLS:
        caustic = cg.CausticSpec(fraction)
        public, calls = on_the_half_period(public_integrand(table, caustic)), []

        def checked(f, strip):
            def both(u):
                got = f(u)
                assert got.tobytes() == public(u).tobytes(), (a, fraction)
                return got

            got = quadrature(both, strip)
            assert_same_quadrature(got, quadrature(public, strip))
            calls.append(f)
            return got

        monkeypatch.setattr(sa, "periodic_quadrature", checked)
        shared_grid_averages(table, caustic)
        assert len(calls) == 1


def samples_at_the_points(table, caustic, cos_u, sin_u):
    """rho and the four samples, in _CHORD_QUANTITIES order, of the chords
    tangent at the points (cos u, sin u), built from the private forms as the
    shared grid builds them, on the unit table."""
    a, lam, _ = cg._unit(table, caustic)
    ((x1, x2), (y1, y2)), w = cg._endpoints(a, lam, cos_u, sin_u)
    ends = (cg._inverse_focal_product(a, y1), cg._inverse_focal_product(a, y2),
            cg._curvature23_at(a, x1, y1), cg._curvature23_at(a, x2, y2))
    rho = cg._measure_density_at(a, lam, w)
    return np.vstack([rho, sa._chord_samples(a, lam, w, *ends)])


def within_ulps(got, want, ulps=4):
    """got equals want (-inf included) or lies within ulps of it."""
    with np.errstate(invalid="ignore"):  # -inf - -inf
        return np.all((got == want) | (np.abs(got - want) <= ulps * np.spacing(np.abs(want))))


@settings(deadline=None, max_examples=200)
@given(st.floats(1.0, 20.0), st.floats(1e-9, sa._DEGENERACY_GUARD), st.floats(0.0, math.pi))
def test_rho_and_the_samples_are_pi_periodic(a, fraction, u):
    """The confocal pair is centrally symmetric: the point at u + pi is
    (-cos u, -sin u), the chord tangent there is the chord at u turned by pi,
    and rho and all four samples on it equal their values at u to within a
    few ulps, for a in [1, 20] and lambda out to the guard.  The half-period
    quadrature rests on this: _quadrature_averages integrates the samples over
    u in [0, pi) only, and its n nodes give the 2n-node trapezoid of the full
    period.  The point is negated exactly, so the rounding of the angle
    u + pi, no property of the formulas, stays out (the public functions of
    u + pi are checked in test_conic_geometry)."""
    table, caustic = cg.BilliardTable(a, 1.0), cg.CausticSpec(fraction)
    angles = u + np.linspace(0.0, math.pi, 16, endpoint=False)
    cos_u, sin_u = np.cos(angles), np.sin(angles)
    for end, turned in zip(cg._endpoints(a, fraction, cos_u, sin_u)[0],
                           cg._endpoints(a, fraction, -cos_u, -sin_u)[0]):
        assert within_ulps(-turned, end)
    here = samples_at_the_points(table, caustic, cos_u, sin_u)
    turned = samples_at_the_points(table, caustic, -cos_u, -sin_u)
    assert within_ulps(turned, here), (a, fraction, u)


# Relative bound of the half-period averages against the full period's: on
# the near-guard cell rho peaks at width b_c/c (2e-4 at a = 5), and the full
# period's nodes in [pi, 2pi) round u + pi, so its two halves differ there by
# up to 9e-14 on the same chords; elsewhere both agree to a few ulps.
FULL_PERIOD_REL = {1.0 - 1e-6: 5e-14}


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
def test_half_period_averages_are_the_full_period_quadrature(a):
    """Each average and its Z on the shared grid, which integrates u in
    [0, pi), converge where a quadrature of public_integrand over the full
    period u in [0, 2pi) converges, and match it to 1e-15 relative on every
    cell but the near-guard one (measured: 6.2e-16), where the bound is 5e-14
    (measured: 2.3e-14, at a = 5; both routes lie within 2.2e-13 of the
    40-digit references below)."""
    table = cg.BilliardTable(a, 1.0)
    for fraction in CELLS:
        caustic = cg.CausticSpec(fraction)
        bound = FULL_PERIOD_REL.get(fraction, 1e-15)
        half = sa._quadrature_averages(a, fraction)
        values, defects = sa.periodic_quadrature(public_integrand(table, caustic))
        for quantity, (value, _, defect, z), (z_full, raw), defect_full in zip(
            TIME_AVERAGE_QUANTITIES, half, values, defects
        ):
            assert (defect < sa._QUAD_TOL) == (defect_full < sa._QUAD_TOL), (a, fraction, quantity)
            assert abs(z - z_full) <= bound * z_full, (a, fraction, quantity)
            assert abs(value - raw / z_full) <= bound * abs(raw / z_full), (a, fraction, quantity)


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
def test_shared_grid_on_the_first_grid_is_the_level_by_level_loop(monkeypatch, a):
    """Every caustic's grouped quadrature gives, bit for bit, the values and
    defects of the level-by-level loop, on the cells above and at the guard
    lambda = b^2 (1 - 1e-9), where a in {2, 5} leaves all four groups
    unconverged at 2^20 nodes."""
    table = cg.BilliardTable(a, 1.0)
    first_grid, calls = sa.periodic_quadrature, []

    def both(f, strip):
        got = first_grid(f, strip)
        assert_same_quadrature(got, level_by_level_quadrature(f))
        calls.append(f)
        return got

    monkeypatch.setattr(sa, "periodic_quadrature", both)
    for fraction in CELLS + (1.0 - 1e-9,):
        shared_grid_averages(table, cg.CausticSpec(fraction))
    assert len(calls) == len(CELLS) + 1


# (a, lambda) of caustics whose predicted first grid is not 256 nodes; the
# integrand calls of each, and the level at which the level-by-level loop
# closes its last group
PREDICTED = {
    (5.0, 0.85): ([512], 512),
    (3.0, 0.9): ([512], 256),
    (5.0, 0.95): ([1024], 1024),  # where the loop closes
    (5.0, 0.99): ([2048], 2048),
    (4.0, 0.952): ([1024], 512),  # one level past it
    (3.0, 0.994): ([2048], 1024),
    (5.0, 0.999): ([2048, 2048, 4096], 8192),  # past the cap, still refining
}


@pytest.mark.parametrize("cell", PREDICTED)
def test_a_predicted_first_grid_is_the_level_by_level_loop(monkeypatch, cell):
    """A caustic whose strip predicts a first grid of 512, 1024 or 2048 nodes
    gives, bit for bit, the level-by-level loop's values and defects, where
    the loop closes at that level, where it closes a level below it, and
    past the 2048-node cap, from where the grid keeps doubling."""
    (a, fraction), (calls, closes) = cell, PREDICTED[cell]
    quadrature, nodes, oracle_nodes = sa.periodic_quadrature, [], []

    def both(f, strip):
        def counted(v):
            nodes.append(len(v))
            return f(v)

        def oracle(v):
            oracle_nodes.append(len(v))
            return f(v)

        got = quadrature(counted, strip)
        assert_same_quadrature(got, level_by_level_quadrature(oracle))
        return got

    monkeypatch.setattr(sa, "periodic_quadrature", both)
    got = shared_grid_averages(cg.BilliardTable(a, 1.0), cg.CausticSpec(fraction))
    assert nodes == calls and 2 * oracle_nodes[-1] == closes
    assert not any(isinstance(value, NumericalError) for value in got.values())


@settings(deadline=None, max_examples=80)
@given(st.one_of(st.just(1.0), st.floats(1.0, 20.0)),
       st.one_of(st.floats(1e-6, 0.999), st.floats(0.5, 8.5).map(lambda k: 1.0 - 10.0**-k)))
def test_quadrature_averages_are_the_level_by_level_route(a, fraction):
    """_quadrature_averages, values, error estimates, defects and Z, is bit
    for bit the route built on the level-by-level loop (tests/oracles.py), on
    a in [1, 20] with the circle and lambda/b^2 both uniform and
    1 - 10^-U(0.5, 8.5): caustics that start on each first grid (256, 512,
    1024 and 2048 nodes), that refine past it, and that fail at the 2^20-node cap
    are all drawn (hypothesis' statistics count each, as events)."""
    quadrature, nodes = sa.periodic_quadrature, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sa, "periodic_quadrature",
                      lambda f, strip: quadrature(lambda v: nodes.append(len(v)) or f(v), strip))
        got = sa._quadrature_averages.__wrapped__(a, fraction)
        patch.setattr(sa, "periodic_quadrature",
                      lambda f, strip: tuple(r.tolist() for r in level_by_level_quadrature(f)))
        want = sa._quadrature_averages.__wrapped__(a, fraction)
    assert repr(got) == repr(want), (a, fraction)
    event(f"first grid {nodes[0]}")
    event("refined" if len(nodes) > 1 else "first grid only")
    event("at the 2^20 cap" if sum(nodes) == sa._MAX_NODES else "within the cap")


@pytest.mark.parametrize("broken", TIME_AVERAGE_QUANTITIES)
def test_a_discontinuous_sample_fails_only_its_own_average(monkeypatch, broken):
    table, caustic = T2, cg.CausticSpec(0.37)
    intact = shared_grid_averages(table, caustic)
    samples = sa._chord_samples
    # w = b_c^2 + c^2 sin^2 u runs over [b_c^2, a_c^2]; a step at its midpoint
    # jumps at the two u in [0, pi) where sin^2 u = 1/2
    ac, bc = cg.caustic_axes(table, caustic)
    middle = 0.5 * (ac * ac + bc * bc)

    def with_a_jump(a, lam, w, *ends):
        rows = samples(a, lam, w, *ends)
        rows[TIME_AVERAGE_QUANTITIES.index(broken)] = np.where(w < middle, 0.0, 1.0)
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
    """Counts of endpoint passes (conic_geometry._endpoints, which
    endpoint_coordinates calls too) and of periodic_quadrature calls and
    their integrand calls ("levels"), with the node array of each call."""
    counts = {"endpoints": 0, "quadratures": 0, "levels": 0, "grids": []}
    endpoints, quadrature = cg._endpoints, sa.periodic_quadrature

    def counting_endpoints(a, lam, cos_u, sin_u):
        counts["endpoints"] += 1
        return endpoints(a, lam, cos_u, sin_u)

    def counting_quadrature(f, strip):
        def level(u):
            counts["levels"] += 1
            counts["grids"].append(u)
            return f(u)

        counts["quadratures"] += 1
        return quadrature(level, strip)

    monkeypatch.setattr(cg, "_endpoints", counting_endpoints)
    monkeypatch.setattr(sa, "periodic_quadrature", counting_quadrature)
    return counts


def test_one_pass_over_the_samples_per_set_of_chords(passes):
    # (5, 0.999) converges at 8192 nodes of the half period, past the
    # 2048-node first grid: three integrand calls
    table, caustic = T5, cg.CausticSpec(0.999)
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
    """A caustic that converges by 256 nodes costs one integrand call, and
    one that needs 512, (5, 0.85), is predicted there and costs one call of
    512 nodes; one that needs 2048, (5, 0.99), is predicted there and costs
    one call of 2048 nodes, each node once (four calls from a 256-node first
    grid).  The grids are in v = 2u, so 2048 nodes are the chords at the
    2048 u of [0, pi) (the 4096-node u-grid's first half); the full-period
    grid took four calls for (5, 0.99)."""
    sa.mean_sidelength(T5, cg.CausticSpec(0.61), method="quadrature")
    assert [len(u) for u in passes["grids"]] == [256]
    passes["grids"].clear()
    sa.mean_sidelength(T5, cg.CausticSpec(0.85), method="quadrature")
    assert [len(u) for u in passes["grids"]] == [512]
    passes["grids"].clear()
    sa.mean_sidelength(T5, cg.CausticSpec(0.99), method="quadrature")
    (nodes,) = passes["grids"]
    assert on_the_table(nodes, 2048)
    assert np.array_equal(np.sort(nodes), np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False))
    assert np.array_equal(np.sort(0.5 * nodes), np.linspace(0.0, math.pi, 2048, endpoint=False))


def strip_law_grid(table, caustic):
    """The first grid the strip law names: the least n of 256, 512, 1024 and
    2048 with n atanh(b_c/a_c) >= _STRIP_EXPONENT, 2048 if none, and 256 on
    the circle, which has no strip."""
    ac, bc = cg.caustic_axes(table, caustic)
    return next((n for n in (256, 512, 1024) if bc >= ac or n * math.atanh(bc / ac) >= sa._STRIP_EXPONENT),
                2048)


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 5.0])
def test_a_caustic_predicted_within_512_nodes_starts_on_the_first_grid(passes, a):
    """Every cell whose strip predicts 512 nodes or fewer, the circle's
    included, makes its first integrand call on the grid the strip names,
    the first 256 or 512 nodes of the table itself, and so on the
    trigonometry taken at import."""
    table, predicted = cg.BilliardTable(a, 1.0), []
    for fraction in CELLS:
        first = strip_law_grid(table, cg.CausticSpec(fraction))
        if first > 512:
            continue
        passes["grids"].clear()
        sa._quadrature_averages.cache_clear()
        sa.mean_sidelength(table, cg.CausticSpec(fraction), method="quadrature")
        assert on_the_table(passes["grids"][0], first), (a, fraction)
        predicted.append(first)
    assert len(predicted) >= 7 and predicted.count(256) >= 5


def bulk_caustics(count=256):
    """count (a, lambda) spread over bulk-sweep's range, a in [1, 5] with
    every 16th the circle and lambda/b^2 in [0.01, 0.99] (b = 1), on the
    R2 sequence (steps 1/g and 1/g^2, g the plastic number), so that they
    cover the square evenly."""
    g = 1.324717957244746
    for i in range(count):
        x, y = (0.5 + i / g) % 1.0, (0.5 + i / (g * g)) % 1.0
        yield (1.0 if i % 16 == 0 else 1.0 + 4.0 * x), 0.01 + 0.98 * y


def test_every_bulk_caustic_takes_one_call_on_the_grid_its_strip_names(passes):
    """Each of 256 caustics over bulk-sweep's range converges in all four
    averages on its first integrand call, and that call is on the grid the
    strip law names: a change to the integrand's decay or to the law shows
    here rather than as a second call.  Most start on the 256-node floor,
    some on 512 and a few on 1024 (231, 22 and 3 of them)."""
    firsts = []
    for a, fraction in bulk_caustics():
        table, caustic = cg.BilliardTable(a, 1.0), cg.CausticSpec(fraction)
        passes["grids"].clear()
        sa._quadrature_averages.cache_clear()
        defects = [defect for _, _, defect, _ in sa._quadrature_averages(a, fraction)]
        assert all(defect < sa._QUAD_TOL for defect in defects), (a, fraction, defects)
        first = strip_law_grid(table, caustic)
        assert [len(v) for v in passes["grids"]] == [first], (a, fraction)
        assert on_the_table(passes["grids"][0], first), (a, fraction)
        firsts.append(first)
    sa._quadrature_averages.cache_clear()
    assert firsts.count(256) >= 200 and firsts.count(512) >= 10 and firsts.count(1024) >= 1


def test_no_call_exceeds_the_caps(passes):
    """No first call exceeds the 2048-node cap, however narrow the strip,
    and a caustic that fails at the 2^20-node cap, (2, 1 - 1e-9), evaluates
    no call of more than 2^19 nodes (the midpoints of the last level)."""
    sa._quadrature_averages.cache_clear()
    with pytest.raises(NumericalError, match="did not converge at 1048576 nodes"):
        sa.mean_sidelength(T2, cg.CausticSpec(1.0 - 1e-9), method="quadrature")
    sizes = [len(u) for u in passes["grids"]]
    assert sizes[0] == 2048 and max(sizes) == 2**19 and sum(sizes[1:]) == 2**20 - 2048


@pytest.mark.parametrize("table, lam", [(CIRCLE, 0.5), (T2, 0.8)])
def test_shared_grid_at_vanishing_ca(passes, table, lam):
    """At ca = 0 log|outer cosine| is -inf on every node and never converges;
    it stays off the grid, so the other three converge at their usual level
    rather than doubling to the 2^20-node cap."""
    caustic = cg.CausticSpec(lam)
    assert cg._ca(table.a, lam) == 0.0
    for average in (sa.mean_sidelength, sa.mean_cosine, sa.mean_curvature23):
        quad = average(table, caustic, method="quadrature").value
        closed = average(table, caustic, method="closed_form").value
        assert abs(quad - closed) <= 1e-9 * max(1.0, abs(closed))
    assert sa.log_geomean_outer(table, caustic) == (-math.inf, 0)
    assert passes["quadratures"] == 1 and sum(map(len, passes["grids"])) <= 256


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
            ((quad, _),), _ = sa.periodic_quadrature(
                lambda u: np.stack([cg.measure_density(table, caustic, u), np.ones_like(u)]))
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
    """The closed kappa^(2/3) is the linear identity (a b)^(-4/3) (1 + Cbar)
    / (2 J^2) of the closed cosine: bit for bit where ca <= 0 (at ca = 0,
    where Cbar = 0, and past it), and where ca > 0, where it forms 1 + Cbar
    as 2 lam b^2/q plus the cosine's elliptic term, within 4 ulps of
    1 + Cbar (measured: 2), which is what rounding 1 + Cbar costs once it
    cancels (3,600 ulps of kappa^(2/3) at (20, 0.001)); on a = 20 and b != 1
    too.  It matches the quadrature to 1e-9."""
    a20 = cg.BilliardTable(20.0, 1.0)
    for table, lam in ((T2, 0.5), (T5, 0.9), (TB, 2.0), (T2, 0.8), (a20, 0.3), (T2, 0.9), (T5, 0.99),
                       (a20, 0.001), (T12, 0.01)):
        caustic = cg.CausticSpec(lam)
        quad = sa.mean_curvature23(table, caustic)
        closed = sa.mean_curvature23(table, caustic, method="closed_form")
        assert abs(quad.value - closed.value) / closed.value < 1e-9
        j = cg.joachimsthal(table, caustic)
        cbar = sa.mean_cosine(table, caustic).value
        identity = (table.a * table.b) ** (-4.0 / 3.0) * (1.0 + cbar) / (2.0 * j * j)
        if cg._ca(*cg._unit(table, caustic)[:2]) > 0.0:
            bound = 4.0 * np.finfo(float).eps * closed.value / (1.0 + cbar)
            assert abs(identity - closed.value) <= bound, (table, lam)
        else:
            assert closed.value == identity, (table, lam)


def test_mean_curvature23_matches_four_periodic():
    caustic = find_caustic_for_period(T2, 4)
    report = evaluate_invariants(build_periodic_orbit(T2, 4))
    kbar = sa.mean_curvature23(T2, caustic).value
    assert abs(report.sum_kappa23 / 4.0 - kbar) / kbar < 1e-6


def closed_forms_to_40_digits(a, lam):
    """Sidelength, cosine and kappa^(2/3) of the caustic on the table (a, 1),
    from mpmath's K and Pi at 40 digits of the formulas as printed (the
    cosine in its (s2 - s1) form), with s3, s5 and s2 formed from the exact
    float inputs."""
    with mp.workdps(40):
        a, lam = mp.mpf(a), mp.mpf(lam)
        a2, c2 = a * a, a * a - 1
        s3 = c2 / (a2 - lam)
        k = mp.ellipk(s3)
        sidelength = 2 * a * (k + (lam - 1) * mp.ellippi(lam * s3, s3)) / (mp.sqrt(lam) * k)
        ca = a2 - lam * (a2 + 1)
        r1, r2 = -ca * (a2 * a2 * (1 - lam) + lam * lam * c2), ca * c2 * (ca + 2 * lam * lam)
        r3, r4 = (a2 - lam * c2) ** 2 * (a2 - lam), -c2 * ca * ca
        if ca == 0 or c2 == 0:  # 0, and r1/r3 = 2 lam - 1 on the circle
            cosine = r1 / r3
        else:
            s1, s2 = -r2 / r1, -r4 / r3
            cosine = (r1 / r3) * ((s2 - s1) * mp.ellippi(s2, s3) + s1 * k) / (s2 * k)
        curvature23 = a ** (mp.mpf(-4) / 3) * (1 + cosine) * a2 / (2 * lam)
        return sidelength, cosine, curvature23


# Measured worst cases of the closed forms against closed_forms_to_40_digits
# over 6,000 random caustics drawn as below: sidelength 3.7e-15 and
# kappa^(2/3) 1.03e-14 relative, cosine 1.59e-14 absolute.  Before the kernels
# took their complements in factored form, 1 - m formed from m near 1 gave
# 2.7e-6, 8.9e-7 and 1.3e-6 there.
CLOSED_FORM_40_DIGITS = {"sidelength": 8e-15, "interior_cosine": 3.2e-14, "curvature23": 2e-14}


@settings(deadline=None, max_examples=120)
@given(st.floats(1.0, 20.0), st.floats(0.05, 9.0))
def test_closed_forms_against_40_digits_out_to_the_guard(a, k):
    """On a in [1, 20] and lambda = b^2 (1 - 10^-k) out to the guard
    (k <= 9), the three closed forms stay within a few ulps of 40-digit values
    of their own formulas: the kernels take 1 - s3, 1 - s5 and 1 - s2 in
    factored form, and the cosine its coefficient r2 r3 - r1 r4, so nothing
    cancels as lambda -> b^2."""
    lam = 1.0 - 10.0**-k
    got = sa._closed_forms(a, lam)
    want = closed_forms_to_40_digits(a, lam)
    errors = {"sidelength": abs(got[0] - want[0]) / want[0], "interior_cosine": abs(got[1] - want[1]),
              "curvature23": abs(got[2] - want[2]) / want[2]}
    for quantity, error in errors.items():
        assert float(error) <= CLOSED_FORM_40_DIGITS[quantity], (a, k, quantity, float(error))


# Measured worst case of the closed sidelength against closed_forms_to_40_digits
# over 2,000 random caustics drawn as below: 2.0e-15 relative.  Written as
# 2a (b^2 K + (lambda - b^2) Pi(s5, s3))/(b sqrt(lambda) K), its two terms
# near b^2 K cancel like 1/lambda, which gave 7.7e-13 there.
SMALL_LAMBDA_SIDELENGTH_REL = 4e-15


@settings(deadline=None, max_examples=120)
@given(st.floats(1.0, 20.0), st.floats(0.05, 3.0))
def test_closed_sidelength_against_40_digits_at_small_lambda(a, k):
    """On a in [1, 20] and lambda = b^2 10^-k, k in [0.05, 3], the closed
    sidelength stays within a few ulps of its 40-digit value: it is formed as
    2a sqrt(lambda) (K - r H(s5, s3))/(b K), in which nothing cancels as
    lambda -> 0."""
    lam = 10.0**-k
    got = sa._closed_forms(a, lam)[0]
    want = closed_forms_to_40_digits(a, lam)[0]
    error = float(abs(got - want) / want)
    assert error <= SMALL_LAMBDA_SIDELENGTH_REL, (a, k, error)


# Measured worst case of the closed kappa^(2/3) against closed_forms_to_40_digits
# over 800 random caustics drawn as below: 1.55e-15 relative.  Formed from
# 1 + Cbar, which cancels as Cbar -> -1, it gave 9.6e-13 there.
SMALL_LAMBDA_CURVATURE23_REL = 4e-15


@settings(deadline=None, max_examples=120)
@given(st.floats(1.0, 20.0), st.floats(0.05, 3.0))
def test_closed_curvature23_against_40_digits_at_small_lambda(a, k):
    """On a in [1, 20] and lambda = b^2 10^-k, k in [0.05, 3], the closed
    kappa^(2/3) stays within a few ulps of its 40-digit value: where ca > 0
    its 1 + Cbar is formed as 2 lam b^2/q plus the cosine's elliptic term,
    two positive terms, and does not cancel as Cbar -> -1."""
    lam = 10.0**-k
    got = sa._closed_forms(a, lam)[2]
    want = closed_forms_to_40_digits(a, lam)[2]
    error = float(abs(got - want) / want)
    assert error <= SMALL_LAMBDA_CURVATURE23_REL, (a, k, error)


def test_closed_forms_are_their_factored_formulas_bit_for_bit():
    """_closed_forms is its docstring's factored formulas on the unit table,
    written out here in the same order of operations, bit for bit: a one-ulp
    change of an exact factor (the 2 of the sidelength, the 4 of 1 - s2, the
    2 of the cosine coefficient) stays inside the 40-digit bounds above but
    shows here.  The sidelength is 2a sqrt(lambda) (K - r H(s5, s3))/K,
    r = b_c^2 c^2/a_c^2; kappa^(2/3) takes 1 + Cbar as 2 lam/q plus the
    cosine's elliptic term where ca > 0 and as 1 + Cbar elsewhere, at
    ca = 0 on (3, 0.9) too, where 2 lam/q rounds to 1 + 2^-52.  TB is read
    through cg._unit, as the public functions read it."""
    for table, frac in ((T12, 0.3), (T2, 0.5), (T5, 0.9), (TB, 0.7), (T2, 1.0 - 1e-6),
                        (cg.BilliardTable(20.0, 1.0), 1.0 - 1e-9), (cg.BilliardTable(18.3, 1.0), 0.036),
                        (cg.BilliardTable(20.0, 1.0), 0.001), (cg.BilliardTable(3.0, 1.0), 0.9)):
        a, lam, _ = cg._unit(table, cg.CausticSpec(frac * table.b * table.b))
        c2 = a * a - 1.0
        ac, bc = math.sqrt(a * a - lam), math.sqrt(1.0 - lam)
        ac2, bc2 = ac * ac, bc * bc
        m1 = bc2 / ac2
        k = complete_k_m1(m1)
        h5 = complete_pi_minus_k_m1(a * a * bc2 / ac2, m1)
        sidelength = 2.0 * a * math.sqrt(lam) * (k - bc2 * c2 / ac2 * h5) / k
        ca = a * a - lam * (a * a + 1.0)
        q = a * a * bc2 + lam
        r3 = q * q * ac2
        n1 = bc2 * (q * q + 4.0 * lam * a * a * c2) / r3
        coefficient = 2.0 * lam * c2 * bc2 * ca * (a * a + lam * c2) / (q * r3)
        term = coefficient * complete_pi_minus_k_m1(n1, m1) / k
        cosine = -ca * (a**4 * bc2 + lam * lam * c2) / r3 + term
        j = math.sqrt(lam) / a
        one_plus_cosine = 2.0 * lam / q + term if ca > 0.0 else 1.0 + cosine
        curvature23 = a ** (-4.0 / 3.0) * one_plus_cosine / (2.0 * j * j)
        assert sa._closed_forms(a, lam) == (sidelength, cosine, curvature23, None), (table, frac)


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


def test_log_geomean_sign_of_a_numpy_table():
    """A table built from numpy floats makes ca a numpy float, whose
    comparisons give numpy bools; the sign is still a Python int."""
    log_mean, sign = sa.log_geomean_outer(cg.BilliardTable(np.float64(2.0), 1.0), cg.CausticSpec(0.3))
    assert type(sign) is int and sign == -1
    assert log_mean == sa.log_geomean_outer(T2, cg.CausticSpec(0.3))[0]


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
        def weighted(u):
            rho = cg.measure_density(table, caustic, u)
            return np.stack([rho, np.log(np.abs(outer_cosine_gradient(table, caustic, u))) * rho])

        ((_, brute),), _ = sa.periodic_quadrature(weighted)
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
    within 1e-12 of the 40-digit references (measured: 2.1e-13 at worst, and
    1.6e-13 when the grid spanned the full period)."""
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


def test_each_record_rejects_a_caustic_past_the_guard_on_every_call():
    """The caustic is checked inside each cached record; lru_cache keeps no
    exception, so the quadrature route and the closed forms reject a caustic
    past the guard on every call, not only on the first."""
    caustic = cg.CausticSpec(1.0 - 1e-10)
    for _ in range(2):
        for method in ("quadrature", "closed_form"):
            with pytest.raises(DomainError, match="exceeds b"):
                sa.mean_cosine(T2, caustic, method=method)
        with pytest.raises(DomainError, match="exceeds b"):
            sa.log_geomean_outer(T2, caustic)


def test_a_defect_equal_to_the_tolerance_is_not_converged(monkeypatch):
    """An average converges where its defect lies strictly below _QUAD_TOL,
    as periodic_quadrature closes a pair: a record whose defect equals it
    raises, one an ulp below it is read."""
    for defect, converged in ((sa._QUAD_TOL, False), (math.nextafter(sa._QUAD_TOL, 0.0), True)):
        monkeypatch.setattr(sa, "_quadrature_averages", lambda a, lam: ((0.5, defect, defect, 1.0),) * 4)
        if converged:
            assert sa.mean_sidelength(T2, cg.CausticSpec(0.5), method="quadrature").value == 0.5
        else:
            with pytest.raises(NumericalError, match="did not converge"):
                sa.mean_sidelength(T2, cg.CausticSpec(0.5), method="quadrature")


def test_average_result_fields():
    res = sa.mean_sidelength(T2, cg.CausticSpec(0.5), method="quadrature")
    assert res.err_estimate >= 0.0
    assert res.lam == 0.5
    with pytest.raises(DomainError):
        sa.mean_sidelength(T2, cg.CausticSpec(0.5), method="simpson")


@settings(deadline=None, max_examples=40)
@given(*SCALE_DRAWS)
def test_scale_equivariance(k, a, fraction):
    """b is a unit of length: on a table and caustic scaled by s = 10^k,
    k in [-150, 150], each average by each route, with its error estimate,
    is b^p times its value on the unit table (a/b, 1) and caustic lam/b^2
    the pair converts to, bit for bit (measured: 0 ulps): p = 1 for the
    sidelength, 0 for the cosine and log|outer cosine|, -2/3 for
    kappa^(2/3) and 1/3 for Z; the outer sign is the unit table's.  At
    s = 1e-60 the closed forms' r3 = q^2 a_c^2 underflowed, and at 1e100
    the quadrature's a^4 overflowed, before they were taken on the unit
    table."""
    s, table, caustic, unit, unit_caustic = scaled_tables(k, a, fraction)
    assert sa.normalization(table, caustic) == sa.normalization(unit, unit_caustic) * s ** (1.0 / 3.0)
    for average, power in ((sa.mean_sidelength, 1.0), (sa.mean_cosine, 0.0),
                           (sa.mean_curvature23, -2.0 / 3.0)):
        for method in ("closed_form", "quadrature"):
            got, want = average(table, caustic, method), average(unit, unit_caustic, method)
            assert got.value == want.value * s**power, (average.__name__, method)
            assert got.err_estimate == want.err_estimate * s**power, (average.__name__, method)
            assert (got.method, got.lam) == (method, caustic.lam)
    assert sa.log_geomean_outer(table, caustic) == sa.log_geomean_outer(unit, unit_caustic)


def test_routes_independent_of_elliptic_integrals(monkeypatch):
    """Quadrature and orbit routes never evaluate K or Pi, nor the closed
    forms' record, so they cross-check the closed forms rather than repeat them."""

    def forbidden(*args):
        raise RuntimeError("complete elliptic integral evaluated")

    bound = patch_complete_integrals(monkeypatch, lambda fn: forbidden)
    assert bound == ["complete_k_m1", "complete_pi_minus_k_m1"]
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

