"""End-to-end acceptance battery.  Each test prints one PASS/FAIL line on the
real stdout (bypassing capture) and asserts the stated tolerance.

Criteria 1-4 and 9 read one `caustics verify` run on the default tables
(a = 1.2, 2, 5; b = 1).  Each check is written once, in `cli.run_battery`;
a criterion asserts on its `Check` records, pins the tolerance they carry,
and sums their elapsed times over the three tables for its runtime budget.

 1. dual-route Z, sidelength, cosine and kappa^(2/3), 3 tables x 19 lambdas,
    1e-9 rel, <10 s
 2. 1e6-bounce time averages vs quadrature, 5 lambdas/table, 4 quantities,
    5e-3 rel, <60 s
 3. N-periodic invariants (sidelength, cosine, kappa^(2/3), outer cosine)
    vs spatial averages at lambda_N, N=3..7, 1e-6, <30 s
 4. sum-of-cosines identity (1e-9) and 10-seed invariance spreads (1e-8 rel),
    on the default tables and the circle
 5. mean sidelength -> 2a with gap (c/a) artanh(c/a) / K(s3), 1e-4, both
    routes; monotone to the guard
 6. circle exactness of every closed form, 1e-12
 7. outer-cosine sign flip at lambda = a^2 b^2/(a^2+b^2) for a=5, with the
    geometric mean vanishing from both sides
 8. elliptic integrals vs adaptive quadrature on a 20x20 grid, 1e-11 rel
 9. CLI: verify exits 0 on the default tables with no FAIL line; sweep
    output deterministic with PERIODIC rows matching to 1e-6
"""
from __future__ import annotations

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import caustics.conic_geometry as cg
import caustics.spatial_averages as sa
from caustics import cli
from caustics.billiard_dynamics import find_caustic_for_period
from caustics.cli import main, run_battery
from caustics.elliptic_integrals import complete_k, complete_pi

TABLES = [cg.BilliardTable(a, 1.0) for a in (1.2, 2.0, 5.0)]

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    # report() punches through pytest's fd-level capture so that every
    # criterion leaves a visible PASS/FAIL line in the run log
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    with _CAPSYS.disabled():
        print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def verify_run():
    """(exit code, stdout, `Check` records) of one `caustics verify` run."""
    assert cli._DEFAULT_TABLES == ((1.2, 1.0), (2.0, 1.0), (5.0, 1.0))
    records = []

    def spy(*args, **kwargs):
        checks = run_battery(*args, **kwargs)
        records.extend(checks)
        return checks

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "run_battery", spy)
        code = main(["verify"])
    return code, out.getvalue(), records


def battery_summary(records, kind, tol):
    """Count, worst value and summed elapsed time of the records of one check.

    `kind` is the start of the check's name; each record must carry `tol`.
    """
    found = [c for c in records if c.name.startswith(kind)]
    assert found and all(c.tol == tol for c in found), found
    return len(found), max(c.worst for c in found), sum(c.elapsed_s for c in found)


def test_criterion_1_dual_route(verify_run):
    count, worst, dt = battery_summary(verify_run[2], "dual-route", 1e-9)
    ok = count == 3 and worst <= 1e-9 and dt < 10.0
    assert report(1, ok, f"dual-route worst rel dev {worst:.3e} (tol 1e-9), {dt:.1f}s (< 10s)")


def test_criterion_2_ergodic(verify_run):
    count, worst, dt = battery_summary(
        verify_run[2], "ergodic time average vs spatial (1000000 bounces)", 5e-3
    )
    ok = count == 3 and worst <= 5e-3 and dt < 60.0
    assert report(
        2, ok, f"1e6-bounce ergodic worst rel dev {worst:.3e} (tol 5e-3), {dt:.1f}s (< 60s)"
    )


def test_criterion_3_periodic_matching(verify_run):
    count, worst, dt = battery_summary(verify_run[2], "N-periodic", 1e-6)
    ok = count == 3 and worst <= 1e-6 and dt < 30.0
    assert report(
        3, ok, f"N-periodic vs spatial worst dev {worst:.3e} (tol 1e-6), {dt:.1f}s (< 30s)"
    )


def test_criterion_4_identity_and_seeds(verify_run):
    # the default tables' records plus the circle's, from a quick battery on it
    records = verify_run[2] + run_battery([(1.0, 1.0)], quick=True)
    n_identity, worst_identity, _ = battery_summary(records, "sum-of-cosines", 1e-9)
    n_spread, worst_spread, _ = battery_summary(records, "seed-invariance", 1e-8)
    ok = n_identity == n_spread == 4 and worst_identity <= 1e-9 and worst_spread <= 1e-8
    assert report(
        4,
        ok,
        f"sum-cos identity worst {worst_identity:.3e} (tol 1e-9), "
        f"seed spread worst {worst_spread:.3e} (tol 1e-8)",
    )


def test_criterion_5_sidelength_limit():
    """The mean sidelength tends to 2a as lambda -> b^2, by its exact gap law.

    As lambda -> b^2, s3 = c^2/(a^2 - lambda) -> 1 and every chord tends to
    the major axis except those through a focus.  In the rotation coordinate
    dt = du / sqrt(1 - s3 cos^2 u) the total measure is 4 K(s3), and the
    focal chords at angle phi carry measure dphi / sin(phi) with length
    2ab^2 / (a^2 - c^2 cos^2 phi).  Both foci together give the deficit
    integral (2a - l) dt = 8c artanh(c/a), so

        1 - Lbar/(2a) = (c/a) artanh(c/a) / K(s3) + O((b^2 - lambda)/b^2).

    The approach is logarithmic: a 1% gap would need K(s3) of 35-225, that
    is b^2 - lambda below about 1e-29, far inside the 1e-9 guard.  So
    the limit is checked through the law at lambda = b^2 (1 - 1e-6), by both
    routes with K taken from scipy, and through a strictly increasing
    approach that stays below 2a out to the guard.  The raw deviations
    from 2a are reported alongside.
    """
    devs = []
    worst_law = 0.0
    monotone = True
    for table in TABLES:
        a = table.a
        c_over_a = math.sqrt(table.c2) / a
        lam = table.b**2 * (1.0 - 1e-6)
        gap_law = c_over_a * math.atanh(c_over_a) / scipy.special.ellipk(table.c2 / (a * a - lam))
        closed, quad = (
            sa.mean_sidelength(table, cg.CausticSpec(lam), method=method).value
            for method in ("closed_form", "quadrature")
        )
        devs.append(abs(closed - 2.0 * a) / (2.0 * a))
        for lbar in (closed, quad):
            worst_law = max(worst_law, abs((1.0 - lbar / (2.0 * a)) / gap_law - 1.0))
        approach = [
            sa.mean_sidelength(table, cg.CausticSpec(table.b**2 * (1.0 - 10.0**-k))).value
            for k in range(3, 10)
        ]
        monotone = (
            monotone
            and all(x < y for x, y in zip(approach, approach[1:]))
            and approach[-1] < 2.0 * a
        )
    ok = worst_law <= 1e-4 and monotone
    assert report(
        5,
        ok,
        f"mean sidelength gap-law worst residual {worst_law:.3e} (tol 1e-4), "
        f"monotone below 2a to the guard={monotone}; deviations from 2a at "
        "lambda = b^2(1-1e-6): "
        + ", ".join(f"a={t.a:g}: {d:.2%}" for t, d in zip(TABLES, devs)),
    )


def test_criterion_6_circle_exactness():
    circle = cg.BilliardTable(1.0, 1.0)
    worst = 0.0
    for lam in np.linspace(0.1, 0.9, 9):
        lam = float(lam)
        caustic = cg.CausticSpec(lam)
        worst = max(worst, abs(sa.mean_sidelength(circle, caustic).value - 2.0 * math.sqrt(lam)))
        worst = max(worst, abs(sa.mean_cosine(circle, caustic).value - (2.0 * lam - 1.0)))
        log_mean, sign = sa.log_geomean_outer(circle, caustic)
        ca = 1.0 - 2.0 * lam
        worst = max(worst, abs(math.exp(log_mean) - abs(ca)))
        # at lam = 1/2 the outer cosine vanishes identically: sign 0, mean 0
        assert sign == (0 if ca == 0.0 else (-1 if ca > 0.0 else 1))
    for n in range(3, 8):
        worst = max(
            worst, abs(find_caustic_for_period(circle, n).lam - math.sin(math.pi / n) ** 2)
        )
    ok = worst <= 1e-12
    assert report(6, ok, f"circle closed-form worst abs dev {worst:.3e} (tol 1e-12)")


def test_criterion_7_sign_flip():
    table = cg.BilliardTable(5.0, 1.0)
    lam_star = 25.0 / 26.0
    below = [sa.log_geomean_outer(table, cg.CausticSpec(lam_star - eps)) for eps in (1e-2, 1e-4, 1e-6)]
    above = [sa.log_geomean_outer(table, cg.CausticSpec(lam_star + eps)) for eps in (1e-2, 1e-4, 1e-6)]
    signs_ok = all(s == -1 for _, s in below) and all(s == 1 for _, s in above)
    means_below = [math.exp(lm) for lm, _ in below]
    means_above = [math.exp(lm) for lm, _ in above]
    vanishes = (
        all(b > a for b, a in zip(means_below, means_below[1:]))
        and all(b > a for b, a in zip(means_above, means_above[1:]))
        and means_below[-1] < 1e-4
        and means_above[-1] < 1e-4
    )
    ok = signs_ok and vanishes
    assert report(
        7,
        ok,
        f"sign -1 -> +1 across lambda = 25/26; geometric mean falls to "
        f"{means_below[-1]:.1e} / {means_above[-1]:.1e} at +-1e-6",
    )


def test_criterion_8_elliptic_grid():
    def quad_k(m):
        val, _ = scipy.integrate.quad(
            lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
            0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14,
        )
        return val

    def quad_pi(n, m):
        val, _ = scipy.integrate.quad(
            lambda t: 1.0 / ((1.0 - n * math.sin(t) ** 2) * math.sqrt(1.0 - m * math.sin(t) ** 2)),
            0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14,
        )
        return val

    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        for m in np.linspace(0.0, 0.95, 20):
            m = float(m)
            worst = max(worst, abs(complete_k(m) / quad_k(m) - 1.0))
            for n in np.linspace(-0.9, 0.95, 20):
                n = float(n)
                worst = max(worst, abs(complete_pi(n, m) / quad_pi(n, m) - 1.0))
    ok = worst <= 1e-11
    assert report(8, ok, f"K/Pi vs quadrature on 20x20 grid, worst rel dev {worst:.3e} (tol 1e-11)")


def test_criterion_9_cli_integration(capsys, verify_run):
    code, verify_out, _ = verify_run
    verify_ok = code == 0 and not any(ln.startswith("FAIL") for ln in verify_out.splitlines())

    argv = ["sweep", "--a", "2", "--steps", "3", "--mark-periodics", "3,4,5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    deterministic = first == second

    lines = [ln for ln in first.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    marked = [r for r in rows if r["flag"].startswith("PERIODIC:")]
    periodic_ok = len(marked) == 3
    for row in marked:
        sl, dl = float(row["mean_sidelength"]), float(row["discrete_sidelength"])
        kq, dk = float(row["mean_kappa23"]), float(row["discrete_kappa23"])
        periodic_ok = periodic_ok and abs(dl - sl) / sl <= 1e-6
        periodic_ok = periodic_ok and abs(float(row["discrete_cosine"]) - float(row["mean_cosine"])) <= 1e-6
        periodic_ok = periodic_ok and abs(dk - kq) / kq <= 1e-6
        periodic_ok = periodic_ok and abs(float(row["discrete_outer_abs"]) - float(row["geomean_outer_abs"])) <= 1e-6

    ok = verify_ok and deterministic and periodic_ok
    assert report(
        9,
        ok,
        f"verify exit={code}, sweep deterministic={deterministic}, "
        f"PERIODIC rows within 1e-6={periodic_ok}",
    )
