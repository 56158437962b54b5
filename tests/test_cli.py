"""Command-line surface: CSV sweeps, periodic tables, orbit dumps, the
verification battery, and the exit-code contract.

Proves:
 Group 1 - sweep
   - header carries the row schema; metadata lines are '#'-prefixed
   - circle sweep: mean_cosine = 2 lambda - 1 per row
   - quantity subsetting leaves unselected cells empty
   - mean_sidelength monotone across rows; b_c column consistent; rows
     ordered by lambda; one_minus_lambda holds b^2 - lambda for any b
   - --mark-periodics appends PERIODIC rows whose spatial and discrete
     columns agree to 1e-6
   - byte-identical output for identical flags
   - a --method both row evaluates its closed forms once: one closed-form
     record per caustic, four elliptic-integral calls
 Group 2 - periodic
   - circle square row: lambda = 0.5, L = 4 sqrt(2)
   - identity residual below 1e-9; n=100 resolves to a valid row
 Group 3 - orbit
   - circle square vertex dump; residual column below 1e-9
 Group 4 - verify and exit codes
   - quick circle battery passes with exit 0; one failing check exits 1
     with its FAIL line and the failure count
   - usage errors exit 2 (bad lambda, bad steps, unknown quantity,
     missing flags, verify --b without --a); unbracketable period exits 3
   - a sweep whose --lambda-max lies past the degeneracy guard exits 2
     before it prints anything, as does an orbit whose --u0 is nan or +-inf
   - a closed form off by 1e-6 fails the dual-route comparison: sweep
     --method both exits 3 naming the quantity, and the battery records a
     failing dual-route check (kappa^(2/3) included)
   - a NaN closed-form cosine fails too: sweep --method both exits 3, the
     battery's dual-route and N-periodic checks fail and verify exits 1
   - the ergodic check passes on a table whose mean interior cosine
     vanishes at one of its caustics
   - the battery integrates each caustic once: the dual-route Z check reads
     the Z of the averages' own quadrature
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import caustics.spatial_averages as sa
from caustics import cli
from caustics.cli import Check, main
from oracles import patch_complete_integrals


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# ----------------------------------------------------------------- group 1


def test_sweep_metadata_and_schema(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a", "2", "--steps", "3")
    assert code == 0
    meta = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert any("caustics sweep" in ln for ln in meta)
    assert any("tolerances" in ln for ln in meta)
    header, rows = parse_csv(out)
    assert header[:9] == [
        "lambda",
        "one_minus_lambda",
        "b_c",
        "mean_sidelength",
        "mean_cosine",
        "mean_kappa23",
        "geomean_outer_abs",
        "geomean_outer_sign",
        "method_flags",
    ]
    assert len(rows) == 3


def test_sweep_circle_cosine_linear(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a", "1", "--b", "1", "--steps", "3")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        lam = float(row["lambda"])
        assert float(row["mean_cosine"]) == pytest.approx(2.0 * lam - 1.0, abs=1e-11)
        assert float(row["b_c"]) == pytest.approx(math.sqrt(1.0 - lam), abs=1e-12)


def test_sweep_one_minus_lambda_is_b2_minus_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--a", "3", "--b", "1.7", "--steps", "2", "--quantities", "sidelength"
    )
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        gap = 1.7**2 - float(row["lambda"])
        assert float(row["one_minus_lambda"]) == pytest.approx(gap, rel=1e-12)
        assert float(row["b_c"]) == pytest.approx(math.sqrt(gap), rel=1e-12)


def test_sweep_quantity_subset_and_monotonicity(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--a", "2", "--steps", "5", "--quantities", "sidelength"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    lams = [float(r["lambda"]) for r in rows]
    assert lams == sorted(lams)
    sides = [float(r["mean_sidelength"]) for r in rows]
    assert all(b > a for a, b in zip(sides, sides[1:]))
    assert all(r["mean_cosine"] == "" and r["geomean_outer_abs"] == "" for r in rows)


def test_sweep_periodic_markers_match_discrete(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--a", "5", "--steps", "2", "--mark-periodics", "3,5,7"
    )
    assert code == 0
    _, rows = parse_csv(out)
    marked = [r for r in rows if r["flag"].startswith("PERIODIC:")]
    assert [r["flag"] for r in marked] == ["PERIODIC:7", "PERIODIC:5", "PERIODIC:3"]
    for row in marked:
        spatial_l = float(row["mean_sidelength"])
        assert abs(float(row["discrete_sidelength"]) - spatial_l) / spatial_l < 1e-6
        assert abs(float(row["discrete_cosine"]) - float(row["mean_cosine"])) < 1e-6
        spatial_k = float(row["mean_kappa23"])
        assert abs(float(row["discrete_kappa23"]) - spatial_k) / spatial_k < 1e-6
        assert abs(float(row["discrete_outer_abs"]) - float(row["geomean_outer_abs"])) < 1e-6


def test_sweep_deterministic(capsys):
    _, first, _ = run_cli(capsys, "sweep", "--a", "1.7", "--steps", "7", "--mark-periodics", "4")
    _, second, _ = run_cli(capsys, "sweep", "--a", "1.7", "--steps", "7", "--mark-periodics", "4")
    assert first == second


def test_sweep_row_evaluates_its_closed_forms_once(capsys, monkeypatch):
    calls = []

    def counted(fn):
        def counting(*args):
            calls.append(args)
            return fn(*args)

        return counting

    assert patch_complete_integrals(monkeypatch, counted) == ["complete_k_m1", "complete_pi_minus_k_m1"]
    code, _, _ = run_cli(capsys, "sweep", "--a", "2", "--steps", "3", "--method", "both")
    assert code == 0
    assert len(calls) == 3 * 3  # per row: K, and (Pi - K)/n at s5 and at s2
    assert sa._closed_forms.cache_info().misses == 3


# ----------------------------------------------------------------- group 2


def test_periodic_circle_square(capsys):
    code, out, _ = run_cli(capsys, "periodic", "--a", "1", "--b", "1", "--n", "4")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["lambda"]) == pytest.approx(0.5, abs=1e-12)
    assert float(rows[0]["perimeter"]) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
    assert rows[0]["status"] == "OK"


def test_periodic_identity_residual(capsys):
    code, out, _ = run_cli(capsys, "periodic", "--a", "2", "--n", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["sum_cos_identity"]) < 1e-9
    assert float(rows[0]["closure_defect"]) < 1e-8


def test_periodic_large_n_resolves(capsys):
    code, out, _ = run_cli(capsys, "periodic", "--a", "2", "--n", "100")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["status"] == "OK"
    assert 0.0 < float(rows[0]["lambda"]) < 0.01


# ----------------------------------------------------------------- group 3


def test_orbit_circle_square(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--a", "1", "--b", "1", "--lambda", "0.5", "--u0", "0", "--n", "4"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    r = math.sqrt(0.5)
    for row in rows:
        assert abs(float(row["x"])) == pytest.approx(r, abs=1e-12)
        assert abs(float(row["y"])) == pytest.approx(r, abs=1e-12)
    assert float(rows[-1]["u_lifted"]) == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_orbit_residual_column(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--a", "2", "--lambda", "0.37", "--n", "1000")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1001
    assert max(float(r["joachimsthal_residual"]) for r in rows) < 1e-9


# ----------------------------------------------------------------- group 4


def test_verify_quick_circle(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "1", "--b", "1", "--quick")
    assert code == 0
    assert "FAIL" not in out
    assert "all" in out.splitlines()[-1]


def test_verify_failure_exits_one(capsys, monkeypatch):
    checks = [
        Check("good", "worst dev", 1e-12, 1e-9, 0.0),
        Check("bad", "worst dev", 2e-3, 1e-6, 0.0),
    ]
    monkeypatch.setattr(cli, "run_battery", lambda tables, quick=False: checks)
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 1
    assert "FAIL bad: worst dev 2.000e-03 (tol 1e-06)" in out.splitlines()
    assert out.splitlines()[-1] == "1 of 2 checks failed"


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "--a", "2", "--lambda", "-1", "--n", "3"),
        ("sweep", "--a", "2", "--steps", "0"),
        ("sweep", "--a", "2", "--lambda-min", "0.9", "--lambda-max", "0.1"),
        ("sweep", "--a", "2", "--quantities", "area"),
        ("sweep",),  # missing required --a
        ("periodic", "--a", "2", "--n", "2"),
        ("orbit", "--a", "2", "--lambda", "0.5", "--n", "0"),
        ("verify", "--b", "0.5"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def test_sweep_rejects_a_lambda_max_past_the_guard_before_printing(capsys):
    # b^2 (1 - 1e-9) is the largest lambda every route admits; a range past it
    # is refused before the header, not at the first row beyond it
    code, out, err = run_cli(
        capsys, "sweep", "--a", "2", "--lambda-min", "0.5", "--lambda-max", "0.9999999999",
        "--steps", "3",
    )
    assert code == 2 and out == ""
    assert "lambda-max <= b^2 (1 - 1e-9)" in err


@pytest.mark.parametrize("u0", ["nan", "inf", "-inf"])
def test_orbit_with_a_non_finite_seed_exits_two_before_printing(capsys, u0):
    code, out, err = run_cli(capsys, "orbit", "--a", "2", "--lambda", "0.4", f"--u0={u0}", "--n", "10")
    assert code == 2 and out == ""
    assert "seed u0 must be a finite number" in err


def test_verify_b_needs_a(capsys):
    _, _, err = run_cli(capsys, "verify", "--quick", "--b", "0.5")
    assert "--b" in err and "--a" in err


def skew_closed_form(monkeypatch, name):
    """Shift the closed-form route of sa.<name> by 1e-6; quadrature stays honest."""
    honest = getattr(sa, name)

    def skewed(table, caustic, method="closed_form"):
        res = honest(table, caustic, method)
        return dataclasses.replace(res, value=res.value + 1e-6) if method == "closed_form" else res

    monkeypatch.setattr(sa, name, skewed)


def test_sweep_route_disagreement_exits_three(capsys, monkeypatch):
    skew_closed_form(monkeypatch, "mean_cosine")
    code, out, err = run_cli(capsys, "sweep", "--a", "2", "--steps", "1")
    assert code == 3
    assert "cosine routes disagree" in err
    _, rows = parse_csv(out)
    assert rows == []


def test_battery_compares_kappa23_routes(monkeypatch):
    skew_closed_form(monkeypatch, "mean_curvature23")
    checks = cli.run_battery([(2.0, 1.0)], quick=True)
    dual = [c for c in checks if c.name.startswith("dual-route")]
    assert len(dual) == 1 and not dual[0].passed


def test_a_nan_closed_form_fails_the_sweep_and_the_battery(capsys, monkeypatch):
    # NaN > tol is false, and Python's max drops a NaN that is not its first
    # argument: neither may let a NaN deviation pass
    honest = sa._closed_forms

    def nan_cosine(table, caustic):
        sidelength, _, curvature23, outer = honest(table, caustic)
        return sidelength, math.nan, curvature23, outer

    monkeypatch.setattr(sa, "_closed_forms", nan_cosine)
    code, out, err = run_cli(capsys, "sweep", "--a", "2", "--steps", "3", "--method", "both")
    assert code == 3 and "cosine routes disagree" in err
    assert parse_csv(out)[1] == []
    code, out, _ = run_cli(capsys, "verify", "--a", "2", "--quick")
    failed = [line.split(" [")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1 and failed == [
        "FAIL dual-route closed form vs quadrature",
        "FAIL N-periodic invariants vs spatial averages (N=3..7)",
    ]
    # the identity and seed-spread checks fold their values the same way
    assert math.isnan(cli._worst([0.0, 1.0, math.nan, 2.0]))
    assert math.isnan(cli._relative_spread([1.0, math.nan], 1e-9))


def test_battery_ergodic_check_where_the_mean_cosine_vanishes():
    # lambda* = a^2 b^2/(a^2 + b^2) is 0.68 b^2 here, one of the ergodic
    # caustics, and the mean interior cosine there is ~1e-16
    checks = cli.run_battery([(1.457737973711325, 1.0)], quick=True)
    ergodic = [c for c in checks if c.name.startswith("ergodic")]
    assert len(ergodic) == 1 and ergodic[0].passed


def test_battery_integrates_each_caustic_once(monkeypatch):
    quadrature, calls = sa.periodic_quadrature, []

    def counting(f, strip):
        calls.append(f)
        return quadrature(f, strip)

    monkeypatch.setattr(sa, "periodic_quadrature", counting)
    checks = cli.run_battery([(2.0, 1.0)], quick=True)
    assert all(c.passed for c in checks)
    # 19 dual-route caustics, 5 ergodic ones and lambda_3 ... lambda_7, whose
    # PERIODIC rows read the outer average
    assert len(calls) == 19 + 5 + 5


def test_numerical_failure_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--a", "2", "--steps", "1", "--mark-periodics", "1000000"
    )
    assert code == 3
    assert "numerical failure" in err
