"""Command-line surface: caustic sweeps as CSV, periodic-orbit tables, orbit dumps,
and a one-shot verification battery.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical failure.
All data goes to standard output (CSV with a '#' metadata header, values printed
with 17 significant digits so identical flags reproduce identical bytes);
diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import conic_geometry as cg
from . import spatial_averages as sa
from .billiard_dynamics import TIME_AVERAGE_QUANTITIES, iterate_orbit, time_average
from .errors import DomainError, NumericalError
from .invariant_suite import _polygon, build_periodic_orbit, evaluate_invariants

_DUAL_ROUTE_REL = 1e-9
_PERIODIC_MATCH = 1e-6
_ERGODIC_REL = 5e-3
_IDENTITY_TOL = 1e-9
_SEED_SPREAD_REL = 1e-8
_DEFAULT_TABLES = ((1.2, 1.0), (2.0, 1.0), (5.0, 1.0))
_ERGODIC_FRACTIONS = (0.11, 0.24, 0.37, 0.52, 0.68)
# The four averages in sweep column order: each one's spatial average, looked up
# on `sa` at call time so that a wrapper bound there sees every call (None for
# outer, whose one route is log_geomean_outer), and its N-periodic discrete value.
_AVERAGES = {
    "sidelength": (lambda t, c, m: sa.mean_sidelength(t, c, m), lambda r, n: r.perimeter / n),
    "cosine": (
        lambda t, c, m: sa.mean_cosine(t, c, m),
        lambda r, n: r.joachimsthal * r.perimeter / n - 1.0,
    ),
    "kappa23": (lambda t, c, m: sa.mean_curvature23(t, c, m), lambda r, n: r.sum_kappa23 / n),
    "outer": (None, lambda r, n: abs(r.product_outer_cos) ** (1.0 / n)),
}
_SWEEP_QUANTITIES = tuple(_AVERAGES)


def _fmt(x) -> str:
    return "%.17g" % x


def _print_meta(command: str, flag_pairs):
    print(f"# caustics {command} v{__version__}")
    print("# flags: " + " ".join(f"{k}={v}" for k, v in flag_pairs))
    print(
        f"# tolerances: dual_route_rel={_DUAL_ROUTE_REL:g} "
        f"quad_tol_abs={sa._QUAD_TOL:g} periodic_match_abs={_PERIODIC_MATCH:g}"
    )


def _route_dev(name, value, ref):
    """Deviation of one average's value from its reference, at the average's scale.

    The mean cosine and the outer geometric mean, both in [-1, 1], reach zero
    inside the sweep range, so they compare at max(1, |ref|); the others at |ref|.
    """
    scale = max(1.0, abs(ref)) if name in ("cosine", "outer") else abs(ref)
    return abs(value - ref) / scale


def _spatial_row_values(table, caustic, quantities, method):
    """One sweep row: {quantity: value} (plus "outer_sign"), method tags, and
    under method 'both', which reports the closed form, each average's
    `_route_dev` of quadrature from closed form."""
    values, tags, devs = {}, {}, {}
    for name, (spatial, _) in _AVERAGES.items():
        if name not in quantities:
            continue
        if spatial is None:
            log_mean, values["outer_sign"] = sa.log_geomean_outer(table, caustic)
            values[name], tags[name] = math.exp(log_mean), "quadrature"
            continue
        res = spatial(table, caustic, "quadrature" if method == "quadrature" else "closed_form")
        values[name], tags[name] = res.value, res.method
        if method == "both":
            devs[name] = _route_dev(name, spatial(table, caustic, "quadrature").value, res.value)
            tags[name] = "both"
    return values, tags, devs


def cmd_sweep(args) -> int:
    table = cg.BilliardTable(args.a, args.b)
    b2 = table.b**2
    lam_min = 0.01 * b2 if args.lambda_min is None else args.lambda_min
    lam_max = 0.99 * b2 if args.lambda_max is None else args.lambda_max
    guard = sa._DEGENERACY_GUARD * b2
    if not (0.0 < lam_min <= lam_max <= guard):
        raise DomainError(
            f"need 0 < lambda-min <= lambda-max <= b^2 (1 - 1e-9) = {guard}; "
            f"got [{lam_min}, {lam_max}]"
        )
    if args.steps < 1:
        raise DomainError(f"--steps must be >= 1; got {args.steps}")
    quantities = _parse_quantities(args.quantities)
    marks = _parse_periods(args.mark_periodics)

    _print_meta(
        "sweep",
        [
            ("a", args.a),
            ("b", args.b),
            ("lambda_min", lam_min),
            ("lambda_max", lam_max),
            ("steps", args.steps),
            ("quantities", ",".join(quantities)),
            ("method", args.method),
            ("mark_periodics", ",".join(map(str, marks))),
        ],
    )
    header = (
        "lambda,one_minus_lambda,b_c,mean_sidelength,mean_cosine,mean_kappa23,"
        "geomean_outer_abs,geomean_outer_sign,method_flags,flag,"
        "discrete_sidelength,discrete_cosine,discrete_kappa23,discrete_outer_abs"
    )
    print(header)

    def emit(lam, flag="", discrete=None):
        caustic = cg.CausticSpec(lam)
        values, tags, devs = _spatial_row_values(table, caustic, quantities, args.method)
        for name, dev in devs.items():
            if not dev <= _DUAL_ROUTE_REL:  # NaN fails too
                raise NumericalError(
                    f"{name} routes disagree at lam={caustic.lam}: "
                    f"relative deviation {dev:.3e} > {_DUAL_ROUTE_REL:g}"
                )
        cells = [_fmt(lam), _fmt(b2 - lam), _fmt(math.sqrt(b2 - lam))]
        cells += [_fmt(values[name]) if name in values else "" for name in _AVERAGES]
        cells.append(str(values["outer_sign"]) if "outer_sign" in values else "")
        cells.append(";".join(f"{k}={v}" for k, v in sorted(tags.items())))
        cells.append(flag)
        cells += [_fmt(discrete[name]) if discrete else "" for name in _AVERAGES]
        print(",".join(cells))

    for lam in np.linspace(lam_min, lam_max, args.steps):
        emit(float(lam))

    periodic_rows = []
    for n in marks:
        orbit = build_periodic_orbit(table, n)
        report = evaluate_invariants(orbit)
        discrete = {name: value(report, n) for name, (_, value) in _AVERAGES.items()}
        periodic_rows.append((orbit.lam, f"PERIODIC:{n}", discrete))
    for lam, flag, discrete in sorted(periodic_rows):
        emit(lam, flag, discrete)
    return 0


def cmd_periodic(args) -> int:
    table = cg.BilliardTable(args.a, args.b)
    periods = _parse_periods(args.n)
    if not periods:
        raise DomainError("--n requires at least one period")
    _print_meta("periodic", [("a", args.a), ("b", args.b), ("n", ",".join(map(str, periods)))])
    print(
        "n,lambda,b_c,perimeter,joachimsthal,sum_cos,product_outer_cos,sum_kappa23,"
        "closure_defect,sum_cos_identity,joachimsthal_spread,status"
    )
    for n in periods:
        try:
            orbit = build_periodic_orbit(table, n)
            report = evaluate_invariants(orbit)
        except NumericalError as exc:
            reason = str(exc).replace(",", ";")
            print(f"{n}," + "," * 10 + f"SKIPPED: {reason}")
            continue
        cells = [
            str(n),
            _fmt(orbit.lam),
            _fmt(math.sqrt(table.b**2 - orbit.lam)),
            _fmt(report.perimeter),
            _fmt(report.joachimsthal),
            _fmt(report.sum_cos),
            _fmt(report.product_outer_cos),
            _fmt(report.sum_kappa23),
            _fmt(report.identity_residuals["closure_defect"]),
            _fmt(report.identity_residuals["sum_cos_identity"]),
            _fmt(report.identity_residuals["joachimsthal_spread"]),
            "OK",
        ]
        print(",".join(cells))
    return 0


def cmd_orbit(args) -> int:
    table = cg.BilliardTable(args.a, args.b)
    caustic = cg.CausticSpec(args.lam)
    sample = iterate_orbit(table, caustic, args.u0, args.n)
    a, lam, b = cg._unit(table, caustic)
    _print_meta(
        "orbit",
        [("a", args.a), ("b", args.b), ("lambda", args.lam), ("u0", args.u0), ("n", args.n)],
    )
    print("# joachimsthal_residual: |<A P, unit incoming edge> - J|, row 0 |<A P, unit outgoing edge> + J|")
    print("index,x,y,u_lifted,joachimsthal_residual")
    verts, us = sample.vertex_sequence, sample.u_sequence
    # vertex 1 put before vertex 0 makes row 0's departure an arrival on the
    # reversed edge; the residuals, of the unit polygon, scale like 1/b
    *_, residuals = _polygon(a, cg._joachimsthal(a, lam), np.concatenate((verts[1:2], verts)).T / b)
    for i in range(args.n + 1):
        print(
            ",".join(
                [str(i), _fmt(verts[i, 0]), _fmt(verts[i, 1]), _fmt(us[i]), _fmt(residuals[i] / b)]
            )
        )
    return 0


def _worst(values):
    """The largest of a check's deviations, NaN if any of them is NaN, which
    Python's max drops unless it comes first."""
    return float(np.max(values))


def _relative_spread(values, floor):
    """Spread across seeds relative to the values' own scale; NaN if a value is.

    `floor` is the quantity's roundoff floor: when every value sits below it
    the quantity vanishes identically on that orbit family and the spread is
    vacuously zero (a ratio of noise terms would be meaningless there).
    """
    values = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(values)))
    if scale <= floor:
        return 0.0
    return float(np.ptp(values)) / scale


@dataclass(frozen=True)
class Check:
    """One battery check: the worst `measure` found over its grid, against `tol`."""

    name: str
    measure: str
    worst: float
    tol: float
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    @property
    def detail(self) -> str:
        return f"{self.measure} {self.worst:.3e} (tol {self.tol:g})"


def run_battery(tables, quick=False):
    """The verification battery behind `caustics verify`.

    Returns a list of `Check` records, five per table: the dual-route,
    ergodic, periodic-matching, sum-of-cosines identity and seed-invariance
    checks.  The last three share one loop over orbits and all report its time.
    """
    checks = []
    n_bounces = 10_000 if quick else 1_000_000
    for a, b in tables:
        table = cg.BilliardTable(a, b)
        tag = f"a={a:g} b={b:g}"
        b2 = b * b

        t0 = time.perf_counter()
        worst = 0.0
        for frac in np.arange(0.05, 0.9501, 0.05):
            caustic = cg.CausticSpec(float(frac) * b2)
            _, _, devs = _spatial_row_values(table, caustic, _SWEEP_QUANTITIES, "both")
            # the Z that each average's quadrature pair integrated on the unit
            # table, off the same grid; Z scales like b^(1/3)
            z = sa.normalization(table, caustic) * b ** (-1.0 / 3.0)
            z_devs = [abs(quad_z / z - 1.0)
                      for *_, quad_z in sa._quadrature_averages(*cg._unit(table, caustic)[:2])
                      if quad_z is not None]
            worst = _worst([worst, *z_devs, *devs.values()])
        checks.append(Check(f"dual-route closed form vs quadrature [{tag}]", "worst rel dev",
                            worst, _DUAL_ROUTE_REL, time.perf_counter() - t0))

        t0 = time.perf_counter()
        worst = 0.0
        for frac in _ERGODIC_FRACTIONS:
            caustic = cg.CausticSpec(frac * b2)
            for quantity in TIME_AVERAGE_QUANTITIES:
                ref = sa._average(table, caustic, "quadrature", quantity).value
                t = time_average(table, caustic, quantity, n_bounces).value
                name = "cosine" if quantity == "interior_cosine" else quantity
                worst = _worst([worst, _route_dev(name, t, ref)])
        checks.append(Check(f"ergodic time average vs spatial ({n_bounces} bounces) [{tag}]",
                            "worst rel dev", worst, _ERGODIC_REL, time.perf_counter() - t0))

        t0 = time.perf_counter()
        worst_match, worst_identity, worst_spread = 0.0, 0.0, 0.0
        for n in range(3, 8):
            orbits = [
                build_periodic_orbit(table, n, seed_u=s)
                for s in np.linspace(0.0, 2.0 * math.pi / n, 10, endpoint=False)
            ]
            reports = [evaluate_invariants(orbit) for orbit in orbits]
            # the closed-form row that `sweep --mark-periodics` prints at lambda_N
            caustic = cg.CausticSpec(orbits[0].lam)
            row, _, _ = _spatial_row_values(table, caustic, _SWEEP_QUANTITIES, "closed")
            worst_match = _worst([
                worst_match,
                *(_route_dev(name, value(r, n), row[name])
                  for r in reports for name, (_, value) in _AVERAGES.items()),
            ])
            worst_identity = _worst(
                [worst_identity, *(r.identity_residuals["sum_cos_identity"] for r in reports)]
            )
            # sum_cos and the outer product vanish identically on the ca = 0
            # family (N = 4); below their roundoff floors the spread is vacuous
            worst_spread = _worst([
                worst_spread,
                _relative_spread([r.perimeter for r in reports], 0.0),
                _relative_spread([r.sum_cos for r in reports], 1e-9),
                _relative_spread([r.product_outer_cos for r in reports], 1e-12),
                _relative_spread([r.sum_kappa23 for r in reports], 0.0),
            ])
        elapsed = time.perf_counter() - t0
        checks.append(Check(f"N-periodic invariants vs spatial averages (N=3..7) [{tag}]",
                            "worst dev", worst_match, _PERIODIC_MATCH, elapsed))
        checks.append(Check(f"sum-of-cosines identity J L - N (10 seeds, N=3..7) [{tag}]",
                            "worst residual", worst_identity, _IDENTITY_TOL, elapsed))
        checks.append(Check(f"seed-invariance of periodic invariants (10 seeds, N=3..7) [{tag}]",
                            "worst rel spread", worst_spread, _SEED_SPREAD_REL, elapsed))
    return checks


def cmd_verify(args) -> int:
    if args.a is None and args.b is not None:
        raise DomainError("--b needs --a: verify --a A --b B runs the battery on one table")
    b = 1.0 if args.b is None else args.b
    tables = [(args.a, b)] if args.a is not None else list(_DEFAULT_TABLES)
    checks = run_battery(tables, quick=args.quick)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    failures = sum(not check.passed for check in checks)
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def _parse_quantities(text):
    if not text:
        return _SWEEP_QUANTITIES
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    bad = [q for q in names if q not in _SWEEP_QUANTITIES]
    if bad:
        raise DomainError(f"unknown quantities {bad}; valid: {_SWEEP_QUANTITIES}")
    return names


def _parse_periods(text):
    """A comma-separated list of periods, each an integer >= 3."""
    try:
        periods = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise DomainError(f"expected a comma-separated integer list: {exc}") from None
    if periods and min(periods) < 3:
        raise DomainError(f"periods must be >= 3; got {min(periods)}")
    return periods


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caustics",
        description="Invariant-measure averages over confocal caustics of the elliptic billiard.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="CSV sweep of spatial averages over lambda")
    sweep.add_argument("--a", type=float, required=True, help="semi-major axis")
    sweep.add_argument("--b", type=float, default=1.0, help="semi-minor axis")
    sweep.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    sweep.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=200)
    sweep.add_argument(
        "--quantities",
        default="",
        help=f"comma-separated subset of {','.join(_SWEEP_QUANTITIES)} (default all)",
    )
    sweep.add_argument("--method", choices=("quadrature", "closed", "both"), default="both")
    sweep.add_argument(
        "--mark-periodics",
        dest="mark_periodics",
        default="",
        help="comma-separated periods; appends PERIODIC rows with discrete averages",
    )
    sweep.set_defaults(func=cmd_sweep)

    periodic = sub.add_parser("periodic", help="table of N-periodic caustics and invariants")
    periodic.add_argument("--a", type=float, required=True)
    periodic.add_argument("--b", type=float, default=1.0)
    periodic.add_argument("--n", required=True, help="period or comma-separated periods (>= 3)")
    periodic.set_defaults(func=cmd_periodic)

    verify = sub.add_parser("verify", help="run the verification battery")
    verify.add_argument("--a", type=float, default=None, help="restrict to one table")
    verify.add_argument("--b", type=float, default=None, help="semi-minor axis, with --a")
    verify.add_argument("--quick", action="store_true", help="100x shorter orbits")
    verify.set_defaults(func=cmd_verify)

    orbit = sub.add_parser("orbit", help="dump an orbit as CSV")
    orbit.add_argument("--a", type=float, required=True)
    orbit.add_argument("--b", type=float, default=1.0)
    orbit.add_argument("--lambda", dest="lam", type=float, required=True)
    orbit.add_argument("--u0", type=float, default=0.0)
    orbit.add_argument("--n", type=int, required=True)
    orbit.set_defaults(func=cmd_orbit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
