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

from . import conic_geometry as cg
from . import spatial_averages as sa
from .billiard_dynamics import iterate_orbit, time_average
from .errors import DomainError, NumericalError
from .invariant_suite import build_periodic_orbit, evaluate_invariants

try:
    from importlib.metadata import version as _version

    _VERSION = _version("artifact")
except Exception:  # not installed; running from a source tree
    _VERSION = "0.1.0"

_DUAL_ROUTE_REL = 1e-9
_PERIODIC_MATCH = 1e-6
_ERGODIC_REL = 5e-3
_IDENTITY_TOL = 1e-9
_SEED_SPREAD_REL = 1e-8
_DEFAULT_TABLES = ((1.2, 1.0), (2.0, 1.0), (5.0, 1.0))
_ERGODIC_FRACTIONS = (0.11, 0.24, 0.37, 0.52, 0.68)
_SWEEP_QUANTITIES = ("sidelength", "cosine", "kappa23", "outer")


def _fmt(x) -> str:
    return "%.17g" % x


def _print_meta(command: str, flag_pairs):
    print(f"# caustics {command} v{_VERSION}")
    print("# flags: " + " ".join(f"{k}={v}" for k, v in flag_pairs))
    print(
        f"# tolerances: dual_route_rel={_DUAL_ROUTE_REL:g} "
        f"quad_tol_abs={sa._QUAD_TOL:g} periodic_match_abs={_PERIODIC_MATCH:g}"
    )


def _route_dev(name, quad, closed):
    """Quadrature-vs-closed-form deviation of one average, at its own scale.

    The mean cosine crosses zero inside the sweep range, so it compares at
    max(1, |closed|); every other quantity compares at |closed|.
    """
    scale = max(1.0, abs(closed)) if name == "cosine" else abs(closed)
    return abs(quad - closed) / scale


def _spatial_row_values(table, caustic, quantities, method):
    """One sweep row: {quantity: value} plus per-quantity method tags.

    method 'both' evaluates quadrature and closed form, checks their agreement
    (`_route_dev`) and reports the closed-form value.
    """
    values, tags = {}, {}
    routed = (
        ("sidelength", sa.mean_sidelength),
        ("cosine", sa.mean_cosine),
        ("kappa23", sa.mean_curvature23),
    )
    for name, fn in routed:
        if name not in quantities:
            continue
        res = fn(table, caustic, method="quadrature" if method == "quadrature" else "closed_form")
        if method == "both":
            quad = fn(table, caustic, method="quadrature")
            if _route_dev(name, quad.value, res.value) > _DUAL_ROUTE_REL:
                raise NumericalError(
                    f"{name} routes disagree at lam={caustic.lam}: "
                    f"quadrature={quad.value!r}, closed={res.value!r}"
                )
        values[name] = res.value
        tags[name] = res.method if method != "both" else "both"
    if "outer" in quantities:
        log_mean, sign = sa.log_geomean_outer(table, caustic)
        values["outer_abs"] = math.exp(log_mean)
        values["outer_sign"] = sign
        tags["outer"] = "quadrature"
    return values, tags


def _discrete_averages(report, n):
    """The four discrete averages of an N-periodic report, keyed as `sweep` keys them."""
    return {
        "sidelength": report.perimeter / n,
        "cosine": report.joachimsthal * report.perimeter / n - 1.0,
        "kappa23": report.sum_kappa23 / n,
        "outer_abs": abs(report.product_outer_cos) ** (1.0 / n),
    }


def cmd_sweep(args) -> int:
    table = cg.BilliardTable(args.a, args.b)
    b2 = table.b**2
    lam_min = 0.01 * b2 if args.lambda_min is None else args.lambda_min
    lam_max = 0.99 * b2 if args.lambda_max is None else args.lambda_max
    if not (0.0 < lam_min <= lam_max < b2):
        raise DomainError(
            f"need 0 < lambda-min <= lambda-max < b^2; got [{lam_min}, {lam_max}], b^2={b2}"
        )
    if args.steps < 1:
        raise DomainError(f"--steps must be >= 1; got {args.steps}")
    quantities = _parse_quantities(args.quantities)
    marks = _parse_int_list(args.mark_periodics)

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
        values, tags = _spatial_row_values(table, caustic, quantities, args.method)
        cells = [_fmt(lam), _fmt(b2 - lam), _fmt(math.sqrt(b2 - lam))]
        for name in ("sidelength", "cosine", "kappa23"):
            cells.append(_fmt(values[name]) if name in values else "")
        cells.append(_fmt(values["outer_abs"]) if "outer_abs" in values else "")
        cells.append(str(values["outer_sign"]) if "outer_sign" in values else "")
        cells.append(";".join(f"{k}={v}" for k, v in sorted(tags.items())))
        cells.append(flag)
        for key in ("sidelength", "cosine", "kappa23", "outer_abs"):
            cells.append(_fmt(discrete[key]) if discrete else "")
        print(",".join(cells))

    for lam in np.linspace(lam_min, lam_max, args.steps):
        emit(float(lam))

    periodic_rows = []
    for n in marks:
        orbit = build_periodic_orbit(table, n)
        report = evaluate_invariants(orbit)
        periodic_rows.append((orbit.lam, f"PERIODIC:{n}", _discrete_averages(report, n)))
    for lam, flag, discrete in sorted(periodic_rows):
        emit(lam, flag, discrete)
    return 0


def cmd_periodic(args) -> int:
    table = cg.BilliardTable(args.a, args.b)
    periods = _parse_int_list(args.n)
    if not periods:
        raise DomainError("--n requires at least one period")
    if min(periods) < 3:
        raise DomainError(f"periods must be >= 3; got {min(periods)}")
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
    if args.n < 1:
        raise DomainError(f"--n must be >= 1; got {args.n}")
    sample = iterate_orbit(table, caustic, args.u0, args.n)
    j = cg.joachimsthal(table, caustic)
    _print_meta(
        "orbit",
        [("a", args.a), ("b", args.b), ("lambda", args.lam), ("u0", args.u0), ("n", args.n)],
    )
    print("# joachimsthal_residual: ||<A P, unit edge>| - J| on the outgoing edge (incoming for the last row)")
    print("index,x,y,u_lifted,joachimsthal_residual")
    verts = sample.vertex_sequence
    edges = np.diff(verts, axis=0)
    edges /= np.hypot(edges[:, 0], edges[:, 1])[:, None]
    normals = np.column_stack([verts[:, 0] / table.a**2, verts[:, 1] / table.b**2])
    for i in range(args.n + 1):
        edge = edges[i] if i < args.n else edges[-1]
        residual = abs(abs(float(np.dot(normals[i], edge))) - j)
        print(
            ",".join(
                [str(i), _fmt(verts[i, 0]), _fmt(verts[i, 1]), _fmt(sample.u_sequence[i]), _fmt(residual)]
            )
        )
    return 0


def _relative_spread(values, floor):
    """Spread across seeds relative to the values' own scale.

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
    checks.  The last two share one loop over orbits and both report its time.
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
            quad_n, _ = sa.periodic_quadrature(lambda u: cg.measure_density(table, caustic, u))
            worst = max(worst, abs(quad_n / sa.normalization(table, caustic) - 1.0))
            for name, fn in (("sidelength", sa.mean_sidelength), ("cosine", sa.mean_cosine)):
                quad = fn(table, caustic, method="quadrature").value
                closed = fn(table, caustic, method="closed_form").value
                worst = max(worst, _route_dev(name, quad, closed))
        checks.append(Check(f"dual-route closed form vs quadrature [{tag}]", "worst rel dev",
                            worst, _DUAL_ROUTE_REL, time.perf_counter() - t0))

        t0 = time.perf_counter()
        worst = 0.0
        for frac in _ERGODIC_FRACTIONS:
            caustic = cg.CausticSpec(frac * b2)
            refs = {
                "sidelength": sa.mean_sidelength(table, caustic, "quadrature").value,
                "interior_cosine": sa.mean_cosine(table, caustic, "quadrature").value,
                "curvature23": sa.mean_curvature23(table, caustic).value,
                "log_abs_outer_cosine": sa.log_geomean_outer(table, caustic)[0],
            }
            for quantity, ref in refs.items():
                t = time_average(table, caustic, quantity, n_bounces).value
                worst = max(worst, abs(t - ref) / abs(ref))
        checks.append(Check(f"ergodic time average vs spatial ({n_bounces} bounces) [{tag}]",
                            "worst rel dev", worst, _ERGODIC_REL, time.perf_counter() - t0))

        t0 = time.perf_counter()
        worst = 0.0
        for n in range(3, 8):
            orbit = build_periodic_orbit(table, n, seed_u=0.123)
            caustic = cg.CausticSpec(orbit.lam)
            disc = _discrete_averages(evaluate_invariants(orbit), n)
            lbar = sa.mean_sidelength(table, caustic).value
            cbar = sa.mean_cosine(table, caustic).value
            kbar = sa.mean_curvature23(table, caustic).value
            log_mean, _ = sa.log_geomean_outer(table, caustic)
            worst = max(
                worst,
                abs(disc["sidelength"] - lbar) / lbar,
                abs(disc["cosine"] - cbar),
                abs(disc["outer_abs"] - math.exp(log_mean)),
                abs(disc["kappa23"] - kbar) / kbar,
            )
        checks.append(Check(f"N-periodic invariants vs spatial averages (N=3..7) [{tag}]",
                            "worst dev", worst, _PERIODIC_MATCH, time.perf_counter() - t0))

        t0 = time.perf_counter()
        worst_identity, worst_spread = 0.0, 0.0
        for n in range(3, 8):
            reports = [
                evaluate_invariants(build_periodic_orbit(table, n, seed_u=s))
                for s in np.linspace(0.0, 2.0 * math.pi / n, 10, endpoint=False)
            ]
            worst_identity = max(
                worst_identity,
                max(r.identity_residuals["sum_cos_identity"] for r in reports),
            )
            # sum_cos and the outer product vanish identically on the ca = 0
            # family (N = 4); below their roundoff floors the spread is vacuous
            worst_spread = max(
                worst_spread,
                _relative_spread([r.perimeter for r in reports], 0.0),
                _relative_spread([r.sum_cos for r in reports], 1e-9),
                _relative_spread([r.product_outer_cos for r in reports], 1e-12),
                _relative_spread([r.sum_kappa23 for r in reports], 0.0),
            )
        elapsed = time.perf_counter() - t0
        checks.append(Check(f"sum-of-cosines identity J L - N (10 seeds, N=3..7) [{tag}]",
                            "worst residual", worst_identity, _IDENTITY_TOL, elapsed))
        checks.append(Check(f"seed-invariance of periodic invariants (10 seeds, N=3..7) [{tag}]",
                            "worst rel spread", worst_spread, _SEED_SPREAD_REL, elapsed))
    return checks


def cmd_verify(args) -> int:
    tables = [(args.a, args.b)] if args.a is not None else list(_DEFAULT_TABLES)
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


def _parse_int_list(text):
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise DomainError(f"expected a comma-separated integer list: {exc}") from None


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
    verify.add_argument("--b", type=float, default=1.0)
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
