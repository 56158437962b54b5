"""The seeded workloads: input generation, the timed op, and its cross-check.

BENCHMARK.json lists bulk-sweep, ergodic-orbits and poncelet.  grazing-sweep
runs on request (`--workload grazing-sweep`): it records the rows that fail
near the degeneracy guard, but a 30 s run completes only about 450 rows, whose
costs range over a hundredfold as quadrature doubles toward its node cap, so
its tail time, throughput and peak memory spread by 0.13 to 0.44 of their
median between seeds, more than the benchmark's bounds allow.

Every op calls the library only through the public names of `caustics`
(looked up at call time, so the traced run sees them), and every result is
checked against a route that shares no code with it, at the tolerance the
program itself uses for that comparison in `caustics.cli`.

Inputs come from a shifted R2 low-discrepancy sequence (Roberts 2018): each
coordinate is uniform on its range and every prefix of the sequence covers
the (a, lambda) square evenly, so a run that completes a few dozen ops still
sees the whole range and different seeds see the same mix.  b = 1 throughout
and every CIRCLE_EVERY-th table is the circle a = b.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

import caustics
from caustics import billiard_dynamics, cli
from caustics.errors import NumericalError

B = 1.0
A_RANGE = (1.0, 5.0)
CIRCLE_EVERY = 16
# `verify` holds the sum-of-cosines identity J L - N to this literal
# (cli.run_battery); the program has no named constant for it
IDENTITY_TOL = 1e-9
_R2 = np.array([0.7548776662466927, 0.5698402909980532])  # 1/g, 1/g^2; g the plastic number


class OpFailure(Exception):
    """An op that raised NumericalError or failed its cross-check."""

    def __init__(self, quantity, error):
        super().__init__(f"{quantity}: {error}")
        self.quantity = quantity
        self.error = str(error)


def _unit_square(rng, count):
    shift = rng.random(2)
    return (shift + np.arange(count)[:, None] * _R2) % 1.0


def _semi_major(unit):
    a = A_RANGE[0] + (A_RANGE[1] - A_RANGE[0]) * unit
    a[::CIRCLE_EVERY] = B
    return a


def digest(inputs):
    h = hashlib.sha256()
    for key in sorted(inputs):
        arr = np.ascontiguousarray(inputs[key])
        h.update(key.encode() + str(arr.shape).encode() + arr.tobytes())
    return h.hexdigest()


class Workload:
    """One workload.  Subclasses define generate, op, check and where."""

    name = ""
    why = ""
    cli_argv: list = []
    pool = 1  # op i runs input i % pool (with per-op extras drawn apart)
    # True where ops are known to fail at the seed commit; elsewhere a failure
    # makes the run incorrect
    known_failures = False

    def generate(self, seed):
        """All inputs of a run, as a dict of arrays; a pure function of seed."""
        raise NotImplementedError

    def prepare(self, inputs):
        """Untimed per-input work the check needs (default: none)."""
        return {}

    def op(self, inputs, state, i):
        """The timed op number i; raises OpFailure."""
        raise NotImplementedError

    def check(self, inputs, state, i, result):
        """Cross-check of op i's result, done after timing; raises OpFailure."""

    def where(self, inputs, i):
        """(a, lambda) of op i, for failure records."""
        raise NotImplementedError


class Sweep(Workload):
    """One `caustics sweep --method both` row per op."""

    _ROUTES = (
        ("sidelength", "mean_sidelength"),
        ("cosine", "mean_cosine"),
        ("kappa23", "mean_curvature23"),
    )
    pool = 1024

    def __init__(self, name, why, lam_of_unit, cli_argv, known_failures=False):
        self.name, self.why, self._lam, self.cli_argv = name, why, lam_of_unit, cli_argv
        self.known_failures = known_failures

    def generate(self, seed):
        unit = _unit_square(np.random.default_rng(seed), self.pool)
        return {"a": _semi_major(unit[:, 0]), "lam": B * B * self._lam(unit[:, 1])}

    def where(self, inputs, i):
        k = i % self.pool
        return float(inputs["a"][k]), float(inputs["lam"][k])

    def op(self, inputs, state, i):
        a, lam = self.where(inputs, i)
        table, caustic = caustics.BilliardTable(a, B), caustics.CausticSpec(lam)
        row = {}
        for name, fn_name in self._ROUTES:
            fn = getattr(caustics, fn_name)
            try:
                quad = fn(table, caustic, method="quadrature").value
                closed = fn(table, caustic, method="closed_form").value
            except NumericalError as exc:
                raise OpFailure(name, exc) from None
            # the same scale the sweep command compares at: the cosine crosses zero
            scale = max(1.0, abs(closed)) if name == "cosine" else abs(closed)
            if not abs(quad - closed) <= cli._DUAL_ROUTE_REL * scale:
                raise OpFailure(name, f"routes disagree: quadrature={quad!r}, closed={closed!r}, "
                                      f"rel {abs(quad - closed) / scale:.3e}")
            row[name] = closed
        try:
            row["outer"] = caustics.log_geomean_outer(table, caustic)
        except NumericalError as exc:
            raise OpFailure("outer", exc) from None
        return row

    def check(self, inputs, state, i, result):
        # log_geomean_outer has one route only; it must be the log of a mean |cosine| <= 1
        log_mean, _ = result["outer"]
        if math.isnan(log_mean) or log_mean > 1e-12:
            raise OpFailure("outer", f"log geometric mean {log_mean!r} is not <= 0")


class Ergodic(Workload):
    name = "ergodic-orbits"
    why = "billiard step plus vectorized conic_geometry over long orbits; no quadrature in the timed phase"
    cli_argv = ["orbit", "--a", "2", "--lambda", "0.4", "--u0", "0.1", "--n", "2000"]
    pool = 48
    bounces = 20_000
    _REFS = (
        ("sidelength", lambda t, c: caustics.mean_sidelength(t, c, method="quadrature").value),
        ("interior_cosine", lambda t, c: caustics.mean_cosine(t, c, method="quadrature").value),
        ("curvature23", lambda t, c: caustics.mean_curvature23(t, c).value),
        ("log_abs_outer_cosine", lambda t, c: caustics.log_geomean_outer(t, c)[0]),
    )

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        unit = _unit_square(rng, self.pool)
        return {
            "a": _semi_major(unit[:, 0]),
            "lam": B * B * (0.05 + 0.9 * unit[:, 1]),
            "u0": rng.uniform(0.0, 2.0 * math.pi, 4096),
        }

    def prepare(self, inputs):
        # spatial references, as `verify` computes them before its orbits
        refs = []
        for k in range(self.pool):
            table = caustics.BilliardTable(float(inputs["a"][k]), B)
            caustic = caustics.CausticSpec(float(inputs["lam"][k]))
            refs.append({q: ref(table, caustic) for q, ref in self._REFS})
        return {"refs": refs}

    def where(self, inputs, i):
        k = i % self.pool
        return float(inputs["a"][k]), float(inputs["lam"][k])

    def op(self, inputs, state, i):
        a, lam = self.where(inputs, i)
        table, caustic = caustics.BilliardTable(a, B), caustics.CausticSpec(lam)
        u0 = float(inputs["u0"][i % len(inputs["u0"])])
        result = {}
        for quantity in billiard_dynamics.TIME_AVERAGE_QUANTITIES:
            try:
                result[quantity] = caustics.time_average(
                    table, caustic, quantity, self.bounces, u0=u0).value
            except NumericalError as exc:
                raise OpFailure(quantity, exc) from None
        return result

    def check(self, inputs, state, i, result):
        refs = state["refs"][i % self.pool]
        for quantity, value in result.items():
            ref = refs[quantity]
            # the mean cosine vanishes at lam = a^2 b^2 / (a^2 + b^2), inside the
            # drawn range, so it is compared at the unit scale `sweep` uses for it
            scale = max(1.0, abs(ref)) if quantity == "interior_cosine" else abs(ref)
            dev = abs(value - ref) / scale
            if not dev <= cli._ERGODIC_REL:
                raise OpFailure(quantity, f"time average {value!r} vs spatial "
                                          f"{refs[quantity]!r}: rel dev {dev:.3e}")


class Poncelet(Workload):
    name = "poncelet"
    why = "many short orbits inside root solves, the opposite use of the step from ergodic-orbits"
    cli_argv = ["periodic", "--a", "2", "--n", "3,4,5,6,7,8,9,10,11,12"]
    pool = 256
    seeds_per_op = 4
    period_range = (3, 40)

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        unit = _unit_square(rng, self.pool)
        lo, hi = self.period_range
        return {
            "a": _semi_major(unit[:, 0]),
            "n": np.minimum(lo + np.floor(unit[:, 1] * (hi - lo + 1)), hi).astype(np.int64),
            "seed_u": rng.uniform(0.0, 2.0 * math.pi, (4096, self.seeds_per_op)),
        }

    def prepare(self, inputs):
        return {"spatial": {}}

    def where(self, inputs, i):
        k = i % self.pool
        return float(inputs["a"][k]), None

    def op(self, inputs, state, i):
        k = i % self.pool
        table, n = caustics.BilliardTable(float(inputs["a"][k]), B), int(inputs["n"][k])
        seeds = inputs["seed_u"][i % len(inputs["seed_u"])]
        try:
            caustic = caustics.find_caustic_for_period(table, n)
            reports = [
                caustics.evaluate_invariants(caustics.build_periodic_orbit(table, n, seed_u=float(s)))
                for s in seeds
            ]
        except NumericalError as exc:
            raise OpFailure(f"period-{n}", exc) from None
        return caustic.lam, reports

    def _spatial(self, state, table, lam):
        key = (table.a, lam)
        if key not in state["spatial"]:
            caustic = caustics.CausticSpec(lam)
            state["spatial"][key] = (
                caustics.mean_sidelength(table, caustic).value,
                caustics.mean_cosine(table, caustic).value,
                caustics.mean_curvature23(table, caustic).value,
                math.exp(caustics.log_geomean_outer(table, caustic)[0]),
            )
        return state["spatial"][key]

    def check(self, inputs, state, i, result):
        k = i % self.pool
        table, n = caustics.BilliardTable(float(inputs["a"][k]), B), int(inputs["n"][k])
        lam, reports = result
        try:
            lbar, cbar, kbar, gbar = self._spatial(state, table, lam)
        except NumericalError as exc:
            raise OpFailure(f"period-{n}/spatial", exc) from None
        tol = cli._PERIODIC_MATCH
        for r in reports:
            # the comparisons of the `verify` periodic-matching check
            devs = {
                "sidelength": abs(r.perimeter / n - lbar) / lbar,
                "cosine": abs(r.joachimsthal * r.perimeter / n - 1.0 - cbar),
                "outer": abs(abs(r.product_outer_cos) ** (1.0 / n) - gbar),
                "kappa23": abs(r.sum_kappa23 / n - kbar) / kbar,
            }
            bad = {q: d for q, d in devs.items() if not d <= tol}
            bad.update({q: d for q, d in r.identity_residuals.items() if not d <= IDENTITY_TOL})
            if bad:
                raise OpFailure(f"period-{n}", f"deviations above {tol:g} (identities "
                                               f"{IDENTITY_TOL:g}): {bad} at lam={lam!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "bulk-sweep",
            "quadrature-bound dual-route rows over the sweep default range; no dynamics",
            lambda unit: 0.01 + 0.98 * unit,
            ["sweep", "--a", "2", "--steps", "40", "--method", "both"],
        ),
        Sweep(
            "grazing-sweep",
            "rows up to the degeneracy guard, where quadrature doubles toward its node cap",
            lambda unit: 1.0 - 10.0 ** (-(3.0 + 6.0 * unit)),
            ["sweep", "--a", "1.5", "--lambda-min", "0.999", "--lambda-max", "0.99999",
             "--steps", "8", "--method", "both"],
            # quadrature stops at its 2^20-node cap inside the admitted domain
            known_failures=True,
        ),
        Ergodic(),
        Poncelet(),
    )
}
