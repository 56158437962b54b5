"""Set-up, the measured phase, the checks and the metrics of one benchmark run.

Imported by run.py after it has imported caustics from the checkout.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, thread_time
from typing import NamedTuple

import numpy as np
import scipy

import caustics.cli
from caustics.errors import DomainError
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, OpFailure, digest

ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
WARMUP_OPS = (-1, -2)  # op indices the measured phase does not reach first
CLI_OP = -2  # op id of spans recorded during the cli command
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW = 8  # kernel timings around an op whose median calibrates it
REFERENCE_S = 1e-3  # what one reference kernel counts as in calibrated time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_GRID = np.linspace(0.0, 2.0 * math.pi, 1024)


def reference():
    """Thread CPU seconds of a fixed kernel: small numpy ufuncs and scalar math.

    The library does the same mix.  The machine is shared, and while its
    neighbours load it the library and this kernel both run up to twice as
    slow, for seconds to minutes at a time, with or without steal time.
    The op times are divided by this kernel's time around them, so the
    machine's speed cancels out of them.
    """
    t0 = thread_time()
    acc = 0.0
    for k in range(40):
        acc += float(np.sum(np.sqrt(1.0 + 0.5 * np.cos(_GRID + k) ** 2)))
    for k in range(2000):
        acc += math.sin(1e-3 * k)
    return thread_time() - t0


def calibrated(seconds, reference_s):
    """CPU seconds in reference seconds: the reference kernel takes REFERENCE_S."""
    return seconds * (REFERENCE_S / reference_s)


def set_up(workload, seed):
    """Generate inputs, prepare check references and warm up."""
    inputs = workload.generate(seed)
    state = workload.prepare(inputs)
    for i in WARMUP_OPS:
        with contextlib.suppress(OpFailure):
            workload.op(inputs, state, i)
    return inputs, state


def import_seconds():
    """CPU seconds of `import caustics` in fresh interpreters, one per repeat."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.process_time(); "
            "import caustics; print(time.process_time() - t0)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return times


def measure_setup(workload, seed):
    """Set-up CPU seconds: median fresh import plus median in-process set-up.

    Not calibrated: the import does not slow with the reference kernel.
    """
    imports = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = thread_time()
        inputs, state = set_up(workload, seed)
        setups.append(thread_time() - t0)
    return inputs, state, {"setup_s": statistics.median(imports) + statistics.median(setups),
                           "import_cpu_s": imports, "set_up_cpu_s": setups}


class Phase(NamedTuple):
    """One measured phase."""

    wall: float  # seconds of the whole phase
    cpu: np.ndarray  # thread CPU seconds of each op
    latency: np.ndarray  # wall seconds of each op
    reference_s: np.ndarray  # the reference kernel's time around each op
    outcomes: list  # what settle made of each op's result or error


def local_reference(references, before):
    """Median of the REFERENCE_WINDOW kernel timings nearest each op.

    before[i] is the index of the last kernel timing taken before op i.
    """
    refs = np.asarray(references)
    half = REFERENCE_WINDOW // 2
    lo = np.clip(before + 1 - half, 0, max(len(refs) - REFERENCE_WINDOW, 0))
    windows = np.stack([refs[np.minimum(lo + k, len(refs) - 1)] for k in range(REFERENCE_WINDOW)])
    return np.median(windows, axis=0)


def measure(workload, inputs, state, settle, *, seconds=None, count=None, tracer=None):
    """Closed loop over ops 0, 1, ..., one at a time, with the reference kernel
    timed every REFERENCE_EVERY_S between ops.

    settle(i, outcome) runs untimed after op i and what it returns is kept.
    """
    op = workload.op if tracer is None else tracer.span("bench", "op", workload.op)
    cpu, latency, before, outcomes = [], [], [], []
    references = [reference()]
    i = 0
    start = last_reference = perf_counter()
    while (i < count) if count is not None else (perf_counter() - start < seconds):
        if perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(reference())
            last_reference = perf_counter()
        if tracer is not None:
            tracer.op = i
        w0, c0 = perf_counter(), thread_time()
        try:
            outcome = op(inputs, state, i)
        except (OpFailure, DomainError) as exc:
            # the traceback and the chained error would keep the op's arrays alive
            exc.__traceback__ = exc.__context__ = None
            outcome = exc
        c1, w1 = thread_time(), perf_counter()
        cpu.append(c1 - c0)
        latency.append(w1 - w0)
        before.append(len(references) - 1)
        outcomes.append(settle(i, outcome))
        i += 1
    wall = perf_counter() - start
    references.append(reference())
    return Phase(wall, np.array(cpu), np.array(latency),
                 local_reference(references, np.array(before, dtype=np.int64)), outcomes)


def check(workload, inputs, state, i, outcome):
    """Cross-check op i: None if it passed, else ("failure" or "problem", record).

    A failed op raised NumericalError or failed its cross-check.  A problem
    is a DomainError on a generated input: a bug in the generator, which makes
    the run incorrect instead of counting as a failed op.
    """
    if isinstance(outcome, DomainError):
        return "problem", {"op": i, "where": workload.where(inputs, i),
                           "error": f"generator bug: {outcome}"}
    if not isinstance(outcome, OpFailure):
        try:
            workload.check(inputs, state, i, outcome)
            return None
        except OpFailure as exc:
            outcome = exc
    a, lam = workload.where(inputs, i)
    return "failure", {"op": i, "a": a, "lam": lam,
                       "quantity": outcome.quantity, "error": outcome.error}


def sort_checks(checks):
    """(failed ops, problems) from the results of check."""
    found = {"failure": [], "problem": []}
    for c in checks:
        if c is not None:
            found[c[0]].append(c[1])
    return found["failure"], found["problem"]


def tail(latencies):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    ordered = np.sort(latencies)
    n = len(ordered)
    if n <= 10:
        return None, float(ordered[-1])
    return 100.0 * (n - 10) / n, float(ordered[n - 11])


def per_input(values, pool):
    """Median of each input's values over its repeats; op i ran input i % pool.

    A neighbour can slow a single op twofold for a few milliseconds, too
    briefly for the reference kernel to see, and such ops make up the highest
    percentiles of single ops.  The median over an input's repeats drops them.
    """
    groups = [values[k::pool] for k in range(min(pool, len(values)))]
    return np.array([np.median(g) for g in groups]), min(len(g) for g in groups)


def git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown: the checkout has no .git"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown: {ref} not found"


def environment():
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup, phase, passed, pool):
    """Gated metrics in calibrated time; the same figures in wall time beside them."""
    attempted, n_passed = len(passed), int(np.sum(passed))
    op_s = calibrated(phase.cpu, phase.reference_s)
    input_s, repeats = per_input(op_s, pool)
    pct, tail_s = tail(input_s)
    metrics = {
        "setup_s": metric(setup["setup_s"], "s"),
        "ops_per_s": metric(n_passed / float(np.sum(op_s)), "1/s"),
        "op_p50_ms": metric(1e3 * float(np.median(op_s)), "ms"),
        "op_tail_ms": metric(1e3 * tail_s, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    op_pct, op_tail_s = tail(op_s)
    wall_pct, wall_tail_s = tail(phase.latency)
    extra = {
        "op_samples": attempted,
        "op_tail_percentile": pct,
        "op_tail_inputs": len(input_s),
        "op_tail_min_repeats": repeats,
        "single_op_tail_ms": 1e3 * op_tail_s,
        "single_op_tail_percentile": op_pct,
        "wall_s": phase.wall,
        "passed_frac": n_passed / attempted,
        "failed_frac": (attempted - n_passed) / attempted,
        "reference_ms": 1e3 * float(np.median(phase.reference_s)),
        "uncalibrated": {
            "ops_per_wall_s": n_passed / phase.wall,
            "op_p50_wall_ms": 1e3 * float(np.median(phase.latency)),
            "op_tail_wall_ms": 1e3 * wall_tail_s,
            "op_tail_wall_percentile": wall_pct,
            "op_p50_cpu_ms": 1e3 * float(np.median(phase.cpu)),
        },
    }
    return metrics, extra


def per_layer(tracer, counts, ops, untraced, traced, cli_run):
    """Per-op work counts and self times of the traced phase, plus the cli command."""
    self_s = tracer.self_seconds(lambda op: op >= 0)
    metrics = {
        name: metric(counts[name] / ops, "count/op")
        for name in (
            "spatial_averages.quadrature_calls",
            "spatial_averages.quadrature_nodes",
            "spatial_averages.quadrature_failures",
            "spatial_averages.closed_form_calls",
            "conic_geometry.points",
            "elliptic_integrals.calls",
            "billiard_dynamics.orbit_bounces",
            "billiard_dynamics.root_solves",
            "billiard_dynamics.root_evals",
            "invariant_suite.orbits",
        )
    }
    # each call evaluates its integrand once on the first grid, then once per doubling
    metrics["spatial_averages.quadrature_levels"] = metric(
        (counts["spatial_averages.quadrature_evals"] - counts["spatial_averages.quadrature_calls"])
        / ops, "count/op")
    for layer in LAYERS:
        if layer != "cli":
            metrics[f"{layer}.self_s"] = metric(self_s[layer] / ops, "s/op")
    metrics["cli.wall_s"] = metric(cli_run["wall_s"], "s")
    metrics["cli.self_s"] = metric(tracer.self_seconds(lambda op: op == CLI_OP)["cli"], "s")
    metrics["cli.bytes_out"] = metric(cli_run["bytes_out"], "bytes")
    # calibrated op time of the same ops, so the checks between untraced ops
    # and the machine's speed stay out of the ratio
    overhead = (np.sum(calibrated(traced.cpu, traced.reference_s))
                / np.sum(calibrated(untraced.cpu, untraced.reference_s)))
    metrics["trace.overhead_frac"] = metric(float(overhead) - 1.0, "ratio")

    bounces = counts["billiard_dynamics.orbit_bounces"]
    if counts["billiard_dynamics.root_solves"]:
        ns, note = None, ("bounces iterated inside find_caustic_for_period's root solve are "
                          "not visible at a public boundary")
    elif not bounces:
        ns, note = None, "no orbit was requested on this workload"
    else:
        ns = 1e9 * self_s["billiard_dynamics"] / bounces
        note = ("billiard_dynamics self time per bounce requested through iterate_orbit and "
                "time_average; time_average may serve a repeated request from its orbit cache")
    extra = {"billiard_dynamics.ns_per_bounce": {"value": ns, "unit": "ns", "note": note},
             "trace.ops": ops, "trace.spans": len(tracer.spans)}
    return metrics, extra


def run_cli(tracer, argv):
    """One traced `caustics` command with standard output captured."""
    buffer = io.StringIO()
    tracer.op = CLI_OP
    start = perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = caustics.cli.main(list(argv))
    wall = perf_counter() - start
    data = buffer.getvalue().encode()
    return {"argv": list(argv), "exit_code": code, "wall_s": wall,
            "bytes_out": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def traced_run(workload, inputs, state, seconds, report):
    """Untraced ops for seconds/2, then the same ops traced, then one cli command.

    The traced ops are checked only after the tracer is removed, so the checks
    add no spans.
    """
    checked = lambda i, outcome: check(workload, inputs, state, i, outcome)  # noqa: E731
    untraced = measure(workload, inputs, state, checked, seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, inputs, state, lambda i, outcome: outcome,
                         count=len(untraced.outcomes), tracer=tracer)
        counts = Counter(tracer.counts)
        cli_run = run_cli(tracer, workload.cli_argv)
    finally:
        tracer.uninstall()
    checks = [checked(i, outcome) for i, outcome in enumerate(traced.outcomes)]
    failures, problems = sort_checks(checks)
    untraced_failures, untraced_problems = sort_checks(untraced.outcomes)
    problems += untraced_problems
    if [f["op"] for f in failures] != [f["op"] for f in untraced_failures]:
        problems.append({"op": None, "where": None,
                         "error": "the traced and untraced runs of the same ops fail differently"})
    if cli_run["exit_code"] != 0:
        problems.append({"op": None, "where": cli_run["argv"],
                         "error": f"cli exited {cli_run['exit_code']}"})
    metrics, extra = per_layer(tracer, counts, len(checks), untraced, traced, cli_run)
    report["cli"] = [cli_run]
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{workload.name}-seed{report['seed']}-spans.npz")
    return len(checks), failures, problems, metrics, extra


def run(args, import_s):
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs, state, setup = measure_setup(workload, args.seed)

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest(inputs),
        "import_s": import_s,
        "setup": setup,
        "environment": environment(),
    }
    if args.trace:
        attempted, failures, problems, metrics, extra = traced_run(
            workload, inputs, state, args.seconds, report)
    else:
        # each result is checked as soon as it is timed and then dropped, so
        # memory and garbage collection do not grow with the op count
        phase = measure(workload, inputs, state,
                        lambda i, outcome: check(workload, inputs, state, i, outcome),
                        seconds=args.seconds)
        attempted = len(phase.outcomes)
        failures, problems = sort_checks(phase.outcomes)
        passed = np.ones(attempted, bool)
        passed[[f["op"] for f in failures + problems]] = False
        metrics, extra = end_to_end(setup, phase, passed, workload.pool)
        report["ops"] = {"cpu_ms": np.round(1e3 * phase.cpu, 4).tolist(),
                         "wall_ms": np.round(1e3 * phase.latency, 4).tolist(),
                         "reference_ms": np.round(1e3 * phase.reference_s, 4).tolist(),
                         "passed": "".join("1" if p else "0" for p in passed)}

    correct = not problems and (workload.known_failures or not failures)
    report.update({"op_count": attempted, "correct": correct, "failures": failures,
                   "problems": problems, "metrics": metrics, "extra": extra})
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))

    print(f"workload {workload.name} seed {args.seed}: {attempted} ops, {len(failures)} failed, "
          f"inputs sha256 {report['input_digest'][:16]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name} = {value}")
    for p in problems:
        print(f"  problem at op {p['op']} {p['where']}: {p['error'][:160]}")
    for f in failures[:5]:
        print(f"  failed op {f['op']}: a={f['a']} lam={f['lam']!r} {f['quantity']}: {f['error'][:120]}")
    if len(failures) > 5:
        print(f"  ... {len(failures) - 5} more failures in {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0
