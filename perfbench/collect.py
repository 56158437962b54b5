#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise it; writes a baseline file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Runs perfbench/run.py once per (workload, seed), one run at a time, plus one
traced run per workload at the first seed.  For each end-to-end metric it
reports the median and the quartile spread (Q3 - Q1) / median over the seeds,
as `statistics.quantiles(values, n=4)` gives the quartiles.  The output keeps
every run's values, op count and input digest, and every failed op of the
first seed, so a later commit can be compared metric by metric.  The same
summary is given for the uncalibrated wall-clock and CPU figures, which show
what the calibration removes.
"""
from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    p.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    p.add_argument("--out", default=None, help="write the summary here as JSON")
    args = p.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    summary = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = collections.defaultdict(list)
        raw = collections.defaultdict(list)
        entry = {"runs": []}
        for seed in seeds:
            result, report = run(workload, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            extra = report["extra"]
            uncalibrated = dict(extra["uncalibrated"], **{
                k: extra[k] for k in ("single_op_tail_ms", "wall_s", "passed_frac",
                                      "failed_frac", "reference_ms")})
            for name, value in uncalibrated.items():
                raw[name].append(value)
            entry["runs"].append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "input_digest": report["input_digest"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                "uncalibrated": uncalibrated,
                "failures_by_quantity": dict(collections.Counter(
                    f["quantity"] for f in report["failures"])),
            })
            if seed == seeds[0]:
                entry["failures_first_seed"] = report["failures"]
                entry["environment"] = report["environment"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        entry["end_to_end"] = {name: spread(v) for name, v in values.items()}
        entry["uncalibrated"] = {name: spread(v) for name, v in raw.items()}
        if not args.no_trace:
            result, report = run(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["per_layer_extra"] = report["extra"]
            entry["cli"] = report["cli"]
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds.get(name, 1.0) / 3 else "  (above a third of its bound)"
            print(f"  {name:12s} median {s['median']:12.6g}  spread {s['spread']:.4f}{flag}")
        for name, s in entry["uncalibrated"].items():
            print(f"  uncalibrated {name:24s} median {s['median']:12.6g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
