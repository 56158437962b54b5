#!/usr/bin/env python3
"""Seeded benchmark of the caustics library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`.  One process, one thread.  Set-up (import, input generation, warm-up)
is timed apart from the measured phase, a closed loop that runs one op at a
time for S seconds.  Every result is cross-checked after the phase.

The gated times are calibrated: each op's thread CPU time is divided by the
CPU time of a fixed reference kernel timed around it and counted in units in
which that kernel takes 1 ms, so a neighbour that slows the shared machine
slows both and drops out.  Wall-clock figures are printed and reported beside
them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the ops of S/2
seconds twice, untraced and then traced, and prints the per-layer metrics and
the tracing overhead.  Reports and span dumps go to perfbench/out/.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")

    # set-up times the import in fresh interpreters; this one is only reported
    src = Path.cwd() / "src"
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    try:
        import caustics
    except ImportError as exc:
        print(f"perfbench: cannot import caustics from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if not Path(caustics.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: caustics came from {caustics.__file__}, not {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    return harness.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
