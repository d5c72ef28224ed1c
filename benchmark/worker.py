"""Run one repetition of a workload in this fresh process and print its measurements.

`run.py` starts one worker per repetition, with BLAS pinned to one
thread, so every repetition is the first experiment of its process, as
in a `kolmsim run` call. The calibration kernel runs just before and
just after the repetition (see calibration.py). With `--trace 1` the
repetition runs under the tracer. The worker prints one JSON line on
stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import workloads
from calibration import at_reference_speed, calibration_cpu_s
from tracer import Tracer

sys.path.insert(0, os.path.join(workloads.REPO_ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from kolmsim import experiments  # noqa: E402


def run_once(workload: str, cfg_text: str, out_dir: str):
    """One checked repetition: (wall seconds, CPU seconds, problems)."""
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        cfg = experiments.validate_config(json.loads(cfg_text))
        audit = experiments.run_experiment(cfg, out_dir, threads=1)
    except Exception as exc:  # a repetition that raises is a failed operation
        traceback.print_exc()
        return (time.perf_counter() - start, time.process_time() - cpu_start,
                [f"{type(exc).__name__}: {exc}"])
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return wall, cpu, workloads.check(workload, audit, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True, help="directory for the artifacts")
    args = parser.parse_args(argv)

    cfg_text = json.dumps(workloads.make_config(args.workload, args.seed))
    tracer = Tracer()
    before = calibration_cpu_s()
    with tracer if args.trace else contextlib.nullcontext():
        wall, cpu, problems = run_once(args.workload, cfg_text, args.out_dir)
    after = calibration_cpu_s()
    for problem in problems:
        print(f"{args.workload}: check failed: {problem}", file=sys.stderr)

    report = {
        "traced": bool(args.trace),
        "ok": not problems,
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration_s": [before, after],
        "scaled_cpu_s": at_reference_speed(cpu, before, after),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        report["layers"] = tracer.layer_metrics(wall)
        report["spans"] = {name: [tracer.self_s[name], tracer.calls[name]]
                           for name in sorted(tracer.calls)}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
