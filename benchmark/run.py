"""kolmsim benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload nse_tg --seed 1 --seconds 20 --trace 0

Run from the root of a kolmsim source tree. With `--trace 0` it reports
the end-to-end metrics (run_s, setup_s, peak_rss_mb, pass_frac); with
`--trace 1`, the per-layer metrics of a traced run. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Every child process runs with BLAS pinned to one thread and
kolmsim imported from `src/` of the tree. See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from calibration import at_reference_speed, calibration_cpu_s
from tracer import PER_LAYER

ROOT = workloads.REPO_ROOT
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# Cold starts timed per run for setup_s, after one untimed start that
# lets the tree's bytecode cache fill (a user pays that once per install).
SETUP_STARTS = 3
COLD_START = ("import json, sys\n"
              "import kolmsim.experiments as experiments\n"
              "experiments.validate_config(json.loads(sys.argv[1]))\n")
# Every child is killed at this many seconds after the start, so a run
# ends within the 180 s a benchmark run may take.
DEADLINE_S = 170

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def child_env() -> dict:
    """Children run single-threaded, on the tree's sources, with a fixed hash seed.

    str/bytes hashing is randomised per process by default, and basis
    lookups key dicts by bytes: over fresh processes, one `nse_tg`
    repetition took 5.5-8.3 s of CPU with random seeds and 5.2-5.4 s with
    PYTHONHASHSEED=0.
    """
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=SRC)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """SHA-256 over kolmsim's sources, naming the code measured."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "kolmsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def remaining(started: float) -> float:
    return max(DEADLINE_S - (time.perf_counter() - started), 1.0)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_starts(cfg_text: str, env: dict, started: float):
    """Fresh interpreters through import and validation: scaled CPU s, wall s, failures.

    The calibration kernel runs before the first timed start and after
    each one; see calibration.py.
    """
    scaled, wall, failed = [], [], 0
    before = None
    for _ in range(SETUP_STARTS + 1):
        cpu_start, start = children_cpu_s(), time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_START, cfg_text], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL, timeout=remaining(started))
        cpu, elapsed = children_cpu_s() - cpu_start, time.perf_counter() - start
        after = calibration_cpu_s()
        if proc.returncode != 0:
            failed += 1
        elif before is not None:
            wall.append(elapsed)
            scaled.append(at_reference_speed(cpu, before, after))
        before = after
    return scaled, wall, failed


def run_worker(args, trace: int, env: dict, started: float) -> dict:
    """One repetition in a fresh worker process; its JSON report."""
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=OUT_ROOT)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
             "--trace", str(trace), "--out-dir", out_dir],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining(started))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if not os.listdir(OUT_ROOT):
            os.rmdir(OUT_ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(args, env: dict, started: float) -> list:
    """Worker reports while the next round is expected to end within --seconds.

    Traced, each round is one untraced and one traced repetition, so a
    drift in machine speed hits both alike. There is at least one round.
    """
    reports, rounds, start = [], [], time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for trace in ((0, 1) if args.trace else (0,)):
            reports.append(run_worker(args, trace, env, started))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            return reports


def median_of(reports: list, key: str) -> float:
    """Median of `key` over the passed reports.

    A failed repetition's time is never reported as a success; when none
    passed, the failed ones are reported (and `correct` is false).
    """
    passed = [r[key] for r in reports if r["ok"]]
    return statistics.median(passed or [r[key] for r in reports])


def per_layer(reports: list) -> dict:
    """PER_LAYER metrics: tracer values as medians over the traced reports."""
    untraced = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values.update({
        "process.wall_s": median_of(untraced, "wall_s"),
        "process.cpu_s": median_of(untraced, "cpu_s"),
        "process.calibration_s": statistics.median(
            c for r in reports for c in r["calibration_s"]),
        "trace.overhead_frac": (median_of(traced, "scaled_cpu_s")
                                / median_of(untraced, "scaled_cpu_s") - 1.0),
    })
    for name, (self_s, calls) in traced[-1]["spans"].items():
        print(f"span {name:48s} self {self_s:10.6f} s  calls {calls:g}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=20240501)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "kolmsim", "experiments.py")):
        print(f"error: no kolmsim sources under {SRC}; run from a kolmsim source tree",
              file=sys.stderr)
        return 2

    env = child_env()
    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "load1_start": os.getloadavg()[0],
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "kolmsim_src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
    }
    attempted = failed = 0
    setup = []
    try:
        if not args.trace:
            cfg_text = json.dumps(workloads.make_config(args.workload, args.seed))
            setup, setup_wall, failed = cold_starts(cfg_text, env, started)
            attempted = SETUP_STARTS + 1
        reports = repetitions(args, env, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted += len(reports)
    failed += sum(not r["ok"] for r in reports)
    environment.update(reports[0]["versions"], load1_end=os.getloadavg()[0])

    if args.trace:
        metrics = per_layer(reports)
    else:
        if not setup:
            print("error: every cold start failed", file=sys.stderr)
            return 1
        values = {"run_s": median_of(reports, "scaled_cpu_s"),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
                  "pass_frac": (attempted - failed) / attempted}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for key in ("cpu_s", "wall_s", "calibration_s", "scaled_cpu_s"):
            print(f"repetitions, {key}: {[r[key] for r in reports]}")
        print(f"cold starts, scaled_cpu_s: {setup}")
        print(f"cold starts, wall_s: {setup_wall}")
    print(json.dumps({"environment": environment}))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
