"""The benchmark's workloads: kolmsim configs made from a seed, and their checks.

Each workload is one experiment config run through
`kolmsim.experiments.run_experiment`, as `kolmsim run` would run it, plus
a correctness check applied to the audit payload and the artifacts of
every repetition. The checks are the benchmark's own: they also gate
verdicts that the program's rolled-up `passed` flag leaves out
(`bqp.bound_satisfied`, the Monte Carlo gap).

This module uses only the standard library.
"""

from __future__ import annotations

import csv
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")

# Taylor-Green max error is 1.7e-11 at K = 3; truncation or assembly
# defects move it by orders of magnitude.
TAYLOR_GREEN_TOL = 1e-8
# Max |order-16 curve - MC mean| / SE over the 51 grid points is 1.7-2.3
# at the seeds measured; a defect in either path moves it far past 5.
MC_GAP_SE_LIMIT = 5.0
# The readout identity |amplitude - e^{lam t} readout| is exact up to
# rounding (1e-15 measured).
BQP_IDENTITY_TOL = 1e-10

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("nse_tg", "osc_mc", "bqp_many", "audits_bounded")


def _shipped(name: str) -> dict:
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


def make_config(workload: str, seed: int) -> dict:
    """The experiment config of `workload`; the same seed gives the same config."""
    if workload == "nse_tg":
        cfg = _shipped("nse_taylor_green.json")
    elif workload == "osc_mc":
        cfg = _shipped("oscillator.json")
        cfg["basis"] = {"orders": [2, 3, 4, 5, 6, 16]}
        cfg["times"] = {"t_max": 5.0, "n_points": 51}
        cfg["mc"] = {"samples": 16384, "dt": 0.001}
    elif workload == "bqp_many":
        cfg = _shipped("bqp_circuit.json")
        cfg["circuits"] = {"count": 400, "qubits": 3, "gates": 8, "max_arity": 2}
    elif workload == "audits_bounded":
        cfg = _shipped("audits_bounded_oscillator.json")
    else:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    cfg["seed"] = int(seed) % 2 ** 32  # every kolmsim RNG accepts 0 <= seed < 2^32
    return cfg


def failed_flags(audit, prefix: str = "") -> list:
    """Paths of every nested `passed` flag that is false."""
    bad = []
    if isinstance(audit, dict):
        if "passed" in audit and not audit["passed"]:
            bad.append(prefix or "passed")
        for key, value in audit.items():
            if key != "passed":
                bad.extend(failed_flags(value, f"{prefix}/{key}" if prefix else key))
    elif isinstance(audit, list):
        for i, value in enumerate(audit):
            bad.extend(failed_flags(value, f"{prefix}[{i}]"))
    return bad


def _rows(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def check(workload: str, audit: dict, out_dir: str) -> list:
    """Reasons the run of `workload` is wrong; empty when it is correct."""
    problems = failed_flags(audit)
    if workload == "nse_tg":
        err = audit.get("taylor_green_max_error")
        if not isinstance(err, float) or not err <= TAYLOR_GREEN_TOL:
            problems.append(f"taylor_green_max_error {err} > {TAYLOR_GREEN_TOL}")
        if len(_rows(out_dir, "comparison.csv")) != 10:
            problems.append("comparison.csv does not hold 10 probes")
    elif workload == "osc_mc":
        blowups = {row["n_blowups"] for row in _rows(out_dir, "mc_curve.csv")}
        if blowups != {"0"}:
            problems.append(f"Monte Carlo blow-ups: {sorted(blowups)}")
        rows = [r for r in _rows(out_dir, "comparison.csv") if r["order"] == "16"]
        worst = max((float(r["gap_over_se"]) for r in rows), default=float("nan"))
        if len(rows) != 51 or not worst <= MC_GAP_SE_LIMIT:
            problems.append(f"order-16 gap {worst} SE over {len(rows)} points "
                            f"(limit {MC_GAP_SE_LIMIT} SE over 51)")
    elif workload == "bqp_many":
        rows = _rows(out_dir, "comparison.csv")
        worst = max((float(r["identity_gap"]) for r in rows), default=float("nan"))
        if len(rows) != 400 or not worst <= BQP_IDENTITY_TOL:
            problems.append(f"identity gap {worst} over {len(rows)} circuits "
                            f"(limit {BQP_IDENTITY_TOL} over 400)")
        if not audit.get("bqp", {}).get("bound_satisfied"):
            problems.append("bqp.bound_satisfied is not true")
    # audits_bounded: the nested `passed` flags above are its whole check
    return problems
