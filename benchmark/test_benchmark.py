"""Tests of the benchmark itself.

    python3 -m pytest -q benchmark/test_benchmark.py

The tracing tests run every workload in this process, untraced and
traced, at two seeds, and `run.py --trace 1` once per workload; they
take two to five minutes on one core.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# The workloads run in this process: pin BLAS as run.py pins its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import run  # noqa: E402
import worker  # noqa: E402  (puts the tree's src/ on sys.path)
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

DEFAULT_SEED = 20240501
OTHER_SEED = 7

ALL = workloads.WORKLOADS
# The workloads on which each per-layer metric must be non-zero: those
# whose run_s (or peak_rss_mb) the metric is predicted to move.
NONZERO_ON = {
    "multiindex.enumerate_basis.self_s": ("bqp_many", "nse_tg"),
    "multiindex.enumerate_basis.calls": ("bqp_many", "nse_tg"),
    "multiindex.basis_dim": ("bqp_many", "nse_tg"),
    "multiindex.lookups": ("nse_tg",),
    "multiindex.lookup_hit_ratio": ("nse_tg",),
    "systems.nse_system.self_s": ("nse_tg",),
    "systems.clock_system.self_s": ("bqp_many",),
    "systems.circuit_amplitude.self_s": ("bqp_many",),
    "operators.assemble_dissipation.self_s": ("bqp_many",),
    "operators.assemble_linear_drift.self_s": ("bqp_many",),
    "operators.assemble_nonlinear_drift.self_s": ("nse_tg", "audits_bounded"),
    "operators.nnz.dissipation": ("nse_tg",),
    "operators.nnz.linear": ("bqp_many",),
    "operators.nnz.nonlinear": ("nse_tg",),
    "operators.assemble_nonlinear_drift.nnz_per_s": ("nse_tg",),
    "operators.sparsity_audit.self_s": ("audits_bounded", "nse_tg"),
    "operators.operator_norm_estimate.calls": ("audits_bounded", "nse_tg"),
    "operators.operator_norm_estimate.self_s": ("audits_bounded", "nse_tg"),
    "operators.verify_divergence_free.self_s": ("audits_bounded", "nse_tg"),
    "hermite.self_s": ("audits_bounded",),
    "evolution.evolve_reference.self_s": ("nse_tg",),
    "evolution.rhs_evals": ("nse_tg",),
    "evolution.evolve_expm.self_s": ("bqp_many", "audits_bounded"),
    "evolution.evolve_expm.calls": ("bqp_many", "audits_bounded"),
    "evolution.evolve_trotter.self_s": ("bqp_many", "audits_bounded"),
    "evolution.regularization_gap.self_s": ("audits_bounded",),
    "evolution.smoothing_bound_audit.self_s": ("nse_tg", "audits_bounded"),
    "states.expectation.self_s": ("osc_mc", "nse_tg"),
    "states.expectation.calls": ("osc_mc", "nse_tg"),
    "states.initial_state.calls": ("osc_mc", "nse_tg"),
    "states.combination_state.self_s": ("nse_tg",),
    "montecarlo.simulate.self_s": ("osc_mc",),
    "montecarlo.sample_steps": ("osc_mc",),
    "montecarlo.ns_per_sample_step": ("osc_mc",),
    "montecarlo.noise_buffer_mb": ("osc_mc",),
    "experiments.run_audits.self_s": ALL,
    "experiments.write_csv.self_s": ("osc_mc",),
    "experiments.bytes_written": ("osc_mc",),
    "experiments.validate_config.self_s": ALL,
    "process.wall_s": ALL,
    "process.cpu_s": ALL,
    "process.calibration_s": ALL,
    "trace.overhead_frac": ALL,
    "trace.self_time_coverage": ALL,
}
# Measured to be zero on every workload: no basis reaches the Krylov
# branch (dimension > 2000 in an exponential), and no Monte Carlo
# trajectory leaves the guard radius.
ZERO_ON_ALL = ("evolution.krylov_expm_action.calls", "montecarlo.blowups")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(workload, seed) -> (untraced dir, traced dir) of one repetition each."""
    cache = {}

    def get(workload, seed):
        if (workload, seed) not in cache:
            root = tmp_path_factory.mktemp(f"{workload}-{seed}")
            cfg_text = json.dumps(workloads.make_config(workload, seed))
            plain, traced = root / "untraced", root / "traced"
            plain.mkdir()
            traced.mkdir()
            assert worker.run_once(workload, cfg_text, str(plain))[2] == []
            with Tracer():
                assert worker.run_once(workload, cfg_text, str(traced))[2] == []
            cache[workload, seed] = plain, traced
        return cache[workload, seed]
    return get


def run_benchmark(*args) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=workloads.REPO_ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [DEFAULT_SEED, OTHER_SEED])
@pytest.mark.parametrize("workload", ALL)
def test_tracing_leaves_artifacts_byte_identical(artifacts, workload, seed):
    plain, traced = artifacts(workload, seed)
    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(traced))
    assert "audit.json" in names
    _, mismatch, errors = filecmp.cmpfiles(plain, traced, names, shallow=False)
    assert mismatch == [] and errors == []


@pytest.mark.parametrize("workload", ALL)
def test_layer_metrics_nonzero_where_predicted(workload):
    result = run_benchmark("--workload", workload, "--seed", str(DEFAULT_SEED),
                           "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["attempted"] == 2
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(PER_LAYER)
    assert set(NONZERO_ON) | set(ZERO_ON_ALL) == set(PER_LAYER)
    zero = [name for name, where in NONZERO_ON.items()
            if workload in where and metrics[name] == 0]
    assert zero == []
    assert all(metrics[name] == 0 for name in ZERO_ON_ALL)
    # spans nest, so their self times add up to the traced repetition
    assert 0.97 <= metrics["trace.self_time_coverage"] <= 1.0 + 1e-9


def test_tracer_uninstall_restores_every_binding():
    from kolmsim import evolution, experiments, multiindex
    before = (experiments.evolve_reference, evolution.evolve_reference,
              experiments.RUNNERS["oscillator"], multiindex.BasisSet.get,
              evolution.solve_ivp)
    with Tracer():
        assert experiments.evolve_reference is evolution.evolve_reference
        assert experiments.evolve_reference is not before[0]
        assert experiments.RUNNERS["oscillator"] is not before[2]
    after = (experiments.evolve_reference, evolution.evolve_reference,
             experiments.RUNNERS["oscillator"], multiindex.BasisSet.get,
             evolution.solve_ivp)
    assert all(a is b for a, b in zip(before, after))


def test_gate_catches_verdicts_the_rolled_up_flag_omits(tmp_path):
    (tmp_path / "comparison.csv").write_text(
        "circuit,qubits,gates,amplitude,readout,identity_gap,bound_gap\n"
        + "".join(f"{i},1,1,1.0,0.9,1e-16,0.1\n" for i in range(400)))
    audit = {"passed": True, "bqp": {"bound_satisfied": True}}
    assert workloads.check("bqp_many", audit, str(tmp_path)) == []
    audit["bqp"]["bound_satisfied"] = False
    assert workloads.check("bqp_many", audit, str(tmp_path)) != []
    assert workloads.failed_flags({"passed": True, "a": [{"passed": False}]}) == ["a[0]"]


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(workloads.REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_run_fails_without_kolmsim_sources(tmp_path):
    shutil.copy(os.path.join(workloads.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "bqp_many",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
