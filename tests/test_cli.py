"""CLI: config validation, artifacts, exit codes, rerun determinism."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kolmsim
from kolmsim import cli, evolution, experiments, operators, systems
from kolmsim.errors import ConfigError, NumericalError
from kolmsim.evolution import assemble_all, evolve_expm
from kolmsim.operators import SystemSpec
from kolmsim.states import MonomialObservable, combination_state, expectation, initial_state
from kolmsim.systems import clock_system, random_real_circuit

from oracles import velocity_mode

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC_DIR = os.path.dirname(os.path.dirname(kolmsim.__file__))

# x1^2 of the OU system, whose Galerkin curve is exact at any order >= 2
OU_CFG = {
    "experiment": "oscillator",
    "system": {"kind": "ou", "lam": 0.5, "q": 0.2, "n_vars": 1},
    "initial_point": [1.0],
    "observable": [2],
    "basis": {"orders": [4]},
    "times": {"t_max": 2.0, "n_points": 5},
    "mc": {"samples": 4000, "dt": 0.002, "max_gap_over_se": 3},
    "seed": 3,
}

BQP_CFG = {
    "experiment": "bqp_circuit",
    "circuits": {"count": 4, "qubits": 2, "gates": 3, "max_arity": 2},
    "system": {"lam": 0.1, "q": 0.1},
    "time": 1.0,
    "seed": 7,
}

OSC_CFG = {
    "experiment": "oscillator",
    "system": {"kind": "oscillator", "lam": 0.1, "q": 0.02},
    "initial_point": [1.0, 0.0],
    "observable": [1, 0],
    "basis": {"orders": [2]},
    "times": {"t_max": 1.0, "n_points": 3},
    "mc": {"samples": 200, "dt": 0.01},
    "seed": 1,
}

AUDITS_CFG = {
    "experiment": "audits",
    "system": {"kind": "bounded_oscillator", "lam": 0.1, "q": 0.1},
    "basis": {"order": 4},
    "regularization": {"r_values": [0.4], "r_reference": 0.8, "t": 2.0},
    "smoothing_times": [0.5, 1.0],
    "seed": 0,
}

NSE_CFG = {
    "experiment": "nse_taylor_green",
    "system": {"modes": 6, "nu": 0.1, "q": 1e-5},
    "basis": {"order": 2},
    "probe": {"count": 2, "xi2": 0.25, "xi1_range": [0.05, 0.95]},
    "time": 0.25,
}

# reaches order 16, where expm_multiply takes several steps per grid interval
OSC16_CFG = {**OSC_CFG, "basis": {"orders": [2, 16]}, "times": {"t_max": 5.0, "n_points": 51},
             "mc": {"samples": 200, "dt": 0.001}}

# circuit files that the malformed-value cases read from their working directory
CIRCUIT_FILES = {"ry_abc.txt": "H 0\nRY(abc) 0\n", "foo.txt": "FOO 0\n",
                 # the middle of three gates on targets (0, 1) parses, then fails a gate check
                 "non_orthogonal.txt": "CNOT 0 1\nMATRIX [[1,0,0,0],[0,1,0,0],[0,0,1,0],"
                                       "[0,0,0,2]] 0 1\nCNOT 0 1\n",
                 "repeated_target.txt": "CNOT 0 1\nCNOT 1 1\nCNOT 0 1\n"}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def error_record(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def run_python(args, **env) -> subprocess.CompletedProcess:
    """`python <args>` in a fresh process on this kolmsim, with `env` added."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        experiments.validate_config({**OU_CFG, "extra": 1})
    with pytest.raises(ConfigError):
        experiments.validate_config(
            {**OU_CFG, "system": {**OU_CFG["system"], "zeta": 2}})


def test_validate_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        experiments.validate_config({"experiment": "warp_drive"})


def test_run_ou_writes_artifacts(tmp_path):
    cfg_path = write_cfg(tmp_path, OU_CFG)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
    for name in ("mc_curve.csv", "galerkin_curve.csv", "comparison.csv",
                 "audit.json", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == OU_CFG
    assert manifest["seed"] == 3
    assert "kolmsim" in manifest["versions"]


def test_manifest_records_blas_env(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, BQP_CFG), "--out", str(out)]) == 0
    blas_env = json.loads((out / "manifest.json").read_text())["blas_env"]
    assert set(blas_env) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert blas_env["OPENBLAS_NUM_THREADS"] == "2"
    assert blas_env["MKL_NUM_THREADS"] is None


def test_rerun_is_bit_identical(tmp_path):
    for cfg in (OU_CFG, OSC16_CFG, NSE_CFG):
        cfg_path = write_cfg(tmp_path, cfg)
        out1, out2 = (tmp_path / cfg["experiment"] / run for run in "ab")
        assert cli.main(["run", cfg_path, "--out", str(out1)]) == 0
        assert cli.main(["run", cfg_path, "--out", str(out2)]) == 0
        for name in ("mc_curve.csv", "comparison.csv", "galerkin_curve.csv",
                     "manifest.json", "audit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# order 24 to t = 25 takes expm_multiply's step choice through onenormest, which draws
# from numpy's global RNG: unpinned, a fresh process could write other last digits
ONENORMEST_CFG = {
    "experiment": "oscillator", "system": {"kind": "oscillator", "lam": 0.1, "q": 0.02},
    "initial_point": [1.0, 0.0], "observable": [1, 0], "basis": {"orders": [24]},
    "times": {"t_max": 25.0, "n_points": 2}, "mc": {"samples": 200, "dt": 0.005}, "seed": 1}


def test_rerun_does_not_depend_on_the_global_rng(tmp_path):
    cfg = experiments.validate_config(ONENORMEST_CFG)
    outs = []
    for global_seed in (0, 3):
        np.random.seed(global_seed)
        outs.append(tmp_path / f"global{global_seed}")
        experiments.run_experiment(cfg, str(outs[-1]))
    for name in ("mc_curve.csv", "comparison.csv", "galerkin_curve.csv",
                 "manifest.json", "audit.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("cfg", [OSC16_CFG, {**OSC_CFG, "basis": {"orders": [2, 3, 4, 6]}},
                                 NSE_CFG], ids=["osc16", "osc2346", "nse"])
def test_one_exponential_action_per_run(monkeypatch, cfg):
    # every order of a comparison run, and the adjoint readout of a Taylor-Green
    # run, evolve in one expm_multiply call
    actions, real_action = [], evolution.expm_multiply
    monkeypatch.setattr(evolution, "expm_multiply",
                        lambda *args, **kw: actions.append(args) or real_action(*args, **kw))
    cfg = experiments.validate_config(cfg)
    experiments.RUNNERS[cfg["experiment"]](cfg, 0)
    assert len(actions) == 1


@pytest.mark.parametrize("xi2", [0.25, 0.1])
def test_probe_vectors_are_combination_states_of_their_modes(monkeypatch, xi2):
    # each probe reads the adjoint readout through a vector filled on the degree-1 rows;
    # bit for bit, it is the combination state of the probe's terms c_k x_k, with each
    # c_k from the mode-by-mode oracle (terms with |c_k| <= 1e-14 left out)
    probes = []

    class Recording(np.ndarray):
        def __matmul__(self, other):
            probes.append(np.array(other))
            return np.asarray(self) @ other

    monkeypatch.setattr(experiments, "evolve_reference",
                        lambda psi, ops, t: np.zeros_like(psi).view(Recording))
    cfg = experiments.validate_config({**NSE_CFG, "system": {"modes": 12, "nu": 0.1, "q": 1e-5},
                                       "probe": {"count": 5, "xi2": xi2,
                                                 "xi1_range": [0.05, 0.95]}})
    experiments.run_nse_taylor_green(cfg, 0)
    spec = experiments.build_system("nse", cfg["system"])
    basis = experiments._order_operators(spec, 2).basis
    table, unit = spec.nonlinear.table, np.eye(12, dtype=int)
    assert len(probes) == 5
    for xi1, probe in zip(np.linspace(0.05, 0.95, 5), probes):
        coefs = [velocity_mode(table, k, (xi1, xi2))[0] for k in range(12)]
        terms = [(float(c), MonomialObservable(tuple(unit[k]), spec))
                 for k, c in enumerate(coefs) if abs(c) > 1e-14]
        assert probe.tobytes() == combination_state(terms, basis).tobytes()


def test_curves_do_not_depend_on_blas_threads(tmp_path):
    # expm_multiply's sparse products round the same on any BLAS thread
    # count; dense expm steps of the order-16 generator would not
    cfg_path = write_cfg(tmp_path, OSC16_CFG)
    outs = {threads: tmp_path / f"blas{threads}" for threads in ("1", "2")}
    for threads, out in outs.items():
        run_python(["-m", "kolmsim.cli", "run", cfg_path, "--out", str(out)],
                   OPENBLAS_NUM_THREADS=threads)
    for name in ("mc_curve.csv", "comparison.csv", "galerkin_curve.csv"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


def test_runs_do_not_import_scipy_integrate(tmp_path):
    # scipy.integrate, with the optimize, special, spatial and fft modules it
    # loads, was a third of a cold start; only the tests' RK45 oracle uses it
    script = ("import sys\n"
              "import kolmsim.cli as cli\n"
              "loaded = ['scipy.integrate' in sys.modules]\n"
              "for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    assert cli.main(['run', cfg, '--out', out]) == 0\n"
              "    loaded.append('scipy.integrate' in sys.modules)\n"
              "print(loaded)\n")
    audits = os.path.join(CONFIG_DIR, "audits_bounded_oscillator.json")
    proc = run_python(["-c", script, audits, str(tmp_path / "audits"),
                       write_cfg(tmp_path, NSE_CFG), str(tmp_path / "nse")])
    assert proc.stdout.splitlines()[-1] == "[False, False, False]"


def test_states_do_not_import_evolution():
    # evolution maps states to states, so it imports `states` and not the reverse
    proc = run_python(["-c", "import sys, kolmsim.states\n"
                             "print('kolmsim.evolution' in sys.modules)"])
    assert proc.stdout.splitlines()[-1] == "False"


def test_seed_override_changes_estimates(tmp_path):
    cfg_path = write_cfg(tmp_path, OU_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg_path, "--out", str(out1)]) == 0
    assert cli.main(["run", cfg_path, "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "mc_curve.csv").read_text() != (out2 / "mc_curve.csv").read_text()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_bqp_run_reports_identity(tmp_path):
    cfg_path = write_cfg(tmp_path, BQP_CFG)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["bqp"]["worst_identity_gap"] <= 1e-9
    assert audit["bqp"]["bound_satisfied"] is True


def test_taylor_green_nonzero_truth(tmp_path, monkeypatch):
    # at the default xi2 = 0.25 the probed u1 vanishes; at 0.1 it does not
    real_evolve, solves = experiments.evolve_reference, []

    def recording_evolve(state, ops, t, **kwargs):
        solves.append(ops)
        return real_evolve(state, ops, t, **kwargs)

    monkeypatch.setattr(experiments, "evolve_reference", recording_evolve)
    cfg = {**with_block(NSE_CFG, "probe", xi2=0.1, count=4), "basis": {"order": 3}}
    experiments.run_experiment(experiments.validate_config(cfg), str(tmp_path))
    with open(tmp_path / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and all(abs(float(r["taylor_green"])) > 0.01 for r in rows)
    assert all(float(r["abs_error"]) <= 1e-6 for r in rows)
    # one adjoint solve serves every probe, and the audit solves nothing
    forward = assemble_all(solves[0].basis, experiments.build_system("nse", cfg["system"]))
    [adjoint] = solves
    assert (adjoint.generator() != forward.generator().T).nnz == 0
    assert adjoint.basis.max_degree == 3


@pytest.mark.parametrize("cfg, run_bases", [
    ({**OSC_CFG, "basis": {"orders": [3, 2]}}, 2),
    (BQP_CFG, None),  # one basis per register size (gates + 1) 2^qubits, one assembly
    (NSE_CFG, 1),
    ({**AUDITS_CFG, "regularization": {"r_values": [0.2, 0.4], "r_reference": 0.8}}, 1),
], ids=["oscillator", "bqp_circuit", "nse_taylor_green", "audits"])
def test_each_basis_is_assembled_once(tmp_path, monkeypatch, cfg, run_bases):
    # the audit bundle checks the operators the run used; only the
    # regularization reference basis is assembled beside them
    assembled, enumerated = [], []  # the scheme of each basis

    def recording(calls, real, scheme_of):
        return lambda *args: calls.append(scheme_of(*args)) or real(*args)

    for module in (experiments, evolution):
        monkeypatch.setattr(module, "assemble_all", recording(
            assembled, assemble_all, lambda basis, spec: basis.scheme))
        monkeypatch.setattr(module, "enumerate_basis", recording(
            enumerated, module.enumerate_basis, lambda n_vars, scheme, rates: scheme))
    audit = experiments.run_experiment(experiments.validate_config(cfg), str(tmp_path))
    assert audit["passed"] is True
    run_assemblies = run_bases
    if run_bases is None:  # only the audited first circuit's operators are assembled
        with open(tmp_path / "comparison.csv") as fh:
            sizes = {(int(r["gates"]) + 1) * 2 ** int(r["qubits"]) for r in csv.DictReader(fh)}
        run_bases, run_assemblies = len(sizes), 1
        assert 1 < run_bases < cfg["circuits"]["count"]  # some circuits share a basis
    reference = [s for s in assembled if s.rule == "weight"]
    assert len(assembled) == run_assemblies + len(reference)
    order_bases = [s for s in enumerated if s.rule == "order"]
    assert len(order_bases) == run_bases
    assert order_bases[:run_assemblies] == assembled[:run_assemblies]
    if cfg["experiment"] == "audits":
        assert [s.r for s in reference] == [cfg["regularization"]["r_reference"]]
        assert audit["basis_order"] == cfg["basis"]["order"]
    else:
        assert reference == []


def test_audits_reject_noncommuting_linear_drift():
    # divergence-free (lambda_1 b_12 = -lambda_2 b_21), but b moves a quantum
    # between variables of unequal rates, so [A, B] != 0 and the closed-form
    # smoothing norms do not apply; no config builds such a system
    spec = SystemSpec(name="skew", rates=np.array([1.0, 2.0]), noise=0.1,
                      linear=np.array([[0.0, 2.0], [-1.0, 0.0]]), linear_strength=2.0)
    ops = experiments._order_operators(spec, 2)
    assert ops.linear.matrix.nnz
    with pytest.raises(NumericalError, match="commute"):
        evolution.smoothing_bound_audit(ops, [1.0])
    with pytest.raises(NumericalError, match="commute"):
        experiments.run_audits(spec, ops)


def test_taylor_green_verdict_feeds_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "taylor_green", lambda t, x, y, nu: (1.0, 0.0))
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, NSE_CFG), "--out", str(out)]) == cli.EXIT_AUDIT
    audit = json.loads((out / "audit.json").read_text())
    assert audit["taylor_green_within_tolerance"] is False
    assert audit["passed"] is False
    assert error_record(capsys) == {"error": "audit",
                                    "detail": "failed checks: taylor_green_within_tolerance"}


def test_audit_command(tmp_path):
    cfg_path = write_cfg(tmp_path, AUDITS_CFG)
    out = tmp_path / "out"
    assert cli.main(["audit", cfg_path, "--out", str(out)]) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["passed"] is True
    assert audit["regularization"]["rows"][0]["passed"] is True


AUDIT_BLOCK_CASES = {  # one audits config per system kind
    "bounded_oscillator": AUDITS_CFG,
    "nse": {**AUDITS_CFG, "system": {"kind": "nse", "modes": 6, "nu": 0.1, "q": 1e-3},
            "basis": {"order": 2}, "smoothing_times": [0.01, 0.05]},
    "oscillator": {**AUDITS_CFG, "system": {"kind": "oscillator"}},
    "ou": {**AUDITS_CFG, "system": {"kind": "ou", "n_vars": 2},
           "regularization": {"r_values": [1.0], "r_reference": 2.0, "t": 2.0}},
    "clock": {**AUDITS_CFG, "system": {"kind": "clock"}, "basis": {"order": 1}},
}


@pytest.mark.parametrize("cfg", AUDIT_BLOCK_CASES.values(), ids=AUDIT_BLOCK_CASES.keys())
def test_audit_blocks_are_the_check_returns(tmp_path, cfg):
    # each lemma check returns its own audit.json block; run_audits only places it
    assert {c["system"]["kind"] for c in AUDIT_BLOCK_CASES.values()} \
        == set(experiments.SYSTEM_KINDS)
    out = tmp_path / "out"
    assert cli.main(["audit", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    audit = json.loads((out / "audit.json").read_text())
    cfg = experiments.validate_config(cfg)
    spec = experiments.build_system(cfg["system"]["kind"], cfg["system"])
    ops = experiments._order_operators(spec, cfg["basis"]["order"])
    expected = {
        "divergence_free": operators.verify_divergence_free(spec, seed=cfg["seed"]),
        "operators": {op.role: operators.sparsity_audit(op, spec)
                      for op in (ops.dissipation, ops.linear, ops.nonlinear)},
        "smoothing": evolution.smoothing_bound_audit(ops, cfg["smoothing_times"],
                                                     gamma=spec.gamma()),
        "norm_monotonicity": evolution.norm_monotonicity(ops),
    }
    # the weight-cutoff audit needs a finite J and b = 0
    not_applicable = {"nse": "J = inf", "oscillator": "J = inf",
                      "clock": "b != 0 (weight cutoff invalid)"}
    if (kind := cfg["system"]["kind"]) in not_applicable:
        expected["regularization"] = f"not applicable ({not_applicable[kind]})"
    else:
        reg = cfg["regularization"]
        expected["regularization"] = evolution.regularization_gap(
            spec, experiments._default_observable(spec), reg["t"], reg["r_values"],
            reg["r_reference"])
    for key, block in expected.items():
        assert audit[key] == json.loads(json.dumps(block)), key
    # B and C are skew in their float data, so the certificate is exact
    assert audit["norm_monotonicity"] == {"symmetric_part_residual": 0.0, "passed": True}


def test_norm_certificate_feeds_exit_code(tmp_path, monkeypatch, capsys):
    # the raw quadrature matrix is skew only up to rounding (5.6e-16 here);
    # assemble_nonlinear_drift's (M - M^T)/2 makes it skew exactly
    def raw_drift(basis, spec):
        raw = spec.nonlinear.assemble(basis, spec).tocsr()
        return operators.SparseOperator(raw, "nonlinear", basis)

    monkeypatch.setattr(evolution, "assemble_nonlinear_drift", raw_drift)
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, AUDITS_CFG), "--out", str(out)]) \
        == cli.EXIT_AUDIT
    block = json.loads((out / "audit.json").read_text())["norm_monotonicity"]
    assert block["symmetric_part_residual"] > 0.0 and block["passed"] is False
    assert error_record(capsys) == {"error": "audit",
                                    "detail": "failed checks: norm_monotonicity"}


def test_audit_command_requires_audits_experiment(tmp_path):
    cfg_path = write_cfg(tmp_path, OU_CFG)
    assert cli.main(["audit", cfg_path]) == cli.EXIT_CONFIG


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "oscillator", "bogus": 1}')
    assert cli.main(["run", str(bad), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    missing = tmp_path / "missing.json"
    assert cli.main(["run", str(missing), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    notjson = tmp_path / "notjson.json"
    notjson.write_text("not json {")
    assert cli.main(["run", str(notjson), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_numerical_error_exit_code(tmp_path):
    cfg = {**OU_CFG, "times": {"t_max": 0.25, "n_points": 2},
           "mc": {"samples": 500, "dt": 0.1}}  # 0.25 not on the 0.1 lattice
    cfg_path = write_cfg(tmp_path, cfg)
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "o")]) \
        == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("block, key, value", [
    ("times", "t_max", 1e300), ("mc", "samples", 2 ** 62)])
def test_monte_carlo_work_cap_exit_code(tmp_path, block, key, value):
    # in-range values whose sample-steps would never finish: a fresh
    # process must exit 4 at the work cap instead of hanging
    cfg = copy.deepcopy(OSC_CFG)
    cfg[block][key] = value
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kolmsim.cli", "run", write_cfg(tmp_path, cfg),
         "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record["error"] == "numerical" and "work cap of 1e+10" in record["detail"]


@pytest.mark.parametrize("cfg", [
    {"experiment": "audits", "system": {"kind": "clock", "qubits": 40, "gates": 3},
     "basis": {"order": 1}},
    {**BQP_CFG, "circuits": {"file": "h.txt", "qubits": 40}},
], ids=["audits", "bqp_circuit"])
def test_clock_register_cap_exit_code(tmp_path, monkeypatch, capsys, cfg):
    # (gates + 1) 2^40 clock variables: refused before any gate is embedded
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.txt").write_text("H 0\n")
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    record = error_record(capsys)
    assert record["error"] == "numerical"
    assert record["detail"].endswith("variables exceeds the cap of 2000000")
    assert not out.exists()


@pytest.mark.parametrize("cfg, key", [
    ({**OU_CFG, "times": {**OU_CFG["times"], "n_points": 10 ** 9}}, "times.n_points"),
    ({**NSE_CFG, "probe": {**NSE_CFG["probe"], "count": 10 ** 9}}, "probe.count"),
], ids=["oscillator", "nse_taylor_green"])
def test_grid_point_cap_exit_code(tmp_path, capsys, cfg, key):
    # refused before the 7.45 GiB grid or the system is built
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert error_record(capsys) == {
        "error": "numerical", "detail": f"{key} = 1000000000 exceeds the cap of 100000 points"}
    assert not out.exists()


def test_overflowing_readout_norm_exit_code(tmp_path, capsys):
    # at q = 1e308 the readout point's lambda x^2 overflows, so its norm is not finite
    cfg = {"experiment": "audits", "system": {"kind": "ou", "lam": 0.5, "q": 1e308},
           "basis": {"order": 2}}
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_NUMERICAL
    record = error_record(capsys)
    assert record["error"] == "numerical"
    assert record["detail"] == "readout norm at x = [inf] is not a finite double"


def test_exponential_action_work_cap_exit_code(tmp_path, capsys):
    # at time 1e300, t ||G||_1 leaves expm_multiply with a nan step count
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, {**NSE_CFG, "time": 1e300}),
                     "--out", str(out)]) == cli.EXIT_NUMERICAL
    record = error_record(capsys)
    assert record["error"] == "numerical"
    assert record["detail"].endswith("exceeds the cap of 1e+06")
    assert not out.exists()


@pytest.mark.parametrize("cfg", [
    {**NSE_CFG, "system": {**NSE_CFG["system"], "modes": 2 ** 62}},
    {"experiment": "audits", "system": {"kind": "nse", "modes": 2 ** 62}, "basis": {"order": 1}},
], ids=["nse_taylor_green", "audits"])
def test_mode_count_cap_exit_code(tmp_path, capsys, cfg):
    # refused before the wavenumber table is built: a basis of order >= 1
    # has more rows than modes, so such a run can never fit the basis cap
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    record = error_record(capsys)
    assert record["error"] == "numerical"
    assert record["detail"] == f"{2 ** 62} modes exceed the basis cap of 2000000"
    assert not out.exists()


def test_nse_triple_table_cap_exit_code(tmp_path):
    # 3 modes (modes - 1) candidate triples past the basis cap: refused before
    # the O(modes^2) triple table is built (800 modes already peak at 426 MiB).
    # A fresh process with its address space capped, so a missing guard fails
    # here instead of taking gigabytes.
    cfg = {**NSE_CFG, "system": {**NSE_CFG["system"], "modes": 5000}}
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kolmsim.cli", "run", write_cfg(tmp_path, cfg),
         "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record == {"error": "numerical",
                      "detail": "5000 modes make 3 modes (modes - 1) = 74985000 candidate "
                                "triples, over the cap of 2000000"}
    assert not (tmp_path / "o").exists()


def test_nse_triple_cap_is_checked_before_the_wavenumber_table(tmp_path, monkeypatch, capsys):
    # 817 modes make 2,000,016 candidate triples: refused from the mode count
    # alone, so the wavenumber table is never built
    def unreachable(n_modes):
        raise AssertionError("wavenumber_table was called")

    monkeypatch.setattr(systems, "wavenumber_table", unreachable)
    cfg = {"experiment": "audits", "system": {"kind": "nse", "modes": 817}, "basis": {"order": 1}}
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    record = error_record(capsys)
    assert record == {"error": "numerical",
                      "detail": "817 modes make 3 modes (modes - 1) = 2000016 candidate "
                                "triples, over the cap of 2000000"}
    assert not out.exists()


def test_regularization_propagator_work_cap_exit_code(tmp_path, capsys):
    # at t = 1e300 every propagator of the regularization audit would read nan;
    # the audit used to pass with a sup of 0.0, since max(0.0, nan) is 0.0
    cfg = {**AUDITS_CFG, "regularization": {**AUDITS_CFG["regularization"], "t": 1e300}}
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    record = error_record(capsys)
    assert record["error"] == "numerical"
    assert record["detail"].endswith("exceeds the cap of 1e+06")
    assert not out.exists()


def test_audit_failure_exit_code(tmp_path, monkeypatch):
    def failing_audit(*args, **kwargs):
        return {"passed": False, "operators": {"linear": {"passed": False}}}

    monkeypatch.setitem(experiments.RUNNERS, "audits",
                        lambda cfg, seed: (failing_audit(), {}))
    cfg_path = write_cfg(tmp_path, AUDITS_CFG)
    assert cli.main(["audit", cfg_path, "--out", str(tmp_path / "o")]) == cli.EXIT_AUDIT


@pytest.mark.parametrize("verdict", [False, np.False_], ids=["bool", "numpy_bool"])
def test_every_false_boolean_fails_the_run(tmp_path, monkeypatch, capsys, verdict):
    # a runner only reports its verdicts; run_experiment derives the root flag
    monkeypatch.setitem(experiments.RUNNERS, "audits", lambda cfg, seed: (
        {"passed": True, "extra": {"ok": True, "within_bound": verdict}}, {}))
    out = tmp_path / "o"
    assert cli.main(["audit", write_cfg(tmp_path, AUDITS_CFG), "--out", str(out)]) \
        == cli.EXIT_AUDIT
    assert json.loads((out / "audit.json").read_text())["passed"] is False
    assert error_record(capsys) == {"error": "audit",
                                    "detail": "failed checks: extra/within_bound"}


def test_unresolved_quadrature_exit_code(tmp_path, capsys):
    cfg = {**AUDITS_CFG, "system": {"kind": "bounded_oscillator", "lam": 0.1, "q": 0.5},
           "basis": {"order": 3}}
    assert cli.main(["audit", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_NUMERICAL
    record = error_record(capsys)
    assert record["error"] == "numerical"
    measured, cause = record["detail"].removeprefix("raw drift matrix asymmetry ").split(
        " exceeds 1.0e-10; ")
    assert float(measured) > 1e-9  # 1.07e-8 measured
    assert cause == "the 200-node Gauss-Hermite rule does not resolve the drift at q/lambda_1 = 5"


# the 3-SE verdict on the mean of x1 (observable [1]) and on its second moment ([2])
@pytest.mark.parametrize("power", [1, 2], ids=["1-mean_within_3se", "2-second_moment_within_3se"])
def test_ou_verdict_feeds_exit_code(tmp_path, monkeypatch, capsys, power):
    # the highest order's curve (OU_CFG has only order 4) shifted by 1.0 lies far
    # outside 3 standard errors of Monte Carlo at every time
    real_compare = experiments.compare
    monkeypatch.setattr(experiments, "compare", lambda run, values: real_compare(run, values + 1.0))
    cfg = {**OU_CFG, "observable": [power]}
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_AUDIT
    audit = json.loads((out / "audit.json").read_text())
    block = audit["mc_agreement"]
    assert (block["order"], block["bound"], block["passed"]) == (4, 3.0, False)
    assert block["max_gap_over_se"] > 3.0
    assert audit["passed"] is False
    assert error_record(capsys) == {"error": "audit", "detail": "failed checks: mc_agreement"}
    # without the key the same run has no verdict to fail
    no_verdict = copy.deepcopy(cfg)
    del no_verdict["mc"]["max_gap_over_se"]
    out = tmp_path / "no_verdict"
    assert cli.main(["run", write_cfg(tmp_path, no_verdict), "--out", str(out)]) == cli.EXIT_OK
    assert "mc_agreement" not in (out / "audit.json").read_text()


def test_bqp_bound_feeds_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "circuit_amplitude", lambda circuit, n: 2.0)
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, BQP_CFG), "--out", str(out)]) == cli.EXIT_AUDIT
    audit = json.loads((out / "audit.json").read_text())
    assert audit["bqp"]["bound_satisfied"] is False
    assert audit["passed"] is False
    assert error_record(capsys) == {"error": "audit",
                                    "detail": "failed checks: bqp/bound_satisfied"}


def test_bqp_amplitude_sees_a_planted_embedding_defect(tmp_path, monkeypatch):
    # an embedding that lands each gate's rows in reverse order (X U for a one-qubit U)
    # moves the clock readouts; the amplitude oracle contracts the gates itself, so the
    # identity gap must show the defect.  (Reversing a two-qubit gate's targets would
    # not: no amplitude <00|U|00> of these four circuits depends on that orientation.)
    real_embed = systems.embed_gate

    def reversed_rows(us, targets, n_qubits):
        return real_embed(np.asarray(us)[:, ::-1], targets, n_qubits)

    monkeypatch.setattr(systems, "embed_gate", reversed_rows)
    out = tmp_path / "o"
    cli.main(["run", write_cfg(tmp_path, BQP_CFG), "--out", str(out)])
    assert json.loads((out / "audit.json").read_text())["bqp"]["worst_identity_gap"] > 0.1


def test_bqp_nan_amplitude_gives_nan_identity_gap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "circuit_amplitude",
                        lambda circuit, n: 0.0 if len(circuit) % 2 else math.nan)
    audit, _ = experiments.run_bqp_circuit(experiments.validate_config(BQP_CFG), 7)
    assert math.isnan(audit["bqp"]["worst_identity_gap"])
    # no artifact may hold the nan, so the run stops before writing any
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, BQP_CFG), "--out", str(out)]) \
        == cli.EXIT_NUMERICAL
    assert error_record(capsys) == {"error": "numerical",
                                    "detail": "bqp/worst_identity_gap is nan"}
    assert not out.exists()


def test_bqp_total_register_cap_exit_code(tmp_path, monkeypatch, capsys):
    # 10^8 circuits of up to 4 * 2^2 variables: refused before any circuit is generated
    def no_circuit(*args):
        raise AssertionError("a circuit was generated")

    monkeypatch.setattr(experiments, "random_real_circuit", no_circuit)
    cfg = {**BQP_CFG, "circuits": {**BQP_CFG["circuits"], "count": 10 ** 8}}
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    record = error_record(capsys)
    assert record["error"] == "numerical"
    assert "= 1600000000 clock variables exceed the cap of 2000000" in record["detail"]
    assert not out.exists()


def test_nan_radial_residual_fails_the_divergence_audit(tmp_path, capsys):
    # at lam = 1e-300 the sample points are ~1e150 and the radial residual is nan,
    # which a Python max over the residuals dropped; no artifact may hold the nan
    # (the drift's overflow warnings are silenced; the nan still fails the verdict)
    cfg = {**AUDITS_CFG, "system": {"kind": "oscillator", "lam": 1e-300}}
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["audit", write_cfg(tmp_path, cfg), "--out", str(out)])
        block = operators.verify_divergence_free(
            experiments.build_system("oscillator", {"lam": 1e-300, "q": 0.02}))
    assert [str(w.message) for w in caught] == []
    assert code == cli.EXIT_NUMERICAL
    assert error_record(capsys) == {"error": "numerical",
                                    "detail": "divergence_free/radial_residual is nan"}
    assert not out.exists()
    assert math.isnan(block["radial_residual"]) and block["passed"] is False


def plant_nan_gap(audit, tables):
    rows = tables["comparison"][1]
    rows[1] = rows[1][:-2] + (math.nan, rows[1][-1])


def plant_infinite_ratio(audit, tables):
    audit["smoothing"]["dissipation_ratio"][1] = np.float64(np.inf)


@pytest.mark.parametrize("cfg, plant, detail", [
    (OSC_CFG, plant_nan_gap, "comparison.csv[1]/abs_gap is nan"),
    (AUDITS_CFG, plant_infinite_ratio, "smoothing/dissipation_ratio[1] is inf"),
], ids=["nan_in_a_table", "infinity_in_the_audit"])
def test_nonfinite_float_exit_code(tmp_path, monkeypatch, capsys, cfg, plant, detail):
    real_runner = experiments.RUNNERS[cfg["experiment"]]

    def planted(*args):
        audit, tables = real_runner(*args)
        plant(audit, tables)
        return audit, tables

    monkeypatch.setitem(experiments.RUNNERS, cfg["experiment"], planted)
    out = tmp_path / "o"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert error_record(capsys) == {"error": "numerical", "detail": detail}
    assert not out.exists()


def test_oscillator_runner_adds_the_stationary_mean(tmp_path):
    # the Galerkin solution evolves u0 - E[u0]; the curve of x1^2 for OU from x0 is
    # q / (2 lam) + x0^2 e^{-2 lam t} only once the runner adds the mean back
    cfg = experiments.validate_config({
        "experiment": "oscillator", "system": {"kind": "ou", "lam": 0.5, "q": 0.2},
        "initial_point": [1.5], "observable": [2], "basis": {"orders": [2]},
        "times": {"t_max": 2.0, "n_points": 5}, "mc": {"samples": 100, "dt": 0.1}})
    _, tables = experiments.run_oscillator(cfg, 0)
    t, _, value = (np.array(c, dtype=float) for c in zip(*tables["galerkin_curve"][1]))
    np.testing.assert_allclose(value, 0.2 / (2 * 0.5) + 1.5 ** 2 * np.exp(-2 * 0.5 * t),
                               rtol=0, atol=1e-14)


def test_bqp_batched_readouts_match_per_circuit_solves(monkeypatch):
    # sizes (gates + 1) 2^qubits collide: (1, 3), (3, 2) and (7, 1) all make
    # N = 16, so one group holds readout variables 8, 12 and 14; (2, 1) makes a
    # group of its own, N = 6, and (8, 3) one far larger, N = 72, whose norm sets
    # the step choice of the one action that evolves every group
    rng = np.random.default_rng(5)
    jobs = [(random_real_circuit(rng, n, m), n)
            for m, n in [(1, 3), (3, 2), (2, 1), (7, 1), (3, 2), (8, 3), (1, 3)]]
    actions, real_action = [], evolution.expm_multiply
    monkeypatch.setattr(evolution, "expm_multiply",
                        lambda *args, **kw: actions.append(args) or real_action(*args, **kw))
    values, (spec, ops) = experiments._clock_readouts(jobs, 0.1, 0.1, 1.0)
    assert len(actions) == 1  # one action for the three register sizes
    for (circuit, n), value in zip(jobs, values):
        spec_k = clock_system(circuit, n, lam=0.1, q=0.1)
        ops_k = experiments._order_operators(spec_k, 1)
        psi = evolve_expm(initial_state(experiments._default_observable(spec_k), ops_k.basis),
                          ops_k, 1.0)
        x = np.zeros(spec_k.n_vars)
        x[len(circuit) * 2 ** n] = 1.0
        assert abs(value - expectation(psi, ops_k.basis, x, 1, spec_k)) <= 1e-13
    # the audit gets the first circuit's system and operators
    assert (spec.linear != clock_system(*jobs[0], lam=0.1, q=0.1).linear).nnz == 0
    assert (ops.generator() != experiments._order_operators(spec, 1).generator()).nnz == 0


def test_bqp_readouts_embed_each_gate_class_once_per_group(monkeypatch):
    # the first circuit of a register group takes its drift from the group's direct
    # sum, so each group embeds each of its (qubits, targets, shape) classes once
    rng = np.random.default_rng(5)
    jobs = [(random_real_circuit(rng, n, m), n)
            for m, n in [(1, 3), (3, 2), (2, 1), (7, 1), (3, 2), (1, 3)]]
    groups = {}
    for circuit, n in jobs:
        groups.setdefault((len(circuit) + 1) * 2 ** n, set()).update(
            (n, tuple(targets), np.shape(u)) for u, targets in circuit)
    calls, real_embed = [], systems.embed_gate
    monkeypatch.setattr(systems, "embed_gate",
                        lambda *args: calls.append(args[1]) or real_embed(*args))
    experiments._clock_readouts(jobs, 0.1, 0.1, 1.0)
    assert len(calls) == sum(map(len, groups.values()))


@pytest.mark.parametrize("cfg_seed, cli_seed", [
    (-1, None), (2.5, None), (True, None), ("7", None), (2 ** 64, None),
    (3, "-1")])
def test_bad_seed_exit_code(tmp_path, capsys, cfg_seed, cli_seed):
    argv = ["run", write_cfg(tmp_path, {**OU_CFG, "seed": cfg_seed}),
            "--out", str(tmp_path / "o")]
    if cli_seed is not None:
        argv += ["--seed", cli_seed]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert error_record(capsys)["error"] == "config"
    assert not (tmp_path / "o").exists()


def test_largest_seed_runs(tmp_path):
    # the Philox key (seed << 64) + chunk fits 128 bits for every seed below 2^64
    out = tmp_path / "o"
    argv = ["run", write_cfg(tmp_path, {**OU_CFG, "seed": 2 ** 64 - 1}), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("cfg", [
    {**OU_CFG, "initial_point": [1.0, 2.0, 3.0]},
    {**OU_CFG, "system": {**OU_CFG["system"], "n_vars": 2}},
    {**OSC_CFG, "initial_point": [1.0]},
    {**OSC_CFG, "initial_point": ["x", 0.0]}])
def test_initial_point_length_exit_code(tmp_path, capsys, cfg):
    argv = ["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "initial_point" in error_record(capsys)["detail"]


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["an existing file", "below a file"])
def test_bad_out_exit_code(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker.joinpath(*below)
    argv = ["run", write_cfg(tmp_path, OU_CFG), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    record = error_record(capsys)
    assert record["error"] == "config" and record["detail"].startswith(f"--out {out}: ")


def test_oscillator_null_point_and_observable_are_derived(tmp_path):
    # null: x1 = 1 with the others 0, and u0 = x1, for any system kind
    explicit, derived = tmp_path / "explicit", tmp_path / "derived"
    experiments.run_experiment(experiments.validate_config(OSC_CFG), str(explicit))
    nulls = {**OSC_CFG, "initial_point": None, "observable": None}
    experiments.run_experiment(experiments.validate_config(nulls), str(derived))
    for name in ("mc_curve.csv", "galerkin_curve.csv", "comparison.csv", "audit.json"):
        assert (explicit / name).read_bytes() == (derived / name).read_bytes(), name
    nse = {**OSC_CFG, "system": {"kind": "nse", "modes": 6, "q": 0.1},
           "mc": {"samples": 200, "dt": 0.0025}}
    del nse["initial_point"], nse["observable"]
    audit = experiments.run_experiment(experiments.validate_config(nse), str(tmp_path / "nse"))
    assert audit["basis_size"] == 27  # every degree-1..2 index over 6 variables
    with open(tmp_path / "nse" / "galerkin_curve.csv") as fh:
        assert float(next(csv.DictReader(fh))["value"]) == 1.0  # u0(x0) at t = 0


@pytest.mark.parametrize("threads", [0, -3, 2])
def test_bad_threads_exit_code(tmp_path, capsys, threads):
    # Monte Carlo runs on one thread: the CLI has no --threads, and run_experiment
    # keeps a threads keyword that takes only 1
    refusal = rf"threads must be an integer in \[1, 2\), got {threads}"
    with pytest.raises(ConfigError, match=refusal):
        experiments.run_experiment(experiments.validate_config(OU_CFG), str(tmp_path / "o"),
                                   threads=threads)
    argv = ["run", write_cfg(tmp_path, OU_CFG), "--out", str(tmp_path / "o"),
            "--threads", str(threads)]
    with pytest.raises(SystemExit) as refused:
        cli.main(argv)
    assert refused.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def with_block(cfg, block, **values):
    """`cfg` with `values` set in its `block` sub-object."""
    return {**cfg, block: {**cfg.get(block, {}), **values}}


@pytest.mark.parametrize("cfg, detail", [
    ({**BQP_CFG, "circuits": {"file": "no_such_circuit.txt", "qubits": 1}}, "circuits.file"),
    ({**BQP_CFG, "circuits": {"file": "no_such_circuit.txt"}}, "qubits"),
    ({**OU_CFG, "system": {**OU_CFG["system"], "lam": "x"}}, "system.lam"),
    ({**OSC_CFG, "system": {**OSC_CFG["system"], "lam": "x"}}, "system.lam"),
    ({**OSC_CFG, "system": {**OSC_CFG["system"], "q": None}}, "system.q"),
    ({**BQP_CFG, "time": [1.0]}, "config.time"),
    # mistyped or missing values
    (with_block(OU_CFG, "system", n_vars="two"), "system.n_vars"),
    (with_block(AUDITS_CFG, "system", lam="x"), "system.lam"),
    (with_block(OU_CFG, "times", n_points=-1), "times.n_points"),
    (with_block(OSC_CFG, "basis", orders=["a"]), "basis.orders[0]"),
    (with_block(OU_CFG, "mc", samples="many"), "mc.samples"),
    ({**OU_CFG, "times": {}}, "config.times: missing required key 't_max'"),
    ({**AUDITS_CFG, "system": {"kind": "clock", "qubits": "x"}}, "system.qubits"),
    ({**OSC_CFG, "observable": ["x", 0]}, "observable[0]"),
    (with_block(NSE_CFG, "probe", xi1_range=[0.1, 0.2, 0.3]), "probe.xi1_range"),
    ({**AUDITS_CFG, "smoothing_times": "x"}, "smoothing_times"),
    ({**AUDITS_CFG, "trotter": {"steps": "x"}}, "trotter.steps"),
    # values out of range
    (with_block(OU_CFG, "system", lam=-0.5), "system.lam"),
    (with_block(NSE_CFG, "system", nu=-1), "system.nu"),
    (with_block(OSC_CFG, "system", q=0), "system.q"),
    (with_block(NSE_CFG, "system", modes=3), "system.modes"),
    (with_block(AUDITS_CFG, "basis", order=-1), "basis.order"),
    (with_block(OU_CFG, "mc", dt=0), "mc.dt"),
    (with_block(OU_CFG, "mc", samples=0), "mc.samples"),
    (with_block(OSC_CFG, "system", kind="bogus"), "config.system: 'bogus'"),
    (with_block(OSC_CFG, "evolution", method="reference"), "config: unknown keys ['evolution']"),
    (with_block(OSC_CFG, "times", t_max=0), "times.t_max"),
    (with_block(NSE_CFG, "probe", count=0), "probe.count"),
    (with_block(NSE_CFG, "probe", xi1_range=[0.1]), "probe.xi1_range"),
    # malformed circuit files
    ({**BQP_CFG, "circuits": {"file": "foo.txt", "qubits": 1}},
     "circuits.file 'foo.txt': line 1: unknown gate"),
    ({**BQP_CFG, "circuits": {"file": "ry_abc.txt", "qubits": 1}},
     "circuits.file 'ry_abc.txt': line 2: could not convert"),
    # values that conflict with another key or with the system
    ({**OSC_CFG, "observable": [0, 0]}, "config.observable"),
    ({**OSC_CFG, "observable": [9, 0]}, "config.observable"),
    ({**OSC_CFG, "observable": [3, 0]}, "config.observable"),  # above basis.orders [2]
    (with_block(AUDITS_CFG, "regularization", r_reference=0.2),
     "config.regularization.r_reference: 0.2 is below max(r_values) = 0.4"),
    (with_block(AUDITS_CFG, "system", lam=1.5),
     "config.regularization.r_values: 0.4 is below the system's first rate 1.5"),
    # per-variable lists whose length is not the n_vars of the system kind
    ({**OSC_CFG, "observable": [1, 0, 0]}, "config.observable needs n_vars = 2 entries, got 3"),
    ({**OSC_CFG, "system": {"kind": "nse", "modes": 6}},
     "config.initial_point needs n_vars = 6 entries, got 2"),
    # a circuit file whose gates fail the embedding's checks
    ({**BQP_CFG, "circuits": {"file": "non_orthogonal.txt", "qubits": 2}},
     "circuits.file 'non_orthogonal.txt': gate matrix is not orthogonal"),
    ({**BQP_CFG, "circuits": {"file": "repeated_target.txt", "qubits": 2}},
     "circuits.file 'repeated_target.txt': bad target qubit list"),
    # each order is one block of the direct sum, and one set of comparison rows
    (with_block(OSC_CFG, "basis", orders=[3, 2, 3]), "config.basis.orders [3, 2, 3] repeats")])
def test_malformed_value_exit_code(tmp_path, monkeypatch, capsys, cfg, detail):
    monkeypatch.chdir(tmp_path)
    for name, text in CIRCUIT_FILES.items():
        (tmp_path / name).write_text(text)
    argv = ["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    record = error_record(capsys)
    assert record["error"] == "config"
    assert detail in record["detail"]


@pytest.mark.parametrize("cfg", [
    {**OSC_CFG, "observable": [1, 0, 0]},
    {**OU_CFG, "initial_point": [1.0, 2.0]},
    {**BQP_CFG, "circuits": {"file": "no_such_circuit.txt", "qubits": 1}},
    with_block(AUDITS_CFG, "system", lam=1.5),
], ids=["oscillator.observable", "ou_sanity.initial_point", "circuits.file",
        "regularization.r_values"])
def test_runner_config_error_leaves_no_directory(tmp_path, monkeypatch, capsys, cfg):
    # these checks run inside the runner, after --out was made; the run removes
    # every directory it made, the missing parents of a nested --out included
    monkeypatch.chdir(tmp_path)
    config = write_cfg(tmp_path, cfg)
    for out in (str(tmp_path / "o"), "a/b/c"):
        assert cli.main(["run", config, "--out", out]) == cli.EXIT_CONFIG
        assert error_record(capsys)["error"] == "config"
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "a").exists()
    # a directory the run did not make stays
    (tmp_path / "o").mkdir()
    assert cli.main(["run", config, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert (tmp_path / "o").is_dir()
    (tmp_path / "a").mkdir()
    assert cli.main(["run", config, "--out", "a/b/c"]) == cli.EXIT_CONFIG
    assert (tmp_path / "a").is_dir()
    assert not (tmp_path / "a" / "b").exists()


def test_repo_example_configs_validate():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = os.listdir(root)
    assert len(names) >= 4
    for name in names:
        experiments.load_config(os.path.join(root, name))


# The shipped configs, shrunk so that each run takes well under a second;
# the bounded audit bundle (about 0.15 s CPU) runs at its shipped size.
SMALL_CONFIGS = {
    "oscillator.json": {"basis": {"orders": [2]}, "times": {"t_max": 1.0, "n_points": 3},
                        "mc": {"samples": 100, "dt": 0.01}},
    "ou_sanity.json": {"times": {"t_max": 1.0, "n_points": 3},
                       "mc": {"samples": 100, "dt": 0.01, "max_gap_over_se": 3}},
    "nse_taylor_green.json": {"system": {"modes": 6, "nu": 0.1, "q": 1e-5},
                              "basis": {"order": 2},
                              "probe": {"count": 2, "xi2": 0.25, "xi1_range": [0.05, 0.95]}},
    "bqp_circuit.json": {"circuits": {"count": 2, "qubits": 2, "gates": 3, "max_arity": 2}},
    "audits_bounded_oscillator.json": {},
    "audits_nse.json": {"system": {"kind": "nse", "modes": 6, "nu": 0.1, "q": 0.001}},
    "nse_mc.json": {"basis": {"orders": [2]}, "times": {"t_max": 0.1, "n_points": 3},
                    "mc": {"samples": 100, "dt": 0.0025}},
}
MUTATIONS = ("delete", "retype", "zero", "negative", "empty", "unknown key")


def key_paths(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def small_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return {**json.load(fh), **copy.deepcopy(SMALL_CONFIGS[name])}


@pytest.mark.parametrize("name, changes, detail", [
    ("audits_nse.json", {"system": {"nu": 1e-300}}, "operators/nonlinear/norm_estimate is nan"),
    ("audits_nse.json", {"system": {"q": 1e300}}, "divergence_free/radial_residual is nan"),
    ("audits_bounded_oscillator.json", {"regularization": {"r_reference": 1e300}},
     "basis of at least 1e+301 entries exceeds the cap of 2000000"),
    ("bqp_circuit.json", {"time": 1e300},
     "exponential action work t ||G||_1 = 5.96e+300 exceeds the cap of 1e+06"),
    ("bqp_circuit.json", {"system": {"lam": 1e300}},
     "exponential action work t ||G||_1 = 1e+300 exceeds the cap of 1e+06"),
    ("oscillator.json", {"system": {"q": 1e-300}, "basis": {"orders": [3]}},
     "non-finite coefficients"),
], ids=["nse_tiny_nu", "nse_huge_q", "bounded_huge_r_reference", "bqp_huge_time",
        "bqp_huge_lam", "osc_tiny_q"])
def test_extreme_values_exit_with_a_numerical_record(tmp_path, capsys, name, changes, detail):
    # in range, but the norm estimate overflows (entries near 8e147 at nu = 1e-300), the
    # weight-rule basis would be 1e301 rows wide, the one action of every circuit would
    # take t ||G||_1 past its cap, or the readout's a^3 overflows (a = x sqrt(2 lam / q)
    # near 4.5e149 at q = 1e-300; order 2 stays finite): exit 4 with no warning, never a
    # traceback
    cfg = small_config(name)
    for block, value in changes.items():
        cfg[block] = {**cfg[block], **value} if isinstance(value, dict) else value
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert code == cli.EXIT_NUMERICAL
    assert error_record(capsys) == {"error": "numerical", "detail": detail}
    assert not out.exists()


def test_non_finite_evolved_vector_exits_with_a_numerical_record(tmp_path, monkeypatch,
                                                                 capsys):
    # every run's evolved vectors come out of one `evolve_direct_sum` action, which
    # refuses a nan before any readout or artifact is made of it
    real_action = evolution.expm_multiply
    monkeypatch.setattr(evolution, "expm_multiply",
                        lambda *args, **kw: np.full_like(real_action(*args, **kw), np.nan))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", write_cfg(tmp_path, OSC_CFG), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert code == cli.EXIT_NUMERICAL
    assert error_record(capsys) == {"error": "numerical", "detail": "non-finite coefficients"}
    assert not out.exists()


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Each small config's exit code and output directory, from one CLI run each."""
    tmp = tmp_path_factory.mktemp("small")
    runs = {}
    for name in SMALL_CONFIGS:
        out = tmp / name
        runs[name] = cli.main(["run", write_cfg(tmp, small_config(name)), "--out", str(out)]), out
    return runs


def test_small_configs_run_clean(small_runs):
    for name, (code, out) in small_runs.items():
        assert code == cli.EXIT_OK, name
        tables = set() if small_config(name)["experiment"] == "audits" else {
            "galerkin_curve.csv", "mc_curve.csv", "comparison.csv"}
        assert set(os.listdir(out)) == tables | {"audit.json", "manifest.json"}, name


def test_csv_rows_match_their_header(small_runs):
    # every experiment's CSVs parse with as many fields per row as in the header
    for name, (_, out) in small_runs.items():
        for csv_name in sorted(n for n in os.listdir(out) if n.endswith(".csv")):
            with open(out / csv_name, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert {len(row) for row in rows} <= {len(header)}, (name, csv_name)


@pytest.mark.parametrize("broken", [None, "negated", "transposed"])
def test_nse_comparison_sees_the_nonlinear_operator(monkeypatch, broken):
    # the shipped NSE comparison observes a mode whose mean is purely
    # nonlinear, so it tracks Monte Carlo with the true C and leaves it
    # (14 SE measured) with -C or C^T = -C
    with open(os.path.join(CONFIG_DIR, "nse_mc.json")) as fh:
        cfg = json.load(fh)
    cfg["mc"]["samples"] = 6000
    cfg = experiments.validate_config(cfg)
    if broken:
        def breaking(basis, spec):
            ops = assemble_all(basis, spec)
            if broken == "transposed":
                return ops.transpose()
            return dataclasses.replace(ops, nonlinear=dataclasses.replace(
                ops.nonlinear, matrix=-ops.nonlinear.matrix))
        monkeypatch.setattr(experiments, "assemble_all", breaking)
    _, tables = experiments.run_oscillator(cfg, cfg["seed"])
    header, rows = tables["comparison"]
    worst = max(row[header.index("gap_over_se")] for row in rows)
    assert (worst <= 5.0) == (broken is None), worst


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_configs_exit_with_a_record(data):
    """One key deleted, retyped, zeroed, negated, emptied or joined by an unknown key."""
    cfg = small_config(data.draw(st.sampled_from(sorted(SMALL_CONFIGS))))
    *parents, key = data.draw(st.sampled_from(list(key_paths(cfg))))
    block = cfg
    for parent in parents:
        block = block[parent]
    mutation = data.draw(st.sampled_from(MUTATIONS))
    if mutation == "delete":
        del block[key]
    elif mutation == "retype":
        block[key] = data.draw(st.sampled_from(["x", None, True, 1.5, [1], {"a": 1}]))
    elif mutation in ("zero", "negative"):
        block[key] = 0 if mutation == "zero" else -1
    elif mutation == "empty":
        block[key] = type(block[key])() if isinstance(block[key], (dict, list, str)) else None
    else:
        (block[key] if isinstance(block[key], dict) else block)["unknown"] = 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", path, "--out", os.path.join(tmp, "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_AUDIT, cli.EXIT_NUMERICAL), cfg
    if code != cli.EXIT_OK:
        record = json.loads(stderr.getvalue().strip().splitlines()[-1])
        assert set(record) == {"error", "detail"}, cfg
