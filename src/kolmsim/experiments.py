"""Config-driven experiments: system building, runs, and the audit bundle.

Each experiment consumes a validated configuration dictionary and writes
the same artifact set: galerkin_curve.csv, mc_curve.csv, comparison.csv,
audit.json, and manifest.json (column meanings vary per experiment and
are documented in the README).  Audits aggregate every bound check that
applies to the configured system; checks that need a finite drift
strength J are reported as not applicable when J is infinite.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import numpy as np
import scipy.sparse as sp

from . import __version__
from .errors import ConfigError, KolmsimError
from .evolution import (
    EvolutionConfig,
    assemble_all,
    check_norm_monotone,
    evolve_expm,
    evolve_reference,
    evolve_trotter,
    regularization_gap,
    smoothing_bound_audit,
    trotter_error_bound,
)
from .montecarlo import compare, simulate
from .multiindex import RegularizationScheme, enumerate_basis
from .operators import (
    SystemSpec,
    sparsity_audit,
    verify_divergence_free,
)
from .states import (
    MonomialObservable,
    combination_state,
    expectation,
    initial_state,
    readout_norm_sq,
    truncation_order_for,
)
from .systems import (
    circuit_amplitude,
    clock_system,
    nse_system,
    oscillator_system,
    parse_circuit,
    probe_functional_coefficients,
    random_real_circuit,
    taylor_green,
    taylor_green_mode_coefficients,
)

EXPERIMENTS = ("oscillator", "nse_taylor_green", "bqp_circuit", "ou_sanity", "audits")
# Philox keys are 128 bits, (seed << 64) + sample, and ou_sanity also uses seed + 1
_SEED_LIMIT = 2 ** 64 - 1


# ---------------------------------------------------------------- config schema


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set, where: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def validate_config(cfg: dict) -> dict:
    """Schema check; rejects unknown keys at every level."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    exp = _require(cfg, "experiment", "config")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")
    common = {"experiment", "seed", "comment"}
    if exp == "oscillator":
        _check_keys(cfg, common | {"system", "initial_point", "observable",
                                   "basis", "evolution", "times", "mc"}, "config")
        _check_keys(_require(cfg, "system", "config"),
                    {"lam", "q", "profile"}, "system")
        _check_keys(_require(cfg, "basis", "config"), {"orders"}, "basis")
        _check_keys(cfg.get("evolution", {}), {"method", "steps"}, "evolution")
        _check_keys(_require(cfg, "times", "config"), {"t_max", "n_points"}, "times")
        _check_keys(_require(cfg, "mc", "config"), {"samples", "dt"}, "mc")
    elif exp == "nse_taylor_green":
        _check_keys(cfg, common | {"system", "basis", "probe", "time"}, "config")
        _check_keys(_require(cfg, "system", "config"), {"modes", "nu", "q"}, "system")
        _check_keys(_require(cfg, "basis", "config"), {"order"}, "basis")
        _check_keys(cfg.get("probe", {}), {"count", "xi2", "xi1_range"}, "probe")
    elif exp == "bqp_circuit":
        _check_keys(cfg, common | {"circuits", "system", "time"}, "config")
        _check_keys(_require(cfg, "circuits", "config"),
                    {"count", "qubits", "gates", "max_arity", "file"}, "circuits")
        _check_keys(cfg.get("system", {}), {"lam", "q"}, "system")
    elif exp == "ou_sanity":
        _check_keys(cfg, common | {"system", "initial_point", "times", "mc"}, "config")
        _check_keys(_require(cfg, "system", "config"), {"lam", "q", "n_vars"}, "system")
        _check_keys(_require(cfg, "times", "config"), {"t_max", "n_points"}, "times")
        _check_keys(_require(cfg, "mc", "config"), {"samples", "dt"}, "mc")
    elif exp == "audits":
        _check_keys(cfg, common | {"system", "basis", "regularization",
                                   "smoothing_times", "trotter"}, "config")
        system = _require(cfg, "system", "config")
        _check_keys(system, {"kind", "lam", "q", "n_vars", "modes", "nu",
                             "qubits", "gates"}, "system")
        _require(system, "kind", "system")
        _check_keys(_require(cfg, "basis", "config"), {"order"}, "basis")
        _check_keys(cfg.get("regularization", {}),
                    {"r_values", "r_reference", "t"}, "regularization")
        _check_keys(cfg.get("trotter", {}), {"t", "steps"}, "trotter")
    return cfg


def _checked_seed(seed) -> int:
    """`seed` as an int, if every kolmsim RNG accepts it: 0 <= seed < _SEED_LIMIT."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < _SEED_LIMIT):
        raise ConfigError(f"seed must be an integer in [0, 2^64 - 1), got {seed!r}")
    return int(seed)


def _number(block: dict, key: str, default, where: str) -> float:
    """`block[key]` (or `default`) as a float; ConfigError if it is not a number."""
    value = block.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}") from exc


def _initial_point(cfg: dict, n_vars: int, default) -> np.ndarray:
    try:
        x0 = np.asarray(cfg.get("initial_point", default), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial_point must be a list of numbers: {exc}") from exc
    if x0.shape != (n_vars,):
        raise ConfigError(f"initial_point needs {n_vars} entries, got shape {x0.shape}")
    return x0


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(cfg)


# ---------------------------------------------------------------- file helpers


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: str, payload: dict):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   default=_jsonable) + "\n")


def write_manifest(out_dir: str, cfg: dict, seed: int, threads: int):
    write_json(os.path.join(out_dir, "manifest.json"), {
        "config": cfg,
        "seed": seed,
        "threads": threads,
        "versions": {
            "kolmsim": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": sys.version.split()[0],
        },
    })


# ---------------------------------------------------------------- system building


def build_system(system_cfg: dict):
    """SystemSpec plus a default basis order from an `audits` system block."""
    kind = system_cfg["kind"]
    if kind == "oscillator":
        return oscillator_system(system_cfg.get("lam", 0.1),
                                 system_cfg.get("q", 0.02), profile="cubic")
    if kind == "bounded_oscillator":
        return oscillator_system(system_cfg.get("lam", 0.1),
                                 system_cfg.get("q", 0.1), profile="bounded")
    if kind == "nse":
        return nse_system(system_cfg.get("modes", 40), system_cfg.get("nu", 0.1),
                          system_cfg.get("q", 1e-5))
    if kind == "ou":
        lam = system_cfg.get("lam", 0.5)
        n_vars = system_cfg.get("n_vars", 1)
        return SystemSpec(name="ou", rates=np.full(n_vars, float(lam)),
                          noise=system_cfg.get("q", 0.2))
    if kind == "clock":
        rng = np.random.default_rng(0)
        circuit = random_real_circuit(rng, system_cfg.get("qubits", 2),
                                      system_cfg.get("gates", 3))
        return clock_system(circuit, system_cfg.get("qubits", 2),
                            system_cfg.get("lam", 0.1), system_cfg.get("q", 0.1))
    raise ConfigError(f"unknown system kind {kind!r}")


def _default_observable(spec) -> MonomialObservable:
    return MonomialObservable((1,) + (0,) * (spec.n_vars - 1), spec.context)


# ---------------------------------------------------------------- audit bundle


def run_audits(spec, basis_order: int, seed: int = 0,
               smoothing_times=(0.1, 0.5, 1.0, 5.0),
               regularization_cfg: dict | None = None,
               trotter_cfg: dict | None = None) -> dict:
    """Every report-producing check that applies to the system, as JSON."""
    basis = enumerate_basis(spec.n_vars,
                            RegularizationScheme.by_max_order(basis_order, spec.rates),
                            spec.rates)
    ops = assemble_all(basis, spec)
    gamma = spec.gamma()
    finite_j = math.isfinite(gamma)
    report: dict = {"system": spec.name, "basis_order": basis_order,
                    "basis_size": len(basis)}

    div = verify_divergence_free(spec, seed=seed)
    report["divergence_free"] = {
        "divergence_residual": div.divergence_residual,
        "radial_residual": div.radial_residual,
        "linear_residual": div.linear_residual,
        "passed": div.passed,
    }

    operators = {}
    for op in (ops.dissipation, ops.linear, ops.nonlinear):
        audit = sparsity_audit(op, basis, spec)
        operators[op.role] = {
            "max_col_nonzeros": audit.max_col_nonzeros,
            "nonzero_bound": audit.nonzero_bound,
            "norm_estimate": audit.norm_estimate,
            "norm_bound": audit.norm_bound if math.isfinite(audit.norm_bound)
            else "not applicable (J = inf)",
            "passed": audit.passed,
        }
    report["operators"] = operators

    smoothing = smoothing_bound_audit(ops, smoothing_times, gamma=gamma)
    report["smoothing"] = {
        "times": list(map(float, smoothing.times)),
        "dissipation_ratio": list(map(float, smoothing.dissipation_norms
                                      / smoothing.dissipation_bounds)),
        "drift_ratio": (list(map(float, smoothing.drift_norms / smoothing.drift_bounds))
                        if smoothing.drift_norms is not None
                        else "not applicable (J = inf or C = 0)"),
        "passed": smoothing.passed,
    }

    has_linear = spec.linear is not None and sp.csr_matrix(spec.linear).nnz > 0
    if finite_j and not has_linear:
        reg_cfg = regularization_cfg or {}
        r_values = reg_cfg.get("r_values", [2 * spec.rates[0], 4 * spec.rates[0],
                                            8 * spec.rates[0]])
        r_ref = reg_cfg.get("r_reference", 2 * max(r_values))
        t_reg = reg_cfg.get("t", 5.0)
        u0 = _default_observable(spec)
        rows = []
        for r in r_values:
            rep = regularization_gap(spec, u0, t_reg, float(r), float(r_ref))
            rows.append({"r": float(r), "measured_sup_sq": rep.measured_sup_sq,
                         "bound": rep.bound, "passed": rep.passed})
        report["regularization"] = {"r_reference": float(r_ref), "t": t_reg,
                                    "rows": rows,
                                    "passed": all(r["passed"] for r in rows)}
    else:
        reason = "J = inf" if not finite_j else "b != 0 (weight cutoff invalid)"
        report["regularization"] = f"not applicable ({reason})"

    if finite_j:
        tro_cfg = trotter_cfg or {}
        t_tro = tro_cfg.get("t", 1.0)
        steps = tro_cfg.get("steps", 32)
        u0 = _default_observable(spec)
        psi0 = initial_state(u0, basis)
        exact = evolve_expm(psi0, ops, t_tro)
        split = evolve_trotter(psi0, ops, t_tro, steps)
        measured = float(np.linalg.norm(split.coefficients - exact.coefficients))
        bound = trotter_error_bound(basis.scheme.R, basis.max_degree, gamma,
                                    spec.linear_strength, spec.sparsity(),
                                    float(spec.rates[-1] / spec.rates[0]),
                                    t_tro, steps, psi0.norm())
        report["trotter"] = {"t": t_tro, "steps": steps, "measured": measured,
                             "bound_without_constant": bound,
                             "ratio": measured / bound if bound > 0 else 0.0}
    else:
        report["trotter"] = "not applicable (J = inf)"

    rng = np.random.default_rng(seed)
    readout_rows = []
    for _ in range(3):
        x = np.zeros(spec.n_vars)
        i = int(rng.integers(spec.n_vars))
        x[i] = math.sqrt(rng.uniform(0.5, 6.0) * spec.noise / spec.rates[i])
        ctx = spec.context
        k = truncation_order_for(x, ctx, 1e-6 * math.sqrt(readout_norm_sq(x, ctx)))
        ratio = readout_norm_sq(x, ctx, truncation=k) / readout_norm_sq(x, ctx)
        readout_rows.append({"exponent": float(spec.rates[i] * x[i] ** 2 / spec.noise),
                             "truncation": k, "ratio": ratio,
                             "passed": 1 - 1e-10 <= ratio <= 1 + 1e-12})
    report["readout_norm_identity"] = {
        "rows": readout_rows, "passed": all(r["passed"] for r in readout_rows)}

    u0 = _default_observable(spec)
    psi0 = initial_state(u0, basis)
    closed = u0.centered_norm_sq()
    norm_ok = abs(psi0.norm_sq() - closed) <= 1e-12 * max(closed, 1e-300)
    report["initial_state_norm"] = {"measured": psi0.norm_sq(), "closed_form": closed,
                                    "passed": bool(norm_ok)}

    horizon = min(5.0, 50.0 / float(spec.rates[-1]))
    trajectory = evolve_reference(psi0, ops, horizon,
                                  t_eval=np.linspace(0, horizon, 32))
    report["norm_monotonicity"] = {"t_max": horizon,
                                   "passed": check_norm_monotone(trajectory)}

    applicable = [report["divergence_free"]["passed"],
                  *(o["passed"] for o in operators.values()),
                  report["smoothing"]["passed"],
                  report["readout_norm_identity"]["passed"],
                  report["initial_state_norm"]["passed"],
                  report["norm_monotonicity"]["passed"]]
    if isinstance(report["regularization"], dict):
        applicable.append(report["regularization"]["passed"])
    report["passed"] = all(applicable)
    return report


# ---------------------------------------------------------------- experiments


def _evolve_curve(cfg_evolution: dict, psi0, ops, times):
    try:
        plan = EvolutionConfig(method=cfg_evolution.get("method", "reference"),
                               steps=int(cfg_evolution.get("steps", 64)))
    except KolmsimError as exc:
        raise ConfigError(str(exc)) from exc
    if plan.method == "reference":
        return evolve_reference(psi0, ops, float(times[-1]), t_eval=times,
                                rtol=plan.rtol)
    if plan.method == "expm":
        return [psi0] + evolve_expm(psi0, ops, float(times[-1]), t_eval=times[1:])
    states = [psi0]
    for k in range(1, len(times)):
        states.append(evolve_trotter(states[-1], ops,
                                     float(times[k] - times[k - 1]), plan.steps))
    return states


def run_oscillator(cfg: dict, out_dir: str, seed: int, threads: int) -> dict:
    system_cfg = cfg["system"]
    lam = _number(system_cfg, "lam", 0.1, "system")
    q = _number(system_cfg, "q", 0.02, "system")
    spec = oscillator_system(lam, q, profile=system_cfg.get("profile", "cubic"))
    ctx = spec.context
    x0 = _initial_point(cfg, 2, [1.0, 0.0])
    u0 = MonomialObservable(tuple(cfg.get("observable", [1, 0])), ctx)
    times_cfg = cfg["times"]
    times = np.linspace(0.0, float(times_cfg["t_max"]), int(times_cfg["n_points"]))
    orders = [int(k) for k in cfg["basis"]["orders"]]

    mc_cfg = cfg["mc"]
    run = simulate(spec, x0, u0, times, int(mc_cfg["samples"]),
                   float(mc_cfg["dt"]), seed=seed, n_threads=threads)
    write_csv(os.path.join(out_dir, "mc_curve.csv"),
              ["t", "mean", "se", "n_blowups"],
              [(t, m, s, run.n_blowups) for t, m, s in run.as_rows()])

    curve_rows, comparison_rows = [], []
    summary = []
    for order in orders:
        basis = enumerate_basis(2, RegularizationScheme.by_max_order(order, spec.rates),
                                spec.rates)
        ops = assemble_all(basis, spec)
        psi0 = initial_state(u0, basis)
        states = _evolve_curve(cfg.get("evolution", {}), psi0, ops, times)
        values = np.array([expectation(s, x0, order, ctx,
                                       include_mean=True, mean=u0.mean())
                           for s in states])
        report = compare(run, values)
        curve_rows.extend((t, order, v) for t, v in zip(times, values))
        comparison_rows.extend(
            (t, order, v, m, s, g, r) for t, v, m, s, g, r in zip(
                times, values, run.mean, run.se, report.gap, report.gap_over_se))
        summary.append({"order": order, "max_gap": report.max_gap,
                        "noise_floor": report.noise_floor})

    write_csv(os.path.join(out_dir, "galerkin_curve.csv"),
              ["t", "order", "value"], curve_rows)
    write_csv(os.path.join(out_dir, "comparison.csv"),
              ["t", "order", "galerkin", "mc_mean", "mc_se", "abs_gap",
               "gap_over_se"], comparison_rows)
    audit = run_audits(spec, max(orders), seed=seed)
    audit["comparison_summary"] = summary
    write_json(os.path.join(out_dir, "audit.json"), audit)
    return audit


def run_nse_taylor_green(cfg: dict, out_dir: str, seed: int, threads: int) -> dict:
    system_cfg = cfg["system"]
    n_modes = int(system_cfg.get("modes", 40))
    nu = _number(system_cfg, "nu", 0.1, "system")
    q = _number(system_cfg, "q", 1e-5, "system")
    spec = nse_system(n_modes, nu, q)
    ctx = spec.context
    table = spec.nonlinear.table
    order = int(cfg["basis"]["order"])
    t_final = _number(cfg, "time", 0.25, "config")
    probe_cfg = cfg.get("probe", {})
    count = int(probe_cfg.get("count", 10))
    xi2 = float(probe_cfg.get("xi2", 0.25))
    lo, hi = probe_cfg.get("xi1_range", [0.05, 0.95])
    xi1s = np.linspace(float(lo), float(hi), count)

    basis = enumerate_basis(n_modes,
                            RegularizationScheme.by_max_order(order, spec.rates),
                            spec.rates)
    ops = assemble_all(basis, spec)
    x0 = taylor_green_mode_coefficients(table, 0.0, nu)

    curve_rows, comparison_rows = [], []
    max_err = 0.0
    for xi1 in xi1s:
        coefs = probe_functional_coefficients(table, (xi1, xi2))
        terms = [(float(c),
                  MonomialObservable(tuple(1 if j == k else 0
                                           for j in range(n_modes)), ctx))
                 for k, c in enumerate(coefs) if abs(c) > 1e-14]
        psi0 = combination_state(terms, basis)
        psi = evolve_reference(psi0, ops, t_final)
        value = expectation(psi, x0, order, ctx)
        truth = float(taylor_green(t_final, xi1, xi2, nu)[0])
        err = abs(value - truth)
        max_err = max(max_err, err)
        curve_rows.append((t_final, f"u1@({xi1:.4f},{xi2:.4f})", value))
        comparison_rows.append((xi1, xi2, t_final, value, truth, err))

    write_csv(os.path.join(out_dir, "galerkin_curve.csv"),
              ["t", "observable", "value"], curve_rows)
    write_csv(os.path.join(out_dir, "mc_curve.csv"),
              ["t", "mean", "se", "n_blowups"], [])  # no Monte Carlo leg here
    write_csv(os.path.join(out_dir, "comparison.csv"),
              ["xi1", "xi2", "t", "galerkin", "taylor_green", "abs_error"],
              comparison_rows)
    audit = run_audits(spec, min(order, 2), seed=seed,
                       smoothing_times=(0.01, 0.05, 0.1))
    audit["taylor_green_max_error"] = max_err
    write_json(os.path.join(out_dir, "audit.json"), audit)
    return audit


def run_bqp_circuit(cfg: dict, out_dir: str, seed: int, threads: int) -> dict:
    circuits_cfg = cfg["circuits"]
    system_cfg = cfg.get("system", {})
    lam = _number(system_cfg, "lam", 0.1, "system")
    q = _number(system_cfg, "q", 0.1, "system")
    t = _number(cfg, "time", 1.0, "config")
    rng = np.random.default_rng(seed)

    jobs = []
    if "file" in circuits_cfg:
        path = circuits_cfg["file"]
        n_qubits = int(_require(circuits_cfg, "qubits", "circuits"))
        try:
            with open(path) as fh:
                circuit = parse_circuit(fh)
        except OSError as exc:
            raise ConfigError(f"circuits.file: cannot read {path!r}: {exc}") from exc
        jobs.append((circuit, n_qubits))
    else:
        for _ in range(int(circuits_cfg.get("count", 20))):
            n = int(rng.integers(1, int(circuits_cfg.get("qubits", 2)) + 1))
            m = int(rng.integers(1, int(circuits_cfg.get("gates", 4)) + 1))
            jobs.append((random_real_circuit(
                rng, n, m, int(circuits_cfg.get("max_arity", 2))), n))

    rows = []
    worst_identity = 0.0
    for idx, (circuit, n) in enumerate(jobs):
        spec = clock_system(circuit, n, lam=lam, q=q)
        ctx = spec.context
        basis = enumerate_basis(spec.n_vars,
                                RegularizationScheme.by_max_order(1, spec.rates),
                                spec.rates)
        ops = assemble_all(basis, spec)
        u0 = _default_observable(spec)
        psi = evolve_expm(initial_state(u0, basis), ops, t)
        m_gates = len(circuit)
        x = np.zeros(spec.n_vars)
        x[m_gates * 2 ** n] = 1.0
        value = expectation(psi, x, 1, ctx)
        amplitude = circuit_amplitude(circuit, n)
        identity_gap = abs(amplitude - math.exp(lam * t) * value)
        worst_identity = max(worst_identity, identity_gap)
        rows.append((idx, n, m_gates, amplitude, value, identity_gap,
                     abs(amplitude - value)))

    write_csv(os.path.join(out_dir, "comparison.csv"),
              ["circuit", "qubits", "gates", "amplitude", "readout",
               "identity_gap", "bound_gap"], rows)
    write_csv(os.path.join(out_dir, "galerkin_curve.csv"),
              ["t", "observable", "value"],
              [(t, f"circuit{r[0]}", r[4]) for r in rows])
    write_csv(os.path.join(out_dir, "mc_curve.csv"),
              ["t", "mean", "se", "n_blowups"], [])
    spec = clock_system(jobs[0][0], jobs[0][1], lam=lam, q=q)
    audit = run_audits(spec, 1, seed=seed)
    audit["bqp"] = {
        "worst_identity_gap": worst_identity,
        "bound_satisfied": all(r[6] <= 0.1 + 1e-12 for r in rows),
        "circuits": len(rows),
    }
    audit["passed"] = audit["passed"] and audit["bqp"]["bound_satisfied"]
    write_json(os.path.join(out_dir, "audit.json"), audit)
    return audit


def run_ou_sanity(cfg: dict, out_dir: str, seed: int, threads: int) -> dict:
    system_cfg = cfg["system"]
    lam = _number(system_cfg, "lam", 0.5, "system")
    q = _number(system_cfg, "q", 0.2, "system")
    n_vars = int(system_cfg.get("n_vars", 1))
    spec = SystemSpec(name="ou", rates=np.full(n_vars, lam), noise=q)
    ctx = spec.context
    x0 = _initial_point(cfg, n_vars, [1.0] + [0.0] * (n_vars - 1))
    times_cfg = cfg["times"]
    times = np.linspace(0.0, float(times_cfg["t_max"]), int(times_cfg["n_points"]))
    mc_cfg = cfg["mc"]

    u_mean = _default_observable(spec)
    run_mean = simulate(spec, x0, u_mean, times, int(mc_cfg["samples"]),
                        float(mc_cfg["dt"]), seed=seed, n_threads=threads)
    exact_mean = x0[0] * np.exp(-lam * times)
    rep_mean = compare(run_mean, exact_mean)

    u_sq = MonomialObservable((2,) + (0,) * (n_vars - 1), ctx)
    run_sq = simulate(spec, x0, u_sq, times, int(mc_cfg["samples"]),
                      float(mc_cfg["dt"]), seed=seed + 1, n_threads=threads)
    exact_sq = q / (2 * lam) + x0[0] ** 2 * np.exp(-2 * lam * times)
    rep_sq = compare(run_sq, exact_sq)

    write_csv(os.path.join(out_dir, "mc_curve.csv"),
              ["t", "mean", "se", "n_blowups"],
              [(t, m, s, run_mean.n_blowups) for t, m, s in run_mean.as_rows()])
    write_csv(os.path.join(out_dir, "galerkin_curve.csv"),
              ["t", "observable", "value"],
              [(t, "exact_mean", v) for t, v in zip(times, exact_mean)])
    write_csv(os.path.join(out_dir, "comparison.csv"),
              ["t", "observable", "mc_mean", "mc_se", "exact", "abs_gap",
               "gap_over_se"],
              [(t, "x1", m, s, e, g, r) for t, m, s, e, g, r in zip(
                  times, run_mean.mean, run_mean.se, exact_mean,
                  rep_mean.gap, rep_mean.gap_over_se)]
              + [(t, "x1^2", m, s, e, g, r) for t, m, s, e, g, r in zip(
                  times, run_sq.mean, run_sq.se, exact_sq,
                  rep_sq.gap, rep_sq.gap_over_se)])

    audit = run_audits(spec, 4, seed=seed)
    audit["ou_sanity"] = {
        "mean_within_3se": bool(np.all(rep_mean.gap <= 3 * np.maximum(
            rep_mean.times * 0 + run_mean.se, 1e-12))),
        "second_moment_within_3se": bool(np.all(rep_sq.gap <= 3 * run_sq.se)),
    }
    audit["passed"] = (audit["passed"] and audit["ou_sanity"]["mean_within_3se"]
                       and audit["ou_sanity"]["second_moment_within_3se"])
    write_json(os.path.join(out_dir, "audit.json"), audit)
    return audit


def run_audits_experiment(cfg: dict, out_dir: str, seed: int, threads: int) -> dict:
    spec = build_system(cfg["system"])
    audit = run_audits(spec, int(cfg["basis"]["order"]), seed=seed,
                       smoothing_times=tuple(cfg.get("smoothing_times",
                                                     (0.1, 0.5, 1.0, 5.0))),
                       regularization_cfg=cfg.get("regularization"),
                       trotter_cfg=cfg.get("trotter"))
    write_json(os.path.join(out_dir, "audit.json"), audit)
    return audit


RUNNERS = {
    "oscillator": run_oscillator,
    "nse_taylor_green": run_nse_taylor_green,
    "bqp_circuit": run_bqp_circuit,
    "ou_sanity": run_ou_sanity,
    "audits": run_audits_experiment,
}


def run_experiment(cfg: dict, out_dir: str, seed: int | None = None,
                   threads: int = 1) -> dict:
    """Execute one experiment; returns its audit payload."""
    effective_seed = _checked_seed(cfg.get("seed", 0) if seed is None else seed)
    os.makedirs(out_dir, exist_ok=True)
    audit = RUNNERS[cfg["experiment"]](cfg, out_dir, effective_seed, threads)
    write_manifest(out_dir, cfg, effective_seed, threads)
    return audit
