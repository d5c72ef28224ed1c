"""Config-driven experiments: system building, runs, and the audit bundle.

Each runner consumes the config `validate_config` normalised and only
computes: it returns its audit payload and its CSV tables.
`run_experiment` refuses a NaN or infinite float anywhere in the audit or
the tables (`check_finite`), then writes the tables (galerkin_curve.csv,
mc_curve.csv and comparison.csv for every experiment but `audits`; column
meanings are documented in the README), then audit.json and manifest.json.
Every boolean in the audit payload is a verdict, and `run_experiment` sets
the root `passed` flag true iff `failed_checks` finds none false.  The
`oscillator` runner compares the Galerkin curves of its orders, all from one
exponential action, with one Monte Carlo run, for any system kind;
`mc.max_gap_over_se` adds a verdict on the highest order's gap.  Audits
aggregate every bound check that applies to the configured system; checks
that need a finite drift strength J are reported as not applicable when J
is infinite.  `bqp_circuit` gives the circuits of each register size one
direct-sum clock drift and one linear assembly, and all of them one exponential action.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import __version__
from .errors import ConfigError, DriftError, NumericalError, ResourceLimitError
from .evolution import (
    KEOperators,
    assemble_all,
    evolve_direct_sum,
    evolve_expm,
    evolve_reference,
    evolve_trotter,
    norm_monotonicity,
    regularization_gap,
    smoothing_bound_audit,
    trotter_error_bound,
)
from .montecarlo import MIN_SAMPLES, compare, simulate
from .multiindex import DEFAULT_BASIS_CAP, RegularizationScheme, enumerate_basis
from .operators import (
    SystemSpec,
    assemble_linear_blocks,
    sparsity_audit,
    verify_divergence_free,
)
from .states import (
    DEFAULT_DEGREE_CAP,
    MonomialObservable,
    expectation,
    initial_state,
    readout_norm_sq,
    readout_state,
    truncation_order_for,
)
from .systems import (
    circuit_amplitude,
    clock_drift,
    clock_system,
    nse_system,
    oscillator_system,
    parse_circuit,
    probe_functional_coefficients,
    random_real_circuit,
    taylor_green,
    taylor_green_mode_coefficients,
)


# ---------------------------------------------------------------- config schema

REQUIRED = object()  # default of a key that must be given
OPTIONAL = object()  # default of a key that is left out when not given


class Key(NamedTuple):
    """One config entry: its type, its range and its default.

    `kind` is int, float, str, a tuple of allowed strings, `[item]` (a list
    of `item` entries, at least one or exactly `length`), or a table: a dict
    from each key of a JSON object to its Key. With `pick`, `kind` maps
    names to tables and `pick(block)` names the one that applies. A default
    of None stands for a value derived at run time, so it also admits null.
    """

    kind: object
    default: object = REQUIRED
    low: float = -math.inf  # numbers lie in [low, high), or in (low, high) if open_low
    open_low: bool = False
    high: float = math.inf
    length: int = 0
    pick: object = None


def _normalise(key: Key, value, where: str):
    """`value` checked against `key` and coerced, with every default filled in."""
    kind = key.kind
    if value is None and key.default is None:
        return None  # derived at run time
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object, got {value!r}")
        if key.pick:
            name = key.pick(value)
            if not isinstance(name, str) or name not in kind:
                raise ConfigError(f"{where}: {name!r} is not one of {sorted(kind)}")
            kind = kind[name]
        if unknown := set(value) - set(kind):
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        out = {}
        for name, sub in kind.items():
            given = value.get(name, sub.default)
            if given is REQUIRED:
                raise ConfigError(f"{where}: missing required key {name!r}")
            if given is not OPTIONAL:
                out[name] = _normalise(sub, given, f"{where}.{name}")
        return out
    if isinstance(kind, list):
        if not isinstance(value, list) or not value or len(value) != (key.length or len(value)):
            raise ConfigError(f"{where} must be a list of {key.length or 'one or more'} entries, "
                              f"got {value!r}")
        return [_normalise(kind[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if kind is str or isinstance(kind, tuple):
        if not isinstance(value, str) or (kind is not str and value not in kind):
            raise ConfigError(f"{where} must be {list(kind) if kind is not str else 'a string'}"
                              f", got {value!r}")
        return value
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if not isinstance(value, types) or isinstance(value, bool) \
            or not (kind is int or math.isfinite(value)) \
            or not key.low <= value < key.high or (key.open_low and value == key.low):
        raise ConfigError(f"{where} must be {'an integer' if kind is int else 'a number'} in "
                          f"{'(' if key.open_low else '['}{key.low}, {key.high}), "
                          f"got {value!r}")
    return kind(value)


_positive = partial(Key, float, low=0.0, open_low=True)
_nonnegative = partial(Key, float, low=0.0)
_count = partial(Key, int, low=1)

_SEED = Key(int, 0, low=0, high=2 ** 64)  # Philox keys are 128 bits, (seed << 64) + chunk
_OSCILLATOR = {"lam": _positive(0.1), "q": _positive(0.02)}
_NSE = {"modes": _count(40), "nu": _positive(0.1), "q": _positive(1e-5)}
_CLOCK_RATES = {"lam": _positive(0.1), "q": _positive(0.1)}
_AUDIT_OPTIONS = {
    # null r_values: 2, 4 and 8 times the first rate; null r_reference: 2 max(r_values)
    "regularization": Key({"r_values": Key([_positive()], None),
                           "r_reference": _positive(None), "t": _nonnegative(5.0)}, {}),
    "smoothing_times": Key([_positive()], [0.1, 0.5, 1.0, 5.0]),
    "trotter": Key({"t": _nonnegative(1.0), "steps": _count(32)}, {}),
}
AUDIT_DEFAULTS = _normalise(Key(_AUDIT_OPTIONS), {}, "config")
# the system kinds that `build_system` makes; each block accepts only its own keys
SYSTEM_KINDS = {"oscillator": _OSCILLATOR, "nse": _NSE,
                "ou": {"lam": _positive(0.5), "q": _positive(0.2), "n_vars": _count(1)},
                "bounded_oscillator": {**_OSCILLATOR, "q": _positive(0.1)},
                "clock": {"qubits": _count(2), "gates": _count(3), **_CLOCK_RATES}}
_SYSTEM = Key({kind: {"kind": Key(str), **keys} for kind, keys in SYSTEM_KINDS.items()},
              pick=lambda block: block.get("kind"))
EXPERIMENTS = {
    "oscillator": {
        "system": _SYSTEM,
        # n_vars entries each; null: x1 = 1 and the others 0, and u0 = x1
        "initial_point": Key([Key(float)], None),
        "observable": Key([_count(low=0)], None),
        "basis": Key({"orders": Key([_count(high=171)])}),  # p! overflows a float from 171
        "times": Key({"t_max": _positive(), "n_points": _count(low=2)}),
        # max_gap_over_se: the verdict that the highest order's curve lies within
        # that many standard errors of the Monte Carlo mean at every time
        "mc": Key({"samples": _count(low=MIN_SAMPLES), "dt": _positive(),
                   "max_gap_over_se": _positive(OPTIONAL)}),
    },
    "nse_taylor_green": {
        # the Taylor-Green modes (1, 1) and (1, -1) are the 3rd and 4th
        "system": Key({**_NSE, "modes": _count(40, low=4)}),
        "basis": Key({"order": _count()}),
        "probe": Key({"count": _count(10), "xi2": Key(float, 0.25),
                      "xi1_range": Key([Key(float)], [0.05, 0.95], length=2)}, {}),
        "time": _nonnegative(0.25),
    },
    "bqp_circuit": {
        "circuits": Key({"file": {"file": Key(str), "qubits": _count()},
                         "random": {"count": _count(20), "qubits": _count(2),
                                    "gates": _count(4), "max_arity": _count(2)}},
                        pick=lambda block: "file" if "file" in block else "random"),
        "system": Key(_CLOCK_RATES, {}),
        "time": _nonnegative(1.0),
    },
    "audits": {
        "system": _SYSTEM,
        "basis": Key({"order": _count()}),
        **_AUDIT_OPTIONS,
    },
}
_CONFIG = Key({name: {"experiment": Key(str), "seed": _SEED, "comment": Key(str, OPTIONAL),
                      **keys} for name, keys in EXPERIMENTS.items()},
              pick=lambda cfg: cfg.get("experiment"))


def validate_config(cfg: dict) -> dict:
    """The config with every default filled in; ConfigError on a missing,
    mistyped, out-of-range or unknown key at any level."""
    cfg = _normalise(_CONFIG, cfg, "config")
    if cfg["experiment"] == "oscillator":
        orders = cfg["basis"]["orders"]
        if len(set(orders)) < len(orders):  # each order is one block of the direct sum
            raise ConfigError(f"config.basis.orders {orders!r} repeats an order")
        cap = min(DEFAULT_DEGREE_CAP, *orders)  # u0 evolves on every basis: fit the smallest
        if cfg["observable"] and not 1 <= sum(cfg["observable"]) <= cap:
            raise ConfigError(f"config.observable {cfg['observable']!r}: the total degree "
                              f"must lie in [1, {cap}], at most {DEFAULT_DEGREE_CAP} and at "
                              "most min(basis.orders)")
    return cfg


def _per_variable(cfg: dict, key: str, n_vars: int, one) -> list:
    """cfg[key], or (one, 0, ..., 0) if it is null; ConfigError unless n_vars long."""
    value = cfg[key] or [one] + [0 * one] * (n_vars - 1)
    if len(value) != n_vars:
        raise ConfigError(f"config.{key} needs n_vars = {n_vars} entries, got {len(value)}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
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
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                                   default=_jsonable) + "\n")


def check_finite(payload, path: str = ""):
    """NumericalError naming the path of the first NaN or infinite float in `payload`,
    e.g. `divergence_free/radial_residual is nan`; no artifact may hold one."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            check_finite(value, f"{path}/{key}" if path else key)
    elif isinstance(payload, (list, tuple, np.ndarray)):
        for i, value in enumerate(payload):
            check_finite(value, f"{path}[{i}]")
    elif isinstance(payload, (float, np.floating)) and not math.isfinite(payload):
        raise NumericalError(f"{path} is {float(payload)}")


def write_manifest(out_dir: str, cfg: dict, seed: int):
    write_json(os.path.join(out_dir, "manifest.json"), {
        "config": cfg,
        "seed": seed,
        "blas_env": {name: os.environ.get(name) for name in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "versions": {
            "kolmsim": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": sys.version.split()[0],
        },
    })


# ---------------------------------------------------------------- system building


def build_system(kind: str, system: dict) -> SystemSpec:
    """The SystemSpec of a normalised system block of the given kind."""
    if kind in ("oscillator", "bounded_oscillator"):
        return oscillator_system(system["lam"], system["q"],
                                 "cubic" if kind == "oscillator" else "bounded")
    if kind == "nse":
        return nse_system(system["modes"], system["nu"], system["q"])
    if kind == "ou":
        return SystemSpec(name="ou", rates=np.full(system["n_vars"], system["lam"]),
                          noise=system["q"])
    if kind == "clock":
        rng = np.random.default_rng(0)
        circuit = random_real_circuit(rng, system["qubits"], system["gates"])
        return clock_system(circuit, system["qubits"], system["lam"], system["q"])
    raise ConfigError(f"unknown system kind {kind!r}")


def _default_observable(spec) -> MonomialObservable:
    return MonomialObservable((1,) + (0,) * (spec.n_vars - 1), spec)


# ---------------------------------------------------------------- audit bundle


def failed_checks(audit, prefix: str = "") -> list:
    """Paths of every false verdict below the root of an audit payload.

    Every boolean is a verdict. A false `passed` flag names the check that
    holds it; any other false boolean names itself, e.g. `bqp/bound_satisfied`.
    """
    bad = []
    if isinstance(audit, dict):
        for key, value in audit.items():
            path = f"{prefix}/{key}" if prefix else key
            if isinstance(value, (bool, np.bool_)):
                if not value and key != "passed":
                    bad.append(path)
                elif not value and prefix:
                    bad.append(prefix)
            else:
                bad.extend(failed_checks(value, path))
    elif isinstance(audit, list):
        for i, value in enumerate(audit):
            bad.extend(failed_checks(value, f"{prefix}[{i}]"))
    return bad


def _order_operators(spec, order: int) -> KEOperators:
    """The operators of `spec` on its basis of every multi-index of degree 1..order."""
    basis = enumerate_basis(spec.n_vars, RegularizationScheme.by_max_order(order, spec.rates),
                            spec.rates)
    return assemble_all(basis, spec)


def run_audits(spec, ops: KEOperators, seed: int = 0,
               options: dict = AUDIT_DEFAULTS) -> dict:
    """Every report-producing check that applies to the system, as JSON.

    Each lemma check (`verify_divergence_free`, `sparsity_audit`, `smoothing_bound_audit`,
    `regularization_gap`, `norm_monotonicity`) returns its own block.
    `ops` are the operators the run used, on an `_order_operators` basis.
    `options` holds the normalised `smoothing_times`, `regularization` and
    `trotter` entries of an `audits` config.
    """
    basis = ops.basis
    u0 = _default_observable(spec)
    psi0 = initial_state(u0, basis)
    gamma = spec.gamma()
    finite_j = math.isfinite(gamma)
    report: dict = {
        "system": spec.name, "basis_order": basis.max_degree, "basis_size": len(basis),
        "divergence_free": verify_divergence_free(spec, seed=seed),
        "operators": {op.role: sparsity_audit(op, spec)
                      for op in (ops.dissipation, ops.linear, ops.nonlinear)},
        "smoothing": smoothing_bound_audit(ops, options["smoothing_times"], gamma=gamma),
    }

    has_linear = spec.linear is not None and spec.linear.nnz > 0
    if finite_j and not has_linear:
        reg = options["regularization"]
        r_values = reg["r_values"] or [k * spec.rates[0] for k in (2, 4, 8)]
        r_ref = reg["r_reference"] or 2 * max(r_values)
        # a weight cutoff below the first rate keeps no basis function
        if min(r_values) < spec.rates[0]:
            raise ConfigError(f"config.regularization.r_values: {float(min(r_values))!r} is "
                              f"below the system's first rate {float(spec.rates[0])!r}")
        if r_ref < max(r_values):
            raise ConfigError(f"config.regularization.r_reference: {float(r_ref)!r} is below "
                              f"max(r_values) = {float(max(r_values))!r}")
        report["regularization"] = regularization_gap(spec, u0, reg["t"],
                                                      list(map(float, r_values)), float(r_ref))
    else:
        reason = "J = inf" if not finite_j else "b != 0 (weight cutoff invalid)"
        report["regularization"] = f"not applicable ({reason})"

    if finite_j:
        t_tro, steps = options["trotter"]["t"], options["trotter"]["steps"]
        exact = evolve_expm(psi0, ops, t_tro)
        split = evolve_trotter(psi0, ops, t_tro, steps)
        measured = float(np.linalg.norm(split - exact))
        bound = trotter_error_bound(basis.scheme.R, basis.max_degree, gamma,
                                    spec.linear_strength, spec.sparsity(),
                                    float(spec.rates[-1] / spec.rates[0]),
                                    t_tro, steps, float(np.linalg.norm(psi0)))
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
        k = truncation_order_for(x, spec, 1e-6 * math.sqrt(readout_norm_sq(x, spec)))
        ratio = readout_norm_sq(x, spec, truncation=k) / readout_norm_sq(x, spec)
        readout_rows.append({"exponent": float(spec.rates[i] * x[i] ** 2 / spec.noise),
                             "truncation": k, "ratio": ratio,
                             "passed": 1 - 1e-10 <= ratio <= 1 + 1e-12})
    report["readout_norm_identity"] = {
        "rows": readout_rows, "passed": all(r["passed"] for r in readout_rows)}

    closed = u0.centered_norm_sq()
    norm_sq = float(psi0 @ psi0)
    norm_ok = abs(norm_sq - closed) <= 1e-12 * max(closed, 1e-300)
    report["initial_state_norm"] = {"measured": norm_sq, "closed_form": closed,
                                    "passed": bool(norm_ok)}

    report["norm_monotonicity"] = norm_monotonicity(ops)

    report["passed"] = not failed_checks(report)
    return report


# ---------------------------------------------------------------- experiments


MC_HEADER = ["t", "mean", "se", "n_blowups"]  # mc_curve.csv; header-only without a Monte Carlo leg


MAX_GRID_POINTS = 100_000  # time grid points or probes; the shipped configs use at most 101


def _check_grid(count: int, key: str):
    """ResourceLimitError if a grid of `count` points is past MAX_GRID_POINTS."""
    if count > MAX_GRID_POINTS:
        raise ResourceLimitError(f"{key} = {count} exceeds the cap of {MAX_GRID_POINTS} points")


def run_oscillator(cfg: dict, seed: int) -> tuple:
    """Each order's Galerkin curve against the Monte Carlo oracle, for any system kind."""
    _check_grid(cfg["times"]["n_points"], "times.n_points")
    spec = build_system(cfg["system"]["kind"], cfg["system"])
    x0 = np.array(_per_variable(cfg, "initial_point", spec.n_vars, 1.0))
    u0 = MonomialObservable(tuple(_per_variable(cfg, "observable", spec.n_vars, 1)), spec)
    times = np.linspace(0.0, cfg["times"]["t_max"], cfg["times"]["n_points"])
    orders = cfg["basis"]["orders"]

    run = simulate(spec, x0, u0, times, cfg["mc"]["samples"], cfg["mc"]["dt"], seed=seed)

    curve_rows, comparison_rows = [], []
    summary = []
    all_ops = [_order_operators(spec, order) for order in orders]
    trajectories = evolve_direct_sum([ops.generator() for ops in all_ops],
                                     [initial_state(u0, ops.basis) for ops in all_ops],
                                     float(times[-1]), times.size)
    for order, ops, rows in zip(orders, all_ops, trajectories):
        values = expectation(rows, ops.basis, x0, order, spec) + u0.mean()
        report = compare(run, values)
        if order == max(orders):
            audited, top = ops, report
        curve_rows.extend((t, order, v) for t, v in zip(times, values))
        comparison_rows.extend(
            (t, order, v, m, s, g, r) for t, v, m, s, g, r in zip(
                times, values, run.mean, run.se, report.gap, report.gap_over_se))
        summary.append({"order": order, "max_gap": report.max_gap,
                        "noise_floor": report.noise_floor})

    audit = run_audits(spec, audited, seed=seed)
    audit["comparison_summary"] = summary
    if (bound := cfg["mc"].get("max_gap_over_se")) is not None:
        audit["mc_agreement"] = {  # a nan gap fails the verdict
            "order": max(orders), "max_gap_over_se": float(np.max(top.gap_over_se)),
            "bound": bound, "passed": bool(np.all(top.gap <= bound * run.se))}
    return audit, {
        "mc_curve": (MC_HEADER, [(t, m, s, run.n_blowups) for t, m, s in run.as_rows()]),
        "galerkin_curve": (["t", "order", "value"], curve_rows),
        "comparison": (["t", "order", "galerkin", "mc_mean", "mc_se", "abs_gap",
                        "gap_over_se"], comparison_rows),
    }


TAYLOR_GREEN_TOLERANCE = 0.05  # max |galerkin - taylor_green| over the probes


def run_nse_taylor_green(cfg: dict, seed: int) -> tuple:
    system = cfg["system"]
    n_modes, nu = system["modes"], system["nu"]
    _check_grid(cfg["probe"]["count"], "probe.count")
    spec = build_system("nse", system)
    table = spec.nonlinear.table
    order, t_final, xi2 = cfg["basis"]["order"], cfg["time"], cfg["probe"]["xi2"]
    xi1s = np.linspace(*cfg["probe"]["xi1_range"], cfg["probe"]["count"])

    ops = _order_operators(spec, order)
    x0 = taylor_green_mode_coefficients(table, 0.0, nu)
    # adjoint readout: <r, e^{tG} psi0> = <e^{tG^T} r, psi0>, so one solve
    # from the readout state r serves every probe
    readout = evolve_reference(readout_state(x0, ops.basis, order, spec),
                               ops.transpose(), t_final)

    # probe p reads u1 = sum_k c_pk x_k = sum_k c_pk He_1(s_k x_k) / s_k, so its vector
    # holds c_pk (1/s_k) on mode k's degree-1 row (0 where |c_pk| <= 1e-14)
    c = probe_functional_coefficients(table, np.stack([xi1s, np.full_like(xi1s, xi2)], 1))
    unit, probe = ops.basis.positions(np.eye(n_modes, dtype=int)), np.zeros(len(ops.basis))
    curve_rows, comparison_rows = [], []
    for xi1, c_p in zip(xi1s, np.where(abs(c) > 1e-14, c * (1.0 / spec.scalings), 0.0)):
        probe[unit] = c_p
        value = float(readout @ probe)
        truth = float(taylor_green(t_final, xi1, xi2, nu)[0])
        curve_rows.append((t_final, f"u1@({xi1:.4f};{xi2:.4f})", value))
        comparison_rows.append((xi1, xi2, t_final, value, truth, abs(value - truth)))

    audit = run_audits(spec, ops, seed=seed,
                       options={**AUDIT_DEFAULTS, "smoothing_times": [0.01, 0.05, 0.1]})
    max_err = float(np.max([r[5] for r in comparison_rows]))  # nan propagates
    audit["taylor_green_max_error"] = max_err
    audit["taylor_green_within_tolerance"] = bool(max_err <= TAYLOR_GREEN_TOLERANCE)
    return audit, {
        "galerkin_curve": (["t", "observable", "value"], curve_rows),
        "mc_curve": (MC_HEADER, []),
        "comparison": (["xi1", "xi2", "t", "galerkin", "taylor_green", "abs_error"],
                       comparison_rows),
    }


def _clock_readouts(jobs, lam: float, q: float, t: float) -> tuple:
    """Each (circuit, qubits n) job's clock readout at m 2^n at time t, and the first job's
    system and operators, the only ones assembled.  Jobs of one register size share the
    first one's order-1 basis, initial state and readout vectors and one assembly of their
    direct-sum clock drift (`clock_drift`, `assemble_linear_blocks`), whose leading block is
    the first one's drift.  One `evolve_direct_sum` action evolves every size's tiled initial
    state under one generator, the block diagonal of every size's blocks minus the tiled
    dissipation weights, built whole (a subtraction per size pays scipy's call overhead
    once per size, about 3 ms on `bqp_many`)."""
    sizes = [(len(circuit) + 1) * 2 ** n for circuit, n in jobs]
    groups, linears, weights, vectors, values = [], [], [], [], np.empty(len(jobs))
    for size in dict.fromkeys(sizes):
        members = [idx for idx, s in enumerate(sizes) if s == size]
        drift = clock_drift([jobs[idx] for idx in members])
        spec = clock_system(*jobs[members[0]], lam=lam, q=q, drift=drift[:size, :size])
        basis = enumerate_basis(size, RegularizationScheme.by_max_order(1, spec.rates), spec.rates)
        if not groups:  # the first job's, for the audit
            audited = spec, assemble_all(basis, spec)
        groups.append((members, spec, basis))
        linears.append(assemble_linear_blocks(basis, drift))
        weights.append(np.tile(basis.weights, len(members)))
        vectors.append(np.tile(initial_state(_default_observable(spec), basis), len(members)))
    gen = sp.block_diag(linears, format="csr") - sp.diags(np.concatenate(weights))
    rows = evolve_direct_sum([gen], vectors, t)
    for (members, spec, basis), psi in zip(groups, rows):
        var = [len(jobs[idx][0]) * 2 ** jobs[idx][1] for idx in members]
        readouts = {v: readout_state(np.eye(1, len(basis), v)[0], basis, 1, spec)
                    for v in set(var)}
        values[members] = [readouts[v] @ row for v, row in zip(var, psi.reshape(len(var), -1))]
    return values, audited


def run_bqp_circuit(cfg: dict, seed: int) -> tuple:
    """Each circuit's clock readout against its amplitude, evolved per register size
    (`_clock_readouts`); the audit bundle runs on the first circuit's operators."""
    circuits = cfg["circuits"]
    lam, q, t = cfg["system"]["lam"], cfg["system"]["q"], cfg["time"]
    rng = np.random.default_rng(seed)

    jobs = []
    if "file" in circuits:
        try:
            with open(circuits["file"]) as fh:
                jobs.append((parse_circuit(fh), circuits["qubits"]))
        except (OSError, ValueError, DriftError) as exc:
            raise ConfigError(f"circuits.file {circuits['file']!r}: {exc}") from exc
    else:
        total = circuits["count"] * (circuits["gates"] + 1) * 2 ** min(circuits["qubits"], 64)
        if total > DEFAULT_BASIS_CAP:  # past 64 qubits the product is over the cap anyway
            raise ResourceLimitError(f"circuits.count (gates + 1) 2^qubits = {total} clock "
                                     f"variables exceed the cap of {DEFAULT_BASIS_CAP}")
        for _ in range(circuits["count"]):
            n = int(rng.integers(1, circuits["qubits"] + 1))
            m = int(rng.integers(1, circuits["gates"] + 1))
            jobs.append((random_real_circuit(rng, n, m, circuits["max_arity"]), n))

    try:
        values, audited = _clock_readouts(jobs, lam, q, t)
    except DriftError as exc:  # a circuit with no gate, a bad gate or a bad target
        if "file" not in circuits:
            raise
        raise ConfigError(f"circuits.file {circuits['file']!r}: {exc}") from exc
    amplitudes = [circuit_amplitude(circuit, n) for circuit, n in jobs]
    rows = [(idx, n, len(circuit), a, v, abs(a - math.exp(lam * t) * v), abs(a - v))
            for idx, ((circuit, n), a, v) in enumerate(zip(jobs, amplitudes, values))]

    audit = run_audits(*audited, seed=seed)
    audit["bqp"] = {
        "worst_identity_gap": float(np.max([r[5] for r in rows])),  # nan propagates
        "bound_satisfied": all(r[6] <= 0.1 + 1e-12 for r in rows),
        "circuits": len(rows),
    }
    return audit, {
        "comparison": (["circuit", "qubits", "gates", "amplitude", "readout",
                        "identity_gap", "bound_gap"], rows),
        "galerkin_curve": (["t", "observable", "value"],
                           [(t, f"circuit{r[0]}", r[4]) for r in rows]),
        "mc_curve": (MC_HEADER, []),
    }


def run_audits_experiment(cfg: dict, seed: int) -> tuple:
    spec = build_system(cfg["system"]["kind"], cfg["system"])
    return run_audits(spec, _order_operators(spec, cfg["basis"]["order"]), seed=seed,
                      options=cfg), {}


# each runner maps (cfg, seed) to (audit, tables), where tables maps
# an artifact stem to the (header, rows) of its CSV
RUNNERS = {
    "oscillator": run_oscillator,
    "nse_taylor_green": run_nse_taylor_green,
    "bqp_circuit": run_bqp_circuit,
    "audits": run_audits_experiment,
}


def run_experiment(cfg: dict, out_dir: str, seed: int | None = None,
                   threads: int = 1) -> dict:
    """Execute one experiment on a `validate_config` result; returns its audit payload.

    The root `passed` flag is true iff `failed_checks` finds no false verdict.
    A NaN or infinite float in the audit or a table raises NumericalError
    before any file is written.  Each table the runner returns is written as
    `<stem>.csv`, then audit.json and manifest.json.  Monte Carlo runs on one
    thread: `threads` is kept only for the benchmark worker, which passes
    `threads=1`, and any other value raises ConfigError.
    """
    effective_seed = cfg["seed"] if seed is None else _normalise(_SEED, seed, "--seed")
    _normalise(Key(int, low=1, high=2), threads, "threads")
    created, path = [], os.path.abspath(out_dir)  # the directories makedirs makes
    while not os.path.exists(path):
        created.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: {exc.strerror}") from exc
    try:
        audit, tables = RUNNERS[cfg["experiment"]](cfg, effective_seed)
        check_finite(audit)
        for stem, (header, rows) in tables.items():
            # one flat pass per table; the walk that names the cell runs only on a hit
            if not all(map(math.isfinite, [v for row in rows for v in row
                                           if isinstance(v, (float, np.floating))])):
                check_finite([dict(zip(header, row)) for row in rows], f"{stem}.csv")
    except BaseException:
        for path in created:
            os.rmdir(path)  # still empty: the runner writes no file
        raise
    audit["passed"] = not failed_checks(audit)
    for stem, (header, rows) in tables.items():
        write_csv(os.path.join(out_dir, f"{stem}.csv"), header, rows)
    write_json(os.path.join(out_dir, "audit.json"), audit)
    write_manifest(out_dir, cfg, effective_seed)
    return audit
