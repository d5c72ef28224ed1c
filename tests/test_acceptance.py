"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 is pinned to truncation orders 2..6 with a 0.05 tolerance.
At these parameters the scaled initial amplitude is sqrt(10), which puts
the coherent-readout weight peak near Hermite order 10, so the order-6
projection carries an intrinsic error near 0.6 no matter how exactly the
operators are assembled (they match their independent quadrature oracle
to machine precision, and the order-16 projection tracks Monte Carlo
within noise).  That test therefore fails honestly with the measured
table in its message; the supplementary test right below it demonstrates
the same convergence claim at orders 4..16, where it holds.
"""

import math

import numpy as np
import pytest

from kolmsim.evolution import (
    assemble_all,
    evolve_expm,
    evolve_rk45,
    evolve_trotter,
    regularization_gap,
    smoothing_bound_audit,
)
from kolmsim.montecarlo import compare, simulate
from kolmsim.multiindex import RegularizationScheme, enumerate_basis
from kolmsim.operators import (
    SystemSpec,
    assemble_dissipation,
    assemble_linear_drift,
    assemble_nonlinear_drift,
    sparsity_audit,
)
from kolmsim.states import (
    MonomialObservable,
    combination_state,
    expectation,
    initial_state,
    readout_norm_sq,
    truncation_order_for,
)
from kolmsim.systems import (
    circuit_amplitude,
    clock_system,
    nse_system,
    oscillator_system,
    probe_functional_coefficients,
    random_real_circuit,
    taylor_green,
    taylor_green_mode_coefficients,
)
from oracles import gaussian_quadrature, h_norm

OSC_LAM, OSC_Q = 0.1, 0.02
MC_SAMPLES = 250_000
MC_DT = 1e-3


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label}" + (f" -- {detail}" if detail else ""))
    return passed


def basis_for(spec, order):
    return enumerate_basis(spec.n_vars,
                           RegularizationScheme.by_max_order(order, spec.rates),
                           spec.rates)


# ------------------------------------------------------------------ shared runs


@pytest.fixture(scope="module")
def oscillator_mc():
    spec = oscillator_system(OSC_LAM, OSC_Q)
    u0 = MonomialObservable((1, 0), spec)
    times = np.linspace(0.0, 25.0, 101)
    run = simulate(spec, np.array([1.0, 0.0]), u0, times, MC_SAMPLES, MC_DT,
                   seed=20240501)
    return spec, u0, times, run


@pytest.fixture(scope="module")
def oscillator_curves(oscillator_mc):
    spec, u0, times, _ = oscillator_mc
    x0 = np.array([1.0, 0.0])
    curves = {}
    trajectories = {}
    for order in (2, 3, 4, 5, 6, 8, 12, 16):
        basis = basis_for(spec, order)
        ops = assemble_all(basis, spec)
        states = evolve_rk45(initial_state(u0, basis), ops, 25.0, t_eval=times)
        curves[order] = expectation(states, basis, x0, order, spec)
        trajectories[order] = states
    return curves, trajectories


def test_criterion_1_oscillator_convergence(oscillator_mc, oscillator_curves):
    """Fig-1 protocol at its stated truncations 2..6 and tolerance 0.05."""
    _, _, _, run = oscillator_mc
    curves, _ = oscillator_curves
    gaps = {}
    for order in (2, 3, 4, 5, 6):
        gaps[order] = compare(run, curves[order]).max_gap
    floor = 3.0 * float(run.se.max())
    monotone = all(gaps[k + 1] <= gaps[k] + floor for k in (2, 3, 4, 5))
    final_ok = gaps[6] <= max(0.05, floor)
    detail = ("max|v_K - v_MC| = "
              + ", ".join(f"K={k}: {gaps[k]:.4f}" for k in sorted(gaps))
              + f"; 3*SE floor = {floor:.4f}")
    ok = report(1, "oscillator convergence at orders 2..6 (tolerance 0.05)",
                monotone and final_ok, detail)
    assert ok, ("orders 2..6 cannot reach a 0.05 max-over-time gap on this "
                "system (intrinsic truncation error; see the module "
                "docstring and the supplementary test). " + detail)


def test_supplementary_oscillator_convergence(oscillator_mc, oscillator_curves):
    """Same protocol where the projection has converged (orders 4..16)."""
    _, _, _, run = oscillator_mc
    curves, _ = oscillator_curves
    orders = (4, 8, 12, 16)
    gaps = [compare(run, curves[k]).max_gap for k in orders]
    floor = 3.0 * float(run.se.max())
    monotone = all(b <= a + floor for a, b in zip(gaps, gaps[1:]))
    detail = ", ".join(f"K={k}: {g:.4f}" for k, g in zip(orders, gaps))
    ok = report("1s", "oscillator convergence at orders 4..16 (supplementary)",
                monotone and gaps[-1] <= 0.05, detail)
    assert ok, detail


def test_criterion_2_taylor_green():
    nu, q, order, t_final = 0.1, 1e-5, 3, 0.25
    spec = nse_system(40, nu, q)
    table = spec.nonlinear.table
    basis = basis_for(spec, order)
    ops = assemble_all(basis, spec)
    x0 = taylor_green_mode_coefficients(table, 0.0, nu)
    errors = []
    for xi1 in np.linspace(0.05, 0.95, 10):
        coefs = probe_functional_coefficients(table, (xi1, 0.25))
        terms = [(float(c), MonomialObservable(
            tuple(1 if j == k else 0 for j in range(40)), spec))
            for k, c in enumerate(coefs) if abs(c) > 1e-14]
        psi = evolve_rk45(combination_state(terms, basis), ops, t_final)
        value = expectation(psi, basis, x0, order, spec)
        truth = float(taylor_green(t_final, xi1, 0.25, nu)[0])
        errors.append(abs(value - truth))
    ok = report(2, "Taylor-Green validation (N=40, K=3, 10 probes)",
                max(errors) <= 0.05, f"max abs error = {max(errors):.3e}")
    assert ok


def test_criterion_3_bqp_identity():
    rng = np.random.default_rng(7)
    worst_identity = 0.0
    worst_bound = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        circuit = random_real_circuit(rng, n, m, max_arity=2)
        spec = clock_system(circuit, n, lam=0.1, q=0.1)
        basis = basis_for(spec, 1)
        ops = assemble_all(basis, spec)
        u0 = MonomialObservable((1,) + (0,) * (spec.n_vars - 1), spec)
        psi = evolve_expm(initial_state(u0, basis), ops, 1.0)
        x = np.zeros(spec.n_vars)
        x[m * 2 ** n] = 1.0
        value = expectation(psi, basis, x, 1, spec)
        amplitude = circuit_amplitude(circuit, n)
        worst_identity = max(worst_identity, abs(amplitude - math.exp(0.1) * value))
        worst_bound = max(worst_bound, abs(amplitude - value))
    ok = report(3, "circuit-amplitude identity over 20 random circuits",
                worst_identity <= 1e-9 and worst_bound <= 0.1,
                f"identity residual = {worst_identity:.2e}, "
                f"amplitude gap = {worst_bound:.4f} <= 0.1")
    assert ok


def test_criterion_4_regularization_bound():
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    u0 = MonomialObservable((1, 0), spec)
    block = regularization_gap(spec, u0, t=5.0, r_values=[0.2, 0.4, 0.8], r_large=1.6)
    rows = [f"r={row['r']}: {row['measured_sup_sq']:.3e} <= {row['bound']:.3e}"
            for row in block["rows"]]
    ok = report(4, "truncation gap within 3 gamma^2/(2r) bound", block["passed"],
                "; ".join(rows))
    assert ok


def test_criterion_5_exact_identities():
    # readout norm identity
    spec = SystemSpec(name="measure", rates=np.array([0.1, 0.1]), noise=0.02)
    x = np.array([1.0, 0.0])
    k = truncation_order_for(x, spec, 1e-7 * math.sqrt(readout_norm_sq(x, spec)))
    ratio = readout_norm_sq(x, spec, k) / math.exp(10.0)
    readout_ok = abs(ratio - 1.0) <= 1e-10
    rng = np.random.default_rng(2)
    for _ in range(10):
        rates = np.sort(rng.uniform(0.05, 0.6, size=3))
        q = rng.uniform(0.05, 0.3)
        c = SystemSpec(name="measure", rates=rates, noise=q)
        xv = np.zeros(3)
        i = int(rng.integers(3))
        xv[i] = math.sqrt(rng.uniform(0.5, 6.0) * q / rates[i])
        kk = truncation_order_for(xv, c, 1e-7 * math.sqrt(readout_norm_sq(xv, c)))
        rr = readout_norm_sq(xv, c, kk) / readout_norm_sq(xv, c)
        readout_ok = readout_ok and abs(rr - 1.0) <= 1e-10

    # initial-state norms against the closed form
    norm_ok = True
    basis = enumerate_basis(2, RegularizationScheme.by_max_order(8, spec.rates),
                            spec.rates)
    for exponents in [(1, 0), (0, 2), (2, 1), (2, 2), (1, 3), (0, 4)]:
        u0 = MonomialObservable(exponents, spec)
        psi = initial_state(u0, basis)
        closed = u0.centered_norm_sq()
        norm_ok = norm_ok and abs(psi @ psi - closed) <= 1e-12 * closed

    # orthonormality by quadrature
    ortho_err = 0.0
    small = enumerate_basis(2, RegularizationScheme.by_max_order(4, spec.rates),
                            spec.rates)
    rows = small.orders.tolist()
    for a in rows:
        for b in rows:
            val = gaussian_quadrature(
                lambda pts: h_norm(a, pts, spec) * h_norm(b, pts, spec),
                spec, 64)
            ortho_err = max(ortho_err, abs(val - (1.0 if a == b else 0.0)))
    ok = report(5, "exact identities (readout norm, initial norms, orthonormality)",
                readout_ok and norm_ok and ortho_err <= 1e-10,
                f"orthonormality residual = {ortho_err:.2e}")
    assert ok


def test_criterion_6_lemma_audits():
    systems = []
    osc = oscillator_system(OSC_LAM, OSC_Q)
    systems.append((osc, 5))
    systems.append((oscillator_system(lam=0.1, q=0.1, profile="bounded"), 8))
    systems.append((nse_system(20, 0.1, 1e-3), 2))
    rng = np.random.default_rng(4)
    clock = clock_system(random_real_circuit(rng, 2, 3), 2)
    systems.append((clock, 1))

    all_ok = True
    details = []
    for spec, order in systems:
        basis = basis_for(spec, order)
        for op in (assemble_dissipation(basis, spec),
                   assemble_linear_drift(basis, spec),
                   assemble_nonlinear_drift(basis, spec)):
            audit = sparsity_audit(op, spec)
            all_ok = all_ok and audit["passed"]
            if not audit["passed"]:
                details.append(f"{spec.name}/{op.role}")
        ops = assemble_all(basis, spec)
        grid = [0.1, 0.5, 1.0, 5.0]
        smoothing = smoothing_bound_audit(ops, grid, gamma=spec.gamma())
        all_ok = all_ok and smoothing["passed"]
        if not smoothing["passed"]:
            details.append(f"{spec.name}/smoothing")
    ok = report(6, "sparsity, norm, and smoothing lemma audits on 4 systems",
                all_ok, "; ".join(details) if details else "all bounds hold")
    assert ok


def test_criterion_7_dynamics_invariants(oscillator_curves):
    _, trajectories = oscillator_curves
    monotone = all(np.linalg.norm(b) <= np.linalg.norm(a) * (1 + 1e-9)
                   for states in trajectories.values() for a, b in zip(states, states[1:]))

    spec = oscillator_system(OSC_LAM, OSC_Q)
    basis = basis_for(spec, 4)
    ops = assemble_all(basis, spec)
    psi0 = initial_state(MonomialObservable((1, 0), spec), basis)
    t = 2.0
    ref = evolve_expm(psi0, ops, t)
    steps = np.array([8, 16, 32, 64, 128])
    errs = [np.linalg.norm(evolve_trotter(psi0, ops, t, int(s)) - ref) for s in steps]
    slope = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    ok = report(7, "norm monotonicity and first-order splitting rate",
                monotone and 0.8 <= slope <= 1.2,
                f"slope = {slope:.3f}, trajectories checked = {len(trajectories)}")
    assert ok


def test_criterion_8_mc_oracle_sanity():
    lam, q = 0.5, 0.2
    spec = SystemSpec(name="ou", rates=np.array([lam]), noise=q)
    times = np.array([0.0, 0.5, 1.0, 2.0, 4.0])

    mean_run = simulate(spec, np.array([1.0]), MonomialObservable((1,), spec),
                        times, 100_000, MC_DT, seed=31)
    mean_gap = np.abs(mean_run.mean - np.exp(-lam * times))
    mean_ok = bool(np.all(mean_gap <= 3 * np.maximum(mean_run.se, 1e-12)))

    # x0 = 0 with stationary initial noise keeps E X^2 = q/(2 lam) at all times
    var_run = simulate(spec, np.array([0.0]), MonomialObservable((2,), spec),
                       times, 100_000, MC_DT, seed=32)
    var_gap = np.abs(var_run.mean - q / (2 * lam))
    var_ok = bool(np.all(var_gap <= 3 * var_run.se))
    ok = report(8, "Ornstein-Uhlenbeck mean and stationary variance vs analytic",
                mean_ok and var_ok,
                f"max mean gap/SE = {float((mean_gap / mean_run.se.clip(1e-12)).max()):.2f}, "
                f"max var gap/SE = {float((var_gap / var_run.se).max()):.2f}")
    assert ok
