"""Integrators, splitting error, regularization gap, smoothing bounds."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import _onenormest

from kolmsim import evolution
from kolmsim.errors import NumericalError
from kolmsim.evolution import (
    KEOperators,
    assemble_all,
    evolve_direct_sum,
    evolve_expm,
    evolve_reference,
    evolve_rk45,
    evolve_trotter,
    norm_monotonicity,
    regularization_gap,
    smoothing_bound_audit,
    trotter_error_bound,
)
from kolmsim.multiindex import RegularizationScheme, enumerate_basis
from kolmsim.operators import SparseOperator, SystemSpec
from kolmsim.states import (
    MonomialObservable,
    combination_state,
    expectation,
    initial_state,
    readout_state,
)
from kolmsim.systems import (
    clock_system,
    nse_system,
    oscillator_system,
    random_real_circuit,
)


def check_norm_monotone(states, tol: float = 1e-9) -> bool:
    """True iff ||psi(t_{i+1})|| <= ||psi(t_i)|| (1 + tol) along the trajectory."""
    norms = [np.linalg.norm(s) for s in states]
    return all(b <= a * (1.0 + tol) for a, b in zip(norms, norms[1:]))


def basis_for(spec, K):
    return enumerate_basis(spec.n_vars,
                           RegularizationScheme.by_max_order(K, spec.rates),
                           spec.rates)


@pytest.fixture(scope="module")
def oscillator_setup():
    spec = oscillator_system(0.1, 0.02)
    basis = basis_for(spec, 6)
    ops = assemble_all(basis, spec)
    psi0 = initial_state(MonomialObservable((1, 0), spec), basis)
    return spec, basis, ops, psi0


def test_pure_decay(oscillator_setup):
    spec, basis, _, _ = oscillator_setup
    ou = SystemSpec(name="ou", rates=spec.rates, noise=spec.noise)
    ops = assemble_all(basis, ou)
    out = evolve_rk45(np.ones(len(basis)), ops, 3.0)
    np.testing.assert_allclose(out, np.exp(-3.0 * basis.weights), rtol=1e-8)


def test_clock_linear_closed_form():
    rng = np.random.default_rng(0)
    circ = random_real_circuit(rng, 1, 2)
    spec = clock_system(circ, 1, lam=0.1, q=0.1)
    basis = basis_for(spec, 1)
    ops = assemble_all(basis, spec)
    psi0 = rng.normal(size=len(basis))
    t = 1.3
    out = evolve_rk45(psi0, ops, t)
    # order-1 coefficients evolve by e^{-lam t} e^{t B1} with B1 = b^T
    closed = math.exp(-0.1 * t) * expm(t * spec.linear.toarray().T) @ psi0
    np.testing.assert_allclose(out, closed, atol=1e-9)


def test_norm_monotone_along_trajectory(oscillator_setup):
    _, _, ops, psi0 = oscillator_setup
    states = evolve_rk45(psi0, ops, 25.0, t_eval=np.linspace(0, 25, 32))
    assert check_norm_monotone(states, tol=1e-9)
    assert np.linalg.norm(states[-1]) <= np.linalg.norm(psi0)
    # the audit's certificate proves it for every t, exactly
    assert norm_monotonicity(ops) == {"symmetric_part_residual": 0.0, "passed": True}


def test_norm_certificate_fails_a_growing_generator(oscillator_setup):
    _, basis, ops, _ = oscillator_setup
    c = ops.nonlinear.matrix
    not_skew = KEOperators(ops.dissipation, ops.linear,
                           SparseOperator(c + 1e-3 * abs(c), "nonlinear", basis))
    block = norm_monotonicity(not_skew)
    assert block["symmetric_part_residual"] == pytest.approx(2e-3 * abs(c).max())
    assert not block["passed"]
    # G + G^T + 2A = 0 still holds with A < 0, but then the norm grows
    negative_a = SparseOperator(-ops.dissipation.matrix, "dissipation", basis)
    block = norm_monotonicity(KEOperators(negative_a, ops.linear, ops.nonlinear))
    assert block == {"symmetric_part_residual": 0.0, "passed": False}


def test_energy_identity_finite_differences(oscillator_setup):
    # d ||psi||^2 / dt = -2 psi^T A psi along the trajectory
    _, _, ops, psi0 = oscillator_setup
    t0, h = 2.0, 1e-4
    lo, mid, hi = evolve_rk45(psi0, ops, t0 + h, t_eval=[t0 - h, t0, t0 + h])
    fd = (hi @ hi - lo @ lo) / (2 * h)
    quad = -2.0 * mid @ (ops.dissipation.matrix @ mid)
    assert fd == pytest.approx(quad, rel=1e-4)


def test_skew_only_evolution_conserves_norm(oscillator_setup):
    _, basis, ops, psi0 = oscillator_setup
    zero_diag = SparseOperator(sp.csr_matrix((len(basis),) * 2), "dissipation", basis)
    skew_only = KEOperators(zero_diag, ops.linear, ops.nonlinear)
    out = evolve_rk45(psi0, skew_only, 5.0)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi0), rel=1e-9)


def test_trotter_exact_for_pure_decay():
    spec = SystemSpec(name="ou", rates=np.array([0.3, 0.7]), noise=0.1)
    basis = basis_for(spec, 4)
    ops = assemble_all(basis, spec)
    psi0 = np.linspace(1, 2, len(basis))
    one = evolve_trotter(psi0, ops, 2.0, steps=1)
    many = evolve_trotter(psi0, ops, 2.0, steps=64)
    exact = np.exp(-2.0 * basis.weights) * psi0
    np.testing.assert_allclose(one, exact, rtol=1e-13)
    np.testing.assert_allclose(many, exact, rtol=1e-13)


def test_trotter_first_order_slope(oscillator_setup):
    spec, basis, ops, psi0 = oscillator_setup
    t = 2.0
    ref = evolve_expm(psi0, ops, t)
    steps = np.array([8, 16, 32, 64, 128])
    errs = [np.linalg.norm(evolve_trotter(psi0, ops, t, int(s)) - ref) for s in steps]
    slope = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_trotter_error_within_analytic_bound():
    # bounded-drift toy where gamma is finite; the bound carries an
    # unstated O(1) constant, so only the measured/bound ratio is reported
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    basis = basis_for(spec, 6)
    ops = assemble_all(basis, spec)
    psi0 = initial_state(MonomialObservable((1, 0), spec), basis)
    t, steps = 1.0, 32
    ref = evolve_expm(psi0, ops, t)
    tro = evolve_trotter(psi0, ops, t, steps)
    measured = np.linalg.norm(tro - ref)
    bound = trotter_error_bound(basis.scheme.R, basis.max_degree, spec.gamma(),
                                spec.linear_strength, spec.sparsity(),
                                float(spec.rates[-1] / spec.rates[0]),
                                t, steps, np.linalg.norm(psi0))
    assert measured <= bound  # the O(1) constant is at least 1 here


def test_reference_matches_expm(oscillator_setup):
    _, _, ops, psi0 = oscillator_setup
    a = evolve_rk45(psi0, ops, 4.0, rtol=1e-10)
    b = evolve_expm(psi0, ops, 4.0)
    c = evolve_reference(psi0, ops, 4.0)
    np.testing.assert_allclose(a, b, atol=1e-9)
    np.testing.assert_allclose(c, b, rtol=0, atol=1e-12)


def test_reference_grid_matches_final_states(oscillator_setup):
    # one expm_multiply call over the uniform grid: psi(0) first, then e^{tG} psi(0)
    _, basis, ops, psi0 = oscillator_setup
    times = np.linspace(0.0, 25.0, 11)
    [rows] = evolve_direct_sum([ops.generator()], [psi0], 25.0, times.size)
    assert rows.shape == (times.size, len(basis))
    np.testing.assert_array_equal(rows[0], psi0)
    oracle = evolve_rk45(psi0, ops, 25.0, t_eval=times, rtol=1e-11)
    for row, t, rk in zip(rows, times, oracle):
        final = evolve_reference(psi0, ops, float(t))
        np.testing.assert_allclose(row, final, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row, rk, rtol=0, atol=1e-8)


@pytest.mark.parametrize("order, t, grids", [(16, 5.0, [51]), (40, 5.0, [51]),
                                             (24, 25.0, [0, 2])], ids=["16", "40", "24"])
def test_reference_ignores_the_global_rng(order, t, grids, monkeypatch):
    # expm_multiply picks its Taylor degree and step count through onenormest,
    # which draws from numpy's global legacy RNG; the coefficients must not move
    # with it, for the order alone or in a direct sum with two smaller orders, at
    # one time (grid 0) or over a grid, and the caller's RNG must be left as it was
    estimates, real_estimate = [], _onenormest.onenormest
    monkeypatch.setattr(_onenormest, "onenormest",
                        lambda *args, **kw: estimates.append(1) or real_estimate(*args, **kw))
    spec = oscillator_system(0.1, 0.02)
    ops = [assemble_all(basis_for(spec, k), spec) for k in (order, 2, 5)]
    gens = [o.generator() for o in ops]
    psi0 = [initial_state(MonomialObservable((1, 0), spec), o.basis) for o in ops]
    for blocks in (1, 3):
        for n_points in grids:
            runs = set()
            for seed in range(4):
                np.random.seed(seed)
                caller, drawn = np.random.get_state(), len(estimates)
                ys = evolve_direct_sum(gens[:blocks], psi0[:blocks], t, n_points)
                runs.add(b"".join(y.tobytes() for y in ys))
                assert len(estimates) > drawn  # the random estimate did run
                after = np.random.get_state()
                assert np.array_equal(after[1], caller[1]) and after[2:] == caller[2:]
            assert len(runs) == 1


@pytest.mark.parametrize("system, orders", [("oscillator", [16, 2, 5]), ("nse6", [3, 1, 2])])
def test_direct_sum_slices_match_each_orders_own_solve(system, orders):
    # the blocks of one direct-sum action evolve as each order's own action
    # would, up to the step choice, which the largest block sets
    spec = oscillator_system(0.1, 0.02) if system == "oscillator" else nse_system(6, 0.1, 1e-5)
    u0 = MonomialObservable((1,) + (0,) * (spec.n_vars - 1), spec)
    ops = [assemble_all(basis_for(spec, k), spec) for k in orders]
    psi0 = [initial_state(u0, o.basis) for o in ops]
    t, n_points = 5.0, 11
    trajectories = evolve_direct_sum([o.generator() for o in ops], psi0, t, n_points)
    assert len(trajectories) == len(orders)
    for o, p, rows in zip(ops, psi0, trajectories):
        [alone] = evolve_direct_sum([o.generator()], [p], t, n_points)
        assert rows.shape == alone.shape == (n_points, len(o.basis))
        np.testing.assert_allclose(rows, alone, rtol=0, atol=1e-12)
        final = evolve_reference(p, o, t)
        np.testing.assert_allclose(rows[-1], final, rtol=0, atol=1e-12)


def test_expm_multiply_action_matches_dense(monkeypatch):
    # with the limit at 0 every exponential goes through expm_multiply
    monkeypatch.setattr(evolution, "DENSE_EXP_LIMIT", 0)
    rng = np.random.default_rng(8)
    n = 300
    skew = sp.random(n, n, density=0.02, random_state=5)
    skew = skew - skew.T
    mat = (skew - sp.diags(rng.uniform(0.1, 2.0, size=n))).tocsr()
    v = rng.normal(size=n)
    for t in (0.3, 2.0):
        dense = expm(t * mat.toarray()) @ v
        sparse = evolution._propagator(mat, t)(v)
        np.testing.assert_allclose(sparse, dense, atol=1e-8 * np.abs(dense).max() + 1e-12)


def test_trotter_sparse_path_matches_dense(oscillator_setup, monkeypatch):
    _, _, ops, psi0 = oscillator_setup
    dense = evolve_trotter(psi0, ops, 2.0, steps=16)
    monkeypatch.setattr(evolution, "DENSE_EXP_LIMIT", 0)
    sparse = evolve_trotter(psi0, ops, 2.0, steps=16)
    np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)


def test_expm_above_dense_limit_matches_reference():
    # NSE-24 at K = 3 has 2,924 basis functions, above DENSE_EXP_LIMIT
    spec = nse_system(24, 0.1, 1e-5)
    basis = basis_for(spec, 3)
    assert len(basis) > evolution.DENSE_EXP_LIMIT
    ops = assemble_all(basis, spec)
    psi0 = initial_state(MonomialObservable((1,) + (0,) * 23, spec), basis)
    t = 0.25
    ref = evolve_rk45(psi0, ops, t, rtol=1e-12)
    out = evolve_expm(psi0, ops, t)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9)


def test_adjoint_readout_matches_forward_solves():
    # <r, e^{tG} psi0> = <e^{tG^T} r, psi0>: one solve from the readout state
    # under the transposed operators answers every linear observable at x0.
    # x0 is random (not Taylor-Green), so the nonlinear operator contributes.
    spec = nse_system(6, 0.1, 1e-5)
    basis = basis_for(spec, 3)
    ops = assemble_all(basis, spec)
    assert ops.nonlinear.matrix.nnz
    assert (ops.transpose().generator() != ops.generator().T).nnz == 0
    rng = np.random.default_rng(8)
    x0 = rng.normal(scale=0.3, size=6)
    t = 0.25
    # rtol below the default keeps each solve's own error far under 1e-9
    readout = readout_state(x0, basis, 3, spec)
    adjoint = evolve_rk45(readout, ops.transpose(), t, rtol=1e-11)
    dense = readout @ expm(t * ops.generator().toarray())
    for _ in range(3):
        terms = [(float(c), MonomialObservable(tuple(int(j == k) for j in range(6)), spec))
                 for k, c in enumerate(rng.normal(size=6))]
        psi0 = combination_state(terms, basis)
        value = adjoint @ psi0
        forward = expectation(evolve_rk45(psi0, ops, t, rtol=1e-11), basis, x0, 3, spec)
        assert value == pytest.approx(forward, rel=1e-9)
        assert value == pytest.approx(dense @ psi0, rel=1e-9)


# ------------------------------------------------------------------ regularization


def test_regularization_gap_zero_without_drift():
    spec = SystemSpec(name="ou", rates=np.array([0.1, 0.1]), noise=0.1,
                      strength=0.0)
    u0 = MonomialObservable((1, 0), spec)
    block = regularization_gap(spec, u0, t=2.0, r_values=[0.2], r_large=0.8)
    [row] = block["rows"]
    assert row["measured_sup_sq"] <= 1e-20
    assert row["passed"] and block["passed"]


def test_regularization_gap_bounded_oscillator():
    # the shipped audit bundle's parameters
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    u0 = MonomialObservable((1, 0), spec)
    sups = []
    pinned = ["0x1.5c42395c306eep-5", "0x1.e139f16155202p-8", "0x1.f728184a1ceb6p-12"]
    block = regularization_gap(spec, u0, t=5.0, r_values=[0.2, 0.4, 0.8], r_large=1.6)
    assert block["r_reference"] == 1.6 and block["t"] == 5.0 and block["passed"]
    for r, row, pin in zip((0.2, 0.4, 0.8), block["rows"], pinned):
        assert row["r"] == r and row["passed"], (row["measured_sup_sq"], row["bound"])
        assert row["bound"] == pytest.approx(
            3 * spec.gamma() ** 2 / (2 * r) * (spec.noise / (2 * 0.1)))
        # one ulp of slack: the dense expm's matrix products round differently
        # with the BLAS thread count (row 0 reads 0x1.5c42395c306edp-5 on one thread)
        pin = float.fromhex(pin)
        assert abs(row["measured_sup_sq"] - pin) <= math.ulp(pin), row["measured_sup_sq"].hex()
        sups.append(row["measured_sup_sq"])
    # larger r keeps more of the dynamics: the gap shrinks
    assert sups[2] <= sups[1] <= sups[0]


def test_regularization_gap_is_zero_at_time_zero():
    # every step is e^0 = I and psi(0) = x_1 lies in each small basis
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    u0 = MonomialObservable((1, 0), spec)
    block = regularization_gap(spec, u0, t=0.0, r_values=[0.2, 0.4, 0.8], r_large=1.6)
    assert [row["measured_sup_sq"] for row in block["rows"]] == [0.0] * 3
    assert all(row["passed"] for row in block["rows"]) and block["passed"]


def test_regularization_gap_makes_one_exponential_per_generator(monkeypatch):
    calls = []
    monkeypatch.setattr(evolution, "expm", lambda a: calls.append(a.shape) or expm(a))
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    u0 = MonomialObservable((1, 0), spec)
    r_values = [0.2, 0.4, 0.8]
    regularization_gap(spec, u0, t=5.0, r_values=r_values, r_large=1.6)
    assert len(calls) == 1 + len(r_values), calls


@pytest.mark.parametrize("t", [5.0, 1.7])  # t/32 is exact at 5, rounded at 1.7
def test_regularization_steps_match_direct_exponentials(t):
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    basis_big = enumerate_basis(spec.n_vars, RegularizationScheme.by_weight(1.6), spec.rates)
    gen_big = assemble_all(basis_big, spec).generator()
    psi0 = initial_state(MonomialObservable((1, 0), spec), basis_big)
    cases = [(gen_big, psi0)]
    for r in (0.2, 0.4, 0.8):
        idx = basis_big.positions(enumerate_basis(
            spec.n_vars, RegularizationScheme.by_weight(r), spec.rates).orders)
        cases.append((gen_big[np.ix_(idx, idx)], psi0[idx]))
    for gen, v in cases:
        stepped = evolution._exp_steps(gen, v, t)
        assert len(stepped) == 32
        for k, psi in enumerate(stepped, start=1):
            direct = expm(k * t / 32 * gen.toarray()) @ v
            np.testing.assert_allclose(psi, direct, rtol=1e-12,
                                       atol=1e-12 * np.linalg.norm(direct))


def test_regularization_gap_requires_finite_strength():
    spec = oscillator_system(0.1, 0.02)  # cubic profile, J = inf
    u0 = MonomialObservable((1, 0), spec)
    with pytest.raises(NumericalError):
        regularization_gap(spec, u0, t=1.0, r_values=[0.2], r_large=0.4)


@pytest.mark.parametrize("r_values", [[0.2, 0.8], [0.0]])
def test_regularization_gap_checks_every_cutoff(r_values):
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    u0 = MonomialObservable((1, 0), spec)
    with pytest.raises(NumericalError, match="0 < r_small <= r_large"):
        regularization_gap(spec, u0, t=1.0, r_values=r_values, r_large=0.4)


# ------------------------------------------------------------------ smoothing bounds


def test_smoothing_single_mode_scalar_value():
    # N = 1, lambda = 1, t = 1: ||A^{1/2} e^{-Lambda}|| = max_m sqrt(m) e^{-m} = 1/e
    spec = SystemSpec(name="single", rates=np.array([1.0]), noise=1.0)
    basis = basis_for(spec, 8)
    ops = assemble_all(basis, spec)
    audit = smoothing_bound_audit(ops, [1.0])
    assert audit["times"] == [1.0]
    # the bound is 0.5 sqrt(kappa / t) = 0.5
    assert audit["dissipation_ratio"][0] == pytest.approx(math.exp(-1) / 0.5, rel=1e-6)
    assert audit["passed"]


def test_smoothing_bounds_on_grid():
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    basis = basis_for(spec, 8)
    ops = assemble_all(basis, spec)
    audit = smoothing_bound_audit(ops, [0.1, 0.5, 1.0, 5.0], gamma=spec.gamma())
    assert audit["passed"]
    assert len(audit["drift_ratio"]) == 4
    assert max(audit["drift_ratio"]) <= 1.0


def test_smoothing_norm_vanishes_at_large_time():
    spec = SystemSpec(name="single", rates=np.array([1.0]), noise=1.0)
    basis = basis_for(spec, 6)
    ops = assemble_all(basis, spec)
    grid = np.array([1.0, 10.0, 40.0])
    audit = smoothing_bound_audit(ops, grid)
    norms = np.array(audit["dissipation_ratio"]) * 0.5 / np.sqrt(grid)  # kappa = 1
    assert norms[-1] < 1e-15
    assert np.all(np.diff(norms) < 0)


def dense_smoothing_norms(ops, t_grid):
    """Oracle: ||A^{1/2} e^{tG}||_2 and ||C e^{tG}||_2 with G = -A + B, by dense
    `expm` and exact spectral norms; it assumes nothing about [A, B]."""
    gen = (-ops.dissipation.matrix + ops.linear.matrix).toarray()
    lam_half = np.sqrt(ops.basis.weights)[:, None]
    drift = ops.nonlinear.matrix.toarray()
    d_norms, c_norms = [], []
    for t in t_grid:
        semigroup = expm(t * gen)
        d_norms.append(np.linalg.norm(lam_half * semigroup, 2))
        c_norms.append(np.linalg.norm(drift @ semigroup, 2))
    return np.array(d_norms), np.array(c_norms)


SMOOTHING_GRID = [0.1, 0.5, 1.0, 5.0]


@pytest.mark.parametrize("make_spec, order, grid, with_drift", [
    (lambda: oscillator_system(lam=0.1, q=0.1, profile="bounded"), 8, SMOOTHING_GRID, True),
    (lambda: oscillator_system(0.1, 0.02), 6, SMOOTHING_GRID, False),  # J = inf
    (lambda: clock_system(random_real_circuit(np.random.default_rng(4), 2, 3), 2), 2,
     SMOOTHING_GRID, False),  # C = 0
    (lambda: nse_system(20, 0.1, 1e-3), 2, [0.01, 0.05, 0.1], False),  # J = inf
], ids=["bounded_oscillator", "cubic_oscillator", "clock", "nse20"])
def test_smoothing_closed_form_matches_dense_oracle(make_spec, order, grid, with_drift):
    spec = make_spec()
    ops = assemble_all(basis_for(spec, order), spec)
    audit = smoothing_bound_audit(ops, grid, gamma=spec.gamma())
    d_exact, c_exact = dense_smoothing_norms(ops, grid)
    bounds = 0.5 * np.sqrt(spec.rates[-1] / spec.rates[0] / np.asarray(grid))
    np.testing.assert_allclose(audit["dissipation_ratio"], d_exact / bounds, rtol=1e-10, atol=0)
    assert audit["passed"]
    if with_drift:
        c_ratio = c_exact / (spec.gamma() * bounds)
        # Lanczos approaches the norm from below and stops once two estimates
        # agree to 1e-10; here that leaves it at most 2.1e-13 short
        assert np.all(np.array(audit["drift_ratio"]) <= c_ratio * (1 + 1e-12))
        np.testing.assert_allclose(audit["drift_ratio"], c_ratio, rtol=1e-9, atol=0)
    else:
        assert audit["drift_ratio"] == "not applicable (J = inf or C = 0)"


def test_smoothing_fails_a_drift_estimate_above_its_bound(monkeypatch):
    # ||C e^{-tA}|| is estimated from below, so an estimate above its bound,
    # by however little beyond rounding, proves a violation
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    ops = assemble_all(basis_for(spec, 4), spec)
    bound = spec.gamma() * 0.5  # 0.5 gamma sqrt(kappa / t) at kappa = t = 1
    monkeypatch.setattr(evolution, "operator_norm_estimate",
                        lambda matrix: bound * (1 + 1e-7))
    audit = smoothing_bound_audit(ops, [1.0], gamma=spec.gamma())
    assert audit["drift_ratio"][0] == pytest.approx(1 + 1e-7, rel=1e-12)
    assert not audit["passed"]


def test_smoothing_rejects_zero_time():
    spec = SystemSpec(name="single", rates=np.array([1.0]), noise=1.0)
    basis = basis_for(spec, 3)
    ops = assemble_all(basis, spec)
    with pytest.raises(NumericalError):
        smoothing_bound_audit(ops, [0.0, 1.0])
