"""Built-in systems: oscillator closed form, spectral NSE, Taylor-Green, clock."""

import math

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from kolmsim import systems
from kolmsim.errors import DriftError
from kolmsim.multiindex import RegularizationScheme, enumerate_basis
from kolmsim.operators import assemble_nonlinear_drift, verify_divergence_free
from kolmsim.systems import (
    GATE_MATRICES,
    chain_walk_weights,
    circuit_amplitude,
    clock_drift,
    clock_system,
    embed_gate,
    nse_system,
    oscillator_system,
    parse_circuit,
    probe_functional_coefficients,
    random_real_circuit,
    rotation_gate,
    taylor_green,
    taylor_green_mode_coefficients,
    velocity_mode,
    wavenumber_table,
)

from oracles import csr_digest


def basis_for(spec, K):
    return enumerate_basis(spec.n_vars,
                           RegularizationScheme.by_max_order(K, spec.rates),
                           spec.rates)


# ------------------------------------------------------------------ oscillator


def test_oscillator_eta_zero_limit_is_rotation_block():
    # tiny eta: the |m| = 1 block approaches the rotation generator
    spec = oscillator_system(lam=0.5, q=1e-9)
    basis = basis_for(spec, 1)
    C = assemble_nonlinear_drift(basis, spec).matrix.toarray()
    np.testing.assert_allclose(C, [[0.0, -1.0], [1.0, 0.0]], atol=1e-8)


def test_oscillator_ladder_vs_quadrature_assembly():
    # same drift functions pushed through the independent quadrature route
    from kolmsim.operators import QuadratureDrift, SystemSpec

    lam, q = 0.1, 0.02
    spec = oscillator_system(lam, q)

    def omega(x):
        return 1.0 + x[..., 0] ** 2 + x[..., 1] ** 2

    quad = QuadratureDrift({0: lambda x: x[..., 1] * omega(x),
                            1: lambda x: -x[..., 0] * omega(x)},
                           {0: (0, 1), 1: (0, 1)}, n_nodes=80)
    qspec = SystemSpec(name="osc-quad", rates=spec.rates, noise=q,
                       nonlinear=quad, strength=math.inf)
    for K in (2, 5):
        basis = basis_for(spec, K)
        C_ladder = assemble_nonlinear_drift(basis, spec).matrix.toarray()
        C_quad = assemble_nonlinear_drift(basis, qspec).matrix.toarray()
        np.testing.assert_allclose(C_quad, C_ladder, atol=1e-8)


def test_oscillator_bounded_profile_strength():
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    assert spec.strength == 0.5
    # sup_x |c(x)| = sup_r r/(1+r^2) = 1/2 sampled numerically
    r = np.linspace(0, 10, 2001)
    vals = r / (1 + r ** 2)
    assert vals.max() == pytest.approx(0.5, abs=1e-6)


def test_oscillator_unknown_profile():
    with pytest.raises(DriftError):
        oscillator_system(profile="quartic")


def test_oscillator_drift_value_matches_formula():
    spec = oscillator_system(0.1, 0.02)
    x = np.array([[0.3, -1.2], [0.0, 0.5]])
    vals = spec.nonlinear.value(x)
    w = 1 + x[:, 0] ** 2 + x[:, 1] ** 2
    np.testing.assert_allclose(vals[:, 0], x[:, 1] * w, rtol=1e-14)
    np.testing.assert_allclose(vals[:, 1], -x[:, 0] * w, rtol=1e-14)


# ------------------------------------------------------------------ NSE


def test_wavenumber_table_head():
    table = wavenumber_table(10)
    expected = [(0, 1), (1, 0), (1, -1), (1, 1), (0, 2), (2, 0),
                (1, -2), (1, 2), (2, -1), (2, 1)]
    assert [tuple(k) for k in table] == expected


def test_wavenumber_eigenvalue():
    spec = nse_system(n_modes=10, nu=1.0, q=1e-3)
    table = spec.nonlinear.table
    idx = [tuple(k) for k in table].index((1, 0))
    assert spec.nonlinear.lam_raw[idx] == pytest.approx(4 * math.pi ** 2)


def test_nse_rates_sorted():
    spec = nse_system(n_modes=40, nu=0.1, q=1e-5)
    assert np.all(np.diff(spec.rates) >= 0)
    assert spec.rates[0] == pytest.approx(0.1 * 4 * math.pi ** 2)


def test_nse_drift_conserves_weighted_energy():
    spec = nse_system(n_modes=20, nu=0.1, q=1e-3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 20))
    radial = np.einsum("ni,ni->n", x * spec.rates, spec.nonlinear.value(x))
    scale = np.abs(spec.nonlinear.value(x)).max() * np.abs(x).max()
    assert np.abs(radial).max() < 1e-8 * max(scale, 1.0)


def test_nse_drift_divergence_zero():
    spec = nse_system(n_modes=20, nu=0.1, q=1e-3)
    report = verify_divergence_free(spec, n_points=50)
    assert report["passed"]


def test_nse_degree_jumps_are_one():
    spec = nse_system(n_modes=12, nu=0.1, q=1e-3)
    basis = basis_for(spec, 3)
    C = assemble_nonlinear_drift(basis, spec).matrix
    rows, cols = C.nonzero()
    assert set(np.abs(basis.degrees[rows] - basis.degrees[cols])) == {1}


NSE_MOVES = ((1, 1), (1, -1), (-1, 1))  # (change of m_i, change of m_j); m_k drops by one


def nse_entry_oracle(drift, m, n, q: float, moves=NSE_MOVES) -> float:
    """Independent re-implementation of one advection matrix element.

    Brute-force loops over all (k, i, j) with the delta conditions checked
    directly on wavevectors; it shares no code with the grouped assembly
    it checks.  `moves` picks the ladder moves summed: all three by
    default, or ((1, 1),) for the raising block alone.
    """
    table = drift.table
    lam = drift.lam_raw
    q_eff = q / drift.nu
    m = np.asarray(m, dtype=int)
    n = np.asarray(n, dtype=int)
    total = 0.0
    n_modes = len(table)
    for k_idx in range(n_modes):
        if n[k_idx] == 0:
            continue
        for i_idx in range(n_modes):
            if i_idx == k_idx:
                continue
            for j_idx in range(n_modes):
                if j_idx in (k_idx, i_idx):
                    continue
                kvec, ivec, jvec = table[k_idx], table[i_idx], table[j_idx]
                delta = 0.0
                if np.array_equal(kvec, ivec + jvec):
                    delta += 1.0
                if np.array_equal(kvec, ivec - jvec):
                    delta += 1.0
                if np.array_equal(kvec, jvec - ivec):
                    delta -= 1.0
                if delta == 0.0:
                    continue
                geom = float(ivec[1] * jvec[0] - ivec[0] * jvec[1]) * float(jvec @ kvec)
                geom /= (math.sqrt(float(ivec @ ivec)) * math.sqrt(float(kvec @ kvec))
                         * float(jvec @ jvec))
                base = -0.5 * math.sqrt(n[k_idx] * q_eff * lam[k_idx] / lam[i_idx]) \
                    * geom * delta
                for di, dj in moves:
                    # raising a mode that holds n quanta gives sqrt(n + 1), lowering it sqrt(n)
                    ladder = math.sqrt((n[i_idx] + (di > 0)) * (n[j_idx] + (dj > 0)))
                    target = n.copy()
                    target[k_idx] -= 1
                    target[i_idx] += di
                    target[j_idx] += dj
                    if np.all(target >= 0) and np.array_equal(target, m):
                        total += base * ladder
    return total


def test_nse_entries_match_independent_oracle():
    spec = nse_system(n_modes=12, nu=0.1, q=1e-3)
    basis = basis_for(spec, 3)
    C = assemble_nonlinear_drift(basis, spec).matrix.tocsc()
    rng = np.random.default_rng(9)
    rows, cols = C.nonzero()
    picks = rng.choice(len(rows), size=20, replace=False)
    for p in picks:
        mi, ni = int(rows[p]), int(cols[p])
        oracle = nse_entry_oracle(spec.nonlinear, basis.orders[mi],
                                  basis.orders[ni], spec.noise)
        assert C[mi, ni] == pytest.approx(oracle, rel=1e-12)


@pytest.fixture(scope="module")
def nse6_oracles():
    """NSE-6 at K = 3: the raw assembly, the full three-move oracle O and the
    raising-only oracle R_o, every entry, zeros included."""
    spec = nse_system(n_modes=6, nu=0.1, q=1e-3)
    basis = basis_for(spec, 3)

    def dense(moves):
        return np.array([[nse_entry_oracle(spec.nonlinear, m, n, spec.noise, moves)
                          for n in basis.orders] for m in basis.orders])

    return spec.nonlinear.assemble(basis, spec).toarray(), dense(NSE_MOVES), dense(((1, 1),))


def test_nse_full_raw_matrix_matches_independent_oracle(nse6_oracles):
    # every entry, zeros included, so a dropped or spurious raising move shows
    raw, _, raising = nse6_oracles
    assert raw.shape == (83, 83)
    np.testing.assert_allclose(raw, raising - raising.T, rtol=1e-12, atol=0.0)


def test_nse_oracle_lowering_moves_are_minus_raising_transpose(nse6_oracles):
    # the identity the assembly relies on, checked by code that shares nothing
    # with it: the lowering moves of the full oracle sum to -R_o^T.  O is not
    # exactly skew; it holds rounding residues of order 1e-18 where O^T reads 0
    _, full, raising = nse6_oracles
    assert np.count_nonzero(raising) > 0
    assert np.abs(full - (raising - raising.T)).max() <= 1e-15 * np.abs(full).max()


@pytest.mark.parametrize("rule", ["order", "weight"])
def test_nse_landing_candidates_match_brute_force(monkeypatch, rule):
    # the assembly ranks only raising candidates that can land; a sweep over
    # every (k, column, triple) with a dense raised target and a dict lookup
    # must find the same (column, target) pairs, in the same order
    spec = nse_system(n_modes=12, nu=0.1, q=1e-3)
    scheme = (RegularizationScheme.by_max_order(3, spec.rates) if rule == "order"
              else RegularizationScheme.by_weight(3.5 * spec.rates[0]))
    basis = enumerate_basis(spec.n_vars, scheme, spec.rates)
    assert basis.max_degree == 3
    landed, ladder_hits = [], systems._ladder_hits

    def recording(basis_, cols, edits):
        rows, hit = ladder_hits(basis_, cols, edits)
        landed.extend(zip(cols[hit].tolist(), rows.tolist()))
        return rows, hit

    monkeypatch.setattr(systems, "_ladder_hits", recording)
    spec.nonlinear.assemble(basis, spec)

    table = {tuple(int(v) for v in row): i for i, row in enumerate(basis.orders)}
    expected = []
    for k in sorted({t[0] for t in spec.nonlinear.triples}):
        triples = [t for t in spec.nonlinear.triples if t[0] == k]
        for col, m in enumerate(basis.orders):
            if m[k] == 0:
                continue
            for _, i, j, _ in triples:
                target = m.copy()
                target[k] -= 1
                target[i] += 1
                target[j] += 1
                pos = table.get(tuple(int(v) for v in target), -1)
                if pos >= 0:
                    expected.append((col, pos))
    assert len(expected) > 0
    assert landed == expected


def test_nse_raw_assembly_skew():
    # R - R^T is skew in its float data: negation rounds nothing
    spec = nse_system(n_modes=16, nu=0.1, q=1e-3)
    basis = basis_for(spec, 2)
    raw = spec.nonlinear.assemble(basis, spec)
    assert raw.nnz > 0
    assert abs((raw + raw.T).data).max(initial=0.0) == 0.0


def test_nse_rejects_bad_sign_convention():
    from kolmsim.systems import SpectralAdvectionDrift

    bad = np.array([[0, -1], [1, 0]])
    with pytest.raises(DriftError):
        SpectralAdvectionDrift(bad, nu=0.1, q=1e-3)


def test_nse_galerkin_matches_monte_carlo():
    # end-to-end: the projected equation and the SDE oracle see the same
    # drift, so the readout must track the sampled expectation.  Modes
    # (1,0) and (1,1) feed mode (0,1) through the advection triple, so the
    # observed mean is a purely nonlinear effect (its linear decay is 0).
    from kolmsim.evolution import assemble_all, evolve_expm
    from kolmsim.montecarlo import simulate
    from kolmsim.states import MonomialObservable, expectation, initial_state

    spec = nse_system(n_modes=6, nu=0.1, q=0.1)
    basis = basis_for(spec, 4)
    ops = assemble_all(basis, spec)
    u0 = MonomialObservable((1, 0, 0, 0, 0, 0), spec)  # observe mode (0,1)
    x0 = np.zeros(6)
    x0[1] = x0[3] = 0.25  # load modes (1,0) and (1,1)

    t_grid = np.array([0.1, 0.2])
    psi0 = initial_state(u0, basis)
    ke = expectation([evolve_expm(psi0, ops, t) for t in t_grid], basis, x0, 4, spec)
    run = simulate(spec, x0, u0, t_grid, n_samples=60000, dt=0.0025, seed=12)
    assert np.abs(run.mean).min() > 6 * run.se.max()  # effect well above noise
    assert np.all(np.abs(ke - run.mean) <= 4 * run.se)


# ------------------------------------------------------------------ Taylor-Green


def test_taylor_green_point_values():
    u1, u2 = taylor_green(0.0, 0.25, 0.0, nu=0.1)
    assert u1 == pytest.approx(math.sqrt(2))
    assert u2 == pytest.approx(0.0, abs=1e-15)


def test_taylor_green_decay_factor():
    nu, t = 0.1, 0.25
    u1, _ = taylor_green(t, 0.25, 0.0, nu)
    assert u1 == pytest.approx(math.sqrt(2) * math.exp(-8 * math.pi ** 2 * nu * t))


def test_taylor_green_divergence_free_pointwise():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(20):
        x, y = rng.uniform(0, 1, size=2)
        du1 = (taylor_green(0.3, x + h, y, 0.1)[0] - taylor_green(0.3, x - h, y, 0.1)[0]) / (2 * h)
        du2 = (taylor_green(0.3, x, y + h, 0.1)[1] - taylor_green(0.3, x, y - h, 0.1)[1]) / (2 * h)
        assert abs(du1 + du2) < 1e-7


def test_taylor_green_projection_coefficients():
    table = wavenumber_table(10)
    coeffs = taylor_green_mode_coefficients(table, 0.0, 0.1)
    lookup = {tuple(k): i for i, k in enumerate(table)}
    assert coeffs[lookup[(1, 1)]] == pytest.approx(1 / math.sqrt(2))
    assert coeffs[lookup[(1, -1)]] == pytest.approx(-1 / math.sqrt(2))
    assert np.count_nonzero(coeffs) == 2
    # reconstruction at a point equals the closed form
    xi = (0.37, 0.81)
    vel = sum(coeffs[k] * velocity_mode(table, k, xi) for k in range(10))
    np.testing.assert_allclose(vel, taylor_green(0.0, xi[0], xi[1], 0.1), atol=1e-12)


def test_probe_functional_is_first_velocity_component():
    table = wavenumber_table(12)
    xi = (0.21, 0.6)
    coefs = probe_functional_coefficients(table, xi)
    for k in range(12):
        assert coefs[k] == pytest.approx(velocity_mode(table, k, xi)[0])


def test_taylor_green_rejects_negative_time():
    with pytest.raises(ValueError):
        taylor_green(-1.0, 0.1, 0.1, 0.1)


# ------------------------------------------------------------------ clock construction


def chain_walk_matrix(n_gates):
    """The clock walk sum_j w_j (|j><j+1| - |j+1><j|) on its own, without gates."""
    w = chain_walk_weights(n_gates)
    mat = np.zeros((n_gates + 1, n_gates + 1))
    for j in range(n_gates):
        mat[j, j + 1] += w[j]
        mat[j + 1, j] -= w[j]
    return mat


def test_chain_walk_half_turn():
    for m in (1, 2, 5, 8):
        walk = chain_walk_matrix(m)
        state = expm(-walk)[:, 0]
        expected = np.zeros(m + 1)
        expected[m] = 1.0
        np.testing.assert_allclose(state, expected, atol=1e-12)


def test_clock_drift_single_gate_runs_circuit():
    circ = [(GATE_MATRICES["H"], (0,))]
    b = clock_drift([(circ, 1)]).toarray()
    final = expm(-b)[:, 0]  # e^{-b} |0, 0>
    # |1> (x) H|0>
    np.testing.assert_allclose(final[2:], [1 / math.sqrt(2)] * 2, atol=1e-12)
    np.testing.assert_allclose(final[:2], 0.0, atol=1e-12)


def test_clock_drift_skew_and_sparsity():
    rng = np.random.default_rng(7)
    circ = random_real_circuit(rng, 2, 4, max_arity=1)  # k = 1 gates only
    b = clock_drift([(circ, 2)])
    assert abs((b + b.T).data).max(initial=0.0) == 0.0
    per_col = np.diff(b.tocsc().indptr).max()
    assert per_col <= 2 ** (1 + 1)  # s = 2^{1+k}


def test_clock_noiseless_solution_matches_exponential():
    # X(t) = e^{-lam t} e^{t b} X(0) for the linear system, dim <= 48
    rng = np.random.default_rng(3)
    circ = random_real_circuit(rng, 2, 5)
    spec = clock_system(circ, 2, lam=0.1, q=0.1)
    b = spec.linear.toarray()
    assert b.shape[0] == 6 * 4 <= 48
    x0 = rng.normal(size=b.shape[0])
    t = 0.8

    def deriv(x):
        return -0.1 * x + b @ x

    # RK4 with small steps as the independent oracle
    x = x0.copy()
    n, h = 4000, t / 4000
    for _ in range(n):
        k1 = deriv(x)
        k2 = deriv(x + h / 2 * k1)
        k3 = deriv(x + h / 2 * k2)
        k4 = deriv(x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    closed = math.exp(-0.1 * t) * expm(t * b) @ x0
    np.testing.assert_allclose(x, closed, atol=1e-10 * np.abs(closed).max())


def test_clock_rejects_non_orthogonal():
    with pytest.raises(DriftError):
        clock_drift([([(np.array([[1.0, 1.0], [0.0, 1.0]]), (0,))], 1)])


def test_clock_rejects_complex():
    y = np.array([[0, -1j], [1j, 0]])
    with pytest.raises(DriftError):
        clock_drift([([(y, (0,))], 1)])


def embedded(u, targets, n_qubits):
    """embed_gate's COO triples as a dense matrix; no place may repeat."""
    _, rows, cols, vals = embed_gate([u], targets, n_qubits)
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
    full = np.zeros((2 ** n_qubits,) * 2)
    full[rows, cols] = vals
    return full


def test_embed_gate_cnot_orientation():
    # control qubit 0 (leftmost bit), target qubit 1
    full = embedded(GATE_MATRICES["CNOT"], (0, 1), 2)
    np.testing.assert_allclose(full, GATE_MATRICES["CNOT"])
    # reversed targets swap control and target roles
    swapped = embedded(GATE_MATRICES["CNOT"], (1, 0), 2)
    state = np.zeros(4)
    state[1] = 1.0  # |01>: qubit 1 set -> flips qubit 0 -> |11>
    out = swapped @ state
    assert out[3] == pytest.approx(1.0)


def kron_embedding(u, targets, n_qubits):
    """Oracle for embed_gate: u (x) I on the qubits (targets, rest), permuted into place."""
    order = list(targets) + [q for q in range(n_qubits) if q not in targets]
    dim = 2 ** n_qubits
    full = np.kron(u, np.eye(dim // u.shape[0])).reshape([2] * (2 * n_qubits))
    axis_of = list(np.argsort(order))  # axis of qubit q in the kron ordering
    return full.transpose(axis_of + [n_qubits + a for a in axis_of]).reshape(dim, dim)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_embed_gate_matches_kron_oracle(n_qubits):
    rng = np.random.default_rng(n_qubits)
    cases = [(q,) for q in range(n_qubits)] + \
        [(a, b) for a in range(n_qubits) for b in range(n_qubits) if a != b]
    for targets in cases:
        # a generic orthogonal matrix, so every entry's destination is checked
        u = np.linalg.qr(rng.normal(size=(2 ** len(targets),) * 2))[0]
        np.testing.assert_array_equal(embedded(u, targets, n_qubits),
                                      kron_embedding(u, targets, n_qubits))


def mixed_clock_jobs():
    """Twelve random circuits on 1, 2 and 3 qubits, then two parsed ones with gates on
    reversed targets and MATRIX gates of one and two qubits."""
    rng = np.random.default_rng(28)
    jobs = [(random_real_circuit(rng, n, int(rng.integers(1, 9))), n) for n in (1, 2, 3) * 4]
    jobs.append((parse_circuit(["CNOT 1 0", "MATRIX [[0.6,-0.8],[0.8,0.6]] 1", "CNOT 0 1",
                                "MATRIX [[0,0,0,1],[0,0,1,0],[0,-1,0,0],[-1,0,0,0]] 1 0"]), 2))
    jobs.append((parse_circuit(["CZ 2 0", "MATRIX [[0.6,0.8],[-0.8,0.6]] 2", "H 1"]), 3))
    return jobs


def kron_clock(circuit, n_qubits):
    """Oracle clock block: weight times the kron-embedded gate, per clock step."""
    dim, w = 2 ** n_qubits, chain_walk_weights(len(circuit))
    b = np.zeros(((len(circuit) + 1) * dim,) * 2)
    for j, (u, targets) in enumerate(circuit):
        g = kron_embedding(np.asarray(u, dtype=float), targets, n_qubits)
        b[j * dim:(j + 1) * dim, (j + 1) * dim:(j + 2) * dim] = w[j] * g.T
        b[(j + 1) * dim:(j + 2) * dim, j * dim:(j + 1) * dim] = -w[j] * g
    return b


# sha256 of the direct sum's raw CSR arrays, computed with one embedding per gate
def test_mixed_clock_drift_pinned():
    assert csr_digest(clock_drift(mixed_clock_jobs())) == \
        "3867fe0c561e8288c717482be771360d99e183ada7d762535b9804ace6852c19"


def test_mixed_clock_drift_matches_kron_oracle():
    # each job's diagonal block is its kron-built clock matrix, and nothing lies outside
    jobs = mixed_clock_jobs()
    assert {len(targets) for circuit, _ in jobs for _, targets in circuit} == {1, 2}
    np.testing.assert_array_equal(clock_drift(jobs).toarray(),
                                  block_diag(*(kron_clock(c, n) for c, n in jobs)))


@pytest.mark.parametrize("middle, message", [
    ((np.diag([1.0, 1.0, 1.0, 2.0]), (0, 2)), "not orthogonal"),
    ((np.diag([1.0, 1.0, 1.0, 1j]), (0, 2)), "real matrix elements"),
    ((np.eye(3), (0, 2)), "must be a 2"),
    ((GATE_MATRICES["CNOT"], (2, 2)), "bad target"),
], ids=["non_orthogonal", "complex", "3x3", "repeated_target"])
def test_clock_checks_every_gate_of_a_class(middle, message):
    # the middle one of three gates on targets (0, 2), after a job of other classes
    cnot = (GATE_MATRICES["CNOT"], (0, 2))
    jobs = [(random_real_circuit(np.random.default_rng(0), 3, 4), 3), ([cnot, middle, cnot], 3)]
    with pytest.raises(DriftError, match=message):
        clock_drift(jobs)


def test_circuit_amplitude_hadamard_pair():
    circ = [(GATE_MATRICES["H"], (0,)), (GATE_MATRICES["H"], (0,))]
    assert circuit_amplitude(circ, 1) == pytest.approx(1.0)
    assert circuit_amplitude([(GATE_MATRICES["X"], (0,))], 1) == pytest.approx(0.0)


def test_parse_circuit_formats():
    lines = ["# demo", "H 0", "CNOT 0 1", "RY(0.5) 1", "MATRIX [[0,1],[1,0]] 0"]
    circ = parse_circuit(lines)
    assert len(circ) == 4
    np.testing.assert_allclose(circ[2][0], rotation_gate(0.5))
    np.testing.assert_allclose(circ[3][0], GATE_MATRICES["X"])
    with pytest.raises(DriftError):
        parse_circuit(["FOO 0"])
    with pytest.raises(DriftError):
        parse_circuit(["CNOT 0"])
