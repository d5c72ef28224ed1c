"""Operator assembly: diagonal weights, skew drifts, bounds, divergence checks."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from kolmsim.errors import BasisError, DriftError
from kolmsim.hermite import HermiteContext, gaussian_quadrature, h_norm
from kolmsim.multiindex import RegularizationScheme, enumerate_basis
from kolmsim.operators import (
    CoefficientTableDrift,
    SystemSpec,
    assemble_dissipation,
    assemble_linear_drift,
    assemble_nonlinear_drift,
    load_drift_tables,
    operator_norm_estimate,
    save_drift_tables,
    sparsity_audit,
    verify_divergence_free,
)
from kolmsim.systems import oscillator_coefficient_tables, oscillator_system


def rotation_spec(lam=0.1, q=0.02, omega=1.0):
    b = sp.csr_matrix(np.array([[0.0, omega], [-omega, 0.0]]))
    return SystemSpec(name="rotation", rates=np.array([lam, lam]), noise=q,
                      linear=b, strength=0.0, linear_strength=abs(omega))


def table_oscillator_spec(lam=0.1, q=0.02):
    return SystemSpec(name="osc-table", rates=np.array([lam, lam]), noise=q,
                      nonlinear=oscillator_coefficient_tables(lam, q),
                      strength=math.inf)


def basis_for(spec, K):
    return enumerate_basis(spec.n_vars,
                           RegularizationScheme.by_max_order(K, spec.rates),
                           spec.rates)


# ------------------------------------------------------------------ dissipation


def test_dissipation_diagonal_example():
    spec = rotation_spec(lam=0.1)
    basis = basis_for(spec, 2)
    op = assemble_dissipation(basis, spec)
    np.testing.assert_allclose(op.matrix.diagonal(), [0.1, 0.1, 0.2, 0.2, 0.2])
    assert op.matrix.nnz == 5


def test_dissipation_unit_index_entry():
    spec = rotation_spec(lam=0.3, q=0.1)
    basis = basis_for(spec, 3)
    op = assemble_dissipation(basis, spec)
    pos = basis.position((0, 1))
    assert op.matrix[pos, pos] == pytest.approx(0.3)


def test_dissipation_trace_matches_direct_sum():
    spec = SystemSpec(name="ou3", rates=np.array([0.2, 0.5, 1.1]), noise=0.3)
    basis = basis_for(spec, 3)
    op = assemble_dissipation(basis, spec)
    direct = sum(float(m @ spec.rates) for m in basis.orders)
    assert op.matrix.diagonal().sum() == pytest.approx(direct, rel=1e-14)


# ------------------------------------------------------------------ linear drift


def test_linear_drift_rotation_entries():
    # b12 = -b21 = omega with equal rates: <e2|B|e1> = +omega, the same
    # orientation as the eta -> 0 limit of the nonlinear rotation block.
    omega = 0.7
    spec = rotation_spec(omega=omega)
    basis = basis_for(spec, 2)
    B = assemble_linear_drift(basis, spec).matrix
    i1, i2 = basis.position((1, 0)), basis.position((0, 1))
    assert B[i2, i1] == pytest.approx(omega)
    assert B[i1, i2] == pytest.approx(-omega)


def test_linear_drift_zero_matrix():
    spec = SystemSpec(name="ou", rates=np.array([0.1, 0.2]), noise=0.05)
    basis = basis_for(spec, 3)
    B = assemble_linear_drift(basis, spec).matrix
    assert B.nnz == 0


def test_linear_drift_preserves_degree_blocks():
    spec = rotation_spec()
    basis = basis_for(spec, 3)
    B = assemble_linear_drift(basis, spec).matrix
    rows, cols = B.nonzero()
    assert np.all(basis.degrees[rows] == basis.degrees[cols])


def test_linear_drift_exact_skewness():
    rng = np.random.default_rng(2)
    rates = np.array([0.2, 0.5, 0.9])
    raw = rng.normal(size=(3, 3))
    # project onto the divergence-free cone: lambda_i b_ij = -lambda_j b_ji
    b = np.zeros((3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            b[i, j] = raw[i, j]
            b[j, i] = -rates[i] * raw[i, j] / rates[j]
    spec = SystemSpec(name="gen", rates=rates, noise=0.1,
                      linear=sp.csr_matrix(b), linear_strength=abs(b).max())
    basis = basis_for(spec, 3)
    B = assemble_linear_drift(basis, spec).matrix
    assert abs((B + B.T).toarray()).max() == 0.0


def test_linear_drift_rejects_non_skew():
    b = sp.csr_matrix(np.array([[0.0, 0.3], [0.3, 0.0]]))
    spec = SystemSpec(name="bad", rates=np.array([0.5, 0.5]), noise=0.1,
                      linear=b, linear_strength=0.3)
    basis = basis_for(spec, 2)
    with pytest.raises(DriftError):
        assemble_linear_drift(basis, spec)


# ------------------------------------------------------------------ nonlinear drift


def test_oscillator_entry_closed_form():
    lam, q = 0.1, 0.02
    eta = q / (2 * lam)
    spec = oscillator_system(lam, q)
    basis = basis_for(spec, 3)
    C = assemble_nonlinear_drift(basis, spec).matrix
    i1, i2 = basis.position((1, 0)), basis.position((0, 1))
    assert C[i2, i1] == pytest.approx(1 + 4 * eta, rel=1e-13)
    assert C[i1, i2] == pytest.approx(-(1 + 4 * eta), rel=1e-13)


def test_table_route_matches_ladder_route():
    spec = oscillator_system(0.1, 0.02)
    tspec = table_oscillator_spec(0.1, 0.02)
    basis = basis_for(spec, 5)
    C_ladder = assemble_nonlinear_drift(basis, spec).matrix.toarray()
    C_table = assemble_nonlinear_drift(basis, tspec).matrix.toarray()
    np.testing.assert_allclose(C_table, C_ladder, atol=1e-13)


def test_nonlinear_skew_exact():
    spec = table_oscillator_spec()
    basis = basis_for(spec, 4)
    C = assemble_nonlinear_drift(basis, spec).matrix
    assert abs((C + C.T).toarray()).max() < 1e-16


def test_energy_neutrality_random_vectors():
    rng = np.random.default_rng(5)
    spec = oscillator_system(0.1, 0.02)
    basis = basis_for(spec, 5)
    B = assemble_linear_drift(basis, rotation_spec(lam=0.1)).matrix
    C = assemble_nonlinear_drift(basis, spec).matrix
    for _ in range(20):
        v = rng.normal(size=len(basis))
        scale = float(v @ v)
        assert abs(v @ (C @ v)) < 1e-12 * scale * abs(C.data).max()
        assert abs(v @ (B @ v)) < 1e-12 * scale


def test_quadrature_equivalence_all_entries():
    # every assembled entry equals the Gauss-Hermite integral of the
    # matrix-element formula sum_i sqrt(2 m_i lambda_i / q) <H_n, c_i H_{m-e_i}>
    lam, q = 0.1, 0.02
    spec = table_oscillator_spec(lam, q)
    ctx = spec.context
    basis = basis_for(spec, 3)
    C = assemble_nonlinear_drift(basis, spec).matrix.toarray()

    def c_func(pts, i):
        w = 1 + pts[..., 0] ** 2 + pts[..., 1] ** 2
        return pts[..., 1] * w if i == 0 else -pts[..., 0] * w

    for mi in range(len(basis)):
        m = tuple(int(v) for v in basis.orders[mi])
        for ni in range(len(basis)):
            n = tuple(int(v) for v in basis.orders[ni])
            total = 0.0
            for i in range(2):
                if m[i] == 0:
                    continue
                lower = list(m)
                lower[i] -= 1
                total += math.sqrt(2 * m[i] * lam / q) * gaussian_quadrature(
                    lambda pts, i=i, lower=tuple(lower):
                    h_norm(n, pts, ctx) * c_func(pts, i) * h_norm(lower, pts, ctx),
                    ctx, 64)
            assert total == pytest.approx(C[ni, mi], abs=1e-8)


def test_inconsistent_table_rejected():
    # c_1 = x_1 is not divergence-free; the raw matrix is far from skew
    ctx = HermiteContext(rates=np.array([0.5, 0.5]), noise=0.2)
    drift = CoefficientTableDrift({0: (0,)}, {0: [((1,), 1.0)]}, ctx)
    spec = SystemSpec(name="bad", rates=ctx.rates, noise=ctx.noise,
                      nonlinear=drift, strength=1.0)
    basis = basis_for(spec, 3)
    with pytest.raises(DriftError):
        assemble_nonlinear_drift(basis, spec)


def test_relative_boundedness_witness_bounded_profile():
    # |phi^T C psi| <= gamma sqrt((phi.phi)(psi.A psi)) with gamma = J sqrt(2/q)
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    basis = basis_for(spec, 8)
    C = assemble_nonlinear_drift(basis, spec).matrix
    A = assemble_dissipation(basis, spec).matrix
    gamma = spec.gamma()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        phi = rng.normal(size=len(basis))
        psi = rng.normal(size=len(basis))
        lhs = abs(phi @ (C @ psi))
        rhs = gamma * math.sqrt((phi @ phi) * (psi @ (A @ psi)))
        assert lhs <= rhs * (1 + 1e-12)


# ------------------------------------------------------------------ divergence checks


def test_divergence_free_oscillator():
    report = verify_divergence_free(oscillator_system(0.1, 0.02))
    assert report.passed
    assert report.divergence_residual == 0.0
    assert report.radial_residual == 0.0


def test_divergence_free_table_drift_numeric():
    report = verify_divergence_free(table_oscillator_spec(), n_points=50)
    assert report.passed


def test_divergence_free_detects_broken_linear_part():
    b = sp.csr_matrix(np.array([[0.0, 0.3], [0.3, 0.0]]))
    spec = SystemSpec(name="bad", rates=np.array([0.5, 0.5]), noise=0.1,
                      linear=b, linear_strength=0.3)
    report = verify_divergence_free(spec)
    assert not report.passed
    assert report.linear_residual == pytest.approx(2 * 0.3 * 0.5)


# ------------------------------------------------------------------ audits


def test_sparsity_audit_linear_rotation():
    spec = rotation_spec(omega=1.0)
    basis = basis_for(spec, 3)
    B = assemble_linear_drift(basis, spec)
    audit = sparsity_audit(B, basis, spec)
    assert audit.max_col_nonzeros <= 2
    assert audit.nonzero_bound == 1 * 3 * 4  # s K (K+1) with s = 1
    assert audit.passed


def test_sparsity_audit_dissipation():
    spec = rotation_spec()
    basis = basis_for(spec, 4)
    audit = sparsity_audit(assemble_dissipation(basis, spec), basis, spec)
    assert audit.norm_estimate == pytest.approx(basis.weights.max())
    assert audit.passed


def test_sparsity_audit_bounded_drift_norm():
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    basis = basis_for(spec, 6)
    C = assemble_nonlinear_drift(basis, spec)
    audit = sparsity_audit(C, basis, spec)
    assert math.isfinite(audit.norm_bound)
    assert audit.norm_estimate <= audit.norm_bound
    assert audit.passed


def test_sparsity_audit_unbounded_drift_marked():
    spec = oscillator_system(0.1, 0.02)
    basis = basis_for(spec, 3)
    audit = sparsity_audit(assemble_nonlinear_drift(basis, spec), basis, spec)
    assert not math.isfinite(audit.norm_bound)
    assert "not applicable" in audit.notes


def test_power_iteration_against_dense_norm():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(40, 40))
    est = operator_norm_estimate(sp.csr_matrix(mat), n_iter=500, tol=1e-10)
    assert est == pytest.approx(np.linalg.norm(mat, 2), rel=1e-5)


# ------------------------------------------------------------------ table file format


def test_table_file_roundtrip(tmp_path):
    drift = oscillator_coefficient_tables(0.1, 0.02)
    path = tmp_path / "tables.txt"
    save_drift_tables(drift, path)
    loaded = load_drift_tables(path, drift.ctx)
    assert loaded.supports == drift.supports
    for i in drift.terms:
        assert sorted(loaded.terms[i]) == sorted(drift.terms[i])


def test_table_file_rejects_bad_variable(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1,5 0,1 1.0\n")
    ctx = HermiteContext(rates=np.array([0.1, 0.1]), noise=0.02)
    with pytest.raises(DriftError):
        load_drift_tables(path, ctx)


def test_basis_spec_mismatch_rejected():
    spec = rotation_spec()
    other = SystemSpec(name="other", rates=np.array([0.2, 0.2]), noise=0.02)
    basis = basis_for(other, 2)
    with pytest.raises(BasisError):
        assemble_dissipation(basis, spec)
