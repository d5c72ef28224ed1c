"""Operator assembly: diagonal weights, skew drifts, bounds, divergence checks."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmsim.errors import BasisError, DriftError
from kolmsim.hermite import gauss_hermite_rule, he_table
from kolmsim import operators
from kolmsim.multiindex import RegularizationScheme, enumerate_basis
from kolmsim.operators import (
    NORM_MARGIN,
    QuadratureDrift,
    SystemSpec,
    assemble_dissipation,
    assemble_linear_blocks,
    assemble_linear_drift,
    assemble_nonlinear_drift,
    operator_norm_estimate,
    sparsity_audit,
    verify_divergence_free,
)
from kolmsim.systems import (
    GATE_MATRICES,
    clock_drift,
    clock_system,
    nse_system,
    oscillator_system,
    random_real_circuit,
)
from oracles import (
    csr_digest,
    gaussian_quadrature,
    h_norm,
    hermite_triple_product,
    linear_drift_oracle,
)


class CoefficientTableDrift:
    """Nonlinear drift given by Hermite coefficients of each c_i.

    The reference route for the cubic oscillator's ladder closed form: it
    assembles with exact triple-product integrals and shares no code with
    the ladder algebra.

    `supports[i]` lists the variables c_i touches; `terms[i]` holds
    (orders-over-support, coefficient) pairs in the normalized Hermite basis
    of `measure` (a SystemSpec), so
    c_i(x) = sum coeff * prod_v He_{p_v}(x_v s_v)/sqrt(p_v!).
    """

    def __init__(self, supports: dict, terms: dict, measure: SystemSpec):
        for i, sup in supports.items():
            for orders, _ in terms.get(i, []):
                if len(orders) != len(sup):
                    raise DriftError(
                        f"term of c_{i} has {len(orders)} orders for a "
                        f"support of {len(sup)} variables")
        for i in terms:
            if i not in supports:
                raise DriftError(f"coefficient table references undeclared function c_{i}")
        self.supports = {i: tuple(sup) for i, sup in supports.items()}
        self.terms = {i: [(tuple(p), float(c)) for p, c in tt] for i, tt in terms.items()}
        self.measure = measure
        self.sparsity = max((len(s) for s in self.supports.values()), default=0)

    def _factor_values(self, i, x):
        """Per-term values of c_i at points x of shape (..., N)."""
        x = np.asarray(x, dtype=float)
        sup = self.supports[i]
        max_deg = max((max(p) for p, _ in self.terms[i]), default=0)
        tables = {v: he_table(max_deg, x[..., v] * self.measure.scalings[v]) for v in sup}
        total = np.zeros(x.shape[:-1])
        for p, coeff in self.terms[i]:
            term = np.full(x.shape[:-1], coeff)
            for v, deg in zip(sup, p):
                term = term * tables[v][deg] / math.sqrt(math.factorial(deg))
            total += term
        return total

    def value(self, x, out=None):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape) if out is None else out
        out.fill(0.0)
        for i in self.supports:
            out[..., i] = self._factor_values(i, x)
        return out

    def divergence(self, x):
        """sum_i d c_i / d x_i, exact via the Hermite lowering identity."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for i, sup in self.supports.items():
            if i not in sup:
                continue
            pos = sup.index(i)
            lowered = []
            for p, coeff in self.terms[i]:
                if p[pos] == 0:
                    continue
                q = list(p)
                q[pos] -= 1
                scale = math.sqrt(2 * p[pos] * self.measure.rates[i] / self.measure.noise)
                lowered.append((tuple(q), coeff * scale))
            if lowered:
                probe = CoefficientTableDrift({i: sup}, {i: lowered}, self.measure)
                total += probe._factor_values(i, x)
        return total

    def assemble(self, basis, spec) -> sp.csr_matrix:
        rates, q = spec.rates, spec.noise
        targets, cols, vals = [], [], []
        triple = {}

        def g(a, b, c):
            key = (a, b, c)
            if key not in triple:
                triple[key] = hermite_triple_product(a, b, c)
            return triple[key]

        for col in range(len(basis)):
            m = basis.orders[col]
            for i, sup in self.supports.items():
                if m[i] == 0:
                    continue
                factor0 = math.sqrt(2.0 * m[i] * rates[i] / q)
                base = m.copy()
                base[i] -= 1
                for p, coeff in self.terms[i]:
                    # candidate row indices agree with base outside the
                    # support; inside, parity and triangle rules apply
                    per_var = []
                    for v, deg in zip(sup, p):
                        b_v = int(base[v])
                        cand = [(n_v, g(deg, b_v, n_v))
                                for n_v in range(abs(b_v - deg), b_v + deg + 1, 2)]
                        per_var.append([(n_v, w) for n_v, w in cand if w != 0.0])
                    for combo in itertools.product(*per_var):
                        n = base.copy()
                        val = factor0 * coeff
                        for (v, _), (n_v, w) in zip(zip(sup, p), combo):
                            n[v] = n_v
                            val *= w
                        if val != 0.0:
                            targets.append(n)
                            cols.append(col)
                            vals.append(val)
        rows = basis.positions(np.array(targets, dtype=np.int32).reshape(-1, basis.n_vars))
        hit = rows >= 0
        cols, vals = np.array(cols, dtype=np.intp)[hit], np.array(vals)[hit]
        mat = sp.coo_matrix((vals, (rows[hit], cols)), shape=(len(basis),) * 2)
        return mat.tocsr()


def quadrature_oracle(drift: QuadratureDrift, basis, spec) -> sp.csr_matrix:
    """The raw quadrature matrix through one dense evaluation matrix.

    The reference route for the sum-factorised `QuadratureDrift.assemble`:
    the same rule, but every basis function is tabulated on all n_nodes^N
    points, V[p, k] = sqrt(w_p) H_k(x_p), and W = V^T diag(c_i) V.
    """
    n_vars = basis.n_vars
    rates, q = spec.rates, spec.noise
    y, w = gauss_hermite_rule(drift.n_nodes)
    axes = [y / s for s in spec.scalings]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wts = np.ones(pts.shape[0])
    for g in np.meshgrid(*([w] * n_vars), indexing="ij"):
        wts = wts * g.reshape(-1)

    # evaluation table for every index of degree <= K, zero included
    ext = [np.zeros(n_vars, dtype=np.int32)] + list(basis.orders)
    max_deg = basis.max_degree
    per_var = [he_table(max_deg, pts[:, v] * spec.scalings[v]) for v in range(n_vars)]
    V = np.empty((pts.shape[0], len(ext)))
    sqw = np.sqrt(wts)
    for k, orders in enumerate(ext):
        col = sqw.copy()
        for v, deg in enumerate(orders):
            if deg:
                col = col * per_var[v][deg] / math.sqrt(math.factorial(deg))
        V[:, k] = col

    dense = np.zeros((len(basis), len(basis)))
    for i, f in drift.funcs.items():
        cvals = np.asarray(f(pts), dtype=float)
        W = V.T @ (cvals[:, None] * V)
        cols = np.nonzero(basis.orders[:, i])[0]
        base = basis.orders[cols]
        factor0 = np.sqrt(2.0 * base[:, i] * rates[i] / q)
        base[:, i] -= 1
        # ext index = basis position + 1; the zero row (position -1) is 0
        dense[:, cols] += factor0 * W[1:, basis.positions(base) + 1]
    return sp.csr_matrix(dense)


def oscillator_coefficient_tables(lam, q):
    """Hermite coefficient tables of the cubic-profile oscillator drift.

    c1 = x2 (1 + x1^2 + x2^2) expands over the normalized basis as
    sqrt(eta) [(1+4 eta) H_(0,1) + eta sqrt(2) H_(2,1) + eta sqrt(6) H_(0,3)]
    and c2 is the sign-flipped mirror image.
    """
    measure = SystemSpec(name="measure", rates=np.array([lam, lam]), noise=q)
    eta = q / (2.0 * lam)
    root = math.sqrt(eta)
    terms1 = [((0, 1), root * (1 + 4 * eta)),
              ((2, 1), root * eta * math.sqrt(2)),
              ((0, 3), root * eta * math.sqrt(6))]
    terms2 = [((1, 0), -root * (1 + 4 * eta)),
              ((3, 0), -root * eta * math.sqrt(6)),
              ((1, 2), -root * eta * math.sqrt(2))]
    return CoefficientTableDrift({0: (0, 1), 1: (0, 1)},
                                 {0: terms1, 1: terms2}, measure)


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


def unequal_rate_spec(b_of=sp.csr_matrix):
    """A random b on rates (0.2, 0.5, 0.9) with lambda_i b_ij = -lambda_j b_ji."""
    rng = np.random.default_rng(2)
    rates = np.array([0.2, 0.5, 0.9])
    raw = rng.normal(size=(3, 3))
    b = np.zeros((3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            b[i, j] = raw[i, j]
            b[j, i] = -rates[i] * raw[i, j] / rates[j]
    return SystemSpec(name="gen", rates=rates, noise=0.1,
                      linear=b_of(b), linear_strength=abs(b).max())


def test_linear_drift_exact_skewness():
    spec = unequal_rate_spec()
    B = assemble_linear_drift(basis_for(spec, 3), spec).matrix
    assert abs((B + B.T).toarray()).max() == 0.0


# sha256 of raw CSR arrays; any change in how the assemblers round or order
# their entries shows here
def test_linear_drift_matrix_pinned():
    spec = unequal_rate_spec()
    assert csr_digest(assemble_linear_drift(basis_for(spec, 3), spec).matrix) == \
        "12d9ec6e834d4efe2fa14ea2e895c36ea87e0e29479c57f60e5511a293ced756"


def test_clock_matrices_pinned():
    circuit = random_real_circuit(np.random.default_rng(11), 3, 8)
    assert csr_digest(clock_drift([(circuit, 3)])) == \
        "fee74cd5a0c5ddfee33fa39c91e9ba407daa0438c9ccfe45343328135f5741d9"
    spec = clock_system(circuit, 3)
    basis = basis_for(spec, 2)
    assert len(basis) == 2700
    assert csr_digest(assemble_linear_drift(basis, spec).matrix) == \
        "b41323c42425c6028f83fd841c40522a5c09b949ef0f2232c6f325b40548c36d"


def with_zeros(b):
    """b with the whole dense matrix stored, zeros included."""
    rows, cols = np.indices(b.shape).reshape(2, -1)
    return sp.csr_matrix((b.ravel(), (rows, cols)), shape=b.shape)


def unsorted_halves(b):
    """b stored non-canonically: each entry as two equal halves, columns descending by row."""
    rows, cols = np.nonzero(b)
    order = np.lexsort((-cols, rows))
    rows, cols = np.repeat(rows[order], 2), np.repeat(cols[order], 2)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=b.shape[0]))))
    return sp.csr_matrix((b[rows, cols] / 2, cols, indptr), shape=b.shape)


def pinned_clock_spec():
    return clock_system(random_real_circuit(np.random.default_rng(11), 3, 8), 3)


def test_linear_drift_ignores_explicit_zeros():
    spec, padded = unequal_rate_spec(), unequal_rate_spec(with_zeros)
    assert padded.linear.nnz == 9 and spec.linear.nnz == 6
    assert csr_digest(assemble_linear_drift(basis_for(padded, 3), padded).matrix) == \
        csr_digest(assemble_linear_drift(basis_for(spec, 3), spec).matrix)


@pytest.mark.parametrize("make_spec, K", [
    (unequal_rate_spec, 1), (unequal_rate_spec, 2), (unequal_rate_spec, 3),
    (lambda: unequal_rate_spec(with_zeros), 3), (pinned_clock_spec, 1), (pinned_clock_spec, 2),
], ids=["random-K1", "random-K2", "random-K3", "explicit-zeros-K3", "clock-K1", "clock-K2"])
def test_linear_drift_matches_coo_oracle(make_spec, K):
    spec = make_spec()
    basis = basis_for(spec, K)
    assert csr_digest(assemble_linear_drift(basis, spec).matrix) == \
        csr_digest(linear_drift_oracle(basis, spec))


def test_linear_drift_sums_duplicate_entries():
    # halving and re-adding is exact, so the summed b is the canonical one
    spec, split = unequal_rate_spec(), unequal_rate_spec(unsorted_halves)
    assert split.linear.nnz == 12 and not split.linear.has_canonical_format
    assert csr_digest(assemble_linear_drift(basis_for(split, 3), split).matrix) == \
        csr_digest(assemble_linear_drift(basis_for(spec, 3), spec).matrix)
    assert verify_divergence_free(split)["linear_residual"] == \
        verify_divergence_free(spec)["linear_residual"]
    assert not split.linear.has_canonical_format  # the spec's b is left as stored


def test_linear_drift_rejects_non_skew():
    for b in ([[0.0, 0.3], [0.3, 0.0]],  # symmetric
              [[0.0, 0.3], [0.0, 0.0]],  # one-sided: b_01 without b_10
              [[0.2, 0.0], [0.0, 0.0]]):  # nonzero diagonal
        spec = SystemSpec(name="bad", rates=np.array([0.5, 0.5]), noise=0.1,
                          linear=sp.csr_matrix(np.array(b)), linear_strength=0.3)
        basis = basis_for(spec, 2)
        with pytest.raises(DriftError, match="lambda_i b_ij = -lambda_j b_ji"):
            assemble_linear_drift(basis, spec)


@pytest.mark.parametrize("K", [1, 2])
def test_linear_blocks_are_the_stack_of_per_circuit_operators(K):
    # (gates, qubits) = (1, 3), (3, 2) and (7, 1) all make N = 16 clock variables
    rng = np.random.default_rng(5)
    jobs = [(random_real_circuit(rng, n, m), n) for m, n in [(1, 3), (3, 2), (7, 1), (3, 2)]]
    specs = [clock_system(*job) for job in jobs]
    basis = basis_for(specs[0], K)
    block = assemble_linear_blocks(basis, clock_drift(jobs))
    stack = sp.block_diag([assemble_linear_drift(basis, spec).matrix for spec in specs],
                          format="csr")
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(block, name), getattr(stack, name))


def test_linear_blocks_match_coo_oracle_where_a_variable_holds_two_quanta():
    # a row such as (2, 1, 0) holds label 0 in two slots: the label index lists the row
    # once for 0, at its first slot, so each move of a quantum of 0 is made once
    spec = unequal_rate_spec()
    basis = basis_for(spec, 3)
    assert (basis.orders == [2, 1, 0]).all(axis=1).any()
    oracle = linear_drift_oracle(basis, spec)
    assert csr_digest(assemble_linear_blocks(basis, spec.linear)) == csr_digest(oracle)
    pair = assemble_linear_blocks(basis, sp.block_diag([spec.linear] * 2, format="csr"))
    stack = sp.block_diag([oracle] * 2, format="csr")
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(pair, name), getattr(stack, name))


def test_linear_blocks_check_each_block_against_its_own_scale():
    # residual 0.5e-10 against 1e-12 * 1 * 0.5 in the small block; beside a block of
    # entries 1e6 a scale shared by the whole sum would let it pass
    big = sp.csr_matrix(np.array([[0.0, 1e6], [-1e6, 0.0]]))
    small = sp.csr_matrix(np.array([[0.0, 0.3], [-0.3 + 1e-10, 0.0]]))
    spec = SystemSpec(name="skew", rates=np.array([0.5, 0.5]), noise=0.1)
    with pytest.raises(DriftError, match="lambda_i b_ij = -lambda_j b_ji"):
        assemble_linear_blocks(basis_for(spec, 1), sp.block_diag([big, small], format="csr"))


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


def test_cubic_ladder_matrix_pinned():
    # sha256 of the raw K = 16 ladder matrix's CSR arrays; any change in how
    # the ladder route rounds or orders its entries shows here
    spec = oscillator_system(0.1, 0.02)
    mat = spec.nonlinear.assemble(basis_for(spec, 16), spec)
    assert csr_digest(mat) == \
        "7dfcb2d18b493d004ba86555caad5717812b1f3e452a79d044e78194dabfadc2"


def test_nse_taylor_green_operator_pinned():
    # sha256 of the NSE-40 K = 3 advection matrix's CSR arrays, raw and
    # skew-symmetrised (the operator of configs/nse_taylor_green.json); any
    # change in how the NSE assembly rounds or orders its entries shows here.
    # The raw matrix R - R^T is skew as floats, so symmetrising leaves it as it is
    spec = nse_system(40, 0.1, 1e-5)
    basis = basis_for(spec, 3)
    raw = spec.nonlinear.assemble(basis, spec)
    assert csr_digest(raw) == \
        "cb68706bdcf774eedc525127857437c7fc4f0a25662b0e1115b1b5d2c3b68206"
    op = assemble_nonlinear_drift(basis, spec).matrix
    assert csr_digest(op) == \
        "cb68706bdcf774eedc525127857437c7fc4f0a25662b0e1115b1b5d2c3b68206"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.booleans(), st.data())
def test_ladder_targets_match_dense_lookup(n_vars, k, by_weight, data):
    # each candidate overwrites one or two label slots of a basis row; its
    # target is the dense row with the old label's quantum removed and the
    # new label's added (the padding label N stands for no quantum)
    rates = np.linspace(0.3, 0.9, n_vars)
    scheme = (RegularizationScheme.by_weight(0.3 * k + 0.05) if by_weight
              else RegularizationScheme.by_max_order(k, rates))
    basis = enumerate_basis(n_vars, scheme, rates)
    width = basis.max_degree
    table = {tuple(int(v) for v in row): i for i, row in enumerate(basis.orders)}
    n_edits = min(2, width)
    cands = data.draw(st.lists(st.tuples(
        st.integers(0, len(basis) - 1),
        st.lists(st.integers(0, width - 1), min_size=n_edits, max_size=n_edits, unique=True),
        st.lists(st.integers(0, n_vars), min_size=n_edits, max_size=n_edits)),
        min_size=1, max_size=25))
    expected = []
    for col, slots, labels in cands:
        dense = np.append(basis.orders[col], 0)
        for slot, label in zip(slots, labels):
            dense[basis.labels[col, slot]] -= 1
            dense[label] += 1
        expected.append(table.get(tuple(int(v) for v in dense[:n_vars]), -1))
    cols = np.array([c for c, _, _ in cands])
    edits = [(np.array([s[e] for _, s, _ in cands]), np.array([lb[e] for _, _, lb in cands]))
             for e in range(n_edits)]
    rows, hit = operators._ladder_hits(basis, cols, edits)
    expected = np.array(expected)
    np.testing.assert_array_equal(hit, np.nonzero(expected >= 0)[0])
    np.testing.assert_array_equal(rows, expected[hit])


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
                    h_norm(n, pts, spec) * c_func(pts, i) * h_norm(lower, pts, spec),
                    spec, 64)
            assert total == pytest.approx(C[ni, mi], abs=1e-8)


def test_inconsistent_table_rejected():
    # c_1 = x_1 is not divergence-free; the raw matrix is far from skew
    measure = SystemSpec(name="measure", rates=np.array([0.5, 0.5]), noise=0.2)
    drift = CoefficientTableDrift({0: (0,)}, {0: [((1,), 1.0)]}, measure)
    spec = SystemSpec(name="bad", rates=measure.rates, noise=measure.noise,
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


# ------------------------------------------------------------------ quadrature assembly


@pytest.mark.parametrize("scheme", [RegularizationScheme.by_max_order(8, [0.1, 0.1]),
                                    RegularizationScheme.by_weight(1.6)],
                         ids=["K8", "r1.6"])
def test_quadrature_matches_dense_oracle(scheme):
    # the shipped audit bundle's two bases: 44 rows at K = 8, 152 rows at r = 1.6
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    basis = enumerate_basis(2, scheme, spec.rates)
    fast = spec.nonlinear.assemble(basis, spec).toarray()
    np.testing.assert_allclose(fast, quadrature_oracle(spec.nonlinear, basis, spec).toarray(),
                               rtol=0.0, atol=1e-13)


def test_quadrature_three_variables_matches_dense_oracle():
    # rotation in the (x1, x2) plane at speed 1/(1 + |x|^2), |x| over all three
    # variables; divergence-free for lambda_1 = lambda_2, since
    # div c = x2 d_1 omega - x1 d_2 omega = 0 and sum_i lambda_i x_i c_i = 0
    rates = np.array([0.1, 0.1, 0.2])

    def omega(x):
        return 1.0 / (1.0 + x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)

    drift = QuadratureDrift({0: lambda x: x[..., 1] * omega(x),
                             1: lambda x: -x[..., 0] * omega(x)},
                            {0: (0, 1, 2), 1: (0, 1, 2)}, n_nodes=24)
    spec = SystemSpec(name="rotation-3d", rates=rates, noise=0.1, nonlinear=drift,
                      strength=0.5)
    basis = basis_for(spec, 4)
    fast = drift.assemble(basis, spec).toarray()
    oracle = quadrature_oracle(drift, basis, spec).toarray()
    assert abs(oracle).max() > 0.1
    np.testing.assert_allclose(fast, oracle, rtol=0.0, atol=1e-13)
    # the x3 dependence reaches the matrix: rows and columns differing in m_3 couple
    x3 = basis.orders[:, 2]
    assert abs(fast[x3[:, None] != x3[None, :]]).max() > 1e-3


def test_quadrature_rejects_more_than_three_variables():
    rates = np.full(4, 0.1)
    drift = QuadratureDrift({0: lambda x: x[..., 1], 1: lambda x: -x[..., 0]},
                            {0: (1,), 1: (0,)}, n_nodes=8)
    spec = SystemSpec(name="four", rates=rates, noise=0.1, nonlinear=drift, strength=1.0)
    with pytest.raises(DriftError, match="quadrature assembly is limited to N <= 3"):
        assemble_nonlinear_drift(basis_for(spec, 1), spec)


# Relative raw asymmetry at lambda = 0.1 (tolerance 1e-10), measured:
# 5.1e-14, 6.9e-11, 5.3e-11, 9.4e-11 pass; 1.85e-10, 2.2e-10, 1.79e-10 fail.
@pytest.mark.parametrize("q_over_lam, K, resolved", [
    (1, 16, True), (2, 12, True), (2.5, 4, True), (3, 2, True),
    (2, 16, False), (2.5, 8, False), (3, 3, False)])
def test_bounded_profile_working_range(q_over_lam, K, resolved):
    spec = oscillator_system(lam=0.1, q=q_over_lam * 0.1, profile="bounded")
    basis = basis_for(spec, K)
    if resolved:
        assemble_nonlinear_drift(basis, spec)
        return
    with pytest.raises(DriftError, match=(
            r"raw drift matrix asymmetry \S+ exceeds 1\.0e-10; the 200-node Gauss-Hermite "
            f"rule does not resolve the drift at q/lambda_1 = {q_over_lam:g}$")):
        assemble_nonlinear_drift(basis, spec)


# ------------------------------------------------------------------ divergence checks


def test_divergence_free_oscillator():
    report = verify_divergence_free(oscillator_system(0.1, 0.02))
    assert report["passed"]
    assert report["divergence_residual"] == 0.0
    # sum_i lambda_i x_i c_i(x) cancels up to rounding: 4.4e-16 measured
    assert report["radial_residual"] < 1e-14


def test_divergence_free_measures_cubic_radial_drift():
    # the radial condition is evaluated from the drift's own values: scaling
    # c_1 by 1.1 leaves div c = 0 (c_1 does not depend on x1) yet breaks
    # sum_i lambda_i x_i c_i = 0
    spec = oscillator_system(0.1, 0.02)
    drift = spec.nonlinear
    intact = drift.value

    def broken_value(x, out=None):
        out = intact(x, out=out)
        out[..., 0] *= 1.1
        return out

    drift.value = broken_value
    report = verify_divergence_free(spec)
    assert not report["passed"]
    assert report["divergence_residual"] == 0.0
    assert report["radial_residual"] > 1e-8


def test_divergence_free_table_drift_numeric():
    report = verify_divergence_free(table_oscillator_spec(), n_points=50)
    assert report["passed"]


def test_divergence_free_bounded_profile_measures_its_drift():
    # the audit differentiates the drift functions; an added 0.3 x1 in c_1
    # gives divergence 0.3 everywhere and must fail it
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    report = verify_divergence_free(spec)
    assert report["passed"]
    assert 0.0 < report["divergence_residual"] < 1e-9
    funcs = spec.nonlinear.funcs
    intact = funcs[0]
    funcs[0] = lambda x: intact(x) + 0.3 * x[..., 0]
    broken = verify_divergence_free(spec)
    assert not broken["passed"]
    assert broken["divergence_residual"] == pytest.approx(0.3, rel=1e-6)


def test_divergence_free_detects_broken_linear_part():
    b = sp.csr_matrix(np.array([[0.0, 0.3], [0.3, 0.0]]))
    spec = SystemSpec(name="bad", rates=np.array([0.5, 0.5]), noise=0.1,
                      linear=b, linear_strength=0.3)
    report = verify_divergence_free(spec)
    assert not report["passed"]
    assert report["linear_residual"] == pytest.approx(2 * 0.3 * 0.5)


def test_divergence_free_one_sided_linear_entry():
    # b_01 = 0.3 with b_10 absent: the swapped copy has nothing to cancel
    b = sp.csr_matrix(np.array([[0.0, 0.3], [0.0, 0.0]]))
    spec = SystemSpec(name="one-sided", rates=np.array([0.5, 0.5]), noise=0.1,
                      linear=b, linear_strength=0.3)
    report = verify_divergence_free(spec)
    assert not report["passed"]
    assert report["linear_residual"] == spec.rates[0] * 0.3


# ------------------------------------------------------------------ audits


def test_sparsity_audit_linear_rotation():
    spec = rotation_spec(omega=1.0)
    basis = basis_for(spec, 3)
    audit = sparsity_audit(assemble_linear_drift(basis, spec), spec)
    assert audit["max_col_nonzeros"] <= 2
    assert audit["nonzero_bound"] == 1 * 3 * 4  # s K (K+1) with s = 1
    assert audit["passed"]


def test_sparsity_audit_dissipation():
    spec = rotation_spec()
    basis = basis_for(spec, 4)
    audit = sparsity_audit(assemble_dissipation(basis, spec), spec)
    assert audit["norm_estimate"] == pytest.approx(basis.weights.max())
    assert audit["passed"]


def test_sparsity_audit_bounded_drift_norm():
    spec = oscillator_system(lam=0.1, q=0.1, profile="bounded")
    basis = basis_for(spec, 6)
    audit = sparsity_audit(assemble_nonlinear_drift(basis, spec), spec)
    assert math.isfinite(audit["norm_bound"])
    assert audit["norm_estimate"] <= audit["norm_bound"]
    assert audit["passed"]


def test_sparsity_audit_unbounded_drift_marked():
    spec = oscillator_system(0.1, 0.02)
    basis = basis_for(spec, 3)
    audit = sparsity_audit(assemble_nonlinear_drift(basis, spec), spec)
    assert audit["norm_bound"] == "not applicable (J = inf)"
    assert audit["passed"]


@pytest.mark.parametrize("K", [1, 2, 3])
def test_sparsity_audit_passes_tight_linear_norm(K):
    # one X gate: the clock drift's norm equals its bound s J1 K sqrt(kappa), and
    # Lanczos reaches it to rounding (within 1.4e-16 of it at K = 1..3)
    spec = clock_system([(GATE_MATRICES["X"], (0,))], 1)
    audit = sparsity_audit(assemble_linear_drift(basis_for(spec, K), spec), spec)
    assert audit["norm_estimate"] <= audit["norm_bound"] * (1 + NORM_MARGIN)
    assert audit["norm_estimate"] == pytest.approx(audit["norm_bound"], rel=1e-12)
    assert audit["passed"]


@pytest.mark.parametrize("make_spec, role", [
    (lambda: clock_system([(GATE_MATRICES["X"], (0,))], 1), "linear"),
    (lambda: oscillator_system(lam=0.1, q=0.1, profile="bounded"), "nonlinear"),
])
def test_sparsity_audit_fails_an_estimate_above_its_bound(make_spec, role, monkeypatch):
    # a Lanczos estimate is a lower bound on the norm, so one above the
    # bound, by however little beyond rounding, proves a violation
    spec = make_spec()
    basis = basis_for(spec, 3)
    op = {"linear": assemble_linear_drift, "nonlinear": assemble_nonlinear_drift}[role](
        basis, spec)
    bound = sparsity_audit(op, spec)["norm_bound"]
    monkeypatch.setattr(operators, "operator_norm_estimate",
                        lambda matrix: bound * (1 + 1e-7))
    audit = sparsity_audit(op, spec)
    assert audit["norm_estimate"] == bound * (1 + 1e-7)
    assert not audit["passed"]


def test_power_iteration_against_dense_norm():
    # Lanczos with the default arguments (measured 8.3e-13 short)
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(40, 40))
    est = operator_norm_estimate(sp.csr_matrix(mat))
    assert est == pytest.approx(np.linalg.norm(mat, 2), rel=1e-9)


def test_norm_estimate_resolves_a_clustered_spectrum():
    # skew 2x2 blocks [[0, s], [-s, 0]], with the +-pairing of the NSE operator: one
    # s = 1 above m values up to 0.999; 200 power steps stopped 2.7e-3 short here
    m = 1000
    blocks = [np.array([[0.0, s], [-s, 0.0]]) for s in [1.0, *np.linspace(0, 0.999, m)]]
    est = operator_norm_estimate(sp.block_diag(blocks, format="csr"))
    assert 1 - 1e-8 <= est <= 1 + 1e-12


def test_norm_estimate_of_a_non_finite_matrix_is_non_finite():
    # check_finite then names the audit field; the estimate itself must not raise
    mat = sp.csr_matrix(np.diag([1.0, np.inf, 2.0]))
    assert not math.isfinite(operator_norm_estimate(mat))


def test_norm_estimate_of_an_overflowing_matrix_is_non_finite():
    # finite entries near 1e147: alpha stays finite but beta^2 overflows, which must not
    # reach the tridiagonal eigensolver (it raises on a non-finite entry)
    mat = sp.random(40, 40, density=0.2, random_state=1, format="csr") * 1e147
    assert np.all(np.isfinite(mat.data))
    assert not math.isfinite(operator_norm_estimate(mat))


@pytest.mark.parametrize("found, info", [(1, 2), (0, 0)])
def test_norm_estimate_is_non_finite_when_the_bisection_fails(monkeypatch, found, info):
    # a nonzero info (no convergence) or no eigenvalue found from dstebz gives nan,
    # not an unchecked Ritz value
    def failing(d, e, *args):
        return found, np.full(len(d), 5.0), np.ones(len(d), np.int32), np.ones(len(d), np.int32), info

    monkeypatch.setattr(operators, "dstebz", failing)
    mat = sp.random(40, 40, density=0.2, random_state=1, format="csr")
    assert math.isfinite(operator_norm_estimate(mat, n_iter=1))  # step 0 reads alpha_0
    assert math.isnan(operator_norm_estimate(mat))


def test_basis_spec_mismatch_rejected():
    spec = rotation_spec()
    other = SystemSpec(name="other", rates=np.array([0.2, 0.2]), noise=0.02)
    basis = basis_for(other, 2)
    with pytest.raises(BasisError):
        assemble_dissipation(basis, spec)


@pytest.mark.parametrize("rates, noise", [
    ([], 0.1), ([0.3, 0.2], 0.1), ([0.0, 0.2], 0.1), ([-0.1, 0.2], 0.1),
    ([0.1, 0.2], 0.0), ([0.1, 0.2], -0.5)],
    ids=["empty", "unsorted", "zero-rate", "negative-rate", "zero-q", "negative-q"])
def test_system_spec_rejects_a_bad_measure(rates, noise):
    with pytest.raises(BasisError):
        SystemSpec(name="bad", rates=np.array(rates), noise=noise)
