"""Sparse assembly of the projected Kolmogorov operators.

Three operators act on the coefficient space: a diagonal dissipation
operator with entries lambda_m, a degree-preserving skew operator built
from the linear drift matrix b, and a skew operator built from the
nonlinear drift functions c_i.  Each nonlinear drift object assembles its
own Galerkin matrix: the closed forms of the cubic oscillator and the
spectral Navier-Stokes advection live in `systems`, and `QuadratureDrift`
here integrates non-polynomial drifts of N <= 3 systems with a
sum-factorised Gauss-Hermite rule, one grid axis at a time.  The NSE
matrix is R - R^T from its raising block R, so its raw asymmetry is
exactly 0, and the radial residual of `verify_divergence_free` checks the
energy conservation of its triples.  The linear and NSE assemblers find
the rows holding a variable with `BasisSet.holders`, move quanta on their
labels and rank each target slot by slot (`_ladder_hits`); the oscillator and
quadrature routes rank dense rows with `BasisSet.positions`.  The linear
assembler (`assemble_linear_blocks`, whose one-block call is
`assemble_linear_drift`) takes a direct sum of drifts over one basis, pairs
b_ij with b_ji by binary search among the sorted keys of b's CSR
(`_skew_parts`) and, like the clock drift, builds its CSR straight from index
arrays in one construction (`_csr_from_entries`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dstebz

from .errors import BasisError, DriftError
from .hermite import gauss_hermite_rule, he_table
from .multiindex import BasisSet, _check_rates

ASYMMETRY_TOL = 1e-10  # relative; above it, a bad drift spec or an unresolved quadrature
DIVERGENCE_TOL = 1e-8  # absolute, on each divergence-free residual
# Every audited norm is exact or a Lanczos lower bound, so an estimate above
# its bound proves a violation; the margin covers rounding only.
NORM_MARGIN = 1e-12


@dataclass(frozen=True)
class SystemSpec:
    """Full description of one dissipative system.

    `rates` are the effective per-variable dissipation rates (any viscosity
    scaling already applied), sorted non-decreasing; with the noise level q
    they fix the Gaussian stationary measure, whose Hermite polynomials
    scale variable i by `scalings[i]` = sqrt(2 lambda_i / q).  `strength` is the
    uniform bound J on ||c(x)|| (may be inf); `linear_strength` bounds
    |b_ij|.  The nonlinear drift object, when present, knows how to
    evaluate itself pointwise and how to assemble its Galerkin matrix.
    """

    name: str
    rates: np.ndarray
    noise: float
    linear: object = None  # sparse matrix b, or None
    nonlinear: object = None  # drift model, or None
    strength: float = 0.0  # J
    linear_strength: float = 0.0  # J1
    scalings: np.ndarray = field(init=False)

    def __post_init__(self):
        rates = _check_rates(self.rates)
        if self.noise <= 0:
            raise BasisError("noise rate q must be positive")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "scalings", np.sqrt(2.0 * rates / self.noise))
        if self.linear is not None:
            linear = sp.csr_matrix(self.linear)
            if linear.shape != (rates.size, rates.size):
                raise BasisError("linear drift matrix has the wrong shape")
            object.__setattr__(self, "linear", linear)

    @property
    def n_vars(self) -> int:
        return self.rates.size

    def gamma(self) -> float:
        """Relative-boundedness constant J * sqrt(2/q); inf when J is."""
        if not math.isfinite(self.strength):
            return math.inf
        return self.strength * math.sqrt(2.0 / self.noise)

    def linear_sparsity(self) -> int:
        """Max nonzeros per row/column of b."""
        if self.linear is None:
            return 0
        b = self.linear.tocoo()
        return int(max(np.bincount(b.row).max(initial=0), np.bincount(b.col).max(initial=0)))

    def sparsity(self) -> int:
        """Declared s: max drift-function support size and b row/col count."""
        s = self.linear_sparsity()
        if self.nonlinear is not None:
            s = max(s, self.nonlinear.sparsity)
        return s

    def drift_value(self, x, out) -> np.ndarray:
        """Write the total drift b(x) = linear + nonlinear part into `out`.

        `x` and `out` are (count, N) float arrays that do not overlap; the
        SDE oracle passes transposed views of its (N, count) state, so
        every column x[:, i] is a contiguous row.
        """
        if self.linear is None:
            if self.nonlinear is None:
                out.fill(0.0)
            else:
                self.nonlinear.value(x, out=out)
            return out
        np.copyto(out, (self.linear @ x.T).T)
        if self.nonlinear is not None:
            out += self.nonlinear.value(x)
        return out


@dataclass(frozen=True)
class SparseOperator:
    """A CSR matrix over a BasisSet with its role."""

    matrix: sp.csr_matrix
    role: str  # "dissipation" | "linear" | "nonlinear"
    basis: BasisSet

    def max_column_nonzeros(self) -> int:
        if self.matrix.nnz == 0:
            return 0
        return int(np.diff(self.matrix.tocsc().indptr).max())


class QuadratureDrift:
    """Nonlinear drift given by point-evaluable functions (N <= 3 systems).

    Assembly integrates each Galerkin matrix element with a tensor
    Gauss-Hermite rule; `n_nodes` must be generous enough that the raw
    asymmetry stays below the assembly tolerance.  Sum-factorised: c_i is
    evaluated once on the n^N grid (n = n_nodes), which is contracted one
    axis at a time against the products of two 1-d Hermite factors of
    degree <= K.  At N = 2 that is 2 n^2 (K+1)^2 + 2 n (K+1)^4 flops per
    component (9 Mflop at n = 200, K = 8) in n^N + (K+1)^(2N) floats.
    """

    def __init__(self, funcs: dict, supports: dict, n_nodes: int = 200):
        self.funcs = funcs
        self.supports = {i: tuple(s) for i, s in supports.items()}
        self.n_nodes = n_nodes
        self.sparsity = max((len(s) for s in self.supports.values()), default=0)

    def value(self, x, out=None):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape) if out is None else out
        out.fill(0.0)
        for i, f in self.funcs.items():
            out[..., i] = f(x)
        return out

    def divergence(self, x, step: float = 1e-5):
        """Central-difference divergence sum_i d c_i / d x_i."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for i, f in self.funcs.items():
            ei = np.zeros(x.shape[-1])
            ei[i] = step
            total += (f(x + ei) - f(x - ei)) / (2 * step)
        return total

    def assemble(self, basis: BasisSet, spec) -> sp.csr_matrix:
        n_vars = basis.n_vars
        if n_vars > 3:
            raise DriftError("quadrature assembly is limited to N <= 3")
        if basis.max_degree > 170:  # d! overflows a float from d = 171
            raise DriftError(f"quadrature assembly is limited to degree <= 170, got "
                             f"{basis.max_degree}")
        rates, q = spec.rates, spec.noise
        y, w = gauss_hermite_rule(self.n_nodes)
        axes = [y / s for s in spec.scalings]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

        # every axis (node j of axis v is y_j / s_v) shares one table of factor
        # pairs: pair[a (K+1) + a', j] = phi[a, j] phi[a', j],
        # phi[d, j] = sqrt(w_j) He_d(y_j) / sqrt(d!)
        m = basis.max_degree + 1
        factorials = np.array([float(math.factorial(d)) for d in range(m)])
        phi = he_table(m - 1, y) * np.sqrt(w / factorials[:, None])
        pair = (phi[:, None] * phi[None, :]).reshape(m * m, -1)
        # every index of degree <= K, zero included; W[k, l] = t[k_1, l_1, ..., k_N, l_N]
        ext = np.vstack([np.zeros((1, n_vars), dtype=basis.orders.dtype), basis.orders])
        pick = tuple(o for v in range(n_vars) for o in (ext[:, v, None], ext[None, :, v]))

        dense = np.zeros((len(basis), len(basis)))
        for i, f in self.funcs.items():
            t = np.asarray(f(pts), dtype=float)
            for _ in range(n_vars):  # contract the leading grid axis; its pair axis goes last
                t = np.tensordot(t, pair, axes=([0], [1]))
            W = t.reshape((m, m) * n_vars)[pick]
            cols = np.nonzero(basis.orders[:, i])[0]
            base = basis.orders[cols]
            factor0 = np.sqrt(2.0 * base[:, i] * rates[i] / q)
            base[:, i] -= 1
            # ext index = basis position + 1; the zero row (position -1) is 0
            dense[:, cols] += factor0 * W[1:, basis.positions(base) + 1]
        return sp.csr_matrix(dense)


def assemble_dissipation(basis: BasisSet, spec) -> SparseOperator:
    """Diagonal operator with entries lambda_m in basis order."""
    _check_spec_basis(basis, spec)
    n = len(basis)
    mat = sp.csr_matrix((basis.weights.copy(), np.arange(n), np.arange(n + 1)), shape=(n, n))
    return SparseOperator(mat, "dissipation", basis)


def assemble_linear_drift(basis: BasisSet, spec) -> SparseOperator:
    """Degree-preserving skew operator of the linear drift b: one `assemble_linear_blocks`."""
    _check_spec_basis(basis, spec)
    n = len(basis)
    if spec.linear is None:
        return SparseOperator(sp.csr_matrix((n, n)), "linear", basis)
    return SparseOperator(assemble_linear_blocks(basis, spec.linear), "linear", basis)


def assemble_linear_blocks(basis: BasisSet, b) -> sp.csr_matrix:
    """Block-diagonal linear operator of a direct sum b of linear drifts, each over the
    variables and rates of `basis`, in one assembly.

    Couples m to m - e_i + e_j with matrix element beta_ij sqrt(m_i (m_j+1)),
    beta_ij = b_ij sqrt(lambda_i/lambda_j); entry (i, j) of b acts in block i // N
    on the local pair (i % N, j % N).  Rejects a block violating
    lambda_i b_ij = -lambda_j b_ji, relative to that block's largest entry.
    """
    n_vars, n, rates = basis.n_vars, len(basis), basis.rates
    blocks = b.shape[0] // n_vars
    i_e, j_e, resid, beta = _skew_parts(b, np.tile(rates, blocks))
    scale = np.ones(blocks)  # max(|b|, 1) over each block's stored entries
    np.maximum.at(scale, np.repeat(np.arange(blocks), np.diff(b.indptr[::n_vars])), abs(b.data))
    bad = resid > 1e-12 * scale[i_e // n_vars] * rates.max()
    if bad.any():
        raise DriftError(
            "linear drift violates lambda_i b_ij = -lambda_j b_ji "
            f"(residual {resid[bad].max():.3e})")

    live = beta != 0.0
    block, i_e = np.divmod(i_e[live], n_vars)
    j_e, b_e = j_e[live] % n_vars, beta[live]
    # (b-entry, column) candidates: each column holding i, with the first of its
    # slots that holds i; i == j never occurs: beta is exactly skew, so its
    # diagonal is 0.  The move relabels that slot as j.
    e, cols, slot = basis.holders(i_e)
    rows, hit = _ladder_hits(basis, cols, [(slot, j_e[e])])
    cols, e = cols[hit], e[hit]
    vals = b_e[e] * np.sqrt(basis.orders[cols, i_e[e]] * (basis.orders[cols, j_e[e]] + 1))
    # distinct (i, j) move a column to distinct rows, so no entry repeats
    offset = block[e] * n
    return _csr_from_entries(rows + offset, cols + offset, vals, blocks * n)


def _csr_from_entries(rows, cols, vals, n: int) -> sp.csr_matrix:
    """The n x n CSR matrix of entries at distinct (row, col), in one construction."""
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))


def _ladder_hits(basis: BasisSet, cols, edits):
    """Apply ladder moves to the labels of basis rows and rank the targets that land.

    Candidate e starts from the labels of row cols[e] and writes label[e]
    into slot[e] for each (slot, label) in `edits` (a lowered variable
    leaves the padding label N).  Returns the positions of the targets in
    the basis, and the indices of those candidates.
    """
    targets = basis.labels[cols]
    e = np.arange(len(cols))
    for slot, label in edits:
        targets[e, slot] = label
    targets.sort(axis=1)
    rows = basis.label_positions(targets)
    hit = np.nonzero(rows >= 0)[0]
    return rows[hit], hit


def assemble_nonlinear_drift(basis: BasisSet, spec) -> SparseOperator:
    """Skew operator from the nonlinear drift.

    The raw assembly is symmetrized as (M - M^T)/2; a relative raw
    asymmetry above `ASYMMETRY_TOL` is rejected rather than silently repaired.
    It means the drift spec is not divergence-free or, for a
    `QuadratureDrift`, that its Gauss-Hermite rule does not resolve the
    drift against the Gaussian measure (which widens with q / lambda).
    The NSE assembly returns R - R^T, on which it reads exactly 0.
    """
    _check_spec_basis(basis, spec)
    n = len(basis)
    if spec.nonlinear is None:
        return SparseOperator(sp.csr_matrix((n, n)), "nonlinear", basis)
    raw = spec.nonlinear.assemble(basis, spec).tocsr()
    scale = abs(raw.data).max(initial=0.0)
    if scale > 0.0:
        asym = abs((raw + raw.T).data).max(initial=0.0) / scale
        if asym > ASYMMETRY_TOL:
            drift = spec.nonlinear
            cause = (f"the {drift.n_nodes}-node Gauss-Hermite rule does not resolve the "
                     f"drift at q/lambda_1 = {spec.noise / spec.rates[0]:.4g}"
                     if isinstance(drift, QuadratureDrift)
                     else "the drift spec violates the divergence-free conditions")
            raise DriftError(f"raw drift matrix asymmetry {asym:.3e} exceeds {ASYMMETRY_TOL:.1e}; "
                             + cause)
    mat = ((raw - raw.T) * 0.5).tocsr()
    mat.eliminate_zeros()
    return SparseOperator(mat, "nonlinear", basis)


def _check_spec_basis(basis: BasisSet, spec):
    if basis.n_vars != spec.n_vars:
        raise BasisError("basis and system have different variable counts")
    if not np.array_equal(basis.rates, spec.rates):
        raise BasisError("basis was enumerated with different rates than the system")


def _skew_parts(b, rates):
    """Row-major (i, j) over b's pattern and its transpose, and the residual and beta_ij there.

    The residual is |lambda_i b_ij + lambda_j b_ji|; beta_ij = (B_ij - B_ji)/2,
    B_ij = b_ij sqrt(lambda_i/lambda_j), is exactly skew in floating point.  b_ij
    and b_ji are found by binary search among the sorted keys i N + j of b's
    canonical CSR; a position outside b's pattern reads 0.
    """
    if not b.has_canonical_format:
        b = b.copy()
        b.sum_duplicates()
    n = b.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(b.indptr))
    cols = b.indices.astype(np.int64)
    keys = rows * n + cols
    union = np.union1d(keys, cols * n + rows)
    i, j = np.divmod(union, n)
    wanted = np.stack([union, j * n + i])
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    b_ij, b_ji = np.where(keys[pos] == wanted, b.data[pos], 0.0)
    root, inv_root = np.sqrt(rates), 1.0 / np.sqrt(rates)
    beta = (b_ij * root[i] * inv_root[j] - b_ji * root[j] * inv_root[i]) * 0.5
    return i, j, abs(rates[i] * b_ij + rates[j] * b_ji), beta


def verify_divergence_free(spec, n_points: int = 100, seed: int = 0) -> dict:
    """Max residuals of the three divergence-free conditions, as an audit block.

    div c = 0 and sum_i lambda_i x_i c_i(x) = 0 are sampled at `n_points`
    Gaussian points, the second from the drift's own values;
    lambda_i b_ij = -lambda_j b_ji is checked on every entry of b.
    """
    rng = np.random.default_rng(seed)
    std = np.sqrt(spec.noise / (2.0 * spec.rates))
    pts = rng.normal(size=(n_points, spec.n_vars)) * (3.0 * std)

    div_res = rad_res = 0.0
    if spec.nonlinear is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # a nan residual fails below
            div_res = float(np.abs(spec.nonlinear.divergence(pts)).max())
            radial = np.einsum("...i,...i->...", pts * spec.rates, spec.nonlinear.value(pts))
            rad_res = float(np.abs(radial).max())
    lin_res = (0.0 if spec.linear is None
               else float(_skew_parts(spec.linear, spec.rates)[2].max(initial=0.0)))
    block = {"divergence_residual": div_res, "radial_residual": rad_res,
             "linear_residual": lin_res}
    block["passed"] = bool(np.max(list(block.values())) < DIVERGENCE_TOL)  # nan fails
    return block


@np.errstate(over="ignore", invalid="ignore")  # an overflow gives the nan returned below
def operator_norm_estimate(matrix, n_iter: int = 200, tol: float = 1e-10,
                           seed: int = 0) -> float:
    """Spectral norm by plain Lanczos on M^T M from a seeded start, BLAS-free: sqrt of the
    top eigenvalue theta of its tridiagonal (eigenvalue k + 1 at step k, by LAPACK bisection
    `dstebz`), a lower bound up to rounding.  It stops once theta moves by at most tol theta,
    at beta = 0 or after min(n_iter, n) steps, which does not bound the error.  A non-finite
    matrix, or one whose products overflow, gives a non-finite estimate."""
    n = matrix.shape[1]
    if n == 0 or (sp.issparse(matrix) and matrix.nnz == 0):
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    v /= math.sqrt(np.sum(v * v))
    mt = matrix.T
    v_prev, beta, alphas, betas, theta = 0.0, 0.0, [], [], 0.0
    for k in range(min(n_iter, n)):
        w = mt @ (matrix @ v)
        alpha = float(np.sum(w * v))
        w -= alpha * v
        w -= beta * v_prev
        beta = math.sqrt(np.sum(w * w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            return math.nan  # beta^2 overflows at smaller entries than alpha does
        alphas.append(alpha)
        last, theta = theta, alpha
        if k > 0:
            found, top, _, _, info = dstebz(alphas, betas, 2, 0.0, 1.0, k + 1, k + 1, 0.0, "E")
            if info != 0 or found != 1:
                return math.nan  # the bisection failed to find eigenvalue k + 1
            theta = top[0]
        if abs(theta - last) <= tol * theta or beta == 0.0:
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    return math.sqrt(max(theta, 0.0))


def sparsity_audit(op: SparseOperator, spec) -> dict:
    """Audit block of an assembled operator against its sparsity and norm bounds."""
    basis = op.basis
    K = basis.max_degree
    nnz = op.max_column_nonzeros()
    if op.role == "dissipation":
        nonzero_bound, norm, bound = 1, float(basis.weights.max()), basis.scheme.R
    elif op.role == "linear":
        s = spec.linear_sparsity()
        kappa = float(spec.rates[-1] / spec.rates[0])
        nonzero_bound = s * K * (K + 1)
        norm = operator_norm_estimate(op.matrix)
        bound = s * spec.linear_strength * K * math.sqrt(kappa)
    elif op.role == "nonlinear":
        s = spec.nonlinear.sparsity if spec.nonlinear is not None else 0
        nonzero_bound = K * (K + 1) ** s
        norm = operator_norm_estimate(op.matrix)
        bound = spec.gamma() * math.sqrt(basis.scheme.R)  # inf when J is
    else:
        raise ValueError(f"unknown operator role {op.role!r}")
    finite = math.isfinite(bound)
    return {"max_col_nonzeros": nnz, "nonzero_bound": nonzero_bound, "norm_estimate": norm,
            "norm_bound": bound if finite else "not applicable (J = inf)",
            "passed": bool(nnz <= nonzero_bound
                           and (not finite or norm <= bound * (1 + NORM_MARGIN)))}
