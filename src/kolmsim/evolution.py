"""Time evolution of the projected Kolmogorov equation.

Each evolver maps a coefficient vector psi, a float array over the operators'
basis, to the vector(s) it reaches; psi obeys d psi/dt = (-A + B + C) psi with A
diagonal positive and B, C skew, so the squared norm can only decrease.  Runs evolve by exact exponential actions, all
through `evolve_direct_sum`, the one caller of `expm_multiply` (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33 (2011) 488-511): the block diagonal of any number of
generators, at one time or over a time grid, with numpy's global RNG pinned; its
result passes `states._finite`, so a run refuses a nan or infinite vector.
`evolve_reference` is its one-block case; `evolve_expm` uses dense `expm` up to
DENSE_EXP_LIMIT and delegates above.  The splitting e^{-tau A} e^{tau B} e^{tau C}
is audited against its bound; RK45 (`evolve_rk45`) is the tests' oracle.

Readout is linear, so by duality <r, e^{tG} psi> = <e^{tG^T} r, psi>: one
solve under `KEOperators.transpose()` from a readout state r serves every
linear observable read at that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import BasisError, NumericalError, ResourceLimitError
from .multiindex import BasisSet, RegularizationScheme, enumerate_basis
from .operators import (
    NORM_MARGIN,
    SparseOperator,
    assemble_dissipation,
    assemble_linear_drift,
    assemble_nonlinear_drift,
    operator_norm_estimate,
)
from .states import _finite, initial_state

DENSE_EXP_LIMIT = 2000  # above this, exponentials act through evolve_direct_sum
MAX_ACTION_WORK = 1e6   # cap on t ||G||_1 of one exponential; oscillator.json reads 455


@dataclass(frozen=True)
class KEOperators:
    """The assembled (dissipation, linear, nonlinear) triple over one basis."""

    dissipation: SparseOperator
    linear: SparseOperator
    nonlinear: SparseOperator

    @property
    def basis(self) -> BasisSet:
        return self.dissipation.basis

    def generator(self) -> sp.csr_matrix:
        """-A + B + C as one sparse matrix."""
        return (-self.dissipation.matrix + self.linear.matrix
                + self.nonlinear.matrix).tocsr()

    def transpose(self) -> KEOperators:
        """The operators of G^T: A is diagonal, B and C are transposed exactly."""
        return KEOperators(self.dissipation,
                           replace(self.linear, matrix=self.linear.matrix.T.tocsr()),
                           replace(self.nonlinear, matrix=self.nonlinear.matrix.T.tocsr()))


def assemble_all(basis: BasisSet, spec) -> KEOperators:
    return KEOperators(assemble_dissipation(basis, spec),
                       assemble_linear_drift(basis, spec),
                       assemble_nonlinear_drift(basis, spec))


def _check_work(gen, t: float):
    """Refuse an exponential of t G (G in CSR) when t ||G||_1 exceeds MAX_ACTION_WORK
    (or is nan): the cost of `expm_multiply` and of scaling and squaring grows with it."""
    col_sums = np.bincount(gen.indices, weights=np.abs(gen.data), minlength=gen.shape[1])
    work = t * col_sums.max(initial=0.0)
    if not work <= MAX_ACTION_WORK:  # also refuses nan
        raise ResourceLimitError(f"exponential action work t ||G||_1 = {work:.3g} exceeds "
                                 f"the cap of {MAX_ACTION_WORK:.3g}")


def evolve_direct_sum(generators, vectors, t: float, n_points: int = 0) -> list:
    """Entry k: vectors[k]'s slice of e^{tG} v, v the concatenated vectors and G the block
    diagonal of the CSR `generators` (e^{tG_k} v_k when they pair up), or with `n_points`
    its (n_points, n_k) rows on the uniform grid over [0, t]: one action, refused by
    `_check_work`, whose step choice the largest block sets.  Its norm estimates
    (`onenormest`) draw from numpy's global RNG, seeded for the call and restored after,
    so a run's bytes do not depend on the process."""
    gen = generators[0] if len(generators) == 1 else sp.block_diag(generators, format="csr")
    _check_work(gen, t)
    psi = np.concatenate(vectors)
    caller_rng = np.random.get_state()
    np.random.seed(0)
    try:
        if n_points:
            ys = expm_multiply(gen, psi, start=0.0, stop=t, num=n_points, endpoint=True)
        else:
            ys = expm_multiply(t * gen, psi)
    finally:
        np.random.set_state(caller_rng)
    return np.split(_finite(ys), np.cumsum([len(v) for v in vectors])[:-1], axis=-1)


def evolve_reference(psi, ops: KEOperators, t: float) -> np.ndarray:
    """Exact action e^{tG} psi, one block of `evolve_direct_sum`."""
    return evolve_direct_sum([ops.generator()], [psi], t)[0]


def solve_ivp(*args, **kwargs):
    """scipy's `solve_ivp`, imported on the first call: `scipy.integrate` is slow to load."""
    from scipy.integrate import solve_ivp as solve
    return solve(*args, **kwargs)


def evolve_rk45(psi, ops: KEOperators, t: float, t_eval=None, rtol: float = 1e-9):
    """Adaptive RK 5(4) integration over [0, t]; local error controlled to `rtol`.

    Returns the final vector, or its (len(t_eval), n) rows when `t_eval` is given.
    """
    gen = ops.generator()
    scale = max(np.abs(psi).max(), 1e-30)
    sol = solve_ivp(lambda _, y: gen @ y, (0.0, t), psi, method="RK45",
                    t_eval=t_eval, rtol=rtol, atol=1e-12 * scale)
    if sol.status != 0:
        raise NumericalError(
            f"RK45 integrator failed near t = {sol.t[-1]:.6g}: {sol.message}")
    return sol.y.T if t_eval is not None else sol.y[:, -1]


def _propagator(matrix, tau: float):
    """v -> exp(tau M) v: dense `expm` up to DENSE_EXP_LIMIT, `evolve_direct_sum` above;
    refused by `_check_work`."""
    _check_work(matrix, tau)
    if matrix.shape[0] <= DENSE_EXP_LIMIT:
        dense = expm(tau * matrix.toarray())
        return lambda v: dense @ v
    return lambda v: evolve_direct_sum([matrix], [v], tau)[0]


def _exp_steps(matrix, vector, t: float) -> list:
    """exp(k t/32 M) v for k = 1..32: one propagator of step t/32, applied 32 times."""
    step, out = _propagator(matrix, t / 32), []
    for _ in range(32):
        vector = step(vector)
        out.append(vector)
    return out


def evolve_expm(psi, ops: KEOperators, t: float) -> np.ndarray:
    """Exact exponential action of the full generator through `_propagator`."""
    return _propagator(ops.generator(), t)(psi)


def evolve_trotter(psi, ops: KEOperators, t: float, steps: int) -> np.ndarray:
    """First-order splitting: `steps` applications of e^{-tau A} e^{tau B} e^{tau C}."""
    if steps < 1:
        raise NumericalError("Trotter step count must be >= 1")
    tau = t / steps
    decay = np.exp(-tau * ops.basis.weights)
    factors = [_propagator(op.matrix, tau) for op in (ops.nonlinear, ops.linear)
               if op.matrix.nnz]
    for _ in range(steps):
        for factor in factors:
            psi = factor(psi)
        psi = decay * psi
    return psi


def trotter_error_bound(scheme_R: float, max_degree: int, gamma: float,
                        linear_strength: float, sparsity: int, kappa: float,
                        t: float, steps: int, initial_norm: float) -> float:
    """Right-hand side of the first-order splitting error bound.

    (t^2/steps) (R^2 + s^2 J1^2 K^2 kappa + gamma^2 R) ||psi(0)||, without
    the unstated O(1) constant; audits report measured/bound ratios.
    """
    norms_sq = (scheme_R ** 2
                + (sparsity * linear_strength * max_degree) ** 2 * kappa
                + gamma ** 2 * scheme_R)
    return (t ** 2 / steps) * norms_sq * initial_norm


def norm_monotonicity(ops: KEOperators) -> dict:
    """Audit block of an exact certificate: G + G^T + 2A = 0 entry by entry and
    A >= 0 give d||psi||^2/dt = -2 psi^T A psi <= 0 for every t.  Rounding commutes
    with negation, so the residual is exactly 0.0 when B and C are skew as floats."""
    a, gen = ops.dissipation.matrix, ops.generator()
    residual = float(abs((gen + gen.T + 2 * a).data).max(initial=0.0))
    return {"symmetric_part_residual": residual,
            "passed": residual == 0.0 and bool(np.all(a.data >= 0))}


def regularization_gap(spec, u0, t: float, r_values, r_large: float) -> dict:
    """Audit block of the truncation gap: one row per weight cutoff r in `r_values`.

    The `r_large` basis is enumerated, assembled and evolved once; its trajectory
    stands in for the exact solution, and each small-basis one is zero-padded
    into it.  Each generator (the large one and each restriction) gets one
    propagator of step t/32, applied over the uniform 32-step grid.  Each row
    holds sup_t ||gap||^2 against the bound 3 gamma^2 / (2 r) * ||psi(0)||^2 (finite J).
    """
    gamma = spec.gamma()
    if not math.isfinite(gamma):
        raise NumericalError(
            "regularization bound needs a finite drift strength J; "
            f"system {spec.name} declares J = inf")
    if not all(0 < r_small <= r_large for r_small in r_values):
        raise NumericalError("need 0 < r_small <= r_large")
    if spec.linear is not None and spec.linear.nnz:
        raise NumericalError("weight-cutoff regularization requires b == 0")

    basis_big = enumerate_basis(spec.n_vars, RegularizationScheme.by_weight(r_large),
                                spec.rates)
    gen_big = assemble_all(basis_big, spec).generator()
    psi0_big = initial_state(u0, basis_big)
    big = np.array(_exp_steps(gen_big, psi0_big, t))
    rows = []
    for r_small in r_values:
        basis_small = enumerate_basis(spec.n_vars, RegularizationScheme.by_weight(r_small),
                                      spec.rates)
        # the small-basis operator is the restriction of the large-basis one
        idx = basis_big.positions(basis_small.orders)
        if np.any(idx < 0):
            raise BasisError("the small weight-cutoff basis is not nested in the large one")
        gap = big.copy()  # the small trajectory, zero-padded, subtracted from the big one
        gap[:, idx] -= _exp_steps(gen_big[np.ix_(idx, idx)], psi0_big[idx], t)
        sup_sq = float((gap ** 2).sum(axis=1).max())  # nan propagates; the gap is 0 at t = 0
        bound = 3.0 * gamma ** 2 / (2.0 * r_small) * float(psi0_big @ psi0_big)
        rows.append({"r": r_small, "measured_sup_sq": sup_sq, "bound": bound,
                     "passed": sup_sq <= bound})
    return {"r_reference": r_large, "t": t, "rows": rows,
            "passed": all(row["passed"] for row in rows)}


def smoothing_bound_audit(ops: KEOperators, t_grid, gamma: float = math.inf) -> dict:
    """Audit block of the semigroup smoothing bounds, Lambda = A - B: norm/bound ratios.

    ||A^{1/2} e^{-t Lambda}|| <= 0.5 sqrt(kappa/t) with kappa = lambda_N/lambda_1;
    the drift variant ||C e^{-t Lambda}|| <= 0.5 gamma sqrt(kappa/t) is audited
    only when gamma is finite and C != 0.  B must commute with A (NumericalError
    if not); then e^{tB} is orthogonal and e^{-t Lambda} = e^{-tA} e^{tB}, so the
    first norm is max_m sqrt(w_m) e^{-t w_m} exactly and the second is ||C e^{-tA}||,
    estimated from below by Lanczos (`operator_norm_estimate`).
    """
    basis = ops.basis
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise NumericalError("smoothing bounds hold for t > 0 only")
    # [A, B] = 0 iff B couples equal weights only; each nonzero of B moves one
    # quantum from i to j, so row minus column dotted with the rates is lambda_j - lambda_i
    b = ops.linear.matrix.tocoo()
    if np.any((basis.orders[b.row] - basis.orders[b.col]) @ basis.rates != 0):
        raise NumericalError("smoothing audit needs the linear drift to commute with "
                             "the dissipation: b couples variables of unequal rates")
    kappa = float(basis.rates[-1] / basis.rates[0])
    decay = np.exp(-t_grid[:, None] * basis.weights)
    d_norms = (np.sqrt(basis.weights) * decay).max(axis=1)
    bounds = 0.5 * np.sqrt(kappa / t_grid)
    passed = np.all(d_norms <= bounds * (1 + NORM_MARGIN))
    block = {"times": list(map(float, t_grid)),
             "dissipation_ratio": list(map(float, d_norms / bounds)),
             "drift_ratio": "not applicable (J = inf or C = 0)"}
    if math.isfinite(gamma) and ops.nonlinear.matrix.nnz > 0:
        c_norms = np.array([operator_norm_estimate(ops.nonlinear.matrix @ sp.diags(row))
                            for row in decay])
        c_bounds = gamma * bounds
        passed = passed and np.all(c_norms <= c_bounds * (1 + NORM_MARGIN))
        block["drift_ratio"] = list(map(float, c_norms / c_bounds))
    block["passed"] = bool(passed)
    return block
