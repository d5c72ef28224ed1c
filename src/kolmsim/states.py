"""Initial states, the coherent readout state, and expectation readout.

A monomial observable prod x_i^{d_i} expands into finitely many Hermite
coefficients; the solver always evolves the centered part (the constant
term is the analytic mean and is re-added at readout on request).  The
readout state is the coherent embedding of the initial point x, truncated
per variable; its inner product with the evolved coefficient vector is the
noise-averaged expectation v(t, x).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisError
from .evolution import KEState
from .hermite import HermiteContext, monomial_in_hermite
from .multiindex import BasisSet

DEFAULT_DEGREE_CAP = 6


@dataclass(frozen=True)
class MonomialObservable:
    """u0(x) = prod_i x_i^{d_i} with a small total degree."""

    exponents: tuple
    ctx: HermiteContext
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        exps = tuple(int(d) for d in self.exponents)
        if len(exps) != self.ctx.n_vars:
            raise BasisError("exponent vector does not match the variable count")
        if any(d < 0 for d in exps):
            raise BasisError("exponents must be non-negative")
        if not 1 <= sum(exps) <= self.degree_cap:
            raise BasisError(
                f"total degree must lie in [1, {self.degree_cap}]")
        object.__setattr__(self, "exponents", exps)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def mean(self) -> float:
        """Gaussian mean, zero unless every exponent is even."""
        if any(d % 2 for d in self.exponents):
            return 0.0
        out = 1.0
        for i, d in enumerate(self.exponents):
            if d == 0:
                continue
            half = d // 2
            sigma_sq = self.ctx.noise / (2.0 * self.ctx.rates[i])
            out *= math.factorial(d) / (2 ** half * math.factorial(half)) * sigma_sq ** half
        return out

    def centered_norm_sq(self) -> float:
        """||u0 - mean||^2 against the Gaussian measure (Wick closed form)."""
        out = 1.0
        for i, d in enumerate(self.exponents):
            if d == 0:
                continue
            sigma_sq = self.ctx.noise / (2.0 * self.ctx.rates[i])
            out *= math.factorial(2 * d) / (2 ** d * math.factorial(d)) * sigma_sq ** d
        return out - self.mean() ** 2

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for i, d in enumerate(self.exponents):
            if d:
                out = out * x[..., i] ** d
        return out


def _monomial_terms(u0: MonomialObservable):
    """Hermite expansion of u0 as {orders: coefficient}, constant included."""
    per_var = []
    for i, d in enumerate(u0.exponents):
        if d == 0:
            per_var.append([(i, 0, 1.0)])
            continue
        s = u0.ctx.scalings[i]
        entries = []
        for p, coeff in monomial_in_hermite(d):
            entries.append((i, p, coeff * math.sqrt(math.factorial(p)) / s ** d))
        per_var.append(entries)
    terms = {}
    for combo in itertools.product(*per_var):
        orders = tuple(p for _, p, _ in combo)
        coeff = 1.0
        for _, _, c in combo:
            coeff *= c
        terms[orders] = terms.get(orders, 0.0) + coeff
    return terms


def initial_state(u0: MonomialObservable, basis: BasisSet) -> KEState:
    """Coefficient vector of the centered observable u0 - mean(u0)."""
    # the degree-0 term is the mean, re-added at readout on request
    terms = {orders: value for orders, value in _monomial_terms(u0).items() if sum(orders)}
    pos = basis.positions(np.array(list(terms), dtype=np.int64).reshape(-1, basis.n_vars))
    if np.any(pos < 0):
        orders = list(terms)[int(np.argmax(pos < 0))]
        raise BasisError(
            f"observable needs index {orders} outside the basis "
            f"(degree {sum(orders)} > K = {basis.max_degree}?)")
    coeffs = np.zeros(len(basis))
    coeffs[pos] = list(terms.values())
    return KEState(coeffs, basis, 0.0)


def combination_state(terms, basis: BasisSet) -> KEState:
    """Initial state of a linear combination sum_k c_k * u0_k (by linearity)."""
    coeffs = np.zeros(len(basis))
    for weight_, u0 in terms:
        coeffs += weight_ * initial_state(u0, basis).coefficients
    return KEState(coeffs, basis, 0.0)


def _support(x) -> list:
    return [int(i) for i in np.nonzero(np.asarray(x))[0]]


def readout_candidates(x, basis: BasisSet, truncation: int, ctx: HermiteContext):
    """Sparse (position, coefficient) pairs of the truncated coherent state.

    Candidates live on the support of x with per-variable order at most
    `truncation`; there are at most (truncation+1)^s of them, so the state
    is never materialized over the whole basis.
    """
    x = np.asarray(x, dtype=float)
    support = _support(x)
    amps = {i: x[i] * ctx.scalings[i] for i in support}
    candidates = [orders for orders in
                  itertools.product(range(truncation + 1), repeat=len(support))
                  if sum(orders)]
    rows = np.zeros((len(candidates), basis.n_vars), dtype=np.int64)
    rows[:, support] = candidates
    for orders, pos in zip(candidates, basis.positions(rows)):
        if pos >= 0:
            coeff = 1.0
            for i, p in zip(support, orders):
                coeff *= amps[i] ** p / math.sqrt(math.factorial(p))
            yield int(pos), coeff


def readout_state(x, basis: BasisSet, truncation: int, ctx: HermiteContext) -> KEState:
    """Truncated coherent embedding of x as a vector over the basis."""
    coeffs = np.zeros(len(basis))
    for pos, coeff in readout_candidates(x, basis, truncation, ctx):
        coeffs[pos] = coeff
    return KEState(coeffs, basis, 0.0)


def expectation(psi_t: KEState, x, truncation: int, ctx: HermiteContext,
                include_mean: bool = False, mean: float = 0.0) -> float:
    """v(t, x) = <readout(x), psi(t)>, optionally re-adding the observable mean."""
    if psi_t.basis.n_vars != np.asarray(x).size:
        raise BasisError("readout point dimension does not match the basis")
    total = 0.0
    for pos, coeff in readout_candidates(x, psi_t.basis, truncation, ctx):
        total += coeff * psi_t.coefficients[pos]
    return total + (mean if include_mean else 0.0)


def readout_norm_sq(x, ctx: HermiteContext, truncation: int | None = None) -> float:
    """Squared norm of the (truncated) coherent state.

    Untruncated, this is exactly exp(2 ||x||_lambda^2 / q); the truncated
    value is the same product with each exponential series cut at
    `truncation`, approaching the identity from below.
    """
    x = np.asarray(x, dtype=float)
    if truncation is None:
        return float(np.exp(2.0 * (ctx.rates @ x ** 2) / ctx.noise))
    out = 1.0
    for i in _support(x):
        a = 2.0 * ctx.rates[i] * x[i] ** 2 / ctx.noise
        out *= sum(a ** m / math.factorial(m) for m in range(truncation + 1))
    return out


def truncation_order_for(x, ctx: HermiteContext, eps: float) -> int:
    """Per-variable order sufficient for ||psi_out - phi_out|| <= eps.

    k = max_i 8 lambda_i x_i^2 / (q ln 2) + 2 log2(1/delta) with
    delta = eps / (s ||psi_out||).
    """
    x = np.asarray(x, dtype=float)
    support = _support(x)
    s = max(len(support), 1)
    norm = math.sqrt(readout_norm_sq(x, ctx))
    delta = eps / (s * norm)
    peak = max((8.0 * ctx.rates[i] * x[i] ** 2 / (ctx.noise * math.log(2))
                for i in support), default=0.0)
    return max(int(math.ceil(peak + 2.0 * math.log2(1.0 / delta))), 0)
