"""Coefficient states: initial states, the coherent readout vector, and readout.

A state is its coefficient vector, a float array of length len(basis) over the
basis it was built on; `evolution` maps vectors to vectors.  `_finite` refuses
a vector with a nan or infinite entry (NumericalError): the states built here
and every vector `evolution.evolve_direct_sum` returns pass through it.
Everything here is expressed against the Gaussian measure of a `SystemSpec`
(its rates, noise and scalings).  A monomial observable prod x_i^{d_i} expands
into finitely many Hermite coefficients; the solver always evolves the centered
part (the constant term is the analytic mean, which callers add to the readout).
The readout state is the coherent embedding of the initial point x, truncated
per variable; its inner product with the evolved coefficient vector is the
noise-averaged expectation v(t, x), and `expectation` takes that product with a
whole trajectory at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BasisError, NumericalError
from .hermite import monomial_in_hermite
from .multiindex import BasisSet
from .operators import SystemSpec

DEFAULT_DEGREE_CAP = 6


def _finite(coeffs):
    """`coeffs`, or NumericalError if an entry is nan or infinite."""
    if not np.all(np.isfinite(coeffs)):
        raise NumericalError("non-finite coefficients")
    return coeffs


@dataclass(frozen=True)
class MonomialObservable:
    """u0(x) = prod_i x_i^{d_i} with a small total degree."""

    exponents: tuple
    spec: SystemSpec  # the measure u0 is expanded against

    def __post_init__(self):
        exps = tuple(int(d) for d in self.exponents)
        if len(exps) != self.spec.n_vars:
            raise BasisError("exponent vector does not match the variable count")
        if any(d < 0 for d in exps):
            raise BasisError("exponents must be non-negative")
        if not 1 <= sum(exps) <= DEFAULT_DEGREE_CAP:
            raise BasisError(f"total degree must lie in [1, {DEFAULT_DEGREE_CAP}]")
        object.__setattr__(self, "exponents", exps)

    def mean(self) -> float:
        """Gaussian mean, zero unless every exponent is even."""
        if any(d % 2 for d in self.exponents):
            return 0.0
        out = 1.0
        for i, d in enumerate(self.exponents):
            if d == 0:
                continue
            half = d // 2
            sigma_sq = self.spec.noise / (2.0 * self.spec.rates[i])
            out *= math.factorial(d) / (2 ** half * math.factorial(half)) * sigma_sq ** half
        return out

    def centered_norm_sq(self) -> float:
        """||u0 - mean||^2 against the Gaussian measure (Wick closed form)."""
        out = 1.0
        for i, d in enumerate(self.exponents):
            if d == 0:
                continue
            sigma_sq = self.spec.noise / (2.0 * self.spec.rates[i])
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
        s = u0.spec.scalings[i]
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


def initial_state(u0: MonomialObservable, basis: BasisSet) -> np.ndarray:
    """Coefficient vector of the centered observable u0 - mean(u0)."""
    return combination_state(((1.0, u0),), basis)


def combination_state(terms, basis: BasisSet) -> np.ndarray:
    """Initial state of sum_k c_k * u0_k (by linearity), summed in term order."""
    # ranked in one `positions` call; the degree-0 terms (means) are left to callers
    pairs = [(key, weight_ * value) for weight_, u0 in terms
             for key, value in _monomial_terms(u0).items() if sum(key)]
    pos = basis.positions(np.array([key for key, _ in pairs], dtype=np.int64)
                          .reshape(-1, basis.n_vars))
    if np.any(pos < 0):
        key = pairs[int(np.argmax(pos < 0))][0]
        raise BasisError(
            f"observable needs index {key} outside the basis "
            f"(degree {sum(key)} > K = {basis.max_degree}?)")
    coeffs = np.zeros(len(basis))
    np.add.at(coeffs, pos, [value for _, value in pairs])
    return _finite(coeffs)


def _support(x) -> list:
    return [int(i) for i in np.nonzero(np.asarray(x))[0]]


def readout_state(x, basis: BasisSet, truncation: int, spec: SystemSpec) -> np.ndarray:
    """Truncated coherent embedding of x as a vector over the basis.

    Its entries sit on the basis rows that live on the support of x with
    every order at most `truncation` (at most len(basis) of them, however
    many variables x touches); the entry of orders p is
    prod_i a_i^{p_i} / sqrt(p_i!) with a_i = x_i * scaling_i.
    """
    x = np.asarray(x, dtype=float)
    if x.size != basis.n_vars:
        raise BasisError("readout point dimension does not match the basis")
    support = _support(x)
    orders = basis.orders[:, support]
    hit = np.flatnonzero((orders.sum(axis=1) == basis.degrees)
                         & (orders <= truncation).all(axis=1))
    amps = x[support] * spec.scalings[support]
    # factors[j, p] = a_j^p / sqrt(p!); scalar pow, because numpy's array
    # power can differ from it in the last bit; an overflow is refused below
    with np.errstate(over="ignore"):
        factors = np.array([[a ** p / math.sqrt(math.factorial(p))
                             for p in range(truncation + 1)]
                            for a in amps]).reshape(len(support), truncation + 1)
        coeffs = np.zeros(len(basis))
        coeffs[hit] = np.prod(factors[np.arange(len(support)), orders[hit]], axis=1)
    return _finite(coeffs)


def expectation(rows, basis: BasisSet, x, truncation: int, spec: SystemSpec):
    """v(t, x) = <readout(x), psi(t)> for each row psi(t) of a (T, n) trajectory over
    `basis`, or the one value of an (n,) coefficient vector.

    The readout acts as a sparse vector on the trajectory, so each value sums its
    terms in basis order whatever the number of rows (BLAS products do not).
    """
    readout = readout_state(x, basis, truncation, spec)
    nz = np.flatnonzero(readout)
    row = sp.csr_array((readout[nz], nz, [0, nz.size]), shape=readout.shape)
    return row @ np.asarray(rows).T


def readout_norm_sq(x, spec: SystemSpec, truncation: int | None = None) -> float:
    """Squared norm of the (truncated) coherent state.

    Untruncated, this is exactly exp(2 ||x||_lambda^2 / q); the truncated
    value is the same product with each exponential series cut at
    `truncation`, approaching the identity from below.
    """
    x = np.asarray(x, dtype=float)
    if truncation is None:
        out = float(np.exp(2.0 * (spec.rates @ x ** 2) / spec.noise))
    else:
        out = 1.0
        for i in _support(x):
            a = 2.0 * spec.rates[i] * x[i] ** 2 / spec.noise
            out *= sum(a ** m / math.factorial(m) for m in range(truncation + 1))
    if not math.isfinite(out):
        raise NumericalError(f"readout norm at x = {x.tolist()} is not a finite double")
    return out


def truncation_order_for(x, spec: SystemSpec, eps: float) -> int:
    """Per-variable order sufficient for ||psi_out - phi_out|| <= eps.

    k = max_i 8 lambda_i x_i^2 / (q ln 2) + 2 log2(1/delta) with
    delta = eps / (s ||psi_out||).
    """
    x = np.asarray(x, dtype=float)
    support = _support(x)
    s = max(len(support), 1)
    norm = math.sqrt(readout_norm_sq(x, spec))
    delta = eps / (s * norm)
    peak = max((8.0 * spec.rates[i] * x[i] ** 2 / (spec.noise * math.log(2))
                for i in support), default=0.0)
    return max(int(math.ceil(peak + 2.0 * math.log2(1.0 / delta))), 0)
