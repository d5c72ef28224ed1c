"""Probabilist's Hermite polynomial kernels.

Everything here is expressed against the Gaussian stationary measure of the
dissipative system, which scales variable i by s_i = sqrt(2*lambda_i/q).
Evaluation goes through the three-term upward recurrence, which is stable
for the degrees (<= 150) and arguments (|x*s| <= ~10) this package uses.

`he`, `h_norm`, `gaussian_quadrature` and `hermite_triple_product` are the
oracle kernels that four test files share to check the assembly and
readout paths independently; no run reaches them, but they stay here so
that the tests agree on one definition.  `gauss_hermite_rule` also
drives the production quadrature assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisError

MAX_DEGREE = 150  # sqrt(factorial) overflows double precision near 300


def he(n: int, x):
    """He_n(x) via He_{k+1} = x*He_k - k*He_{k-1}.  Broadcasts over x."""
    if n < 0:
        raise ValueError("Hermite degree must be non-negative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = x.copy()
    for k in range(1, n):
        cur, prev = x * cur - k * prev, cur
    return cur


def he_table(n_max: int, x) -> np.ndarray:
    """All degrees 0..n_max at once; shape (n_max+1,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(1, n_max):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


def _check_degree(n: int):
    if n > MAX_DEGREE:
        raise BasisError(f"Hermite degree {n} exceeds the supported range {MAX_DEGREE}")


@dataclass(frozen=True)
class HermiteContext:
    """Rates and noise level defining the Gaussian measure and scalings."""

    rates: np.ndarray
    noise: float
    scalings: np.ndarray = field(init=False)

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if self.noise <= 0.0:
            raise BasisError("noise rate q must be positive")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "scalings", np.sqrt(2.0 * rates / self.noise))

    @property
    def n_vars(self) -> int:
        return self.rates.size


def _orders_of(m):
    return getattr(m, "orders", m)


def h_norm(m, x, ctx: HermiteContext):
    """Normalized product Hermite polynomial at x (shape (..., N) or (N,))."""
    orders = _orders_of(m)
    x = np.asarray(x, dtype=float)
    out = None
    for i, n in enumerate(orders):
        n = int(n)
        if n == 0:
            continue
        _check_degree(n)
        factor = he(n, x[..., i] * ctx.scalings[i]) / math.sqrt(math.factorial(n))
        out = factor if out is None else out * factor
    if out is None:
        return np.ones(x.shape[:-1]) if x.ndim > 1 else 1.0
    return out


def gauss_hermite_rule(n_nodes: int):
    """Nodes/weights for the standard normal measure (weights sum to 1)."""
    y, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    return y, w / math.sqrt(2.0 * math.pi)


def gaussian_quadrature(f, ctx: HermiteContext, n_nodes: int = 64) -> float:
    """Tensor-product integral of f against the context's Gaussian measure.

    Intended for N <= 3 test oracles; cost is n_nodes**N evaluations.
    """
    y, w = gauss_hermite_rule(n_nodes)
    axes = [y / s for s in ctx.scalings]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * ctx.n_vars), indexing="ij")
    wts = np.ones(pts.shape[0])
    for g in wgrids:
        wts = wts * g.reshape(-1)
    return float(np.asarray(f(pts), dtype=float) @ wts)


def hermite_triple_product(a: int, b: int, c: int) -> float:
    """Standard-normal integral of three normalized 1-d Hermite factors.

    Nonzero iff a+b+c is even and the triangle inequality holds; the value
    is sqrt(a! b! c!) / ((s-a)! (s-b)! (s-c)!) with s = (a+b+c)/2.
    """
    total = a + b + c
    if total % 2 or max(a, b, c) > total // 2:
        return 0.0
    s = total // 2
    num = math.factorial(a) * math.factorial(b) * math.factorial(c)
    den = math.factorial(s - a) * math.factorial(s - b) * math.factorial(s - c)
    return math.sqrt(num) / den


def monomial_in_hermite(n: int):
    """Expansion x^n = n! sum_m He_{n-2m}(x) / (2^m m! (n-2m)!).

    Returns [(degree, coefficient)] pairs for a unit-variance argument.
    """
    out = []
    for m_half in range(n // 2 + 1):
        p = n - 2 * m_half
        coeff = math.factorial(n) / (2 ** m_half * math.factorial(m_half) * math.factorial(p))
        out.append((p, coeff))
    return out
