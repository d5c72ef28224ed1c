"""Hermite oracle kernels shared by the tests.

They check the assembly and readout paths independently of the kernels
runs use: `he` evaluates one degree by its own recurrence, `h_norm` a
normalized product Hermite polynomial pointwise, `gaussian_quadrature`
integrates against a system's Gaussian measure on a tensor grid, and
`hermite_triple_product` is the closed-form 1-d triple integral.
`linear_drift_oracle` assembles the linear Galerkin matrix with scipy's
duplicate-summing COO builds and a dict of the basis rows.  `csr_digest`
hashes a CSR matrix's raw arrays, for pins of the assemblers' bytes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.sparse as sp

from kolmsim.errors import BasisError
from kolmsim.hermite import gauss_hermite_rule

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


def _check_degree(n: int):
    if n > MAX_DEGREE:
        raise BasisError(f"Hermite degree {n} exceeds the supported range {MAX_DEGREE}")


def _orders_of(m):
    return getattr(m, "orders", m)


def h_norm(m, x, spec):
    """Normalized product Hermite polynomial of `spec`'s measure at x (shape (..., N) or (N,))."""
    orders = _orders_of(m)
    x = np.asarray(x, dtype=float)
    out = None
    for i, n in enumerate(orders):
        n = int(n)
        if n == 0:
            continue
        _check_degree(n)
        factor = he(n, x[..., i] * spec.scalings[i]) / math.sqrt(math.factorial(n))
        out = factor if out is None else out * factor
    if out is None:
        return np.ones(x.shape[:-1]) if x.ndim > 1 else 1.0
    return out


def gaussian_quadrature(f, spec, n_nodes: int = 64) -> float:
    """Tensor-product integral of f against `spec`'s Gaussian measure.

    Intended for N <= 3; cost is n_nodes**N evaluations.
    """
    y, w = gauss_hermite_rule(n_nodes)
    axes = [y / s for s in spec.scalings]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * spec.n_vars), indexing="ij")
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


def linear_drift_oracle(basis, spec) -> sp.csr_matrix:
    """Linear Galerkin matrix of `spec.linear` by duplicate-summing COO -> CSR builds.

    beta = (B - B^T)/2, B_ij = b_ij sqrt(lambda_i / lambda_j), is summed from
    b's entries and their transposes in one build.  Each move of column m to
    m - e_i + e_j is looked up in a dict of the basis rows, and the matrix
    elements beta_ij sqrt(m_i (m_j + 1)) go through a second build.
    """
    b = sp.coo_matrix(spec.linear)
    root = np.sqrt(spec.rates)
    beta = b.data * root[b.row] * (1.0 / root)[b.col]
    beta = sp.csr_matrix((np.concatenate([beta, -beta]),
                          (np.concatenate([b.row, b.col]), np.concatenate([b.col, b.row]))),
                         shape=b.shape).tocoo()
    beta.data *= 0.5
    live = beta.data != 0.0
    i_e, j_e, b_e = beta.row[live], beta.col[live], beta.data[live]

    index = {row: pos for pos, row in enumerate(map(tuple, basis.orders.tolist()))}
    cols, e = np.nonzero(basis.orders[:, i_e] > 0)
    targets = basis.orders[cols]
    targets[np.arange(len(cols)), i_e[e]] -= 1
    targets[np.arange(len(cols)), j_e[e]] += 1
    rows = np.array([index.get(t, -1) for t in map(tuple, targets.tolist())], dtype=np.intp)
    hit = rows >= 0
    cols, e = cols[hit], e[hit]
    vals = b_e[e] * np.sqrt(basis.orders[cols, i_e[e]] * (basis.orders[cols, j_e[e]] + 1))
    n = len(basis)
    return sp.coo_matrix((vals, (rows[hit], cols)), shape=(n, n)).tocsr()


def csr_digest(mat) -> str:
    """sha256 of a CSR matrix's raw data, indices and indptr arrays."""
    digest = hashlib.sha256()
    for arr in (mat.data, mat.indices, mat.indptr):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()
