"""Probabilist's Hermite polynomial kernels that runs use.

Everything here is expressed against the Gaussian stationary measure of the
dissipative system, which scales variable i by s_i = sqrt(2*lambda_i/q)
(`SystemSpec.scalings`).  Evaluation goes through the three-term upward
recurrence, which is stable for the degrees and arguments this package uses.

`he_table` and `gauss_hermite_rule` drive the quadrature assembly and
`monomial_in_hermite` the initial states.  The oracle kernels the tests
check the assembly and readout paths against live in `tests/oracles.py`.
"""

from __future__ import annotations

import math

import numpy as np


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


def gauss_hermite_rule(n_nodes: int):
    """Nodes/weights for the standard normal measure (weights sum to 1)."""
    y, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    return y, w / math.sqrt(2.0 * math.pi)


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
