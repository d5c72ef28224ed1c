"""Hermite-Galerkin simulation of noisy nonlinear dissipative dynamics.

The package solves the backward Kolmogorov equation of a dissipative SDE
projected onto a truncated multivariate Hermite basis, reads expectation
values back out through a coherent-state inner product, and cross-checks
everything against a simplified weak Euler Monte Carlo oracle.
"""

__version__ = "0.1.0"
