"""Hermite kernels and oracles: values, recurrences, quadrature orthogonality, triple products."""

import math

import numpy as np
import pytest

from kolmsim.errors import BasisError
from kolmsim.hermite import gauss_hermite_rule, he_table, monomial_in_hermite
from kolmsim.multiindex import RegularizationScheme, enumerate_basis
from kolmsim.operators import SystemSpec
from oracles import gaussian_quadrature, h_norm, he, hermite_triple_product


def test_he_low_degrees():
    for x in (0.0, 1.0, 2.5):
        assert float(he(0, x)) == 1.0
        assert float(he(1, x)) == x
        assert float(he(2, x)) == pytest.approx(x * x - 1.0, abs=1e-14)
    assert float(he(3, 2.0)) == pytest.approx(2.0, abs=1e-13)  # 8 - 6


def test_he_table_matches_he():
    x = np.linspace(-3, 3, 7)
    table = he_table(8, x)
    for n in range(9):
        np.testing.assert_allclose(table[n], he(n, x), rtol=1e-13)


def test_derivative_recurrence_by_finite_differences():
    # d/dx He_n = n He_{n-1}, central differences with h = 1e-5
    h = 1e-5
    xs = np.array([-2.3, -0.7, 0.4, 1.9])
    for n in range(1, 13):
        fd = (he(n, xs + h) - he(n, xs - h)) / (2 * h)
        np.testing.assert_allclose(fd, n * he(n - 1, xs), rtol=1e-6)


def measure(rates, noise):
    return SystemSpec(name="measure", rates=rates, noise=noise)


@pytest.fixture
def spec2():
    return measure([0.1, 0.4], 0.05)


def test_scaling_invariant(spec2):
    np.testing.assert_allclose(spec2.scalings ** 2, 2 * spec2.rates / spec2.noise, rtol=1e-15)


def test_measure_normalized():
    for n_vars in (1, 2, 3):
        spec = measure(np.linspace(0.2, 0.9, n_vars), 0.3)
        val = gaussian_quadrature(lambda pts: np.ones(pts.shape[0]), spec, n_nodes=64)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_h_norm_quadratic_closed_form(spec2):
    # degree-2 factor: sqrt(2) lambda_i x_i^2 / q - 1/sqrt(2)
    lam, q = spec2.rates[1], spec2.noise
    for xval in (0.0, 0.7, -1.3):
        x = np.array([0.2, xval])
        expected = math.sqrt(2) * lam * xval**2 / q - 1 / math.sqrt(2)
        assert float(h_norm((0, 2), x, spec2)) == pytest.approx(expected, rel=1e-13)


def test_h_norm_odd_vanishes_at_origin(spec2):
    assert float(h_norm((1, 0), np.array([0.0, 1.0]), spec2)) == 0.0


def test_h_norm_degree_guard(spec2):
    with pytest.raises(BasisError):
        h_norm((151, 0), np.array([0.1, 0.1]), spec2)


def test_orthonormality_by_quadrature(spec2):
    basis = enumerate_basis(2, RegularizationScheme.by_max_order(4, spec2.rates), spec2.rates)
    mats = [tuple(m) for m in basis.orders.tolist()]
    for a in mats:
        for b in mats:
            val = gaussian_quadrature(
                lambda pts: h_norm(a, pts, spec2) * h_norm(b, pts, spec2), spec2, 64)
            expected = 1.0 if a == b else 0.0
            assert val == pytest.approx(expected, abs=1e-10)


def test_eigen_relation_of_dissipation_operator():
    # (-q/2 d2/dx2 + lambda x d/dx) H_m = lambda_m H_m, by finite differences.
    # Degrees <= 3 make the fourth derivative vanish, so central FD is exact
    # up to roundoff.
    rng = np.random.default_rng(7)
    spec = measure([0.3, 0.8], 0.4)
    basis = enumerate_basis(2, RegularizationScheme.by_max_order(3, spec.rates), spec.rates)
    h = 1e-3
    for m, weight in zip(basis.orders.tolist(), basis.weights):
        pts = rng.normal(scale=1.2, size=(5, 2))
        val = np.zeros(5)
        for i in range(2):
            ei = np.zeros(2)
            ei[i] = h
            plus, minus = h_norm(m, pts + ei, spec), h_norm(m, pts - ei, spec)
            center = h_norm(m, pts, spec)
            second = (plus - 2 * center + minus) / h**2
            first = (plus - minus) / (2 * h)
            val += -0.5 * spec.noise * second + spec.rates[i] * pts[:, i] * first
        np.testing.assert_allclose(val, weight * h_norm(m, pts, spec),
                                   rtol=1e-5, atol=1e-8)


def test_lowering_recurrence_pointwise():
    # d/dx_i H_m = sqrt(2 m_i lambda_i / q) H_{m - e_i}
    rng = np.random.default_rng(11)
    spec = measure([0.2, 0.5], 0.3)
    basis = enumerate_basis(2, RegularizationScheme.by_max_order(4, spec.rates), spec.rates)
    h = 1e-6
    for m in basis.orders.tolist():
        pts = rng.normal(size=(4, 2))
        for i in np.flatnonzero(m):
            ei = np.zeros(2)
            ei[i] = h
            fd = (h_norm(m, pts + ei, spec) - h_norm(m, pts - ei, spec)) / (2 * h)
            lower = list(m)
            lower[i] -= 1
            expected = math.sqrt(2 * m[i] * spec.rates[i] / spec.noise) \
                * h_norm(lower, pts, spec)
            np.testing.assert_allclose(fd, expected, rtol=2e-6, atol=1e-9)


def test_raising_recurrence_pointwise():
    # x_i H_m = sqrt(m_i+1)/s_i H_{m+e_i} + sqrt(m_i)/s_i H_{m-e_i}
    rng = np.random.default_rng(13)
    spec = measure([0.2, 0.5], 0.3)
    basis = enumerate_basis(2, RegularizationScheme.by_max_order(3, spec.rates), spec.rates)
    for m in basis.orders.tolist():
        pts = rng.normal(size=(4, 2))
        for i in range(2):
            s = spec.scalings[i]
            left = pts[:, i] * h_norm(m, pts, spec)
            upper = list(m)
            upper[i] += 1
            right = math.sqrt(m[i] + 1) / s * h_norm(upper, pts, spec)
            if m[i] > 0:
                lower = list(m)
                lower[i] -= 1
                right = right + math.sqrt(m[i]) / s * h_norm(lower, pts, spec)
            np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)


def test_triple_product_against_quadrature():
    y, w = gauss_hermite_rule(64)
    for a in range(5):
        for b in range(5):
            for c in range(5):
                quad = float(np.sum(
                    w * he(a, y) * he(b, y) * he(c, y)))
                quad /= math.sqrt(math.factorial(a) * math.factorial(b) * math.factorial(c))
                assert hermite_triple_product(a, b, c) == pytest.approx(quad, abs=1e-11)


def test_monomial_expansion_reconstructs_power():
    xs = np.linspace(-2, 2, 9)
    for n in range(7):
        acc = np.zeros_like(xs)
        for p, coeff in monomial_in_hermite(n):
            acc += coeff * he(p, xs)
        np.testing.assert_allclose(acc, xs**n, atol=1e-12)
