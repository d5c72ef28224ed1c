"""Initial states, coherent readout, norm identities, expectation readout."""

import math

import numpy as np
import pytest

from kolmsim.errors import BasisError
from kolmsim.multiindex import RegularizationScheme, enumerate_basis
from kolmsim.operators import SystemSpec
from kolmsim.states import (
    MonomialObservable,
    combination_state,
    expectation,
    initial_state,
    readout_norm_sq,
    readout_state,
    truncation_order_for,
)
from oracles import gaussian_quadrature


def measure(rates, noise):
    return SystemSpec(name="measure", rates=rates, noise=noise)


@pytest.fixture
def spec():
    return measure([0.1, 0.4], 0.02)


def basis_for(spec, K):
    return enumerate_basis(spec.n_vars,
                           RegularizationScheme.by_max_order(K, spec.rates),
                           spec.rates)


def _exp_series_tail(a, k):
    """sum_{m > k} a^m / m!, summed forward to avoid cancellation."""
    if a <= 0.0:
        return 0.0
    term = math.exp((k + 1) * math.log(a) - math.lgamma(k + 2))
    total = 0.0
    m = k + 1
    while term > 1e-30 * (total + 1.0):
        total += term
        m += 1
        term *= a / m
    return total


def readout_truncation_error(x, spec, truncation):
    """Norm distance between the full and truncated coherent states.

    Computed from per-variable series tails (never as a difference of two
    nearly equal norms, which would cancel below ~1e-8 relative).
    """
    x = np.asarray(x, dtype=float)
    support = np.nonzero(x)[0]
    heads = []
    tails = []
    for i in support:
        a = 2.0 * spec.rates[i] * x[i] ** 2 / spec.noise
        heads.append(sum(a ** m / math.factorial(m) for m in range(truncation + 1)))
        tails.append(_exp_series_tail(a, truncation))
    # prod(head + tail) - prod(head), expanded term by term
    diff = 0.0
    lead = 1.0
    full = [h + t for h, t in zip(heads, tails)]
    for i in range(len(support)):
        rest = 1.0
        for j in range(i + 1, len(support)):
            rest *= heads[j]
        diff += lead * tails[i] * rest
        lead *= full[i]
    return math.sqrt(max(diff, 0.0))


def test_initial_state_linear_observable(spec):
    basis = basis_for(spec, 3)
    psi = initial_state(MonomialObservable((1, 0), spec), basis)
    expected = math.sqrt(spec.noise / (2 * spec.rates[0]))
    assert psi[basis.position((1, 0))] == pytest.approx(expected, rel=1e-14)
    assert np.count_nonzero(psi) == 1


def test_initial_state_square_observable(spec):
    basis = basis_for(spec, 3)
    u0 = MonomialObservable((0, 2), spec)
    psi = initial_state(u0, basis)
    lam = spec.rates[1]
    assert psi[basis.position((0, 2))] == pytest.approx(
        spec.noise / (math.sqrt(2) * lam), rel=1e-14)
    assert u0.mean() == pytest.approx(spec.noise / (2 * lam), rel=1e-14)
    assert np.count_nonzero(psi) == 1


def test_initial_state_norm_closed_form(spec):
    basis = basis_for(spec, 8)
    for exponents in [(1, 0), (0, 2), (2, 1), (1, 3), (2, 2), (0, 4)]:
        u0 = MonomialObservable(exponents, spec)
        psi = initial_state(u0, basis)
        assert psi @ psi == pytest.approx(u0.centered_norm_sq(), rel=1e-12)


def test_initial_state_norm_against_quadrature(spec):
    u0 = MonomialObservable((2, 0), spec)
    mean = u0.mean()
    quad = gaussian_quadrature(lambda pts: (u0(pts) - mean) ** 2, spec, 64)
    assert u0.centered_norm_sq() == pytest.approx(quad, rel=1e-12)


def test_initial_state_degree_overflow(spec):
    basis = basis_for(spec, 2)
    with pytest.raises(BasisError):
        initial_state(MonomialObservable((2, 1), spec), basis)


def test_observable_mean_examples(spec):
    assert MonomialObservable((1, 0), spec).mean() == 0.0
    assert MonomialObservable((1, 2), spec).mean() == 0.0
    sig1 = spec.noise / (2 * spec.rates[0])
    sig2 = spec.noise / (2 * spec.rates[1])
    assert MonomialObservable((2, 2), spec).mean() == pytest.approx(sig1 * sig2)
    assert MonomialObservable((4, 0), spec).mean() == pytest.approx(3 * sig1 ** 2)


def test_observable_degree_cap(spec):
    with pytest.raises(BasisError):
        MonomialObservable((4, 3), spec)
    with pytest.raises(BasisError):
        MonomialObservable((0, 0), spec)


def test_combination_state_linearity(spec):
    # x1^3 shares its He_1 coefficient with x1, so two terms add into one
    # entry; they are summed in term order, as the vector sum below does
    basis = basis_for(spec, 3)
    u_a = MonomialObservable((1, 0), spec)
    u_b = MonomialObservable((0, 1), spec)
    u_c = MonomialObservable((3, 0), spec)
    combo = combination_state([(2.0, u_a), (-0.5, u_b), (1.5, u_c)], basis)
    manual = 2.0 * initial_state(u_a, basis) \
        - 0.5 * initial_state(u_b, basis) \
        + 1.5 * initial_state(u_c, basis)
    np.testing.assert_array_equal(combo, manual)


def test_readout_unit_coefficient(spec):
    basis = basis_for(spec, 3)
    x = np.array([0.4, -0.2])
    state = readout_state(x, basis, truncation=3, spec=spec)
    expected = x[0] * math.sqrt(2 * spec.rates[0] / spec.noise)
    assert state[basis.position((1, 0))] == pytest.approx(expected)


def test_readout_state_matches_entrywise_loop(spec):
    # reference: every basis row on the support of x with orders <= k gets
    # prod_i a_i^p_i / sqrt(p_i!), multiplied in variable order
    basis = basis_for(spec, 6)
    k = 4
    for x in ([0.4, -0.3], [0.0, 0.7], [-1.1, 0.0]):
        x = np.array(x)
        want = np.zeros(len(basis))
        for pos, orders in enumerate(basis.orders):
            if all(p == 0 or (x[i] != 0 and p <= k) for i, p in enumerate(orders)):
                coeff = 1.0
                for i, p in enumerate(orders):
                    if x[i]:
                        coeff *= (x[i] * spec.scalings[i]) ** p / math.sqrt(math.factorial(p))
                want[pos] = coeff
        assert np.array_equal(readout_state(x, basis, k, spec), want)


def test_readout_state_of_a_dense_point_on_sixty_variables():
    # every entry of x is nonzero: a grid over its support would hold 2^60 rows,
    # but the readout has only the basis's 60 rows to fill
    spec = measure(np.linspace(0.1, 2.0, 60), 0.05)
    basis = basis_for(spec, 1)
    x = np.linspace(0.2, 1.4, 60) * np.where(np.arange(60) % 2, -1.0, 1.0)
    state = readout_state(x, basis, 1, spec)
    rows = basis.positions(np.eye(60, dtype=np.int64))
    assert np.array_equal(state[rows], x * spec.scalings)


def test_readout_zero_point(spec):
    basis = basis_for(spec, 3)
    state = readout_state(np.zeros(2), basis, truncation=3, spec=spec)
    assert np.all(state == 0.0)


def test_readout_norm_identity_value():
    spec = measure([0.1, 0.1], 0.02)
    x = np.array([1.0, 0.0])
    assert readout_norm_sq(x, spec) == pytest.approx(math.exp(10.0), rel=1e-12)


def test_readout_norm_identity_truncated():
    rng = np.random.default_rng(21)
    for _ in range(10):
        rates = np.sort(rng.uniform(0.05, 0.5, size=3))
        q = rng.uniform(0.05, 0.3)
        spec = measure(rates, q)
        x = np.zeros(3)
        live = rng.integers(0, 3)
        # keep q^{-1} ||x||_lambda^2 <= 6
        x[live] = math.sqrt(rng.uniform(0.5, 6.0) * q / rates[live])
        k = truncation_order_for(x, spec, eps=1e-6 * math.sqrt(readout_norm_sq(x, spec)))
        ratio = readout_norm_sq(x, spec, truncation=k) / readout_norm_sq(x, spec)
        # containment is mathematically one-sided; allow one ulp of dust above 1
        assert 1 - 1e-10 <= ratio <= 1.0 + 1e-12


def test_readout_truncation_bound_honored():
    spec = measure([0.2, 0.3], 0.1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=2) * 0.8
        for eps_rel in (1e-2, 1e-4, 1e-8):
            eps = eps_rel * math.sqrt(readout_norm_sq(x, spec))
            k = truncation_order_for(x, spec, eps)
            assert readout_truncation_error(x, spec, k) <= eps


def test_expectation_time_zero_linear(spec):
    basis = basis_for(spec, 3)
    psi0 = initial_state(MonomialObservable((1, 0), spec), basis)
    for x1 in (0.7, -1.2, 0.0):
        x = np.array([x1, 0.0])
        assert expectation(psi0, basis, x, truncation=3,
                           spec=spec) == pytest.approx(x1, abs=1e-14)


def test_expectation_zero_state(spec):
    basis = basis_for(spec, 2)
    psi = np.zeros(len(basis))
    assert expectation(psi, basis, np.array([0.3, 0.4]), 2, spec) == 0.0


def test_expectation_dimension_mismatch(spec):
    basis = basis_for(spec, 2)
    psi = initial_state(MonomialObservable((1, 0), spec), basis)
    with pytest.raises(BasisError):
        expectation(psi, basis, np.array([1.0, 0.0, 0.0]), 2, spec)


def test_expectation_umbral_consistency(spec):
    # <readout(x), psi(0)> + mean = int mu(z) u0(x + z) dz
    basis = basis_for(spec, 4)
    rng = np.random.default_rng(3)
    for exponents in [(1, 0), (2, 0), (1, 1), (2, 2), (1, 3), (0, 4)]:
        u0 = MonomialObservable(exponents, spec)
        psi0 = initial_state(u0, basis)
        x = rng.normal(size=2) * 0.5
        got = expectation(psi0, basis, x, truncation=4, spec=spec) + u0.mean()
        want = gaussian_quadrature(lambda pts: u0(pts + x), spec, 64)
        assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("x", [[0.4, -0.3, 0.0], [0.5, 0.0, -0.7], [0.3, -0.2, 0.6]])
def test_readout_state_norm_matches_truncated_identity(x):
    # the basis holds every order up to k per support variable, so the
    # readout vector is the whole truncated coherent state but its constant 1
    spec = measure([0.1, 0.2, 0.4], 0.05)
    x = np.array(x)
    for k in (1, 3, 5):
        basis = basis_for(spec, np.count_nonzero(x) * k)
        readout = readout_state(x, basis, k, spec)
        got = readout @ readout + 1.0
        assert got == pytest.approx(readout_norm_sq(x, spec, truncation=k), rel=1e-13)


def test_expectation_reads_each_state_of_a_trajectory(spec):
    basis = basis_for(spec, 5)
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(7, len(basis)))
    x = np.array([0.6, -0.3])
    together = expectation(rows, basis, x, 5, spec)
    assert together.shape == (7,)
    one_by_one = np.array([expectation(row, basis, x, 5, spec) for row in rows])
    assert np.array_equal(together, one_by_one)
