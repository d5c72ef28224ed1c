"""Basis enumeration, truncation rules, and closed-form basis positions."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmsim.errors import BasisError, ResourceLimitError
from kolmsim.multiindex import (
    BasisSet,
    RegularizationScheme,
    enumerate_basis,
)


def brute_force_orders(n_vars, k_max):
    """Every non-zero multi-index with |m| <= k_max, as a set of tuples."""
    out = set()
    for vec in itertools.product(range(k_max + 1), repeat=n_vars):
        if 1 <= sum(vec) <= k_max:
            out.add(vec)
    return out


def test_order_rule_minimal_basis():
    rates = (1.0, 1.0)
    scheme = RegularizationScheme.by_max_order(1, rates)
    basis = enumerate_basis(2, scheme, rates)
    assert [tuple(row) for row in basis.orders] == [(1, 0), (0, 1)]
    assert len(basis) == 2


def test_enumeration_order_matches_documented_tiebreak():
    rates = (0.1, 0.1)
    basis = enumerate_basis(2, RegularizationScheme.by_max_order(2, rates), rates)
    assert [tuple(row) for row in basis.orders] == [
        (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    np.testing.assert_allclose(basis.weights, [0.1, 0.1, 0.2, 0.2, 0.2])


def test_large_order_rule_count():
    rates = np.ones(40)
    basis = enumerate_basis(40, RegularizationScheme.by_max_order(3, rates), rates)
    assert len(basis) == math.comb(43, 3) - 1 == 12340


def test_weight_rule_single_variable():
    scheme = RegularizationScheme.by_weight(3.5)
    basis = enumerate_basis(1, scheme, (1.0,))
    assert [tuple(row) for row in basis.orders] == [(1,), (2,), (3,)]


def test_weight_rule_float_dust_kept():
    # 8 * 0.1 lands one ulp above 0.8; the cutoff must still keep |m| = 8.
    basis = enumerate_basis(1, RegularizationScheme.by_weight(0.8), (0.1,))
    assert basis.max_degree == 8


def test_count_law_against_brute_force():
    for n_vars in range(1, 6):
        rates = np.ones(n_vars)
        for k in range(1, 5):
            basis = enumerate_basis(n_vars, RegularizationScheme.by_max_order(k, rates), rates)
            expected = brute_force_orders(n_vars, k)
            assert len(basis) == math.comb(n_vars + k, k) - 1
            assert {tuple(row) for row in basis.orders} == expected


def test_count_law_larger_cases():
    for n_vars, k in [(6, 5), (7, 4), (8, 5)]:
        rates = np.ones(n_vars)
        basis = enumerate_basis(n_vars, RegularizationScheme.by_max_order(k, rates), rates)
        assert len(basis) == math.comb(n_vars + k, k) - 1


def test_lookup_is_exact_inverse():
    rates = np.linspace(0.5, 2.0, 4)
    basis = enumerate_basis(4, RegularizationScheme.by_max_order(4, rates), rates)
    for i in range(len(basis)):
        assert basis.position(basis.orders[i]) == i


def weight_basis(n_vars, r):
    rates = np.linspace(0.3, 0.9, n_vars)
    return enumerate_basis(n_vars, RegularizationScheme.by_weight(r), rates)


@pytest.mark.parametrize("n_vars", [1, 2, 3, 5, 40])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_positions_invert_order_rule_enumeration(n_vars, k):
    rates = np.ones(n_vars)
    basis = enumerate_basis(n_vars, RegularizationScheme.by_max_order(k, rates), rates)
    np.testing.assert_array_equal(basis.positions(basis.orders), np.arange(len(basis)))


@pytest.mark.parametrize("n_vars, r", [(1, 2.0), (2, 1.0), (3, 1.7), (5, 1.5), (8, 1.2)])
def test_positions_invert_weight_rule_enumeration(n_vars, r):
    basis = weight_basis(n_vars, r)
    np.testing.assert_array_equal(basis.positions(basis.orders), np.arange(len(basis)))


def test_positions_of_absent_rows():
    rates = np.ones(3)
    basis = enumerate_basis(3, RegularizationScheme.by_max_order(2, rates), rates)
    absent = [(0, 0, 0), (3, 0, 0), (1, 1, 1), (-1, 2, 0), (2, -1, 1), (0, 0, -1)]
    np.testing.assert_array_equal(basis.positions(absent), -1)
    wbasis = weight_basis(3, 1.2)  # rates 0.3, 0.6, 0.9
    assert wbasis.max_degree == 4
    np.testing.assert_array_equal(wbasis.positions([(0, 0, 2), (1, 1, 1), (0, 0, 0)]), -1)
    assert wbasis.positions([(4, 0, 0)])[0] >= 0
    with pytest.raises(BasisError):
        wbasis.position((0, 0, 2))


def test_positions_reject_wrong_row_width():
    rates = np.ones(3)
    basis = enumerate_basis(3, RegularizationScheme.by_max_order(2, rates), rates)
    with pytest.raises(BasisError):
        basis.positions(np.zeros((2, 4), dtype=int))
    with pytest.raises(BasisError):
        basis.positions((1, 0, 0))
    with pytest.raises(BasisError):
        basis.get((1, 0))


def test_weight_rule_ranks_must_fit_int64():
    # C(90, 30) ~ 6.7e23 multi-indices of degree <= 30 over 60 variables
    rates = np.array([0.01] + [1e3] * 59)
    basis = BasisSet(np.array([[30] + [0] * 59]), rates, RegularizationScheme.by_weight(0.3))
    with pytest.raises(ResourceLimitError):
        basis.positions(basis.orders)


def test_scalar_lookups_agree_with_positions():
    basis = weight_basis(4, 1.5)
    rng = np.random.default_rng(5)
    rows = rng.integers(-1, basis.max_degree + 2, size=(200, 4))
    for row, pos in zip(rows, basis.positions(rows)):
        assert basis.get(row) == pos
        if pos >= 0:
            assert basis.position(tuple(row)) == pos
        else:
            assert basis.get(row, default=-7) == -7
            with pytest.raises(BasisError):
                basis.position(row)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.booleans(), st.data())
def test_positions_match_brute_force_lookup(n_vars, k, by_weight, data):
    if by_weight:
        basis = weight_basis(n_vars, 0.3 * k + 0.05)
    else:
        rates = np.ones(n_vars)
        basis = enumerate_basis(n_vars, RegularizationScheme.by_max_order(k, rates), rates)
    table = {tuple(int(v) for v in row): i for i, row in enumerate(basis.orders)}
    rows = data.draw(st.lists(st.lists(st.integers(-1, k + 1), min_size=n_vars,
                                       max_size=n_vars), min_size=1, max_size=30))
    expected = [table.get(tuple(row), -1) for row in rows]
    np.testing.assert_array_equal(basis.positions(np.array(rows)), expected)


def legacy_enumeration(n_vars, rates, scheme):
    """Every multiset of each degree in combinations_with_replacement order, filtered."""
    rows = []
    for degree in range(1, scheme.max_order(rates) + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), degree):
            vec = np.bincount(combo, minlength=n_vars)
            if scheme.rule == "order" or float(np.dot(vec, rates)) <= scheme.r * (1 + 1e-9):
                rows.append(vec)
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.booleans(), st.data())
def test_label_rank_is_enumeration_position(n_vars, k, by_weight, data):
    if by_weight:
        rates = np.sort(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n_vars,
                                           max_size=n_vars)))
        scheme = RegularizationScheme.by_weight(k * rates[0])
    else:
        rates = np.ones(n_vars)
        scheme = RegularizationScheme.by_max_order(k, rates)
    basis = enumerate_basis(n_vars, scheme, rates)
    np.testing.assert_array_equal(basis.orders, legacy_enumeration(n_vars, rates, scheme))
    # labels: each row's variables with multiplicity, ascending, padded with N
    width = basis.max_degree
    labels = [sorted(np.repeat(np.arange(n_vars), row)) for row in basis.orders]
    np.testing.assert_array_equal(
        basis.labels, [lab + [n_vars] * (width - len(lab)) for lab in labels])
    np.testing.assert_array_equal(basis.label_positions(basis.labels), np.arange(len(basis)))


def orders_digest(basis):
    return hashlib.sha256(np.ascontiguousarray(basis.orders).tobytes()).hexdigest()


def test_enumeration_pinned():
    # sha256 of the int32 orders of the NSE-40 K = 3 basis of
    # configs/nse_taylor_green.json and of the r = 1.6 weight-rule basis of
    # configs/audits_bounded_oscillator.json (rates 0.1, 0.1)
    from kolmsim.systems import nse_system

    rates = nse_system(40, 0.1, 1e-5).rates
    basis = enumerate_basis(40, RegularizationScheme.by_max_order(3, rates), rates)
    assert orders_digest(basis) == \
        "00e8d679e9653f5880f938fcc5df96db2e3807c5cc0d5b3bea336d3ec67e2dc0"
    wbasis = enumerate_basis(2, RegularizationScheme.by_weight(1.6), (0.1, 0.1))
    assert len(wbasis) == 152
    assert orders_digest(wbasis) == \
        "205bd1a9c405ae5f3864ae4ae3b38d91c1446943d27fd21fd973948229c9150d"


def test_monotone_graded_enumeration():
    rates = np.linspace(0.2, 1.0, 5)
    basis = enumerate_basis(5, RegularizationScheme.by_max_order(4, rates), rates)
    assert np.all(np.diff(basis.degrees) >= 0)


def test_basis_cap_is_loud():
    rates = np.ones(40)
    with pytest.raises(ResourceLimitError):
        enumerate_basis(40, RegularizationScheme.by_max_order(3, rates), rates, cap=1000)


def test_weight_rule_row_width_is_capped_before_allocation():
    # r / lambda_1 = 1e301 rows d e_1, refused before the (1, k_max) degree-0 row is built
    rates = np.array([0.1, 0.2])
    with pytest.raises(ResourceLimitError, match=r"at least 1e\+301 entries"):
        enumerate_basis(2, RegularizationScheme.by_weight(1e300), rates)


def test_weight_rule_requires_r_equals_R():
    with pytest.raises(BasisError):
        RegularizationScheme(r=1.0, R=2.0, rule="weight")


def test_empty_basis_rejected():
    with pytest.raises(BasisError):
        enumerate_basis(2, RegularizationScheme.by_weight(0.5), (1.0, 1.0))


def test_unsorted_rates_rejected():
    with pytest.raises(BasisError):
        enumerate_basis(2, RegularizationScheme.by_max_order(2, (1.0, 1.0)), (2.0, 1.0))
