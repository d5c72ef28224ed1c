"""Multi-index bookkeeping for truncated Hermite bases.

A multi-index assigns a Hermite degree to each of the N variables.  The
all-zero index (the constant function) is excluded everywhere: the
coefficient spaces used by the solver contain only zero-mean functions.
Bases are enumerated in a fixed graded order (ascending total degree,
ties broken by the multiset order of the variables) so that operator
block structure by total degree is visible and runs are reproducible.

Graded order gives every multi-index a closed-form rank, so
`BasisSet.positions` maps a whole array of rows to basis positions with
array arithmetic and no lookup table.  Among all multi-indices of degree
1..K, a row m of degree d = |m| sits at

    offset[d] + sum_{v < N-1} C(d - S_v + N-2-v, N-1-v),

where S_v = m_0 + ... + m_v is the prefix sum of the row and
offset[d] = C(N+d-1, d-1) - 1 counts the rows of degree 1..d-1.  The sum
is the combinatorial-number-system rank of m within its degree (Knuth,
TAOCP 4A, 7.2.1.3): term v counts the degree-d rows that agree with m
before variable v and hold more of variable v.  An order-rule basis holds
every multi-index of degree 1..K, so this rank is the position; a
weight-rule basis looks the rank up among the sorted ranks of its rows.

`positions` is the package's only multi-index lookup: every operator
assembler ranks its ladder-move targets with it, and a multi-index's
weight lambda_m is read from `BasisSet.weights`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisError, ResourceLimitError

DEFAULT_BASIS_CAP = 2_000_000

# Truncation rules.  ORDER keeps |m| <= r/lambda_1 and is compatible with a
# degree-preserving linear drift; WEIGHT keeps lambda_m <= r and is only
# valid when the linear drift vanishes.
ORDER_RULE = "order"
WEIGHT_RULE = "weight"

# Relative slack when comparing float weight sums against the cutoff r
# (0.1 + 0.1 + ... accumulates one-ulp dust that must not evict an index).
_WEIGHT_TOL = 1e-9


def _check_rates(rates) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.size < 1:
        raise BasisError("rates must be a non-empty 1-d vector")
    if np.any(rates <= 0.0):
        raise BasisError("dissipation rates must be strictly positive")
    if np.any(np.diff(rates) < 0.0):
        raise BasisError("dissipation rates must be sorted non-decreasing")
    return rates


@dataclass(frozen=True)
class RegularizationScheme:
    """Truncation parameters (r, R) plus the rule that realizes them."""

    r: float
    R: float
    rule: str

    def __post_init__(self):
        if not (0.0 < self.r <= self.R):
            raise BasisError("scheme requires 0 < r <= R")
        if self.rule not in (ORDER_RULE, WEIGHT_RULE):
            raise BasisError(f"unknown truncation rule {self.rule!r}")
        if self.rule == WEIGHT_RULE and self.r != self.R:
            raise BasisError("weight-cutoff rule requires r == R")

    @classmethod
    def by_max_order(cls, max_order: int, rates) -> "RegularizationScheme":
        """Order-cutoff scheme keeping |m| <= max_order, with R = r*(lambda_N/lambda_1)."""
        rates = _check_rates(rates)
        if max_order < 1:
            raise BasisError("max_order must be >= 1")
        r = max_order * float(rates[0])
        return cls(r=r, R=r * float(rates[-1] / rates[0]), rule=ORDER_RULE)

    @classmethod
    def by_weight(cls, r: float) -> "RegularizationScheme":
        """Weight-cutoff scheme keeping lambda_m <= r.  Only valid when b == 0."""
        return cls(r=float(r), R=float(r), rule=WEIGHT_RULE)

    def max_order(self, rates) -> int:
        rates = _check_rates(rates)
        return int(math.floor(self.r / rates[0] * (1.0 + _WEIGHT_TOL)))


class BasisSet:
    """Ordered, indexed enumeration of a finite multi-index truncation."""

    def __init__(self, orders_array: np.ndarray, rates: np.ndarray,
                 scheme: RegularizationScheme):
        self.orders = np.ascontiguousarray(orders_array, dtype=np.int32)
        self.rates = np.asarray(rates, dtype=float)
        self.scheme = scheme
        self.degrees = self.orders.sum(axis=1)
        self.weights = self.orders @ self.rates
        self._rank_tables = None  # built on the first lookup

    def __len__(self) -> int:
        return self.orders.shape[0]

    @property
    def n_vars(self) -> int:
        return self.orders.shape[1]

    @property
    def max_degree(self) -> int:
        """K, the largest total Hermite degree present."""
        return int(self.degrees.max()) if len(self) else 0

    def _tables(self):
        """(binom, offset, sorted ranks or None) for the graded rank formula.

        binom[v, s] = C(s + N-2-v, N-1-v) for a remaining degree s = d - S_v;
        sorted ranks (weight rule only) end in a sentinel above every rank,
        so a search never runs off the end.
        """
        if self._rank_tables is None:
            n, k = self.n_vars, self.max_degree
            total = math.comb(n + k, k)
            if total > np.iinfo(np.int64).max:
                raise ResourceLimitError(
                    f"ranks of {total} multi-indices overflow 64-bit integers")
            binom = np.array([[math.comb(s + n - 2 - v, n - 1 - v) for s in range(k + 1)]
                              for v in range(n - 1)], dtype=np.int64).reshape(n - 1, k + 1)
            offset = np.array([0] + [math.comb(n + d - 1, d - 1) - 1
                                     for d in range(1, k + 1)], dtype=np.int64)
            sorted_ranks = None
            if self.scheme.rule == WEIGHT_RULE:
                ranks = _graded_ranks(self.orders, binom, offset)[0]
                sorted_ranks = np.append(ranks, total)
            self._rank_tables = (binom, offset, sorted_ranks)
        return self._rank_tables

    def positions(self, rows) -> np.ndarray:
        """Basis position of each row of an (M, N) integer array; -1 where absent.

        Rows of degree 0, of degree above K, with a negative entry, or (weight
        rule) above the weight cutoff are absent.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.n_vars:
            raise BasisError("multi-index dimension mismatch")
        binom, offset, sorted_ranks = self._tables()
        ranks, valid = _graded_ranks(rows, binom, offset)
        if sorted_ranks is not None:
            pos = np.searchsorted(sorted_ranks, ranks)
            valid &= sorted_ranks[pos] == ranks
            ranks = pos
        return np.where(valid, ranks, -1)

    def position(self, orders) -> int:
        pos = int(self.positions(np.asarray(orders)[None])[0])
        if pos < 0:
            raise BasisError(f"multi-index {tuple(orders)} not in basis")
        return pos

    def get(self, orders, default: int = -1) -> int:
        pos = int(self.positions(np.asarray(orders)[None])[0])
        return pos if pos >= 0 else default


def _graded_ranks(rows, binom, offset):
    """Closed-form graded ranks of `rows`, and which rows have degree 1..K."""
    prefix = np.cumsum(rows, axis=1, dtype=np.int64)
    degree = prefix[:, -1]
    valid = (degree >= 1) & (degree < len(offset)) & (rows >= 0).all(axis=1)
    rest = np.where(valid[:, None], degree[:, None] - prefix[:, :-1], 0)
    ranks = offset[np.where(valid, degree, 0)] \
        + binom[np.arange(binom.shape[0]), rest].sum(axis=1)
    return ranks, valid


def _orders_by_degree(n_vars: int, degree: int):
    """Yield order vectors of fixed total degree in the enumeration order.

    combinations_with_replacement over variable labels lists each degree-g
    multiset once, lowest variables first, which is the documented tie-break
    ((1,0) before (0,1), (2,0) before (1,1) before (0,2)).
    """
    for combo in itertools.combinations_with_replacement(range(n_vars), degree):
        vec = [0] * n_vars
        for v in combo:
            vec[v] += 1
        yield vec


def enumerate_basis(n_vars: int, scheme: RegularizationScheme, rates,
                    cap: int = DEFAULT_BASIS_CAP) -> BasisSet:
    """Enumerate the truncated multi-index set for the given scheme.

    Raises ResourceLimitError if the basis would exceed `cap` entries; the
    failure is loud rather than a silent truncation.
    """
    rates = _check_rates(rates)
    if rates.size != n_vars:
        raise BasisError("rate vector length must equal the variable count")
    k_max = scheme.max_order(rates)
    if k_max < 1:
        raise BasisError("cutoff r is below lambda_1: the basis would be empty")

    if scheme.rule == ORDER_RULE:
        total = math.comb(n_vars + k_max, k_max) - 1
        if total > cap:
            raise ResourceLimitError(
                f"basis of {total} entries exceeds the cap of {cap}")

    rows = []
    cutoff = scheme.r * (1.0 + _WEIGHT_TOL)
    for degree in range(1, k_max + 1):
        for vec in _orders_by_degree(n_vars, degree):
            if scheme.rule == WEIGHT_RULE and float(np.dot(vec, rates)) > cutoff:
                continue
            rows.append(vec)
            if len(rows) > cap:
                raise ResourceLimitError(
                    f"basis exceeds the cap of {cap} entries")
    return BasisSet(np.array(rows, dtype=np.int32), rates, scheme)
