"""Multi-index bookkeeping for truncated Hermite bases.

A multi-index assigns a Hermite degree to each of the N variables.  The
all-zero index (the constant function) is excluded everywhere: the
coefficient spaces used by the solver contain only zero-mean functions.
Bases are enumerated in a fixed graded order (ascending total degree,
ties broken by the multiset order of the variables) so that operator
block structure by total degree is visible and runs are reproducible.

A row of degree d <= K is also kept as its sorted variable labels
l_0 <= ... <= l_{d-1}, padded with N to width K (`BasisSet.labels`).  The
degree-d rows are the degree-(d-1) rows, each extended by one label no
smaller than its last, which is the graded order; the weight rule drops a
row above its cutoff before extending it (rates are positive).  Among all
multi-indices of degree 1..K, a row sits at

    base[d] - sum_{s < d} C(N - l_s + d - s - 2, d - s),   base[d] = C(N+d, d) - 2,

the combinatorial-number-system rank of its labels (Knuth, TAOCP 4A,
7.2.1.3) after the rows of lower degree: at most K gathers per row.  An
order-rule basis holds every multi-index of degree 1..K, so this rank is
the position; a weight-rule basis looks the rank up among the sorted
ranks of its rows.  `label_positions` is the package's only multi-index
lookup (`positions` turns dense rows into labels first), and a
multi-index's weight lambda_m is read from `BasisSet.weights`.
"""

from __future__ import annotations

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
                 scheme: RegularizationScheme, labels: np.ndarray | None = None):
        self.orders = np.ascontiguousarray(orders_array, dtype=np.int32)
        self.rates = np.asarray(rates, dtype=float)
        self.scheme = scheme
        self.degrees = self.orders.sum(axis=1)
        self.weights = self.orders @ self.rates
        # sorted variable labels of each row, padded with N to width K
        self.labels = _labels_of(self.orders, self.max_degree) if labels is None else labels
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
        """(term, base, sorted ranks or None) for the graded label rank.

        term[d, s, l] = C(N-l+d-s-2, d-s) for a slot s < d, 0 at the padding
        label N; base[d] = C(N+d, d) - 2.  Sorted ranks (weight rule only) end
        in a sentinel above every rank, so a search never runs off the end.
        """
        if self._rank_tables is None:
            n, k = self.n_vars, self.max_degree
            total = math.comb(n + k, k)
            if total > np.iinfo(np.int64).max:
                raise ResourceLimitError(
                    f"ranks of {total} multi-indices overflow 64-bit integers")
            # multisets[j, u + 1] = C(u+j-1, j) multisets of size j over u >= 0 labels
            multisets = np.zeros((k + 1, n + 3), dtype=np.int64)
            multisets[0, 1:] = 1
            for j in range(1, k + 1):
                multisets[j, 2:] = np.cumsum(multisets[j - 1, 2:])
            # C(N-l+j-2, j) at label l, 0 at the padding label N (which slots s >= d hold)
            term = multisets[:, n::-1][np.maximum(np.arange(k + 1)[:, None] - np.arange(k), 0)]
            self._rank_tables = (term, multisets[:, n + 2] - 2, None)
            if self.scheme.rule == WEIGHT_RULE:  # the tables so far return bare ranks
                ranks = np.append(self.label_positions(self.labels), total)
                self._rank_tables = self._rank_tables[:2] + (ranks,)
        return self._rank_tables

    def label_positions(self, labels) -> np.ndarray:
        """Basis position of each row of an (M, K) label array; -1 where absent.

        A padding-only row (degree 0) and, weight rule, a row above the cutoff
        are absent.
        """
        term, base, sorted_ranks = self._tables()
        degree = (labels < self.n_vars).sum(axis=1)
        ranks = base[degree] - term[degree[:, None], np.arange(labels.shape[1]), labels].sum(axis=1)
        if sorted_ranks is None:
            return ranks
        pos = np.searchsorted(sorted_ranks, ranks)
        return np.where(sorted_ranks[pos] == ranks, pos, -1)

    def positions(self, rows) -> np.ndarray:
        """Basis position of each row of an (M, N) integer array; -1 where absent.

        Rows of degree 0, of degree above K, with a negative entry, or (weight
        rule) above the weight cutoff are absent.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.n_vars:
            raise BasisError("multi-index dimension mismatch")
        return self.label_positions(_labels_of(rows, self.max_degree))

    def position(self, orders) -> int:
        pos = int(self.positions(np.asarray(orders)[None])[0])
        if pos < 0:
            raise BasisError(f"multi-index {tuple(orders)} not in basis")
        return pos

    def get(self, orders, default: int = -1) -> int:
        pos = int(self.positions(np.asarray(orders)[None])[0])
        return pos if pos >= 0 else default


def _labels_of(rows, k: int) -> np.ndarray:
    """Sorted labels of each (M, N) row, padded with N to width K.

    A row of degree above K or with a negative entry gets padding only, so it is absent.
    """
    degree = rows.sum(axis=1)
    keep = (degree <= k) & (rows >= 0).all(axis=1)
    row, var = np.nonzero(rows * keep[:, None])
    owner, slot = _ragged(np.where(keep, degree, 0))  # each quantum, row by row
    labels = np.full((len(rows), k), rows.shape[1], dtype=np.intp)
    labels[owner, slot] = np.repeat(var, rows[row, var])
    return labels


def _ragged(counts):
    """(owner, step 0, 1, ... within the owner) of counts[o] items per owner o, in order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


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
    if k_max > cap:  # checked before any row is built: the basis holds the rows d e_1, d <= k_max
        raise ResourceLimitError(f"basis of at least {k_max:.3g} entries exceeds the cap of {cap}")

    if scheme.rule == ORDER_RULE:
        total = math.comb(n_vars + k_max, k_max) - 1
        if total > cap:
            raise ResourceLimitError(
                f"basis of {total} entries exceeds the cap of {cap}")

    cutoff = scheme.r * (1.0 + _WEIGHT_TOL)
    level = np.full((1, k_max), n_vars, dtype=np.intp)  # the degree-0 row
    weight, blocks = np.zeros(1), []
    for degree in range(1, k_max + 1):
        # each degree-(d-1) row, extended by every label no smaller than its last
        last = level[:, degree - 2] if degree > 1 else np.zeros(1, dtype=np.intp)
        parent, step = _ragged(n_vars - last)
        new = last[parent] + step
        level = level[parent]
        level[:, degree - 1] = new
        if scheme.rule == WEIGHT_RULE:
            weight = weight[parent] + rates[new]
            keep = weight <= cutoff  # rates are positive: a dropped row's extensions drop too
            level, weight = level[keep], weight[keep]
        blocks.append(level)
        if sum(map(len, blocks)) > cap:
            raise ResourceLimitError(f"basis exceeds the cap of {cap} entries")
    labels = np.vstack(blocks)
    flat = (np.arange(len(labels))[:, None] * (n_vars + 1) + labels).ravel()
    orders = np.bincount(flat, minlength=len(labels) * (n_vars + 1))
    return BasisSet(orders.reshape(-1, n_vars + 1)[:, :n_vars], rates, scheme, labels)
