"""Built-in system constructors.

Four families: the planar nonlinear oscillator (cubic and bounded
frequency profiles), the spectral Galerkin discretization of the 2D
incompressible Navier-Stokes equations on the torus, the Taylor-Green
analytic reference flow, and the clock-register encoding that maps a real
quantum circuit to a sparse skew linear drift.  The NSE advection
operator is assembled from its degree-raising block R alone as R - R^T,
skew by construction; the energy conservation that makes the lowering
block -R^T is checked on the triples themselves, through the radial
residual of `operators.verify_divergence_free`.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp

from .errors import BasisError, DriftError, ResourceLimitError
from .multiindex import DEFAULT_BASIS_CAP, BasisSet, RegularizationScheme, enumerate_basis
from .operators import QuadratureDrift, SystemSpec, _csr_from_entries, _ladder_hits

# ---------------------------------------------------------------------------
# nonlinear oscillator
# ---------------------------------------------------------------------------


class OscillatorLadderDrift:
    """Closed-form drift of the planar oscillator with omega(r) = 1 + r^2.

    The Galerkin matrix is the ladder composition
    (I + eta (a1+a1')^2 + eta (a2+a2')^2)(a2' a1 - a1' a2), eta = q/(2 lambda),
    evaluated on a working basis extended two degrees above the target so
    the truncated product equals the exact projection.
    """

    def __init__(self, lam: float, q: float):
        self.eta = q / (2.0 * lam)
        self.sparsity = 2

    def value(self, x, out=None):
        """c(x) = (x2 w, -x1 w) with w = 1 + x1^2 + x2^2, written into `out`.

        The output components double as scratch, so a call with `out`
        allocates nothing; `out` must not overlap `x`.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape) if out is None else out
        x1, x2 = x[..., 0], x[..., 1]
        c1, c2 = out[..., 0], out[..., 1]
        np.square(x1, out=c1)
        c1 += 1.0
        np.square(x2, out=c2)
        c1 += c2  # w
        np.multiply(x1, c1, out=c2)
        np.negative(c2, out=c2)
        np.multiply(x2, c1, out=c1)
        return out

    def divergence(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def assemble(self, basis: BasisSet, spec) -> sp.csr_matrix:
        ext = enumerate_basis(2, RegularizationScheme.by_max_order(basis.max_degree + 2,
                                                                   spec.rates), spec.rates)
        # slot 0 holds the constant (0, 0), slot p + 1 the basis row at position p
        dim = len(ext) + 1

        def lowering(var):
            cols = np.nonzero(ext.orders[:, var])[0]
            target = ext.orders[cols]
            target[:, var] -= 1
            vals = np.sqrt(ext.orders[cols, var])
            return sp.coo_matrix((vals, (ext.positions(target) + 1, cols + 1)),
                                 shape=(dim, dim)).tocsr()

        a1, a2 = lowering(0), lowering(1)
        x1 = a1 + a1.T
        x2 = a2 + a2.T
        rotation = a2.T @ a1 - a1.T @ a2
        scaling = sp.identity(dim, format="csr") + self.eta * (x1 @ x1) + self.eta * (x2 @ x2)
        full = (scaling @ rotation).tocsr()

        idx = ext.positions(basis.orders) + 1
        return full[np.ix_(idx, idx)].tocsr()


def oscillator_system(lam: float = 0.1, q: float = 0.02,
                      profile: str = "cubic") -> SystemSpec:
    """Planar oscillator dX1 = -lam X1 + omega(|X|) X2, dX2 = -lam X2 - omega X1.

    profile "cubic" uses omega(r) = 1 + r^2 (unbounded drift, J = inf) and a
    ladder-algebra closed form; profile "bounded" uses omega(r) = 1/(1+r^2)
    (J = 1/2) and is routed to quadrature assembly.
    """
    rates = np.array([lam, lam], dtype=float)
    if profile == "cubic":
        drift = OscillatorLadderDrift(lam, q)
        strength = math.inf  # sup r (1 + r^2) diverges
    elif profile == "bounded":
        def omega(x):
            return 1.0 / (1.0 + x[..., 0] ** 2 + x[..., 1] ** 2)

        funcs = {0: lambda x: x[..., 1] * omega(x),
                 1: lambda x: -x[..., 0] * omega(x)}
        drift = QuadratureDrift(funcs, {0: (0, 1), 1: (0, 1)})
        strength = 0.5
    else:
        raise DriftError(f"unknown oscillator profile {profile!r}")
    return SystemSpec(name=f"oscillator[{profile}]", rates=rates, noise=q,
                      nonlinear=drift, strength=strength)


# ---------------------------------------------------------------------------
# spectral 2D Navier-Stokes
# ---------------------------------------------------------------------------


def wavenumber_table(n_modes: int) -> np.ndarray:
    """First n_modes wavevectors k = (k1, k2), k1 >= 0, k1 = 0 => k2 > 0.

    Ordered by |k|^2 ascending with ties broken by (k1, k2) lex, so the
    Stokes eigenvalues 4 pi^2 |k|^2 come out non-decreasing.
    """
    bound = 2
    while True:
        cands = [(k1, k2) for k1 in range(bound + 1)
                 for k2 in range(-bound, bound + 1)
                 if (k1 > 0) or (k1 == 0 and k2 > 0)]
        cands.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2, k))
        # only keep modes whose square norm is certainly complete at this bound
        complete = [k for k in cands if k[0] ** 2 + k[1] ** 2 <= bound ** 2]
        if len(complete) >= n_modes:
            return np.array(complete[:n_modes], dtype=int)
        bound *= 2


def _check_mode_count(n: int):
    """Refuse n modes past the basis cap, or whose 3 n (n - 1) candidate triples
    (the table `_build_triples` fills) are."""
    if n > DEFAULT_BASIS_CAP:  # a basis of order >= 1 has more rows than modes
        raise ResourceLimitError(f"{n} modes exceed the basis cap of {DEFAULT_BASIS_CAP}")
    if 3 * n * (n - 1) > DEFAULT_BASIS_CAP:
        raise ResourceLimitError(f"{n} modes make 3 modes (modes - 1) = {3 * n * (n - 1)} "
                                 f"candidate triples, over the cap of {DEFAULT_BASIS_CAP}")


class SpectralAdvectionDrift:
    """Quadratic advection drift of the Galerkin-projected 2D NSE.

    Matrix elements follow the closed Kronecker-delta representation: each
    interacting triple of modes (k, i, j) with k in {i+j, i-j, j-i}
    contributes a geometric factor (i_perp . j)(j . k)/(|i||k||j|^2) and
    ladder moves that lower k by one and change i and j by one each, so the
    operator couples total degrees differing by exactly one.  The
    divergence-free conditions make the projected operator skew (triad
    energy conservation, Kraichnan & Montgomery, Rep. Prog. Phys. 43 (1980)
    547), so the moves that lower i or j sum to minus the transpose of the
    raising block R.  Assembly generates only the raising moves, on columns
    of degree below K, and returns R - R^T, skew in its float data by
    construction.  `value` evaluates the same triples, so the radial
    residual of `verify_divergence_free` checks their energy conservation.
    """

    def __init__(self, table: np.ndarray, nu: float, q: float):
        self.table = np.asarray(table, dtype=int)
        if np.any((self.table[:, 0] < 0) |
                  ((self.table[:, 0] == 0) & (self.table[:, 1] <= 0))):
            raise DriftError("wavenumber table violates the sign convention "
                             "(k1 > 0, or k1 = 0 and k2 > 0)")
        self.nu = float(nu)
        self.q = float(q)
        self.lam_raw = 4.0 * math.pi ** 2 * (self.table ** 2).sum(axis=1).astype(float)
        self.rates = self.nu * self.lam_raw
        _check_mode_count(len(self.table))
        self._build_triples()

    def _build_triples(self):
        table, n = self.table, len(self.table)
        # mode of each wavevector, on a grid wide enough for every i +- j
        span = 2 * int(np.abs(table).max())
        grid = np.full((2 * span + 1,) * 2, -1)
        grid[table[:, 0] + span, table[:, 1] + span] = np.arange(n)
        # each pair (i, j), i != j, tries k = i + j, i - j, j - i in turn; the
        # coefficient of i is the triple's sign
        i_idx, j_idx = (np.repeat(a, 3) for a in np.nonzero(~np.eye(n, dtype=bool)))
        sign, sign_j = (np.tile(a, n * (n - 1)) for a in ([1, 1, -1], [1, -1, 1]))
        ivec, jvec = table[i_idx], table[j_idx]
        kvec = sign[:, None] * ivec + sign_j[:, None] * jvec
        k_idx = grid[kvec[:, 0] + span, kvec[:, 1] + span]
        geom = ((ivec[:, 1] * jvec[:, 0] - ivec[:, 0] * jvec[:, 1]).astype(float)
                * (jvec * kvec).sum(axis=1).astype(float))
        live = (k_idx >= 0) & (k_idx != i_idx) & (k_idx != j_idx) & (geom != 0.0)
        norm_sq = [(v * v).sum(axis=1).astype(float) for v in (ivec, kvec, jvec)]
        geo = sign * geom / (np.sqrt(norm_sq[0]) * np.sqrt(norm_sq[1]) * norm_sq[2])
        self._k, self._i, self._j, self._geo = (a[live] for a in (k_idx, i_idx, j_idx, geo))
        # (k, i, j, the triple's coefficient -0.5 sqrt(2 lambda_j) geo in c_k), for `value`
        coeff = -0.5 * np.sqrt(2.0 * self.lam_raw[self._j]) * self._geo
        self.triples = list(zip(*(a.tolist() for a in (self._k, self._i, self._j, coeff))))
        # the support size of c_k is the number of modes in its triples
        pairs = np.unique(np.concatenate([self._k * n + self._i, self._k * n + self._j]))
        self.sparsity = int(np.bincount(pairs // n).max(initial=0))

    def value(self, x, out=None):
        """c_k(x) = -sum b(e_i, e_j, e_k) x_i x_j over the interacting triples."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape) if out is None else out
        out.fill(0.0)
        term = np.empty(x.shape[:-1])
        for k_idx, i_idx, j_idx, coeff in self.triples:
            np.multiply(x[..., i_idx], coeff, out=term)
            term *= x[..., j_idx]
            out[..., k_idx] += term
        return out

    def divergence(self, x):
        # c_k never touches x_k (triples exclude i = k and j = k)
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def assemble(self, basis: BasisSet, spec) -> sp.csr_matrix:
        shape = (len(basis),) * 2
        top, lam, q_eff = basis.max_degree, self.lam_raw, self.q / self.nu
        # each triple of k lowers k and raises i and j, on columns with m_k > 0, |m| < K:
        # each such column holding k (k ascending, then columns) meets k's triples in turn
        k_e, col, slot = basis.holders(np.arange(len(self.table)), basis.degrees < top)
        # the triples of each k, in their order, at own[first[k]:][:count[k]]
        own, count = np.argsort(self._k, kind="stable"), np.bincount(self._k, minlength=len(lam))
        first, parts = np.cumsum(count) - count, []
        # in slabs of about len(basis) / 4 candidates, which bound the working arrays
        for part in np.array_split(np.arange(k_e.size), max(1, 4 * count[k_e].sum() // len(basis))):
            reps = count[k_e[part]]  # holder e meets each triple of its k in turn
            e = np.repeat(part, reps)
            t = own[np.repeat(first[k_e[part]] - np.cumsum(reps) + reps, reps) + np.arange(e.size)]
            c = col[e]
            # k's first slot takes i; the last slot, padding as |m| < K, takes j
            edits = [(slot[e], self._i[t]), (np.full(c.size, top - 1), self._j[t])]
            target, hit = _ladder_hits(basis, c, edits)
            c, t = c[hit], t[hit]
            k_t, i_t, j_t = self._k[t], self._i[t], self._j[t]
            n_k, n_i, n_j = (basis.orders[c, v] for v in (k_t, i_t, j_t))
            base = -0.5 * np.sqrt(n_k * q_eff * lam[k_t] / lam[i_t]) * self._geo[t]
            parts.append((base * np.sqrt((n_i + 1) * (n_j + 1)), target, c))
        vals, rows, cols = map(np.concatenate, zip(*parts))
        # an entry sums at most the orderings (i, j) and (j, i) of one pair, and a
        # two-term sum does not depend on order
        raising = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        return (raising - raising.T).tocsr()


def nse_system(n_modes: int = 40, nu: float = 0.1, q: float = 1e-5) -> SystemSpec:
    """Galerkin 2D NSE in the Stokes eigenbasis with additive noise."""
    _check_mode_count(n_modes)  # before the wavenumber table, which grows with the modes
    table = wavenumber_table(n_modes)
    drift = SpectralAdvectionDrift(table, nu, q)
    spec = SystemSpec(name=f"nse[N={n_modes},nu={nu}]", rates=drift.rates,
                      noise=q, nonlinear=drift, strength=math.inf)
    return spec


def taylor_green(t, x, y, nu: float):
    """Decaying Taylor-Green vortex velocity (u1, u2) on the unit torus."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("time must be non-negative")
    decay = np.exp(-8.0 * math.pi ** 2 * nu * np.asarray(t, dtype=float))
    u1 = math.sqrt(2) * np.sin(2 * math.pi * np.asarray(x)) \
        * np.cos(2 * math.pi * np.asarray(y)) * decay
    u2 = -math.sqrt(2) * np.cos(2 * math.pi * np.asarray(x)) \
        * np.sin(2 * math.pi * np.asarray(y)) * decay
    return u1, u2


def taylor_green_mode_coefficients(table: np.ndarray, t: float, nu: float) -> np.ndarray:
    """Projection of the Taylor-Green flow onto the sine eigenbasis.

    Only modes (1, 1) and (1, -1) carry weight: +g(t)/sqrt(2) and
    -g(t)/sqrt(2) with g(t) = exp(-8 pi^2 nu t).
    """
    lookup = {tuple(k): idx for idx, k in enumerate(np.asarray(table))}
    if (1, 1) not in lookup or (1, -1) not in lookup:
        raise BasisError("wavenumber table too small for the Taylor-Green modes")
    coeffs = np.zeros(len(table))
    g = math.exp(-8.0 * math.pi ** 2 * nu * t)
    coeffs[lookup[(1, 1)]] = g / math.sqrt(2)
    coeffs[lookup[(1, -1)]] = -g / math.sqrt(2)
    return coeffs


def probe_functional_coefficients(table: np.ndarray, xi) -> np.ndarray:
    """Coefficients of u0(x) = sum_k x_k (E1 . e_k(xi)) for a spatial probe xi, or a row
    of them for each point of an (..., 2) array: E1 . e_k(xi) = sqrt(2) k_2/|k| sin(2 pi k . xi)
    for the eigenfunction e_k(xi) = sqrt(2) (k_perp/|k|) sin(2 pi k . xi)."""
    xi = np.asarray(xi, dtype=float)[..., None, :, None]
    # each k . xi a dot product of its own (matmul of 1 x 2 by 2 x 1), as `k @ xi` rounds
    phase = math.sqrt(2) * np.sin(2 * math.pi * np.matmul(table[:, None, :], xi)[..., 0, 0])
    return table[:, 1] / np.sqrt((table * table).sum(axis=1)) * phase


# ---------------------------------------------------------------------------
# circuit-to-drift clock construction
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2)

GATE_MATRICES = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "H": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]]),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                     dtype=float),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]),
}


def rotation_gate(theta: float) -> np.ndarray:
    """Real single-qubit rotation R_y(theta)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def embed_gate(us, targets, n_qubits: int) -> tuple:
    """COO triples (gate, rows, cols, vals) of a stack (G, 2^k, 2^k) of real orthogonal
    k-qubit gates that share `targets`, on the full register (qubit 0 = leftmost bit):
    each nonzero us[g, a, b] lands at the 2^(n-k) places whose target bits read a and b
    and whose other bits agree.  The checks run once over the stack and cover every gate."""
    us = np.asarray(us)
    if np.iscomplexobj(us):
        if np.abs(us.imag).max() > 0:
            raise DriftError("gates must have real matrix elements")
        us = us.real
    us, k = us.astype(float), len(targets)
    if k < 1 or us.shape[1:] != (2 ** k, 2 ** k):
        raise DriftError("a gate on k >= 1 target qubits must be a 2^k x 2^k matrix")
    if np.abs(us @ us.transpose(0, 2, 1) - np.eye(2 ** k)).max() > 1e-12:
        raise DriftError("gate matrix is not orthogonal")
    if len(set(targets)) != k or any(t < 0 or t >= n_qubits for t in targets):
        raise DriftError("bad target qubit list")
    # row a holds the register indices whose target bits read a, ordered by their other bits
    order = list(targets) + [q for q in range(n_qubits) if q not in targets]
    place = np.arange(2 ** n_qubits).reshape((2,) * n_qubits).transpose(order).reshape(2 ** k, -1)
    gate, out, inp = np.nonzero(us)
    return (np.repeat(gate, place.shape[1]), place[out].ravel(), place[inp].ravel(),
            np.repeat(us[gate, out, inp], place.shape[1]))


def chain_walk_weights(n_gates: int) -> np.ndarray:
    """Weights that turn the clock walk into a half-turn: w_j = (pi/2) sqrt((m-j)(j+1)).

    With the skew generator sum_j w_j (|j><j+1| - |j+1><j|), the matrix
    exponential exp(-walk) maps |0> exactly to |m> for every chain length.
    """
    j = np.arange(n_gates)
    return 0.5 * math.pi * np.sqrt((n_gates - j) * (j + 1.0))


def clock_drift(jobs) -> sp.csr_matrix:
    """Skew drift matrix encoding (circuit, n_qubits) jobs on their clock x register spaces.

    A job's block is b = sum_j w_{j-1} (|j-1><j| (x) U_j^T  -  |j><j-1| (x) U_j) over
    the (m+1) 2^n dimensional space; exp(-b)|0, 0^n> = |m> (x) U|0^n>.  Several jobs
    give the direct sum of their blocks, in job order; one circuit is a list of one.
    Every job passes the no-gate and register-cap checks before any embedding; each
    gate is then filed with its block offset and chain weight under its (qubits,
    targets, shape) class, and each class is embedded by one `embed_gate` call.
    """
    classes, offset = {}, 0
    for circuit, n_qubits in jobs:
        m, dim_q = len(circuit), 2 ** n_qubits
        if m < 1:
            raise DriftError("circuit must contain at least one gate")
        if (m + 1) * dim_q > DEFAULT_BASIS_CAP:  # before embed_gate places 2^n entries a gate
            raise ResourceLimitError(f"clock register of (gates + 1) 2^qubits = {(m + 1) * dim_q}"
                                     f" variables exceeds the cap of {DEFAULT_BASIS_CAP}")
        w = chain_walk_weights(m)
        for j, (u, targets) in enumerate(circuit, start=1):
            key = (n_qubits, tuple(targets), np.shape(u))
            classes.setdefault(key, []).append((u, offset + (j - 1) * dim_q, w[j - 1]))
        offset += (m + 1) * dim_q
    rows, cols, vals = [], [], []
    for (n_qubits, targets, _), members in classes.items():
        us, r0, w = zip(*members)
        gate, r, c, v = embed_gate(us, targets, n_qubits)
        r0, wv = np.array(r0)[gate], np.array(w)[gate] * v
        c0 = r0 + 2 ** n_qubits
        # block (j-1, j) holds w U^T, block (j, j-1) holds -w U
        rows += [r0 + c, c0 + r]
        cols += [c0 + r, r0 + c]
        vals += [wv, -wv]
    # gate j fills only blocks (j-1, j) and (j, j-1) of its job, so no entry repeats
    return _csr_from_entries(*map(np.concatenate, (rows, cols, vals)), offset)


def clock_system(circuit, n_qubits: int, lam: float = 0.1, q: float = 0.1,
                 drift=None) -> SystemSpec:
    """Linear divergence-free system whose noiseless flow runs the circuit; `drift`, when
    given, is its `clock_drift` already built (a direct sum's leading block)."""
    b = clock_drift([(circuit, n_qubits)]) if drift is None else drift
    n_vars = b.shape[0]
    j1 = float(np.abs(b.data).max()) if b.nnz else 0.0
    return SystemSpec(name=f"clock[m={len(circuit)},n={n_qubits}]",
                      rates=np.full(n_vars, float(lam)), noise=q,
                      linear=b, strength=0.0, linear_strength=j1)


def circuit_amplitude(circuit, n_qubits: int) -> float:
    """<0^n| U_m ... U_1 |0^n>, each gate contracted (BLAS-free `einsum`) with its
    target axes of the (2,)*n state tensor; independent of `embed_gate`."""
    state = np.eye(1, 2 ** n_qubits).reshape((2,) * n_qubits)  # |0^n>
    for u, targets in circuit:
        order = list(targets) + [q for q in range(n_qubits) if q not in targets]
        front = state.transpose(order).reshape(2 ** len(targets), -1)
        out = np.einsum("ab,bc->ac", np.asarray(u, dtype=float), front).reshape(state.shape)
        state = out.transpose(sorted(range(n_qubits), key=order.__getitem__))
    return float(state[(0,) * n_qubits])


def random_real_circuit(rng, n_qubits: int, n_gates: int, max_arity: int = 2):
    """Random circuit over {X, Z, H, Ry(theta), CNOT, CZ}."""
    circuit = []
    two_qubit = ["CNOT", "CZ"]
    single = ["X", "Z", "H", "RY"]
    for _ in range(n_gates):
        use_two = (n_qubits >= 2 and max_arity >= 2 and rng.random() < 0.5)
        if use_two:
            name = two_qubit[rng.integers(len(two_qubit))]
            targets = tuple(rng.choice(n_qubits, size=2, replace=False))
            circuit.append((GATE_MATRICES[name], targets))
        else:
            name = single[rng.integers(len(single))]
            u = rotation_gate(rng.uniform(0, 2 * math.pi)) if name == "RY" \
                else GATE_MATRICES[name]
            circuit.append((u, (int(rng.integers(n_qubits)),)))
    return circuit


def parse_circuit(lines):
    """Parse the one-gate-per-line circuit format.

    `H 0`, `CNOT 0 1`, `RY(0.42) 1`, or `MATRIX [[0,1],[1,0]] 0`; `#`
    starts a comment.
    """
    circuit = []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        name = head.upper()
        try:
            if name.startswith("RY(") and name.endswith(")"):
                u = rotation_gate(float(head[3:-1]))
            elif name == "MATRIX":
                u, rest = np.array(json.loads(rest[0]), dtype=float), rest[1:]
            elif name in GATE_MATRICES:
                u = GATE_MATRICES[name]
            else:
                raise DriftError(f"line {lineno}: unknown gate {head!r}")
            targets = tuple(int(t) for t in rest)
            needed = int(math.log2(u.shape[0]))
        except (ValueError, TypeError, IndexError) as exc:
            raise DriftError(f"line {lineno}: {exc}") from exc
        if len(targets) != needed:
            raise DriftError(f"line {lineno}: gate needs {needed} targets")
        circuit.append((u, targets))
    return circuit
