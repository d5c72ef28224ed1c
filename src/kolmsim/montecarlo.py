"""Simplified weak Euler Monte Carlo oracle for the underlying SDE.

Checks read only weak quantities E u0(X(t)), so each step replaces the
N(0, q dt) increment of Euler-Maruyama by +-sqrt(q dt), each sign with
probability 1/2.  Weak order 1 stays (Kloeden & Platen 1992, sec. 14.1),
an increment costs one random bit, and bounded increments cannot drive the
moment blow-up of explicit Euler under superlinear drifts (Hutzenthaler,
Jentzen & Kloeden 2011).  The initial point X(0) is still drawn Gaussian.

Each chunk of CHUNK_SIZE samples owns a Philox stream keyed by
(seed << 64) + chunk index.  The stream first gives the chunk's initial
normals, one (N, count) draw, then the sign words, bit-sliced across
samples: with W = ceil(count / 64) words per variable and step, increment
(step, variable v) of sample r is bit r % 64 (least significant first) of
word (step * N + v) * W + r // 64.  Trajectories that leave the guard
radius are frozen and counted; more than 0.1% of them fails the run, since
a dissipative system should never blow up.

A chunk steps an (N, count) state, one contiguous row per variable; drifts
fill their (count, N) `out` view in place (`SystemSpec.drift_value`).  Sign
words are drawn TIME_BLOCK steps at a time; each step gathers its increments,
-s or +s, from a (256, 8) table whose row b holds the 8 bits of byte b (the
padded tail of a partial chunk's last word is never read).  CHUNK_SIZE
is part of the reproducibility contract: it fixes which samples share a
stream, and chunks are marched and summed one after another in chunk order,
so estimates are bit-identical on one platform.  TIME_BLOCK is not: every
step reads its own N W words, so any block length reads the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceLimitError

CHUNK_SIZE = 8192       # fixed: part of the bit-reproducibility contract
TIME_BLOCK = 1024       # steps per raw-word draw (memory/speed tradeoff)
MAX_SAMPLE_STEPS = 10 ** 10  # work cap; oscillator.json runs 250,000 x 25,000
BLOWUP_THRESHOLD = 1e6
MIN_SAMPLES = 100       # fewest samples an estimate is formed from
BLOWUP_FRACTION = 1e-3


@dataclass
class SDERun:
    """Per-grid-time estimates of E u0(X(t)) with standard errors."""

    times: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    n_samples: int
    n_blowups: int
    dt: float
    seed: int

    def as_rows(self):
        for k in range(self.times.size):
            yield self.times[k], self.mean[k], self.se[k]


def _march_chunk(spec, x0, observable, grid_steps, n_steps, dt, seed,
                 chunk, count, initial_noise):
    n_vars = spec.n_vars
    sqrt_qdt = math.sqrt(spec.noise * dt)
    decay = (1.0 - dt * spec.rates)[:, None]  # Euler step of the pure dissipation part

    # Philox is counter-based: the (seed, chunk) key fully determines the
    # stream, independent of the other chunks
    bits = np.random.Philox(key=(int(seed) << 64) + chunk)
    xs = np.tile(np.asarray(x0, dtype=float)[:, None], (1, count))
    if initial_noise:
        init_std = np.sqrt(spec.noise / (2.0 * spec.rates))[:, None]
        xs += np.random.Generator(bits).standard_normal((n_vars, count)) * init_std
    cs = np.empty((n_vars, count))
    x, c = xs.T, cs.T  # the (count, N) views drifts and observables read
    alive = np.ones(count, dtype=bool)

    grid_lookup = {step: k for k, step in enumerate(grid_steps)}
    sums = np.zeros(len(grid_steps))
    sq_sums = np.zeros(len(grid_steps))
    counts = np.zeros(len(grid_steps), dtype=np.int64)

    def sweep_escaped():
        # nan-safe: comparisons with nan are False, so ~(... <= thr) catches it
        escaped = alive & ~(np.abs(xs).max(axis=0) <= BLOWUP_THRESHOLD)
        if escaped.any():
            alive[escaped] = False
            xs[:, escaped] = 0.0  # frozen; excluded from every later average

    def record(k):
        sweep_escaped()
        vals = observable(x[alive])
        sums[k] += vals.sum()
        sq_sums[k] += (vals ** 2).sum()
        counts[k] += int(alive.sum())

    if 0 in grid_lookup:
        record(grid_lookup[0])

    step = 0
    width = -(-count // 64)  # sign words per variable and step
    # row b: +s for each set bit of byte b, -s for each clear one (bits 0..7, s = sqrt(q dt))
    table = np.where(np.arange(256)[:, None] >> np.arange(8) & 1, sqrt_qdt, -sqrt_qdt)
    padded = np.empty((n_vars, 8 * width, 8))
    inc = padded.reshape(n_vars, 64 * width)[:, :count]
    # escaping samples may overflow between guard sweeps; they are frozen
    # before any recording, so estimates never see them
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            block = min(TIME_BLOCK, n_steps - step)
            raw = bits.random_raw(block * n_vars * width).reshape(block, n_vars, width)
            for b in range(block):
                spec.drift_value(x, c)
                xs *= decay
                cs *= dt
                xs += cs
                # bit r of a step's words signs sample r; uint8 indices never need clipping
                np.take(table, raw[b].view(np.uint8), axis=0, out=padded, mode="clip")
                xs += inc
                step += 1
                if step % 64 == 0:
                    sweep_escaped()
                if step in grid_lookup:
                    record(grid_lookup[step])
    return sums, sq_sums, counts, int(count - alive.sum())


def simulate(spec, x0, observable, times, n_samples: int, dt: float,
             seed: int = 0, initial_noise: bool = True) -> SDERun:
    """Simplified weak Euler estimate of E u0(X(t)) on a time grid.

    X(0) = x0 (+ Gaussian noise with variance q/(2 lambda_i) per variable
    unless disabled); each grid time must sit on the step lattice.
    """
    if n_samples < MIN_SAMPLES:
        raise NumericalError(f"need at least {MIN_SAMPLES} samples")
    if dt <= 0:
        raise NumericalError("time step must be positive")
    stiffest = float(spec.rates[-1])
    if spec.linear_strength > 0:
        stiffest = max(stiffest, float(spec.linear_strength))
    if dt > 0.1 / stiffest * (1 + 1e-12):
        raise NumericalError(
            f"time step {dt} exceeds the stability guard 0.1/max(lambda_N, J1) "
            f"= {0.1 / stiffest:.3g}")
    times = np.asarray(times, dtype=float)
    steps = np.rint(times / dt)
    if n_samples * steps.max() > MAX_SAMPLE_STEPS:
        raise ResourceLimitError(f"{n_samples} samples x {steps.max():.6g} steps exceed the "
                                 f"Monte Carlo work cap of {MAX_SAMPLE_STEPS:.3g} sample-steps")
    for t, step in zip(times, steps):
        if abs(step * dt - t) > 1e-9 * max(dt, abs(t)):
            raise NumericalError(f"grid time {t} is not a multiple of dt = {dt}")
    grid_steps = [int(step) for step in steps]
    n_steps = max(grid_steps)

    # fixed chunk layout + in-order reduction keeps results bit-stable
    sums = np.zeros(len(grid_steps))
    sq_sums = np.zeros(len(grid_steps))
    counts = np.zeros(len(grid_steps), dtype=np.int64)
    blowups = 0
    for chunk, start in enumerate(range(0, n_samples, CHUNK_SIZE)):
        s, ss, c, nb = _march_chunk(spec, x0, observable, grid_steps, n_steps, dt, seed,
                                    chunk, min(CHUNK_SIZE, n_samples - start), initial_noise)
        sums += s
        sq_sums += ss
        counts += c
        blowups += nb

    if blowups > BLOWUP_FRACTION * n_samples:
        raise NumericalError(
            f"{blowups} of {n_samples} trajectories left the guard radius "
            f"{BLOWUP_THRESHOLD:g}; the configuration is not dissipative")
    if np.any(counts < 2):
        raise NumericalError("too few surviving samples to form estimates")

    mean = sums / counts
    var = np.maximum(sq_sums / counts - mean ** 2, 0.0) * counts / (counts - 1)
    se = np.sqrt(var / counts)
    return SDERun(times=times, mean=mean, se=se, n_samples=n_samples,
                  n_blowups=blowups, dt=dt, seed=seed)


@dataclass
class ComparisonReport:
    """Pointwise gap between a Monte Carlo run and a deterministic curve."""

    times: np.ndarray
    gap: np.ndarray
    gap_over_se: np.ndarray
    max_gap: float
    max_se: float

    @property
    def noise_floor(self) -> float:
        return 3.0 * self.max_se


def compare(run: SDERun, values) -> ComparisonReport:
    """Per-time |curve - MC mean| and its ratio to the standard error."""
    values = np.asarray(values, dtype=float)
    if values.shape != run.times.shape:
        raise NumericalError("curve and Monte Carlo run use different grids")
    gap = np.abs(values - run.mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gap == 0.0, 0.0, gap / np.where(run.se > 0, run.se, np.inf))
    return ComparisonReport(times=run.times, gap=gap, gap_over_se=ratio,
                            max_gap=float(gap.max()), max_se=float(run.se.max()))
