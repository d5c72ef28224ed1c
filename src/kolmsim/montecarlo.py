"""Euler-Maruyama Monte Carlo oracle for the underlying SDE.

Each sample owns a counter-based random stream keyed by (seed, sample
index), so estimates are bit-identical on one platform regardless of how
samples are chunked across worker threads.  Trajectories that leave the
guard radius are frozen and counted; more than 0.1% of them fails the run,
since a dissipative, divergence-free system should never blow up.

A chunk steps a struct-of-arrays state: `xs` has shape (N, count), so
each variable is one contiguous row.  Drifts read the (count, N) view
`xs.T` and return their values through `SystemSpec.drift_value(x, out)`,
which fills `out` in place (each drift's `value(x, out=None)` writes its
components with ufunc `out=` arguments), so a step allocates nothing.  Noise is
time-major, (TIME_BLOCK, N, count): the row read at each step is
contiguous.  It is filled tile by tile, each sample's normals drawn from
its own Philox stream into a small (tile, TIME_BLOCK, N) staging buffer
and copied across, already scaled by sqrt(q dt).

CHUNK_SIZE is part of the reproducibility contract, because chunk
partial sums are reduced in chunk order.  TIME_BLOCK is not: a Philox
stream read in blocks yields the same normals as one long draw, and the
per-step arithmetic does not depend on where a block ends.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

CHUNK_SIZE = 8192       # fixed: part of the bit-reproducibility contract
TIME_BLOCK = 1000       # noise generation granularity (memory/speed tradeoff)
NOISE_TILE = 256        # samples staged per copy into the time-major noise buffer
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


def _sample_rng(seed: int, sample: int) -> np.random.Generator:
    # Philox is counter-based: the (seed, sample) key fully determines the
    # stream, independent of scheduling.
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + sample))


def _fill_noise(noise, staging, rngs, scale):
    """noise[b, v, r] = scale * the (b, v) normal of stream r, one tile at a time.

    `noise` is (block, N, count) and `staging` is (tile, block, N); each
    stream continues where its previous block stopped.
    """
    tile = staging.shape[0]
    for lo in range(0, len(rngs), tile):
        rows = rngs[lo:lo + tile]
        for row, rng in enumerate(rows):
            rng.standard_normal(out=staging[row])
        np.multiply(staging[:len(rows)].transpose(1, 2, 0), scale,
                    out=noise[:, :, lo:lo + len(rows)])


def _march_chunk(spec, x0, observable, grid_steps, n_steps, dt, seed,
                 start, count, initial_noise):
    n_vars = spec.n_vars
    sqrt_qdt = math.sqrt(spec.noise * dt)
    init_std = np.sqrt(spec.noise / (2.0 * spec.rates))
    decay = (1.0 - dt * spec.rates)[:, None]  # Euler step of the pure dissipation part

    rngs = [_sample_rng(seed, s) for s in range(start, start + count)]
    xs = np.tile(np.asarray(x0, dtype=float)[:, None], (1, count))
    if initial_noise:
        draws = np.empty((count, n_vars))
        for row, rng in enumerate(rngs):
            rng.standard_normal(out=draws[row])
        xs += (draws * init_std).T
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
    noise = np.empty((TIME_BLOCK, n_vars, count))
    staging = np.empty((min(NOISE_TILE, count), TIME_BLOCK, n_vars))
    # escaping samples may overflow between guard sweeps; they are frozen
    # before any recording, so estimates never see them
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            block = min(TIME_BLOCK, n_steps - step)
            _fill_noise(noise[:block], staging[:, :block], rngs, sqrt_qdt)
            for b in range(block):
                spec.drift_value(x, c)
                xs *= decay
                cs *= dt
                xs += cs
                xs += noise[b]
                step += 1
                if step % 64 == 0:
                    sweep_escaped()
                if step in grid_lookup:
                    record(grid_lookup[step])
    return sums, sq_sums, counts, int(count - alive.sum())


def simulate(spec, x0, observable, times, n_samples: int, dt: float,
             seed: int = 0, initial_noise: bool = True,
             n_threads: int = 1) -> SDERun:
    """Euler-Maruyama estimate of E u0(X(t)) on a time grid.

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
    grid_steps = []
    for t in times:
        step = round(t / dt)
        if abs(step * dt - t) > 1e-9 * max(dt, abs(t)):
            raise NumericalError(f"grid time {t} is not a multiple of dt = {dt}")
        grid_steps.append(int(step))
    n_steps = max(grid_steps)

    chunks = [(start, min(CHUNK_SIZE, n_samples - start))
              for start in range(0, n_samples, CHUNK_SIZE)]

    def work(args):
        start, count = args
        return _march_chunk(spec, x0, observable, grid_steps, n_steps, dt,
                            seed, start, count, initial_noise)

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            partials = list(pool.map(work, chunks))
    else:
        partials = [work(c) for c in chunks]

    # fixed chunk layout + in-order reduction keeps results bit-stable
    sums = np.zeros(len(grid_steps))
    sq_sums = np.zeros(len(grid_steps))
    counts = np.zeros(len(grid_steps), dtype=np.int64)
    blowups = 0
    for s, ss, c, nb in partials:
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
