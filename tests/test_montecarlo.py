"""Weak Euler oracle: analytic OU checks, determinism, convergence, guards."""

import hashlib
import math

import numpy as np
import pytest

from kolmsim import montecarlo
from kolmsim.errors import NumericalError
from kolmsim.montecarlo import CHUNK_SIZE, compare, simulate
from kolmsim.operators import SystemSpec
from kolmsim.states import MonomialObservable
from kolmsim.systems import nse_system, oscillator_system


def ou_spec(lam=0.5, q=0.2, n_vars=1):
    return SystemSpec(name="ou", rates=np.full(n_vars, lam), noise=q)


def x_obs(spec):
    return MonomialObservable((1,) + (0,) * (spec.n_vars - 1), spec)


def xsq_obs(spec):
    return MonomialObservable((2,) + (0,) * (spec.n_vars - 1), spec)


def test_ou_mean_matches_analytic():
    lam = 0.5
    spec = ou_spec(lam=lam)
    times = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    run = simulate(spec, np.array([1.0]), x_obs(spec), times,
                   n_samples=20000, dt=1e-3, seed=7)
    exact = np.exp(-lam * times)
    assert np.all(np.abs(run.mean - exact) <= 3 * np.maximum(run.se, 1e-12))


def test_ou_variance_growth_without_initial_noise():
    # Var X(t) = q (1 - e^{-2 lam t}) / (2 lam); start from a point mass
    lam, q = 0.5, 0.2
    spec = ou_spec(lam=lam, q=q)
    times = np.array([0.5, 1.0, 2.0, 6.0])
    run = simulate(spec, np.array([0.0]), xsq_obs(spec), times,
                   n_samples=40000, dt=1e-3, seed=3, initial_noise=False)
    exact = q * (1 - np.exp(-2 * lam * times)) / (2 * lam)
    assert np.all(np.abs(run.mean - exact) <= 3 * run.se)


def test_ou_stationary_variance_with_initial_noise():
    # initial noise at the stationary variance keeps E X^2 = q/(2 lam) + x0^2 e^{-2 lam t}
    lam, q = 0.5, 0.2
    spec = ou_spec(lam=lam, q=q)
    times = np.array([0.0, 1.0, 3.0, 8.0])
    run = simulate(spec, np.array([1.0]), xsq_obs(spec), times,
                   n_samples=40000, dt=1e-3, seed=11)
    exact = q / (2 * lam) + np.exp(-2 * lam * times)
    assert np.all(np.abs(run.mean - exact) <= 3 * run.se)


def test_seeded_determinism():
    spec = ou_spec()
    times = np.array([0.0, 0.5, 1.0])
    kwargs = dict(n_samples=3000, dt=1e-2, seed=42)
    a = simulate(spec, np.array([1.0]), x_obs(spec), times, **kwargs)
    b = simulate(spec, np.array([1.0]), x_obs(spec), times, **kwargs)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.se, b.se)


def test_multi_chunk_estimates_are_pinned():
    # two chunks, each with its own stream, summed in chunk order
    spec = oscillator_system(0.1, 0.02)
    u0 = MonomialObservable((2, 1), spec)
    times = np.array([0.0, 0.1, 0.3])
    run = simulate(spec, np.array([1.0, 0.5]), u0, times, CHUNK_SIZE + 500, 0.01, seed=99)
    # pinned: a change in how streams map to samples or chunks moves these
    assert [m.hex() for m in run.mean] == [
        "0x1.1b6c1650d7c64p-1", "0x1.e15487e223044p-3", "-0x1.ba81c9dd365e8p-2"]


def test_oscillator_kernel_matches_allocating_drift():
    # the in-place kernel against the formula it replaced, evaluated with
    # fresh arrays and copied out, through the same stepping loop
    class AllocatingDrift:
        def value(self, x, out=None):
            w = 1.0 + x[..., 0] ** 2 + x[..., 1] ** 2
            c = np.stack([x[..., 1] * w, -x[..., 0] * w], axis=-1)
            if out is None:
                return c
            out[...] = c
            return out

    spec = oscillator_system(0.1, 0.02)
    wrapped = SystemSpec(name="wrapped", rates=spec.rates, noise=spec.noise,
                         nonlinear=AllocatingDrift(), strength=spec.strength)
    u0 = MonomialObservable((1, 1), spec)
    times = np.array([0.0, 0.5, 1.5])
    a, b = (simulate(s, np.array([1.0, -0.5]), u0, times, 700, 0.005, seed=5)
            for s in (spec, wrapped))
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.se, b.se)


def test_cubic_oscillator_pinned_values():
    # pinned mean and SE: any change in stream consumption or step
    # arithmetic moves them
    spec = oscillator_system(0.1, 0.02)
    u0 = MonomialObservable((1, 0), spec)
    run = simulate(spec, np.array([1.0, 0.0]), u0, np.array([0.0, 0.5, 2.0]),
                   400, 0.01, seed=2024)
    assert [m.hex() for m in run.mean] == [
        "0x1.044653ffbb136p+0", "0x1.5db01035150dbp-2", "-0x1.718c54c907089p-3"]
    assert [s.hex() for s in run.se] == [
        "0x1.131e8728cb28dp-6", "0x1.4c0f92be0ce44p-6", "0x1.2c6a0c1bb7e68p-5"]


@pytest.mark.parametrize("system, x0, u0, t, dt, seed, pin", [
    ("oscillator", [1.0, 0.5], (2, 1), 2.0, 0.01, 17,
     "6f264bdc5c2fa8570339b3e87d5fb12462dbb66c535dfa6dd0a416ee1a138ae7"),
    ("nse6", [0.3, -0.2, 0.1, 0.25, -0.15, 0.05], (1, 0, 0, 0, 0, 0), 0.2, 1e-3, 29,
     "ecc4e109f28a764c10487d188707bbdd8fda5f48b5378c8d907c4e939201485b"),
], ids=["oscillator", "nse6"])
def test_two_chunk_runs_pinned(system, x0, u0, t, dt, seed, pin):
    # sha256 of the raw mean and SE over 200 steps, pinned with the increments
    # computed as unpacked sign bits times 2s minus s; the second chunk's 100
    # samples are not a multiple of 8 or 64, so its last sign words are padded
    spec = oscillator_system(0.1, 0.02) if system == "oscillator" else nse_system(6, 0.1, 1e-5)
    run = simulate(spec, np.array(x0), MonomialObservable(u0, spec), np.linspace(0.0, t, 5),
                   CHUNK_SIZE + 100, dt, seed=seed)
    assert hashlib.sha256(run.mean.tobytes() + run.se.tobytes()).hexdigest() == pin


def test_increments_are_exactly_two_point_and_balanced():
    # from a point mass at 0 with zero drift, the state after one step is
    # the increment itself
    spec = ou_spec(lam=0.5, q=0.2, n_vars=3)
    dt = 0.01
    seen = []

    def record(x):
        seen.append(x)
        return x[:, 0]

    simulate(spec, np.zeros(3), record, np.array([dt]), 20000, dt, seed=8,
             initial_noise=False)
    inc = seen[-1]
    s = math.sqrt(spec.noise * dt)
    assert np.all((inc == s) | (inc == -s))
    n = inc.size
    assert abs(np.count_nonzero(inc > 0) - n / 2) <= 5 * math.sqrt(n) / 2


def test_signs_are_the_bit_slices_of_each_chunk_stream(monkeypatch):
    # a per-sample scalar loop: chunk k's stream gives an (N, count) Gaussian
    # draw, then sample r of the chunk reads the sign of increment (step, v)
    # from bit r % 64 of word (step N + v) W + r // 64, W = ceil(count / 64).
    # Chunks of 128 leave a partial chunk of 72 samples, not a multiple of 64,
    # and blocks of 40 steps make the run cross block boundaries.
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 128)
    monkeypatch.setattr(montecarlo, "TIME_BLOCK", 40)
    spec = oscillator_system(0.1, 0.02)
    dt, n_steps, n, seed = 0.01, 100, 200, 3
    x0 = np.array([1.0, -0.5])
    u0 = MonomialObservable((1, 1), spec)
    run = simulate(spec, x0, u0, np.array([n_steps * dt]), n, dt, seed=seed)
    s = math.sqrt(spec.noise * dt)
    finals = []
    for chunk, start in enumerate(range(0, n, 128)):
        count = min(128, n - start)
        width = -(-count // 64)
        bits = np.random.Philox(key=(seed << 64) + chunk)
        normals = np.random.Generator(bits).standard_normal((2, count))
        words = [int(w) for w in bits.random_raw(n_steps * 2 * width)]
        for r in range(count):
            x = x0 + normals[:, r] * np.sqrt(spec.noise / (2 * spec.rates))
            for k in range(n_steps):
                c = spec.drift_value(x[None, :], np.empty((1, 2)))[0]
                signs = np.array([words[(2 * k + v) * width + r // 64] >> (r % 64) & 1
                                  for v in (0, 1)])
                x = x * (1 - dt * spec.rates) + dt * c + np.where(signs == 1, s, -s)
            finals.append(x)
    vals = u0(np.array(finals))
    assert math.isclose(run.mean[0], vals.mean(), rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(run.se[0], vals.std(ddof=1) / math.sqrt(n), rel_tol=1e-9)


def test_estimates_do_not_depend_on_time_block(monkeypatch):
    # every step reads its own words, so no block length is in the contract
    spec = oscillator_system(0.1, 0.02)
    u0 = MonomialObservable((2, 1), spec)
    times = np.array([0.0, 0.37, 1.5])  # 150 steps: whole and partial blocks
    runs = []
    for block in (64, 100, 1024):
        monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
        runs.append(simulate(spec, np.array([1.0, 0.5]), u0, times, 500, 0.01, seed=6))
    for run in runs[1:]:
        assert np.array_equal(runs[0].mean, run.mean)
        assert np.array_equal(runs[0].se, run.se)


def test_different_seeds_differ():
    spec = ou_spec()
    times = np.array([1.0])
    a = simulate(spec, np.array([1.0]), x_obs(spec), times, 2000, 1e-2, seed=1)
    b = simulate(spec, np.array([1.0]), x_obs(spec), times, 2000, 1e-2, seed=2)
    assert a.mean[0] != b.mean[0]


def test_se_scaling_with_sample_count():
    spec = ou_spec()
    times = np.array([1.0])
    small = simulate(spec, np.array([1.0]), x_obs(spec), times, 10000, 1e-2, seed=5)
    large = simulate(spec, np.array([1.0]), x_obs(spec), times, 40000, 1e-2, seed=5)
    ratio = small.se[0] / large.se[0]
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_weak_first_order_convergence():
    # deterministic Euler bias of the OU mean: slope ~ 1 in dt
    lam = 0.5
    spec = ou_spec(lam=lam, q=0.01)
    t = 2.0
    biases = []
    dts = (0.2, 0.1, 0.05)
    for dt in dts:
        run = simulate(spec, np.array([1.0]), x_obs(spec), np.array([t]),
                       n_samples=200000, dt=dt, seed=9, initial_noise=False)
        biases.append(abs(run.mean[0] - math.exp(-lam * t)))
    slope = np.polyfit(np.log(dts), np.log(biases), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_time_step_stability_guard():
    spec = ou_spec(lam=2.0)
    with pytest.raises(NumericalError):
        simulate(spec, np.array([1.0]), x_obs(spec), np.array([1.0]),
                 n_samples=500, dt=0.1, seed=0)


def test_blowup_guard_fails_unstable_run():
    # an explosive (non divergence-free) cubic drift: dX = +X^3 dt + ...
    class ExplosiveDrift:
        sparsity = 1
        strength = math.inf

        def value(self, x, out=None):
            return np.power(x, 3, out=out)

        def divergence(self, x):
            return 3.0 * np.sum(np.asarray(x) ** 2, axis=-1)

    spec = SystemSpec(name="explosive", rates=np.array([0.1]), noise=0.1,
                      nonlinear=ExplosiveDrift(), strength=math.inf)
    with pytest.raises(NumericalError):
        simulate(spec, np.array([2.0]), x_obs(spec), np.array([5.0]),
                 n_samples=500, dt=0.05, seed=0)


def test_grid_must_sit_on_step_lattice():
    spec = ou_spec()
    with pytest.raises(NumericalError):
        simulate(spec, np.array([1.0]), x_obs(spec), np.array([0.25]),
                 n_samples=500, dt=0.1, seed=0)


def test_minimum_sample_count():
    spec = ou_spec()
    with pytest.raises(NumericalError):
        simulate(spec, np.array([1.0]), x_obs(spec), np.array([0.1]),
                 n_samples=50, dt=0.1, seed=0)


def test_linear_system_within_noise_of_closed_form():
    # zero-mean noise cannot shift a linear system's mean, so the sampled
    # mean must match the deterministic propagator: exactly (3 SE) for
    # the discrete Euler map, and up to the O(dt) weak bias for the
    # continuous flow
    from scipy.linalg import expm

    from kolmsim.systems import GATE_MATRICES, clock_system

    circuit = [(GATE_MATRICES["H"], (0,)), (GATE_MATRICES["X"], (0,))]
    spec = clock_system(circuit, 1, lam=0.1, q=0.1)
    b = spec.linear.toarray()
    dt = 0.01
    step = np.eye(spec.n_vars) * (1 - 0.1 * dt) + dt * b
    x0 = np.zeros(spec.n_vars)
    x0[2 * 2] = 1.0  # clock register at its final slot
    times = np.array([0.0, 0.5, 1.0])
    u0 = MonomialObservable((1,) + (0,) * (spec.n_vars - 1), spec)
    run = simulate(spec, x0, u0, times, n_samples=40000, dt=dt, seed=17)
    discrete = np.array([(np.linalg.matrix_power(step, round(t / dt)) @ x0)[0]
                         for t in times])
    assert np.all(np.abs(run.mean - discrete) <= 3 * np.maximum(run.se, 1e-12))
    closed = np.array([math.exp(-0.1 * t) * (expm(t * b) @ x0)[0] for t in times])
    j1 = spec.linear_strength
    assert np.all(np.abs(run.mean - closed)
                  <= 3 * np.maximum(run.se, 1e-12) + 2 * j1 ** 2 * dt * times)


def test_compare_identical_is_zero():
    spec = ou_spec()
    times = np.array([0.0, 0.5, 1.0])
    run = simulate(spec, np.array([1.0]), x_obs(spec), times, 1000, 1e-2, seed=4)
    report = compare(run, run.mean)
    assert report.max_gap == 0.0
    assert np.all(report.gap_over_se == 0.0)


def test_compare_grid_mismatch():
    spec = ou_spec()
    run = simulate(spec, np.array([1.0]), x_obs(spec), np.array([0.0, 1.0]),
                   1000, 1e-2, seed=4)
    with pytest.raises(NumericalError):
        compare(run, np.zeros(3))
