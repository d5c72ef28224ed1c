"""Per-layer spans and counters for kolmsim, recorded from outside the program.

`Tracer.install()` wraps every public function of every `kolmsim` module
in a span, and rebinds the wrapper wherever kolmsim holds the original:
in the defining module, in every other kolmsim module that imported it
by name (`experiments` imports `evolve_reference`, `simulate`,
`enumerate_basis`, ...), and in module-level dicts such as
`experiments.RUNNERS`. Patching only the defining module would silently
drop those calls. `uninstall()` puts every original back.

A span's self time is its duration minus the durations of the spans it
called, so the self times of one call tree add up to its root span.
Counters are taken at the same boundaries: basis sizes, nonzeros per
operator role, basis lookups and hits, RK45 right-hand-side evaluations,
Monte Carlo sample-steps and artifact bytes written.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import pkgutil
import time
from collections import defaultdict

# Per-layer metrics in the order BENCHMARK.json declares them, with units.
# `<span>.self_s`, `<span>.calls` and counters are per repetition.
PER_LAYER = {
    "multiindex.enumerate_basis.self_s": "s",
    "multiindex.enumerate_basis.calls": "count",
    "multiindex.basis_dim": "count",
    "multiindex.lookups": "count",
    "multiindex.lookup_hit_ratio": "ratio",
    "systems.nse_system.self_s": "s",
    "systems.clock_system.self_s": "s",
    "systems.circuit_amplitude.self_s": "s",
    "operators.assemble_dissipation.self_s": "s",
    "operators.assemble_linear_drift.self_s": "s",
    "operators.assemble_nonlinear_drift.self_s": "s",
    "operators.nnz.dissipation": "count",
    "operators.nnz.linear": "count",
    "operators.nnz.nonlinear": "count",
    "operators.assemble_nonlinear_drift.nnz_per_s": "1/s",
    "operators.sparsity_audit.self_s": "s",
    "operators.operator_norm_estimate.calls": "count",
    "operators.operator_norm_estimate.self_s": "s",
    "operators.verify_divergence_free.self_s": "s",
    "hermite.self_s": "s",
    "evolution.evolve_reference.self_s": "s",
    "evolution.rhs_evals": "count",
    "evolution.evolve_expm.self_s": "s",
    "evolution.evolve_expm.calls": "count",
    "evolution.evolve_trotter.self_s": "s",
    "evolution.krylov_expm_action.calls": "count",
    "evolution.regularization_gap.self_s": "s",
    "evolution.smoothing_bound_audit.self_s": "s",
    "states.expectation.self_s": "s",
    "states.expectation.calls": "count",
    "states.initial_state.calls": "count",
    "states.combination_state.self_s": "s",
    "montecarlo.simulate.self_s": "s",
    "montecarlo.sample_steps": "count",
    "montecarlo.ns_per_sample_step": "ns",
    "montecarlo.blowups": "count",
    "montecarlo.noise_buffer_mb": "MB_computed",
    "experiments.run_audits.self_s": "s",
    "experiments.write_csv.self_s": "s",
    "experiments.bytes_written": "bytes",
    "experiments.validate_config.self_s": "s",
    "process.wall_s": "s",
    "process.cpu_s": "s",
    "process.calibration_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_time_coverage": "ratio",
}


# Metrics that compare traced with untraced repetitions; run.py makes them.
PARENT_METRICS = ("process.wall_s", "process.cpu_s", "process.calibration_s",
                  "trace.overhead_frac")


def _kolmsim_modules():
    import kolmsim
    return [importlib.import_module(f"kolmsim.{info.name}")
            for info in pkgutil.iter_modules(kolmsim.__path__)]


def _observe_basis(counts, basis, bound):
    counts["multiindex.basis_dim"] += len(basis)


def _observe_operator(counts, op, bound):
    counts[f"operators.nnz.{op.role}"] += op.matrix.nnz


def _observe_simulate(counts, run, bound):
    from kolmsim import montecarlo
    n_steps = round(float(run.times.max()) / run.dt)
    counts["montecarlo.sample_steps"] += run.n_samples * n_steps
    counts["montecarlo.blowups"] += run.n_blowups
    # computed from the noise buffer's shape (count, TIME_BLOCK, n_vars),
    # float64, one buffer live per worker thread
    chunk = min(montecarlo.CHUNK_SIZE, run.n_samples)
    live = min(bound.arguments.get("n_threads", 1),
               math.ceil(run.n_samples / montecarlo.CHUNK_SIZE))
    mb = live * chunk * montecarlo.TIME_BLOCK * bound.arguments["spec"].n_vars * 8 / 2 ** 20
    counts["montecarlo.noise_buffer_mb"] = max(counts["montecarlo.noise_buffer_mb"], mb)


def _observe_write(counts, result, bound):
    counts["experiments.bytes_written"] += os.path.getsize(bound.arguments["path"])


OBSERVERS = {
    "multiindex.enumerate_basis": _observe_basis,
    "operators.assemble_dissipation": _observe_operator,
    "operators.assemble_linear_drift": _observe_operator,
    "operators.assemble_nonlinear_drift": _observe_operator,
    "montecarlo.simulate": _observe_simulate,
    "experiments.write_csv": _observe_write,
    "experiments.write_json": _observe_write,
}


class Tracer:
    """Span and counter recorder over the kolmsim package, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def _span(self, name, fn):
        stack, self_s, total_s, calls = self._stack, self.self_s, self.total_s, self.calls
        counts, observe = self.counts, OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(counts, result, bound)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - child[0]
                total_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
        return wrapper

    def _lookup_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["multiindex.lookups"] += 1
            result = fn(*args, **kwargs)  # `position` raises on a miss
            if isinstance(result, int) and result >= 0:
                counts["multiindex.lookup_hits"] += 1
            return result
        return wrapper

    def _nfev_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counts["evolution.rhs_evals"] += sol.nfev
            return sol
        return wrapper

    def _set(self, owner, key, value):
        """Rebind `owner[key]` (a dict) or `owner.key`, remembering the original."""
        if isinstance(owner, dict):
            restore, original = owner.__setitem__, owner[key]
        else:
            restore, original = functools.partial(setattr, owner), getattr(owner, key)
        self._undo.append((restore, key, original))
        restore(key, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = _kolmsim_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._span(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._set(obj, key, wrappers[value])
        from kolmsim import evolution, multiindex
        self._set(evolution, "solve_ivp", self._nfev_counter(evolution.solve_ivp))
        for method in ("get", "position"):
            original = vars(multiindex.BasisSet)[method]
            self._set(multiindex.BasisSet, method, self._lookup_counter(original))

    def uninstall(self):
        while self._undo:
            restore, key, original = self._undo.pop()
            restore(key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """The PER_LAYER values this tracer measures, for one traced repetition.

        `traced_wall_s` is that repetition's wall time. The PARENT_METRICS
        compare it with untraced repetitions, so run.py computes them.
        """
        counts = self.counts
        values = {
            "multiindex.lookup_hit_ratio": (counts["multiindex.lookup_hits"]
                                            / counts["multiindex.lookups"]
                                            if counts["multiindex.lookups"] else 0.0),
            "operators.assemble_nonlinear_drift.nnz_per_s": (
                counts["operators.nnz.nonlinear"]
                / self.total_s["operators.assemble_nonlinear_drift"]
                if self.total_s["operators.assemble_nonlinear_drift"] else 0.0),
            "hermite.self_s": sum(v for k, v in self.self_s.items()
                                  if k.startswith("hermite.")),
            "montecarlo.ns_per_sample_step": (
                1e9 * self.total_s["montecarlo.simulate"] / counts["montecarlo.sample_steps"]
                if counts["montecarlo.sample_steps"] else 0.0),
            "trace.self_time_coverage": sum(self.self_s.values()) / traced_wall_s,
        }
        for name in PER_LAYER:
            if name in values or name in PARENT_METRICS:
                continue
            span, _, field = name.rpartition(".")
            if field == "self_s":
                values[name] = self.self_s[span]
            elif field == "calls":
                values[name] = self.calls[span]
            else:
                values[name] = counts[name]
        return values
