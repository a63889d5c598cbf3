"""Span timing around calls into the library's modules, installed from outside.

A `Tracer` replaces chosen functions and methods with timing wrappers in every
loaded hyperdecay module that refers to them, so a call made through any
import path is counted.  It keeps, per span name, the call count, the total
time and the self time (total minus the time of traced calls nested inside).
`restore()` puts the original objects back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.tally = defaultdict(float)        # counts read off results, e.g. grid points
        self._open: list[list[float]] = []     # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for d in (self.count, self.total, self.self_time, self.tally):
            d.clear()

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._open.pop()
                self.count[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
                if self._open:
                    self._open[-1][0] += dt
            if after is not None:
                after(self, args, kwargs, out, dt)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap module.attr in every hyperdecay module that holds the same object."""
        orig = getattr(module, attr)
        wrapper = self._timed(name, orig, after)
        for modname, mod in list(sys.modules.items()):
            if (modname == "hyperdecay" or modname.startswith("hyperdecay.")) \
                    and getattr(mod, attr, None) is orig:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self._timed(name, orig, after))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _tally(key, value_of):
    def after(tracer, args, kwargs, out, dt):
        tracer.tally[key] += value_of(args, kwargs, out)
    return after


def _step_sizes(seen: dict):
    """Hooks for build_run and step that count the steps taken at a step size
    their run had not used before (each run builds its own propagator cache)."""
    def after_build(tracer, args, kwargs, out, dt):
        seen[id(out)] = set()

    def after_step(tracer, args, kwargs, out, dt):
        run = args[0]
        step_dt = kwargs.get("dt", args[1] if len(args) > 1 else None)
        step_dt = run.dt if step_dt is None else float(step_dt)
        sizes = seen.setdefault(id(run), set())
        if step_dt not in sizes:
            sizes.add(step_dt)
            tracer.tally["semilinear.step_sizes"] += 1
            tracer.tally["semilinear.new_dt_step_s"] += dt
    return after_build, after_step


def install_layer_spans(tracer: Tracer) -> None:
    """Spans behind the per-layer metrics; see `layer_metrics`."""
    from hyperdecay import asymptotics, profiles, rootkit, semilinear, solver, stability, symbols

    tracer.wrap_method(rootkit.RadialRootSolver, "lambdas", "lambdas")
    tracer.wrap_method(rootkit.RadialRootSolver, "lambdas_with_noise", "lambdas_with_noise")
    tracer.wrap_function(rootkit, "track_branches", "track_branches",
                         _tally("rootkit.track_points", lambda a, k, out: len(out.rho_grid)))
    tracer.wrap_function(symbols, "full_symbol_at", "full_symbol_at")
    tracer.wrap_method(solver.RadialPropagator, "__init__", "propagator_init")
    tracer.wrap_method(solver.RadialPropagator, "propagate", "propagate",
                       _tally("solver.confluent_modes",
                              lambda a, k, out: int(np.count_nonzero(a[0].confluent))))
    tracer.wrap_function(solver, "sobolev_norm", "sobolev_norm")
    tracer.wrap_function(profiles, "profile_gap_series", "profile_gap_series")
    tracer.wrap_function(stability, "classify_stack", "classify_stack",
                         _tally("stability.directions", lambda a, k, out: out.n_directions))
    tracer.wrap_function(asymptotics, "low_freq_expansions", "expansions_low")
    tracer.wrap_function(asymptotics, "high_freq_expansions", "expansions_high")
    tracer.wrap_function(asymptotics, "verify_expansion", "verify_expansion")
    after_build, after_step = _step_sizes({})
    tracer.wrap_function(semilinear, "build_run", "build_run", after_build)
    tracer.wrap_function(semilinear, "step", "step", after_step)
    tracer.wrap_method(semilinear.SemilinearRun, "l2_norm", "l2_norm")
    tracer.wrap_method(semilinear.SemilinearRun, "linf_norm", "linf_norm")


# (metric, unit, value from a tracer); a time without "self" is inclusive
LAYER_METRICS = [
    ("rootkit.lambdas_calls", "1", lambda t: t.count["lambdas"] + t.count["lambdas_with_noise"]),
    ("rootkit.lambdas_s", "s",
     lambda t: t.self_time["lambdas"] + t.self_time["lambdas_with_noise"]),
    ("rootkit.track_s", "s", lambda t: t.self_time["track_branches"]),
    ("rootkit.track_points", "1", lambda t: t.tally["rootkit.track_points"]),
    ("symbols.full_symbol_at_calls", "1", lambda t: t.count["full_symbol_at"]),
    ("symbols.full_symbol_at_s", "s", lambda t: t.total["full_symbol_at"]),
    ("solver.propagator_init_s", "s", lambda t: t.total["propagator_init"]),
    ("solver.propagate_s", "s", lambda t: t.total["propagate"]),
    ("solver.confluent_modes", "1", lambda t: t.tally["solver.confluent_modes"]),
    ("solver.norm_s", "s", lambda t: t.total["sobolev_norm"]),
    ("profiles.gap_s", "s", lambda t: t.self_time["profile_gap_series"]),
    ("stability.classify_s", "s", lambda t: t.total["classify_stack"]),
    ("stability.directions", "1", lambda t: t.tally["stability.directions"]),
    ("asymptotics.expansions_s", "s",
     lambda t: t.total["expansions_low"] + t.total["expansions_high"]),
    ("asymptotics.verify_s", "s", lambda t: t.total["verify_expansion"]),
    ("semilinear.build_run_s", "s", lambda t: t.total["build_run"]),
    ("semilinear.step_s", "s", lambda t: t.total["step"]),
    ("semilinear.steps", "1", lambda t: t.count["step"]),
    ("semilinear.step_sizes", "1", lambda t: t.tally["semilinear.step_sizes"]),
    ("semilinear.new_dt_step_s", "s", lambda t: t.tally["semilinear.new_dt_step_s"]),
    ("semilinear.norms_s", "s", lambda t: t.total["l2_norm"] + t.total["linf_norm"]),
]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    return {name: (float(value(tracer)), unit) for name, unit, value in LAYER_METRICS}
