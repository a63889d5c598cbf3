"""The benchmark's three workloads: operations, their inputs, and their checks.

An operation is one checked library call (or, for a branch ray, the call
sequence of `hyperdecay asymptotics`).  `build(name, seed)` makes the inputs;
everything the seed changes leaves the amount of work unchanged (data
amplitudes, and direction reflections the stacks are symmetric under), so
timings from different seeds are comparable.

`Op.check(result)` returns the problems found in one result.  Checks that
need an expensive independent computation compute it once, on the first
result they see, and reuse it for later passes of the same run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import hyperdecay as hd
from hyperdecay import solver
from hyperdecay.asymptotics import Regime, match_records_to_branches
from hyperdecay.presets import PRESETS, compare_expansions, mgt_stack
from hyperdecay.semilinear import run_semilinear
from hyperdecay.solver import default_rho_grid, gaussian_data
from hyperdecay.symbols import Direction, axis_direction

from checks import (band_problems, norm_problems, order_problems, reference_norms, root_problems,
                    shell_l2, verdict_problems)
from spans import Tracer

TIMES = np.geomspace(1e2, 1e4, 25)
SAMPLE_TIMES = (0, 12, 24)          # indices of the times whose norms are recomputed


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    result: Any = None                  # output of the latest call
    # RadialPropagator objects built by the call, kept for the root check
    propagators: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# decay: simulate, profile_gap_series


def _gauss_radial(n: int, amplitude: float, rho: np.ndarray) -> np.ndarray:
    """Fourier transform of amplitude * exp(-|x|^2 / 2) in n dimensions."""
    return amplitude * (2.0 * math.pi) ** (n / 2.0) * np.exp(-0.5 * rho**2)


def _simulate_op(name, stack, slot, s, amplitude, direction=None, slope_band=None):
    data = gaussian_data(stack.m, slot, amplitude=amplitude)
    kwargs = {} if direction is None else {"directions": [direction]}
    dvec = np.asarray((direction or axis_direction(stack.dim)).vector())
    rho = default_rho_grid()
    ref = {}

    def check(series):
        problems = []
        if slope_band is not None:
            problems += band_problems("fitted slope", series.fitted_slope, *slope_band)
        if "norms" not in ref:
            ref["norms"] = reference_norms(stack, dvec, rho, slot,
                                           _gauss_radial(stack.dim, amplitude, rho),
                                           TIMES[list(SAMPLE_TIMES)], s)
        return problems + norm_problems(np.asarray(series.values)[list(SAMPLE_TIMES)], ref["norms"])

    return Op(name, lambda: hd.simulate(stack, data, TIMES, k=0, s=s, **kwargs), check)


def _decay(rng: np.random.Generator) -> list[Op]:
    mgt = PRESETS["mgt"].build()
    em = PRESETS["em_elastic"].build()
    aniso = PRESETS["anisotropic_elastic_2d"].build()
    amp = rng.uniform(0.5, 2.0, size=4)
    # the anisotropic stack is even in each frequency component: reflections
    # give other inputs with bit-identical work
    sx, sy = rng.choice([-1.0, 1.0], size=2)
    exp_mgt, exp_em = PRESETS["mgt"].expected["sim"], PRESETS["em_elastic"].expected["sim"]
    band = lambda cfg: (cfg["slope"] - cfg["tol"], cfg["slope"] + cfg["tol"])
    solution = _simulate_op("simulate mgt", mgt, 2, 0.0, amp[0], slope_band=band(exp_mgt))
    # then, as `hyperdecay profile` does, the gap series of the same data
    gap_data = gaussian_data(3, 2, amplitude=amp[0])
    lo, hi = PRESETS["mgt"].expected["profile_gap_band"]

    def check_gap(gap):
        sol = solution.result
        return band_problems("profile-gap improvement", gap.fitted_slope - sol.fitted_slope, lo, hi)

    ops = [solution,
           Op("profile_gap_series mgt",
              lambda: hd.profile_gap_series(mgt, gap_data, TIMES, k=0, s=0.0), check_gap),
           _simulate_op("simulate em_elastic", em, 4, 2.0, amp[1], slope_band=band(exp_em))]
    for i, d in enumerate([(sx, 0.0), (sx * math.sqrt(0.5), sy * math.sqrt(0.5))]):
        ops.append(_simulate_op(f"simulate anisotropic_elastic_2d d={i}", aniso, 3, 0.0, amp[2 + i],
                                direction=Direction.of(d)))
    return ops


def root_check(op: Op) -> list[str]:
    """Roots of every RadialPropagator the operation built."""
    problems = []
    for prop in op.propagators:
        xi = prop.rho[:, None] * np.asarray(prop.direction.vector())[None, :]
        problems += root_problems(prop.stack, xi, prop.lams)
    return problems


def capture_propagators(op: Op) -> Tracer:
    """Record the RadialPropagator objects built until the returned tracer is restored."""
    op.propagators = []
    tracer = Tracer()
    tracer.wrap_method(solver.RadialPropagator, "__init__", "capture",
                       after=lambda t, args, kwargs, out, dt: op.propagators.append(args[0]))
    return tracer


# ---------------------------------------------------------------------------
# box: run_semilinear


def _box(rng: np.random.Generator) -> list[Op]:
    stack = mgt_stack(dim=2)
    amplitude = 1e-3 * rng.uniform(0.5, 2.0)
    small = dict(p=5.0, sign=1.0, nu=0, T=50.0, dt0=0.25, box_halfwidth=80.0, modes_per_axis=256,
                 dim=2, amplitude=amplitude)
    growth = dict(p=2.0, sign=1.0, nu=0, T=100.0, dt0=0.1, box_halfwidth=40.0, modes_per_axis=128,
                  dim=2, amplitude=1.0, initial_slot=0)
    linear = {}

    def check_small(run):
        if run.blowup_flag:
            return [f"blow-up flagged at t={run.blowup_time}"]
        if run.t not in linear:
            n, h = small["modes_per_axis"], small["box_halfwidth"]
            x = -h + (2.0 * h / n) * np.arange(n)
            gauss = amplitude * np.exp(-0.5 * (x[:, None] ** 2 + x[None, :] ** 2))
            linear[run.t] = shell_l2(stack, h, n, gauss, stack.m - 1, run.t)
        return band_problems("final L2 / linear evolution", run.l2_series[-1] / linear[run.t], 0.5, 2.0)

    def check_growth(run):
        series = np.asarray(run.l2_series)
        crossed = np.nonzero(series > 10.0 * series[0])[0]
        if crossed.size == 0 or not run.times[crossed[0]] < growth["T"]:
            return [f"L2 never exceeds 10x its initial value {series[0]:.3e} before T"]
        return []

    return [Op("run_semilinear p=5 256^2", lambda: run_semilinear(stack, **small), check_small),
            Op("run_semilinear p=2 growth 128^2", lambda: run_semilinear(stack, **growth),
               check_growth)]


# ---------------------------------------------------------------------------
# branches: classify_stack, expansions, track_branches, verify_expansion


@dataclass
class RayResult:
    records: list
    branches: Any
    orders: list


def _ray(stack, d: Direction, regime: Regime, grid: np.ndarray) -> RayResult:
    """The call sequence of `hyperdecay asymptotics` on one ray."""
    records = (hd.low_freq_expansions(stack, d) if regime is Regime.LOW
               else hd.high_freq_expansions(stack, d))
    bs = hd.track_branches(stack, d, grid)
    assign = match_records_to_branches(bs, records, regime)
    orders = [hd.verify_expansion(bs, rec, branch_index=assign[i])[0] for i, rec in enumerate(records)]
    return RayResult(records, bs, orders)


def _ray_op(name, stack, d, regime, grid, expected):
    def check(res: RayResult):
        problems = compare_expansions(res.records, expected, rtol=1e-8)[1]
        problems += order_problems(res.orders, [r.last_power for r in res.records])
        bs = res.branches
        xi = bs.rho_grid[:, None] * np.asarray(bs.direction.vector())[None, :]
        problems += root_problems(stack, xi, bs.branches.T)
        return problems

    return Op(name, lambda: _ray(stack, d, regime, grid), check)


def _branches(rng: np.random.Generator) -> list[Op]:
    aniso_pm, ell3_pm = PRESETS["anisotropic_elastic_2d"], PRESETS["example_ell3"]
    aniso, ell3 = aniso_pm.build(), ell3_pm.build()
    em, weak = PRESETS["em_elastic"].build(), PRESETS["fourth_order_weak"].build()
    # isotropic stacks and the anisotropic one restricted to a signed axis give
    # bit-identical restrictions on every signed axis the seed may pick
    axis3 = np.zeros(3)
    axis3[rng.integers(3)] = rng.choice([-1.0, 1.0])
    d_em = Direction.of(axis3)
    d_aniso = Direction.of((rng.choice([-1.0, 1.0]), 0.0))
    d_weak = Direction.of((rng.choice([-1.0, 1.0]),))
    low_grid, high_grid = np.geomspace(1e-4, 1e-1, 121), np.geomspace(1e1, 1e3, 81)
    return [
        Op("classify_stack anisotropic_elastic_2d", lambda: hd.classify_stack(aniso),
           lambda rep: verdict_problems(rep, aniso_pm.expected["strictly_stable"],
                                        aniso_pm.expected["scenario_flags"])),
        Op("classify_stack example_ell3", lambda: hd.classify_stack(ell3),
           lambda rep: verdict_problems(rep, ell3_pm.expected["strictly_stable"])),
        _ray_op("ray em_elastic low", em, d_em, Regime.LOW, low_grid,
                PRESETS["em_elastic"].expected["low"]),
        _ray_op("ray anisotropic_elastic_2d low", aniso, d_aniso, Regime.LOW, low_grid,
                aniso_pm.expected["low_at"](d_aniso.vector())),
        _ray_op("ray fourth_order_weak high", weak, d_weak, Regime.HIGH, high_grid,
                PRESETS["fourth_order_weak"].expected["high"]),
    ]


WORKLOADS = {"decay": _decay, "box": _box, "branches": _branches}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](np.random.default_rng(seed))
