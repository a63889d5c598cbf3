"""Command-line front end: classify, asymptotics, predict, simulate, profile,
semilinear, and fixture-checked preset reproduction.

Numbers are serialized with 17 significant digits so reruns are byte
identical; nothing time- or host-dependent enters the outputs.  JSON is
strict: a non-finite float is written as null.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import asymptotics as asy
from . import presets as preset_mod
from .decay import critical_exponent, predict_decay
from .profiles import moment, solution_and_gap
from .rootkit import track_branches
from .semilinear import run_semilinear
from .solver import (DataSpec, GaussianProfile, GridProfile, RingProfile, ZeroProfile,
                     gaussian_data, simulate)
from .stability import classify_stack
from .symbols import (Direction, ModelFormatError, OperatorStack, _read, axis_direction, load_model,
                      save_model)
from .tolerances import set_tolerance

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _plain(obj):
    """obj for strict JSON: numpy unwrapped, complex as {"re", "im"}, non-finite float as None."""
    if isinstance(obj, dict):
        return {key: _plain(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _write_series(path: Path, series) -> None:
    """The `t,value` CSV of a norm time series."""
    _write_csv(path, ["t", "value"], [(float(t), float(v)) for t, v in zip(series.times, series.values)])


def _write_expansions(path: Path, records) -> None:
    _write_csv(path, ["branch", "power", "re_coeff", "im_coeff"],
               [(r.branch, p, c.real, c.imag) for r in records for p, c in r.terms])


def _write_simulate(out: Path, name: str, series) -> None:
    _write_series(out / f"{name}_simulate.csv", series)
    _write_json(out / f"{name}_simulate_fit.json", series.to_dict())


def _load_stack(spec: str, dim: int | None = None) -> tuple[OperatorStack, str]:
    """A preset or a model file; `dim` builds an isotropic preset in that dimension."""
    if spec in preset_mod.PRESETS:
        pm = preset_mod.get_preset(spec)
        stack = pm.build()
        if dim is not None and dim != stack.dim and stack.isotropic:
            stack = pm.build(dim=dim)
        return stack, pm.name
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(f"{spec!r} is neither a preset name nor a model file")
    return load_model(path)


# the class of each data-file profile kind; its fields and their defaults are the class's own
_PROFILE_KINDS = {"gaussian": GaussianProfile, "zero": ZeroProfile, "ring": RingProfile, "grid": GridProfile}


def _profile(entry: dict, path: str):
    """The profile a data-file entry describes: a known kind, then its class's fields, each
    read through `_read` with the class's default."""
    if "kind" not in entry:
        raise ModelFormatError(f"{path}.kind: missing")
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in _PROFILE_KINDS:
        raise ModelFormatError(f"{path}.kind: unknown profile kind {kind!r}")
    make = _PROFILE_KINDS[kind]      # a grid's `values` is the one field that is a list of numbers
    return make(**{f.name: tuple(_read(entry, f.name, list, path, of=float)) if f.name == "values"
                   else _read(entry, f.name, float, path, f.default) for f in fields(make)})


def _load_data(spec: str | None, m: int) -> DataSpec:
    if spec is None:
        return gaussian_data(m, m - 1)
    with open(spec, "r", encoding="utf-8") as fh:
        entries = _read(json.load(fh), "profiles", list, of=dict)
    if len(entries) != m:
        raise ValueError(f"data file has {len(entries)} profiles, model needs {m}")
    return DataSpec(tuple(_profile(e, f"profiles[{i}]") for i, e in enumerate(entries)))


def _norm_run(args) -> tuple[OperatorStack, str, DataSpec, np.ndarray]:
    """The stack, name, data and time grid of a `simulate` or `profile` run."""
    if not 0.0 < args.tmin < args.tmax < math.inf:
        raise ValueError("the time grid must be nonempty, 1-d, finite, > 0 and strictly ascending, "
                         f"got --tmin {args.tmin} and --tmax {args.tmax}")
    stack, name = _load_stack(args.model)
    return stack, name, _load_data(args.data, stack.m), np.geomspace(args.tmin, args.tmax, args.points)


def _parse_direction(text: str | None, dim: int) -> Direction:
    if not text:
        return axis_direction(dim)
    parts = [float(x) for x in text.split(",")]
    if len(parts) != dim:
        raise ValueError(f"direction has {len(parts)} components, model dim is {dim}")
    return Direction.of(parts)


def _records(stack: OperatorStack, d: Direction, regime: asy.Regime):
    """The expansion records of the regime along d."""
    if regime is asy.Regime.LOW:
        return asy.low_freq_expansions(stack, d)
    return asy.high_freq_expansions(stack, d)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    stack, name = _load_stack(args.model)
    report = classify_stack(stack)
    out = Path(args.out)
    _write_json(out / f"{name}_classify.json", report.to_dict())
    verdict = "strictly stable" if report.strictly_stable else "not strictly stable"
    print(f"{name}: {verdict}; flags = {sorted(report.scenario_flags) or 'none'}; "
          f"min margin = {report.min_margin:.3e}; directions = {report.n_directions}")
    for order, h in sorted(report.hyperbolicity.items(), reverse=True):
        print(f"  order {order}: {h.value}")
    if report.interlacing_upper is not None:
        print(f"  upper interlacing: {report.interlacing_upper.klass.value}")
    if report.interlacing_lower is not None:
        print(f"  lower interlacing: {report.interlacing_lower.klass.value}")
    if report.inconclusive:
        print("  margin within a decade of the decision boundary: inconclusive")
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report.strictly_stable else EXIT_NEGATIVE


def cmd_asymptotics(args) -> int:
    stack, name = _load_stack(args.model)
    d = _parse_direction(args.direction, stack.dim)
    regime = asy.Regime(args.regime.upper())
    records = _records(stack, d, regime)
    grid = (np.geomspace(1e-4, asy.LOW_RHO_MAX, 121) if regime is asy.Regime.LOW
            else np.geomspace(asy.HIGH_RHO_MIN, 1e4, 121))
    bs = track_branches(stack, d, grid)
    assign = asy.match_records_to_branches(bs, records, regime)
    fits = []
    for i, rec in enumerate(records):
        order, rel = asy.verify_expansion(bs, rec, branch_index=assign[i])
        fits.append({"branch": rec.branch, "case": rec.case.value,
                     "fitted_remainder_order": order, "boundary_rel_err": rel,
                     "threshold": rec.last_power + 0.4})
    out = Path(args.out)
    _write_expansions(out / f"{name}_asymptotics_{args.regime}.csv", records)
    _write_json(out / f"{name}_asymptotics_{args.regime}_fit.json", {
        "records": fits,
        "tracking": {"input_points": len(grid), "points": len(bs.rho_grid),
                     "cluster_events": len(bs.cluster_events)}})
    _write_csv(out / f"{name}_branches_{args.regime}.csv", ["ray_id", "rho", "branch", "re", "im"],
               [(0, float(rho), j, float(z.real), float(z.imag))   # ray_id is 0 for the one ray
                for rho, zs in zip(bs.rho_grid, bs.branches.T) for j, z in enumerate(zs)])
    worst = min((f["fitted_remainder_order"] for f in fits), default=float("inf"))
    print(f"{name} {args.regime}: {len(records)} records; worst fitted remainder order {worst:.3g}")
    return EXIT_OK


def cmd_predict(args) -> int:
    stack, name = _load_stack(args.model)
    report = classify_stack(stack)
    pred = predict_decay(report, args.n, args.q, args.k, args.s, moment_zero=args.moment_zero, nu=args.nu)
    doc = pred.to_dict()
    doc["structure"] = f"Q{stack.ell}"
    try:
        doc["critical_exponent"] = critical_exponent(stack.m, stack.ell - 1, args.nonlinearity_order,
                                                     args.n).to_dict()
    except ValueError as exc:
        doc["critical_exponent"] = {"error": str(exc)}
    _write_json(Path(args.out) / f"{name}_predict.json", doc)
    print(f"{name}: exponent {pred.exponent:+.4g} via {pred.regime_note}; "
          f"constraint_ok = {pred.constraint_ok}")
    if not pred.constraint_ok:
        print(f"  warning: {pred.violated_constraint}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    stack, name, data, times = _norm_run(args)
    series = simulate(stack, data, times, k=args.k, s=args.s)
    _write_simulate(Path(args.out), name, series)
    print(f"{name}: fitted slope {series.fitted_slope:+.4f} +- {series.slope_stderr:.4f} "
          f"on t in [{series.fit_window[0]:.3g}, {series.fit_window[1]:.3g}]")
    return EXIT_OK


def cmd_profile(args) -> int:
    stack, name, data, times = _norm_run(args)
    M = moment(data, stack)
    sol, gap = solution_and_gap(stack, data, times, k=args.k, s=args.s)
    out = Path(args.out)
    _write_series(out / f"{name}_profile_solution.csv", sol)
    _write_series(out / f"{name}_profile_gap.csv", gap)
    _write_json(out / f"{name}_profile_fit.json", {
        "moment": M,
        "solution": sol.to_dict(),
        "gap": gap.to_dict(),
        "improvement": gap.fitted_slope - sol.fitted_slope,
    })
    print(f"{name}: solution slope {sol.fitted_slope:+.4f}, gap slope {gap.fitted_slope:+.4f}, "
          f"improvement {gap.fitted_slope - sol.fitted_slope:+.4f} (moment M = {M:.6g})")
    return EXIT_OK


def cmd_semilinear(args) -> int:
    stack, name = _load_stack(args.model, dim=args.dim)
    run = run_semilinear(stack, p=args.p, sign=args.sign, nu=args.nu, T=args.T, dt0=args.dt,
                         box_halfwidth=args.box, modes_per_axis=args.modes, dim=args.dim,
                         amplitude=args.amplitude)
    if run.blowup_flag:
        verdict = {"verdict": "blowup", "blowup_time": run.blowup_time}
    elif run.l2_series[-1] > 10.0 * max(run.l2_series[0], run.initial_scale):
        verdict = {"verdict": "growing"}
    else:
        verdict = {"verdict": "decaying"}
    verdict["final_l2"] = run.l2_series[-1]
    verdict["initial_l2"] = run.l2_series[0]
    verdict["initial_scale"] = run.initial_scale
    verdict["accepted_steps"] = len(run.times) - 1
    verdict["rejected_steps"] = run.rejected_steps
    out = Path(args.out)
    _write_csv(out / f"{name}_semilinear.csv", ["t", "l2", "linf_nu"],
               list(zip(run.times, run.l2_series, run.linf_series)))
    _write_json(out / f"{name}_semilinear.json", verdict)
    print(f"{name}: {verdict['verdict']} (l2 {run.l2_series[0]:.3e} -> {run.l2_series[-1]:.3e})")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    try:
        pm = preset_mod.get_preset(args.model)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    stack = pm.build()
    out = Path(args.out)
    checks: list[tuple[str, bool, str]] = []

    report = classify_stack(stack)
    _write_json(out / f"{pm.name}_classify.json", report.to_dict())
    if report.inconclusive:
        print(f"{pm.name}: stability margin within a decade of the decision boundary")
        return EXIT_INCONCLUSIVE
    exp = pm.expected
    checks.append(("strictly_stable", report.strictly_stable == exp["strictly_stable"],
                   f"got {report.strictly_stable}"))
    if "scenario_flags" in exp:
        checks.append(("scenario_flags", set(report.scenario_flags) == set(exp["scenario_flags"]),
                       f"got {sorted(report.scenario_flags)}"))

    d = axis_direction(stack.dim)
    for regime in asy.Regime:
        key = regime.value.lower()
        if key in exp:
            records = _records(stack, d, regime)
            ok, problems = preset_mod.compare_expansions(records, exp[key])
            checks.append((f"{key}_expansions", ok, "; ".join(problems)))
            _write_expansions(out / f"{pm.name}_asymptotics_{key}.csv", records)

    if "sim" in exp:
        cfg = exp["sim"]
        data = gaussian_data(stack.m, cfg["slot"])
        times = np.geomspace(cfg["t_range"][0], cfg["t_range"][1], cfg["t_range"][2])
        if "profile_gap_band" in exp:
            series, gap = solution_and_gap(stack, data, times, k=cfg["k"], s=cfg["s"])
        else:
            series, gap = simulate(stack, data, times, k=cfg["k"], s=cfg["s"]), None
        _write_simulate(out, pm.name, series)
        ok = abs(series.fitted_slope - cfg["slope"]) <= cfg["tol"]
        checks.append(("decay_slope", ok,
                       f"fitted {series.fitted_slope:+.4f}, expected {cfg['slope']:+.4f} +- {cfg['tol']}"))
        if gap is not None:
            _write_series(out / f"{pm.name}_profile_gap.csv", gap)
            imp = gap.fitted_slope - series.fitted_slope
            lo, hi = exp["profile_gap_band"]
            checks.append(("profile_gap_improvement", lo <= imp <= hi,
                           f"improvement {imp:+.4f} outside [{lo}, {hi}]"))

    doc = {"preset": pm.name,
           "checks": [{"name": n, "passed": okc, "detail": detail} for n, okc, detail in checks],
           "all_passed": all(okc for _, okc, _ in checks)}
    _write_json(out / f"{pm.name}_reproduce.json", doc)
    save_model(stack, out / f"{pm.name}_model.json", pm.name)
    for n, okc, detail in checks:
        print(f"[{'PASS' if okc else 'FAIL'}] {n}" + ("" if okc else f": {detail}"))
    return EXIT_OK if doc["all_passed"] else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hyperdecay",
                                 description="stability, root asymptotics, and decay rates "
                                             "for stacked hyperbolic operators")
    ap.add_argument("--out", default="out", help="output directory (default ./out)")
    ap.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                    help="override a named tolerance (repeatable)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="stability classification")
    p.add_argument("model")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("asymptotics", help="root expansions and remainder fits")
    p.add_argument("model")
    p.add_argument("--regime", choices=["low", "high"], default="low")
    p.add_argument("--direction", default=None, help="comma-separated components")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("predict", help="decay-rate prediction")
    p.add_argument("model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("--moment-zero", action="store_true", dest="moment_zero")
    p.add_argument("--nonlinearity-order", type=int, default=0, dest="nonlinearity_order")
    p.set_defaults(func=cmd_predict)

    norm_run = argparse.ArgumentParser(add_help=False)   # the flags `_norm_run` reads
    norm_run.add_argument("model")
    norm_run.add_argument("--data", default=None)
    norm_run.add_argument("--k", type=int, default=0)
    norm_run.add_argument("--s", type=float, default=0.0)
    norm_run.add_argument("--tmin", type=float, default=1e2)
    norm_run.add_argument("--tmax", type=float, default=1e4)
    norm_run.add_argument("--points", type=int, default=25)
    for cmd, func, text in (("simulate", cmd_simulate, "norm decay of the linear problem"),
                            ("profile", cmd_profile, "solution vs leading-profile gap")):
        sub.add_parser(cmd, parents=[norm_run], help=text).set_defaults(func=func)

    p = sub.add_parser("semilinear", help="pseudospectral power-nonlinear run")
    p.add_argument("model")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--sign", type=float, default=1.0)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--modes", type=int, default=128)
    p.add_argument("--box", type=float, default=60.0)
    p.set_defaults(func=cmd_semilinear)

    p = sub.add_parser("reproduce", help="run the pipeline on a preset and diff fixtures")
    p.add_argument("model")
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for override in args.tol:
            name, _, value = override.partition("=")
            set_tolerance(name.strip(), float(value))
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
