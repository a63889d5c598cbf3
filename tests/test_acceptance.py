"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import filecmp
import time

import numpy as np

import hyperdecay as hd
from hyperdecay.asymptotics import ExpansionCase, Regime, match_records_to_branches
from hyperdecay.cli import main as cli_main
from hyperdecay.fitting import fit_loglog
from hyperdecay.presets import (PRESETS, blackstock_crighton_stack, compare_expansions,
                                damped_wave_stack, example_ell3_stack,
                                example_ell3_stable_predicate, mgt_stack)
from hyperdecay.profiles import moment, profile_gap_series
from hyperdecay.semilinear import run_semilinear
from hyperdecay.solver import DataSpec, GaussianProfile, ZeroProfile, gaussian_data
from hyperdecay.stability import abscissa_verdict, classify_stack, sample_directions
from hyperdecay.symbols import Direction, axis_direction, full_symbol_at
from hyperdecay.tolerances import TOL
from tests.oracles import _propagate_companion
from tests.test_stability import break_interlacing, random_interlaced_stack


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_stability_sweeps():
    t0 = time.monotonic()
    mismatch = []
    for tau in (0.25, 0.5, 1.0, 2.0, 4.0):
        for b in (0.0, 0.5, 1.0, 2.0, 4.0):
            got = classify_stack(mgt_stack(tau=tau, b=b)).strictly_stable
            if got != (b > 0):
                mismatch.append(("mgt", tau, b, got))
            if b == 0.0:
                rep = classify_stack(mgt_stack(tau=tau, b=0.0))
                if rep.interlacing_upper.klass.value != "WEAK":
                    mismatch.append(("mgt-boundary-class", tau, b, rep.interlacing_upper.klass))
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        for b in (0.0, 0.5, 1.0, 2.0, 4.0):
            got = classify_stack(blackstock_crighton_stack(a=a, b=b)).strictly_stable
            if got != (b > 0):
                mismatch.append(("bc", a, b, got))
    for c1 in (0.5, 1.0, 2.0, 3.0, 4.0):
        for b in (0.5, 1.0, 1.5, 2.0, 2.5):
            params = dict(a=2.0, b=b, c1=c1, c2=2.0, c3=1.5)
            got = classify_stack(example_ell3_stack(**params)).strictly_stable
            if got != example_ell3_stable_predicate(**params):
                mismatch.append(("ell3", c1, b, got))
    elapsed = time.monotonic() - t0
    _report("criterion 1 (stability sweeps)",
            not mismatch and elapsed < 10.0,
            f"{75} verdicts, mismatches={mismatch}, {elapsed:.1f}s")


def test_criterion_2_cross_validation():
    t0 = time.monotonic()
    rng = np.random.default_rng(811)
    mismatches = []
    logged = []
    for trial in range(400):
        m = int(rng.integers(2, 6))
        ell = 1 if m == 2 else int(rng.integers(1, 3))
        stack = random_interlaced_stack(rng, m, ell)
        if trial % 2:
            stack = break_interlacing(rng, stack)
        report = classify_stack(stack, sample_directions(1))
        direct, worst = abscissa_verdict(stack)
        if report.strictly_stable != direct:
            margin = abs(report.min_margin)
            if margin < 10.0 * TOL.interlace_margin_rtol:
                logged.append((trial, margin, worst))
            else:
                mismatches.append((trial, report.strictly_stable, direct, margin, worst))
    elapsed = time.monotonic() - t0
    if logged:
        print(f"  excused near-tolerance cases: {logged}")
    _report("criterion 2 (interlacing route vs abscissa, 400 stacks)",
            not mismatches and elapsed < 60.0,
            f"unexcused={mismatches[:3]}, excused={len(logged)}, {elapsed:.1f}s")


def test_criterion_3_root_asymptotics():
    t0 = time.monotonic()
    names = ["mgt", "blackstock_crighton", "em_elastic", "em_elastic_dissipative",
             "mgt_classical_damping", "fourth_order_weak", "anisotropic_elastic_2d", "example_ell3"]
    problems = []
    for name in names:
        pm = PRESETS[name]
        stack = pm.build()
        if name == "anisotropic_elastic_2d":
            dvec = (1.0 / np.sqrt(2), 1.0 / np.sqrt(2))
            d = Direction.of(dvec)
            expected_low = pm.expected["low_at"](dvec)
            expected_high = pm.expected["high_at"](dvec)
        else:
            d = axis_direction(stack.dim)
            expected_low = pm.expected["low"]
            expected_high = pm.expected["high"]
        for regime, grid, expected in (
            (Regime.LOW, np.geomspace(1e-3, 1e-1, 81), expected_low),
            (Regime.HIGH, np.geomspace(1e1, 1e3, 81), expected_high),
        ):
            recs = (hd.low_freq_expansions(stack, d) if regime is Regime.LOW
                    else hd.high_freq_expansions(stack, d))
            ok, why = compare_expansions(recs, expected, rtol=1e-8)
            if not ok:
                problems.append((name, regime.value, "coefficients", why))
            bs = hd.track_branches(stack, d, grid)
            assign = match_records_to_branches(bs, recs, regime)
            for i, rec in enumerate(recs):
                order, _ = hd.verify_expansion(bs, rec, branch_index=assign[i])
                if not (np.isinf(order) or order >= rec.last_power + 0.4):
                    problems.append((name, regime.value, rec.case.value, order))
    elapsed = time.monotonic() - t0
    _report("criterion 3 (expansion coefficients + remainder orders, 8 presets)",
            not problems and elapsed < 30.0, f"problems={problems[:4]}, {elapsed:.1f}s")


def test_criterion_4_degenerate_regimes():
    stack = PRESETS["mgt_classical_damping"].build()
    cfg = PRESETS["mgt_classical_damping"].expected["high_re_slope"]
    bs = hd.track_branches(stack, axis_direction(3), np.geomspace(cfg["range"][0], cfg["range"][1], 81))
    slopes = []
    for j in range(bs.m):
        if np.max(np.abs(bs.branches[j].imag)) > 1.0:  # the oscillating pair
            sl, _ = fit_loglog(bs.rho_grid, np.abs(bs.branches[j].real))
            slopes.append(sl)
    ok_high = len(slopes) == 2 and all(abs(s - cfg["slope"]) <= cfg["tol"] for s in slopes)

    stack4 = PRESETS["fourth_order_weak"].build()
    cfg = PRESETS["fourth_order_weak"].expected["low_re_slope"]
    grid = np.geomspace(cfg["range"][0], cfg["range"][1], 81)
    bs4 = hd.track_branches(stack4, axis_direction(1), grid)
    recs = hd.low_freq_expansions(stack4, axis_direction(1))
    assign = match_records_to_branches(bs4, recs, Regime.LOW)
    slopes4, coefs4 = [], []
    for i, rec in enumerate(recs):
        if rec.case is ExpansionCase.SHARED_SIMPLE:
            lam = bs4.branches[assign[i]]
            sl, _ = fit_loglog(bs4.rho_grid, np.abs(lam.real))
            slopes4.append(sl)
            coefs4.append(np.mean(lam.real / bs4.rho_grid**4))
    ok_low = (len(slopes4) == 2 and all(abs(s - 4.0) <= 0.1 for s in slopes4)
              and all(abs(c + 1.5) <= 0.02 for c in coefs4))
    _report("criterion 4 (degenerate-regime slopes)", ok_high and ok_low,
            f"high Re slopes {slopes4 and slopes}, low slopes {slopes4}, coefs {coefs4}")


def test_criterion_5_decay_rates():
    times = np.geomspace(1e2, 1e4, 25)
    t0 = time.monotonic()
    s_mgt = hd.simulate(PRESETS["mgt"].build(), gaussian_data(3, 2), times, 0, 0.0)
    t_mgt = time.monotonic() - t0
    ok1 = abs(s_mgt.fitted_slope + 0.25) <= 0.05 and t_mgt < 120.0
    t0 = time.monotonic()
    s_em = hd.simulate(PRESETS["em_elastic"].build(), gaussian_data(5, 4), times, 0, 2.0)
    t_em = time.monotonic() - t0
    ok2 = abs(s_em.fitted_slope + 0.75) <= 0.07 and t_em < 120.0
    _report("criterion 5 (decay-rate reproduction)", ok1 and ok2,
            f"mgt {s_mgt.fitted_slope:+.4f} [{t_mgt:.0f}s], em {s_em.fitted_slope:+.4f} [{t_em:.0f}s]")


def test_criterion_6_profile_gap():
    times = np.geomspace(1e2, 1e4, 25)
    details = []
    ok = True
    for name, slot, k, s in (("mgt", 2, 0, 0.0), ("blackstock_crighton", 3, 0, 1.0)):
        stack = PRESETS[name].build()
        data = gaussian_data(stack.m, slot)
        assert moment(data, stack) != 0
        sol = hd.simulate(stack, data, times, k, s)
        gap = profile_gap_series(stack, data, times, k, s)
        imp = gap.fitted_slope - sol.fitted_slope
        details.append(f"{name} improvement {imp:+.3f}")
        ok &= -0.65 <= imp <= -0.35
    stack = PRESETS["mgt"].build()
    base = hd.simulate(stack, gaussian_data(3, 2), times, 0, 0.0)
    data0 = DataSpec((ZeroProfile(), GaussianProfile(-1.0, 1.0), GaussianProfile(1.0, 1.0)))
    assert abs(moment(data0, stack)) < 1e-12
    s0 = hd.simulate(stack, data0, times, 0, 0.0)
    gain = base.fitted_slope - s0.fitted_slope
    details.append(f"vanishing-moment gain {gain:+.3f}")
    ok &= gain >= 0.35
    _report("criterion 6 (profile-gap improvement)", ok, "; ".join(details))


def test_criterion_7_propagator_oracles():
    rng = np.random.default_rng(4242)
    worst = 0.0
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 6))
        ell = 1 if m == 2 else int(rng.integers(1, 3))
        stack = random_interlaced_stack(rng, m, ell)
        for _ in range(20):
            rho = 10.0 ** rng.uniform(-2, 2)
            xi = np.array([rho if rng.uniform() < 0.5 else -rho])
            poly = full_symbol_at(stack, xi)
            data = rng.normal(size=m) + 1j * rng.normal(size=m)
            t = rng.uniform(0.0, 10.0)
            k = int(rng.integers(0, m))
            a = hd.propagate_mode(stack, xi, data, t, k)
            b = _propagate_companion(poly.array(), data, np.array([t]), k)[0]
            denom = max(abs(a), abs(b))
            if denom > 1e-250:
                worst = max(worst, abs(a - b) / denom)
            checked += 1
            if checked >= 1000:
                break
    ok_paths = worst <= 1e-8

    dw = damped_wave_stack()
    got = hd.propagate_mode(dw, np.array([0.3]), [1.0, 0.0], 1.0, 0)
    ref = 1.125 * np.exp(-0.1) - 0.125 * np.exp(-0.9)
    ok_dw = abs(got - ref) < 1e-10
    mgt = mgt_stack()
    ok_mgt = all(abs(hd.propagate_mode(mgt, np.zeros(3), [0, 0, 1.0], t, 0) - (t - 1 + np.exp(-t))) < 1e-10
                 for t in (0.5, 2.0, 7.0))
    _report("criterion 7 (propagator oracles)", ok_paths and ok_dw and ok_mgt,
            f"path agreement worst {worst:.2e}, damped-wave {abs(got - ref):.1e}")


def test_criterion_8_critical_exponent_and_semilinear():
    ok_table = (hd.critical_exponent(3, 0, 0, 3).p_bar == 2.5
                and hd.critical_exponent(3, 1, 0, 1).p_bar == 3.0
                and all(hd.critical_exponent(m, 0, m - 2, n).p_bar == 1 + 2 / n
                        for m in (3, 4, 5) for n in (1, 2)))
    assert ok_table

    stack2 = mgt_stack(dim=2)
    assert hd.critical_exponent(3, 0, 0, 2).p_bar == 4.0
    nl = run_semilinear(stack2, p=5.0, sign=1.0, nu=0, T=50.0, dt0=0.25, box_halfwidth=80.0,
                        modes_per_axis=512, dim=2, amplitude=1e-3)
    lin = run_semilinear(stack2, p=5.0, sign=0.0, nu=0, T=50.0, dt0=0.25, box_halfwidth=80.0,
                         modes_per_axis=512, dim=2, amplitude=1e-3)
    sup_nl = float(np.max(np.abs(nl.physical(0))))
    sup_lin = float(np.max(np.abs(lin.physical(0))))
    ratio = sup_nl / sup_lin
    fl = np.abs(lin.physical(0))
    border = max(fl[0, :].max(), fl[-1, :].max(), fl[:, 0].max(), fl[:, -1].max())
    ok_track = 0.5 <= ratio <= 2.0 and not nl.blowup_flag and border / sup_lin < 1e-10

    growth = run_semilinear(stack2, p=2.0, sign=1.0, nu=0, T=100.0, dt0=0.1, box_halfwidth=40.0,
                            modes_per_axis=128, dim=2, amplitude=1.0, initial_slot=0)
    series = np.asarray(growth.l2_series)
    crossed = np.nonzero(series > 10.0 * series[0])[0]
    ok_growth = crossed.size > 0 and growth.times[crossed[0]] < 100.0
    if crossed.size:
        # growth is monotone from well before the threshold crossing
        segment = series[max(1, crossed[0] - 20):crossed[0] + 1]
        ok_growth &= bool(np.all(np.diff(segment) > 0))
    _report("criterion 8 (critical exponent + box runs)",
            ok_table and ok_track and ok_growth,
            f"ratio {ratio:.3f}, boundary {border / sup_lin:.1e}, "
            f"growth x{series.max() / series[0]:.0f} by t={growth.times[-1]:.1f}")


def test_criterion_9_reproduce_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc1 = cli_main(["--out", str(out1), "reproduce", "mgt"])
    rc2 = cli_main(["--out", str(out2), "reproduce", "mgt"])
    ok = rc1 == 0 and rc2 == 0
    names = sorted(p.name for p in out1.iterdir())
    ok &= names == sorted(p.name for p in out2.iterdir())
    diffs = []
    for name in names:
        if not filecmp.cmp(out1 / name, out2 / name, shallow=False):
            diffs.append(name)
    _report("criterion 9 (byte-identical reproduction)", ok and not diffs,
            f"files={len(names)}, diffs={diffs}")
