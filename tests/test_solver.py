import math

import numpy as np
import pytest

import hyperdecay as hd
from hyperdecay import solver
from hyperdecay.presets import damped_wave_stack, em_elastic_stack, mgt_stack
from hyperdecay.solver import (DataSpec, GaussianProfile, RadialPropagator, RingProfile, ZeroProfile,
                               _field, _propagate, default_rho_grid, exp_newton, gaussian_data,
                               sobolev_norm)
from hyperdecay.symbols import axis_direction, full_symbol_at, symbol_coeffs
from tests.oracles import _propagate_companion
from tests.test_stability import random_interlaced_stack


def test_damped_wave_closed_form():
    stack = damped_wave_stack()
    got = hd.propagate_mode(stack, np.array([0.3]), [1.0, 0.0], 1.0, 0)
    ref = 1.125 * np.exp(-0.1) - 0.125 * np.exp(-0.9)
    assert abs(got - ref) < 1e-10


def test_initial_conditions_reproduced(rng):
    stack = em_elastic_stack()
    data = rng.normal(size=5) + 1j * rng.normal(size=5)
    xi = np.array([0.37, -0.2, 0.11])
    for k in range(5):
        got = hd.propagate_mode(stack, xi, data, 0.0, k)
        assert abs(got - data[k]) < 1e-9 * (1 + abs(data[k]))


def test_mgt_origin_ode_solution():
    stack = mgt_stack()
    for t in [0.3, 1.0, 4.0, 9.0]:
        got = hd.propagate_mode(stack, np.zeros(3), [0.0, 0.0, 1.0], t, 0)
        assert abs(got - (t - 1 + np.exp(-t))) < 1e-10


def test_path_agreement_random(rng):
    """Divided-difference kernel vs the root-free companion exponential on 1000 samples."""
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 6))
        ell = 1 if m == 2 else int(rng.integers(1, 3))
        stack = random_interlaced_stack(rng, m, ell)
        for _ in range(10):
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
                assert abs(a - b) <= 1e-8 * denom, (m, rho, t, k)
            checked += 1
            if checked >= 1000:
                break


def test_paths_agree_near_confluence_window(rng):
    # roots separated by a gap in [1e-5, 1e-3] at t <= 5, and by a gap in {0} U [1e-14, 1e-1]
    # at t in [0.1, 100], must agree with the root-free route to 1e-8 relative
    gaps = np.concatenate([10.0 ** rng.uniform(-5, -3, 50), [0.0], 10.0 ** rng.uniform(-14, -1, 100)])
    times = np.concatenate([rng.uniform(0.0, 5.0, 50), 10.0 ** rng.uniform(-1, 2, 101)])
    for gap, t in zip(gaps, times):
        lams = np.array([-1.0 + 0j, -1.0 + gap + 0j, -0.3 + 0.9j])
        coeffs = np.polynomial.polynomial.polyfromroots(lams)
        data = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = _propagate(coeffs[None], lams[None], data[:, None], t, 0)[0, 0]
        b = _propagate_companion(coeffs, data, np.array([t]), 0)[0]
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-30)


def test_derivatives_beyond_the_state_on_a_confluent_ray(stacks, rng):
    """d_t^k u_hat for k >= m on em_elastic (m = 5), whose low-frequency modes have a double root.

    The oracle gives derivatives 0..m-1; the symbol ODE gives the higher ones.
    """
    stack, d = stacks["em_elastic"], axis_direction(3)
    rho = default_rho_grid()[::64]
    prop = RadialPropagator(stack, d, rho)
    assert prop.confluent.any()
    data = rng.normal(size=(5, len(rho))) + 1j * rng.normal(size=(5, len(rho)))
    times = np.array([0.5, 3.0, 20.0])
    coeffs = symbol_coeffs(stack, rho[:, None] * d.vector()[None, :])
    for k in (5, 6):
        got = prop.propagate(data, times, k)
        for i in range(len(rho)):
            c = coeffs[i]
            derivs = [_propagate_companion(c, data[:, i], times, r) for r in range(5)]
            while len(derivs) <= k:
                derivs.append(-sum(c[r] * derivs[r - 5] for r in range(5)) / c[5])
            assert np.max(np.abs(got[:, i] - derivs[k])) <= 1e-8 * np.max(np.abs(derivs[k])), (k, i)
    # a one-mode call gives the grid's value of the same mode
    one = hd.propagate_mode(stack, rho[3] * d.vector(), data[:, 3], times, 5)
    assert np.max(np.abs(one - prop.propagate(data, times, 5)[:, 3])) <= 1e-12 * np.max(np.abs(one))
    series = hd.simulate(stack, gaussian_data(5, 4), np.geomspace(1e2, 1e4, 5), k=5)
    assert np.all(np.isfinite(series.values)) and np.all(series.values > 0)


def _expm_derivatives(mp, stack, xi, t, ks):
    """d_t^k u_hat(t) for the data e_m at frequency xi, as C^k expm(C t) e_m in 60-digit mpmath."""
    m = stack.m
    c = symbol_coeffs(stack, xi[None, :])[0]
    with mp.workdps(60):
        a = mp.matrix(m, m)
        for i in range(m - 1):
            a[i, i + 1] = 1
        for j in range(m):
            a[m - 1, j] = -mp.mpc(c[j].real, c[j].imag) / mp.mpc(c[m].real, c[m].imag)
        v = mp.expm(a * t)[:, m - 1]
        out = {}
        for k in range(max(ks) + 1):
            out[k] = complex(v[0])
            v = a * v
    return {k: out[k] for k in ks}


def test_low_frequency_derivatives_match_mpmath_expm(stacks):
    """d_t^k u_hat at em_elastic's slowest axis modes, against C^k expm(C t) e_m in 60-digit mpmath.

    There the slow branch's derivative is a tiny difference of O(1) fast-branch
    terms.  Taking d_t^k through lambda^k in the divided differences removes
    them analytically; applying C k times to the data and propagating with
    k = 0 instead errs by up to 9.5e-6 at k = 2 and 2.6e2 at k = 4 here.  The
    largest error seen is 3.7e-14 (1.1e-8 before close root pairs were refined
    as quadratic factors).
    """
    mp = pytest.importorskip("mpmath")
    stack, d = stacks["em_elastic"], axis_direction(3)
    for rho in np.linspace(1e-4, 1.9e-4, 4):
        xi = rho * d.vector()
        for t in (20.0, 100.0):
            ref = _expm_derivatives(mp, stack, xi, t, (2, 4))
            for k in (2, 4):
                got = hd.propagate_mode(stack, xi, np.eye(stack.m)[stack.m - 1], t, k)
                assert abs(got - ref[k]) <= 1e-11 * abs(ref[k]), (rho, t, k)


def test_near_double_modes_match_mpmath_expm(stacks):
    """propagate_mode on em_elastic's axis for rho in [1e-4, 1e-3], where two roots near -1
    lie 2 rho^2 apart, against 60-digit mpmath.

    The pair's sum sets the slow branch's weight.  Aberth's single roots put
    that sum off by up to 3.6e-9 and these modes by up to 1.4e-8; refined as
    one quadratic factor, the pair leaves a largest error of 1.7e-14.
    """
    mp = pytest.importorskip("mpmath")
    stack, d = stacks["em_elastic"], axis_direction(3)
    for rho in np.geomspace(1e-4, 1e-3, 7):
        xi = rho * d.vector()
        for t in (20.0, 100.0, 1e3):
            ref = _expm_derivatives(mp, stack, xi, t, (0, 2, 4))
            for k in (0, 2, 4):
                got = hd.propagate_mode(stack, xi, np.eye(stack.m)[stack.m - 1], t, k)
                assert abs(got - ref[k]) <= 1e-11 * abs(ref[k]), (rho, t, k)


def test_selected_coordinate_is_the_all_coordinates_slice(stacks, rng, monkeypatch):
    """`exp_newton` asked for coordinate 0 gives bit for bit that coordinate of the full state.

    em_elastic (m = 5) on the default axis grid: its near-confluent rows at small rho take
    the Taylor series, the others the recurrence.
    """
    stack, d = stacks["em_elastic"], axis_direction(3)
    rho = default_rho_grid()
    prop = RadialPropagator(stack, d, rho)
    coeffs = symbol_coeffs(stack, rho[:, None] * d.vector()[None, :])
    data = rng.normal(size=(5, len(rho))) + 1j * rng.normal(size=(5, len(rho)))
    times = np.geomspace(1e2, 1e4, 25)
    series_calls = []
    series = solver._series
    monkeypatch.setattr(solver, "_series", lambda *a: series_calls.append(1) or series(*a))
    for k in range(4):
        full = exp_newton(coeffs, prop.lams, data.T[..., None], times, k, lead=5)
        assert full.shape == (25, len(rho), 5, 1)
        assert np.array_equal(prop.propagate(data, times, k), full[:, :, 0, 0]), k
    assert series_calls


def test_divided_differences_match_mpmath_at_clustered_nodes(monkeypatch):
    """f[lambda_0 .. lambda_L] of lambda^k e^(lambda t) at a clustered row, against 50-digit mpmath.

    Each row is an anchor and 1-3 nodes within tau / t of it (spans 1-3), for a
    low-frequency anchor near the imaginary axis and for -1, em_elastic's double
    root; tau runs from 0.05 to 30, so spans fall on both sides of SERIES_RADIUS
    and both the Taylor series and the recurrence are checked.  The reference is the
    recurrence in 50 digits at the same double nodes and times.  Rounding lambda t
    alone costs eps |lambda| t, so the bound is 256 eps (1 + |anchor| t); the
    largest error seen is 22 eps (1 + |anchor| t).
    """
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    series_calls = []
    series = solver._series
    monkeypatch.setattr(solver, "_series", lambda *a: series_calls.append(1) or series(*a))

    def reference(row, t, k):
        with mp.workdps(50):
            z = [mp.mpc(x.real, x.imag) for x in row]
            d = [zi**k * mp.exp(zi * mp.mpf(t)) for zi in z]
            top = [d[0]]
            for span in range(1, len(z)):
                d = [(d[i + 1] - d[i]) / (z[i + span] - z[i]) for i in range(len(d) - 1)]
                top.append(d[0])
            return np.array([complex(v) for v in top])

    for anchor, times in ((complex(-1e-4, 0.5), (1.0, 1e2, 1e4)), (-1.0 + 0j, (1.0, 10.0, 1e2))):
        for m in (2, 3, 4):
            for t in times:
                for tau in (0.05, 0.5, 0.9, 3.0, 30.0):
                    u = rng.uniform(0.2, 1.0, (4, m - 1)) * np.exp(2j * np.pi * rng.uniform(size=(4, m - 1)))
                    nodes = solver._chain(np.hstack([np.full((4, 1), anchor), anchor + tau / t * u]))
                    bound = 256 * eps * (1.0 + abs(anchor) * t)
                    for k in (0, 2, 4):
                        got = solver._divided_differences(nodes.T, np.array([t]), k)[:, 0].T
                        for row, value in zip(nodes, got):
                            ref = reference(row, t, k)
                            assert np.all(np.abs(value - ref) <= bound * np.abs(ref)), (anchor, m, t, tau, k)
    assert series_calls


def _per_entry_series(lam, omega, t, k, ti, ri):
    """`_series` in its per-entry form: each (time, row) entry gathers its own columns of both tables."""
    span = omega.shape[0]
    terms = solver.SERIES_TERMS + k
    h = np.zeros((terms, len(lam)), dtype=complex)
    h[0] = 1.0
    for r in range(span):
        for n in range(1, terms):
            h[n] += omega[r] * h[n - 1]
    tq = np.zeros((k + span + terms, len(t)))
    tq[k] = 1.0
    for q in range(1, span + terms):
        tq[k + q] = tq[k + q - 1] * t / q
    lc, hc = lam[ri], np.take(h, ri, axis=1)
    total = np.zeros(len(ti), dtype=complex)
    for a in range(k + 1):
        q0 = k + span - a
        total += math.comb(k, a) * lc ** (k - a) * np.einsum(
            "nk,nk->k", np.take(tq[q0 : q0 + terms], ti, axis=1), hc)
    return np.exp(lc * t[ti]) * total


def test_series_is_the_per_entry_contraction(stacks, monkeypatch):
    """`_series` gives bit for bit its per-entry gathered form, on em_elastic's default-axis rows."""
    stack, d = stacks["em_elastic"], axis_direction(3)
    rho = default_rho_grid()
    prop = RadialPropagator(stack, d, rho)
    data = gaussian_data(5, 4).values(rho, 3)
    times = np.geomspace(1e2, 1e4, 25)
    series, checked = solver._series, []

    def compare(*args):
        got = series(*args)
        checked.append((args[3], np.array_equal(got, _per_entry_series(*args))))
        return got

    monkeypatch.setattr(solver, "_series", compare)
    for k in (0, 2, 4):
        prop.propagate(data, times, k)
    assert {k for k, _ in checked} == {0, 2, 4} and all(same for _, same in checked)


def test_anisotropic_field_is_the_stack_of_its_directions(stacks):
    """The streamed density is bit for bit numpy's mean of |field|^2 over the stacked directions."""
    from hyperdecay.stability import sample_directions

    stack, data = stacks["anisotropic_elastic_2d"], gaussian_data(4, 3)
    rho, times = default_rho_grid()[::16], np.geomspace(1e2, 1e4, 5)
    directions = sample_directions(2, False)[::4]
    _, _, first, density = _field(stack, data, times, 1, 0.0, rho)
    dvals = data.values(rho, 2)
    stacked = np.stack([RadialPropagator(stack, d, rho).propagate(dvals, times, 1) for d in directions],
                       axis=1)
    assert stacked.shape == (5, 64, len(rho))
    assert np.array_equal(density, np.mean(np.abs(stacked) ** 2, axis=1))
    assert np.array_equal(first, stacked[:, 0])


@pytest.fixture()
def propagator_grids(monkeypatch):
    """A list that gains the radial grid size of each `RadialPropagator` built during the test."""
    sizes = []
    init = RadialPropagator.__init__
    monkeypatch.setattr(RadialPropagator, "__init__",
                        lambda self, stack, d, rho: sizes.append(len(rho)) or init(self, stack, d, rho))
    return sizes


def test_a_norm_run_solves_only_the_radii_its_data_reach(stacks, propagator_grids):
    """Gaussian data underflow to exactly 0 beyond rho = 38.62, and the radii there are not solved."""
    rho, times = default_rho_grid(), np.geomspace(1e2, 1e4, 5)
    assert np.count_nonzero(gaussian_data(3, 2).values(rho, 3)[2]) == 3813
    hd.simulate(stacks["mgt"], gaussian_data(3, 2), times)
    hd.simulate(stacks["anisotropic_elastic_2d"], gaussian_data(4, 3), times,
                directions=[axis_direction(2), hd.Direction.of((1.0, 1.0))])
    assert propagator_grids == [3813] * 3


def test_the_support_slice_leaves_the_field_unchanged(stacks):
    """Zeros at the ends of the data and inside them: the field is the full-grid field, bit for bit."""
    from hyperdecay.stability import sample_directions

    stack, rho, times = stacks["mgt"], default_rho_grid(), np.geomspace(1e2, 1e4, 5)
    values = np.exp(-0.5 * (rho / 10.0) ** 2)
    values[:100] = values[-700:] = values[2000] = 0.0
    data = DataSpec((ZeroProfile(), ZeroProfile(), hd.GridProfile(tuple(values.tolist()), zero_value=0.0)))
    _, _, first, density = _field(stack, data, times, 1, 0.0)
    axis = sample_directions(3, True)[0]
    full = RadialPropagator(stack, axis, rho).propagate(data.values(rho, 3), times, 1)
    assert np.array_equal(first, full) and np.array_equal(density, np.abs(full) ** 2)
    assert not np.any(first[:, :100]) and not np.any(first[:, 2000]) and not np.any(first[:, -700:])


def test_all_zero_data_solve_no_radius(stacks, propagator_inits):
    series = hd.simulate(stacks["mgt"], DataSpec((ZeroProfile(),) * 3), np.geomspace(1.0, 10.0, 5))
    assert series.flags == ["norm underflow; series truncated", "all-zero series; slope undefined"]
    assert not propagator_inits


def test_an_empty_direction_list_is_rejected_before_any_solve(stacks, propagator_inits):
    """So are a bad s and a bad radial grid, under both `simulate` and `solution_and_gap`."""
    from hyperdecay.profiles import solution_and_gap

    times, rho = np.geomspace(1e2, 1e4, 5), default_rho_grid()
    with pytest.raises(ValueError, match="a norm run needs at least one direction"):
        hd.simulate(stacks["anisotropic_elastic_2d"], gaussian_data(4, 3), times, directions=[])
    bad = [({"s": -3.0}, r"2s \+ n > 0"), ({"s": np.inf}, "finite s"),
           ({"rho_grid": rho[::-1]}, "strictly ascending"), ({"rho_grid": [1.0]}, "two or more points")]
    for run, stack, data in ((hd.simulate, stacks["anisotropic_elastic_2d"], gaussian_data(4, 3)),
                             (solution_and_gap, stacks["mgt"], gaussian_data(3, 2))):
        for kwargs, message in bad:
            with pytest.raises(ValueError, match=message):
                run(stack, data, times, **kwargs)
    assert not propagator_inits


def test_a_norm_run_raises_at_its_first_failing_time():
    """One `_norms` call over all times raises what `sobolev_norm` raises on the first failing row."""
    rho = np.geomspace(0.1, 10, 500)
    u = np.exp(-(rho**2) / 2) * np.ones((5, 1))
    u[1] = 1.0              # the last octave carries most of the norm at time 1
    u[3, 200] = np.nan

    def message(norm, *args):
        with pytest.raises(ValueError) as err:
            norm(1, rho, *args, 0.0)
        return str(err.value)

    tail = message(solver._norms, np.abs(u) ** 2)
    assert "extend the radial grid" in tail and tail == message(sobolev_norm, u[1])
    u[1, 300] = np.nan      # a NaN is checked before the tail
    nan = message(solver._norms, np.abs(u) ** 2)
    assert f"integrand is NaN at rho = {rho[300]:.6g}" in nan and nan == message(sobolev_norm, u[1])


def test_a_field_that_overflows_is_a_named_error():
    """A stack that is not strictly stable grows until |u_hat|^2 overflows: an error, not an inf norm.

    The overflow is rejected by name, with no RuntimeWarning on the way.
    """
    with pytest.raises(ValueError, match="integrand overflows at rho = .*; the field is not finite"):
        hd.simulate(mgt_stack(b=-0.01), gaussian_data(3, 2), np.geomspace(1, 1e5, 25))


def test_simulate_traced_peak_memory(stacks):
    """One em_elastic norm run holds one (T, N) field, no full companion state and no per-entry tables.

    Traced peak: 19.8 MB when `exp_newton` returned all 5 coordinates and the
    field was a stacked list; 13.9 MB when `_series` built its Taylor tables per
    (time, row) entry and the divided-difference recurrence kept every level;
    8.8 MB with tables per row and per time and the recurrence in place, but
    the series gathered to its entries and each direction's (T, N) result
    copied into the field; 6.4 MB now, with the series contracted on (T, R)
    tables and `exp_newton` contracting each block of modes into its result.
    The bound lies between the last two.
    """
    import tracemalloc

    times = np.geomspace(1e2, 1e4, 25)
    tracemalloc.start()
    try:
        hd.simulate(stacks["em_elastic"], gaussian_data(5, 4), times, s=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5e6, peak


def test_anisotropic_simulate_traced_peak_memory(stacks):
    """A many-direction norm run holds one (T, N) density, not the (T, D, N) field.

    Traced peak on 16 directions, 25 times and the 4,096-point grid: 30.2 MB
    when every direction's complex field was kept, 8.1 MB with the
    directions streamed into the density.  The bound lies between the two.
    """
    import tracemalloc

    from hyperdecay.stability import sample_directions

    directions = sample_directions(2, False)[::16]
    times = np.geomspace(1e2, 1e4, 25)
    tracemalloc.start()
    try:
        hd.simulate(stacks["anisotropic_elastic_2d"], gaussian_data(4, 3), times, directions=directions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6, peak


def test_gaussian_profile_is_checked():
    for width in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite width > 0"):
            GaussianProfile(1.0, width)
    for amplitude in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite amplitude"):
            gaussian_data(3, 2, amplitude=amplitude)
    # a slot outside [0, m-1]; a negative one would index from the end
    for j in (-1, 3):
        with pytest.raises(ValueError, match=rf"data slot j must lie in \[0, 2\], got {j}"):
            gaussian_data(3, j)
    assert GaussianProfile(-1.0, 0.5).at_zero(1) == pytest.approx(-0.5 * np.sqrt(2.0 * np.pi))


def test_ode_residual_by_finite_differences(rng):
    """High-order local differentiation of the propagated mode satisfies the symbol ODE."""
    for _ in range(20):
        m = int(rng.integers(2, 5))
        ell = 1 if m == 2 else int(rng.integers(1, 3))
        stack = random_interlaced_stack(rng, m, ell)
        rho = 10.0 ** rng.uniform(-0.5, 0.3)
        xi = np.array([rho])
        q = full_symbol_at(stack, xi).array()
        lams = hd.roots(full_symbol_at(stack, xi))
        scale_lam = 1.0 + np.max(np.abs(lams))
        data = rng.normal(size=m) + 1j * rng.normal(size=m)
        t0 = rng.uniform(0.5, 3.0)
        h = 0.02 / scale_lam
        ts = t0 + h * np.arange(-6, 7)
        vals = np.array([hd.propagate_mode(stack, xi, data, t, 0) for t in ts])
        # local polynomial model of degree 8, differentiated at the center
        tloc = (ts - t0) / h
        fit = np.polynomial.polynomial.polyfit(tloc, vals, 8)
        derivs = []
        c = fit.copy()
        for r in range(m + 1):
            derivs.append(np.polynomial.polynomial.polyval(0.0, c) / h**r)
            c = np.polynomial.polynomial.polyder(c)
        resid = sum(q[r] * derivs[r] for r in range(m + 1))
        scale = sum(abs(q[r]) * scale_lam**r for r in range(m + 1)) * max(1.0, abs(vals[6]))
        assert abs(resid) < 1e-6 * scale


def test_sobolev_norm_gaussian():
    rho = np.geomspace(1e-4, 30, 120000)
    val = sobolev_norm(3, rho, np.exp(-(rho**2) / 2), 0.0)
    assert val == pytest.approx(np.pi**0.75, rel=1e-6)


def test_sobolev_norm_zero():
    rho = np.geomspace(1e-2, 10, 100)
    assert sobolev_norm(2, rho, np.zeros(100), 1.0) == 0.0


def test_sobolev_norm_window():
    rho = np.concatenate([np.geomspace(1e-2, 1.0, 6000), np.geomspace(1.0, 2.0, 6000)[1:],
                          np.geomspace(2.0, 100.0, 6000)[1:]])
    snap = np.where((rho >= 1.0) & (rho <= 2.0), 1.0 / rho, 0.0)
    assert sobolev_norm(1, rho, snap, 1.0) == pytest.approx(np.sqrt(2.0), abs=2e-3)
    assert solver.sphere_measure(1) == 2.0  # the two points of the 0-sphere, from the general formula


def test_sobolev_tail_check_raises():
    rho = np.geomspace(0.1, 10, 500)
    with pytest.raises(ValueError, match="extend the radial grid"):
        sobolev_norm(1, rho, np.ones(500), 0.0)


def test_sobolev_norm_rejects_a_grid_that_is_not_ascending():
    # a reversed or shuffled grid makes the trapezoid sum negative, and one of fewer than two points
    # has none; neither must read as a zero norm
    rho = np.geomspace(1e-3, 1e2, 400)
    assert sobolev_norm(3, rho, np.exp(-(rho**2)), 0.0) == pytest.approx(1.4031, abs=1e-4)
    shuffled = np.random.default_rng(0).permutation(rho)
    bad = [rho[::-1], shuffled, np.r_[rho[:10], rho[9:]], np.r_[-1.0, rho[1:]], np.r_[0.0, rho[1:]],
           np.r_[rho[:-1], np.inf], np.r_[np.nan, rho[1:]], np.stack([rho, rho]), np.array([]),
           np.array([1.0])]
    for grid in bad:
        with pytest.raises(ValueError, match="strictly ascending"):
            sobolev_norm(3, grid, np.exp(-(grid**2)), 0.0)


def test_sobolev_norm_needs_positive_2s_plus_n():
    # at 2s + n <= 0 the weight is not integrable at rho -> 0: the grid's cut would set the norm
    rho = np.geomspace(1e-4, 30, 2000)
    snap = np.exp(-(rho**2) / 2)
    for n, s in ((3, -1.5), (3, -3.0), (1, -0.5)):
        with pytest.raises(ValueError, match=f"2s \\+ n > 0, got s = {s} and n = {n}"):
            sobolev_norm(n, rho, snap, s)
    assert sobolev_norm(3, rho, snap, -1.4) > 0


def test_sobolev_norm_rejects_a_non_finite_s():
    rho = np.geomspace(1e-4, 30, 2000)
    for s in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"finite s, got {s}"):
            sobolev_norm(3, rho, np.exp(-(rho**2) / 2), s)


def test_sobolev_norm_rejects_a_nan_integrand():
    # a NaN field is an error, not an underflow to a zero norm
    rho = np.geomspace(1e-4, 30, 2000)
    snap = np.exp(-(rho**2) / 2)
    snap[700] = np.nan
    with pytest.raises(ValueError, match=f"integrand is NaN at rho = {rho[700]:.6g}"):
        sobolev_norm(3, rho, snap, 0.0)


def test_simulate_mgt_slope(stacks):
    times = np.geomspace(1e2, 1e4, 25)
    series = hd.simulate(stacks["mgt"], gaussian_data(3, 2), times, 0, 0.0)
    assert abs(series.fitted_slope + 0.25) <= 0.05


def test_simulate_matches_preset_fixtures(stacks):
    # every wired sim fixture fits its predicted slope within 0.05 (0.07 for m = 5)
    from hyperdecay.presets import PRESETS

    times = np.geomspace(1e2, 1e4, 25)
    for name in ("blackstock_crighton", "mgt_classical_damping"):
        cfg = PRESETS[name].expected["sim"]
        series = hd.simulate(stacks[name], gaussian_data(stacks[name].m, cfg["slot"]),
                             times, cfg["k"], cfg["s"])
        assert abs(series.fitted_slope - cfg["slope"]) <= cfg["tol"], name


def test_simulate_fourth_order_quarter_scale(stacks):
    times = np.geomspace(1e2, 1e4, 25)
    series = hd.simulate(stacks["fourth_order_weak"], gaussian_data(4, 3), times, 0, 1.0)
    assert abs(series.fitted_slope + 0.125) <= 0.05


def test_simulate_zero_data_flag(stacks):
    data = DataSpec(tuple([ZeroProfile()] * 3))
    series = hd.simulate(stacks["mgt"], data, np.geomspace(1.0, 10.0, 5), 0, 0.0)
    assert np.isnan(series.fitted_slope)
    assert any("all-zero" in f for f in series.flags)


def test_ring_profile_data(stacks):
    data = DataSpec((ZeroProfile(), ZeroProfile(), RingProfile(1.0, 0.2)))
    series = hd.simulate(stacks["mgt"], data, np.geomspace(1.0, 100.0, 7), 0, 0.0)
    assert np.all(series.values > 0)
    assert series.values[-1] < series.values[0]


@pytest.mark.parametrize("r0, sigma", [(1.0, 0.0), (1.0, -0.2), (float("nan"), 0.2), (float("inf"), 0.2),
                                       (1.0, float("nan")), (1.0, float("inf"))])
def test_ring_profile_is_checked(r0, sigma):
    with pytest.raises(ValueError, match=f"a ring profile needs a finite r0 and a finite sigma > 0, "
                                         f"got r0 = {r0} and sigma = {sigma}"):
        RingProfile(r0, sigma)


def test_propagate_mode_validates_data_length(stacks):
    with pytest.raises(ValueError):
        hd.propagate_mode(stacks["mgt"], np.array([0.1, 0, 0]), [1.0, 0.0], 1.0)


def test_negative_derivative_order_rejected(stacks, propagator_inits):
    """A norm run rejects k < 0 before it builds any propagator."""
    with pytest.raises(ValueError, match="k must be >= 0"):
        hd.propagate_mode(stacks["mgt"], np.array([0.5, 0, 0]), [0.0, 0.0, 1.0], 10.0, k=-1)
    for stack, data in ((stacks["mgt"], gaussian_data(3, 2)),
                        (stacks["anisotropic_elastic_2d"], gaussian_data(4, 3))):
        with pytest.raises(ValueError, match="the time-derivative order k must be >= 0, got -1"):
            hd.simulate(stack, data, np.geomspace(1.0, 10.0, 3), k=-1)
    assert not propagator_inits


def test_short_fit_window_is_flagged(stacks):
    series = hd.simulate(stacks["mgt"], gaussian_data(3, 2), np.array([1e2, 1e4]))
    assert np.isnan(series.fitted_slope)
    assert "fewer than 3 nonzero points in the fit window; slope undefined" in series.flags


def test_time_grid_is_checked(stacks):
    # the underflow cut keeps a prefix, so on data that underflow a descending
    # grid would keep 0 of these 13 points where the ascending grid keeps 8
    stack = stacks["mgt"]
    data = DataSpec((ZeroProfile(), ZeroProfile(), RingProfile(10.0, 0.2)))
    rho = np.geomspace(1e-2, 1e2, 400)
    times = np.geomspace(1e2, 1e4, 13)
    assert len(hd.simulate(stack, data, times, rho_grid=rho).values) == 8
    for bad in (np.array([]), np.full(3, np.nan), np.array([-1.0, 1.0, 10.0]), times[::-1],
                times[None, :]):
        for run in (hd.simulate, hd.solution_and_gap):
            with pytest.raises(ValueError, match="time grid must be nonempty, 1-d, finite"):
                run(stack, data, bad, rho_grid=rho)


def test_simulate_anisotropic_direction_average(stacks):
    from hyperdecay.stability import sample_directions

    stack = stacks["anisotropic_elastic_2d"]
    data = gaussian_data(4, 3)
    rho = np.geomspace(1e-3, 30.0, 700)
    times = np.geomspace(10.0, 1000.0, 5)
    dirs = sample_directions(2)[::32]  # 8 angles are enough for a smoke check
    series = hd.simulate(stack, data, times, 0, 2.0, rho_grid=rho, directions=dirs)
    assert np.all(np.diff(series.values) < 0)
    slope, _ = (series.fitted_slope, series.slope_stderr)
    assert -0.7 < slope < -0.3  # half-power family rate at k+s = 2, n = 2


def test_simulate_default_anisotropic_directions(stacks):
    # the default 2-d set is every fourth of the 256 sampled angles; every second one agrees to roundoff
    from hyperdecay.stability import sample_directions

    stack = stacks["anisotropic_elastic_2d"]
    data = gaussian_data(4, 3)
    rho = np.geomspace(1e-2, 1e1, 256)
    times = np.geomspace(10.0, 1000.0, 5)
    default = hd.simulate(stack, data, times, rho_grid=rho).values
    every_4th = hd.simulate(stack, data, times, rho_grid=rho, directions=sample_directions(2)[::4]).values
    every_2nd = hd.simulate(stack, data, times, rho_grid=rho, directions=sample_directions(2)[::2]).values
    assert np.array_equal(default, every_4th)
    np.testing.assert_allclose(default, every_2nd, rtol=1e-13, atol=0.0)


def test_grid_profile_roundtrip(stacks):
    rho = np.geomspace(1e-3, 30.0, 400)
    vals = np.exp(-(rho**2))
    data = DataSpec((ZeroProfile(), ZeroProfile(),
                     hd.GridProfile(tuple(vals.tolist()), zero_value=1.0)))
    series = hd.simulate(stacks["mgt"], data, np.array([10.0, 1000.0]), 0, 0.0, rho_grid=rho)
    assert series.values[1] < series.values[0]
    with pytest.raises(ValueError):
        hd.simulate(stacks["mgt"], data, np.array([1.0]), 0, 0.0)  # misaligned grid
