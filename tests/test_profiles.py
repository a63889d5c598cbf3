import numpy as np
import pytest

import hyperdecay as hd
from hyperdecay.presets import PRESETS
from hyperdecay.profiles import ProfileKind, build_profile, moment, profile_gap_series, solution_and_gap
from hyperdecay.solver import DataSpec, GaussianProfile, ZeroProfile, gaussian_data
from hyperdecay.symbols import Direction, HomogeneousSymbol, OperatorStack, axis_direction


def test_moment_mgt_gaussian(stacks):
    data = gaussian_data(3, 2)
    assert moment(data, stacks["mgt"]) == pytest.approx((2 * np.pi) ** 1.5, rel=1e-12)


def test_moment_cancellation(stacks):
    data = DataSpec((ZeroProfile(), GaussianProfile(-1.0, 1.0), GaussianProfile(1.0, 1.0)))
    assert moment(data, stacks["mgt"]) == pytest.approx(0.0, abs=1e-14)


def test_moment_respects_time_normalization():
    # M tau = integral of (tau u_2 + u_1) for the third-order acoustic model
    from hyperdecay.presets import mgt_stack

    tau = 2.0
    stack = mgt_stack(tau=tau)
    data = DataSpec((ZeroProfile(), GaussianProfile(0.5, 1.0), GaussianProfile(1.0, 1.0)))
    u2_0 = (2 * np.pi) ** 1.5
    u1_0 = 0.5 * (2 * np.pi) ** 1.5
    assert moment(data, stack) * tau == pytest.approx(tau * u2_0 + u1_0, rel=1e-12)


def test_moment_depth3(stacks):
    stack = stacks["example_ell3"]
    data = DataSpec((GaussianProfile(1.0, 1.0),) * 4)
    g0 = (2 * np.pi) ** 1.5
    want = g0 * (1.0 + 1.0 + 2.0 + 1.0)  # 1*u3 + c3*u2 + c2*u1 + c1*u0
    assert moment(data, stack) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", ["mgt", "blackstock_crighton", "em_elastic",
                                  "em_elastic_dissipative", "fourth_order_weak",
                                  "mgt_classical_damping", "example_ell3"])
def test_profile_matches_closed_form(name, stacks, rng):
    spec = build_profile(stacks[name], M=1.0)
    cf = PRESETS[name].expected["profile"]
    ts = rng.uniform(0.5, 50.0, 100)
    rs = rng.uniform(0.01, 2.0, 100)
    for t, r in zip(ts, rs):
        a = spec.fourier_value(t, r)
        b = cf(t, r)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b)), (name, t, r)


def test_profile_kinds(stacks):
    for name, kind in [("mgt", ProfileKind.V), ("em_elastic", ProfileKind.W),
                       ("em_elastic_dissipative", ProfileKind.V_WEAK),
                       ("fourth_order_weak", ProfileKind.W_WEAK)]:
        stack = stacks[name]
        spec = build_profile(stack, 1.0)
        assert spec.kind is kind, name
        # every term runs at the rate of one low-frequency record
        rates = {rec.terms for rec in hd.low_freq_expansions(stack, axis_direction(stack.dim))}
        assert spec.terms and all(term.rate_terms in rates for term in spec.terms), name


def test_profile_riesz_orders(stacks):
    assert build_profile(stacks["mgt"], 1.0).riesz_order == 1
    assert build_profile(stacks["blackstock_crighton"], 1.0).riesz_order == 2
    assert build_profile(stacks["em_elastic"], 1.0).riesz_order == 2
    assert build_profile(stacks["em_elastic_dissipative"], 1.0).riesz_order == 2
    assert build_profile(stacks["fourth_order_weak"], 1.0).riesz_order == 1
    assert build_profile(stacks["mgt_classical_damping"], 1.0).riesz_order == 0


def test_zero_moment_profile_vanishes(stacks):
    spec = build_profile(stacks["mgt"], M=0.0)
    assert spec.fourier_value(3.0, 0.1) == 0.0


def test_split_pair_requires_distinct_rates():
    from hyperdecay.presets import em_elastic_dissipative_stack

    # mu sigma = a c^2 collapses the split pair
    stack = em_elastic_dissipative_stack(a=1.0, sigma=1.0, mu=1.0, c=1.0)
    with pytest.raises(ValueError, match="distinct"):
        build_profile(stack, 1.0)


def test_gap_equals_solution_for_zero_profile(stacks):
    data = DataSpec((ZeroProfile(), GaussianProfile(-1.0, 1.0), GaussianProfile(1.0, 1.0)))
    assert moment(data, stacks["mgt"]) == pytest.approx(0.0, abs=1e-13)
    times = np.geomspace(10.0, 100.0, 5)
    rho = np.geomspace(1e-4, 50.0, 1200)
    gap = profile_gap_series(stacks["mgt"], data, times, 0, 0.0, rho_grid=rho)
    sol = hd.simulate(stacks["mgt"], data, times, 0, 0.0, rho_grid=rho)
    assert np.allclose(gap.values, sol.values, rtol=1e-12)


def test_solution_and_gap_reads_one_field(stacks, propagator_inits):
    """The solution series is `simulate`'s, the gap series `profile_gap_series`'s."""
    stack, data = stacks["blackstock_crighton"], gaussian_data(4, 3)
    times = np.geomspace(1e2, 1e4, 9)
    sol, gap = solution_and_gap(stack, data, times, 1, 1.0)
    assert len(propagator_inits) == 1
    want_sol = hd.simulate(stack, data, times, 1, 1.0)
    want_gap = profile_gap_series(stack, data, times, 1, 1.0)
    assert np.array_equal(sol.values, want_sol.values) and sol.to_dict() == want_sol.to_dict()
    assert np.array_equal(gap.values, want_gap.values) and gap.to_dict() == want_gap.to_dict()


def test_solution_and_gap_runs_a_1d_stack_along_both_directions(propagator_inits):
    """A 1-d stack that is not isotropic runs along +1 and -1, as in `simulate`."""
    p2 = HomogeneousSymbol(2, 1, {(2, (0,)): 1.0, (1, (1,)): 0.5, (0, (2,)): -1.0})
    p1 = HomogeneousSymbol(1, 1, {(1, (0,)): 1.0, (0, (1,)): 0.1})
    stack = OperatorStack.build([p2, p1])
    report = hd.classify_stack(stack)
    assert not stack.isotropic and report.strictly_stable and report.n_directions == 2
    data, times = gaussian_data(2, 1), np.geomspace(1e2, 1e4, 25)
    sol, gap = solution_and_gap(stack, data, times)
    assert len(propagator_inits) == 2
    both = hd.simulate(stack, data, times, directions=[Direction((1.0,)), Direction((-1.0,))])
    assert np.array_equal(sol.values, hd.simulate(stack, data, times).values)
    assert np.array_equal(sol.values, both.values)
    # the n = 1 strict rate -1/4, and the profile's half power better
    assert abs(sol.fitted_slope + 0.25) <= 0.01 and abs(gap.fitted_slope + 0.75) <= 0.01


def test_gap_series_checks_the_slot_count(stacks):
    with pytest.raises(ValueError, match="data has 4 slots, stack needs 3"):
        profile_gap_series(stacks["mgt"], gaussian_data(4, 3), np.geomspace(1.0, 10.0, 3))


def test_unstable_stack_gap_is_one_named_error():
    # b < 0 grows the solution and the profile alike: the gap overflows, and the caller
    # sees the norm's named error, not RuntimeWarnings from forming the gap
    from hyperdecay.presets import mgt_stack

    with pytest.raises(ValueError, match="the s-norm integrand overflows at rho = "):
        solution_and_gap(mgt_stack(b=-0.01), gaussian_data(3, 2), np.geomspace(1.0, 1e5, 25))


def test_profile_value_rejects_zero_frequency(stacks):
    spec = build_profile(stacks["mgt"], 1.0)
    with pytest.raises(ValueError):
        spec.fourier_value(1.0, 0.0)


def test_time_derivatives_act_termwise(stacks):
    spec = build_profile(stacks["mgt"], 1.0)
    r, t, h = 0.3, 5.0, 1e-5
    fd = (spec.fourier_value(t + h, r) - spec.fourier_value(t - h, r)) / (2 * h)
    an = spec.fourier_value(t, r, k=1)
    assert abs(fd - an) < 1e-7 * (1 + abs(an))


def test_weak_profile_gap_improvements(stacks):
    """The quartic-phase and split-pair profiles absorb the leading term too."""
    times = np.geomspace(1e2, 1e4, 17)
    st4 = stacks["fourth_order_weak"]
    d4 = gaussian_data(4, 3)
    sol = hd.simulate(st4, d4, times, 0, 1.0)
    gap = profile_gap_series(st4, d4, times, 0, 1.0)
    assert gap.fitted_slope - sol.fitted_slope <= -0.15  # quarter-scale gain

    std = stacks["em_elastic_dissipative"]
    dd = gaussian_data(4, 3)
    sol = hd.simulate(std, dd, times, 0, 1.0)
    gap = profile_gap_series(std, dd, times, 0, 1.0)
    assert gap.fitted_slope - sol.fitted_slope <= -0.35


def test_diffusion_phenomenon_preset(stacks):
    """With a first-order lowest symbol the profile is a heat kernel: every
    extra time derivative buys a full extra power of decay."""
    stack = stacks["mgt_classical_damping"]
    times = np.geomspace(1e2, 1e4, 17)
    data = gaussian_data(3, 2)
    s0 = hd.simulate(stack, data, times, 0, 0.0)
    s1 = hd.simulate(stack, data, times, 1, 0.0)
    assert s1.fitted_slope == pytest.approx(s0.fitted_slope - 1.0, abs=0.1)
    g1 = profile_gap_series(stack, data, times, 1, 0.0)
    assert g1.fitted_slope - s1.fitted_slope <= -0.35


def test_profile_gap_traced_peak_memory(stacks):
    """One mgt gap run holds the solution field and one (T, N) gap array, formed in place.

    Traced peak: 7.2 MB when the series gathered to its entries, each direction's
    result was copied into the field and the gap was a stacked profile list
    minus the field; 4.9 MB now.  The bound lies between the two.  A first call
    runs before the traced one: its slope fits load numpy submodules (about
    1.4 MB), which the bound does not cover.
    """
    import tracemalloc

    times = np.geomspace(1e2, 1e4, 25)
    profile_gap_series(stacks["mgt"], gaussian_data(3, 2), times)
    tracemalloc.start()
    try:
        profile_gap_series(stacks["mgt"], gaussian_data(3, 2), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0e6, peak
