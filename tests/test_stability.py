import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperdecay as hd
from hyperdecay import (Hyperbolicity, Interlacing, classify_interlacing, classify_stack,
                        hermite_biehler_stable, sample_directions, stable_Q1, verify_hypothesis_Q2)
from hyperdecay.presets import (blackstock_crighton_stack, damped_wave_stack,
                                em_elastic_stack, example_ell3_stack,
                                example_ell3_stable_predicate, mgt_stack)
from hyperdecay.rootkit import NonRealRootsError
from hyperdecay.stability import _hyperbolicity
from hyperdecay.symbols import HomogeneousSymbol, OperatorStack, UnivariatePoly, axis_direction
from hyperdecay.tolerances import TOL
from tests.oracles import abscissa_verdict, routh_hurwitz_cubic


def test_hyperbolicity_examples():
    d3 = np.array([d.components for d in sample_directions(3, isotropic=True)])
    assert _hyperbolicity(mgt_stack().symbols[0], d3)[0] is Hyperbolicity.STRICT
    weak = HomogeneousSymbol.isotropic(2, 3, {2: 2.0})
    assert _hyperbolicity(weak, d3)[0] is Hyperbolicity.WEAK
    elliptic = HomogeneousSymbol.isotropic(2, 3, {2: 1.0, 0: 1.0})
    assert _hyperbolicity(elliptic, d3)[0] is Hyperbolicity.NONE


def test_interlacing_examples():
    strict = classify_interlacing(UnivariatePoly.of([0.0, 1.0]), UnivariatePoly.of([-1.0, 0.0, 1.0]))
    assert strict.klass is Interlacing.STRICT
    # shared outer roots at b = 0
    stack0 = mgt_stack(b=0.0)
    d = axis_direction(3)
    weak = classify_interlacing(stack0.symbols[1].restrict(d), stack0.symbols[0].restrict(d))
    assert weak.klass is Interlacing.WEAK
    bc = blackstock_crighton_stack(b=1.0)
    strict2 = classify_interlacing(bc.symbols[1].restrict(d), bc.symbols[0].restrict(d))
    assert strict2.klass is Interlacing.STRICT
    with pytest.raises(ValueError):
        classify_interlacing(UnivariatePoly.of([0.0, 1.0]), UnivariatePoly.of([0, 0, 0, 1.0]))
    with pytest.raises(NonRealRootsError):
        classify_interlacing(UnivariatePoly.of([0.0, 1.0]), UnivariatePoly.of([1.0, 0.0, 1.0]))


def test_stable_q1_examples():
    assert stable_Q1(mgt_stack(b=1.0)).strictly_stable
    assert not stable_Q1(mgt_stack(b=0.0)).strictly_stable
    assert stable_Q1(damped_wave_stack()).strictly_stable


def test_hypothesis_q2_examples(stacks):
    rep = classify_stack(stacks["em_elastic"])
    assert rep.strictly_stable
    assert rep.interlacing_upper.klass is Interlacing.STRICT
    assert rep.interlacing_lower.klass is Interlacing.STRICT

    rep = classify_stack(stacks["em_elastic_dissipative"])
    assert rep.strictly_stable
    assert "DECAY_LOSS" in rep.scenario_flags

    gamma0 = em_elastic_stack(gamma=0.0)
    rep0 = verify_hypothesis_Q2(gamma0)
    assert not rep0.strictly_stable
    assert rep0.interlacing_lower.klass is not Interlacing.STRICT
    ok, worst = abscissa_verdict(gamma0)
    assert not ok and worst > -1e-6


def test_verdict_depth_checks_and_zero_tolerances(stacks, monkeypatch):
    """The depth-named verdicts are `classify_stack` behind a depth check, and a
    tolerance set to 0 leaves every verdict computable."""
    for name, right, wrong, message in [("mgt", stable_Q1, verify_hypothesis_Q2, "ell = 2, got 1"),
                                        ("em_elastic", verify_hypothesis_Q2, stable_Q1, "ell = 1, got 2")]:
        assert right(stacks[name]).to_dict() == classify_stack(stacks[name]).to_dict()
        with pytest.raises(ValueError, match=message):
            wrong(stacks[name])
    with pytest.raises(ValueError, match="stack depth 0"):
        classify_stack(OperatorStack.build([HomogeneousSymbol.isotropic(2, 1, {2: 1.0})]))
    monkeypatch.setattr(TOL, "interlace_margin_rtol", 0.0)
    monkeypatch.setattr(TOL, "triple_root_rtol", 0.0)
    for name in ("mgt", "em_elastic", "example_ell3"):
        rep = classify_stack(stacks[name])
        assert rep.strictly_stable and not rep.inconclusive


def test_scenario_flags(stacks):
    assert classify_stack(stacks["mgt_classical_damping"]).scenario_flags == {"REG_LOSS_DECAY"}
    assert classify_stack(stacks["fourth_order_weak"]).scenario_flags == {"SLOW_LOW", "DERIVATIVE_LOSS"}
    assert classify_stack(stacks["anisotropic_elastic_2d"]).scenario_flags == {"DECAY_LOSS"}
    assert classify_stack(stacks["mgt"]).scenario_flags == set()


def test_hermite_biehler_examples(stacks):
    st3 = example_ell3_stack(a=2.0, b=1.0, c1=1.0, c2=2.0, c3=1.0)
    assert hermite_biehler_stable(st3, np.array([0.5, 0.0, 0.0]))
    st3bad = example_ell3_stack(a=2.0, b=1.0, c1=3.0, c2=2.0, c3=1.5)  # c1 = c2*c3
    assert not hermite_biehler_stable(st3bad, np.array([0.5, 0.0, 0.0]))
    # depth-1 reduction agrees with the direct abscissa
    assert hermite_biehler_stable(stacks["mgt"], np.array([1.0, 0.0, 0.0]))
    assert hd.spectral_abscissa(stacks["mgt"], np.array([1.0, 0.0, 0.0])) < 0


def test_hermite_biehler_report_anisotropic_depth3():
    """example_ell3 in 2-d with P_{m-2} = c2 (lambda^2 - xi_x^2 - 3.5 xi_y^2): the
    report's witness is a direction index (its rows run direction-major), and
    the one-point test agrees with it and with the spectral abscissa."""
    base = example_ell3_stack(a=2.0, c1=1.0, c2=2.0, c3=1.0, dim=2)
    p2 = HomogeneousSymbol(2, 2, {(2, (0, 0)): 2.0, (0, (2, 0)): -2.0, (0, (0, 2)): -7.0})
    stack = OperatorStack.build([base.symbols[0], base.symbols[1], p2, base.symbols[3]])
    rep = classify_stack(stack)
    assert rep.n_directions == 256 and not rep.strictly_stable
    assert rep.interlacing_upper.klass is Interlacing.FAIL
    assert rep.interlacing_upper.witness[0] == 28
    dirs = sample_directions(2)
    bad, good = 10.0 * dirs[28].vector(), 10.0 * dirs[0].vector()
    assert not hermite_biehler_stable(stack, bad) and hd.spectral_abscissa(stack, bad) > 0
    assert hermite_biehler_stable(stack, good) and hd.spectral_abscissa(stack, good) < 0
    with pytest.raises(ValueError):
        hermite_biehler_stable(stack, np.zeros(2))


def test_classify_anisotropic_3d_on_the_fibonacci_lattice():
    # P_2 = lambda^2 - xi_1^2 - 2 xi_2^2 - 3 xi_3^2 over P_1 = lambda: no preset is 3-d and anisotropic
    p2 = HomogeneousSymbol(2, 3, {(2, (0, 0, 0)): 1.0, (0, (2, 0, 0)): -1.0, (0, (0, 2, 0)): -2.0,
                                  (0, (0, 0, 2)): -3.0})
    stack = OperatorStack.build([p2, HomogeneousSymbol(1, 3, {(1, (0, 0, 0)): 1.0})])
    assert not stack.isotropic
    rep = classify_stack(stack)
    direct, _ = abscissa_verdict(stack)
    assert rep.n_directions == 512
    assert rep.strictly_stable and direct


def test_hermite_biehler_agrees_with_abscissa_on_presets(stacks):
    for name in ["mgt", "blackstock_crighton", "em_elastic", "mgt_classical_damping"]:
        stack = stacks[name]
        for rho in [0.03, 0.7, 11.0]:
            xi = np.zeros(stack.dim)
            xi[0] = rho
            hb = hermite_biehler_stable(stack, xi)
            assert hb == (hd.spectral_abscissa(stack, xi) < 0)


def test_routh_hurwitz():
    assert routh_hurwitz_cubic(2.0, 3.0, 1.0)
    zs = hd.roots(UnivariatePoly.of([1.0, 3.0, 2.0, 1.0]))
    assert np.max(zs.real) < 0
    assert not routh_hurwitz_cubic(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        routh_hurwitz_cubic(-1.0, 1.0, 1.0)
    # third-order acoustic reduction: stability iff the viscosity is positive
    for a, b, rho in [(1.0, 0.5, 0.7), (2.0, 1.0, 1.3), (1.0, -0.5, 0.7)]:
        stable = routh_hurwitz_cubic((a + b) * rho**2, rho**2, a * rho**4)
        assert stable == (b > 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-4, 4), min_size=3, max_size=6, unique=True))
def test_derivative_interlaces_strictly(rts):
    rts = sorted(rts)
    if min(np.diff(rts)) < 1e-3:
        return
    p = UnivariatePoly.of(np.polynomial.polynomial.polyfromroots(rts))
    cls = classify_interlacing(UnivariatePoly.of(np.polynomial.polynomial.polyder(p.array())), p)
    assert cls.klass is Interlacing.STRICT


# ---------------------------------------------------------------------------
# randomized cross-validation helpers (shared with the acceptance suite)


def build_stack_from_roots(root_sets, leadings):
    """1-d stack whose restrictions have the prescribed real roots."""
    symbols = []
    for rts, c0 in zip(root_sets, leadings):
        coeffs = np.polynomial.polynomial.polyfromroots(rts) * c0
        order = len(rts)
        table = {}
        for i, ci in enumerate(coeffs):
            # coefficient of lambda^i belongs with xi^(order-i)
            table[(i, (order - i,))] = float(ci)
        symbols.append(HomogeneousSymbol(order, 1, table))
    return OperatorStack.build(symbols)


def random_interlaced_stack(rng, m, ell):
    while True:
        a = np.sort(rng.uniform(-3, 3, m))
        if m == 1 or np.min(np.diff(a)) > 0.3:
            break
    sets = [a]
    prev = a
    for _ in range(ell):
        frac = rng.uniform(0.15, 0.85, len(prev) - 1)
        nxt = prev[:-1] + frac * np.diff(prev)
        sets.append(nxt)
        prev = nxt
    leadings = [1.0] + [float(rng.uniform(0.3, 2.0)) for _ in range(ell)]
    return build_stack_from_roots(sets, leadings)


def break_interlacing(rng, stack):
    """Move one root of a lower symbol decisively outside its bracket."""
    d = axis_direction(1)
    level = 1 if stack.ell == 1 else int(rng.integers(1, 3))
    sets = [np.sort(hd.roots(s.restrict(d)).real) for s in stack.symbols]
    upper = sets[level - 1]
    target = sets[level].copy()
    i = int(rng.integers(0, len(target)))
    # push the root well past the upper bracket end
    span = upper[-1] - upper[0] + 1.0
    target[i] = upper[-1] + 0.3 + 0.2 * span * rng.uniform()
    sets[level] = np.sort(target)
    leadings = [s.pure_time_coeff for s in stack.symbols]
    leadings = [ld / leadings[0] for ld in leadings]
    return build_stack_from_roots(sets, leadings)


def interlacing_route_verdict(stack):
    return classify_stack(stack)


def test_cross_validation_random_stacks(rng):
    mismatches = []
    n_stable = n_unstable = 0
    for trial in range(200):
        m = int(rng.integers(2, 6))
        ell = 1 if m == 2 else int(rng.integers(1, 3))
        stack = random_interlaced_stack(rng, m, ell)
        make_unstable = trial % 2 == 1
        if make_unstable:
            stack = break_interlacing(rng, stack)
            n_unstable += 1
        else:
            n_stable += 1
        report = interlacing_route_verdict(stack)
        direct, worst = abscissa_verdict(stack)
        if report.strictly_stable != direct:
            margin_scale = abs(report.min_margin)
            mismatches.append((trial, report.strictly_stable, direct, worst, margin_scale))
    excused = [x for x in mismatches if x[4] < 10 * TOL.interlace_margin_rtol]
    assert len(mismatches) == len(excused), f"unexcused mismatches: {mismatches[:5]}"
    assert n_stable and n_unstable


def test_example_ell3_predicate_route():
    for c1 in [0.5, 2.0, 3.5]:
        for b in [0.5, 1.5]:
            stack = example_ell3_stack(a=2.0, b=b, c1=c1, c2=2.0, c3=1.5)
            want = example_ell3_stable_predicate(a=2.0, b=b, c1=c1, c2=2.0, c3=1.5)
            got = classify_stack(stack).strictly_stable
            assert got == want, (c1, b)


def test_classify_solves_each_symbol_once(stacks, monkeypatch):
    from hyperdecay import rootkit, stability

    rows = []
    solve = rootkit.roots_batch

    def counting(coeffs):
        rows.append(len(coeffs))
        return solve(coeffs)

    monkeypatch.setattr(rootkit, "roots_batch", counting)
    monkeypatch.setattr(stability, "roots_batch", counting, raising=False)
    stack = stacks["anisotropic_elastic_2d"]
    rep = classify_stack(stack)
    solved = [s for s in stack.symbols if not s.is_zero and s.order >= 1]
    assert rows == [rep.n_directions] * len(solved)


def test_lower_interlacing_witness_is_first_failing_direction():
    # restrictions: lambda^3 - 4 lambda (roots 0, +-2), lambda^2 - 1 (+-1), and
    # lambda - 2 sin(theta), which leaves (-1, 1) where |sin(theta)| > 1/2
    top = HomogeneousSymbol(3, 2, {(3, (0, 0)): 1.0, (1, (2, 0)): -4.0, (1, (0, 2)): -4.0})
    mid = HomogeneousSymbol(2, 2, {(2, (0, 0)): 1.0, (0, (2, 0)): -1.0, (0, (0, 2)): -1.0})
    low = HomogeneousSymbol(1, 2, {(1, (0, 0)): 1.0, (0, (0, 1)): -2.0})
    rep = classify_stack(OperatorStack.build([top, mid, low]))
    sines = np.sin(2.0 * np.pi * np.arange(256) / 256.0)
    failing = np.flatnonzero(np.abs(2.0 * sines) > 1.0)
    assert 0 < len(failing) < 256
    first = int(failing[0])
    assert rep.interlacing_upper.klass is Interlacing.STRICT
    assert rep.interlacing_lower.klass is Interlacing.FAIL
    assert rep.interlacing_lower.witness[:2] == (first, "lam[1]-b[0]")
    assert rep.interlacing_lower.witness[2] == pytest.approx(1.0 - 2.0 * sines[first], rel=1e-9)
    assert not rep.strictly_stable
