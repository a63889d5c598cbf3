import re

import numpy as np
import pytest

import hyperdecay as hd
from hyperdecay.asymptotics import (ExpansionCase, Regime, UnclassifiableExpansionError,
                                    constant_limits, match_records_to_branches)
from hyperdecay.presets import (PRESETS, anisotropic_kappas, compare_expansions,
                                damped_wave_stack, mgt_stack)
from hyperdecay.symbols import Direction, axis_direction


def test_low_fixtures_all_presets(stacks):
    for name, pm in PRESETS.items():
        if "low" not in pm.expected:
            continue
        recs = hd.low_freq_expansions(stacks[name], axis_direction(stacks[name].dim))
        ok, problems = compare_expansions(recs, pm.expected["low"])
        assert ok, (name, problems)


def test_high_fixtures_all_presets(stacks):
    for name, pm in PRESETS.items():
        if "high" not in pm.expected:
            continue
        recs = hd.high_freq_expansions(stacks[name], axis_direction(stacks[name].dim))
        ok, problems = compare_expansions(recs, pm.expected["high"])
        assert ok, (name, problems)


def test_anisotropic_fixtures_by_direction(stacks):
    pm = PRESETS["anisotropic_elastic_2d"]
    stack = stacks["anisotropic_elastic_2d"]
    for dvec in [(1.0, 0.0), (1.0 / np.sqrt(2), 1.0 / np.sqrt(2)), (0.0, 1.0)]:
        d = Direction.of(dvec)
        ok, problems = compare_expansions(hd.low_freq_expansions(stack, d), pm.expected["low_at"](dvec))
        assert ok, (dvec, problems)
        ok, problems = compare_expansions(hd.high_freq_expansions(stack, d), pm.expected["high_at"](dvec))
        assert ok, (dvec, problems)


def _kappas(records):
    """The kappa pair of a stack's one double root: the rho^(1+sigma) coefficients of its DOUBLE records."""
    pair = [r.terms[1][1] for r in records if r.case is ExpansionCase.DOUBLE]
    assert len(pair) == 2
    return pair


def test_kappa_examples(stacks):
    stack = stacks["anisotropic_elastic_2d"]
    kp, km = _kappas(hd.low_freq_expansions(stack, Direction((1.0, 0.0))))
    assert kp == pytest.approx(-1.0, abs=1e-8)
    assert km == pytest.approx(-1.0, abs=1e-8)
    d = Direction.of((1.0, 1.0))
    kp, km = _kappas(hd.low_freq_expansions(stack, d))
    ref = sorted(anisotropic_kappas(2.0, 1.0, 1.0, 0.0, d.vector()), key=lambda z: -z.real)
    assert kp == pytest.approx(ref[0], abs=1e-10)
    assert km == pytest.approx(ref[1], abs=1e-10)

    kp, km = _kappas(hd.high_freq_expansions(stacks["fourth_order_weak"], Direction((1.0,))))
    want = (-1 + 1j * np.sqrt(15)) / 8
    assert kp == pytest.approx(want, abs=1e-12)
    assert km == pytest.approx(np.conj(want), abs=1e-12)


def test_constant_limits_discriminant_split():
    # the two slow-scale limits follow the quadratic in the pure-time coefficients
    st_real = PRESETS["em_elastic_dissipative"].build()  # c1^2 > 4 c0
    assert np.allclose(sorted(z.real for z in constant_limits(st_real)), [-2.0, -1.0])
    assert all(z.imag == 0 for z in constant_limits(st_real))
    st_conj = PRESETS["fourth_order_weak"].build()  # c1^2 < 4 c0
    zs = constant_limits(st_conj)
    assert np.allclose([z.real for z in zs], [-0.5, -0.5])
    assert np.allclose(sorted(z.imag for z in zs), [-np.sqrt(3) / 2, np.sqrt(3) / 2])
    st_double = PRESETS["em_elastic"].build()  # c1^2 = 4 c0 exactly
    zs = constant_limits(st_double)
    assert zs[0] == zs[1] == -1.0
    # a depth-1 stack's one limit is -c_{m-1,0} exactly, also for leading coefficients
    # (tau = 49, 98) whose reciprocal, multiplied back, would leave c_{m,0} = 1 - eps
    depth1 = [st for st in (pm.build() for pm in PRESETS.values()) if st.ell == 1] + \
        [mgt_stack(tau=49.0), mgt_stack(tau=98.0)]
    assert len(depth1) == 4
    for st in depth1:
        assert st.pure_time_coeffs()[0] == 1.0
        assert constant_limits(st) == [-st.pure_time_coeffs()[1]]


def test_sign_invariants_low_simple(stacks):
    # strict interlacing forces a negative real quadratic coefficient
    for name in ["mgt", "blackstock_crighton", "em_elastic"]:
        recs = hd.low_freq_expansions(stacks[name], axis_direction(3))
        for r in recs:
            if r.case is ExpansionCase.SIMPLE:
                c2 = dict(r.terms)[2.0]
                assert abs(c2.imag) < 1e-12
                assert c2.real < 0


def test_sign_invariants_high_simple(stacks):
    for name in ["mgt", "blackstock_crighton", "em_elastic"]:
        recs = hd.high_freq_expansions(stacks[name], axis_direction(3))
        for r in recs:
            if r.case is ExpansionCase.SIMPLE:
                c0 = dict(r.terms)[0.0]
                assert abs(c0.imag) < 1e-12
                assert c0.real < 0


def test_double_records_negative_real(stacks):
    for name in ["em_elastic_dissipative", "anisotropic_elastic_2d"]:
        stack = stacks[name]
        recs = hd.low_freq_expansions(stack, axis_direction(stack.dim))
        for r in recs:
            if r.case is ExpansionCase.DOUBLE:
                assert dict(r.terms)[2.0].real < 0


def test_verify_expansion_mgt(stacks):
    stack = stacks["mgt"]
    d = axis_direction(3)
    bs = hd.track_branches(stack, d, np.geomspace(1e-3, 1e-1, 81))
    recs = hd.low_freq_expansions(stack, d)
    assign = match_records_to_branches(bs, recs, Regime.LOW)
    for i, rec in enumerate(recs):
        order, rel = hd.verify_expansion(bs, rec, branch_index=assign[i])
        if rec.case is ExpansionCase.SIMPLE:
            assert order >= 2.5
        assert rel < 0.05


def test_verify_expansion_damped_wave_order4():
    stack = damped_wave_stack()
    d = Direction((1.0,))
    bs = hd.track_branches(stack, d, np.geomspace(1e-3, 1e-1, 81))
    recs = hd.low_freq_expansions(stack, d)
    # lambda_+ = -rho^2 - rho^4 - ...: remainder after the rho^2 term is O(rho^4)
    i = [r.case for r in recs].index(ExpansionCase.SIMPLE)
    assign = match_records_to_branches(bs, recs, Regime.LOW)
    order, _ = hd.verify_expansion(bs, recs[i], branch_index=assign[i])
    assert order == pytest.approx(4.0, abs=0.15)


def test_verify_expansion_exact_branch_flag(stacks):
    # the conducting-field stack carries one branch that solves exactly
    stack = stacks["em_elastic"]
    d = axis_direction(3)
    bs = hd.track_branches(stack, d, np.geomspace(1e-3, 1e-1, 81))
    recs = hd.low_freq_expansions(stack, d)
    assign = match_records_to_branches(bs, recs, Regime.LOW)
    orders = []
    for i, rec in enumerate(recs):
        if rec.case is ExpansionCase.CONSTANT:
            order, rel = hd.verify_expansion(bs, rec, branch_index=assign[i])
            orders.append(order)
    assert np.isinf(max(orders))
    assert min(orders) == pytest.approx(2.0, abs=0.1)


def test_unclassifiable_configurations_rejected():
    from hyperdecay.symbols import HomogeneousSymbol, OperatorStack

    # healthy double anchor root away from the leading roots
    p4 = HomogeneousSymbol.isotropic(4, 1, {4: 1.0, 2: -5.0, 0: 4.0})
    p3 = HomogeneousSymbol.isotropic(3, 1, {3: 1.0, 1: -2.25})
    p2_double = HomogeneousSymbol.isotropic(2, 1, {2: 1.0})
    stack = OperatorStack.build([p4, p3, p2_double])
    recs = hd.low_freq_expansions(stack, axis_direction(1))
    assert sum(r.case is ExpansionCase.DOUBLE for r in recs) == 2
    # a triple coincidence (the double anchor also kills the leading symbol)
    p4_shared = HomogeneousSymbol.isotropic(4, 1, {4: 1.0, 2: -1.0})
    stack_triple = OperatorStack.build([p4_shared, p3, p2_double])
    with pytest.raises(UnclassifiableExpansionError):
        hd.low_freq_expansions(stack_triple, axis_direction(1))
    # multiplicity three in the anchor symbol
    p5 = HomogeneousSymbol.isotropic(5, 1, {5: 1.0, 3: -1.0})
    p4b = HomogeneousSymbol.isotropic(4, 1, {4: 1.0, 2: -1.0})
    p3_triple = HomogeneousSymbol.isotropic(3, 1, {3: 1.0})
    stack3 = OperatorStack.build([p5, p4b, p3_triple])
    with pytest.raises(UnclassifiableExpansionError):
        hd.low_freq_expansions(stack3, axis_direction(1))
    # a shared or double anchor at depth 1, and a double anchor with no middle root in reach
    p3_cubic = HomogeneousSymbol.isotropic(3, 1, {3: 1.0, 1: -1.0})
    p3_far = HomogeneousSymbol(3, 1, {(3, (0,)): 1.0, (1, (2,)): -7.0, (0, (3,)): 6.0})   # roots 1, 2, -3
    for expansions, symbols, message in [
            (hd.low_freq_expansions, [p3_cubic, HomogeneousSymbol.isotropic(2, 1, {2: 1.0, 0: -1.0})],
             "root -1.0 shared with the next symbol is only handled at depth 2 (stack depth 1)"),
            (hd.low_freq_expansions, [p3_cubic, p2_double],
             "double root 0.0 of the lowest symbol is only handled at depth 2"),
            (hd.high_freq_expansions, [p4_shared, HomogeneousSymbol.isotropic(3, 1, {3: 1.0, 1: -2.0})],
             "double root 0.0 of the leading symbol needs a depth-2 stack "
             "(otherwise the stack is not strictly stable)"),
            (hd.low_freq_expansions, [p4, p3_far, p2_double],
             "double root 0.0 is not matched by a middle-symbol root (distance 1.0")]:
        with pytest.raises(UnclassifiableExpansionError, match=re.escape(message)):
            expansions(OperatorStack.build(symbols), axis_direction(1))


def test_a_near_double_anchor_is_read_at_its_midpoint():
    """A double within root_match_rtol is one anchor: its head, deleted-root product and
    kappa pair are all read at the pair's midpoint, so it gives the exact double's records."""
    from hyperdecay.symbols import HomogeneousSymbol, OperatorStack

    p4 = HomogeneousSymbol.isotropic(4, 1, {4: 1.0, 2: -5.0, 0: 4.0})
    p3 = HomogeneousSymbol.isotropic(3, 1, {3: 1.0, 1: -2.25})
    eps = 3e-8
    doubles = [[r for r in hd.low_freq_expansions(OperatorStack.build([p4, p3, p2]), axis_direction(1))
                if r.case is ExpansionCase.DOUBLE]
               for p2 in (HomogeneousSymbol.isotropic(2, 1, {2: 1.0, 0: -eps**2}),
                          HomogeneousSymbol.isotropic(2, 1, {2: 1.0}))]
    assert doubles[0] == doubles[1]
    assert [r.terms for r in doubles[1]] == [((1.0, 0j), (2.0, -1.125 + 1.653594569415369j)),
                                            ((1.0, 0j), (2.0, -1.125 - 1.653594569415369j))]


def test_shared_simple_margin_recorded(stacks):
    recs = hd.low_freq_expansions(stacks["fourth_order_weak"], axis_direction(1))
    shared = [r for r in recs if r.case is ExpansionCase.SHARED_SIMPLE]
    assert shared and all(r.classification_margin < 1e-9 for r in shared)


def test_scenario_flags_agree_with_the_axis_expansion_cases(stacks):
    """The flags and the expansion cases read one classifier of anchor roots:
    on every preset a double (shared simple) root of P_m in the high-frequency
    records goes with DERIVATIVE_LOSS (REG_LOSS_DECAY), and at depth 2 one of
    P_{m-2} in the low-frequency records with DECAY_LOSS (SLOW_LOW)."""
    seen = set()
    for name, stack in stacks.items():
        flags = hd.classify_stack(stack).scenario_flags
        seen |= flags
        d = axis_direction(stack.dim)
        pairs = [(hd.high_freq_expansions, "DERIVATIVE_LOSS", "REG_LOSS_DECAY")]
        if stack.ell == 2:
            pairs.append((hd.low_freq_expansions, "DECAY_LOSS", "SLOW_LOW"))
        for expansions, double_flag, shared_flag in pairs:
            cases = {r.case for r in expansions(stack, d)}
            assert (ExpansionCase.DOUBLE in cases) == (double_flag in flags), (name, double_flag)
            assert (ExpansionCase.SHARED_SIMPLE in cases) == (shared_flag in flags), (name, shared_flag)
    assert seen == {"DERIVATIVE_LOSS", "REG_LOSS_DECAY", "DECAY_LOSS", "SLOW_LOW"}
