import numpy as np
import pytest

import hyperdecay as hd
from hyperdecay.stability import StabilityReport


def _report(m, flags=(), ell=2):
    return StabilityReport(ell=ell, m=m, hyperbolicity={}, interlacing_upper=None,
                           interlacing_lower=None, no_common_triple_root=True, triple_witness=None,
                           strictly_stable=True, scenario_flags=frozenset(flags), min_margin=1.0,
                           n_directions=1)


def test_predict_mgt_example(stacks):
    rep = hd.classify_stack(stacks["mgt"])
    pred = hd.predict_decay(rep, 3, 1.0, 0, 0.0)
    assert pred.exponent == pytest.approx(-0.25)
    assert pred.constraint_ok
    assert pred.regime_note == "estQ1"


def test_predict_em_elastic_example(stacks):
    rep = hd.classify_stack(stacks["em_elastic"])
    for k, s in [(0, 2.0), (1, 1.0), (2, 0.0)]:
        pred = hd.predict_decay(rep, 3, 1.0, k, s)
        assert pred.exponent == pytest.approx(-0.75 - (k + s - 2) / 2)


def test_predict_worst_case_min_form():
    rep = _report(4, ("SLOW_LOW", "DECAY_LOSS"))
    pred = hd.predict_decay(rep, 3, 1.0, 1, 1.0)
    assert pred.exponent == pytest.approx(-0.625)
    assert pred.regime_note == "estQ2worst"
    slow = hd.predict_decay(_report(4, ("SLOW_LOW",)), 3, 1.0, 1, 1.0)
    strong = hd.predict_decay(_report(4, ("DECAY_LOSS",)), 3, 1.0, 1, 1.0)
    assert slow.regime_note == "estQ2strict"
    assert strong.regime_note == "estQ2strong"
    # the min form equals the slower of the two one-flag branches, tuple by tuple
    for m in (3, 4, 5):
        for n in (1, 2, 3):
            for q in (1.0, 1.5, 2.0):
                for ks in (0, 1, 2, 3):
                    both = hd.predict_decay(_report(m, ("SLOW_LOW", "DECAY_LOSS")), n, q, ks, 0.0)
                    a = hd.predict_decay(_report(m, ("SLOW_LOW",)), n, q, ks, 0.0)
                    b = hd.predict_decay(_report(m, ("DECAY_LOSS",)), n, q, ks, 0.0)
                    assert both.exponent == pytest.approx(max(a.exponent, b.exponent))


def test_predict_constraint_violation_reported():
    rep = _report(4, ell=1)
    pred = hd.predict_decay(rep, 1, 2.0, 0, 0.0)
    assert not pred.constraint_ok
    assert "k+s" in pred.violated_constraint
    assert np.isfinite(pred.exponent)


def test_predict_regularity_loss_branches():
    pred = hd.predict_decay(_report(3, ("REG_LOSS_DECAY",)), 3, 1.0, 0, 0.0)
    assert pred.regularity_loss == 2.0
    assert "estQ2loss" in pred.regime_note
    pred2 = hd.predict_decay(_report(4, ("DERIVATIVE_LOSS",)), 3, 1.0, 0, 0.0, nu=0.5)
    assert pred2.regularity_loss >= 1.0  # forced up


def test_predict_moment_zero_shift():
    base = hd.predict_decay(_report(3, ell=1), 3, 1.0, 0, 0.0)
    improved = hd.predict_decay(_report(3, ell=1), 3, 1.0, 0, 0.0, moment_zero=True)
    assert improved.exponent == pytest.approx(-0.75)
    assert improved.exponent < base.exponent
    # no shift away from q = 1
    same = hd.predict_decay(_report(3, ell=1), 3, 2.0, 1, 0.0, moment_zero=True)
    assert "M0" not in same.regime_note


def test_per_datum_exponents_and_data_present():
    pred = hd.predict_decay(_report(4), 3, 1.0, 1, 1.0)
    assert len(pred.per_datum_exponents) == 4
    # overall exponent tracks the slowest-decaying datum; lower data decay faster
    assert pred.exponent == pytest.approx(max(pred.per_datum_exponents))
    assert pred.per_datum_exponents[0] < pred.per_datum_exponents[3]


def test_predict_rejects_depth_3():
    with pytest.raises(ValueError, match="got depth 3"):
        hd.predict_decay(_report(4, ell=3), 3, 1.0, 0, 0.0)


def test_predict_rejects_impossible_inputs():
    rep = _report(4, ("DERIVATIVE_LOSS",))
    for n in (0, -2, 0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="dimension n must be finite and >= 1"):
            hd.predict_decay(rep, n, 1.0, 0, 0.0)
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^s must be finite"):
            hd.predict_decay(rep, 3, 1.0, 0, s)
    for nu in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu must be finite and >= 0"):
            hd.predict_decay(rep, 3, 1.0, 0, 0.0, nu=nu)


def test_q2_beats_q1_by_half():
    for n, q, k, s in [(3, 1.0, 0, 0.0), (2, 1.5, 1, 1.0), (4, 2.0, 2, 1.0)]:
        p1 = hd.predict_decay(_report(4, ell=1), n, q, k, s)
        p2 = hd.predict_decay(_report(4), n, q, k, s)
        assert p2.exponent == pytest.approx(p1.exponent - 0.5)


def test_monotonicity_in_ks_and_q():
    prev = None
    for ks in range(0, 5):
        pred = hd.predict_decay(_report(4), 3, 1.0, ks, 0.0)
        if prev is not None:
            assert pred.exponent <= prev + 1e-12
        prev = pred.exponent
    e_q1 = hd.predict_decay(_report(4), 3, 1.0, 1, 1.0).exponent
    e_q2 = hd.predict_decay(_report(4), 3, 2.0, 1, 1.0).exponent
    assert e_q1 <= e_q2


def test_critical_exponent_table():
    r = hd.critical_exponent(3, 0, 0, 3)
    assert r.p_bar == pytest.approx(2.5)
    assert r.admissible_n == (2, 4)
    assert hd.critical_exponent(3, 1, 0, 1).p_bar == pytest.approx(3.0)
    for m in (3, 4, 5):
        for n in (1, 2):
            assert hd.critical_exponent(m, 0, m - 2, n).p_bar == pytest.approx(1 + 2 / n)


def test_critical_exponent_validation():
    with pytest.raises(ValueError):
        hd.critical_exponent(3, 0, 5, 3)
    with pytest.raises(ValueError):
        hd.critical_exponent(4, 0, 0, 1)  # at the scaling threshold, no finite value
    r = hd.critical_exponent(4, 0, 0, 7)
    assert not r.n_ok and r.p_bar > 1  # out of range but still reported
