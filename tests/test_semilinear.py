import numpy as np
import pytest

from hyperdecay.presets import mgt_stack
from hyperdecay.rootkit import RootfindingError
from hyperdecay.semilinear import build_run, run_semilinear, step
from hyperdecay.solver import propagate_mode


def _gaussian_slot_run(amplitude, p=3.0, sign=1.0, dt=0.1, n=96, box=30.0, slot=None):
    stack = mgt_stack(dim=1)
    return build_run(stack, p=p, sign=sign, nu=0, box_halfwidth=box, modes_per_axis=n, dim=1,
                     initial=lambda x: amplitude * np.exp(-0.5 * x**2), initial_slot=slot, dt=dt)


def test_linear_consistency_matches_exact_propagation():
    stack = mgt_stack(dim=1)
    run = _gaussian_slot_run(0.1, sign=0.0, dt=0.25)
    u0 = run.state.copy()
    while run.t < 10.0 - 1e-12:
        step(run)
    k1 = run._freqs[0]
    for i in [0, 1, 7, 23, 48]:
        exact = propagate_mode(stack, np.array([k1[i]]), u0[:, i], run.t, 0)
        assert abs(run.state[0, i] - exact) <= 1e-8 * (1.0 + abs(exact))


def test_build_run_certifies_roots(monkeypatch):
    from hyperdecay.tolerances import TOL
    monkeypatch.setattr(TOL, "root_residual_rtol", 0.0)
    with pytest.raises(RootfindingError):
        _gaussian_slot_run(0.1)


def test_zero_data_stays_zero():
    run = _gaussian_slot_run(0.0, p=2.0)
    for _ in range(20):
        step(run)
    assert np.all(run.state == 0)
    assert run.l2_series[-1] == 0.0


def test_first_order_convergence():
    """Richardson ratio: halving dt halves the error of a first-order scheme."""
    def state_at(dt):
        run = _gaussian_slot_run(0.2, p=3.0, dt=dt)
        while run.t < 10.0 - 1e-12 and not run.blowup_flag:
            step(run, min(dt, 10.0 - run.t))
        assert not run.blowup_flag
        return run.state[0].copy()

    s1 = state_at(0.2)
    s2 = state_at(0.1)
    s3 = state_at(0.05)
    e12 = np.linalg.norm(s1 - s2)
    e23 = np.linalg.norm(s2 - s3)
    assert 1.5 <= e12 / e23 <= 3.0


def test_small_data_amplitude_scaling():
    """Doubling the amplitude responds linearly up to an O(A^p) remainder."""
    p = 3.0

    def final(amp):
        run = _gaussian_slot_run(amp, p=p, dt=0.1)
        while run.t < 5.0 - 1e-12 and not run.blowup_flag:
            step(run)
        assert not run.blowup_flag
        return run.state[0].copy()

    resid = {}
    for amp in (0.02, 0.04):
        resid[amp] = np.linalg.norm(final(2 * amp) - 2.0 * final(amp))
    fitted = np.log2(resid[0.04] / resid[0.02])
    assert fitted >= p - 0.3


def test_sign_symmetry():
    """u -> -u maps the +|u|^p problem to the -|u|^p problem."""
    run_plus = _gaussian_slot_run(0.5, p=3.0, sign=1.0, dt=0.1)
    run_minus = _gaussian_slot_run(-0.5, p=3.0, sign=-1.0, dt=0.1)
    for _ in range(30):
        step(run_plus)
        step(run_minus)
    assert np.allclose(run_minus.state, -run_plus.state, atol=1e-12)


def test_small_supercritical_run_tracks_linear():
    stack = mgt_stack(dim=1)
    kwargs = dict(nu=0, T=50.0, dt0=0.25, box_halfwidth=85.0, modes_per_axis=512,
                  dim=1, amplitude=1e-3)
    nl = run_semilinear(stack, p=3.0, sign=1.0, **kwargs)
    lin = run_semilinear(stack, p=3.0, sign=0.0, **kwargs)
    sup_nl = np.max(np.abs(nl.physical(0)))
    sup_lin = np.max(np.abs(lin.physical(0)))
    assert 0.5 <= sup_nl / sup_lin <= 2.0


def test_blowup_flag_terminates():
    stack = mgt_stack(dim=1)
    run = run_semilinear(stack, p=2.0, sign=1.0, nu=0, T=100.0, dt0=0.1, box_halfwidth=30.0,
                         modes_per_axis=96, dim=1, amplitude=3.0, initial_slot=0)
    assert run.blowup_flag
    assert run.blowup_time is not None and run.blowup_time < 100.0
    assert np.max(run.l2_series) > 10.0 * run.l2_series[0]


def test_nu_reads_state_coordinate():
    stack = mgt_stack(dim=1)
    run = build_run(stack, p=2.0, sign=1.0, nu=1, box_halfwidth=30.0, modes_per_axis=64,
                    dim=1, initial=lambda x: 0.3 * np.exp(-0.5 * x**2), initial_slot=1, dt=0.1)
    assert run.linf_series[0] == pytest.approx(0.3, rel=1e-6)


def test_build_run_validation():
    stack = mgt_stack(dim=1)
    with pytest.raises(ValueError):
        build_run(stack, 2.0, 1.0, nu=5, box_halfwidth=10.0, modes_per_axis=32, dim=1)
    with pytest.raises(ValueError):
        build_run(mgt_stack(dim=3), 2.0, 1.0, nu=0, box_halfwidth=10.0, modes_per_axis=32, dim=3)
