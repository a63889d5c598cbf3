import numpy as np
import pytest

from hyperdecay import semilinear
from hyperdecay.presets import mgt_stack
from hyperdecay.rootkit import RootfindingError, roots_batch
from hyperdecay.semilinear import build_run, run_semilinear, step
from hyperdecay.solver import propagate_mode
from hyperdecay.symbols import HomogeneousSymbol, OperatorStack, symbol_coeffs

from tests.oracles import reference_step, semilinear_exponential


def _transport_stack():
    """P_3 = lambda^3 - 2 lambda xi^2, P_2 = lambda^2 + 0.3 lambda xi - xi^2 in 1-d.

    The odd lambda xi term turns into i 0.3 lambda xi in Q(lambda, i xi), so the
    monic rows are complex (|Im| up to 1.5 on 64 modes of the half-width-20 box).
    """
    p3 = HomogeneousSymbol(3, 1, {(3, (0,)): 1.0, (1, (2,)): -2.0})
    p2 = HomogeneousSymbol(2, 1, {(2, (0,)): 1.0, (1, (1,)): 0.3, (0, (2,)): -1.0})
    return OperatorStack.build([p3, p2])


def _record_builds(monkeypatch):
    """(dt, Phi dtype) of every propagator build from here on."""
    built = []

    def recording(run, dt):
        phi, w = build(run, dt)
        built.append((dt, phi.dtype))
        return phi, w

    build = semilinear._build_propagator
    monkeypatch.setattr(semilinear, "_build_propagator", recording)
    return built


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
    k1 = run.frequencies()[0]
    for i in [0, 1, 7, 23, 48]:
        exact = propagate_mode(stack, np.array([k1[i]]), u0[:, i], run.t, 0)
        assert abs(run.state[0, i] - exact) <= 1e-8 * (1.0 + abs(exact))


def test_linear_2d_run_matches_exact_propagation():
    """The half spectrum covers kx < 0 and the self-conjugate n/2 column."""
    stack = mgt_stack(dim=2)
    n = 32
    run = build_run(stack, p=3.0, sign=0.0, nu=0, box_halfwidth=10.0, modes_per_axis=n, dim=2,
                    initial=lambda x, y: 0.1 * np.exp(-0.5 * ((x - 1.0) ** 2 + y**2)), dt=0.25)
    u0 = run.state.copy()
    while run.t < 5.0 - 1e-12:
        step(run)
    kx, ky = run.frequencies()
    for i, j in [(0, 0), (n - 3, 5), (7, n // 2)]:
        for c in range(stack.m):
            exact = propagate_mode(stack, np.array([kx[i, j], ky[i, j]]), u0[:, i, j], run.t, c)
            assert abs(run.state[c, i, j] - exact) <= 1e-8 * (1.0 + abs(exact))
    assert kx[n - 3, 5] < 0 and run.state.shape[-1] == n // 2 + 1


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 63), (2, 32), (2, 31)])
def test_parseval_l2_matches_grid_sum(dim, n):
    """Odd n has no self-conjugate last column; even n has one."""
    stack = mgt_stack(dim=dim)
    bump = (lambda x: np.exp(-0.5 * (x - 0.7) ** 2)) if dim == 1 else \
        (lambda x, y: np.exp(-0.5 * ((x - 0.7) ** 2 + (y + 1.3) ** 2)))
    run = build_run(stack, p=2.0, sign=1.0, nu=0, box_halfwidth=8.0, modes_per_axis=n, dim=dim,
                    initial=bump, initial_slot=0, dt=0.1)
    for _ in range(5):
        step(run)
    for c in range(stack.m):
        grid = np.sqrt(np.sum(run.physical(c) ** 2) * run.dx**dim)
        assert run.l2_norm(c) == pytest.approx(grid, rel=1e-13)


def test_build_run_solves_each_distinct_row_once(monkeypatch):
    seen = []

    def counting(coeffs):
        seen.append(np.array(coeffs))
        return roots_batch(coeffs)

    monkeypatch.setattr(semilinear, "roots_batch", counting)
    stack, n = mgt_stack(dim=2), 64
    run = build_run(stack, p=5.0, sign=1.0, nu=0, box_halfwidth=20.0, modes_per_axis=n, dim=2)
    rows = np.concatenate(seen)
    assert len(np.unique(rows, axis=0)) == len(rows) < n * (n // 2 + 1)
    # every mode gets the roots it would get from its own row
    full = symbol_coeffs(stack, run.frequencies().reshape(2, -1).T)
    assert np.array_equal(run._lams[run._rows], roots_batch(full / full[:, -1:]))


def test_distinct_rows_are_those_of_np_unique():
    """The lexsort over row numbers keeps `np.unique`'s rows, order and inverse, bit for bit.

    The 256^2 box of the benchmark's nonlinear run: 33,024 modes, 7,400 distinct rows.
    """
    stack = mgt_stack(dim=2)
    run = build_run(stack, p=5.0, sign=1.0, nu=0, box_halfwidth=80.0, modes_per_axis=256, dim=2)
    full = symbol_coeffs(stack, run.frequencies().reshape(2, -1).T)
    rows, inverse = np.unique(full / full[:, -1:], axis=0, return_inverse=True)
    assert run._coeffs.tobytes() == rows.tobytes() and len(rows) == 7400
    assert np.array_equal(run._rows, inverse.reshape(-1))


def test_semilinear_propagator_is_the_all_rows_slice():
    """Phi and W read the first m of the m + 1 rows; asking for only those changes no bit.

    A real symbol keeps the real part of that slice, a complex one all of it.
    W is kept on the two-thirds block only: its parts cover the rule's support
    once each and hold that slice's bits there.
    """
    for stack, dim, n_axis, real in ((mgt_stack(dim=2), 2, 32, True), (mgt_stack(dim=2), 2, 33, True),
                                     (mgt_stack(dim=1), 1, 64, True), (_transport_stack(), 1, 64, False)):
        run = build_run(stack, p=5.0, sign=1.0, nu=0, box_halfwidth=20.0, modes_per_axis=n_axis,
                        dim=dim)
        m = run.m
        phi, w = semilinear._build_propagator(run, 0.05)
        e = semilinear_exponential(run, 0.05, m + 1)[:m]
        if real:
            assert not np.any(run._coeffs.imag)
            e = e.real
            assert phi.dtype == np.float64
        else:
            assert np.max(np.abs(run._coeffs.imag)) > 1.0
            assert phi.dtype == np.complex128 and np.any(phi.imag)
        assert phi.tobytes() == np.take(e[:, :m], run._rows, axis=-1).tobytes()
        # the two-thirds rule on every axis, from the frequencies
        k = np.abs(run.frequencies())
        mask = np.all(k <= (2.0 / 3.0) * np.max(k), axis=0)
        full_w = np.take(e[:, m], run._rows, axis=-1).reshape((m,) + mask.shape)
        covered = np.zeros(mask.shape, dtype=int)
        parts = semilinear._block(run)
        assert len(parts) == len(w) == dim
        for part, wpart in zip(parts, w):
            covered[part] += 1
            assert wpart.dtype == phi.dtype
            assert wpart.tobytes() == np.ascontiguousarray(full_w[(slice(None),) + part]).tobytes()
        assert np.array_equal(covered, mask) and 0 < mask.sum() < mask.size


@pytest.mark.parametrize("p", [0.5, 2.0, 2.5, 5.0])
@pytest.mark.parametrize("sign", [1.0, -0.7])
@pytest.mark.parametrize("nu", [0, 1])
@pytest.mark.parametrize("dim,n", [(1, 32), (1, 33), (2, 16), (2, 17)])
def test_step_equals_the_full_spectrum_reference_bit_for_bit(p, sign, nu, dim, n):
    """W on the block, one output coordinate at a time and the one-buffer source change no bit.

    p = 0.5 and 2 take numpy's scalar-power fast paths (sqrt and square),
    which the in-place power keeps.  Two steps: data in slot nu, then every
    slot filled.
    """
    stack = mgt_stack(dim=dim)
    bump = (lambda x: 0.8 * np.exp(-0.5 * (x - 0.3) ** 2)) if dim == 1 else \
        (lambda x, y: 0.8 * np.exp(-0.5 * ((x - 0.3) ** 2 + (y + 0.6) ** 2)))
    run = build_run(stack, p=p, sign=sign, nu=nu, box_halfwidth=6.0, modes_per_axis=n, dim=dim,
                    initial=bump, initial_slot=nu, dt=0.1)
    for _ in range(2):
        expected = reference_step(run, 0.1)
        step(run)
        assert run.state.tobytes() == expected.tobytes()
    assert np.all(run.state != 0)


def test_complex_symbol_step_equals_the_full_spectrum_reference_bit_for_bit():
    for n in (32, 33):
        run = build_run(_transport_stack(), p=2.5, sign=-0.7, nu=1, box_halfwidth=20.0, modes_per_axis=n,
                        dim=1, initial=lambda x: 0.8 * np.exp(-0.5 * x**2), initial_slot=1, dt=0.05)
        for _ in range(2):
            expected = reference_step(run, 0.05)
            step(run)
            assert run.state.dtype == np.complex128 and run.state.tobytes() == expected.tobytes()


def test_transport_symbol_run_matches_exact_propagation(monkeypatch):
    """A complex symbol runs on complex propagators and matches the exact linear flow."""
    built = _record_builds(monkeypatch)
    stack = _transport_stack()
    kwargs = dict(p=2.0, nu=0, box_halfwidth=20.0, modes_per_axis=64, dim=1)
    u0 = build_run(stack, sign=0.0, initial=lambda x: 0.1 * np.exp(-0.5 * x**2), **kwargs).state
    run = run_semilinear(stack, sign=0.0, T=3.0, dt0=0.05, amplitude=0.1, **kwargs)
    assert built == [(0.05, np.complex128)] and run.t == 3.0
    k1 = run.frequencies()[0]
    for i in [0, 1, 5, 17, 31, 32]:
        for c in range(stack.m):
            exact = propagate_mode(stack, np.array([k1[i]]), u0[:, i], run.t, c)
            assert abs(run.state[c, i] - exact) <= 1e-8 * (1.0 + abs(exact))
    # the nonlinear run takes the same route through W
    nl = run_semilinear(stack, sign=1.0, T=3.0, dt0=0.05, amplitude=0.1, **kwargs)
    assert not nl.blowup_flag and nl.t == 3.0 and built[-1][1] == np.complex128


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


def test_an_overflowing_step_is_flagged_unrecorded_without_a_warning():
    """A step whose source overflows ends non-finite: flagged at its time, nothing recorded.

    Run under the suite's RuntimeWarning-as-error filter: the overflow on the
    way to the flag is no warning.  A later step returns the flagged run as it is.
    """
    run = build_run(mgt_stack(dim=1), 300.0, 1.0, 0, 20.0, 32, initial=lambda x: 1e3 * np.exp(-x * x / 2),
                    initial_slot=0, dt=0.1)
    step(run)
    assert run.blowup_flag and run.blowup_time == 0.1 and run.t == 0.1
    assert not np.all(np.isfinite(run.state))
    assert run.times == [0.0] and len(run.l2_series) == len(run.linf_series) == 1
    state = run.state
    assert step(run, 0.5) is run
    assert run.state is state and run.t == 0.1 and run.times == [0.0]
    # data in the top slot: the second step's state is finite, its L2 norm's sum
    # overflows, and that step is flagged and left unrecorded alike
    run = build_run(mgt_stack(dim=1), 300.0, 1.0, 0, 20.0, 32, initial=lambda x: 1e3 * np.exp(-x * x / 2),
                    dt=0.1)
    step(step(run))
    assert run.blowup_flag and run.blowup_time == 0.2 and np.all(np.isfinite(run.state))
    assert run.times == [0.0, 0.1] and len(run.l2_series) == len(run.linf_series) == 2


def test_runaway_growth_at_the_step_floor_is_a_blowup():
    """At the 1e-4 step floor no step is rejected; one that grows the norm past 100 times the data
    scale and doubles it is flagged, though it stays below BLOWUP_FACTOR times that scale."""
    run = run_semilinear(mgt_stack(dim=1), p=16, sign=1, nu=0, T=0.01, dt0=1e-4, box_halfwidth=20,
                         modes_per_axis=32, amplitude=10, initial_slot=0)
    assert run.blowup_flag and run.blowup_time == 1e-4 and run.times == [0.0, 1e-4]
    assert run.rejected_steps == 0
    l2 = run.l2_series
    assert 100.0 * run.initial_scale < l2[1] < semilinear.BLOWUP_FACTOR * run.initial_scale
    assert l2[1] > 2.0 * l2[0]


def test_over_cap_steps_are_rejected():
    """A step that moves the L2 norm past the cap is retried at half the step size."""
    cap = semilinear.REL_CHANGE_CAP
    run = run_semilinear(mgt_stack(dim=1), p=2.0, sign=1.0, nu=0, T=100.0, dt0=0.1, box_halfwidth=40.0,
                         modes_per_axis=128, dim=1, amplitude=1.0, initial_slot=0)
    l2 = np.asarray(run.l2_series)
    change = np.abs(np.diff(l2))
    ref = np.maximum(l2[:-1], run.initial_scale)
    at_floor = np.diff(run.times) <= 1e-4 * (1.0 + 1e-12)
    assert run.rejected_steps > 0
    assert np.all((change <= cap * ref) | at_floor)


def test_a_step_over_max_change_is_undone_unrecorded(monkeypatch):
    """`step(..., max_change=)` undoes a step whose L2 norm moves too far, before any sup norm."""
    run = build_run(mgt_stack(dim=1), p=2.0, sign=1.0, nu=0, box_halfwidth=20.0, modes_per_axis=32, dim=1,
                    initial=lambda x: np.exp(-0.5 * x**2), initial_slot=0)
    state, series = run.state, (list(run.times), list(run.l2_series), list(run.linf_series))
    monkeypatch.setattr(semilinear.SemilinearRun, "linf_norm", lambda *a: pytest.fail("sup norm taken"))
    step(run, 0.5, max_change=0.0)
    assert run.state is state and run.t == 0.0 and not run.blowup_flag
    assert (run.times, run.l2_series, run.linf_series) == series
    monkeypatch.undo()
    step(run, 0.5, max_change=np.inf)
    assert run.times == [0.0, 0.5] and len(run.linf_series) == 2


def test_a_rejection_transforms_no_field_twice(monkeypatch):
    """A rejected step transforms no field: one transform per accepted step.

    Each accepted step transforms its new nu-field once, for the sup norm and
    the next step's source.  A rejection is decided from the L2 norm first, so
    the rejected state is never transformed, and the saved state's field is
    not transformed again.  The growth run of criterion 8 on a 32^2 grid.
    """
    calls = []
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *a, **k: calls.append(1) or irfftn(*a, **k))
    kwargs = dict(p=2.0, sign=1.0, nu=0, box_halfwidth=40.0, modes_per_axis=32, dim=2)
    build_run(mgt_stack(dim=2), initial=lambda x, y: np.exp(-0.5 * (x**2 + y**2)), initial_slot=0, **kwargs)
    built = len(calls)
    calls.clear()
    run = run_semilinear(mgt_stack(dim=2), T=100.0, dt0=0.1, amplitude=1.0, initial_slot=0, **kwargs)
    assert run.rejected_steps > 0 and np.all(np.isfinite(run.state))
    assert len(calls) == built + (len(run.times) - 1)


def test_step_size_grows_back_after_a_rejection(monkeypatch):
    """One early rejection no longer halves the rest of the run: dt climbs back to dt0."""
    built = _record_builds(monkeypatch)
    held = []

    def holding(run, *args, **kwargs):
        one_step(run, *args, **kwargs)
        held.append(len(run._prop_cache))
        return run

    one_step = semilinear.step
    monkeypatch.setattr(semilinear, "step", holding)
    stack, dt0, T = mgt_stack(dim=2), 0.25, 50.0
    kwargs = dict(p=5.0, sign=1.0, nu=0, box_halfwidth=45.0, modes_per_axis=64, dim=2)
    run = run_semilinear(stack, T=T, dt0=dt0, amplitude=1e-3, **kwargs)
    assert run.rejected_steps == 1
    assert len(run.times) - 1 <= 220          # 398 when dt stayed halved
    # every step size is on the dyadic ladder, and the run holds the propagator of
    # its current size only, so the cache stays small: a build follows each change
    # of size, the return to dt0 included
    sizes = [dt for dt, _ in built]
    assert set(sizes) <= {dt0 / 2**j for j in range(12)}
    assert sizes == [dt0, dt0 / 2, dt0]
    assert len(held) == len(run.times) - 1 + run.rejected_steps and max(held) == 1
    assert run.times[-1] - run.times[-2] == pytest.approx(dt0)
    # the small-data run is all but linear, so a fixed-step run reaches the same norm
    fixed = build_run(stack, initial=lambda x, y: 1e-3 * np.exp(-0.5 * (x**2 + y**2)), dt=0.125,
                      **kwargs)
    while fixed.t < T - 1e-9:
        step(fixed, 0.125)
    assert run.l2_series[-1] == pytest.approx(fixed.l2_series[-1], rel=1e-10)


def test_run_ends_at_T_without_a_sliver_step(monkeypatch):
    """Summed steps end within rounding of T; no step of that size follows."""
    built = _record_builds(monkeypatch)
    run = run_semilinear(mgt_stack(dim=2), p=5.0, sign=1.0, nu=0, T=5.0, dt0=0.05,
                         modes_per_axis=64, dim=2)
    assert len(run.times) - 1 == 100
    assert run.t == run.times[-1] == 5.0
    assert [dt for dt, _ in built] == [0.05]
    # the floor scales with T, so a T far below dt0 still takes its one step
    tiny = run_semilinear(mgt_stack(dim=1), p=5.0, sign=1.0, nu=0, T=1e-12, modes_per_axis=16, dim=1)
    assert tiny.times == [0.0, 1e-12] and tiny.t == 1e-12


def test_a_returned_run_holds_no_propagator(monkeypatch):
    """The cache lives while the run steps; one more step on the result rebuilds and runs."""
    built = _record_builds(monkeypatch)
    stack = mgt_stack(dim=1)
    run = run_semilinear(stack, p=2.0, sign=1.0, nu=0, T=1.0, dt0=0.1, box_halfwidth=20.0,
                         modes_per_axis=32, dim=1, amplitude=0.1)
    assert run._prop_cache == {} and [dt for dt, _ in built] == [0.1]
    before = run.state
    step(run)
    assert [dt for dt, _ in built] == [0.1, 0.1] and list(run._prop_cache) == [0.1]
    assert run.t == pytest.approx(1.1) and run.times[-1] == run.t
    assert not np.array_equal(run.state, before) and np.all(np.isfinite(run.state))
    # a blow-up exit drops them too
    blown = run_semilinear(stack, p=2.0, sign=1.0, nu=0, T=100.0, dt0=0.1, box_halfwidth=30.0,
                           modes_per_axis=96, dim=1, amplitude=3.0, initial_slot=0)
    assert blown.blowup_flag and blown._prop_cache == {}


def _traced_box_run(**kwargs):
    """(run, traced peak, traced bytes held) of one 2-d `run_semilinear` of mgt.

    A tiny run first loads the modules numpy imports lazily, so the figures
    are the run's own whether or not another box run came before.
    """
    import tracemalloc

    stack = mgt_stack(dim=2)
    run_semilinear(stack, p=2.0, sign=1.0, nu=0, T=1.0, dt0=0.1, box_halfwidth=10.0, modes_per_axis=8,
                   dim=2, amplitude=1.0, initial_slot=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = run_semilinear(stack, dim=2, **kwargs)
        held, peak = (v - base for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return run, peak, held


def test_box_traced_memory():
    """The 128^2 growth run of the benchmark: traced peak, and what the returned run holds.

    Complex propagators kept after the run: peak 15.3 MB, 13.8 MB still held.
    Real propagators dropped on return: peak 9.2 MB, 1.0 MB held.  W on the
    two-thirds block only, one-plane temporaries and the rejected state freed
    at once: peak 7.9 MB, set by the eighth step size's build beside the seven
    pairs before it.  One propagator held at a time, dropped before the next
    build, and no frequency meshes kept: peak 3.0 MB, 0.85 MB held.
    """
    run, peak, held = _traced_box_run(p=2.0, sign=1.0, nu=0, T=100.0, dt0=0.1, box_halfwidth=40.0,
                                      modes_per_axis=128, amplitude=1.0, initial_slot=0)
    assert run.rejected_steps > 0
    assert peak < 4e6, peak
    assert held < 6e6, held


def test_small_data_box_traced_memory():
    """The benchmark's 256^2 p = 5 run up to T = 5, which includes its one rejection.

    The peak came at the Phi(dt/2) rebuild after that rejection, with the
    rejected state and its nu-field still held: 15.6 MB.  With them freed,
    W on the block and one-plane temporaries it is 11.8 MB.  With Phi(dt)
    dropped before that rebuild, no frequency meshes kept and the distinct
    rows found with no sorted copy of all rows: 8.6 MB.
    """
    run, peak, _ = _traced_box_run(p=5.0, sign=1.0, nu=0, T=5.0, dt0=0.25, box_halfwidth=80.0,
                                   modes_per_axis=256, amplitude=1e-3)
    assert run.rejected_steps == 1 and not run.blowup_flag
    assert peak < 10e6, peak


def test_nu_reads_state_coordinate():
    stack = mgt_stack(dim=1)
    run = build_run(stack, p=2.0, sign=1.0, nu=1, box_halfwidth=30.0, modes_per_axis=64,
                    dim=1, initial=lambda x: 0.3 * np.exp(-0.5 * x**2), initial_slot=1, dt=0.1)
    assert run.linf_series[0] == pytest.approx(0.3, rel=1e-6)


def test_the_box_dimension_is_the_stacks():
    """Without `dim` a run takes the stack's dimension, read from the stack; a given `dim` must match."""
    run = run_semilinear(mgt_stack(dim=1), p=5.0, sign=1.0, nu=0, T=0.1, modes_per_axis=16)
    assert run.dim == 1 and run.state.shape == (3, 9) and run.times[-1] == 0.1
    with pytest.raises(AttributeError):
        run.dim = 2
    with pytest.raises(ValueError, match="stack dim 1 != run dim 2"):
        build_run(mgt_stack(dim=1), 5.0, 1.0, nu=0, box_halfwidth=10.0, modes_per_axis=16, dim=2)


def test_build_run_validation():
    stack = mgt_stack(dim=1)
    with pytest.raises(ValueError):
        build_run(stack, 2.0, 1.0, nu=5, box_halfwidth=10.0, modes_per_axis=32, dim=1)
    with pytest.raises(ValueError):
        build_run(mgt_stack(dim=3), 2.0, 1.0, nu=0, box_halfwidth=10.0, modes_per_axis=32, dim=3)
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step must be finite and > 0"):
            build_run(stack, 2.0, 1.0, nu=0, box_halfwidth=10.0, modes_per_axis=32, dim=1, dt=dt)
    for sign in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="sign must be finite"):
            build_run(stack, 2.0, sign, nu=0, box_halfwidth=10.0, modes_per_axis=32, dim=1)
    for p in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="power p must be finite and > 0"):
            build_run(stack, p, 1.0, nu=0, box_halfwidth=10.0, modes_per_axis=32, dim=1)
    for modes in (0, -4):
        with pytest.raises(ValueError, match="modes_per_axis >= 1"):
            build_run(stack, 2.0, 1.0, nu=0, box_halfwidth=10.0, modes_per_axis=modes, dim=1)
    for box in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="half-width must be finite and > 0"):
            build_run(stack, 2.0, 1.0, nu=0, box_halfwidth=box, modes_per_axis=32, dim=1)
    # a negative slot would index from the end
    for slot in (-1, 3):
        with pytest.raises(ValueError, match=rf"initial slot must lie in \[0, 2\], got {slot}"):
            build_run(stack, 2.0, 1.0, nu=0, box_halfwidth=10.0, modes_per_axis=32, dim=1,
                      initial=lambda x: np.exp(-0.5 * x**2), initial_slot=slot)


def test_step_rejects_a_time_step_that_is_not_finite_and_positive():
    # NaN would read as a blow-up, a negative dt would step backward and 0 would repeat t
    run = _gaussian_slot_run(0.1, n=16, box=10.0)
    for dt in (float("nan"), -0.1, 0.0, float("inf")):
        with pytest.raises(ValueError, match="time step must be finite and > 0"):
            step(run, dt)
    assert run.times == [0.0] and not run.blowup_flag
    step(run, 0.1)
    assert run.times == [0.0, 0.1]


def test_run_semilinear_rejects_a_non_finite_end_time_or_amplitude():
    stack = mgt_stack(dim=1)
    # T = inf comes last: without the check the run never ends while it decays
    for bad, match in (({"amplitude": np.nan}, "amplitude must be finite"),
                       ({"amplitude": np.inf}, "amplitude must be finite"),
                       ({"T": 0.0}, "end time T must be > 0"),
                       ({"T": -5.0}, "end time T must be > 0"),
                       ({"T": np.nan}, "end time T must be finite"),
                       ({"T": np.inf}, "end time T must be finite")):
        with pytest.raises(ValueError, match=match):
            run_semilinear(stack, **{"p": 2.0, "sign": 1.0, "nu": 0, "T": 1.0, **bad},
                           box_halfwidth=10.0, modes_per_axis=16, dim=1)
