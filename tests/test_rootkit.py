import numpy as np
import pytest

from hyperdecay import Direction, connecting_permutation, roots, spectral_abscissa, track_branches
from hyperdecay import rootkit
from hyperdecay.presets import PRESETS, damped_wave_stack
from hyperdecay.rootkit import (BATCH_ROWS, BisectionLimitError, NonRealRootsError, RadialRootSolver,
                                RootfindingError, _companion_eigvals, _residuals, is_real_root, root_groups,
                                roots_batch)
from hyperdecay.solver import RadialPropagator, default_rho_grid
from hyperdecay.stability import real_root_table
from hyperdecay.symbols import UnivariatePoly, axis_direction, full_symbol_at, symbol_coeffs
from hyperdecay.tolerances import TOL
from tests.oracles import track_branches_recursive
from tests.test_stability import random_interlaced_stack


def _sorted_real(zs):
    return np.sort(zs.real)


def _assert_same_multiset(got, ref, tol):
    from scipy.optimize import linear_sum_assignment

    got = np.asarray(got)
    ref = np.asarray(ref)
    cost = np.abs(got[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= tol


def test_roots_quadratic():
    zs = roots(UnivariatePoly.of([0.09, 1.0, 1.0]))
    assert np.allclose(_sorted_real(zs), [-0.9, -0.1], atol=1e-12)


def test_roots_factored_cubic():
    zs = roots(UnivariatePoly.of([0.0, -2.0, 0.0, 1.0]))
    assert np.allclose(_sorted_real(zs), [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_roots_mgt_at_origin():
    zs = roots(UnivariatePoly.of([0.0, 0.0, 1.0, 1.0]))
    assert np.allclose(sorted(zs, key=lambda z: z.real), [-1.0, 0.0, 0.0], atol=1e-7)


def test_roots_errors():
    with pytest.raises(RootfindingError):
        roots(UnivariatePoly.of([0.0]))
    with pytest.raises(RootfindingError):
        roots(UnivariatePoly.of([3.0]))


def test_roots_residual_guarantee(rng):
    for _ in range(200):
        deg = rng.integers(2, 7)
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[-1] += 3.0  # keep the leading coefficient well away from zero
        p = UnivariatePoly.of(c)
        zs = roots(p)
        assert len(zs) == deg
        assert np.all(_residuals(p.array(), zs) <= 1e-10)


def test_roots_oracle_quadratic_cubic(rng):
    """1000 trials against the quadratic formula and the trigonometric cubic."""
    for _ in range(500):
        a, b, c = rng.normal(size=3)
        a += np.sign(a) * 1.5 if a != 0 else 1.5
        got = roots(UnivariatePoly.of([c, b, a]))
        disc = complex(b * b - 4 * a * c) ** 0.5
        ref = np.array([(-b + disc) / (2 * a), (-b - disc) / (2 * a)])
        _assert_same_multiset(got, ref, 1e-8 * (1 + np.max(np.abs(ref))))
    for _ in range(500):
        c0, c1, c2 = rng.normal(size=3) * 2
        got = roots(UnivariatePoly.of([c0, c1, c2, 1.0]))
        ref = _cardano(c2, c1, c0)
        _assert_same_multiset(got, ref, 1e-8 * (1 + np.max(np.abs(ref))))


def _cardano(a2, a1, a0):
    """Roots of z^3 + a2 z^2 + a1 z + a0 by the depressed-cubic closed form."""
    p = a1 - a2**2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    s = complex(disc) ** 0.5
    # take the cube-root branch that avoids cancellation in -q/2 +- s
    u3 = -q / 2.0 + s if abs(-q / 2.0 + s) >= abs(-q / 2.0 - s) else -q / 2.0 - s
    if abs(u3) < 1e-300:
        return np.full(3, -a2 / 3.0, dtype=complex)
    u = u3 ** (1.0 / 3.0)
    omega = np.exp(2j * np.pi / 3.0)
    out = []
    for w in (1.0, omega, omega**2):
        uu = u * w
        out.append(uu - p / (3.0 * uu) - a2 / 3.0)
    return np.array(out)


def test_realness_tolerance():
    assert is_real_root(1.0 + 1e-9j)
    assert not is_real_root(1.0 + 1e-6j)
    assert is_real_root(1e8 + 0.5j)  # scale-aware


def test_track_mgt_low(stacks):
    stack = stacks["mgt"]
    bs = track_branches(stack, axis_direction(3), np.geomspace(1e-3, 1e-1, 81))
    i_neg = int(np.argmin(np.abs(bs.branches[:, 0] + 1.0)))
    assert np.max(np.abs(bs.branches[i_neg] + 1.0)) < 1e-2
    for j in range(3):
        if j == i_neg:
            continue
        re = bs.branches[j].real
        assert np.all(re < 0)
        assert np.all(re >= -bs.rho_grid**2)


def test_track_damped_wave_collision():
    stack = damped_wave_stack()
    bs = track_branches(stack, Direction((1.0,)), np.linspace(0.3, 0.7, 21))
    assert bs.cluster_events, "the branch collision should be logged"
    rho_events = [e[0] for e in bs.cluster_events]
    assert min(abs(r - 0.5) for r in rho_events) < 0.05
    # real before the collision, conjugate after
    first = bs.values_at(0)
    last = bs.values_at(len(bs.rho_grid) - 1)
    assert np.all(np.abs(first.imag) < 1e-10)
    assert np.any(np.abs(last.imag) > 0.1)


def test_track_holds_each_root_to_its_own_gap(stacks):
    # the two fast high-frequency roots of fourth_order_weak must not force
    # bisection beside the slow, close pair
    grid = np.geomspace(1e1, 1e3, 81)
    bs = track_branches(stacks["fourth_order_weak"], Direction((1.0,)), grid)
    assert len(bs.rho_grid) == len(grid)


def test_track_single_point_equals_roots(stacks):
    stack = stacks["mgt"]
    bs = track_branches(stack, axis_direction(3), [0.7])
    ref = roots(full_symbol_at(stack, np.array([0.7, 0, 0])))
    assert np.allclose(np.sort_complex(bs.values_at(0)), np.sort_complex(ref), atol=1e-9)


def test_vieta_trace_mgt(stacks):
    stack = stacks["mgt"]
    bs = track_branches(stack, axis_direction(3), np.geomspace(1e-2, 1e2, 41))
    sums = bs.branches.sum(axis=0)
    assert np.max(np.abs(sums + 1.0)) < 1e-8


def test_conjugate_pairing(stacks):
    stack = stacks["em_elastic"]
    zs = roots(full_symbol_at(stack, np.array([0.0, 0.0, 0.8])))
    _assert_same_multiset(zs, np.conj(zs), 1e-9)


def test_spectral_abscissa_examples(stacks):
    dw = damped_wave_stack()
    assert spectral_abscissa(dw, np.array([0.3])) == pytest.approx(-0.1, abs=1e-10)
    assert spectral_abscissa(stacks["mgt"], np.zeros(3)) == pytest.approx(0.0, abs=1e-9)
    from hyperdecay.symbols import HomogeneousSymbol, OperatorStack
    pure = OperatorStack.build([HomogeneousSymbol.isotropic(2, 1, {2: 1.0, 0: -1.0})])
    assert spectral_abscissa(pure, np.array([0.5])) == pytest.approx(0.0, abs=1e-10)


def test_connecting_permutation_mgt(stacks):
    # the branch near -1 at low frequency joins the rank given by the
    # permutation at high frequency; ranks must be a bijection
    perm = connecting_permutation(stacks["mgt"], axis_direction(3), 1e-2, 1e2)
    assert sorted(perm.tolist()) == [0, 1, 2]


def test_real_root_table_rejects_complex():
    with pytest.raises(NonRealRootsError):
        real_root_table(np.array([[1.0, 0.0, 1.0]]))
    t = real_root_table(np.array([[-4.0, 0.0, 1.0, 0.0]]))    # trailing zero column: degree 2
    assert np.array_equal(t.re[0], [-2.0, 2.0]) and t.scale[0] == 3.0


def test_root_groups_follow_chains():
    z = np.array([[0.0, 0.9, 1.8, 5.0], [0.0, 2.0, 4.0, 4.5]])
    assert root_groups(z, np.array([1.0, 1.0])).tolist() == [[0, 0, 0, 3], [0, 1, 2, 2]]
    # root 1 reaches root 0 only through roots 2 and 3; complex roots group by distance
    assert root_groups(np.array([0.0, 3.0, 2.0, 1.0]), 1.1).tolist() == [0, 0, 0, 0]
    assert root_groups(np.array([1.0, 1.0 + 1.0j, 1.0 + 2.5j]), 1.0).tolist() == [0, 0, 2]


# ---------------------------------------------------------------------------
# the level-wise tracker against the depth-first reference


def _reference_rays():
    low, high = np.geomspace(1e-4, 1e-1, 121), np.geomspace(1e1, 1e4, 121)
    rays = []
    for name, pm in PRESETS.items():
        d = axis_direction(pm.dim)
        rays.append(pytest.param(pm.build, d, low, 20, id=f"{name}-low"))
        if "high" in pm.expected or "high_at" in pm.expected:
            rays.append(pytest.param(pm.build, d, high, 20, id=f"{name}-high"))
    rays.append(pytest.param(PRESETS["anisotropic_elastic_2d"].build, Direction.of((1.0, 1.0)), low, 20,
                             id="anisotropic_elastic_2d-diagonal-low"))
    for cap in (2, 20):
        rays.append(pytest.param(damped_wave_stack, Direction((1.0,)), np.linspace(0.3, 0.7, 21), cap,
                                 id=f"damped_wave-collision-cap{cap}"))
    return rays


@pytest.mark.parametrize("build, d, grid, cap", _reference_rays())
def test_track_equals_recursive_reference(build, d, grid, cap):
    stack = build()
    got = track_branches(stack, d, grid, max_bisections=cap)
    ref = track_branches_recursive(stack, d, grid, max_bisections=cap)
    assert np.array_equal(got.rho_grid, ref.rho_grid)
    assert np.array_equal(got.branches, ref.branches)
    assert np.array_equal(got.noise, ref.noise)
    assert got.cluster_events == ref.cluster_events
    assert all(type(e[0]) is float and type(e[2]) is float for e in got.cluster_events)


@pytest.mark.parametrize("cap", [0, 3, 8])
def test_bisection_limit_names_the_reference_interval(cap):
    stack, grid = PRESETS["anisotropic_elastic_2d"].build(), np.geomspace(1e-4, 1e-1, 121)
    with pytest.raises(BisectionLimitError) as ref:
        track_branches_recursive(stack, axis_direction(2), grid, max_bisections=cap)
    with pytest.raises(BisectionLimitError) as got:
        track_branches(stack, axis_direction(2), grid, max_bisections=cap)
    assert got.value.interval == ref.value.interval
    assert all(type(r) is float for r in got.value.interval)
    assert "np.float64" not in str(got.value)


def test_track_solves_each_bisection_level_in_one_call(monkeypatch):
    calls = []

    def counting(coeffs):
        calls.append(len(coeffs))
        return roots_batch(coeffs)

    monkeypatch.setattr(rootkit, "roots_batch", counting)
    grid = np.geomspace(1e-4, 1e-1, 121)
    bs = track_branches(PRESETS["anisotropic_elastic_2d"].build(), axis_direction(2), grid)
    # depth of each accepted step below the input step that holds it
    outer = np.diff(grid)[np.searchsorted(grid, bs.rho_grid[1:]) - 1]
    depth = int(np.max(np.round(np.log2(outer / np.diff(bs.rho_grid)))))
    assert len(calls) <= depth + 1 <= 12
    assert calls[0] == len(grid) and sum(calls) == len(bs.rho_grid)


def test_nonfinite_rho_is_rejected(stacks):
    stack, d = stacks["mgt"], axis_direction(3)
    solver = RadialRootSolver(stack, d)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            track_branches(stack, d, [1e-3, bad])
        with pytest.raises(ValueError, match="finite"):
            solver.lambdas_grid(np.array([0.5, bad]))
        with pytest.raises(ValueError, match="finite"):
            solver.lambdas_with_noise(np.array([bad]))


# ---------------------------------------------------------------------------
# the batched kernel


def _random_symbol_rows(rng, n_stacks=40, per_stack=25):
    """Full-symbol coefficient rows of random interlaced stacks, grouped by degree."""
    rows = {}
    for _ in range(n_stacks):
        m = int(rng.integers(2, 6))
        ell = 1 if m == 2 else int(rng.integers(1, 3))
        stack = random_interlaced_stack(rng, m, ell)
        xi = np.geomspace(1e-3, 1e2, per_stack)[:, None] * rng.choice([-1.0, 1.0])
        rows.setdefault(m, []).append(symbol_coeffs(stack, xi))
    return {m: np.concatenate(blocks) for m, blocks in rows.items()}


def test_roots_batch_equals_roots_row_for_row(rng):
    for m, c in _random_symbol_rows(rng).items():
        got = roots_batch(c)
        assert got.shape == (len(c), m)
        for row, z in zip(c, got):
            assert np.array_equal(z, roots(UnivariatePoly.of(row)))


def test_companion_start_equals_np_roots(rng):
    c = _random_symbol_rows(rng, n_stacks=10)[4]
    c[::3, :2] = 0.0                       # some rows with a double zero root
    c[1::3, 0] = 0.0                       # and some with a simple one
    start = _companion_eigvals(c)
    for row, z in zip(c, start):
        assert np.array_equal(z, np.roots(row[::-1]))


def test_roots_batch_single_row_equals_row_in_batch(rng):
    c = _random_symbol_rows(rng)[4]
    c = np.concatenate([c] * (BATCH_ROWS // len(c) + 2))   # the batch spans several blocks
    batch = roots_batch(c)
    for i in range(0, len(c), 17):
        assert np.array_equal(roots_batch(c[i : i + 1])[0], batch[i])


def test_roots_batch_exact_zero_roots():
    c = np.array([[0.0, 0.0, 1.0, 1.0],     # lambda^2 (lambda + 1)
                  [0.0, 2.0, 3.0, 1.0],     # lambda (lambda + 1)(lambda + 2)
                  [6.0, 11.0, 6.0, 1.0]])   # no zero root
    got = roots_batch(c)
    assert np.array_equal(got[0], [-1.0, 0.0, 0.0])
    assert got[1][-1] == 0.0 and np.count_nonzero(got[1] == 0.0) == 1
    assert np.count_nonzero(got[2] == 0.0) == 0
    assert np.allclose(got[2], [-3.0, -2.0, -1.0], atol=1e-12)


def test_roots_batch_certificate_names_the_row(monkeypatch):
    c = np.array([[0.0, 0.0, 1.0, 1.0], [6.0, 11.0, 6.0, 1.0]])
    monkeypatch.setattr(TOL, "root_residual_rtol", 0.0)
    with pytest.raises(RootfindingError, match="in row 1"):
        roots_batch(c)
    with pytest.raises(RootfindingError, match="zero leading coefficient"):
        roots_batch(np.array([[1.0, 2.0, 0.0]]))


def test_roots_batch_names_a_nonfinite_row():
    c = np.array([[6.0, 11.0, 6.0, 1.0], [1.0, np.nan, 0.0, 1.0], [np.inf, 1.0, 0.0, 1.0]])
    with pytest.raises(RootfindingError, match="row 1 has a non-finite coefficient"):
        roots_batch(c)
    with pytest.raises(RootfindingError, match="row 0 has a non-finite coefficient"):
        roots_batch(c[2:])


def test_propagator_roots_equal_per_rho_roots(stacks):
    rho = default_rho_grid()
    for name, stack in stacks.items():
        d = axis_direction(stack.dim)
        prop = RadialPropagator(stack, d, rho)
        solver = RadialRootSolver(stack, d)
        for i in range(0, len(rho), 7):
            assert np.array_equal(prop.lams[i], solver.lambdas(rho[i])), (name, rho[i])
