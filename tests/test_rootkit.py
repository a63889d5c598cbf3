import numpy as np
import pytest

from hyperdecay import Direction, connecting_permutation, roots, spectral_abscissa, track_branches
from hyperdecay import rootkit
from hyperdecay.presets import PRESETS, damped_wave_stack
from hyperdecay.rootkit import (BATCH_ROWS, BisectionLimitError, NonRealRootsError, RadialRootSolver,
                                RootfindingError, _companion_eigvals, _gaps, _lone_pairs, _residuals,
                                is_real_root, root_groups, roots_batch)
from hyperdecay.solver import RadialPropagator, default_rho_grid
from hyperdecay.stability import real_root_table
from hyperdecay.symbols import UnivariatePoly, axis_direction, full_symbol_at, symbol_coeffs
from hyperdecay.tolerances import TOL
from tests.oracles import _lambdas_with_noise, track_branches_recursive
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
    first = bs.branches[:, 0]
    last = bs.branches[:, -1]
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
    assert np.allclose(np.sort_complex(bs.branches[:, 0]), np.sort_complex(ref), atol=1e-9)


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
    # low-anchored branch j ends at the canonical rank perm[j] at the high end; mgt's axis ray
    # has no branch point, so the linking does not depend on the range
    stack, d = stacks["mgt"], axis_direction(3)
    assert connecting_permutation(stack, d, 1e-2, 1e2).tolist() == [0, 1, 2]
    assert connecting_permutation(stack, d, 1e-3, 1e1).tolist() == [0, 1, 2]
    # the high end's conjugate pair shares its real part bit for bit and ranks -Im first
    lam = RadialRootSolver(stack, d).lambdas(10.0)
    assert lam[1] == np.conj(lam[2]) and lam[1].imag < 0


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


def _groups_of_two(z, thr):
    """Root i's group in `root_groups` at its own threshold thr[..., i]: exactly two members?
    And its other member (-1 when not)."""
    lone, other = np.zeros(thr.shape, dtype=bool), np.full(thr.shape, -1)
    for *row, i in np.ndindex(*thr.shape):
        labels = root_groups(z[tuple(row)], thr[(*row, i)])
        members = np.flatnonzero(labels == labels[i])
        if len(members) == 2:
            lone[(*row, i)], other[(*row, i)] = True, members[members != i][0]
    return lone, other


def test_lone_pairs_are_the_groups_of_exactly_two(rng):
    cases = []
    for m in range(1, 7):
        # random complex roots at per-root thresholds, 0 among them, and inf, which a single
        # root's own gap gives
        z = rng.normal(size=(200, m)) + 1j * rng.normal(size=(200, m))
        cases.append((z, rng.choice([0.0, 0.1, 0.3, 1.0, 3.0, np.inf], size=(200, m))))
        # small integer lattices: exact ties of the nearest distance and coincident roots
        z = rng.integers(-2, 3, size=(200, m)) + 1j * rng.integers(-2, 3, size=(200, m))
        cases.append((z, rng.choice([0.0, 1.0, np.sqrt(2.0), 2.0], size=(200, m))))
    # a third root 2 from the pair's right member, at threshold 2: just inside, then just outside
    for third in (3.0, np.nextafter(3.0, np.inf)):
        cases.append((np.array([[0.0, 1.0, third]], dtype=complex), np.full((1, 3), 2.0)))
    for z, thr in cases:
        lone, partner = _lone_pairs(_gaps(z), thr)
        want, other = _groups_of_two(z, thr)
        assert np.array_equal(lone, want)
        assert np.array_equal(partner[lone], other[lone])
    assert _lone_pairs(_gaps(cases[-2][0]), cases[-2][1])[0].tolist() == [[False, False, False]]
    assert _lone_pairs(_gaps(cases[-1][0]), cases[-1][1])[0].tolist() == [[True, True, False]]


# ---------------------------------------------------------------------------
# the matcher


def test_assign_reaches_the_optimal_cost(rng):
    from scipy.optimize import linear_sum_assignment

    for k in range(1, 7):
        for n in range(1, k + 1):
            cost = rng.random((40, n, k))
            perm = rootkit.assign(cost)
            assert perm.shape == (40, n)
            assert all(len(set(p)) == n for p in perm.tolist())
            got = np.take_along_axis(cost, perm[:, :, None], axis=2).sum(axis=(1, 2))
            best = np.array([c[linear_sum_assignment(c)].sum() for c in cost])
            assert np.all(got <= best + 1e-12), (n, k)
            # a row gets the same matching alone as in the batch
            assert np.array_equal(rootkit.assign(cost[7]), perm[7])


def test_assign_tie_goes_to_the_first_injection():
    # (0, 1) and (0, 2) tie at 3 below the rest; (0, 1) is first in lexicographic order
    assert rootkit.assign(np.array([[1.0, 2.0, 2.0], [2.0, 2.0, 2.0]])).tolist() == [0, 1]
    # (1, 0) and (2, 0) tie at 2 below the rest; (1, 0) comes first
    assert rootkit.assign(np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 2.0]])).tolist() == [1, 0]
    assert rootkit.assign(np.zeros((2, 3, 3))).tolist() == [[0, 1, 2]] * 2


def test_assign_names_the_limit_before_building_a_table(monkeypatch):
    def no_table(n, k):
        raise AssertionError("no table above the limit")

    monkeypatch.setattr(rootkit, "_injections", no_table)
    assert rootkit.ASSIGN_MAX_M == 8
    for n in (1, 9):
        with pytest.raises(ValueError, match="m = 9 exceeds the limit m <= 8"):
            rootkit.assign(np.zeros((n, 9)))


# ---------------------------------------------------------------------------
# the level-wise tracker against the depth-first reference


def _reference_rays():
    low, high = np.geomspace(1e-4, 1e-1, 121), np.geomspace(1e1, 1e4, 121)
    rays = []
    for name, pm in PRESETS.items():
        d = axis_direction(pm.build().dim)
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
def test_track_equals_recursive_reference(build, d, grid, cap, monkeypatch):
    stack = build()
    monkeypatch.setattr(rootkit, "MAX_BISECTIONS", cap)
    got = track_branches(stack, d, grid)
    ref = track_branches_recursive(stack, d, grid, max_bisections=cap)
    assert np.array_equal(got.rho_grid, ref.rho_grid)
    assert np.array_equal(got.branches, ref.branches)
    assert np.array_equal(got.noise, ref.noise)
    assert got.cluster_events == ref.cluster_events
    assert all(type(e[0]) is float and type(e[2]) is float for e in got.cluster_events)


@pytest.mark.parametrize("cap", [0, 3, 8, 20])
def test_bisection_limit_names_the_reference_interval(cap, monkeypatch):
    # em_elastic's axis crosses a real branch point near rho = 0.4
    stack, grid = PRESETS["em_elastic"].build(), np.geomspace(1e-2, 1e2, 161)
    with pytest.raises(BisectionLimitError) as ref:
        track_branches_recursive(stack, axis_direction(3), grid, max_bisections=cap)
    monkeypatch.setattr(rootkit, "MAX_BISECTIONS", cap)
    with pytest.raises(BisectionLimitError) as got:
        track_branches(stack, axis_direction(3), grid)
    assert got.value.interval == ref.value.interval
    assert all(type(r) is float for r in got.value.interval)
    assert "np.float64" not in str(got.value)


def test_track_solves_each_bisection_level_in_one_call(monkeypatch):
    calls = []

    def counting(coeffs):
        calls.append(len(coeffs))
        return roots_batch(coeffs)

    monkeypatch.setattr(rootkit, "roots_batch", counting)
    grid = np.linspace(0.3, 0.7, 21)
    bs = track_branches(damped_wave_stack(), Direction((1.0,)), grid)
    assert len(bs.rho_grid) == 41
    # depth of each accepted step below the input step that holds it
    outer = np.diff(grid)[np.searchsorted(grid, bs.rho_grid[1:]) - 1]
    depth = int(np.max(np.round(np.log2(outer / np.diff(bs.rho_grid)))))
    assert len(calls) <= depth + 1 <= 21
    assert calls[0] == len(grid) and sum(calls) == len(bs.rho_grid)


def test_track_steps_a_split_pair_as_one_unit():
    # the split double pair near lambda = -0.0025 moves together by about 100 gaps per step
    grid = np.geomspace(1e-4, 1e-1, 121)
    bs = track_branches(PRESETS["anisotropic_elastic_2d"].build(), axis_direction(2), grid)
    assert np.array_equal(bs.rho_grid, grid)


def test_step_ratios_hold_a_unit_by_its_centre_and_its_members():
    pair = np.array([-0.5e-3j, 0.5e-3j])          # gap 1e-3
    prev = np.concatenate([pair, [10.0]])[None, :]
    # translated by 100 gaps beside a root 10,000 gaps away: the centre moves 1/100 of its room
    ratio, perm = rootkit._step_ratios(prev, prev + [0.1, 0.1, 0.0])
    assert ratio[0] == pytest.approx(0.01) and perm.tolist() == [[0, 1, 2]]
    # the same pair rotated about its centre by 0.6 rad: each member moves sin(0.3) > 1/4 of the gap
    cand = np.concatenate([0.1 + pair * np.exp(0.6j), [10.0]])[None, :]
    assert rootkit._step_ratios(prev, cand)[0][0] == pytest.approx(np.sin(0.3))
    # the centre moves 0.3 of its distance to the third root
    prev = np.concatenate([pair, [1.0]])[None, :]
    assert rootkit._step_ratios(prev, prev + [0.3, 0.3, 0.0])[0][0] == pytest.approx(0.3)
    # a third root within 10 gaps: no unit, each root is held to its own gap
    prev = np.concatenate([pair, [5e-3]])[None, :]
    assert rootkit._step_ratios(prev, prev + [0.01, 0.01, 0.0])[0][0] == pytest.approx(10.0)


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
        # the restriction-root tables read the real parts as sorted
        assert np.all(np.diff(got.real, axis=1) >= 0)
        for row, z in zip(c, got):
            assert np.array_equal(z, roots(UnivariatePoly.of(row)))


def test_companion_start_equals_np_roots(rng):
    c = _random_symbol_rows(rng, n_stacks=10)[4]
    c[::3, :2] = 0.0                       # some rows with a double zero root
    c[1::3, 0] = 0.0                       # and some with a simple one
    c[::2] = c[::2].real                   # and half the rows real
    real = ~np.any(c.imag, axis=1)
    assert real.any() and not real.all()
    # `roots_batch` passes each kind of row on its own: real rows with a real dtype
    for rows in (c[real].real, c[~real]):
        for row, z in zip(rows, _companion_eigvals(rows)):
            # np.roots takes a real polynomial's real companion matrix
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


# ---------------------------------------------------------------------------
# real rows: the real companion start, conjugate closure and the pair refinement


def _real_rows_with_known_roots(rng, n=300):
    """Real monic rows of degree 2..7 built from well separated real roots and conjugate pairs."""
    rows = []
    for _ in range(n):
        m = int(rng.integers(2, 8))
        pairs = int(rng.integers(0, m // 2 + 1))
        centres = rng.permutation(np.linspace(-3.0, 3.0, 13))[: m - pairs]
        zs = list(centres[: m - 2 * pairs])
        for x in centres[m - 2 * pairs :]:
            y = rng.uniform(0.3, 2.0)
            zs += [x + 1j * y, x - 1j * y]
        rows.append(np.poly(zs).real[::-1])
    return rows


def test_real_rows_are_conjugate_closed_bit_for_bit(rng, stacks):
    rows = _real_rows_with_known_roots(rng)
    for row in rows:
        z = roots_batch(row[None, :])[0]
        assert np.array_equal(np.sort_complex(z), np.sort_complex(np.conj(z)))
        # the roots built real come back with an imaginary part of exactly 0
        assert np.count_nonzero(z.imag == 0) == np.count_nonzero(np.abs(z.imag) < 0.1)
    for name in ("em_elastic", "anisotropic_elastic_2d", "fourth_order_weak"):
        stack = stacks[name]
        c = RadialRootSolver(stack, axis_direction(stack.dim)).mu_coeffs(default_rho_grid())
        for z in roots_batch(c):
            assert np.array_equal(np.sort_complex(z), np.sort_complex(np.conj(z))), name


def test_double_roots_of_real_rows_are_exact(stacks):
    # (x + 1)^2 (x + 2): the real companion start splits the double into a +-2.8e-8 i pair
    assert np.array_equal(roots_batch(np.array([[2.0, 5.0, 4.0, 1.0]]))[0], [-2.0, -1.0, -1.0])
    assert np.array_equal(roots(UnivariatePoly.of([1.0, 2.0, 1.0])), [-1.0, -1.0])
    # the kappa quadratic of anisotropic_elastic_2d's double low-frequency root
    from hyperdecay.asymptotics import ExpansionCase, low_freq_expansions

    recs = low_freq_expansions(stacks["anisotropic_elastic_2d"], Direction((1.0, 0.0)))
    kp, km = (r.terms[1][1] for r in recs if r.case is ExpansionCase.DOUBLE)
    assert kp == km and kp.imag == 0 and kp == pytest.approx(-1.0, abs=1e-15)


def test_real_row_gets_the_same_roots_alone_and_in_any_batch(rng):
    real = np.array([r for r in _real_rows_with_known_roots(rng, 40) if len(r) == 5])
    # (x + 1)^4 and x (x + 1)^2 (x + 2)
    real = np.concatenate([real, [[1.0, 4.0, 6.0, 4.0, 1.0], [0.0, 2.0, 5.0, 4.0, 1.0]]])
    complex_rows = real * np.exp(0.3j) + 0.1j * rng.normal(size=real.shape)
    mixed = np.concatenate([complex_rows[:7], real, complex_rows[7:]])
    alone = [roots_batch(row[None, :])[0] for row in real]
    for batch, offset in ((roots_batch(real), 0), (roots_batch(mixed), 7)):
        for i, z in enumerate(alone):
            assert np.array_equal(batch[offset + i], z)


def test_aberth_sweeps_on_while_a_row_fails_the_certificate():
    # from this start a sweep improves none of the residuals while the row is far
    # from the certificate; only a row that already passes may stop on that
    c = np.poly([-0.9, 0.4, 0.2])[::-1][None, :].astype(complex)
    z, res = rootkit._aberth(c, np.array([[-2 - 3j, -4 + 3j, -1]]))
    assert np.max(res) <= TOL.root_residual_rtol
    assert np.allclose(np.sort(z[0].real), [-0.9, 0.2, 0.4]) and np.allclose(z[0].imag, 0)


def test_the_rounding_floor_of_an_exact_double_root_is_second_order(stacks):
    # anisotropic_elastic_2d's axis at rho = 1e-4: the slow pair lies 2.6e-12 apart in mu
    # (60-digit mpmath), below what rounding resolves, and comes back as one double root
    solver = RadialRootSolver(stacks["anisotropic_elastic_2d"], axis_direction(2))
    lam, noise = solver.lambdas_with_noise(np.array([1e-4]))
    assert lam[0, 2] == lam[0, 3]
    # p' vanishes there; the floor is sqrt(2 eps bound / |p''|), about 3e-16 in lambda
    assert np.all((noise[0, 2:] > 0) & (noise[0, 2:] < 1e-15))
    # every root's floor is the smaller of the two bounds, as the reference writes them out
    ref_lam, ref_noise = _lambdas_with_noise(solver, 1e-4)
    assert np.array_equal(lam[0], ref_lam) and np.array_equal(noise[0], ref_noise)


def test_a_near_double_pair_is_backward_stable(stacks):
    """em_elastic's axis near rho = 1.5e-4: the pair near -1 against the rounded row's own roots.

    Every root passes the residual certificate either way, but Aberth's single
    roots put the pair's sum off by 3.6e-9; the refined quadratic factor gives
    the sum and product of the rounded coefficients' pair to rounding.
    """
    mp = pytest.importorskip("mpmath")
    stack = stacks["em_elastic"]
    for rho in (1e-4, 1.5e-4, 3e-4, 1e-3):
        c = symbol_coeffs(stack, np.array([[0.0, 0.0, rho]]))[0]
        z = roots_batch(c[None, :])[0]
        pair = z[np.argsort(np.abs(z + 1.0))[:2]]
        with mp.workdps(60):
            ref = mp.polyroots([mp.mpf(x.real) for x in c[::-1]], maxsteps=200, extraprec=400)
            ref = sorted(ref, key=lambda r: abs(r + 1))[:2]
            want_sum, want_prod = complex(ref[0] + ref[1]), complex(ref[0] * ref[1])
        assert abs(pair.sum() - want_sum) <= 1e-15 * abs(want_sum), rho
        assert abs(np.prod(pair) - want_prod) <= 1e-15 * abs(want_prod), rho


def test_propagator_roots_equal_per_rho_roots(stacks):
    rho = default_rho_grid()
    for name, stack in stacks.items():
        d = axis_direction(stack.dim)
        prop = RadialPropagator(stack, d, rho)
        solver = RadialRootSolver(stack, d)
        for i in range(0, len(rho), 7):
            assert np.array_equal(prop.lams[i], solver.lambdas(rho[i])), (name, rho[i])
