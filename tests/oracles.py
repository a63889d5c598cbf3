"""Reference implementations kept apart from the library's kernels.

`_propagate_companion` advances one mode's companion system by scaling and
squaring matrix exponentials; it uses the symbol coefficients only, never the
roots, so tests compare the divided-difference kernel against it.

`track_branches_recursive` is the depth-first branch tracker: one root solve
per point, the step test root by root on the labelled previous set (a unit
pair's centre and members, any other root alone), a brute-force matcher of
its own and a union-find cluster search at every accepted point.  The
level-wise tracker must return exactly what it returns.

`symbol_value` evaluates a symbol at one point term by term, the reference
for the batched coefficient views; `restricted` is one direction's row of
`restriction_coeffs` as a polynomial.  `abscissa_verdict` checks strict
stability directly from the largest real part of the roots, the cross-check
of the interlacing criteria; `routh_hurwitz_cubic` is the closed-form
Routh-Hurwitz test of a cubic, a cross-check of the root solver.

`semilinear_exponential` is the companion exponential of every distinct
symbol row of a box run, from a complex transform; `reference_step` is one
ETD1 step of a box run with Phi summed over the input coordinates and W over
the full spectrum, zero off the two-thirds block, against which the
library's block-only step is compared bit for bit.
"""

from itertools import permutations

import numpy as np
from scipy.linalg import expm

from hyperdecay.rootkit import (UNIT_FACTOR, BisectionLimitError, RadialRootSolver, RootBranchSet,
                                companion, roots_batch)
from hyperdecay.solver import exp_newton
from hyperdecay.stability import sample_directions
from hyperdecay.symbols import DimensionMismatchError, UnivariatePoly, restriction_coeffs
from hyperdecay.tolerances import TOL

_SUBSTEP_NORM = 4.0
_MAX_SUBSTEPS = 2_000


def _propagate_companion(coeffs: np.ndarray, data: np.ndarray, t, k: int):
    """Companion-system route: scaling-and-squaring exponential of the mode matrix.

    The system is rebalanced by a root-magnitude bound (lambda = sigma * mu) and,
    when the total phase sigma*t is moderate, advanced by repeated application
    of one sub-threshold exponential, which avoids compounding the non-normal
    amplification through repeated squaring.  Very long horizons fall back to
    one exponential per requested time (accurate for the damped spectra this
    route serves).
    """
    c = np.asarray(coeffs, dtype=complex)
    c = c / c[-1]
    m = len(c) - 1
    if k >= m:
        raise ValueError(f"companion route reads state coordinate k; need k < {m}")
    mags = [abs(c[r]) ** (1.0 / (m - r)) for r in range(m) if c[r] != 0]
    sigma = max(1.0, *mags) if mags else 1.0
    scaled = np.array([c[r] / sigma ** (m - r) for r in range(m + 1)])
    a = companion(scaled)
    dvec = sigma ** np.arange(m)
    data_mu = np.asarray(data, dtype=complex) / dvec
    t = np.atleast_1d(np.asarray(t, dtype=float))
    order = np.argsort(t)
    taus = sigma * t[order]
    anorm = float(np.linalg.norm(a, 1))
    out = np.empty(len(t), dtype=complex)
    total_steps = anorm * (taus[-1] if len(taus) else 0.0) / _SUBSTEP_NORM
    if total_steps <= _MAX_SUBSTEPS:
        state = data_mu.copy()
        prev = 0.0
        cache: dict[float, np.ndarray] = {}
        for pos, tau in zip(order, taus):
            gap = tau - prev
            if gap > 0:
                n = max(1, int(np.ceil(anorm * gap / _SUBSTEP_NORM)))
                h = gap / n
                e = cache.get(h)
                if e is None:
                    e = expm(a * h)
                    cache = {h: e}
                for _ in range(n):
                    state = e @ state
            prev = tau
            out[pos] = state[k] * sigma**k
    else:
        for pos, tau in zip(order, taus):
            out[pos] = (expm(a * tau) @ data_mu)[k] * sigma**k
    return out


def _lambdas_with_noise(solver: RadialRootSolver, rho: float):
    """Roots at one rho plus the rounding floor per root.

    The floor is eps * bound(p, z) / |p'(z)|, or sqrt(2 eps * bound(p, z) / |p''(z)|)
    where that is smaller (p' vanishes at an exact double root), with bound(p, z)
    = sum |c_i||z|^i; the polynomials are evaluated by numpy's `polyval`.
    """
    c = solver.mu_coeffs(rho)
    mu = roots_batch(c[None, :])[0]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    desc = c[::-1]
    bound = np.polyval(np.abs(desc), np.abs(mu))
    d1 = np.polyder(desc)
    noise = eps * bound / np.maximum(np.abs(np.polyval(d1, mu)), tiny)
    if len(c) > 2:
        second = np.sqrt(2.0 * eps * bound / np.maximum(np.abs(np.polyval(np.polyder(d1), mu)), tiny))
        noise = np.minimum(noise, second)
    return rho * mu, rho * noise


def match_roots(prev: np.ndarray, cand: np.ndarray):
    """(cand[perm], perm): cand[perm[i]] continues prev[i] at minimum total distance.

    Every permutation is tried with prev and cand in canonical (Re, Im) order,
    each total summed over the rows in order; the first minimum in
    `itertools.permutations` order wins a tie, so the labels of prev never
    decide it.
    """
    rows, cols = (np.lexsort((z.imag, z.real)) for z in (prev, cand))
    cost = np.abs(prev[rows][:, None] - cand[cols][None, :])
    best = min(permutations(range(len(cand)), len(prev)),
               key=lambda p: sum(cost[i, j] for i, j in enumerate(p)))
    perm = np.empty(len(prev), dtype=int)
    perm[rows] = cols[list(best)]
    return cand[perm], perm


def find_clusters(zs, tol: float) -> list[tuple[tuple[int, ...], float]]:
    """Greedy union of roots within `tol` of each other: (sorted indices, diameter) per cluster,
    the diameter being twice the largest distance from the cluster's mean."""
    zs = np.asarray(zs)
    n = len(zs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(zs[i] - zs[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        if len(members) < 2:
            continue
        pts = zs[members]
        center = complex(np.mean(pts))
        radius = float(np.max(np.abs(pts - center)))
        out.append((tuple(sorted(members)), radius * 2.0))
    return out


def track_branches_recursive(stack, d, rho_grid, max_bisections: int = 20) -> RootBranchSet:
    """Depth-first continuation of the m root branches along rho * d."""
    grid = np.asarray(rho_grid, dtype=float)
    solver = RadialRootSolver(stack, d)
    rhos: list[float] = [float(grid[0])]
    lam0, noise0 = _lambdas_with_noise(solver, grid[0])
    order0 = np.lexsort((lam0.imag, lam0.real))
    current = lam0[order0]
    cols: list[np.ndarray] = [current]
    noises: list[np.ndarray] = [noise0[order0]]
    events: list[tuple[float, tuple[int, ...], float]] = []

    def note_clusters(rho: float, zs: np.ndarray):
        tol = TOL.cluster_rtol * (1.0 + float(np.max(np.abs(zs))))
        for members, diameter in find_clusters(zs, tol):
            events.append((rho, members, diameter))

    note_clusters(rhos[0], current)

    def accept(rho_b: float, ordered: np.ndarray, cand_noise: np.ndarray, perm: np.ndarray):
        rhos.append(rho_b)
        cols.append(ordered)
        noises.append(cand_noise[perm])
        note_clusters(rho_b, ordered)

    def advance(prev: np.ndarray, rho_a: float, rho_b: float, depth: int, parent_ratio: float):
        cand, cand_noise = _lambdas_with_noise(solver, rho_b)
        ordered, perm = match_roots(prev, cand)
        diff = np.abs(prev[:, None] - prev[None, :])
        np.fill_diagonal(diff, np.inf)
        own_gap = np.min(diff, axis=1)
        gap = float(np.min(own_gap))
        cluster_tol = TOL.cluster_rtol * (1.0 + float(np.max(np.abs(prev))))
        moved = ordered - prev
        ratio = 0.0
        for i in np.flatnonzero(own_gap >= cluster_tol):
            j = int(np.argmin(diff[i]))
            others = [k for k in range(len(prev)) if k not in (i, j)]
            if all(min(diff[i, k], diff[j, k]) > UNIT_FACTOR * own_gap[i] for k in others):
                # a unit: the centre held to its distance from the others, the member to the gap
                centre = 0.5 * (prev[i] + prev[j])
                to_others = min((np.abs(prev[k] - centre) for k in others), default=np.inf)
                ratio = max(ratio, np.abs(0.5 * (moved[i] + moved[j])) / to_others,
                            np.abs(0.5 * (moved[i] - moved[j])) / own_gap[i])
            else:
                ratio = max(ratio, np.abs(moved[i]) / own_gap[i])
        if ratio <= 0.25:
            accept(rho_b, ordered, cand_noise, perm)
            return ordered
        if depth >= max_bisections:
            if ratio >= 0.8 * parent_ratio:
                # collision: bisection no longer separates movement from gap
                events.append((rho_b, divmod(int(np.argmin(diff)), len(prev)), gap))
                accept(rho_b, ordered, cand_noise, perm)
                return ordered
            raise BisectionLimitError(rho_a, rho_b, f"movement/gap ratio {ratio:.3g} after {depth} bisections")
        mid = 0.5 * (rho_a + rho_b)
        half = advance(prev, rho_a, mid, depth + 1, ratio)
        return advance(half, mid, rho_b, depth + 1, ratio)

    current_state = current
    for rho_b in grid[1:]:
        current_state = advance(current_state, rhos[-1], float(rho_b), 0, np.inf)

    branches = np.stack(cols, axis=1)
    noise = np.stack(noises, axis=1)
    return RootBranchSet(direction=d, rho_grid=np.asarray(rhos), branches=branches,
                         cluster_events=events, noise=noise)


def symbol_value(sym, lam: complex, xi) -> complex:
    """Value of the real symbol P(lambda, xi) at a point."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (sym.dim,):
        raise DimensionMismatchError(f"xi shape {xi.shape} != ({sym.dim},)")
    total = 0.0 + 0.0j
    for (k, alpha), c in sym.terms():
        total += c * lam**k * np.prod(xi ** np.asarray(alpha))
    return total


def restricted(sym, d) -> UnivariatePoly:
    """The restriction P(lambda, d) of a symbol to direction d."""
    return UnivariatePoly.of(restriction_coeffs(sym, d.vector()[None, :])[0])


ABSCISSA_MARGIN = 1e-10


def abscissa_verdict(stack) -> tuple[bool, float]:
    """Direct check max Re lambda < -ABSCISSA_MARGIN over sampled xi != 0.

    Returns (verdict, worst_abscissa).  Sampling: about 64 points with radii
    in [1e-2, 1e2], on the first two sampled directions of isotropic or 1-d
    stacks and on 8 spread directions otherwise.
    """
    dirs = sample_directions(stack.dim, stack.isotropic)
    dirs = dirs[:2] if stack.isotropic or stack.dim == 1 else dirs[:: max(1, len(dirs) // 8)][:8]
    radii = np.geomspace(1e-2, 1e2, max(1, 64 // len(dirs)))
    worst = max(float(np.max(RadialRootSolver(stack, d).lambdas_grid(radii).real)) for d in dirs)
    return worst < -ABSCISSA_MARGIN, worst


def routh_hurwitz_cubic(a2: float, a1: float, a0: float) -> bool:
    """Strict stability of z^3 + a2 z^2 + a1 z + a0 with positive coefficients."""
    if a2 <= 0 or a1 <= 0 or a0 <= 0:
        raise ValueError("all coefficients must be positive")
    return a0 < a1 * a2


def semilinear_exponential(run, dt: float, lead: int) -> np.ndarray:
    """The first `lead` rows of e^(C dt) T for every distinct row of a box run, as (lead, m + 1, rows).

    C is the companion matrix of lambda Q(lambda) and T = [[I, 0], [-c, 1]]
    (see `semilinear._build_propagator`), here always built complex.
    """
    m, n = run.m, len(run._lams)
    zero = np.zeros((n, 1))
    tmat = np.tile(np.eye(m + 1, dtype=complex), (n, 1, 1))
    tmat[:, m, :m] = -run._coeffs[:, :m]
    return exp_newton(np.hstack([zero, run._coeffs]), np.hstack([zero, run._lams]), tmat, dt, 0,
                      lead=lead)[0].transpose(1, 2, 0)


def reference_step(run, dt: float) -> np.ndarray:
    """The state one ETD1 step of dt after `run.state`, with W(dt) stored on every mode.

    Phi state is phi[:, j] * state[j] summed over j; the source is
    sign |u_nu|^p by `rfftn`, times W, which is zero where the two-thirds rule
    drops a mode.  The run is not changed.
    """
    m = run.m
    e = semilinear_exponential(run, dt, m)
    if not np.any(run._coeffs.imag):
        e = e.real
    phi = np.take(e[:, :m], run._rows, axis=-1)
    k = np.abs(run.frequencies())
    keep = np.all(k <= (2.0 / 3.0) * np.max(k), axis=0)
    w = np.take(e[:, m], run._rows, axis=-1) * keep.reshape(-1)
    flat = run.state.reshape(m, -1)
    new = phi[:, 0] * flat[0]
    for j in range(1, m):
        new += phi[:, j] * flat[j]
    if run.sign != 0:
        fval = run.sign * np.abs(run.physical(run.nu)) ** run.p
        new += w * np.fft.rfftn(fval, axes=tuple(range(run.dim))).reshape(-1)
    return new.reshape(run.state.shape)
