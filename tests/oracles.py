"""Reference implementations kept apart from the library's kernels.

`_propagate_companion` advances one mode's companion system by scaling and
squaring matrix exponentials; it uses the symbol coefficients only, never the
roots, so tests compare the divided-difference kernel against it.

`track_branches_recursive` is the depth-first branch tracker: one root solve
per point, the step test on the labelled previous set, and a union-find
cluster search at every accepted point.  The level-wise tracker must return
exactly what it returns.
"""

import numpy as np
from scipy.linalg import expm

from hyperdecay.rootkit import (BisectionLimitError, RadialRootSolver, RootBranchSet, RootCluster, _match,
                                _polyder, _polyval, _TINY, companion, roots_batch)
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
    """Roots at one rho plus the rounding floor eps * bound(p, z) / |p'(z)| per root."""
    c = solver.mu_coeffs(rho)
    mu = roots_batch(c[None, :])[0]
    bound = _polyval(np.abs(c), np.abs(mu))
    dval = np.abs(_polyval(_polyder(c), mu))
    noise = np.finfo(float).eps * bound / np.maximum(dval, _TINY)
    return rho * mu, rho * noise


def find_clusters(zs, tol: float) -> list[RootCluster]:
    """Greedy union of roots within `tol` of each other."""
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
        out.append(RootCluster(frozenset(members), center, radius))
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
        for cl in find_clusters(zs, tol):
            events.append((rho, tuple(sorted(cl.indices)), cl.radius * 2.0))

    note_clusters(rhos[0], current)

    def accept(rho_b: float, ordered: np.ndarray, cand_noise: np.ndarray, perm: np.ndarray):
        rhos.append(rho_b)
        cols.append(ordered)
        noises.append(cand_noise[perm])
        note_clusters(rho_b, ordered)

    def advance(prev: np.ndarray, rho_a: float, rho_b: float, depth: int, parent_ratio: float):
        cand, cand_noise = _lambdas_with_noise(solver, rho_b)
        ordered, perm = _match(prev, cand)
        diff = np.abs(prev[:, None] - prev[None, :])
        np.fill_diagonal(diff, np.inf)
        own_gap = np.min(diff, axis=1)
        gap = float(np.min(own_gap))
        cluster_tol = TOL.cluster_rtol * (1.0 + float(np.max(np.abs(prev))))
        held = own_gap >= cluster_tol
        ratio = float(np.max(np.abs(prev - ordered)[held] / own_gap[held], initial=0.0))
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
