"""Polynomial root extraction and root-branch continuation along radial rays.

Roots come from companion-matrix eigenvalues refined by Aberth-Ehrlich sweeps;
the guarantee is a residual bound |p(z)| <= 1e-10 * sum_i |c_i||z|^i per root.
A row with real coefficients starts from the eigenvalues of its real
companion matrix, and its roots come back closed under conjugation bit for
bit, real roots with an imaginary part of exactly 0.  A row whose roots all
pass the certificate stops sweeping once a sweep improves none of its
residuals: Aberth cannot separate a double root that the real start splits
into a conjugate pair.  Such a pair, and any lone pair of a real row's roots
(two roots close to each other and to no third: the one test `_lone_pairs`),
is refined as a quadratic factor (Bairstow's Newton step on the division
remainder) and read from its discriminant as a double root, two real roots
or a conjugate pair, so its sum and product are those of the rounded
coefficients.  Branch tracking solves the scaled polynomial in mu =
lambda/rho (well conditioned at both ends of the ray), bisects level by
level with one kernel call per level, holds a lone pair as one unit, and
matches consecutive root sets by a minimum-total-distance assignment
(`assign`, the one matcher).  `root_groups` is the one grouping of nearby
roots by chains: cluster events in tracking, double roots in the
asymptotics and the scenario flags read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count, permutations
from typing import Sequence

import numpy as np

from .symbols import Direction, OperatorStack, UnivariatePoly, full_symbol_at, stack_rows, turned
from .tolerances import TOL

ABERTH_MAX_SWEEPS = 100
MAX_BISECTIONS = 20
_TINY = np.finfo(float).tiny
BATCH_ROWS = 512        # rows per eigvals call and Aberth sweep; bounds the kernel's temporaries
ASSIGN_MAX_M = 8        # most columns `assign` enumerates: 8! = 40,320 injections
ASSIGN_CHUNK = 1 << 18  # (row, injection) costs summed at once by `assign`
PAIR_RTOL = 1e4 * np.sqrt(np.finfo(float).eps)  # roots this close (relative) are refined as a pair
PAIR_STEPS = 2          # Bairstow steps per refined pair
DISC_ULPS = 4.0         # a pair's discriminant within this many rounding units of u^2 + 4|v| is zero
UNIT_FACTOR = 10.0      # a pair is one unit in tracking when every other root is this many gaps away


class RootfindingError(RuntimeError):
    pass


class NonRealRootsError(ValueError):
    def __init__(self, bad_root: complex):
        self.bad_root = bad_root
        super().__init__(f"polynomial has a non-real root {bad_root!r}")


class BisectionLimitError(RuntimeError):
    def __init__(self, rho_a: float, rho_b: float, detail: str = ""):
        self.interval = (rho_a, rho_b)
        super().__init__(
            f"branch matching could not be resolved on rho interval ({rho_a!r}, {rho_b!r})"
            + (f": {detail}" if detail else "")
        )


# ---------------------------------------------------------------------------
# core root extraction


def _polyval(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z) for ascending coefficients c[..., d+1] at points z[..., k].

    Horner's rule in the operation order of numpy's `polyval`, so a row gets
    the same bits alone or inside a batch.
    """
    v = c[..., -1, None] + z * 0
    for i in range(c.shape[-1] - 2, -1, -1):
        v = c[..., i, None] + v * z
    return v


def _polyder(c: np.ndarray) -> np.ndarray:
    """Coefficients of p' for ascending coefficients c[..., d+1]."""
    return c[..., 1:] * np.arange(1, c.shape[-1])


def _residuals(c: np.ndarray, z: np.ndarray, vals: np.ndarray | None = None) -> np.ndarray:
    """|p(z)| normalized by the coefficient-magnitude bound sum |c_i||z|^i.

    `vals` may pass p(z) when the caller has it already.
    """
    vals = _polyval(c, z) if vals is None else vals
    return np.abs(vals) / np.maximum(_polyval(np.abs(c), np.abs(z)), _TINY)


def companion(c: np.ndarray) -> np.ndarray:
    """Companion matrices of the polynomials c[..., m+1] (ascending); shape (..., m, m).

    Ones on the superdiagonal and last row -c[:m] / c[m]: the state matrix of
    the mode equation in the state (u, d_t u, ..., d_t^(m-1) u).  Real
    coefficients give a real matrix, any other a complex one.
    """
    c = np.asarray(c)
    c = c.astype(complex if np.iscomplexobj(c) else float, copy=False)
    m = c.shape[-1] - 1
    a = np.zeros(c.shape[:-1] + (m, m), dtype=c.dtype)
    a[..., np.arange(m - 1), np.arange(1, m)] = 1.0
    a[..., -1, :] = -c[..., :m] / c[..., m:]
    return a


def _companion_eigvals(c: np.ndarray) -> np.ndarray:
    """Starting roots per row of c[N, m+1], as `np.roots` computes them.

    Low-order coefficients that are exactly zero become exact-zero roots
    (listed last); the rest are the eigenvalues of the reduced companion
    matrix in `np.roots`' index-reversed layout, one stacked `eigvals` call
    per count of such zeros.  Real rows (a real dtype) get their real
    companion matrix, whose eigenvalues are exact conjugate pairs, listed
    positive imaginary part first, and exact reals; complex rows the
    complex matrix.
    """
    m = c.shape[1] - 1
    zeros = np.argmax(c != 0, axis=1)
    if not zeros.any():
        return np.linalg.eigvals(companion(c)[:, ::-1, ::-1]).astype(complex, copy=False)
    z = np.zeros((c.shape[0], m), dtype=complex)
    for k in np.unique(zeros[zeros < m]):
        rows = np.nonzero(zeros == k)[0]
        z[rows, : m - k] = np.linalg.eigvals(companion(c[rows, k:])[:, ::-1, ::-1])
    return z


def _aberth(c: np.ndarray, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aberth-Ehrlich sweeps on the rows of z0[N, m], roots of c[N, m+1].

    Each row keeps its best iterate by residual and stops on its own: once
    all its residuals are <= 1e-15, once a sweep improves none of them while
    they all pass the certificate TOL.root_residual_rtol, once its largest
    relative step is below 1e-16, or after ABERTH_MAX_SWEEPS sweeps.  Finished rows leave the sweep.
    Returns the best iterates and their residuals.
    """
    dc = _polyder(c)
    m = z0.shape[1]
    diag = np.arange(m)
    out, out_res = np.empty_like(z0), np.empty(z0.shape)
    rows = np.arange(len(z0))          # original index of each row still sweeping
    z = z0
    p = _polyval(c, z)
    best, best_res = z, _residuals(c, z, p)
    for _ in range(ABERTH_MAX_SWEEPS):
        dp = _polyval(dc, z)
        newton = p / np.where(np.abs(dp) < _TINY, _TINY, dp)
        diff = z[:, :, None] - z[:, None, :]
        diff[:, diag, diag] = np.inf
        # exactly coincident iterates exert no repulsion (multiple roots)
        diff[diff == 0] = np.inf
        s = np.sum(np.divide(1.0, diff, out=diff), axis=2)
        denom = 1.0 - newton * s
        with np.errstate(invalid="ignore", over="ignore"):
            step = newton / np.where(np.abs(denom) < 1e-300, 1.0, denom)
            step = np.where(np.isfinite(step), step, 0.0)
            # cap runaway corrections; companion eigenvalues start close already
            cap = 0.5 * (1.0 + np.abs(z))
            mag = np.abs(step)
            too_big = mag > cap
            step = np.where(too_big, step / np.where(mag == 0, 1.0, mag) * cap, step)
        z = z - step
        p = _polyval(c, z)
        res = _residuals(c, z, p)
        improved = res < best_res
        best = np.where(improved, z, best)
        best_res = np.where(improved, res, best_res)
        worst = np.max(best_res, axis=1)
        done = ((worst <= 1e-15) | ((worst <= TOL.root_residual_rtol) & ~np.any(improved, axis=1))
                | (np.max(np.abs(step) / (1.0 + np.abs(z)), axis=1) < 1e-16))
        if done.any():
            out[rows[done]], out_res[rows[done]] = best[done], best_res[done]
            keep = ~done
            rows, c, dc, z, p = rows[keep], c[keep], dc[keep], z[keep], p[keep]
            best, best_res = best[keep], best_res[keep]
            if rows.size == 0:
                break
    out[rows], out_res[rows] = best, best_res
    return out, out_res


def _close_conjugates(c: np.ndarray, start: np.ndarray, z: np.ndarray, res: np.ndarray) -> None:
    """Make the roots z[N, m] of real rows closed under conjugation bit for bit, in place.

    Aberth's sweeps keep a real row's roots conjugate-closed only up to
    rounding.  The start lists each conjugate pair next to each other,
    positive imaginary part first (the order of a real `eigvals`); the pair
    becomes its member with the smaller residual and that member's
    conjugate, which has the same residual.  A root that started real drops
    the imaginary part the pairs' rounding can give it, and only such roots
    have their residuals recomputed.
    """
    rows, i = np.nonzero(start.imag > 0)
    if rows.size == 0:
        return      # all-real iterates of a real row stay exactly real through the sweeps
    j = i + 1
    zi, zj, ri, rj = z[rows, i], z[rows, j], res[rows, i], res[rows, j]
    w = np.where(ri <= rj, zi, np.conj(zj))
    z[rows, i], z[rows, j] = w, np.conj(w)
    res[rows, i] = res[rows, j] = np.minimum(ri, rj)
    rows, k = np.nonzero((start.imag == 0) & (z.imag != 0))
    if rows.size:
        z[rows, k] = z[rows, k].real
        res[rows, k] = _residuals(c[rows], z[rows, k, None])[:, 0]


def _refine_pairs(c: np.ndarray, z: np.ndarray, res: np.ndarray) -> None:
    """Refine each close pair of the roots z[N, m] of real rows as a quadratic factor, in place.

    Two roots form a pair when they are a lone pair (`_lone_pairs`) at
    PAIR_RTOL * (1 + max |z|).  The row being conjugate-closed, a pair of two
    real roots or a conjugate pair is a real quadratic factor, which
    `_pair_factor` refines.  The refined pair replaces Aberth's, with its
    residuals in res, when it passes the residual certificate and its centre
    lies within the pair tolerance of the old one.  Three or more mutually
    close roots keep Aberth's values, and so does a pair of exact zeros.
    """
    tol = PAIR_RTOL * (1.0 + np.max(np.abs(z), axis=1))
    lone, partner = _lone_pairs(_gaps(z), tol[:, None])
    rows, i = np.nonzero(lone & (partner > np.arange(z.shape[1])))
    if rows.size == 0:
        return
    j = partner[rows, i]
    zi, zj = z[rows, i], z[rows, j]
    # in a conjugate-closed row, a lone pair with opposite imaginary parts is two real roots
    # or a conjugate pair: a real quadratic factor; exact zeros (zero low-order coefficients)
    # need no refinement
    factor = (zi.imag == -zj.imag) & ((zi != 0) | (zj != 0))
    if not factor.all():
        rows, i, j, zi, zj = rows[factor], i[factor], j[factor], zi[factor], zj[factor]
    if rows.size == 0:
        return
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        new, new_res = _pair_factor(c[rows], -(zi + zj).real, (zi * zj).real)
    ok = (np.all(new_res <= TOL.root_residual_rtol, axis=1)
          & (np.abs(new.sum(axis=1) - (zi + zj)) <= 2.0 * tol[rows]))
    if not ok.all():
        rows, i, j, new, new_res = rows[ok], i[ok], j[ok], new[ok], new_res[ok]
    z[rows, i], z[rows, j] = new.T
    res[rows, i], res[rows, j] = new_res.T


def _pair_factor(c: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots and residuals, both [P, 2], of the quadratic factor x^2 + u x + v of each real row
    c[P, m+1], from the start (u, v).

    PAIR_STEPS Newton steps on the remainder of dividing p by the factor
    (Bairstow's method), then the pair is read from the discriminant
    D = u^2 - 4 v: a double root -u/2 when |D| is within DISC_ULPS rounding
    units of u^2 + 4 |v|, two real roots when D is larger, a conjugate pair
    when it is more negative.
    """
    m = c.shape[1] - 1
    a = c.real
    zero = np.zeros_like(u)
    for _ in range(PAIR_STEPS):
        # b_k = a_k - u b_(k+1) - v b_(k+2) from the top gives the remainder b_1 (x + u) + b_0;
        # d_k, the same recurrence on b, gives its derivatives: db_k/du = -d_(k+1), db_k/dv = -d_(k+2)
        b, d = [a[:, m], zero], [a[:, m], zero]
        for k in range(m - 1, -1, -1):
            b.insert(0, a[:, k] - u * b[0] - v * b[1])
            if k:
                d.insert(0, b[0] - u * d[0] - v * d[1])
        (b0, b1), (d1, d2, d3) = b[:2], d[:3]
        det = d2 * d2 - d1 * d3
        u = u + (b1 * d2 - b0 * d3) / det
        v = v + (b0 * d2 - b1 * d1) / det
    disc = u * u - 4.0 * v
    disc[np.abs(disc) <= DISC_ULPS * np.finfo(float).eps * (u * u + 4.0 * np.abs(v))] = 0.0
    centre, root = -0.5 * u, 0.5 * np.sqrt(np.abs(disc))
    q = centre - np.copysign(root, u)      # the real pair's root of larger magnitude; v / q is the other
    pair = np.stack([np.where(disc > 0, q, centre + 1j * root),
                     np.where(disc > 0, v / q, centre - 1j * root)], axis=1)
    return pair, _residuals(c, pair)


def roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """All roots of every row of coeffs[N, m+1] (ascending, nonzero leading term); shape (N, m).

    Real rows (no imaginary part) and complex rows are split once, and each
    kind is solved in blocks of BATCH_ROWS rows: stacked companion `eigvals`
    (real matrices for real rows), then Aberth-Ehrlich sweeps vectorized over
    the rows; real rows' roots are made conjugate-closed (`_close_conjugates`)
    and their close pairs refined as quadratic factors (`_refine_pairs`).
    Each row is solved on its own, so it gets the same roots alone as inside
    any batch.  Every root is certified by the residual bound
    TOL.root_residual_rtol, and each row is sorted canonically.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] < 2:
        raise RootfindingError(f"need coefficient rows of degree >= 1, got shape {c.shape}")
    nonfinite = np.nonzero(~np.all(np.isfinite(c), axis=1))[0]
    if nonfinite.size:
        raise RootfindingError(f"row {nonfinite[0]} has a non-finite coefficient")
    lead = np.nonzero(c[:, -1] == 0)[0]
    if lead.size:
        raise RootfindingError(f"row {lead[0]} has a zero leading coefficient")
    n, m = c.shape[0], c.shape[1] - 1
    if m == 1:
        z = -c[:, :1] / c[:, 1:]
        res = _residuals(c, z)
    else:
        z, res = np.empty((n, m), dtype=complex), np.empty((n, m))
        real = ~np.any(c.imag, axis=1)
        for rows in (kind[b:b + BATCH_ROWS] for kind in (np.flatnonzero(real), np.flatnonzero(~real))
                     for b in range(0, kind.size, BATCH_ROWS)):
            block, is_real = c[rows], real[rows[0]]
            start = _companion_eigvals(block.real if is_real else block)
            zb, rb = _aberth(block, start)
            if is_real:
                _close_conjugates(block, start, zb, rb)
                _refine_pairs(block, zb, rb)
            z[rows], res[rows] = zb, rb
    worst = np.max(res, axis=1)
    bad = np.nonzero(~(worst <= TOL.root_residual_rtol))[0]
    if bad.size:
        raise RootfindingError(
            f"root refinement left residual {worst[bad[0]]:.3e} above {TOL.root_residual_rtol:.1e} "
            f"in row {bad[0]} ({bad.size} of {n} rows fail)")
    return np.take_along_axis(z, _canonical_order(z), axis=1)


def roots(p: UnivariatePoly) -> np.ndarray:
    """All complex roots of p with multiplicity, refined companion eigenvalues."""
    if p.is_zero:
        raise RootfindingError("the zero polynomial has no well-defined root set")
    if p.degree == 0:
        raise RootfindingError("a degree-0 polynomial has no roots")
    return roots_batch(p.array()[None, :])[0]


def _rounding_floor(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """How far rounding the coefficients c[..., m+1] can move each root z[..., m].

    The first-order floor eps * bound(p, z) / |p'(z)|, or the second-order
    sqrt(2 eps * bound(p, z) / |p''(z)|) where that is smaller: at a double
    root, which a real row's refined pair can give exactly, p' vanishes.
    """
    eps = np.finfo(float).eps
    bound = _polyval(np.abs(c), np.abs(z))
    dc = _polyder(c)
    first = eps * bound / np.maximum(np.abs(_polyval(dc, z)), _TINY)
    if c.shape[-1] < 3:
        return first
    second = np.sqrt(2.0 * eps * bound / np.maximum(np.abs(_polyval(_polyder(dc), z)), _TINY))
    return np.minimum(first, second)


def _canonical_order(z: np.ndarray) -> np.ndarray:
    """Indices that order each row of z[N, m] by real part, then imaginary part."""
    return np.lexsort((z.imag, z.real), axis=1)


def is_real_root(z: complex) -> bool:
    return abs(z.imag) <= TOL.realness_rtol * (1.0 + abs(z))


def _gaps(z: np.ndarray) -> np.ndarray:
    """Distances |z_i - z_j| between the roots of each row of z[..., m]; inf on the diagonal."""
    m = z.shape[-1]
    diff = np.abs(z[..., :, None] - z[..., None, :])
    diff[..., np.arange(m), np.arange(m)] = np.inf
    return diff


def _lone_pairs(gaps: np.ndarray, thr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lone-pair flags and nearest neighbours, both [..., m], from root distances gaps[..., m, m].

    Root i and its nearest neighbour j are a lone pair when they lie within
    thr_i of each other and no other root lies within thr_i of either: i's
    group in `root_groups` at thr_i has exactly two members, read from the
    second-nearest distances of i and j instead of by chaining passes.
    """
    t = np.minimum(thr, np.finfo(float).max)    # finite, so the inf diagonal of gaps is never within it
    partner = np.argmin(gaps, axis=-1)
    ranked = np.sort(gaps, axis=-1)
    # clipped: with m = 1 the second-nearest distance is the inf diagonal
    first, second = ranked[..., 0], np.take(ranked, 1, axis=-1, mode="clip")
    lone = (first <= t) & (second > t) & (np.take_along_axis(second, partner, axis=-1) > t)
    return lone, partner


CONFLUENCE_RTOL = 1e-5     # diagnostic only; selects no route


def is_confluent(lams: np.ndarray) -> np.ndarray:
    """Rows of lams[..., m] whose smallest root gap is below CONFLUENCE_RTOL * (1 + max |lambda|).

    A diagnostic only: propagation serves such modes like any other.
    """
    lams = np.asarray(lams)
    return np.min(_gaps(lams), axis=(-2, -1)) < CONFLUENCE_RTOL * (1.0 + np.max(np.abs(lams), axis=-1))


# ---------------------------------------------------------------------------
# clusters


def root_groups(z: np.ndarray, tol) -> np.ndarray:
    """Group label of every root in each row of z[..., m], with tolerances tol[...].

    Roots within the row's tolerance of each other, directly or through a chain
    of such roots, form one group; its label is the smallest index in it.  On
    sorted real roots the groups are the runs with consecutive gaps <= tol.
    """
    z = np.asarray(z)
    m = z.shape[-1]
    near = np.abs(z[..., :, None] - z[..., None, :]) <= np.asarray(tol)[..., None, None]
    labels = np.broadcast_to(np.arange(m), z.shape)
    for _ in range(m - 1):   # a chain reaches at most m - 1 roots further
        labels = np.min(np.where(near, labels[..., None, :], m), axis=-1)
    return labels


# ---------------------------------------------------------------------------
# radial evaluation in the scaled variable mu = lambda / rho


class RadialRootSolver:
    """Roots of Q(lambda, i rho d) for varying rho > 0 along a fixed direction.

    Internally solves sum_j rho^(ell-j) P_{m-j}(mu, i d) = 0 for mu and
    returns lambda = rho * mu; the scaling keeps the vanishing branches well
    conditioned at small rho and the oscillatory ones at large rho.
    """

    def __init__(self, stack: OperatorStack, d: Direction):
        if d.dim != stack.dim:
            raise ValueError(f"direction dim {d.dim} != stack dim {stack.dim}")
        self.stack = stack
        self.direction = d
        self.m = stack.m
        self.ell = stack.ell
        # row j: P_{m-j}(mu, i d)
        self._pieces = turned(stack_rows(stack, d.vector()[None, :])[0], self.m - np.arange(self.ell + 1))

    def mu_coeffs(self, rho) -> np.ndarray:
        """Coefficients in mu at one rho, shape (m+1,), or at each of rho[N], shape (N, m+1)."""
        rho = np.asarray(rho, dtype=float)
        out = np.zeros(rho.shape + (self.m + 1,), dtype=complex)
        for j, arr in enumerate(self._pieces):
            out += (rho ** (self.ell - j))[..., None] * arr
        return out

    def _mu_roots(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho[N], coefficients[N, m+1], mu roots[N, m]) for a 1-d grid, from one kernel call."""
        rho = np.asarray(rho, dtype=float)
        if rho.ndim != 1 or not np.all((rho > 0) & np.isfinite(rho)):
            raise ValueError("rho must be a 1-d array of positive finite values")
        c = self.mu_coeffs(rho)
        return rho, c, roots_batch(c)

    def lambdas_grid(self, rho: np.ndarray) -> np.ndarray:
        """Roots at every rho of a 1-d grid, shape (N, m), from one kernel call."""
        rho, _, mu = self._mu_roots(rho)
        return rho[:, None] * mu

    def lambdas(self, rho: float) -> np.ndarray:
        return self.lambdas_grid(np.array([rho]))[0]

    def lambdas_with_noise(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Roots at every rho of a 1-d grid plus their rounding floors (`_rounding_floor`);
        both (N, m), each row in the canonical (Re, Im) order of lambda, from one
        kernel call."""
        rho, c, mu = self._mu_roots(rho)
        noise = _rounding_floor(c, mu)
        lam = rho[:, None] * mu
        order = _canonical_order(lam)
        return np.take_along_axis(lam, order, axis=1), np.take_along_axis(rho[:, None] * noise, order, axis=1)


def _lambdas_at(stack: OperatorStack, xi: np.ndarray) -> np.ndarray:
    """The m roots of Q(lambda, i xi) at one frequency: along its ray, or of the pure-time
    polynomial at xi = 0."""
    rho = float(np.linalg.norm(xi))
    if rho == 0.0:
        return roots(full_symbol_at(stack, xi))
    return RadialRootSolver(stack, Direction.of(xi)).lambdas(rho)


def spectral_abscissa(stack: OperatorStack, xi: Sequence[float]) -> float:
    """max_j Re lambda_j(xi) for the full symbol at one frequency."""
    return float(np.max(_lambdas_at(stack, np.asarray(xi, dtype=float)).real))


# ---------------------------------------------------------------------------
# branch tracking


@dataclass
class RootBranchSet:
    """Root curves lambda_j(rho * d) matched across an ascending rho grid."""

    direction: Direction
    rho_grid: np.ndarray
    branches: np.ndarray  # shape (m, len(rho_grid))
    cluster_events: list[tuple[float, tuple[int, ...], float]]
    noise: np.ndarray     # same shape; per-value rounding floor

    @property
    def m(self) -> int:
        return self.branches.shape[0]


@cache
def _injections(n: int, k: int) -> np.ndarray:
    """Every injection of n rows into k columns, lexicographically ordered; shape (P, n), read-only."""
    table = np.array(list(permutations(range(k), n)), dtype=int).reshape(-1, n)
    table.setflags(write=False)
    return table


def assign(cost) -> np.ndarray:
    """Minimum-total-cost matching of each cost[..., n, k] (n <= k); perm[..., n].

    Row i goes to column perm[..., i], no column twice.  Every injection of
    the rows into the columns is enumerated (lexicographic table, cached per
    (n, k)); each one's total is summed over the rows in order, and the first
    minimum in table order wins a tie.  So the result depends only on the
    costs and their order: callers that match root sets pass the previous
    roots in canonical (Re, Im) order.  Rows are summed in chunks of
    ASSIGN_CHUNK costs, and a row gets the same result alone as in a batch.
    More than ASSIGN_MAX_M columns raise ValueError before any table is built.
    """
    cost = np.asarray(cost, dtype=float)
    *batch, n, k = cost.shape
    if k > ASSIGN_MAX_M:
        raise ValueError(f"matching enumerates every permutation: m = {k} exceeds the limit "
                         f"m <= {ASSIGN_MAX_M}")
    if n > k:
        raise ValueError(f"cannot match {n} rows into {k} columns")
    table = _injections(n, k)
    flat = cost.reshape(-1, n, k)
    perm = np.empty((len(flat), n), dtype=int)
    rows = max(1, ASSIGN_CHUNK // len(table))
    for lo in range(0, len(flat), rows):
        part = flat[lo:lo + rows]
        total = np.zeros((len(part), len(table)))
        for i in range(n):
            total += part[:, i, table[:, i]]
        perm[lo:lo + rows] = table[np.argmin(total, axis=1)]
    return perm.reshape(*batch, n)


def _step_ratios(prev: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Movement/gap ratio and matching of each step from the roots prev[K, m] to cand[K, m].

    Roots are matched at minimum total distance (`assign`; cand[k, perm[k, i]]
    continues prev[k, i]).  Only a root of prev whose nearest neighbour lies at
    least the cluster tolerance away is held (ratio 0 when none is).  A held
    root and its nearest neighbour form a unit when every other root lies more
    than UNIT_FACTOR times their gap from both (`_lone_pairs` at that); the
    unit's centre is held to its distance from the other roots, and each member
    to the pair's gap once the centre's motion is removed, so a pair moving
    together by many gaps is one step.  Any other held root is held to the
    distance to its nearest neighbour.  Returns (ratio[K], perm[K, m]); the
    step is accepted at ratio <= 0.25.
    """
    idx = np.arange(prev.shape[1])
    perm = assign(np.abs(prev[:, :, None] - cand[:, None, :]))
    moved = np.take_along_axis(cand, perm, axis=1) - prev
    gaps = _gaps(prev)
    own_gap = np.min(gaps, axis=2)
    held = own_gap >= TOL.cluster_rtol * (1.0 + np.max(np.abs(prev), axis=1, keepdims=True))
    unit, partner = _lone_pairs(gaps, UNIT_FACTOR * own_gap)
    pair = (idx == idx[:, None]) | (idx == partner[:, :, None])   # pair[k, i, l]: l is root i or its partner
    moved_partner = np.take_along_axis(moved, partner, axis=1)
    centre = 0.5 * (prev + np.take_along_axis(prev, partner, axis=1))
    to_others = np.min(np.where(pair, np.inf, np.abs(prev[:, None, :] - centre[:, :, None])), axis=2)
    # a unit member's own motion is half the pair's relative motion; any other root's is all of it
    own = np.where(unit, 0.5 * (moved - moved_partner), moved)
    ratio = np.divide(np.abs(own), own_gap, out=np.zeros(own.shape), where=held)
    centre_ratio = np.divide(np.abs(0.5 * (moved + moved_partner)), to_others,
                             out=np.zeros(own.shape), where=held & unit)
    return np.max(np.maximum(ratio, centre_ratio), axis=1, initial=0.0), perm


def _bisect(solver: RadialRootSolver, grid: np.ndarray):
    """Every solved point as (rho[P], lam[P, m], noise[P, m]), roots in canonical
    order, and the accepted steps in ascending rho: their right ends b[S], a
    flag for collisions and their matchings perm[S, m].  A step is accepted at
    `_step_ratios` <= 0.25 (unit pairs by centre and members, other roots
    alone) and otherwise halved; each level's new points come from one solve."""
    rho, (lam, noise) = grid, solver.lambdas_with_noise(grid)
    a, b = np.arange(len(grid) - 1), np.arange(1, len(grid))
    parent_ratio = np.full(len(a), np.inf)
    accepted = []
    for depth in count():
        ratio, perm = _step_ratios(lam[a], lam[b])
        ok = ratio <= 0.25
        # at the depth cap, a step whose ratio bisection no longer reduces is a collision
        collide = ~ok & (ratio >= 0.8 * parent_ratio) & (depth >= MAX_BISECTIONS)
        keep = ok | collide
        accepted.append((a[keep], b[keep], collide[keep], perm[keep]))
        if keep.all():
            break
        if depth >= MAX_BISECTIONS:
            i = np.argmin(keep)
            raise BisectionLimitError(float(rho[a[i]]), float(rho[b[i]]),
                                      f"movement/gap ratio {ratio[i]:.3g} after {depth} bisections")
        a, b, parent_ratio = a[~keep], b[~keep], np.repeat(ratio[~keep], 2)
        mid = 0.5 * (rho[a] + rho[b])
        lam_mid, noise_mid = solver.lambdas_with_noise(mid)
        new = np.arange(len(rho), len(rho) + len(mid))
        rho, lam, noise = (np.concatenate(x) for x in ((rho, mid), (lam, lam_mid), (noise, noise_mid)))
        a, b = np.stack([a, new], axis=1).ravel(), np.stack([new, b], axis=1).ravel()
    a, b, collide, perm = (np.concatenate(x) for x in zip(*accepted))
    order = np.lexsort((rho[b], rho[a]))
    return rho, lam, noise, b[order], collide[order], perm[order]


def track_branches(stack: OperatorStack, d: Direction, rho_grid: Sequence[float]) -> RootBranchSet:
    """Continuation of the m root branches along rho * d for ascending rho > 0.

    A step is accepted when every root whose nearest neighbour in the previous
    set lies at least the cluster tolerance away moved at most a quarter of
    that distance (`_step_ratios`); otherwise it is bisected.  Each root is held
    to its own distance, so a fast pair does not force bisection beside a slow,
    close one.  The exception is a unit: a root and its nearest neighbour with
    every other root more than UNIT_FACTOR (10) times their gap away.  Its
    centre is held to a quarter of its distance to the other roots, and each
    member to a quarter of the gap once that common motion is removed, so a
    split pair moving together by many gaps per step is not bisected.  The
    test reads the two root sets in canonical order, not their labels, so
    bisection runs level by level with one `lambdas_with_noise` call per
    level.  At depth MAX_BISECTIONS a failing step whose ratio kept 0.8 of
    its parent's is a collision (branches genuinely meet) and is accepted with a
    cluster event; any other raises BisectionLimitError.  Branch j starts at the
    first point's rank-j root and follows the accepted steps' own matchings;
    each group of roots within the cluster tolerance (`root_groups`) is logged
    as a cluster event.
    """
    grid = np.asarray(rho_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("rho_grid must be a nonempty 1-d ascending array")
    if not np.all(np.isfinite(grid) & (grid > 0)) or np.any(np.diff(grid) <= 0):
        raise ValueError("rho_grid must be finite, positive and strictly ascending")

    rho, lam, noise, b, collide, steps = _bisect(RadialRootSolver(stack, d), grid)
    ranks = [np.arange(lam.shape[1])]   # canonical rank of each branch's root at each accepted point
    for step in steps:
        ranks.append(step[ranks[-1]])
    points = np.concatenate([[0], b])   # the accepted steps tile the grid from its first point
    ranks = np.stack(ranks, axis=1)
    branches, rho_out = lam[points, ranks], rho[points]

    zs = branches.T
    events: list[tuple[int, tuple[float, tuple[int, ...], float]]] = []
    for k in np.flatnonzero(collide) + 1:
        gaps = _gaps(zs[k - 1])
        events.append((int(k), (float(rho_out[k]), divmod(int(np.argmin(gaps)), zs.shape[1]),
                                float(np.min(gaps)))))
    # cluster events follow any collision event at the same point
    labels = root_groups(zs, TOL.cluster_rtol * (1.0 + np.max(np.abs(zs), axis=1)))
    members = np.count_nonzero(labels[:, :, None] == np.arange(zs.shape[1]), axis=1)
    for k, label in zip(*np.nonzero(members >= 2)):
        group = np.flatnonzero(labels[k] == label)
        radius = np.max(np.abs(zs[k, group] - np.mean(zs[k, group])))   # largest distance from the mean
        events.append((int(k), (float(rho_out[k]), tuple(group.tolist()), 2.0 * float(radius))))
    events.sort(key=lambda e: e[0])
    return RootBranchSet(direction=d, rho_grid=rho_out, branches=branches,
                         cluster_events=[e for _, e in events], noise=noise[points, ranks])


def connecting_permutation(stack: OperatorStack, d: Direction, rho_low: float,
                           rho_high: float) -> np.ndarray:
    """Permutation p with low-anchored branch j ending at the rank-p[j] root at rho_high.

    Ranks at both ends follow the canonical (Re, Im) sort, so p links the
    low-frequency labeling to the high-frequency one along this ray.  A ray
    through a real branch point, where two real branches meet, raises
    BisectionLimitError: on [1e-2, 1e2] the axis rays of
    blackstock_crighton, em_elastic, em_elastic_dissipative,
    anisotropic_elastic_2d and example_ell3 do.
    """
    n = max(2, int(np.ceil(40 * np.log10(rho_high / rho_low))))  # 40 points per decade
    grid = np.geomspace(rho_low, rho_high, n)
    bs = track_branches(stack, d, grid)
    return np.argsort(_canonical_order(bs.branches[None, :, -1])[0])


def branch_dump_rows(bs: RootBranchSet):
    """Rows (ray_id, rho, branch, re, im) for CSV export; ray_id is 0 for the one ray."""
    for i, rho in enumerate(bs.rho_grid):
        for j in range(bs.m):
            z = bs.branches[j, i]
            yield (0, float(rho), j, float(z.real), float(z.imag))
