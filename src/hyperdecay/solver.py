"""Exact per-frequency propagation of the linear Cauchy problem and norm tracking.

Each mode evolves by the characteristic roots of the full symbol.  One kernel,
`exp_newton`, writes d_t^k u_hat in Newton form: divided differences of
lambda^k e^(lambda t) at the roots, taken by a Taylor series over clusters of
close roots and by the recurrence elsewhere, times Newton vectors of the
companion state; the series contracts its real t^q / q! table on the float view
of its complex one, a real sum-of-products loop.  It is batched over modes and times, returns only the leading
state coordinates its caller names, and needs no separate route for confluent
roots.  Its divided-difference table is mode-last, (M, T, N) for M roots, T
times and N modes, so each level of the recurrence runs over contiguous (T, N)
planes.  A norm run checks s and its radial grid once, before any solve,
streams its directions into one (T, N) density, the mean |u_hat|^2 the s-norm
reads, and holds no (T, D, N) field.  The field is 0 wherever every datum is,
so only the radii from the first to the last nonzero datum are solved (the
support slice); one trapezoid rule in log rho then takes the norms at all T
times at once.  There is no time stepping, so slope fits
probe the operator, not an integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fitting import fit_loglog, last_decades_window
from .rootkit import BATCH_ROWS, RadialRootSolver, _lambdas_at, is_confluent
from .stability import sample_directions
from .symbols import Direction, OperatorStack, symbol_coeffs
from .tolerances import TOL

DEFAULT_RHO_GRID = (1e-4, 1e2, 4096)
UNDERFLOW_FLOOR = 1e-300
FIT_WINDOW_DECADES = 1.5    # slopes are fitted over the trailing decades of the time range


# ---------------------------------------------------------------------------
# initial data in Fourier variables


@dataclass(frozen=True)
class GaussianProfile:
    """u = amplitude * exp(-|x|^2 / (2 width^2)) under u_hat(xi) = int e^(-i x.xi) u dx."""
    amplitude: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"a gaussian profile needs a finite width > 0, got {self.width}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"a gaussian profile needs a finite amplitude, got {self.amplitude}")

    def radial(self, rho: np.ndarray, n: int) -> np.ndarray:
        return self.at_zero(n) * np.exp(-0.5 * self.width**2 * rho**2)

    def at_zero(self, n: int) -> float:
        return self.amplitude * (2.0 * np.pi) ** (n / 2.0) * self.width**n


@dataclass(frozen=True)
class RingProfile:
    """Fourier-side ring exp(-(rho - r0)^2 / (2 sigma^2))."""
    r0: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.r0) and math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"a ring profile needs a finite r0 and a finite sigma > 0, "
                             f"got r0 = {self.r0} and sigma = {self.sigma}")

    def radial(self, rho: np.ndarray, n: int) -> np.ndarray:
        return np.exp(-0.5 * ((rho - self.r0) / self.sigma) ** 2)

    def at_zero(self, n: int) -> float:
        return math.exp(-0.5 * (self.r0 / self.sigma) ** 2)


@dataclass(frozen=True)
class ZeroProfile:
    def radial(self, rho: np.ndarray, n: int) -> np.ndarray:
        return np.zeros_like(rho)

    def at_zero(self, n: int) -> float:
        return 0.0


@dataclass(frozen=True)
class GridProfile:
    """Sampled Fourier values aligned with the caller's radial grid."""
    values: tuple[float, ...]
    zero_value: float = float("nan")

    def radial(self, rho: np.ndarray, n: int) -> np.ndarray:
        v = np.asarray(self.values, dtype=complex)
        if v.shape != rho.shape:
            raise ValueError(f"grid profile length {v.shape} does not match rho grid {rho.shape}")
        return v

    def at_zero(self, n: int) -> float:
        return self.zero_value


@dataclass(frozen=True)
class DataSpec:
    """One Fourier profile per datum index j = 0..m-1."""
    profiles: tuple

    def __post_init__(self):
        if not self.profiles:
            raise ValueError("DataSpec needs at least one profile")

    @property
    def m(self) -> int:
        return len(self.profiles)

    def values(self, rho: np.ndarray, n: int) -> np.ndarray:
        return np.stack([np.asarray(p.radial(rho, n), dtype=complex) for p in self.profiles])

    def at_zero(self, n: int) -> np.ndarray:
        return np.array([p.at_zero(n) for p in self.profiles], dtype=float)


def gaussian_data(m: int, j: int, amplitude: float = 1.0) -> DataSpec:
    """Zero data except a unit-width Gaussian in slot j, 0 <= j <= m-1."""
    if not 0 <= j < m:
        raise ValueError(f"the data slot j must lie in [0, {m - 1}], got {j}")
    profiles = [ZeroProfile()] * m
    profiles[j] = GaussianProfile(amplitude)
    return DataSpec(tuple(profiles))


# ---------------------------------------------------------------------------
# propagation: Newton divided differences of lambda^k e^(lambda t) at the roots


SERIES_RADIUS = 1.0     # spans with |lambda_a - lambda_i| * t at most this use the Taylor series
SERIES_TERMS = 18       # series remainder below radius^18 / 18! ~ 2e-16 of the leading term


def _chain(nodes: np.ndarray) -> np.ndarray:
    """Each row of nodes[N, M] reordered as a nearest-neighbour chain from its first node.

    Each next node is the closest one left, so a cluster of close nodes is
    contiguous, and the nodes of a span of L + 1 chain nodes lie within
    (2^L - 1) times the distance between its ends of its first node: a span
    too wide for the Taylor series is never divided by a tiny end-to-end gap.
    """
    out = nodes.copy()
    rows = np.arange(len(out))
    for s in range(1, out.shape[1]):
        nxt = s + np.argmin(np.abs(out[:, s:] - out[:, s - 1, None]), axis=1)
        out[rows, nxt], out[:, s] = out[:, s].copy(), out[rows, nxt]
    return out


def _series(lam: np.ndarray, omega: np.ndarray, t: np.ndarray, k: int, ti: np.ndarray,
            ri: np.ndarray) -> np.ndarray:
    """f[lam, lam + omega_1, ..., lam + omega_L] of f = lambda^k e^(lambda t), by Taylor series about lam.

    f(lam + omega) = e^(lam t) sum_p c_p omega^p with
    c_p = sum_a C(k, a) lam^(k-a) t^(p-a) / (p-a)!, and the divided difference
    is e^(lam t) sum_n c_(n+L) h_n(omega), h_n the complete homogeneous
    polynomial.  lam has shape (R,) and omega (L, R), one per row, and t (T,);
    the K entries are the pairs (t[ti], row ri), each with |omega| t <= 1.
    The table h_n is built once per row, (terms, R), and t^q / q! once per
    time, (k + L + terms, T); each binomial term contracts them once into a
    (T, R) table, the sum and the factor e^(lam t) are taken on that table,
    and the K entries are read from it at the end, with no per-entry gather.
    The contraction runs on the float view of h: t^q / q! is real, so the
    real loop takes the complex loop's own products and sums, bit for bit,
    at a fraction of its cost (BLAS `@` would change the summation order).
    """
    span = omega.shape[0]
    terms = SERIES_TERMS + k
    h = np.zeros((terms, len(lam)), dtype=complex)
    h[0] = 1.0
    for r in range(span):
        for n in range(1, terms):
            h[n] += omega[r] * h[n - 1]
    tq = np.zeros((k + span + terms, len(t)))     # t^q / q! in row k + q, zero rows for q < 0
    tq[k] = 1.0
    for q in range(1, span + terms):
        tq[k + q] = tq[k + q - 1] * t / q
    total = np.zeros((len(t), len(lam)), dtype=complex)
    for a in range(k + 1):
        q0 = k + span - a
        total += math.comb(k, a) * lam ** (k - a) * np.einsum("nt,nr->tr", tq[q0 : q0 + terms],
                                                               h.view(float)).view(complex)
    # e^(lam t) stays the left factor: a vectorized complex product with fused
    # multiply-adds is not commutative in its last bit
    return (np.exp(lam * t[:, None]) * total)[ti, ri]


def _divided_differences(nodes: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """f[nodes_0 .. nodes_j] of f(lambda) = lambda^k e^(lambda t) for chain-ordered nodes[M, N]; shape (M, T, N).

    The table is built by span length L, in place in one (M, T, N) array
    whose plane i holds D[i, i + L], so each level is one subtract, one divide
    and one test over contiguous (T, N) planes.  A span i..i+L whose nodes lie
    within SERIES_RADIUS / t of node i takes the Taylor series about node i
    (McCurdy, Ng and Parlett 1984); any other span the recurrence
    (D[i+1, i+L] - D[i, i+L-1]) / (lambda_(i+L) - lambda_i), for all i at
    once.  Each level's top plane D[0, L] goes to plane L of the output.
    """
    m = nodes.shape[0]
    d = np.exp(t[:, None] * nodes[:, None])     # D[i, i + L] in plane i
    if k:   # lambda^k is the left factor: complex products with fused multiply-adds do not commute
        d = nodes[:, None] ** k * d
    out = np.empty_like(d)
    out[0] = d[0]
    for span in range(1, m):
        # omega[r, i] = nodes[i + 1 + r] - nodes[i]
        omega = np.stack([nodes[1 + r : m - span + 1 + r] - nodes[: m - span] for r in range(span)])
        cur = d[: m - span]
        np.subtract(d[1 : m - span + 1], cur, out=cur)
        cur /= omega[-1, :, None]
        near = t[:, None] * np.max(np.abs(omega), axis=0)[:, None] <= SERIES_RADIUS
        for i in range(m - span):       # one series call per plane, over the rows it reaches
            rows = np.flatnonzero(near[i].any(axis=0))
            if len(rows):
                ti, ri = np.nonzero(near[i][:, rows])
                cur[i, ti, rows[ri]] = _series(nodes[i, rows], omega[:, i, rows], t, k, ti, ri)
        out[span] = cur[0]
    return out


def exp_newton(coeffs: np.ndarray, nodes: np.ndarray, y0: np.ndarray, times, k: int,
               lead: int) -> np.ndarray:
    """The first `lead` state coordinates of C^k e^(C t) y0 for the companion matrices C of coeffs[N, M+1].

    nodes[N, M] are the roots of coeffs.  The Newton form sum_j f[lambda_0 ..
    lambda_j] v_j of f(lambda) = lambda^k e^(lambda t), with v_j = prod_(i<j)
    (C - lambda_i) y0, is exact when the nodes are all the roots with
    multiplicity, confluent or not.  d_t^k goes through lambda^k in f, not
    through C^k y0: at low frequency a slow branch's derivative is a tiny
    difference of O(1) fast-branch terms, which the lambda^k weight removes
    exactly.  y0 has shape (N, M, R).  The Newton vectors need every
    coordinate, but only their first `lead` enter the final contraction, so
    the result is (T, N, lead, R).  Modes go through in
    blocks of BATCH_ROWS, each contracted straight into its rows of the result.
    """
    if k < 0:
        raise ValueError(f"the time-derivative order k must be >= 0, got {k}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty((len(times), len(y0), lead, y0.shape[2]), dtype=complex)
    for rows in (slice(s, s + BATCH_ROWS) for s in range(0, len(nodes), BATCH_ROWS)):
        lam = _chain(nodes[rows])
        tail = coeffs[rows, :-1] / coeffs[rows, -1:]
        v = np.asarray(y0[rows], dtype=complex)
        kept = [v[:, :lead]]
        for j in range(lam.shape[1] - 1):
            # C v: coordinates shift up, the last is -sum_r tail_r v_r
            cv = np.concatenate([v[:, 1:], -np.einsum("nr,nrk->nk", tail, v)[:, None]], axis=1)
            v = cv - lam[:, j, None, None] * v
            kept.append(v[:, :lead])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            np.einsum("jtn,jnmr->tnmr", _divided_differences(np.ascontiguousarray(lam.T), times, k),
                      np.stack(kept), out=out[:, rows])
    return out


def _propagate(coeffs: np.ndarray, lams: np.ndarray, data: np.ndarray, times, k: int) -> np.ndarray:
    """d_t^k u_hat for modes with symbol coefficients coeffs[N, m+1], roots lams[N, m], data[m, N]; shape (T, N).

    The mode state (u, d_t u, ..., d_t^(m-1) u) evolves by its companion
    matrix C, and d_t^k u is coordinate 0 of C^k e^(C t) y0 for every k >= 0,
    the only coordinate `exp_newton` is asked for.
    """
    y0 = np.asarray(data, dtype=complex).T[..., None]
    return exp_newton(coeffs, lams, y0, times, k, lead=1)[:, :, 0, 0]


def propagate_mode(stack: OperatorStack, xi: Sequence[float], data: Sequence[complex],
                   t, k: int = 0):
    """d_t^k u_hat(t, xi) for one frequency; a one-mode call of `exp_newton`.

    Every k >= 0 is served, and confluent roots need no separate route.
    """
    xi = np.asarray(xi, dtype=float)
    data = np.asarray(data, dtype=complex)
    if len(data) != stack.m:
        raise ValueError(f"need {stack.m} data values, got {len(data)}")
    coeffs = symbol_coeffs(stack, xi[None, :])
    out = _propagate(coeffs, _lambdas_at(stack, xi)[None, :], data[:, None], t, k)[:, 0]
    return complex(out[0]) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# vectorized radial propagation


class RadialPropagator:
    """Roots for every mode of a radial grid; `propagate` is one `exp_newton` call.

    `confluent` marks the modes with nearly coincident roots; it is a
    diagnostic only, since `exp_newton` serves them like any other mode, and
    is computed when read.
    """

    def __init__(self, stack: OperatorStack, d: Direction, rho_grid: np.ndarray):
        self.stack = stack
        self.direction = d
        self.rho = np.asarray(rho_grid, dtype=float)
        self.lams = RadialRootSolver(stack, d).lambdas_grid(self.rho)

    @property
    def confluent(self) -> np.ndarray:
        return is_confluent(self.lams)

    def propagate(self, data: np.ndarray, times: np.ndarray, k: int = 0) -> np.ndarray:
        """d_t^k u_hat on the grid; shape (n_times, n_modes)."""
        xi = self.rho[:, None] * self.direction.vector()[None, :]
        return _propagate(symbol_coeffs(self.stack, xi), self.lams, data, times, k)


# ---------------------------------------------------------------------------
# Sobolev norms on the grid


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 points for n = 1)."""
    return float(2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0))


def sobolev_norm(n: int, rho_grid: np.ndarray, snapshot: np.ndarray, s: float) -> float:
    """Homogeneous s-norm from Fourier mode values on a radial (x sphere) grid.

    snapshot is (n_modes,) for one direction (weighted with the full sphere
    measure) or (n_dirs, n_modes) for an equal-weight direction set.
    """
    rho = _radial_grid(n, rho_grid, s)
    snap = np.atleast_2d(np.asarray(snapshot))
    return float(_norms(n, rho, np.mean(np.abs(snap) ** 2, axis=0)[None], s)[0])


def _radial_grid(n: int, rho_grid: np.ndarray, s: float) -> np.ndarray:
    """The radial grid of a norm run as a float array, once it and s are checked.

    The norm needs a finite s with 2s + n > 0: below that the weight
    rho^(2s + n - 1) is not integrable at rho -> 0, and the grid's first point
    would set the value.  The grid must be 1-d, of at least two points, finite,
    positive and strictly ascending.
    """
    if not np.isfinite(s):
        raise ValueError(f"the homogeneous s-norm needs a finite s, got {s}")
    if not 2.0 * s + n > 0:
        raise ValueError(f"the homogeneous s-norm needs 2s + n > 0, got s = {s} and n = {n}")
    rho = np.asarray(rho_grid, dtype=float)
    if rho.ndim != 1 or rho.size < 2 or not (np.all(np.isfinite(rho)) and np.all(rho > 0)
                                             and np.all(np.diff(rho) > 0)):
        raise ValueError("the radial grid must be 1-d, of two or more points, finite, positive and "
                         "strictly ascending")
    return rho


def _norms(n: int, rho: np.ndarray, density: np.ndarray, s: float) -> np.ndarray:
    """Homogeneous s-norm of each row of density[T, N], the direction mean of |u_hat|^2; shape (T,).

    rho and s are checked by `_radial_grid`.  The radial integral is one
    trapezoid rule in log rho over all rows, numpy's own terms summed over the
    grid and over its last octave, which must contribute less than
    tail_fraction of each total.  A total that is not finite, from a NaN or an
    overflowing field, is an error.  The first failing row raises, its
    non-finite total checked before its tail, as for that row alone.
    """
    if density.shape[1:] != rho.shape:
        raise ValueError(f"snapshot has {density.shape[-1]} modes but the grid has {len(rho)}")
    with np.errstate(over="ignore"):
        integrand = rho ** (2.0 * s + n) * density  # extra rho from the log substitution
        terms = np.diff(np.log(rho)) * (integrand[:, 1:] + integrand[:, :-1]) / 2.0
        total = terms.sum(axis=-1)
        tail = terms[:, np.argmax(rho >= rho[-1] / 2.0):].sum(axis=-1)
    failed = ~np.isfinite(total) | (tail > TOL.tail_fraction * total)
    if np.any(failed):
        i = int(np.argmax(failed))
        # the integrand is >= 0 where it is a number, so only a NaN in it gives a NaN total
        nan = np.isnan(total[i])
        if not np.isfinite(total[i]):
            at = rho[np.argmax(np.isnan(integrand[i]) if nan else integrand[i])]
            raise ValueError(f"the s-norm integrand {'is NaN' if nan else 'overflows'} at rho = {at:.6g}; "
                             "the field is not finite")
        raise ValueError(f"last-octave contribution {tail[i] / total[i]:.3e} exceeds "
                         f"{TOL.tail_fraction:.1e}; extend the radial grid upward")
    return np.sqrt(sphere_measure(n) * total)


# ---------------------------------------------------------------------------
# norm time series


@dataclass
class NormTimeSeries:
    times: np.ndarray
    values: np.ndarray
    k: int
    s: float
    fitted_slope: float
    slope_stderr: float
    fit_window: tuple[float, float]
    truncated: bool = False
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "fitted_slope": self.fitted_slope,
            "slope_stderr": self.slope_stderr,
            "fit_window": list(self.fit_window),
            "truncated": self.truncated,
            "flags": list(self.flags),
        }


def default_rho_grid() -> np.ndarray:
    return np.geomspace(*DEFAULT_RHO_GRID)


def _field(stack: OperatorStack, data: DataSpec, times, k: int, s: float, rho_grid: np.ndarray | None = None,
           directions: Sequence[Direction] | None = None) -> tuple[np.ndarray, ...]:
    """The one resolver of a norm run: (rho, times, first, density), the last two (T, N).

    Before any solve it checks the slot count, k >= 0, the time grid (nonempty, 1-d, finite,
    >= 0 and strictly ascending, as `_norm_series` cuts a prefix at underflow), and s with the
    radial grid by `_radial_grid`.  Unless given, the radial grid is the default and the directions
    `sample_directions`, every 4th angle for an anisotropic 2-d stack.  Each direction's
    |d_t^k u_hat|^2 is added into `density` in turn and the sum divided by their count, as numpy
    takes a mean; `first` is the first direction's d_t^k u_hat.  A mode whose data are all 0 has
    the field 0, so each direction is solved only on the support slice, the radii from the first
    to the last nonzero datum, and the rest of `first` and `density` is exactly 0; all-zero data
    solve no radius.
    """
    if data.m != stack.m:
        raise ValueError(f"data has {data.m} slots, stack needs {stack.m}")
    if k < 0:
        raise ValueError(f"the time-derivative order k must be >= 0, got {k}")
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size and np.all(np.isfinite(times)) and times[0] >= 0
            and np.all(np.diff(times) > 0)):
        raise ValueError("the time grid must be nonempty, 1-d, finite, >= 0 and strictly ascending")
    rho = _radial_grid(stack.dim, rho_grid if rho_grid is not None else default_rho_grid(), s)
    if directions is None:
        directions = sample_directions(stack.dim, stack.isotropic)
        if not stack.isotropic and stack.dim == 2:
            directions = directions[::4]  # 64 angles suffice for the norm average
    if not len(directions):
        raise ValueError("a norm run needs at least one direction")
    dvals = data.values(rho, stack.dim)
    support = np.flatnonzero(np.any(dvals != 0, axis=0))    # a NaN datum is support too
    if not support.size:
        return rho, times, np.zeros((len(times), len(rho)), dtype=complex), np.zeros((len(times), len(rho)))
    on = slice(support[0], support[-1] + 1)

    def solve(d: Direction) -> np.ndarray:
        return RadialPropagator(stack, d, rho[on]).propagate(dvals[:, on], times, k)

    with np.errstate(over="ignore"):  # |u_hat|^2 may overflow: `_norms` names a non-finite norm
        # padded after its solve, so the full-size field is not held through the solve
        first = np.pad(solve(directions[0]), ((0, 0), (on.start, len(rho) - on.stop)))
        density = np.abs(first) ** 2
        for d in directions[1:]:
            density[:, on] += np.abs(solve(d)) ** 2
    density /= len(directions)
    return rho, times, first, density


def _norm_series(dim: int, rho: np.ndarray, density: np.ndarray, times: np.ndarray, k: int,
                 s: float) -> NormTimeSeries:
    """The s-norms of density[T, N] by one `_norms` call, cut at the first underflow, with their slope fit."""
    values = _norms(dim, rho, density, s)
    flags = []
    truncated = False
    alive = values >= UNDERFLOW_FLOOR
    if not np.all(alive):
        cut = int(np.argmin(alive))
        times, values = times[:cut], values[:cut]
        truncated = True
        flags.append("norm underflow; series truncated")
    if np.all(values == 0.0):
        flags.append("all-zero series; slope undefined")
        return NormTimeSeries(times, values, k, s, float("nan"), float("nan"),
                              (float("nan"), float("nan")), truncated, flags)
    window = last_decades_window(times, FIT_WINDOW_DECADES)
    slope, err = fit_loglog(times, values, window)
    if np.isnan(slope):
        flags.append("fewer than 3 nonzero points in the fit window; slope undefined")
    return NormTimeSeries(times, values, k, s, slope, err, window, truncated, flags)


def simulate(stack: OperatorStack, data: DataSpec, times, k: int = 0, s: float = 0.0,
             rho_grid: np.ndarray | None = None,
             directions: Sequence[Direction] | None = None) -> NormTimeSeries:
    """Propagate every grid mode exactly and record the norm at each time.

    `_field` resolves the grids and directions: one for an isotropic stack,
    an equal-weight sample otherwise.  The fitted slope is the log-log least
    squares slope over the trailing FIT_WINDOW_DECADES of the time range.
    """
    rho, times, _, density = _field(stack, data, times, k, s, rho_grid, directions)
    return _norm_series(stack.dim, rho, density, times, k, s)
