"""Exact per-frequency propagation of the linear Cauchy problem and norm tracking.

Each mode evolves by the characteristic roots of the full symbol.  One kernel,
`exp_newton`, writes d_t^k u_hat in Newton form: divided differences of
lambda^k e^(lambda t) at the roots, taken by a Taylor series over clusters of
close roots and by the recurrence elsewhere, times Newton vectors of the
companion state.  It is batched over modes and times, returns only the leading
state coordinates its caller names, and needs no separate route for confluent
roots.  There is no time stepping, so slope fits probe the operator, not an
integrator.
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


def gaussian_data(m: int, j: int, amplitude: float = 1.0, width: float = 1.0) -> DataSpec:
    """Zero data except a Gaussian in slot j."""
    profiles = [ZeroProfile()] * m
    profiles[j] = GaussianProfile(amplitude, width)
    return DataSpec(tuple(profiles))


# ---------------------------------------------------------------------------
# propagation: Newton divided differences of lambda^k e^(lambda t) at the roots


SERIES_RADIUS = 1.0     # spans with |lambda_a - lambda_i| * t at most this use the Taylor series
SERIES_TERMS = 18       # series remainder below radius^18 / 18! ~ 2e-16 of the leading term
SERIES_CHUNK = 2048     # (time, row) entries per gathered contraction in `_series`


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
    polynomial.  lam has shape (R,) and omega (R, L), one per row, and t (T,);
    the K entries are the pairs (t[ti], row ri), each with |omega| t <= 1.
    The table h_n is built once per row, (terms, R), and t^q / q! once per
    time, (k + L + terms, T); both are gathered to the entries SERIES_CHUNK
    at a time, so every temporary is bounded whatever K is.
    """
    span = omega.shape[1]
    terms = SERIES_TERMS + k
    h = np.zeros((terms, len(lam)), dtype=complex)
    h[0] = 1.0
    for r in range(span):
        for n in range(1, terms):
            h[n] += omega[:, r] * h[n - 1]
    tq = np.zeros((k + span + terms, len(t)))     # t^q / q! in row k + q, zero rows for q < 0
    tq[k] = 1.0
    for q in range(1, span + terms):
        tq[k + q] = tq[k + q - 1] * t / q
    out = np.empty(len(ti), dtype=complex)
    for c in range(0, len(ti), SERIES_CHUNK):
        tc, rc = ti[c : c + SERIES_CHUNK], ri[c : c + SERIES_CHUNK]
        lc, hc = lam[rc], np.take(h, rc, axis=1)
        total = np.zeros(len(tc), dtype=complex)
        for a in range(k + 1):
            q0 = k + span - a
            total += math.comb(k, a) * lc ** (k - a) * np.einsum(
                "nk,nk->k", np.take(tq[q0 : q0 + terms], tc, axis=1), hc)
        out[c : c + SERIES_CHUNK] = np.exp(lc * t[tc]) * total
    return out


def _divided_differences(nodes: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """f[nodes_0 .. nodes_j] of f(lambda) = lambda^k e^(lambda t) for chain-ordered nodes[N, M]; shape (T, N, M).

    The table is built by span length L, in place in one (T, N, M) array
    whose column i holds D[i, i + L].  A span i..i+L whose nodes lie within
    SERIES_RADIUS / t of node i takes the Taylor series about node i
    (McCurdy, Ng and Parlett 1984); any other span the recurrence
    (D[i+1, i+L] - D[i, i+L-1]) / (lambda_(i+L) - lambda_i), for all i at
    once.  Each level's top entry D[0, L] goes to column L of the output.
    """
    m = nodes.shape[1]
    d = nodes**k * np.exp(t[:, None, None] * nodes)        # D[i, i + L] in column i
    out = np.empty_like(d)
    out[..., 0] = d[..., 0]
    for span in range(1, m):
        # omega[n, i, r] = nodes[n, i + 1 + r] - nodes[n, i]
        omega = np.stack([nodes[:, 1 + r : m - span + 1 + r] - nodes[:, : m - span]
                          for r in range(span)], axis=-1)
        cur = d[..., : m - span]
        np.subtract(d[..., 1 : m - span + 1], cur, out=cur)
        cur /= omega[..., -1]
        near = t[:, None, None] * np.max(np.abs(omega), axis=-1) <= SERIES_RADIUS
        for i in range(m - span):       # one series call per column, over the rows it reaches
            rows = np.flatnonzero(near[..., i].any(axis=0))
            if len(rows):
                ti, ri = np.nonzero(near[:, rows, i])
                cur[ti, rows[ri], i] = _series(nodes[rows, i], omega[rows, i], t, k, ti, ri)
        out[..., span] = cur[..., 0]
    return out


def exp_newton(coeffs: np.ndarray, nodes: np.ndarray, y0: np.ndarray, times, k: int,
               lead: int) -> np.ndarray:
    """The first `lead` state coordinates of C^k e^(C t) y0 for the companion matrices C of coeffs[N, M+1].

    nodes[N, M] are the roots of coeffs.  The Newton form sum_j f[lambda_0 ..
    lambda_j] v_j of f(lambda) = lambda^k e^(lambda t), with v_j = prod_(i<j)
    (C - lambda_i) y0, is exact when the nodes are all the roots with
    multiplicity, confluent or not.  y0 has shape (N, M, R).  The Newton
    vectors need every coordinate, but only their first `lead` enter the
    final contraction, so the result is (T, N, lead, R).  Modes go through in
    blocks of BATCH_ROWS.
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
            # no name holds the divided differences, so they are freed before the next block's
            out[:, rows] = np.einsum("tnj,jnmr->tnmr", _divided_differences(lam, times, k),
                                     np.stack(kept))
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
    diagnostic only, since `exp_newton` serves them like any other mode.
    """

    def __init__(self, stack: OperatorStack, d: Direction, rho_grid: np.ndarray):
        self.stack = stack
        self.direction = d
        self.rho = np.asarray(rho_grid, dtype=float)
        self.lams = RadialRootSolver(stack, d).lambdas_grid(self.rho)
        self.confluent = is_confluent(self.lams)

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
    measure) or (n_dirs, n_modes) for an equal-weight direction set.  The
    grid must be 1-d, finite, positive and strictly ascending.  The radial
    integral is a trapezoid rule in log rho; the last octave of the grid must
    contribute less than tail_fraction of the total.  The norm needs a finite s
    with 2s + n > 0: below that the weight rho^(2s + n - 1) is not integrable
    at rho -> 0, and the grid's first point would set the value.
    """
    if not np.isfinite(s):
        raise ValueError(f"the homogeneous s-norm needs a finite s, got {s}")
    if not 2.0 * s + n > 0:
        raise ValueError(f"the homogeneous s-norm needs 2s + n > 0, got s = {s} and n = {n}")
    rho = np.asarray(rho_grid, dtype=float)
    if rho.ndim != 1 or not (np.all(np.isfinite(rho)) and np.all(rho > 0) and np.all(np.diff(rho) > 0)):
        raise ValueError("the radial grid must be 1-d, finite, positive and strictly ascending")
    snap = np.atleast_2d(np.asarray(snapshot))
    if snap.shape[1] != len(rho):
        raise ValueError(f"snapshot has {snap.shape[1]} modes but the grid has {len(rho)}")
    dens = np.mean(np.abs(snap) ** 2, axis=0)
    integrand = rho ** (2.0 * s + n) * dens  # extra rho from the log substitution
    lr = np.log(rho)
    total = np.trapezoid(integrand, lr)
    if np.isnan(total):  # the integrand is >= 0 where it is a number, so only a NaN in it gives one
        raise ValueError(f"the s-norm integrand is NaN at rho = {rho[np.argmax(np.isnan(integrand))]:.6g}; "
                         "the field is not finite")
    if total > 0:
        tail_mask = rho >= rho[-1] / 2.0
        if np.count_nonzero(tail_mask) >= 2:
            tail = np.trapezoid(integrand[tail_mask], lr[tail_mask])
            if tail > TOL.tail_fraction * total:
                raise ValueError(
                    f"last-octave contribution {tail / total:.3e} exceeds {TOL.tail_fraction:.1e}; "
                    "extend the radial grid upward")
    return float(np.sqrt(sphere_measure(n) * total))


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


def _field(stack: OperatorStack, data: DataSpec, times, k: int, rho_grid: np.ndarray | None = None,
           directions: Sequence[Direction] | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one resolver of a norm run: (rho, times, d_t^k u_hat along each direction (T, D, N)).

    It checks the slot count and the time grid: nonempty, 1-d, finite, >= 0 and strictly ascending,
    as `_norm_series` cuts a prefix at underflow.  Unless given, the radial grid is the default and
    the directions `sample_directions`, every 4th angle for an anisotropic 2-d stack.  Each
    direction's `RadialPropagator` writes its slice of one preallocated field array.
    """
    if data.m != stack.m:
        raise ValueError(f"data has {data.m} slots, stack needs {stack.m}")
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size and np.all(np.isfinite(times)) and times[0] >= 0
            and np.all(np.diff(times) > 0)):
        raise ValueError("the time grid must be nonempty, 1-d, finite, >= 0 and strictly ascending")
    rho = np.asarray(rho_grid if rho_grid is not None else default_rho_grid(), dtype=float)
    if directions is None:
        directions = sample_directions(stack.dim, stack.isotropic)
        if not stack.isotropic and stack.dim == 2:
            directions = directions[::4]  # 64 angles suffice for the norm average
    dvals = data.values(rho, stack.dim)
    out = np.empty((len(times), len(directions), len(rho)), dtype=complex)
    for i, d in enumerate(directions):
        out[:, i] = RadialPropagator(stack, d, rho).propagate(dvals, times, k)
    return rho, times, out


def _norm_series(dim: int, rho: np.ndarray, field_vals: np.ndarray, times: np.ndarray, k: int,
                 s: float) -> NormTimeSeries:
    """The s-norm of field_vals[i] at each time, cut at the first underflow, with its slope fit."""
    values = np.array([sobolev_norm(dim, rho, field_vals[i], s) for i in range(len(times))])
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
    rho, times, field_vals = _field(stack, data, times, k, rho_grid, directions)
    return _norm_series(stack.dim, rho, field_vals, times, k, s)
