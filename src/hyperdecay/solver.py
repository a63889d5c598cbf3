"""Exact per-frequency propagation of the linear Cauchy problem and norm tracking.

Each mode evolves by the characteristic roots of the full symbol: away from
confluence the solution is a root-weighted exponential sum whose coefficients
come from deflated polynomials (one synthetic division per root, vectorized
over the modes of a radial grid); near
confluence the mode falls back to the matrix exponential of its companion
system.  There is no time stepping, so slope fits probe the operator, not an
integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .fitting import fit_loglog, last_decades_window
from .rootkit import RadialRootSolver, companion, is_confluent, roots_batch
from .stability import sample_directions
from .symbols import Direction, OperatorStack, symbol_coeffs
from .tolerances import TOL

DEFAULT_RHO_GRID = (1e-4, 1e2, 4096)
UNDERFLOW_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# initial data in Fourier variables


@dataclass(frozen=True)
class GaussianProfile:
    """u = amplitude * exp(-|x|^2 / (2 width^2)) under u_hat(xi) = int e^(-i x.xi) u dx."""
    amplitude: float = 1.0
    width: float = 1.0

    def radial(self, rho: np.ndarray, n: int) -> np.ndarray:
        a = self.amplitude * (2.0 * np.pi) ** (n / 2.0) * self.width**n
        return a * np.exp(-0.5 * self.width**2 * rho**2)

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
# propagation: exponential sums over the roots, companion exponential near confluence


def _weights(lams: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Exponential-sum weights of modes with roots lams[N, m] and data[m, N]; shape (N, m).

    The numerator for root j is the deflated monic polynomial's coefficient
    vector dotted with the data (u_hat_0 ... u_hat_{m-1}); the denominator is
    prod_{k != j} (lam_j - lam_k).
    """
    n, m = lams.shape
    # monic polynomial from the roots
    poly = np.zeros((n, m + 1), dtype=complex)
    poly[:, 0] = 1.0
    for j in range(m):
        # multiply the running polynomial (degree j) by (z - lam_j)
        new = np.zeros_like(poly)
        new[:, 1 : j + 2] = poly[:, : j + 1]
        new[:, : j + 1] -= lams[:, j : j + 1] * poly[:, : j + 1]
        poly = new
    weights = np.empty((n, m), dtype=complex)
    for j in range(m):
        # synthetic division by (z - lam_j)
        q = np.zeros((n, m), dtype=complex)
        b = poly[:, m].copy()
        q[:, m - 1] = b
        for i in range(m - 1, 0, -1):
            b = poly[:, i] + lams[:, j] * b
            q[:, i - 1] = b
        diffs = lams[:, j : j + 1] - lams
        diffs[:, j] = 1.0
        denom = np.prod(diffs, axis=1)
        weights[:, j] = np.einsum("nr,rn->n", q, data) / denom
    return weights


def _propagate_lagrange(lams: np.ndarray, data: np.ndarray, t, k: int):
    """Exponential-sum route for one mode with simple roots lams[m]."""
    coefs = _weights(lams[None, :], np.asarray(data, dtype=complex)[:, None])[0]
    t = np.asarray(t, dtype=float)
    with np.errstate(over="raise", under="ignore"):
        out = np.sum(coefs[None, :] * lams[None, :] ** k * np.exp(lams[None, :] * t[..., None]), axis=-1)
    return out


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


def propagate_mode(stack: OperatorStack, xi: Sequence[float], data: Sequence[complex],
                   t, k: int = 0):
    """d_t^k u_hat(t, xi) for one frequency, with automatic confluence fallback.

    The exponential-sum route is used when the smallest root gap reaches
    confluence_rtol * (1 + max |lambda|); otherwise the companion matrix
    exponential (scaling and squaring) takes over.
    """
    xi = np.asarray(xi, dtype=float)
    data = np.asarray(data, dtype=complex)
    if len(data) != stack.m:
        raise ValueError(f"need {stack.m} data values, got {len(data)}")
    coeffs = symbol_coeffs(stack, xi[None, :])
    rho = float(np.linalg.norm(xi))
    if rho > 0:
        lams = RadialRootSolver(stack, Direction.of(xi)).lambdas(rho)
    else:
        lams = roots_batch(coeffs)[0]
    scalar = np.isscalar(t) or np.asarray(t).ndim == 0
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    if is_confluent(lams):
        out = _propagate_companion(coeffs[0], data, tarr, k)
    else:
        out = _propagate_lagrange(lams, data, tarr, k)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# vectorized radial propagation


class RadialPropagator:
    """Roots and exponential-sum weights for every mode of a radial grid."""

    def __init__(self, stack: OperatorStack, d: Direction, rho_grid: np.ndarray):
        self.stack = stack
        self.direction = d
        self.rho = np.asarray(rho_grid, dtype=float)
        self.lams = RadialRootSolver(stack, d).lambdas_grid(self.rho)
        self.confluent = is_confluent(self.lams)

    def propagate(self, data: np.ndarray, times: np.ndarray, k: int = 0) -> np.ndarray:
        """d_t^k u_hat on the grid; shape (n_times, n_modes)."""
        times = np.asarray(times, dtype=float)
        weights = _weights(self.lams, data)
        lams = self.lams
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            lam_k = lams**k if k else np.ones_like(lams)
            expo = np.exp(lams[None, :, :] * times[:, None, None])
            out = np.einsum("nj,tnj->tn", weights * lam_k, expo)
        bad = np.nonzero(self.confluent)[0]
        xi = self.rho[bad, None] * self.direction.vector()[None, :]
        for i, coeffs in zip(bad, symbol_coeffs(self.stack, xi)):
            out[:, i] = _propagate_companion(coeffs, data[:, i], times, k)
        return out


# ---------------------------------------------------------------------------
# Sobolev norms on the grid


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 points for n = 1)."""
    if n == 1:
        return 2.0
    return float(2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0))


def sobolev_norm(n: int, rho_grid: np.ndarray, snapshot: np.ndarray, s: float,
                 check_tail: bool = True) -> float:
    """Homogeneous s-norm from Fourier mode values on a radial (x sphere) grid.

    snapshot is (n_modes,) for one direction (weighted with the full sphere
    measure) or (n_dirs, n_modes) for an equal-weight direction set.  The
    radial integral is a trapezoid rule in log rho; the last octave of the
    grid must contribute less than tail_fraction of the total.
    """
    rho = np.asarray(rho_grid, dtype=float)
    snap = np.atleast_2d(np.asarray(snapshot))
    if snap.shape[1] != len(rho):
        raise ValueError(f"snapshot has {snap.shape[1]} modes but the grid has {len(rho)}")
    dens = np.mean(np.abs(snap) ** 2, axis=0)
    integrand = rho ** (2.0 * s + n) * dens  # extra rho from the log substitution
    lr = np.log(rho)
    total = np.trapezoid(integrand, lr)
    if total < 0:
        total = 0.0
    if check_tail and total > 0:
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
    lo, hi, n = DEFAULT_RHO_GRID
    return np.geomspace(lo, hi, n)


def _series_from_values(times, values, k, s, fit_window_decades):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
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
    window = last_decades_window(times, fit_window_decades)
    slope, err = fit_loglog(times, values, window)
    return NormTimeSeries(times, values, k, s, slope, err, window, truncated, flags)


def simulate(stack: OperatorStack, data: DataSpec, times, k: int = 0, s: float = 0.0,
             rho_grid: np.ndarray | None = None, directions: Sequence[Direction] | None = None,
             fit_window_decades: float = 1.5, check_tail: bool = True) -> NormTimeSeries:
    """Propagate every grid mode exactly and record the norm at each time.

    Isotropic stacks use one direction; anisotropic stacks average an
    equal-weight direction sample.  The fitted slope is the log-log least
    squares slope over the trailing `fit_window_decades` of the time range.
    """
    if data.m != stack.m:
        raise ValueError(f"data has {data.m} slots, stack needs {stack.m}")
    rho = np.asarray(rho_grid if rho_grid is not None else default_rho_grid(), dtype=float)
    times = np.asarray(times, dtype=float)
    if directions is None:
        directions = sample_directions(stack.dim, stack.isotropic)
        if not stack.isotropic and stack.dim == 2:
            directions = directions[::4]  # 64 angles suffice for the norm average
    dvals = data.values(rho, stack.dim)
    per_dir = []
    for d in directions:
        prop = RadialPropagator(stack, d, rho)
        per_dir.append(prop.propagate(dvals, times, k))
    field_vals = np.stack(per_dir, axis=1)  # (t, dirs, modes)
    values = np.array([
        sobolev_norm(stack.dim, rho, field_vals[i], s, check_tail=check_tail)
        for i in range(len(times))
    ])
    return _series_from_values(times, values, k, s, fit_window_decades)
