"""Desk-scale pseudospectral runs of the power-nonlinear problem on a periodic box.

Time stepping is first-order exponential time differencing: the linear part
advances each Fourier mode exactly through its companion propagator, and the
nonlinearity enters through the exact Duhamel weight of a frozen source,

    state <- Phi(dt) state + W(dt) * fhat,   W(dt) = int_0^dt Phi(sigma) e_m dsigma.

The nonlinearity is evaluated on the physical grid from the requested
time-derivative coordinate of the state (the companion state carries exact
derivatives, so no numerical differentiation happens), then dealiased by the
two-thirds rule.  Blow-up is a heuristic flag: overflow or 1e6-fold growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .rootkit import companion, is_confluent, roots_batch
from .symbols import OperatorStack, symbol_coeffs

BLOWUP_FACTOR = 1e6


@dataclass
class SemilinearRun:
    stack: OperatorStack
    p: float
    sign: float
    nu: int
    box_halfwidth: float
    modes_per_axis: int
    dim: int
    t: float = 0.0
    dt: float = 0.05
    state: np.ndarray | None = None            # (m, N) or (m, N, N), Fourier side
    times: list = field(default_factory=list)
    l2_series: list = field(default_factory=list)
    linf_series: list = field(default_factory=list)
    blowup_flag: bool = False
    blowup_time: float | None = None
    initial_scale: float = 0.0
    _freqs: np.ndarray | None = None
    _dealias: np.ndarray | None = None
    _prop_cache: dict = field(default_factory=dict)
    _lams: np.ndarray | None = None
    _coeffs: np.ndarray | None = None
    _confluent: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.stack.m

    @property
    def dx(self) -> float:
        return 2.0 * self.box_halfwidth / self.modes_per_axis

    def grid_axes(self) -> np.ndarray:
        n = self.modes_per_axis
        return -self.box_halfwidth + self.dx * np.arange(n)

    def physical(self, coord: int = 0) -> np.ndarray:
        """Real-space field of the coord-th time derivative."""
        return np.real(np.fft.ifftn(self.state[coord]))

    def l2_norm(self, coord: int = 0) -> float:
        f = self.physical(coord)
        return float(np.sqrt(np.sum(np.abs(f) ** 2) * self.dx**self.dim))

    def linf_norm(self, coord: int) -> float:
        return float(np.max(np.abs(self.physical(coord))))


def _wavenumbers(n: int, halfwidth: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * halfwidth / n)


def build_run(stack: OperatorStack, p: float, sign: float, nu: int, box_halfwidth: float,
              modes_per_axis: int, dim: int, initial: Callable[[np.ndarray], np.ndarray] | None = None,
              initial_slot: int | None = None, dt: float = 0.05) -> SemilinearRun:
    """Assemble a run with physical initial data placed in one derivative slot.

    `initial` maps the coordinate grid (x, or (x, y) meshes) to real values;
    by default data go into the top slot m-1.
    """
    if dim not in (1, 2):
        raise ValueError("the periodic box supports dim 1 or 2")
    if stack.dim != dim:
        raise ValueError(f"stack dim {stack.dim} != run dim {dim}")
    if not (0 <= nu <= stack.m - 2):
        raise ValueError("the nonlinearity derivative order must lie in [0, m-2]")
    run = SemilinearRun(stack=stack, p=float(p), sign=float(sign), nu=int(nu),
                        box_halfwidth=float(box_halfwidth), modes_per_axis=int(modes_per_axis),
                        dim=dim, dt=float(dt))
    n = run.modes_per_axis
    shape = (stack.m,) + (n,) * dim
    run.state = np.zeros(shape, dtype=complex)
    if initial is not None:
        ax = run.grid_axes()
        if dim == 1:
            vals = initial(ax)
        else:
            xx, yy = np.meshgrid(ax, ax, indexing="ij")
            vals = initial(xx, yy)
        slot = stack.m - 1 if initial_slot is None else int(initial_slot)
        run.state[slot] = np.fft.fftn(np.asarray(vals, dtype=float))
    k1 = _wavenumbers(n, run.box_halfwidth)
    if dim == 1:
        run._freqs = k1[None, :]
        keep = np.abs(k1) <= (2.0 / 3.0) * np.max(np.abs(k1))
        run._dealias = keep
    else:
        kx, ky = np.meshgrid(k1, k1, indexing="ij")
        run._freqs = np.stack([kx, ky])
        kmax = np.max(np.abs(k1))
        run._dealias = (np.abs(kx) <= (2.0 / 3.0) * kmax) & (np.abs(ky) <= (2.0 / 3.0) * kmax)
    _prepare_roots(run)
    run.times.append(0.0)
    run.l2_series.append(run.l2_norm(0))
    run.linf_series.append(run.linf_norm(run.nu))
    # reference scale for the growth heuristic: the whole initial state
    run.initial_scale = float(np.sqrt(sum(run.l2_norm(c) ** 2 for c in range(stack.m))))
    return run


def _prepare_roots(run: SemilinearRun) -> None:
    coeffs = symbol_coeffs(run.stack, run._freqs.reshape(run.dim, -1).T)
    run._coeffs = coeffs / coeffs[:, -1:]
    run._lams = roots_batch(run._coeffs)
    run._confluent = is_confluent(run._lams)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with a stable small-z branch."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-8
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs**2 / 6.0
    zb = z[~small]
    out[~small] = (np.exp(zb) - 1.0) / zb
    return out


def _build_propagator(run: SemilinearRun, dt: float):
    """Per-mode transition matrix Phi(dt) and Duhamel weight column W(dt)."""
    m = run.m
    lams = run._lams
    nmodes = lams.shape[0]
    phi = np.zeros((nmodes, m, m), dtype=complex)
    w = np.zeros((nmodes, m), dtype=complex)
    a = companion(run._coeffs)
    eye = np.eye(m, dtype=complex)
    ok = ~run._confluent
    # spectral projectors for the well-separated modes
    lam_ok = lams[ok]
    a_ok = a[ok]
    phi_ok = np.zeros((lam_ok.shape[0], m, m), dtype=complex)
    w_ok = np.zeros((lam_ok.shape[0], m), dtype=complex)
    for j in range(m):
        proj = np.broadcast_to(eye, a_ok.shape).copy()
        denom = np.ones(lam_ok.shape[0], dtype=complex)
        for r in range(m):
            if r == j:
                continue
            proj = np.matmul(proj, a_ok - lam_ok[:, r, None, None] * eye)
            denom *= lam_ok[:, j] - lam_ok[:, r]
        proj /= denom[:, None, None]
        expo = np.exp(lam_ok[:, j] * dt)
        phi_ok += expo[:, None, None] * proj
        w_ok += (dt * _phi1(lam_ok[:, j] * dt))[:, None] * proj[:, :, -1]
    phi[ok] = phi_ok
    w[ok] = w_ok
    # confluent modes: augmented matrix exponential
    for i in np.nonzero(run._confluent)[0]:
        big = np.zeros((2 * m, 2 * m), dtype=complex)
        big[:m, :m] = a[i]
        big[:m, m:] = np.eye(m)
        e = expm(big * dt)
        phi[i] = e[:m, :m]
        w[i] = e[:m, m:][:, -1]
    return phi, w


def _propagator(run: SemilinearRun, dt: float):
    key = float(dt)
    if key not in run._prop_cache:
        run._prop_cache[key] = _build_propagator(run, dt)
    return run._prop_cache[key]


def step(run: SemilinearRun, dt: float | None = None) -> SemilinearRun:
    """One exponential-time-differencing step; returns the (mutated) run."""
    if run.blowup_flag:
        return run
    dt = run.dt if dt is None else float(dt)
    phi, w = _propagator(run, dt)
    m = run.m
    grid_shape = run.state.shape[1:]
    flat = run.state.reshape(m, -1)
    new = np.einsum("nij,jn->in", phi, flat)
    if run.p > 0:
        field_nu = np.real(np.fft.ifftn(run.state[run.nu]))
        fval = run.sign * np.abs(field_nu) ** run.p
        fhat = np.fft.fftn(fval)
        fhat_flat = (fhat * run._dealias).reshape(-1)
        new = new + w.T * fhat_flat[None, :]
    run.state = new.reshape((m,) + grid_shape)
    run.t += dt
    if not np.all(np.isfinite(run.state)):
        run.blowup_flag = True
        run.blowup_time = run.t
        return run
    run.times.append(run.t)
    run.l2_series.append(run.l2_norm(0))
    run.linf_series.append(run.linf_norm(run.nu))
    if run.initial_scale > 0 and run.l2_series[-1] > BLOWUP_FACTOR * run.initial_scale:
        run.blowup_flag = True
        run.blowup_time = run.t
    return run


def run_semilinear(stack: OperatorStack, p: float, sign: float, nu: int, T: float,
                   dt0: float = 0.05, box_halfwidth: float = 60.0, modes_per_axis: int = 128,
                   dim: int = 2, amplitude: float = 1e-3, width: float = 1.0,
                   initial_slot: int | None = None, rel_change_cap: float = 0.1) -> SemilinearRun:
    """Integrate to time T with adaptive halving when a step moves the norm too much.

    Initial data: a centered Gaussian of the given amplitude and width in one
    derivative slot (top slot by default).  The run stops early on blow-up.
    """
    def gauss1(x):
        return amplitude * np.exp(-0.5 * (x / width) ** 2)

    def gauss2(x, y):
        return amplitude * np.exp(-0.5 * ((x**2 + y**2) / width**2))

    run = build_run(stack, p, sign, nu, box_halfwidth, modes_per_axis, dim,
                    initial=gauss1 if dim == 1 else gauss2, initial_slot=initial_slot, dt=dt0)
    while run.t < T and not run.blowup_flag:
        dt = min(run.dt, T - run.t)
        prev = run.l2_series[-1]
        step(run, dt)
        cur = run.l2_series[-1] if not run.blowup_flag else np.inf
        # relative to the larger of the previous value and the data scale, so a
        # norm ramping up from zero does not trigger spurious refinement
        ref = max(prev, run.initial_scale)
        if ref > 0 and np.isfinite(cur) and abs(cur - prev) > rel_change_cap * ref:
            if run.dt > 1e-4:
                run.dt = run.dt / 2.0
            elif cur > 100.0 * run.initial_scale and cur > 2.0 * prev:
                # runaway growth beyond the integrator's resolution
                run.blowup_flag = True
                run.blowup_time = run.t
    return run
