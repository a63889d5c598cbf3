"""Desk-scale pseudospectral runs of the power-nonlinear problem on a periodic box.

Time stepping is first-order exponential time differencing: the linear part
advances each Fourier mode exactly through its companion propagator, and the
nonlinearity enters through the exact Duhamel weight of a frozen source,

    state <- Phi(dt) state + W(dt) * fhat,   W(dt) = int_0^dt Phi(sigma) e_m dsigma.

Phi(dt) and W(dt) come from one `solver.exp_newton` call on the companion
system of lambda Q(lambda), whose roots are the mode's roots and 0, so
confluent modes need no separate route.  Roots, Phi and W are solved once per
distinct symbol-coefficient row and scattered to the modes that share it.  A
step that moves the L2 norm by more than the cap is rejected, on that norm
alone, and retried from the saved state at half the step size; a step that
used at most GROW_BELOW of the cap doubles the next one, up to the requested
dt0, so every step size is dt0 / 2^j and a propagator built once serves the
rest of the run.  A run ends when the time left is rounding noise (below
END_RTOL of T), and its last time is then T itself, so no sliver step builds
a propagator of its own.  The run drops its propagators when it returns.

The fields and the operator's coefficients are real, so Q(lambda, -i xi) is
the conjugate of Q(lambda, i xi), even where an odd-order term makes it
complex.  The Fourier state is then Hermitian and only its `rfftn` half is
kept: n // 2 + 1 columns on the last axis.  The L2 norm comes from that half
by Parseval.  The nonlinearity is evaluated on the physical grid from the
requested time-derivative coordinate of the state (the companion state
carries exact derivatives, so no numerical differentiation happens), then
dealiased by the two-thirds rule; that field is transformed once per step and
also serves the sup norm.  W(dt) lives only on the two-thirds block, the
wavenumbers 0..K and -K..-1 of every axis, and only the block's columns of
the source are transformed on the first axis.  Blow-up is a heuristic flag:
overflow or 1e6-fold growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rootkit import roots_batch
from .solver import exp_newton
from .symbols import OperatorStack, symbol_coeffs

BLOWUP_FACTOR = 1e6
# a step that moves the L2 norm by more than this share of its reference is rejected
REL_CHANGE_CAP = 0.1
# a rejected step is retried at 1 / STEP_FACTOR of its size; an accepted step that
# moved the L2 norm by at most GROW_BELOW of the cap multiplies the step size by
# STEP_FACTOR (up to dt0).  One factor both ways keeps every step size on the ladder
# dt0 / STEP_FACTOR^j, and as GROW_BELOW * STEP_FACTOR = 1/2 the grown step moves
# the norm, to first order, by at most half the cap, so it is not rejected at once
STEP_FACTOR = 2.0
GROW_BELOW = 0.25
# time left below this share of T is the rounding of summed steps, which grows
# with T and the step count, not with the step size
END_RTOL = 1e-9


@dataclass
class SemilinearRun:
    stack: OperatorStack
    p: float
    sign: float
    nu: int
    box_halfwidth: float
    modes_per_axis: int
    t: float = 0.0
    dt: float = 0.05
    # Fourier side in rfftn layout: (m, n // 2 + 1) or (m, n, n // 2 + 1).  Assign a new
    # array rather than writing into it, so the nu-field below follows.
    state: np.ndarray | None = None
    times: list = field(default_factory=list)
    l2_series: list = field(default_factory=list)
    linf_series: list = field(default_factory=list)
    blowup_flag: bool = False
    blowup_time: float | None = None
    rejected_steps: int = 0
    initial_scale: float = 0.0
    _freqs: np.ndarray | None = None
    _prop_cache: dict = field(default_factory=dict)
    _lams: np.ndarray | None = None            # roots of the distinct monic rows _coeffs
    _coeffs: np.ndarray | None = None
    _rows: np.ndarray | None = None            # mode -> its row of _coeffs
    _nu_field: tuple | None = None             # (state, physical(nu) of that state)

    @property
    def m(self) -> int:
        return self.stack.m

    @property
    def dim(self) -> int:
        return self.stack.dim

    @property
    def dx(self) -> float:
        return 2.0 * self.box_halfwidth / self.modes_per_axis

    def grid_axes(self) -> np.ndarray:
        n = self.modes_per_axis
        return -self.box_halfwidth + self.dx * np.arange(n)

    def physical(self, coord: int = 0) -> np.ndarray:
        """Real-space field of the coord-th time derivative."""
        return np.fft.irfftn(self.state[coord], s=(self.modes_per_axis,) * self.dim,
                             axes=tuple(range(self.dim)))

    def l2_norm(self, coord: int = 0) -> float:
        s = self.state[coord]
        a = s.real**2 + s.imag**2
        # Parseval: columns 1 .. (n - 1) // 2 also stand for their conjugate images;
        # column 0 and, for even n, column n / 2 are their own
        total = np.sum(a) + np.sum(a[..., 1:(self.modes_per_axis + 1) // 2])
        return float(np.sqrt(total * (self.dx / self.modes_per_axis) ** self.dim))

    def linf_norm(self) -> float:
        """Sup norm of the nu-th time derivative, the field the nonlinearity reads."""
        return float(np.max(np.abs(self._field())))

    def _field(self) -> np.ndarray:
        """physical(nu), transformed once per state and shared with `step`."""
        if self._nu_field is None or self._nu_field[0] is not self.state:
            self._nu_field = (self.state, self.physical(self.nu))
        return self._nu_field[1]


def _wavenumbers(n: int, halfwidth: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * halfwidth / n)


def build_run(stack: OperatorStack, p: float, sign: float, nu: int, box_halfwidth: float,
              modes_per_axis: int, dim: int | None = None,
              initial: Callable[[np.ndarray], np.ndarray] | None = None,
              initial_slot: int | None = None, dt: float = 0.05) -> SemilinearRun:
    """Assemble a run with physical initial data placed in one derivative slot.

    The box has the stack's dimension; a given `dim` must equal it.
    `initial` maps the coordinate meshes, one per axis, to real values;
    by default data go into the top slot m-1.
    """
    dim = stack.dim if dim is None else dim
    if dim not in (1, 2):
        raise ValueError("the periodic box supports dim 1 or 2")
    if stack.dim != dim:
        raise ValueError(f"stack dim {stack.dim} != run dim {dim}")
    if not (0 <= nu <= stack.m - 2):
        raise ValueError("the nonlinearity derivative order must lie in [0, m-2]")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"the time step must be finite and > 0, got {dt}")
    if not np.isfinite(sign):
        raise ValueError(f"the sign must be finite, got {sign}")
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"the power p must be finite and > 0, got {p}")
    if modes_per_axis < 1:
        raise ValueError(f"the box needs modes_per_axis >= 1, got {modes_per_axis}")
    if not (np.isfinite(box_halfwidth) and box_halfwidth > 0):
        raise ValueError(f"the box half-width must be finite and > 0, got {box_halfwidth}")
    if initial_slot is not None and not 0 <= initial_slot < stack.m:
        raise ValueError(f"the initial slot must lie in [0, {stack.m - 1}], got {initial_slot}")
    run = SemilinearRun(stack=stack, p=float(p), sign=float(sign), nu=int(nu),
                        box_halfwidth=float(box_halfwidth), modes_per_axis=int(modes_per_axis),
                        dt=float(dt))
    n = run.modes_per_axis
    half = n // 2 + 1
    run.state = np.zeros((stack.m,) + (n,) * (dim - 1) + (half,), dtype=complex)
    if initial is not None:
        vals = initial(*np.meshgrid(*[run.grid_axes()] * dim, indexing="ij"))
        slot = stack.m - 1 if initial_slot is None else int(initial_slot)
        run.state[slot] = np.fft.rfftn(np.asarray(vals, dtype=float), axes=tuple(range(dim)))
    k1 = _wavenumbers(n, run.box_halfwidth)
    # the last axis keeps the rfftn half
    run._freqs = np.stack(np.meshgrid(*[k1] * (dim - 1), k1[:half], indexing="ij"))
    _prepare_roots(run)
    run.times.append(0.0)
    run.l2_series.append(run.l2_norm(0))
    run.linf_series.append(run.linf_norm())
    # reference scale for the growth heuristic: the whole initial state
    run.initial_scale = float(np.sqrt(sum(run.l2_norm(c) ** 2 for c in range(stack.m))))
    return run


def _prepare_roots(run: SemilinearRun) -> None:
    """Roots of each distinct monic symbol row; modes sharing a row share its solve.

    The rows are sorted by one `lexsort` over their numbers, column by column
    and real part before imaginary, the order of `np.unique(..., axis=0)`;
    the first of each run of equal rows is kept.  A row gets the same roots
    from `roots_batch` inside any batch, so every mode's roots are those of
    its own row.
    """
    coeffs = symbol_coeffs(run.stack, run._freqs.reshape(run.dim, -1).T)
    monic = coeffs / coeffs[:, -1:]
    order = np.lexsort([part for col in monic.T[::-1] for part in (col.imag, col.real)])
    monic = monic[order]
    first = np.ones(len(monic), dtype=bool)
    first[1:] = np.any(monic[1:] != monic[:-1], axis=1)
    run._coeffs = monic[first]
    run._rows = np.empty(len(order), dtype=np.intp)
    run._rows[order] = np.cumsum(first) - 1
    run._lams = roots_batch(run._coeffs)


def _block(run: SemilinearRun) -> list[tuple[slice, ...]]:
    """The modes the two-thirds rule keeps, as index tuples into one mode plane.

    Every axis keeps |k| <= 2/3 max |k|: the wavenumbers 0..K, columns 0..K
    of the rfftn half, and on the first axis of a 2-d box also -K..-1, rows
    n-K..n-1.  The block is the product of the axes' sets, in these parts.
    """
    n = run.modes_per_axis
    k1 = np.abs(_wavenumbers(n, run.box_halfwidth))
    top = np.count_nonzero(k1 <= (2.0 / 3.0) * np.max(k1)) // 2
    cols = slice(0, top + 1)
    return [(cols,)] if run.dim == 1 else [(slice(0, top + 1), cols), (slice(n - top, n), cols)]


def _build_propagator(run: SemilinearRun, dt: float):
    """Transition matrices Phi(dt) as (m, m, modes) and Duhamel weights W(dt) per part of the block.

    The state (y, f) of y' = A y + f e_m, f' = 0, has e^(B dt) = [[Phi, W], [0, 1]].
    With z = T (y, f), T = [[I, 0], [-c, 1]] (c the monic coefficients below
    the top), z is the companion state of lambda Q(lambda), whose roots are 0
    and the mode's roots; the first m rows of e^(B dt) and of e^(C dt) T agree.
    Solved once per distinct row, then scattered to the modes; W is kept only
    on the two-thirds block, the modes the source reaches, as one (m, rows,
    columns) array per part of `_block`.  When every row is real (no
    odd-order spatial term), T, Phi and W are real.
    """
    m = run.m
    n = len(run._lams)
    real = not np.any(run._coeffs.imag)
    zero = np.zeros((n, 1))
    tmat = np.tile(np.eye(m + 1, dtype=float if real else complex), (n, 1, 1))
    tmat[:, m, :m] = -(run._coeffs[:, :m].real if real else run._coeffs[:, :m])
    e = exp_newton(np.hstack([zero, run._coeffs]), np.hstack([zero, run._lams]), tmat, dt, 0,
                   lead=m)[0].transpose(1, 2, 0)
    del tmat                       # dead here; freed before the gathers below
    if real:
        # a real companion matrix has a real exponential: the imaginary parts are rounding
        e = e.real
    rows = run._rows.reshape(run.state.shape[1:])
    w = [np.take(e[:, m], rows[part], axis=-1) for part in _block(run)]
    return np.take(e[:, :m], run._rows, axis=-1), w


def _propagator(run: SemilinearRun, dt: float):
    key = float(dt)
    if key not in run._prop_cache:
        run._prop_cache[key] = _build_propagator(run, dt)
    return run._prop_cache[key]


def _source(run: SemilinearRun) -> np.ndarray:
    """sign |u_nu|^p on the physical grid, formed in one buffer."""
    src = np.abs(run._field())
    src **= run.p
    src *= run.sign
    return src


def _advanced(run: SemilinearRun, phi: np.ndarray, w: list) -> np.ndarray:
    """Phi state + W fhat, one output coordinate at a time into one new array."""
    block = _block(run)
    if run.sign != 0:
        # numpy's rfftn order, last axis first, on the block's columns only
        fhat = np.fft.rfft(_source(run), axis=-1)[..., block[0][-1]]
        if run.dim == 2:
            fhat = np.fft.fft(fhat, axis=0)
    flat = run.state.reshape(run.m, -1)
    new = np.empty_like(flat)
    for c in range(run.m):
        out = new[c]
        np.multiply(phi[c, 0], flat[0], out=out)
        for j in range(1, run.m):
            out += phi[c, j] * flat[j]
        if run.sign != 0:
            out = out.reshape(run.state.shape[1:])
            for part, wpart in zip(block, w):
                out[part] += wpart[c] * fhat[part]
    return new.reshape(run.state.shape)


def step(run: SemilinearRun, dt: float | None = None, *, max_change: float | None = None) -> SemilinearRun:
    """One exponential-time-differencing step of dt (finite and > 0; by default
    run.dt); returns the (mutated) run.

    With `max_change`, a step that moves the L2 norm by more than that from its
    last recorded value (and stays finite, below the blow-up growth) is undone
    on that norm alone: the state and time go back, nothing is recorded, and
    the new state's field is never transformed for its sup norm.  The option
    is here, not in a private helper, so that every attempt of
    `run_semilinear` still passes through `step`, which perfbench wraps to
    count and time steps.

    A step whose state or L2 norm overflows is a blow-up, flagged with no
    numpy warning; the propagator is built outside that silence.
    """
    dt = run.dt if dt is None else float(dt)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"the time step must be finite and > 0, got {dt}")
    if run.blowup_flag:
        return run
    saved_state, saved_t = run.state, run.t
    prop = _propagator(run, dt)
    # a blow-up can overflow on its way to its flag: the non-finite state or norm
    with np.errstate(over="ignore", invalid="ignore"):
        run.state = _advanced(run, *prop)
        run.t += dt
        if not np.all(np.isfinite(run.state)):
            run.blowup_flag = True
            run.blowup_time = run.t
            return run
        l2 = run.l2_norm(0)
        grown = run.initial_scale > 0 and l2 > BLOWUP_FACTOR * run.initial_scale
        if max_change is not None and not grown and abs(l2 - run.l2_series[-1]) > max_change:
            # the saved state's nu-field, which `_advanced` transformed, stays cached
            run.state, run.t = saved_state, saved_t
            return run
        run.times.append(run.t)
        run.l2_series.append(l2)
        run.linf_series.append(run.linf_norm())
    if grown:
        run.blowup_flag = True
        run.blowup_time = run.t
    return run


def run_semilinear(stack: OperatorStack, p: float, sign: float, nu: int, T: float,
                   dt0: float = 0.05, box_halfwidth: float = 60.0, modes_per_axis: int = 128,
                   dim: int | None = None, amplitude: float = 1e-3,
                   initial_slot: int | None = None) -> SemilinearRun:
    """Integrate to time T, halving the step when one moves the norm too much.

    A step that changes the L2 norm by more than REL_CHANGE_CAP times the
    larger of its previous value and the data scale is rejected before its
    sup norm is taken, so its field is never transformed: the run goes back
    to its saved state, whose nu-field is still cached, and retries at half
    the step size, counted in `rejected_steps`.  At a step size of 1e-4 or less the step is kept.  An
    accepted step that changed the norm by at most GROW_BELOW times that bound
    doubles the step size, never above dt0.  The run ends once T - t is below
    END_RTOL * T, and then reports T as its last time; a remainder within that
    floor of the step size is taken as a full step.  T must be finite and > 0.
    Initial data: a centered unit-width Gaussian of the given amplitude in one
    derivative slot (top slot by default).  The run stops early on blow-up.
    The box has the stack's dimension, as in `build_run`.
    """
    if not np.isfinite(T):
        raise ValueError(f"the end time T must be finite, got {T}")
    if not T > 0:
        raise ValueError(f"the end time T must be > 0, got {T}")
    if not np.isfinite(amplitude):
        raise ValueError(f"the amplitude must be finite, got {amplitude}")

    def gauss(*x):
        return amplitude * np.exp(-0.5 * sum(c**2 for c in x))

    run = build_run(stack, p, sign, nu, box_halfwidth, modes_per_axis, dim,
                    initial=gauss, initial_slot=initial_slot, dt=dt0)
    floor = END_RTOL * T
    while T - run.t > floor and not run.blowup_flag:
        dt = run.dt if T - run.t > run.dt - floor else T - run.t
        prev, kept = run.l2_series[-1], len(run.times)
        # relative to the larger of the previous value and the data scale, so a
        # norm ramping up from zero does not trigger spurious refinement
        ref = max(prev, run.initial_scale)
        bound = REL_CHANGE_CAP * ref
        step(run, dt, max_change=bound if ref > 0 and run.dt > 1e-4 else None)
        if len(run.times) == kept and not run.blowup_flag:
            # undone by `step` on its L2 norm; the rejected state is already freed
            run.rejected_steps += 1
            run.dt = run.dt / STEP_FACTOR
            continue
        cur = run.l2_series[-1] if not run.blowup_flag else np.inf
        if ref > 0 and np.isfinite(cur) and abs(cur - prev) > bound:
            if cur > 100.0 * run.initial_scale and cur > 2.0 * prev:
                # runaway growth beyond the integrator's resolution
                run.blowup_flag = True
                run.blowup_time = run.t
        elif abs(cur - prev) <= GROW_BELOW * bound:
            run.dt = min(STEP_FACTOR * run.dt, dt0)
    if not run.blowup_flag:
        # the summed steps end within rounding of T
        run.t = run.times[-1] = float(T)
    # a finished run is a result; a later `step` rebuilds what it needs
    run._prop_cache.clear()
    return run
