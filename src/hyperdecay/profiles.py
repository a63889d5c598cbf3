"""Asymptotic Fourier profiles, moment functional, and profile-gap norms.

A profile is one sum over the slow branches, those anchored at the roots of
the lowest symbol:

    profile_hat(t, rho) = M * rho^(-a) * sum_j amp_j * exp(z_j(rho) * t),
    z_j(rho) = sum over (power, coef) of coef * rho^power,

where z_j is branch j's low-frequency expansion, amp_j comes from the
deleted-root product of its anchor, and rho^(-a) is the Fourier multiplier of
a smoothing potential of order a.  One builder serves every kind; each kind
keeps the records of one expansion case: simple anchors for the strict kinds,
shared simple anchors for the quartic-phase weak kind, and the split pair of
a double anchor for the other weak kind.  Time derivatives act term by term
through z_j^k.  `solution_and_gap` propagates the solution once and takes the
norms of the solution and of its gap to the profile from that one run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .asymptotics import ExpansionCase, Regime, _expansions, _power_sum
from .solver import DataSpec, NormTimeSeries, _field, _norm_series
from .symbols import OperatorStack, axis_direction
from .tolerances import TOL


class ProfileKind(enum.Enum):
    V = "V"                    # depth-1 anchor roots (the generic strict profile)
    W = "W"                    # depth-2 anchor roots
    V_WEAK = "V_WEAK"          # split pair of a double anchor root
    W_WEAK = "W_WEAK"          # shared simple anchor roots (quartic damping)


@dataclass(frozen=True)
class ProfileTerm:
    amplitude: complex
    rate_terms: tuple[tuple[float, complex], ...]   # z(rho) = sum coef * rho^power

    def rate(self, rho):
        return _power_sum(self.rate_terms, rho)


@dataclass(frozen=True)
class ProfileSpec:
    kind: ProfileKind
    M: float
    riesz_order: float
    terms: tuple[ProfileTerm, ...]

    def fourier_value(self, t, rho, k: int = 0):
        """Riesz-smoothed profile value(s) at time(s) t and radii rho; k-th time derivative."""
        t = np.asarray(t, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0):
            raise ValueError("profiles are evaluated at rho > 0")
        out = np.zeros(np.broadcast_shapes(t.shape, rho.shape), dtype=complex)
        with np.errstate(under="ignore"):
            for term in self.terms:
                z = term.rate(rho)
                factor = z**k if k else 1.0
                out = out + term.amplitude * factor * np.exp(z * t)
        out = self.M * out
        if self.riesz_order:
            out = out * rho ** (-self.riesz_order)
        return out


# ---------------------------------------------------------------------------
# moment functional


def moment(data: DataSpec, stack: OperatorStack) -> float:
    """M = sum_{j=0..ell} c_{m-j,0} * u_hat_{m-1-j}(0)."""
    if data.m != stack.m:
        raise ValueError(f"data has {data.m} slots, stack needs {stack.m}")
    zeros = data.at_zero(stack.dim)
    cs = stack.pure_time_coeffs()
    total = 0.0
    for j, c in enumerate(cs):
        idx = stack.m - 1 - j
        if not np.isfinite(zeros[idx]):
            raise ValueError(f"data slot {idx} has no finite value at xi = 0, which the moment needs")
        total += c * zeros[idx]
    return float(total)


# ---------------------------------------------------------------------------
# builders


def build_profile(stack: OperatorStack, M: float) -> ProfileSpec:
    """The leading low-frequency profile of the stack along the first axis.

    The anchor records choose the kind: shared simple anchor roots give the
    quartic-phase weak profile, a double anchor root gives the split-pair
    profile (both only at depth 2), otherwise the strict profile of the
    stack's depth.  Each kind keeps the records of one case: a term per
    record, with the record's own rate and amplitude 1 / (i^(m-ell-1-delta) p),
    p the deleted-root product of its anchor and delta = 1 at a double anchor.
    A kept record whose last rate coefficient has real part >= 0 would make the
    profile grow, so the stack is refused by name before anything is built on it.
    """
    if stack.ell < 1:
        raise ValueError("profiles need at least one dissipative symbol")
    slow = _expansions(stack, axis_direction(stack.dim), Regime.LOW)
    cases = {r.case for r, _ in slow}
    if ExpansionCase.SHARED_SIMPLE in cases:
        kind, case = ProfileKind.W_WEAK, ExpansionCase.SHARED_SIMPLE
    elif ExpansionCase.DOUBLE in cases:
        kind, case = ProfileKind.V_WEAK, ExpansionCase.DOUBLE
    else:
        kind, case = ProfileKind.W if stack.ell >= 2 else ProfileKind.V, ExpansionCase.SIMPLE
    kept = [(rec, p) for rec, p in slow if rec.case is case]
    for rec, _ in kept:
        power, coef = rec.terms[-1]
        if coef.real >= 0:
            raise ValueError(f"the profile does not decay: branch {rec.branch} has rate coefficient {coef} "
                             f"of rho^{power:g} with real part >= 0 (the stack is not strictly stable)")
    m, ell = stack.m, stack.ell
    delta = 1 if case is ExpansionCase.DOUBLE else 0
    terms = [ProfileTerm(complex(1.0 / (1j ** (m - ell - 1 - delta) * p)), rec.terms) for rec, p in kept]
    if delta:
        # the two records of a double anchor are adjacent, kappa+ first; the
        # difference quotient (e^(k+ t) - e^(k- t)) / (k+ - k-) is symmetric in
        # the pair labeling, matching the split of the double branch
        split = []
        for plus, minus in zip(terms[::2], terms[1::2]):
            kp, km = plus.rate_terms[1][1], minus.rate_terms[1][1]
            if abs(kp - km) <= TOL.root_match_rtol * (1.0 + max(abs(kp), abs(km))):
                raise ValueError("the split-pair profile needs distinct quadratic solutions")
            pref = plus.amplitude / (kp - km)
            split += [ProfileTerm(pref, plus.rate_terms), ProfileTerm(-pref, minus.rate_terms)]
        terms = split
    return ProfileSpec(kind, M, m - ell - 1 + delta, tuple(terms))


# ---------------------------------------------------------------------------
# gap series


def solution_and_gap(stack: OperatorStack, data: DataSpec, times, k: int = 0, s: float = 0.0,
                     rho_grid: np.ndarray | None = None) -> tuple[NormTimeSeries, NormTimeSeries]:
    """Norm series of the solution and of (solution - smoothed profile), from one run.

    `_field` resolves the run as it does for `simulate`, so the first series
    is the one `simulate` returns.  The profile is taken on the run's own radial
    grid along the first of its directions, the axis, so the leading-term
    cancellation is not polluted by discretization.  The gap is formed in place
    in that direction's (T, N) field, one time at a time.
    """
    if stack.dim > 1 and not stack.isotropic:
        raise ValueError("profile-gap series are implemented for isotropic stacks")
    spec = build_profile(stack, moment(data, stack))
    rho, times, gap, density = _field(stack, data, times, k, s, rho_grid)
    with np.errstate(over="ignore", invalid="ignore"):  # `_norms` names a non-finite gap norm
        for i, t in enumerate(times):
            gap[i] -= spec.fourier_value(t, rho, k=k)
        gap = np.abs(gap) ** 2
    return (_norm_series(stack.dim, rho, density, times, k, s),
            _norm_series(stack.dim, rho, gap, times, k, s))


def profile_gap_series(stack: OperatorStack, data: DataSpec, times, k: int = 0, s: float = 0.0,
                       rho_grid: np.ndarray | None = None) -> NormTimeSeries:
    """Norms of (solution - smoothed profile): the second series of `solution_and_gap`."""
    return solution_and_gap(stack, data, times, k, s, rho_grid)[1]
