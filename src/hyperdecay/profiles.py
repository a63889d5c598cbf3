"""Asymptotic Fourier profiles, moment functional, and profile-gap norms.

Every profile is a sum of weighted exponentials with mode-dependent rates

    profile_hat(t, rho) = M * sum_j amp_j * exp(z_j(rho) * t),
    z_j(rho) = sum over (power, coef) of coef * rho^power,

optionally multiplied by the inverse-power Fourier multiplier rho^(-a) of a
smoothing potential of order a.  The generic builder covers the strict cases
(oscillation at the anchor roots, quadratic-in-rho damping); the weak variants
add the cubic/quartic phases of shared roots and the split pair of a double
root.  Time derivatives act term by term through z_j^k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .asymptotics import ExpansionCase, Regime, kappa_solutions, low_freq_expansions
from .solver import (DataSpec, NormTimeSeries, RadialPropagator, _series_from_values,
                     default_rho_grid, sobolev_norm)
from .stability import real_root_table
from .symbols import Direction, OperatorStack, UnivariatePoly, axis_direction, check_poly, restriction_coeffs
from .tolerances import TOL


class ProfileKind(enum.Enum):
    V = "V"                    # depth-1 anchor roots (the generic strict profile)
    W = "W"                    # depth-2 anchor roots
    V_WEAK = "V_WEAK"          # split pair of a double anchor root
    W_WEAK = "W_WEAK"          # shared simple anchor roots (quartic damping)
    PRESET_CLOSED_FORM = "PRESET_CLOSED_FORM"


@dataclass(frozen=True)
class ProfileTerm:
    amplitude: complex
    rate_terms: tuple[tuple[float, complex], ...]   # z(rho) = sum coef * rho^power

    def rate(self, rho):
        rho = np.asarray(rho, dtype=float)
        z = np.zeros(rho.shape, dtype=complex)
        for power, coef in self.rate_terms:
            z = z + coef * rho**power
        return z


@dataclass(frozen=True)
class ProfileSpec:
    kind: ProfileKind
    M: float
    riesz_order: float
    terms: tuple[ProfileTerm, ...]
    name: str = ""

    def fourier_value(self, t, rho, k: int = 0, apply_riesz: bool = True):
        """Profile value(s) at time(s) t and radii rho; k-th time derivative."""
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
        if apply_riesz and self.riesz_order:
            out = out * rho ** (-self.riesz_order)
        return out


def profile_value(spec: ProfileSpec, t, xi, k: int = 0, apply_riesz: bool = True):
    """Evaluate a profile at a frequency vector (or radius for isotropic use)."""
    xi = np.asarray(xi, dtype=float)
    rho = float(np.linalg.norm(xi)) if xi.ndim else float(xi)
    if rho <= 0:
        raise ValueError("profile evaluation needs xi != 0 and t handling at rho > 0")
    return spec.fourier_value(t, rho, k=k, apply_riesz=apply_riesz)


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
        if idx < 0:
            break
        total += c * zeros[idx]
    return float(total)


# ---------------------------------------------------------------------------
# builders


def build_profile(stack: OperatorStack, M: float, d: Direction | None = None,
                  kind: ProfileKind | None = None) -> ProfileSpec:
    """The leading low-frequency profile of the stack along one direction.

    Kind selection when not forced: shared simple anchor roots give the
    quartic-phase weak profile, a double anchor root gives the split-pair
    profile, otherwise the generic strict profile of the stack's depth.
    """
    if stack.ell < 1:
        raise ValueError("profiles need at least one dissipative symbol")
    d = d if d is not None else axis_direction(stack.dim)
    records = low_freq_expansions(stack, d)
    slow = [r for r in records if r.case is not ExpansionCase.CONSTANT]
    cases = {r.case for r in slow}
    if kind is None:
        if ExpansionCase.SHARED_SIMPLE in cases:
            kind = ProfileKind.W_WEAK
        elif ExpansionCase.DOUBLE in cases:
            kind = ProfileKind.V_WEAK
        else:
            kind = ProfileKind.W if stack.ell >= 2 else ProfileKind.V
    m, ell = stack.m, stack.ell
    data = _anchor_values(stack, d)
    if kind in (ProfileKind.V, ProfileKind.W):
        if any(c is not ExpansionCase.SIMPLE for c in cases):
            raise ValueError(f"the strict profile needs simple anchor roots, found {sorted(c.value for c in cases)}")
        terms = []
        for rec in slow:
            anchor = rec.terms[0][1].imag
            rate2 = rec.terms[1][1]
            amp = 1.0 / (1j ** (m - ell - 1) * data.check_value(anchor))
            terms.append(ProfileTerm(complex(amp), ((1.0, 1j * anchor), (2.0, complex(rate2)))))
        return ProfileSpec(kind, M, m - ell - 1, tuple(terms))
    if kind is ProfileKind.W_WEAK:
        if ell != 2:
            raise ValueError("the quartic-phase profile needs a depth-2 stack")
        terms = []
        for rec in slow:
            if rec.case is not ExpansionCase.SHARED_SIMPLE:
                continue
            anchor = rec.terms[0][1].imag
            amp = 1.0 / (1j ** (m - 3) * data.check_value(anchor))
            terms.append(ProfileTerm(complex(amp), tuple(rec.terms)))
        if not terms:
            raise ValueError("no shared simple anchor roots; the quartic-phase profile is empty")
        return ProfileSpec(kind, M, m - 3, tuple(terms))
    if kind is ProfileKind.V_WEAK:
        if ell != 2:
            raise ValueError("the split-pair profile needs a depth-2 stack")
        terms = []
        used = set()
        for rec in slow:
            if rec.case is not ExpansionCase.DOUBLE:
                continue
            anchor = rec.terms[0][1].imag
            key = round(anchor, 12)
            if key in used:
                continue
            used.add(key)
            j = data.double_index(anchor)
            kp, km = kappa_solutions(stack, d, j, Regime.LOW)
            if abs(kp - km) <= TOL.root_match_rtol * (1.0 + max(abs(kp), abs(km))):
                raise ValueError("the split-pair profile needs distinct quadratic solutions")
            denom = data.double_check_value(anchor)
            # difference quotient (e^(k+ t) - e^(k- t)) / (k+ - k-): symmetric in
            # the pair labeling, matching the split of the double branch
            pref = 1.0 / (1j ** (m - 4) * denom) / (kp - km)
            terms.append(ProfileTerm(complex(pref), ((1.0, 1j * anchor), (2.0, complex(kp)))))
            terms.append(ProfileTerm(complex(-pref), ((1.0, 1j * anchor), (2.0, complex(km)))))
        if not terms:
            raise ValueError("no double anchor roots; the split-pair profile is empty")
        return ProfileSpec(kind, M, m - 2, tuple(terms))
    raise ValueError(f"cannot build profile kind {kind}")


@dataclass
class _AnchorData:
    roots: np.ndarray
    poly: UnivariatePoly
    tol: float

    def check_value(self, anchor: float) -> complex:
        """Deleted-root product at a simple anchor root."""
        ix = int(np.argmin(np.abs(self.roots - anchor)))
        return check_poly(self.poly, self.roots, {ix}, anchor)

    def double_index(self, anchor: float) -> int:
        close = np.nonzero(np.abs(self.roots - anchor) <= self.tol)[0]
        if len(close) < 2:
            raise ValueError(f"anchor {anchor} is not a double root")
        return int(close[0])

    def double_check_value(self, anchor: float) -> complex:
        j = self.double_index(anchor)
        return check_poly(self.poly, self.roots, {j, j + 1}, anchor)


def _anchor_values(stack: OperatorStack, d: Direction) -> _AnchorData:
    sym = stack.symbol(stack.ell)
    t = real_root_table(restriction_coeffs(sym, d.vector()[None, :]))
    return _AnchorData(t.re[0], sym.restrict(d), TOL.root_match_rtol * float(t.scale[0]))


# ---------------------------------------------------------------------------
# gap series


def profile_gap_series(stack: OperatorStack, data: DataSpec, times, k: int = 0, s: float = 0.0,
                       rho_grid: np.ndarray | None = None, spec: ProfileSpec | None = None,
                       fit_window_decades: float = 1.5) -> NormTimeSeries:
    """Norms of (solution - smoothed profile) on the shared quadrature grid.

    The profile and the solution are evaluated on the identical radial grid so
    the leading-term cancellation is not polluted by discretization.
    """
    if stack.dim > 1 and not stack.isotropic:
        raise ValueError("profile-gap series are implemented for isotropic stacks")
    rho = np.asarray(rho_grid if rho_grid is not None else default_rho_grid(), dtype=float)
    times = np.asarray(times, dtype=float)
    if spec is None:
        spec = build_profile(stack, moment(data, stack))
    d = axis_direction(stack.dim)
    prop = RadialPropagator(stack, d, rho)
    sol = prop.propagate(data.values(rho, stack.dim), times, k)
    prof = np.stack([spec.fourier_value(t, rho, k=k, apply_riesz=True) for t in times])
    gap = sol - prof
    values = np.array([sobolev_norm(stack.dim, rho, gap[i], s) for i in range(len(times))])
    return _series_from_values(times, values, k, s, fit_window_decades)


# ---------------------------------------------------------------------------
# closed forms bundled with the physical presets (used for cross-checks)


def closed_form_profile(name: str, params: dict, M: float):
    """Riesz-smoothed closed-form profile value(t, rho) for the named preset."""
    if name == "mgt":
        tau, b, c = params["tau"], params["b"], params["c"]

        def value(t, rho):
            rho = np.asarray(rho, dtype=float)
            return M * tau * np.sin(c * rho * t) / (c * rho) * np.exp(-0.5 * b * rho**2 * t)

        return value
    if name == "blackstock_crighton":
        tau, a, b, c = params["tau"], params["a"], params["b"], params["c"]

        def value(t, rho):
            rho = np.asarray(rho, dtype=float)
            return (M * tau / (c**2 * rho**2)) * (
                np.exp(-a * rho**2 * t) - np.cos(c * rho * t) * np.exp(-0.5 * b * rho**2 * t))

        return value
    if name == "em_elastic":
        mu, c, gamma, sigma = params["mu"], params["c"], params["gamma"], params["sigma"]

        def value(t, rho):
            rho = np.asarray(rho, dtype=float)
            return (M / (mu * sigma**2 * rho**2)) * (
                np.exp(-(c**2 / sigma) * rho**2 * t)
                - np.cos(np.sqrt(mu) * rho * t) * np.exp(-(gamma**2 / (2 * sigma)) * rho**2 * t))

        return value
    if name == "em_elastic_dissipative":
        a, sigma, mu, c = params["a"], params["sigma"], params["mu"], params["c"]
        kp, km = -mu / a, -(c**2) / sigma  # split-pair rates
        if kp == km:
            raise ValueError("the closed form needs distinct split rates")

        def value(t, rho):
            rho = np.asarray(rho, dtype=float)
            pref = M / (a * sigma) / (kp - km) / rho**2
            return pref * (np.exp(kp * rho**2 * t) - np.exp(km * rho**2 * t))

        return value
    if name == "fourth_order_weak":
        c = params["c"]

        def value(t, rho):
            rho = np.asarray(rho, dtype=float)
            phase = rho * t - 0.5 * (c**2 - 1.0) * rho**3 * t
            return M * np.sin(phase) / rho * np.exp(-0.5 * (c**2 - 1.0) * rho**4 * t)

        return value
    if name == "mgt_classical_damping":
        tau, b, c = params["tau"], params["b"], params["c"]

        def value(t, rho):
            rho = np.asarray(rho, dtype=float)
            return M * (tau / b) * np.exp(-(c**2 / b) * rho**2 * t)

        return value
    if name == "example_ell3":
        c1, c2, b = params["c1"], params["c2"], params["b"]

        def value(t, rho):
            rho = np.asarray(rho, dtype=float)
            return (M / c1) * np.exp(-(c2 * b**2 / c1) * rho**2 * t)

        return value
    raise KeyError(f"no closed-form profile for preset {name!r}")
