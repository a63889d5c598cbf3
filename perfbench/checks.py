"""Output checks computed apart from the library's own code paths.

Every function here takes plain arrays (and, where a stack is involved, only
its coefficient tables) and returns a list of problems; an empty list means
the output passed.  Nothing here calls the library's root finder, propagator
or quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import expm

ROOT_RESIDUAL_MAX = 1e-9      # |Q(lambda)| / sum |c_i| |lambda|^i
NORM_RTOL = 1e-8              # library norm vs the benchmark's expm recomputation


def symbol_coeffs(stack, xi: np.ndarray) -> np.ndarray:
    """Ascending coefficients of Q(lambda, i xi) from the stack's coefficient tables.

    xi has shape (N, dim); the result has shape (N, m + 1).
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    out = np.zeros((xi.shape[0], stack.m + 1), dtype=complex)
    ixi = 1j * xi
    for sym in stack.symbols:
        for (k, alpha), c in sym.terms():
            out[:, k] += c * np.prod(ixi ** np.asarray(alpha), axis=1)
    return out


def root_problems(stack, xi: np.ndarray, lams: np.ndarray) -> list[str]:
    """Roots lams[N, m] at frequencies xi[N, dim]: all damped, and all roots of Q."""
    lams = np.asarray(lams, dtype=complex)
    problems = []
    if not np.all(np.isfinite(lams)):
        return ["non-finite root"]
    worst_re = float(np.max(lams.real))
    if worst_re >= 0.0:
        problems.append(f"root with Re lambda = {worst_re:.3e} >= 0")
    c = symbol_coeffs(stack, xi)
    vals = np.abs(npoly.polyval(lams.T, c.T, tensor=False))
    scale = npoly.polyval(np.abs(lams).T, np.abs(c).T, tensor=False)
    res = float(np.max(vals / np.maximum(scale, np.finfo(float).tiny)))
    if res > ROOT_RESIDUAL_MAX:
        problems.append(f"root residual {res:.3e} > {ROOT_RESIDUAL_MAX:.0e}")
    return problems


def companion_exp_column(coeffs: np.ndarray, t: float, slot: int) -> np.ndarray:
    """Column `slot` of exp(A t) for the companion matrix A of each row of coeffs.

    Each companion matrix is balanced by D = diag(sigma^j) with sigma a bound on
    the root magnitudes before the exponential, and the column is mapped back.
    """
    c = np.asarray(coeffs, dtype=complex)
    c = c / c[:, -1:]
    n, m = c.shape[0], c.shape[1] - 1
    powers = m - np.arange(m)
    sigma = np.maximum(1.0, np.max(np.abs(c[:, :m]) ** (1.0 / powers), axis=1))
    a = np.zeros((n, m, m), dtype=complex)
    a[:, np.arange(m - 1), np.arange(1, m)] = sigma[:, None]
    a[:, -1, :] = -c[:, :m] / sigma[:, None] ** (powers - 1)
    col = expm(a * t)[:, :, slot]
    # exp(A t) = D exp(A_s t) D^-1 with D = diag(sigma^j)
    return col * sigma[:, None] ** (np.arange(m)[None, :] - slot)


def radial_norm(n: int, rho: np.ndarray, values: np.ndarray, s: float) -> float:
    """sqrt(|S^(n-1)| * int rho^(2s+n) |u_hat|^2 dlog rho), trapezoid rule in log rho."""
    measure = 2.0 if n == 1 else 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    integrand = rho ** (2.0 * s + n) * np.abs(values) ** 2
    lr = np.log(rho)
    total = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(lr)))
    return math.sqrt(measure * max(total, 0.0))


def reference_norms(stack, direction: np.ndarray, rho: np.ndarray, slot: int, data: np.ndarray,
                    times, s: float) -> np.ndarray:
    """||u(t)||_{H^s} for data (zero except `slot`) along one direction, per time."""
    coeffs = symbol_coeffs(stack, rho[:, None] * np.asarray(direction)[None, :])
    return np.array([radial_norm(stack.dim, rho, companion_exp_column(coeffs, t, slot)[:, 0] * data, s)
                     for t in times])


def norm_problems(got: np.ndarray, want: np.ndarray, rtol: float = NORM_RTOL) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return [f"norms {got!r} are not finite values of shape {want.shape}"]
    rel = np.abs(got - want) / np.abs(want)
    if np.max(rel) > rtol:
        return [f"norm differs from the expm recomputation by {np.max(rel):.3e} (rtol {rtol:.0e})"]
    return []


def band_problems(label: str, value: float, lo: float, hi: float) -> list[str]:
    if not (lo <= value <= hi):
        return [f"{label} {value:+.4f} outside [{lo:+.4f}, {hi:+.4f}]"]
    return []


def verdict_problems(report, strictly_stable: bool, flags=None) -> list[str]:
    problems = []
    if report.strictly_stable != strictly_stable:
        problems.append(f"verdict strictly_stable={report.strictly_stable}, fixture {strictly_stable}")
    if flags is not None and set(report.scenario_flags) != set(flags):
        problems.append(f"flags {sorted(report.scenario_flags)}, fixture {sorted(flags)}")
    return problems


def order_problems(orders, last_powers) -> list[str]:
    """Fitted remainder orders must reach last_power + 0.4 (inf: exact to tracking accuracy)."""
    return [f"record {i}: remainder order {o:.3f} < {p + 0.4:.3f}"
            for i, (o, p) in enumerate(zip(orders, last_powers))
            if not (math.isinf(o) or o >= p + 0.4)]


def shell_l2(stack, halfwidth: float, n: int, values: np.ndarray, slot: int, t: float) -> float:
    """L2 norm at time t of the linear evolution of periodic-box data in one slot.

    The stack must be isotropic, so exp(A t) is computed once per |k| shell.
    values are the physical samples on the n x n grid of the box.
    """
    dx = 2.0 * halfwidth / n
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    k2 = (k1[:, None] ** 2 + k1[None, :] ** 2).ravel()
    shells, inverse = np.unique(k2, return_inverse=True)
    xi = np.zeros((len(shells), stack.dim))
    xi[:, 0] = np.sqrt(shells)
    col = companion_exp_column(symbol_coeffs(stack, xi), t, slot)[:, 0]
    u_hat = col[inverse] * np.fft.fft2(values).ravel()
    # Parseval for the unnormalized DFT: sum |u|^2 = sum |u_hat|^2 / n^2
    return float(math.sqrt(np.sum(np.abs(u_hat) ** 2) / n**2 * dx**2))
