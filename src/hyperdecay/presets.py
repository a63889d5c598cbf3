"""Bundled operator models with closed-form expected outcomes.

Each preset builds its stack from named physical parameters and carries
fixtures: the stability verdict, the low/high expansion coefficients from
independent closed-form arithmetic (no calls into the root finder), the
closed-form profile at moment M = 1 and, where wired, a decay-rate band for
the simulation pipeline.  Each closed form is written once: `_quadratic_roots`
is the one quadratic formula, `_conjugate_pair` writes the conjugate of a
non-real record (Q has real coefficients), and `_oscillating_pairs` the
deleted-root coefficients of the high-frequency pairs +-i r.
Each preset is one registry row: its builder, its parameters and its
fixtures, every fixture function called once with the parameters.
`compare_expansions` checks computed records against fixtures by
minimum-distance matching.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .asymptotics import ExpansionRecord
from .rootkit import assign
from .symbols import HomogeneousSymbol, OperatorStack

TermList = list[tuple[float, complex]]


@dataclass(frozen=True)
class PresetModel:
    name: str
    params: dict
    build: Callable[[], OperatorStack]
    expected: dict


# ---------------------------------------------------------------------------
# stack builders


def mgt_stack(tau: float = 1.0, b: float = 1.0, c: float = 1.0, dim: int = 3) -> OperatorStack:
    p3 = HomogeneousSymbol.isotropic(3, dim, {3: tau, 1: -(tau * c**2 + b)})
    p2 = HomogeneousSymbol.isotropic(2, dim, {2: 1.0, 0: -(c**2)})
    return OperatorStack.build([p3, p2])


def blackstock_crighton_stack(tau: float = 1.0, a: float = 1.0, b: float = 1.0, c: float = 1.0,
                              dim: int = 3) -> OperatorStack:
    p4 = HomogeneousSymbol.isotropic(4, dim, {4: tau, 2: -(tau * c**2 + a + b), 0: a * c**2})
    p3 = HomogeneousSymbol.isotropic(3, dim, {3: 1.0, 1: -(c**2)})
    return OperatorStack.build([p4, p3])


def em_elastic_stack(mu: float = 1.0, c: float = 1.0, gamma: float = 1.0, sigma: float = 1.0,
                     dim: int = 3) -> OperatorStack:
    p5 = HomogeneousSymbol.isotropic(5, dim, {5: 1.0, 3: -(mu + c**2 + gamma**2), 1: c**2 * mu})
    p4 = HomogeneousSymbol.isotropic(4, dim, {4: 2.0 * sigma, 2: -sigma * (2 * mu + c**2 + gamma**2),
                                              0: sigma * c**2 * mu})
    p3 = HomogeneousSymbol.isotropic(3, dim, {3: sigma**2, 1: -(sigma**2) * mu})
    return OperatorStack.build([p5, p4, p3])


def em_elastic_dissipative_stack(a: float = 2.0, sigma: float = 1.0, mu: float = 1.0, c: float = 1.0,
                                 gamma: float = 1.0, dim: int = 3) -> OperatorStack:
    p4 = HomogeneousSymbol.isotropic(4, dim, {4: 1.0, 2: -(mu + c**2 + gamma**2), 0: c**2 * mu})
    p3 = HomogeneousSymbol.isotropic(3, dim, {3: a + sigma, 1: -(a * c**2 + mu * sigma)})
    p2 = HomogeneousSymbol.isotropic(2, dim, {2: a * sigma})
    return OperatorStack.build([p4, p3, p2])


def anisotropic_elastic_2d_stack(a1: float = 2.0, a2: float = 1.0, mu: float = 1.0,
                                 nu_lame: float = 0.0) -> OperatorStack:
    dim = 2
    p4 = HomogeneousSymbol.isotropic(4, dim, {4: 1.0, 2: -(3 * mu + nu_lame), 0: mu * (2 * mu + nu_lame)})
    p3 = HomogeneousSymbol(3, dim, {
        (3, (0, 0)): a1 + a2,
        (1, (2, 0)): -(a1 * mu + a2 * (2 * mu + nu_lame)),
        (1, (0, 2)): -(a1 * (2 * mu + nu_lame) + a2 * mu),
    })
    p2 = HomogeneousSymbol(2, dim, {(2, (0, 0)): a1 * a2})
    return OperatorStack.build([p4, p3, p2])


def mgt_classical_damping_stack(tau: float = 1.0, b: float = 1.0, c: float = 1.0,
                                dim: int = 3) -> OperatorStack:
    p3 = HomogeneousSymbol.isotropic(3, dim, {3: tau, 1: -tau * c**2})
    p2 = HomogeneousSymbol.isotropic(2, dim, {2: 1.0, 0: -(c**2)})
    p1 = HomogeneousSymbol.isotropic(1, dim, {1: b})
    return OperatorStack.build([p3, p2, p1])


def fourth_order_weak_stack(c: float = 2.0, dim: int = 1) -> OperatorStack:
    p4 = HomogeneousSymbol.isotropic(4, dim, {4: 1.0, 2: -(c**2)})
    p3 = HomogeneousSymbol.isotropic(3, dim, {3: 1.0, 1: -1.0})
    p2 = HomogeneousSymbol.isotropic(2, dim, {2: 1.0, 0: -1.0})
    return OperatorStack.build([p4, p3, p2])


def example_ell3_stack(a: float = 2.0, b: float = 1.0, c1: float = 1.0, c2: float = 2.0,
                       c3: float = 1.0, dim: int = 3) -> OperatorStack:
    p4 = HomogeneousSymbol.isotropic(4, dim, {4: 1.0, 2: -(a**2)})
    p3 = HomogeneousSymbol.isotropic(3, dim, {3: c3, 1: -c3 * a**2})
    p2 = HomogeneousSymbol.isotropic(2, dim, {2: c2, 0: -c2 * b**2})
    p1 = HomogeneousSymbol.isotropic(1, dim, {1: c1})
    return OperatorStack.build([p4, p3, p2, p1])


def damped_wave_stack(c: float = 1.0, dim: int = 1) -> OperatorStack:
    p2 = HomogeneousSymbol.isotropic(2, dim, {2: 1.0, 0: -(c**2)})
    p1 = HomogeneousSymbol.isotropic(1, dim, {1: 1.0})
    return OperatorStack.build([p2, p1])


# ---------------------------------------------------------------------------
# closed-form fixtures: expansions and profiles (independent arithmetic, not the library paths)


def _quadratic_roots(a: float, b: float, c: float) -> tuple[complex, complex]:
    """The roots (-b + sqrt(disc)) / 2a and (-b - sqrt(disc)) / 2a of a z^2 + b z + c, disc = b^2 - 4ac."""
    root = np.sqrt(complex(b * b - 4.0 * a * c))
    return complex((-b + root) / (2.0 * a)), complex((-b - root) / (2.0 * a))


def _quartic_even_roots(b2: float, c0: float) -> tuple[float, float]:
    """Positive roots (small, large) of z^4 - b2 z^2 + c0 with b2^2 > 4 c0 > 0."""
    s_large, s_small = _quadratic_roots(1.0, -b2, c0)
    if s_large.imag or s_large == s_small:
        raise ValueError("expected two distinct positive squared roots")
    return math.sqrt(s_small.real), math.sqrt(s_large.real)


def _conjugate_pair(terms: TermList) -> list[TermList]:
    """A record and its complex conjugate: Q has real coefficients, so its non-real roots pair up."""
    return [terms, [(p, c.conjugate()) for p, c in terms]]


def _oscillating_pairs(lower: Callable[[float], float], r1: float, r2: float,
                       zero_root: bool = False) -> list[TermList]:
    """The pairs (1, +-i r), (0, -lower(r) / prod) at the simple roots +-i r1, +-i r2 of the
    leading symbol, prod the deleted-root product (r - other)(r + other)(2r), times r when
    0 is a root too."""
    out = []
    for r, other in ((r1, r2), (r2, r1)):
        prod = (r - other) * (r + other) * (2.0 * r) * (r if zero_root else 1.0)
        out += _conjugate_pair([(1.0, 1j * r), (0.0, complex(-lower(r) / prod))])
    return out


def _radial(value):
    """A closed-form profile value(t, rho) at moment M = 1, taking rho as a float array."""
    return lambda t, rho: value(t, np.asarray(rho, dtype=float))


def mgt_low_expected(tau: float, b: float, c: float) -> list[TermList]:
    return _conjugate_pair([(1.0, 1j * c), (2.0, -b / 2.0 + 0j)]) + [[(0.0, complex(-1.0 / tau))]]


def mgt_high_expected(tau: float, b: float, c: float) -> list[TermList]:
    s2 = c**2 + b / tau
    s = math.sqrt(s2)
    outer = -b / (2.0 * tau**2 * s2)
    inner = -(c**2) / (tau * s2)
    return _conjugate_pair([(1.0, 1j * s), (0.0, complex(outer))]) + [[(1.0, 0j), (0.0, complex(inner))]]


def mgt_profile_expected(tau: float, b: float, c: float):
    return _radial(lambda t, rho: tau * np.sin(c * rho * t) / (c * rho) * np.exp(-0.5 * b * rho**2 * t))


def bc_low_expected(tau: float, a: float, b: float, c: float) -> list[TermList]:
    return _conjugate_pair([(1.0, 1j * c), (2.0, -b / 2.0 + 0j)]) + [
        [(1.0, 0j), (2.0, complex(-a))],
        [(0.0, complex(-1.0 / tau))],
    ]


def bc_high_expected(tau: float, a: float, b: float, c: float) -> list[TermList]:
    a3, a4 = _quartic_even_roots(c**2 + (a + b) / tau, a * c**2 / tau)
    # P3 = (z^3 - c^2 z) / tau
    return _oscillating_pairs(lambda z: (z**3 - c**2 * z) / tau, a4, a3)


def bc_profile_expected(tau: float, a: float, b: float, c: float):
    return _radial(lambda t, rho: (tau / (c**2 * rho**2)) * (
        np.exp(-a * rho**2 * t) - np.cos(c * rho * t) * np.exp(-0.5 * b * rho**2 * t)))


def em_elastic_low_expected(mu: float, c: float, gamma: float, sigma: float) -> list[TermList]:
    return _conjugate_pair([(1.0, 1j * math.sqrt(mu)), (2.0, complex(-(gamma**2) / (2.0 * sigma)))]) + [
        [(1.0, 0j), (2.0, complex(-(c**2) / sigma))],
        [(0.0, complex(-sigma))],
        [(0.0, complex(-sigma))],
    ]


def em_elastic_high_expected(mu: float, c: float, gamma: float, sigma: float) -> list[TermList]:
    a4, a5 = _quartic_even_roots(mu + c**2 + gamma**2, c**2 * mu)

    def p4(z: float) -> float:
        return sigma * (2.0 * z**4 - (2 * mu + c**2 + gamma**2) * z**2 + c**2 * mu)

    # deleted product at 0 is a4^2 a5^2 = c^2 mu
    return _oscillating_pairs(p4, a5, a4, zero_root=True) + [[(1.0, 0j), (0.0, complex(-sigma))]]


def em_elastic_profile_expected(mu: float, c: float, gamma: float, sigma: float):
    return _radial(lambda t, rho: (1.0 / (mu * sigma**2 * rho**2)) * (
        np.exp(-(c**2 / sigma) * rho**2 * t)
        - np.cos(np.sqrt(mu) * rho * t) * np.exp(-(gamma**2 / (2 * sigma)) * rho**2 * t)))


def em_elastic_dissipative_low_expected(a: float, sigma: float, mu: float, c: float,
                                        gamma: float) -> list[TermList]:
    return [
        [(1.0, 0j), (2.0, complex(-mu / a))],
        [(1.0, 0j), (2.0, complex(-(c**2) / sigma))],
        [(0.0, complex(-sigma))],
        [(0.0, complex(-a))],
    ]


def em_elastic_dissipative_high_expected(a: float, sigma: float, mu: float, c: float,
                                         gamma: float) -> list[TermList]:
    a3, a4 = _quartic_even_roots(mu + c**2 + gamma**2, c**2 * mu)
    return _oscillating_pairs(lambda z: (a + sigma) * z**3 - (a * c**2 + mu * sigma) * z, a4, a3)


def em_elastic_dissipative_profile_expected(a: float, sigma: float, mu: float, c: float,
                                            gamma: float):
    kp, km = -mu / a, -(c**2) / sigma  # split-pair rates
    if kp == km:
        raise ValueError("the closed form needs distinct split rates")
    return _radial(lambda t, rho: 1.0 / (a * sigma) / (kp - km) / rho**2
                   * (np.exp(kp * rho**2 * t) - np.exp(km * rho**2 * t)))


def anisotropic_kappas(a1: float, a2: float, mu: float, nu_lame: float,
                       d: Sequence[float]) -> tuple[complex, complex]:
    d1, d2 = float(d[0]), float(d[1])
    qb = a1 * (mu + (mu + nu_lame) * d2**2) + a2 * (mu + (mu + nu_lame) * d1**2)
    return _quadratic_roots(a1 * a2, qb, mu * (2.0 * mu + nu_lame))


def anisotropic_low_expected(d: Sequence[float], a1: float, a2: float, mu: float,
                             nu_lame: float) -> list[TermList]:
    k1, k2 = anisotropic_kappas(a1, a2, mu, nu_lame, d)
    return [
        [(1.0, 0j), (2.0, k1)],
        [(1.0, 0j), (2.0, k2)],
        [(0.0, complex(-min(a1, a2)))],
        [(0.0, complex(-max(a1, a2)))],
    ]


def anisotropic_high_expected(d: Sequence[float], a1: float, a2: float, mu: float,
                              nu_lame: float) -> list[TermList]:
    d1, d2 = float(d[0]), float(d[1])

    def p3(z: float) -> float:
        return (a1 + a2) * z**3 - (a1 * (mu + (mu + nu_lame) * d2**2)
                                   + a2 * (mu + (mu + nu_lame) * d1**2)) * z

    return _oscillating_pairs(p3, math.sqrt(mu), math.sqrt(2.0 * mu + nu_lame))


def mgt_cd_low_expected(tau: float, b: float, c: float) -> list[TermList]:
    return [[(1.0, 0j), (2.0, complex(-(c**2) / b))]] + [
        [(0.0, z)] for z in _quadratic_roots(1.0, 1.0 / tau, b / tau)]


def mgt_cd_high_expected(tau: float, b: float, c: float) -> list[TermList]:
    return _conjugate_pair([(1.0, 1j * c), (-1.0, 1j * b / (2.0 * c * tau)),
                            (-2.0, complex(-b / (2.0 * c**2 * tau**2)))]) + [
        [(1.0, 0j), (0.0, complex(-1.0 / tau))]]


def mgt_cd_profile_expected(tau: float, b: float, c: float):
    return _radial(lambda t, rho: (tau / b) * np.exp(-(c**2 / b) * rho**2 * t))


def fourth_order_low_expected(c: float) -> list[TermList]:
    g = (c**2 - 1.0) / 2.0
    return _conjugate_pair([(1.0, 1j), (3.0, -1j * g), (4.0, complex(-g))]) + [
        [(0.0, z)] for z in _quadratic_roots(1.0, 1.0, 1.0)]


def fourth_order_high_expected(c: float) -> list[TermList]:
    outer = -(c**2 - 1.0) / (2.0 * c**2)
    return _conjugate_pair([(1.0, 1j * c), (0.0, complex(outer))]) + [
        [(1.0, 0j), (0.0, kappa)] for kappa in _quadratic_roots(c**2, 1.0, 1.0)]


def fourth_order_profile_expected(c: float):
    return _radial(lambda t, rho: np.sin(rho * t - 0.5 * (c**2 - 1.0) * rho**3 * t) / rho
                   * np.exp(-0.5 * (c**2 - 1.0) * rho**4 * t))


def example_ell3_low_expected(a: float, b: float, c1: float, c2: float, c3: float) -> list[TermList]:
    cubic = np.roots([1.0, c3, c2, c1])
    out: list[TermList] = [[(1.0, 0j), (2.0, complex(-c2 * b**2 / c1))]]
    for z in sorted(cubic, key=lambda w: (w.real, w.imag)):
        out.append([(0.0, complex(z))])
    return out


def example_ell3_high_expected(a: float, b: float, c1: float, c2: float, c3: float) -> list[TermList]:
    """Shared simple roots +-a of P_4 and P_3, whose rho^-2 term carries P_1, and
    the double root 0 split by a^2 kappa^2 + c3 a^2 kappa + c2 b^2 = 0."""
    shift = c2 * (a**2 - b**2) / (2.0 * a**3)
    damp = -c2 * c3 * (a**2 - b**2) / (2.0 * a**4) + c1 / (2.0 * a**2)
    return _conjugate_pair([(1.0, 1j * a), (-1.0, 1j * shift), (-2.0, complex(damp))]) + [
        [(1.0, 0j), (0.0, kappa)] for kappa in _quadratic_roots(a**2, c3 * a**2, c2 * b**2)]


def example_ell3_profile_expected(a: float, b: float, c1: float, c2: float, c3: float):
    return _radial(lambda t, rho: (1.0 / c1) * np.exp(-(c2 * b**2 / c1) * rho**2 * t))


def example_ell3_stable_predicate(a: float, b: float, c1: float, c2: float, c3: float) -> bool:
    return (c1 < c2 * c3) and (b**2 < (1.0 - c1 / (c2 * c3)) * a**2)


# ---------------------------------------------------------------------------
# registry


def _preset(name: str, builder: Callable[..., OperatorStack], params: dict, **expected) -> PresetModel:
    """One registry row: `params` bound once into the builder, and each fixture given as a
    function called once with them as keywords; other fixtures are stored as given."""
    fixtures = {key: value(**params) if callable(value) else value for key, value in expected.items()}
    return PresetModel(name, params, functools.partial(builder, **params), fixtures)


PRESETS = {pm.name: pm for pm in (
    # third-order acoustic model with relaxed viscous damping
    _preset("mgt", mgt_stack, {"tau": 1.0, "b": 1.0, "c": 1.0},
            strictly_stable=True, scenario_flags=set(),
            low=mgt_low_expected, high=mgt_high_expected, profile=mgt_profile_expected,
            sim={"slot": 2, "k": 0, "s": 0.0, "n": 3, "q": 1.0,
                 "t_range": (1e2, 1e4, 25), "slope": -0.25, "tol": 0.05},
            profile_gap_band=(-0.65, -0.35)),
    # fourth-order acoustic model coupling thermal and viscous damping
    _preset("blackstock_crighton", blackstock_crighton_stack, {"tau": 1.0, "a": 1.0, "b": 1.0, "c": 1.0},
            strictly_stable=True, scenario_flags=set(),
            low=bc_low_expected, high=bc_high_expected, profile=bc_profile_expected,
            sim={"slot": 3, "k": 0, "s": 1.0, "n": 3, "q": 1.0,
                 "t_range": (1e2, 1e4, 25), "slope": -0.25, "tol": 0.05},
            profile_gap_band=(-0.65, -0.35)),
    # fifth-order scalar reduction of elastic waves coupled to a conducting field
    _preset("em_elastic", em_elastic_stack, {"mu": 1.0, "c": 1.0, "gamma": 1.0, "sigma": 1.0},
            strictly_stable=True, scenario_flags=set(),
            low=em_elastic_low_expected, high=em_elastic_high_expected,
            profile=em_elastic_profile_expected,
            sim={"slot": 4, "k": 0, "s": 2.0, "n": 3, "q": 1.0,
                 "t_range": (1e2, 1e4, 25), "slope": -0.75, "tol": 0.07}),
    # fourth-order elastic-conducting reduction with an extra frictional term
    _preset("em_elastic_dissipative", em_elastic_dissipative_stack,
            {"a": 2.0, "sigma": 1.0, "mu": 1.0, "c": 1.0, "gamma": 1.0},
            strictly_stable=True, scenario_flags={"DECAY_LOSS"},
            low=em_elastic_dissipative_low_expected, high=em_elastic_dissipative_high_expected,
            profile=em_elastic_dissipative_profile_expected),
    # planar elastic waves with direction-dependent friction; the fixtures at a
    # direction d bind the parameters and leave d, and low/high are their values
    # on the axis
    _preset("anisotropic_elastic_2d", anisotropic_elastic_2d_stack,
            {"a1": 2.0, "a2": 1.0, "mu": 1.0, "nu_lame": 0.0},
            strictly_stable=True, scenario_flags={"DECAY_LOSS"},
            low_at=functools.partial(functools.partial, anisotropic_low_expected),
            high_at=functools.partial(functools.partial, anisotropic_high_expected),
            low=functools.partial(anisotropic_low_expected, (1.0, 0.0)),
            high=functools.partial(anisotropic_high_expected, (1.0, 0.0))),
    # third-order acoustic model with frictional instead of viscous damping
    _preset("mgt_classical_damping", mgt_classical_damping_stack, {"tau": 1.0, "b": 1.0, "c": 1.0},
            strictly_stable=True, scenario_flags={"REG_LOSS_DECAY"},
            low=mgt_cd_low_expected, high=mgt_cd_high_expected, profile=mgt_cd_profile_expected,
            high_re_slope={"range": (1e1, 1e3), "slope": -2.0, "tol": 0.1},
            sim={"slot": 2, "k": 0, "s": 0.0, "n": 3, "q": 1.0,
                 "t_range": (1e2, 1e4, 25), "slope": -0.75, "tol": 0.05}),
    # fourth-order model whose lower symbols share simple roots with each other
    _preset("fourth_order_weak", fourth_order_weak_stack, {"c": 2.0},
            strictly_stable=True, scenario_flags={"SLOW_LOW", "DERIVATIVE_LOSS"},
            low=fourth_order_low_expected, high=fourth_order_high_expected,
            profile=fourth_order_profile_expected,
            low_re_slope={"range": (3e-3, 3e-2), "slope": 4.0, "tol": 0.1,
                          "coefficient": -1.5, "coef_tol": 0.02},
            sim={"slot": 3, "k": 0, "s": 1.0, "n": 1, "q": 1.0,
                 "t_range": (1e2, 1e4, 25), "slope": -0.125, "tol": 0.05}),
    # depth-3 stack handled by the even/odd interlacing criterion
    _preset("example_ell3", example_ell3_stack, {"a": 2.0, "b": 1.0, "c1": 1.0, "c2": 2.0, "c3": 1.0},
            strictly_stable=example_ell3_stable_predicate,
            low=example_ell3_low_expected, high=example_ell3_high_expected,
            profile=example_ell3_profile_expected),
)}


def get_preset(name: str) -> PresetModel:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]


# ---------------------------------------------------------------------------
# fixture comparison


def compare_expansions(records: Sequence[ExpansionRecord], expected: Sequence[TermList],
                       rtol: float = 1e-8) -> tuple[bool, list[str]]:
    """Match computed records to expected term lists and check coefficients.

    Matching minimizes the summed coefficient distance; a pair passes when
    every coefficient agrees within rtol * (1 + |coefficient|).
    """
    if len(records) != len(expected):
        return False, [f"expected {len(expected)} records, got {len(records)}"]
    exp_t = [{round(p, 9): c for p, c in terms} for terms in expected]
    rec_t = [{round(p, 9): c for p, c in rec.terms} for rec in records]
    cost = np.full((len(expected), len(records)), 1e9)  # a pair whose powers differ
    for i, de in enumerate(exp_t):
        for j, dr in enumerate(rec_t):
            if set(de) == set(dr):
                cost[i, j] = min(max(abs(de[p] - dr[p]) for p in de), 1e9)
    problems = []
    for i, j in enumerate(assign(cost)):
        de, dr = exp_t[i], rec_t[j]
        if set(de) != set(dr):
            problems.append(f"record {j}: powers {sorted(dr)} != expected {sorted(de)}")
            continue
        for p in de:
            tol = rtol * (1.0 + abs(de[p]))
            if abs(de[p] - dr[p]) > tol:
                problems.append(
                    f"record {j}: coeff at power {p} = {dr[p]:.12g} differs from {de[p]:.12g}")
    return not problems, problems
