"""Closed-form root expansions at low and high frequency, and their empirical validation.

Each branch of the full symbol gets an ExpansionRecord: a short list of
(power of |xi|, complex coefficient) terms together with the case that
produced it.  Cases follow the root structure of the restrictions along the
given direction:

* CONSTANT      - the ell branches converging to the roots of the pure-time polynomial;
* SIMPLE        - the anchor root is simple in its own symbol and not shared upward;
* SHARED_SIMPLE - the anchor root is simple and also a root of the middle symbol
                  (real part degenerates by two extra orders);
* DOUBLE        - the anchor root is a double root; the pair splits with the two
                  solutions of a quadratic built from deleted-root values.

One routine serves both regimes.  Put lambda = i rho mu and let p_k be the
real restriction of P_k along d.  Then Q(lambda, i rho d) = 0 exactly when
sum_n (sigma i eps)^n R_n(mu) = 0, where eps = rho, R_n = p_{m-ell+n} and
sigma = +1 at low frequency, and eps = 1/rho, R_n = p_{m-n} and sigma = -1 at
high frequency.  Level 0 is the anchor symbol, and a term eps^n of mu is the
power rho^(1 + sigma n) of lambda.

verify_expansion fits the remainder order on a tracked branch and reports the
relative error at the regime boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fitting import fit_loglog
from .rootkit import RootBranchSet, assign, roots
from .stability import AnchorCases, anchor_cases, real_root_table
from .symbols import Direction, OperatorStack, UnivariatePoly, check_poly, stack_rows


class Regime(enum.Enum):
    LOW = "LOW"
    HIGH = "HIGH"


class ExpansionCase(enum.Enum):
    SIMPLE = "SIMPLE"
    SHARED_SIMPLE = "SHARED_SIMPLE"
    DOUBLE = "DOUBLE"
    CONSTANT = "CONSTANT"


LOW_RHO_MAX = 0.1
HIGH_RHO_MIN = 10.0


class UnclassifiableExpansionError(ValueError):
    pass


def _power_sum(terms: Sequence[tuple[float, complex]], rho):
    """sum of coeff * rho^power over the (power, coeff) terms, at rho (scalar or array)."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros(rho.shape, dtype=complex)
    for power, coeff in terms:
        out = out + coeff * rho**power
    return out


@dataclass(frozen=True)
class ExpansionRecord:
    branch: int
    regime: Regime
    case: ExpansionCase
    terms: tuple[tuple[float, complex], ...]
    classification_margin: float = np.inf

    def evaluate(self, rho):
        return _power_sum(self.terms, rho)

    @property
    def last_power(self) -> float:
        """Highest included order in the regime's own scale (|xi| at low
        frequency, 1/|xi| at high frequency)."""
        if self.regime is Regime.LOW:
            return max(p for p, _ in self.terms)
        return max(-min(p for p, _ in self.terms), 0.0)


def constant_limits(stack: OperatorStack) -> list[complex]:
    """Roots of the pure-time polynomial sum_j c_{m-j,0} z^(ell-j).

    Depths 1 and 2 use closed forms that read the polynomial as monic (the
    quadratic also keeps a discriminant-zero double root exact); deeper stacks
    fall back to the numeric root finder.  The root finder would divide by
    c_{m,0}, which normalization leaves at 1 - eps for some leading
    coefficients (49, say), and so move the last bit of -c_{m-1,0}.
    """
    cs = stack.pure_time_coeffs()
    ell = stack.ell
    if ell == 1:
        zs = [complex(-cs[1])]
    elif ell == 2:
        c1, c0 = cs[1], cs[2]
        disc = c1 * c1 - 4.0 * c0
        if disc >= 0:
            root = np.sqrt(disc)
            zs = [complex((-c1 + root) / 2.0), complex((-c1 - root) / 2.0)]
        else:
            root = np.sqrt(-disc)
            zs = [complex(-c1 / 2.0, root / 2.0), complex(-c1 / 2.0, -root / 2.0)]
    else:
        poly = UnivariatePoly.of([cs[ell - j] for j in range(ell + 1)])
        zs = [complex(z) for z in roots(poly)]
    return sorted(zs, key=lambda w: (w.real, w.imag))


@dataclass(frozen=True)
class _Levels:
    """The restrictions R_0, R_1, ... along one direction (see the module
    docstring), with their sorted real roots and the cases of the level-0 roots."""

    sigma: float
    roots: tuple[np.ndarray, ...]
    polys: tuple[UnivariatePoly, ...]
    cases: AnchorCases


def _levels(stack: OperatorStack, d: Direction, regime: Regime) -> _Levels:
    rows = stack_rows(stack, d.vector()[None, :])[0]
    tables = [real_root_table(r[None, :]) for r in rows]
    order = range(stack.ell, -1, -1) if regime is Regime.LOW else range(stack.ell + 1)
    re = tuple(tables[k].re[0] for k in order)
    return _Levels(1.0 if regime is Regime.LOW else -1.0, re,
                   tuple(UnivariatePoly.of(rows[k]) for k in order),
                   anchor_cases(re[0], re[1], max(t.scale[0] for t in tables)))


def _signed(z: complex, sigma: float) -> complex:
    """sigma * z as an exact negation, so a zero part keeps its sign."""
    return z if sigma > 0 else -z


def _expansions(stack: OperatorStack, d: Direction, regime: Regime) -> list[tuple[ExpansionRecord, complex]]:
    """The records of the branches anchored at the level-0 roots a, each paired
    with the deleted-root product of a in the level-0 symbol (p0'(a) at a
    simple anchor; both members deleted at a double one).

    At low frequency a shared or double anchor is handled only at depth 2; at
    high frequency a double anchor needs depth >= 2, and a shared anchor at
    depth 1 keeps the SIMPLE record, whose constant then vanishes identically.
    """
    low = regime is Regime.LOW
    if stack.ell < 1:
        raise UnclassifiableExpansionError(
            f"{regime.value.lower()}-frequency expansions need stack depth >= 1")
    t = _levels(stack, d, regime)
    s = t.sigma
    base, mid, c = t.roots[0], t.roots[1], t.cases
    out: list[tuple[ExpansionRecord, complex]] = []
    for j in np.flatnonzero(c.group == np.arange(len(base))):  # the first root of each group
        j, size = int(j), int(c.multiplicity[j])
        anchor = float(base[j])
        head = (1.0, 1j * anchor)
        if size == 1:
            mid_ix, mid_dist, shared = int(c.nearest[j]), float(c.distance[j]), bool(c.shared[j])
            if shared and low and stack.ell != 2:
                raise UnclassifiableExpansionError(
                    f"root {anchor} shared with the next symbol is only handled at depth 2 "
                    f"(stack depth {stack.ell})")
            pcheck = check_poly(t.polys[0], base, {j}, anchor)
            if shared and stack.ell >= 2:
                # the real part only enters two orders later
                p2 = complex(t.polys[2](anchor))
                ptilde = check_poly(t.polys[1], mid, {mid_ix}, anchor)
                c3 = _signed(p2, s) * ptilde / pcheck**2
                if len(t.polys) > 3:  # R_3 enters mu_3 as well
                    c3 = c3 - _signed(complex(t.polys[3](anchor)), s) / pcheck
                rec = ExpansionRecord(
                    branch=len(out), regime=regime, case=ExpansionCase.SHARED_SIMPLE,
                    terms=(head, (1.0 + 2 * s, 1j * (p2 / pcheck)), (1.0 + 3 * s, complex(c3))),
                    classification_margin=mid_dist)
            else:
                c1 = _signed(complex(t.polys[1](anchor)), s) / pcheck
                rec = ExpansionRecord(
                    branch=len(out), regime=regime, case=ExpansionCase.SIMPLE,
                    terms=(head, (1.0 + s, complex(c1))), classification_margin=mid_dist)
            out.append((rec, pcheck))
        elif size == 2:
            if low and stack.ell != 2:
                raise UnclassifiableExpansionError(
                    f"double root {anchor} of the lowest symbol is only handled at depth 2")
            if stack.ell < 2:
                raise UnclassifiableExpansionError(
                    f"double root {anchor} of the leading symbol needs a depth-2 stack "
                    "(otherwise the stack is not strictly stable)")
            pcheck = check_poly(t.polys[0], base, {j, j + 1}, anchor)
            for kappa in _kappa_pair(t, j):
                out.append((ExpansionRecord(
                    branch=len(out), regime=regime, case=ExpansionCase.DOUBLE,
                    terms=(head, (1.0 + s, complex(kappa)))), pcheck))
        else:
            raise UnclassifiableExpansionError(
                f"root {anchor} of the {'lowest' if low else 'leading'} symbol has multiplicity {size} > 2")
    return out


def low_freq_expansions(stack: OperatorStack, d: Direction) -> list[ExpansionRecord]:
    """Expansion records for all m branches as |xi| -> 0 along d.

    The ell slow-scale branches anchored at the roots of the lowest symbol are
    classified SIMPLE / SHARED_SIMPLE / DOUBLE (the latter two only for
    depth-2 stacks, where the degenerate formulas are available); the
    remaining ell branches are the CONSTANT ones.
    """
    return [r for r, _ in _expansions(stack, d, Regime.LOW)] + [
        ExpansionRecord(branch=stack.m - stack.ell + i, regime=Regime.LOW, case=ExpansionCase.CONSTANT,
                        terms=((0.0, z),)) for i, z in enumerate(constant_limits(stack))]


def high_freq_expansions(stack: OperatorStack, d: Direction) -> list[ExpansionRecord]:
    """Expansion records for all m branches as |xi| -> infinity along d."""
    return [r for r, _ in _expansions(stack, d, Regime.HIGH)]


def kappa_solutions(stack: OperatorStack, d: Direction, j: int, regime: Regime) -> tuple[complex, complex]:
    """The two quadratic solutions governing a double-root pair.

    `j` indexes the first member of the double root in the sorted root list of
    the anchor symbol (lowest symbol at low frequency, leading at high).  Both
    solutions must have negative real part; a violation means the requested
    configuration does not hold.
    """
    if stack.ell < 2:
        raise UnclassifiableExpansionError("the double-root quadratic needs a depth-2 stack")
    return _kappa_pair(_levels(stack, d, regime), j)


def _kappa_pair(t: _Levels, j: int) -> tuple[complex, complex]:
    """kappa_solutions on a level table: the roots of
    p0''(a)/2 kappa^2 - sigma p1'(a) kappa + p2(a), largest real part first."""
    base, mid, c = t.roots[0], t.roots[1], t.cases
    if j < 0 or j + 1 >= len(base):
        raise UnclassifiableExpansionError(f"index {j} does not start a double root")
    if c.group[j + 1] != c.group[j]:
        raise UnclassifiableExpansionError(
            f"roots {base[j]}, {base[j + 1]} are not a double pair within {float(c.tol)}")
    anchor = float(0.5 * (base[j] + base[j + 1]))
    mid_ix, mid_dist = int(c.nearest[j]), float(c.distance[j])
    if mid_dist > c.tol:
        raise UnclassifiableExpansionError(
            f"double root {anchor} is not matched by a middle-symbol root (distance {mid_dist})")
    a_coef = check_poly(t.polys[0], base, {j, j + 1}, anchor)
    b_coef = -t.sigma * check_poly(t.polys[1], mid, {mid_ix}, anchor)
    c_coef = complex(t.polys[2](anchor))
    quad = UnivariatePoly.of([c_coef, b_coef, a_coef])
    kp, km = roots(quad)
    pair = sorted((complex(kp), complex(km)), key=lambda z: (z.real, z.imag), reverse=True)
    for z in pair:
        if z.real >= 0:
            raise UnclassifiableExpansionError(
                f"quadratic solution {z} has nonnegative real part; configuration violated")
    return pair[0], pair[1]


# ---------------------------------------------------------------------------
# empirical validation


def match_records_to_branches(branchset: RootBranchSet, records: Sequence[ExpansionRecord],
                              regime: Regime) -> dict[int, int]:
    """Assign each record index the tracked-branch index it predicts.

    Matching minimizes the total distance between record predictions and
    branch values at the regime's anchor end of the grid (`assign`, with the
    records in the given order: a tie goes to the lexicographically first
    matching).
    """
    anchor_i = 0 if regime is Regime.LOW else len(branchset.rho_grid) - 1
    rho = float(branchset.rho_grid[anchor_i])
    pred = np.array([r.evaluate(rho) for r in records])
    perm = assign(np.abs(pred[:, None] - branchset.values_at(anchor_i)[None, :]))
    return {i: int(c) for i, c in enumerate(perm)}


def verify_expansion(branchset: RootBranchSet, record: ExpansionRecord,
                     branch_index: int) -> tuple[float, float]:
    """Fit the remainder order of `record` against tracked branch `branch_index`.

    Returns (fitted_order, max_rel_err): the log-log slope of the remainder in
    the regime's own scale, and the relative error of the truncated expansion
    at the regime boundary.  A remainder below 1e-12 absolute everywhere
    returns (inf, 0): the expansion is exact to tracking accuracy and the fit
    is ill-posed.
    """
    grid = branchset.rho_grid
    if record.regime is Regime.LOW:
        mask = grid <= LOW_RHO_MAX
    else:
        mask = grid >= HIGH_RHO_MIN
    if not np.any(mask):
        raise ValueError(f"grid does not intersect the {record.regime.value} regime")
    sub = grid[mask]
    if np.max(sub) / np.min(sub) < 10.0**2:
        raise ValueError("need at least two decades of rho inside the regime for a stable fit")
    lam = branchset.branches[branch_index][mask]
    r = lam - record.evaluate(sub)
    floor = np.full(len(sub), 1e-12)
    if branchset.noise is not None:
        floor = np.maximum(floor, 10.0 * branchset.noise[branch_index][mask])
    if np.all(np.abs(r) < floor):
        # exact to tracking accuracy: the fit would only see rounding noise
        return np.inf, 0.0
    slope, _ = fit_loglog(sub, np.abs(r), None)
    fitted_order = slope if record.regime is Regime.LOW else -slope
    boundary = np.argmax(sub) if record.regime is Regime.LOW else np.argmin(sub)
    rel = float(np.abs(r[boundary]) / max(np.abs(lam[boundary]), np.finfo(float).tiny))
    return float(fitted_order), rel
