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

verify_expansion fits the remainder order on a tracked branch and reports the
relative error at the regime boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .fitting import fit_loglog
from .rootkit import RootBranchSet, roots
from .stability import direction_root_data
from .symbols import Direction, OperatorStack, UnivariatePoly, check_poly
from .tolerances import TOL


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


@dataclass(frozen=True)
class ExpansionRecord:
    branch: int
    regime: Regime
    case: ExpansionCase
    terms: tuple[tuple[float, complex], ...]
    predicted_remainder_order: float
    classification_margin: float = np.inf

    def evaluate(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros(rho.shape, dtype=complex)
        for power, coeff in self.terms:
            out = out + coeff * rho**power
        return out

    @property
    def last_power(self) -> float:
        """Highest included order in the regime's own scale (|xi| at low
        frequency, 1/|xi| at high frequency)."""
        if self.regime is Regime.LOW:
            return max(p for p, _ in self.terms)
        return max(-min(p for p, _ in self.terms), 0.0)

    def to_row(self) -> list:
        return [self.branch, self.regime.value, self.case.value,
                [[p, c.real, c.imag] for p, c in self.terms]]


def _pair_doubles(r: np.ndarray, tol: float) -> list[tuple[int, ...]]:
    """Group sorted roots into runs of equal values within tol; triples are rejected upstream."""
    groups = []
    i = 0
    while i < len(r):
        j = i
        while j + 1 < len(r) and r[j + 1] - r[j] <= tol:
            j += 1
        groups.append(tuple(range(i, j + 1)))
        i = j + 1
    return groups


def _closest(value: float, pool: np.ndarray) -> tuple[int, float]:
    if not len(pool):
        return -1, np.inf
    ix = int(np.argmin(np.abs(pool - value)))
    return ix, float(abs(pool[ix] - value))


def constant_limits(stack: OperatorStack) -> list[complex]:
    """Roots of the pure-time polynomial sum_j c_{m-j,0} z^(ell-j).

    Depths 1 and 2 use closed forms (the quadratic keeps a discriminant-zero
    double root exact); deeper stacks fall back to the numeric root finder.
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


def _constant_records(stack: OperatorStack, regime: Regime) -> list[ExpansionRecord]:
    recs = []
    for i, z in enumerate(constant_limits(stack)):
        recs.append(ExpansionRecord(
            branch=stack.m - stack.ell + i, regime=regime, case=ExpansionCase.CONSTANT,
            terms=((0.0, z),), predicted_remainder_order=1.0))
    return recs


def low_freq_expansions(stack: OperatorStack, d: Direction) -> list[ExpansionRecord]:
    """Expansion records for all m branches as |xi| -> 0 along d.

    The ell slow-scale branches anchored at the roots of the lowest symbol are
    classified SIMPLE / SHARED_SIMPLE / DOUBLE (the latter two only for
    depth-2 stacks, where the degenerate formulas are available); the
    remaining ell branches are the CONSTANT ones.
    """
    if stack.ell < 1:
        raise UnclassifiableExpansionError("low-frequency expansions need stack depth >= 1")
    data = direction_root_data(stack, d)
    tol = TOL.root_match_rtol * data.scale
    ell = stack.ell
    base = data.roots(ell)                       # anchors: roots of P_{m-ell}
    mid = data.roots(ell - 1) if ell >= 1 else np.array([])
    p_base = stack.symbol(ell).restrict(d)
    p_mid = stack.symbol(ell - 1).restrict(d)
    p_top2 = stack.symbol(ell - 2).restrict(d) if ell >= 2 else None

    records: list[ExpansionRecord] = []
    groups = _pair_doubles(base, tol)
    branch = 0
    for group in groups:
        j = group[0]
        anchor = float(base[j])
        if len(group) == 1:
            mid_ix, mid_dist = _closest(anchor, mid)
            if ell == 2 and mid_dist <= tol:
                # shared simple root: real part only enters at fourth order
                pcheck = check_poly(p_base, base, {j}, anchor)
                ptop = complex(p_top2(anchor))
                ptilde = check_poly(p_mid, mid, {mid_ix}, anchor)
                c3 = ptop / pcheck
                c4 = ptop * ptilde / pcheck**2
                records.append(ExpansionRecord(
                    branch=branch, regime=Regime.LOW, case=ExpansionCase.SHARED_SIMPLE,
                    terms=((1.0, 1j * anchor), (3.0, 1j * c3), (4.0, complex(c4))),
                    predicted_remainder_order=5.0, classification_margin=mid_dist))
            elif ell != 2 and mid_dist <= tol:
                raise UnclassifiableExpansionError(
                    f"root {anchor} shared with the next symbol is only handled at depth 2 "
                    f"(stack depth {ell})")
            else:
                pcheck = check_poly(p_base, base, {j}, anchor)
                c2 = complex(p_mid(anchor)) / pcheck
                records.append(ExpansionRecord(
                    branch=branch, regime=Regime.LOW, case=ExpansionCase.SIMPLE,
                    terms=((1.0, 1j * anchor), (2.0, complex(c2))),
                    predicted_remainder_order=3.0, classification_margin=mid_dist))
            branch += 1
        elif len(group) == 2:
            if ell != 2:
                raise UnclassifiableExpansionError(
                    f"double root {anchor} of the lowest symbol is only handled at depth 2")
            kp, km = kappa_solutions(stack, d, j, Regime.LOW)
            for kappa in (kp, km):
                records.append(ExpansionRecord(
                    branch=branch, regime=Regime.LOW, case=ExpansionCase.DOUBLE,
                    terms=((1.0, 1j * anchor), (2.0, complex(kappa))),
                    predicted_remainder_order=3.0))
                branch += 1
        else:
            raise UnclassifiableExpansionError(
                f"root {anchor} of the lowest symbol has multiplicity {len(group)} > 2")
    records.extend(_constant_records(stack, Regime.LOW))
    return records


def high_freq_expansions(stack: OperatorStack, d: Direction) -> list[ExpansionRecord]:
    """Expansion records for all m branches as |xi| -> infinity along d."""
    if stack.ell < 1:
        raise UnclassifiableExpansionError("high-frequency expansions need stack depth >= 1")
    data = direction_root_data(stack, d)
    tol = TOL.root_match_rtol * data.scale
    a = data.roots(0)
    b = data.roots(1)
    p_top = stack.symbol(0).restrict(d)
    p_mid = stack.symbol(1).restrict(d)
    p_low = stack.symbol(2).restrict(d) if stack.ell >= 2 else UnivariatePoly.of([0.0])

    records: list[ExpansionRecord] = []
    branch = 0
    for group in _pair_doubles(a, tol):
        j = group[0]
        anchor = float(a[j])
        if len(group) == 1:
            mid_ix, mid_dist = _closest(anchor, b)
            if mid_dist <= tol and stack.ell >= 2:
                pcheck = check_poly(p_top, a, {j}, anchor)
                plow = complex(p_low(anchor))
                ptilde = check_poly(p_mid, b, {mid_ix}, anchor)
                cm1 = plow / pcheck
                cm2 = -plow * ptilde / pcheck**2
                records.append(ExpansionRecord(
                    branch=branch, regime=Regime.HIGH, case=ExpansionCase.SHARED_SIMPLE,
                    terms=((1.0, 1j * anchor), (-1.0, 1j * cm1), (-2.0, complex(cm2))),
                    predicted_remainder_order=3.0, classification_margin=mid_dist))
            else:
                # the generic constant: vanishes identically if the root is shared
                # and there is no second lower symbol to produce the next orders
                pcheck = check_poly(p_top, a, {j}, anchor)
                c0 = -complex(p_mid(anchor)) / pcheck
                records.append(ExpansionRecord(
                    branch=branch, regime=Regime.HIGH, case=ExpansionCase.SIMPLE,
                    terms=((1.0, 1j * anchor), (0.0, complex(c0))),
                    predicted_remainder_order=1.0, classification_margin=mid_dist))
            branch += 1
        elif len(group) == 2:
            if stack.ell < 2:
                raise UnclassifiableExpansionError(
                    f"double root {anchor} of the leading symbol needs a depth-2 stack "
                    "(otherwise the stack is not strictly stable)")
            kp, km = kappa_solutions(stack, d, j, Regime.HIGH)
            for kappa in (kp, km):
                records.append(ExpansionRecord(
                    branch=branch, regime=Regime.HIGH, case=ExpansionCase.DOUBLE,
                    terms=((1.0, 1j * anchor), (0.0, complex(kappa))),
                    predicted_remainder_order=1.0))
                branch += 1
        else:
            raise UnclassifiableExpansionError(
                f"root {anchor} of the leading symbol has multiplicity {len(group)} > 2")
    return records


def kappa_solutions(stack: OperatorStack, d: Direction, j: int, regime: Regime) -> tuple[complex, complex]:
    """The two quadratic solutions governing a double-root pair.

    `j` indexes the first member of the double root in the sorted root list of
    the anchor symbol (lowest symbol at low frequency, leading at high).  Both
    solutions must have negative real part; a violation means the requested
    configuration does not hold.
    """
    if stack.ell < 2:
        raise UnclassifiableExpansionError("the double-root quadratic needs a depth-2 stack")
    data = direction_root_data(stack, d)
    tol = TOL.root_match_rtol * data.scale
    if regime is Regime.LOW:
        anchor_roots = data.roots(2)
        p_anchor = stack.symbol(2).restrict(d)
        p_other = stack.symbol(0).restrict(d)
        sign_mid = -1.0
    else:
        anchor_roots = data.roots(0)
        p_anchor = stack.symbol(0).restrict(d)
        p_other = stack.symbol(2).restrict(d)
        sign_mid = 1.0
    if j < 0 or j + 1 >= len(anchor_roots):
        raise UnclassifiableExpansionError(f"index {j} does not start a double root")
    if anchor_roots[j + 1] - anchor_roots[j] > tol:
        raise UnclassifiableExpansionError(
            f"roots {anchor_roots[j]}, {anchor_roots[j + 1]} are not a double pair within {tol}")
    anchor = float(0.5 * (anchor_roots[j] + anchor_roots[j + 1]))
    b = data.roots(1)
    mid_ix, mid_dist = _closest(anchor, b)
    if mid_dist > tol:
        raise UnclassifiableExpansionError(
            f"double root {anchor} is not matched by a middle-symbol root (distance {mid_dist})")
    p_mid = stack.symbol(1).restrict(d)
    a_coef = check_poly(p_anchor, anchor_roots, {j, j + 1}, anchor)
    b_coef = sign_mid * check_poly(p_mid, b, {mid_ix}, anchor)
    c_coef = complex(p_other(anchor))
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
    branch values at the regime's anchor end of the grid.
    """
    anchor_i = 0 if regime is Regime.LOW else len(branchset.rho_grid) - 1
    rho = float(branchset.rho_grid[anchor_i])
    preds = np.array([r.evaluate(rho) for r in records])
    vals = branchset.values_at(anchor_i)
    cost = np.abs(preds[:, None] - vals[None, :])
    rows, cols = linear_sum_assignment(cost)
    return {int(r): int(c) for r, c in zip(rows, cols)}


def verify_expansion(branchset: RootBranchSet, record: ExpansionRecord,
                     branch_index: int | None = None) -> tuple[float, float]:
    """Fit the remainder order of `record` against a tracked branch.

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
    if branch_index is None:
        branch_index = match_records_to_branches(branchset, [record], record.regime)[0]
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
