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
from .stability import anchor_cases, real_root_table
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

    Depth 2 uses the quadratic formula, which reads the polynomial as monic,
    which it is: normalization divides by the leading coefficient, so c_{m,0}
    is exactly 1.  It keeps a discriminant-zero double root exact.  Other
    depths use the root finder, which at depth 1 returns exactly -c_{m-1,0}.
    """
    cs = stack.pure_time_coeffs()
    ell = stack.ell
    if ell == 2:
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


def _signed(z: complex, sigma: float) -> complex:
    """sigma * z as an exact negation, so a zero part keeps its sign."""
    return z if sigma > 0 else -z


def _expansions(stack: OperatorStack, d: Direction, regime: Regime) -> list[tuple[ExpansionRecord, complex]]:
    """The records of the branches anchored at the level-0 roots, each paired
    with the deleted-root product of its anchor a in the level-0 symbol (p0'(a)
    at a simple anchor; both members deleted at a double one).

    Each group of level-0 roots is read once, at its midpoint a.  A double anchor
    splits with the two roots kappa of p0''(a)/2 kappa^2 - sigma p1'(a) kappa +
    p2(a), largest real part first, which must be negative.  At low frequency a
    shared or double anchor is handled only at depth 2; at high frequency a
    double anchor needs depth >= 2, and a shared anchor at depth 1 keeps the
    SIMPLE record, whose constant then vanishes identically.
    """
    low = regime is Regime.LOW
    if stack.ell < 1:
        raise UnclassifiableExpansionError(
            f"{regime.value.lower()}-frequency expansions need stack depth >= 1")
    rows = stack_rows(stack, d.vector()[None, :])[0]
    tables = [real_root_table(r[None, :]) for r in rows]
    order = range(stack.ell, -1, -1) if low else range(stack.ell + 1)
    polys = [UnivariatePoly.of(rows[k]) for k in order]   # R_0, R_1, ...
    base, mid = tables[order[0]].re[0], tables[order[1]].re[0]
    c = anchor_cases(base, mid, max(t.scale[0] for t in tables))
    s = 1.0 if low else -1.0
    out: list[tuple[ExpansionRecord, complex]] = []
    for j in np.flatnonzero(c.group == np.arange(len(base))):  # the first root of each group
        j, size = int(j), int(c.multiplicity[j])
        anchor = float(0.5 * (base[j] + base[j + size - 1]))   # exact at a simple root, -0.0 too
        mid_ix, mid_dist, shared = int(c.nearest[j]), float(c.distance[j]), bool(c.shared[j])
        if size > 2:
            raise UnclassifiableExpansionError(
                f"root {anchor} of the {'lowest' if low else 'leading'} symbol has multiplicity {size} > 2")
        if size == 2 and (stack.ell < 2 or low and stack.ell != 2):
            raise UnclassifiableExpansionError(
                f"double root {anchor} of the lowest symbol is only handled at depth 2" if low else
                f"double root {anchor} of the leading symbol needs a depth-2 stack "
                "(otherwise the stack is not strictly stable)")
        if shared and low and stack.ell != 2:
            raise UnclassifiableExpansionError(
                f"root {anchor} shared with the next symbol is only handled at depth 2 "
                f"(stack depth {stack.ell})")
        if size == 2 and mid_dist > c.tol:
            raise UnclassifiableExpansionError(
                f"double root {anchor} is not matched by a middle-symbol root (distance {mid_dist})")
        head = (1.0, 1j * anchor)
        pcheck = check_poly(polys[0], base, set(range(j, j + size)), anchor)
        if size == 1 and not (shared and stack.ell >= 2):
            c1 = _signed(complex(polys[1](anchor)), s) / pcheck
            out.append((ExpansionRecord(
                branch=len(out), regime=regime, case=ExpansionCase.SIMPLE,
                terms=(head, (1.0 + s, complex(c1))), classification_margin=mid_dist), pcheck))
            continue
        # a double or shared anchor: R_2 and the middle root's deleted-root product enter
        p2, ptilde = complex(polys[2](anchor)), check_poly(polys[1], mid, {mid_ix}, anchor)
        if size == 2:
            pair = sorted(map(complex, roots(UnivariatePoly.of([p2, -s * ptilde, pcheck]))),
                          key=lambda z: (z.real, z.imag), reverse=True)
            if pair[0].real >= 0:
                raise UnclassifiableExpansionError(
                    f"quadratic solution {pair[0]} has nonnegative real part; configuration violated")
            out += [(ExpansionRecord(branch=len(out) + i, regime=regime, case=ExpansionCase.DOUBLE,
                                     terms=(head, (1.0 + s, kappa))), pcheck) for i, kappa in enumerate(pair)]
        else:
            # the real part only enters two orders later
            c3 = _signed(p2, s) * ptilde / pcheck**2
            if len(polys) > 3:  # R_3 enters mu_3 as well
                c3 = c3 - _signed(complex(polys[3](anchor)), s) / pcheck
            out.append((ExpansionRecord(
                branch=len(out), regime=regime, case=ExpansionCase.SHARED_SIMPLE,
                terms=(head, (1.0 + 2 * s, 1j * (p2 / pcheck)), (1.0 + 3 * s, complex(c3))),
                classification_margin=mid_dist), pcheck))
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
    perm = assign(np.abs(pred[:, None] - branchset.branches[None, :, anchor_i]))
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
    floor = np.maximum(1e-12, 10.0 * branchset.noise[branch_index][mask])
    if np.all(np.abs(r) < floor):
        # exact to tracking accuracy: the fit would only see rounding noise
        return np.inf, 0.0
    slope, _ = fit_loglog(sub, np.abs(r), None)
    fitted_order = slope if record.regime is Regime.LOW else -slope
    boundary = np.argmax(sub) if record.regime is Regime.LOW else np.argmin(sub)
    rel = float(np.abs(r[boundary]) / max(np.abs(lam[boundary]), np.finfo(float).tiny))
    return float(fitted_order), rel
