"""Hyperbolicity, interlacing, and strict-stability classification.

The decisive quantities are root gaps and orderings of the restrictions
P_{m-j}(lambda, d).  A classification solves each symbol once over all sampled
directions (one `roots_batch` call on its `restriction_coeffs` rows) and every
check reads that table; the depth-3 route builds its even/odd test rows for
all (direction, radius) pairs at once and shares the row-wise interlacing test.
Classification is a certification up to the sampled direction resolution:
every report carries the minimum margin observed (normalized by a
root-magnitude scale) so callers can judge robustness, and the CLI maps small
margins to an "inconclusive" exit code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .rootkit import NonRealRootsError, RadialRootSolver, _residuals, is_real_root, root_groups, roots_batch
from .symbols import (Direction, HomogeneousSymbol, OperatorStack, UnivariatePoly, axis_direction,
                      restriction_coeffs)
from .tolerances import TOL


class Hyperbolicity(enum.Enum):
    STRICT = "STRICT"
    WEAK = "WEAK"
    NONE = "NONE"


class Interlacing(enum.Enum):
    STRICT = "STRICT"
    WEAK = "WEAK"
    FAIL = "FAIL"


SCENARIO_SLOW_LOW = "SLOW_LOW"
SCENARIO_DECAY_LOSS = "DECAY_LOSS"
SCENARIO_REG_LOSS_DECAY = "REG_LOSS_DECAY"
SCENARIO_DERIVATIVE_LOSS = "DERIVATIVE_LOSS"


@dataclass(frozen=True)
class InterlacingClass:
    klass: Interlacing
    margin: float                      # min signed gap / scale; > 0 strict, ~0 weak, < 0 fail
    witness: tuple | None = None       # (direction_index, pair_description) for WEAK/FAIL

    def __str__(self):
        return self.klass.value


@dataclass
class StabilityReport:
    ell: int
    m: int
    hyperbolicity: dict[int, Hyperbolicity]           # keyed by symbol order
    interlacing_upper: InterlacingClass | None        # (P_{m-1}, P_m)
    interlacing_lower: InterlacingClass | None        # (P_{m-2}, P_{m-1})
    no_common_triple_root: bool
    triple_witness: tuple | None
    strictly_stable: bool
    scenario_flags: frozenset[str]
    min_margin: float
    n_directions: int
    inconclusive: bool = False
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ell": self.ell,
            "m": self.m,
            "hyperbolicity": {str(k): v.value for k, v in sorted(self.hyperbolicity.items())},
            "interlacing_upper": _encode_interlacing(self.interlacing_upper),
            "interlacing_lower": _encode_interlacing(self.interlacing_lower),
            "no_common_triple_root": self.no_common_triple_root,
            "triple_witness": _encode_witness(self.triple_witness),
            "strictly_stable": self.strictly_stable,
            "scenario_flags": sorted(self.scenario_flags),
            "min_margin": _finite_or_none(self.min_margin),
            "n_directions": self.n_directions,
            "inconclusive": self.inconclusive,
            "notes": list(self.notes),
        }


def _finite_or_none(x: float) -> float | None:
    """JSON has no infinity: a non-finite margin (a non-real root) is written as null."""
    return x if np.isfinite(x) else None


def _encode_interlacing(c: InterlacingClass | None):
    if c is None:
        return None
    return {"class": c.klass.value, "margin": _finite_or_none(c.margin), "witness": _encode_witness(c.witness)}


def _encode_witness(w):
    if w is None:
        return None
    return [x if isinstance(x, (int, float, str)) else repr(x) for x in w]


# ---------------------------------------------------------------------------
# direction sampling


def sample_directions(dim: int, isotropic: bool = False) -> list[Direction]:
    """Deterministic sphere sampling: {-1,+1} in 1-d, 256 angles in 2-d,
    a 512-point Fibonacci lattice in 3-d; one axis direction when isotropic."""
    if isotropic:
        return [axis_direction(dim)]
    if dim == 1:
        return [Direction((1.0,)), Direction((-1.0,))]
    if dim == 2:
        ths = 2.0 * np.pi * np.arange(256) / 256.0
        return [Direction((float(np.cos(t)), float(np.sin(t)))) for t in ths]
    if dim == 3:
        n = 512
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        pts = []
        for i in range(n):
            z = 1.0 - (2.0 * i + 1.0) / n
            r = np.sqrt(max(0.0, 1.0 - z * z))
            th = 2.0 * np.pi * i / golden
            pts.append(Direction.of((r * np.cos(th), r * np.sin(th), z)))
        return pts
    rng = np.random.default_rng(460312)
    return [Direction.of(rng.normal(size=dim)) for _ in range(512)]


def directions_for(stack: OperatorStack) -> list[Direction]:
    return sample_directions(stack.dim, stack.isotropic)


# ---------------------------------------------------------------------------
# restriction-root tables


class _RootTable:
    """Roots of every row of coeffs[K, w] (ascending) from one `roots_batch` call.

    Trailing columns that are zero in every row stay out of the solve, so one
    row reads like `UnivariatePoly.of` of it; an all-zero table is the zero
    polynomial (degree -1, no roots).  `scale` is 1 + max |root| per row.
    """

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        nonzero = np.flatnonzero(np.any(coeffs != 0, axis=0))
        self.degree = int(nonzero[-1]) if nonzero.size else -1
        self.roots = (roots_batch(coeffs[:, : self.degree + 1]) if self.degree >= 0
                      else np.zeros((len(coeffs), 0), dtype=complex))
        self.root_is_real = is_real_root(self.roots)
        self.real = np.all(self.root_is_real, axis=1)
        self.re = np.sort(self.roots.real, axis=1)
        self.scale = 1.0 + np.max(np.abs(self.re), axis=1, initial=0.0)

    def nonreal_error(self, row: int) -> NonRealRootsError:
        """The error naming the row's first non-real root in canonical order."""
        bad = self.roots[row][np.argmin(self.root_is_real[row])]
        return NonRealRootsError(UnivariatePoly.of(self.coeffs[row]), bad)


def real_root_table(coeffs: np.ndarray) -> _RootTable:
    """The table of one coefficient row coeffs[1, w]; raises NonRealRootsError on a non-real root."""
    t = _RootTable(coeffs)
    if not t.real[0]:
        raise t.nonreal_error(0)
    return t


def _stack_table(stack: OperatorStack, samples: Sequence[Direction] | None):
    """(directions[D, n], hyperbolicity by order, root table per symbol) for one classification."""
    samples = list(samples) if samples is not None else directions_for(stack)
    dirs = np.array([d.components for d in samples], dtype=float)
    classes, tables = zip(*(_hyperbolicity(s, dirs) for s in stack.symbols))
    return dirs, {s.order: c for s, c in zip(stack.symbols, classes)}, tables


# ---------------------------------------------------------------------------
# hyperbolicity and interlacing


def _hyperbolicity(sym: HomogeneousSymbol, dirs: np.ndarray) -> tuple[Hyperbolicity, _RootTable | None]:
    """Class of sym over the rows of dirs[D, n] and the table it was read from (None at order 0)."""
    if not len(dirs):
        raise ValueError("classify_hyperbolicity needs at least one sample direction")
    if sym.is_zero:
        return Hyperbolicity.NONE, _RootTable(restriction_coeffs(sym, dirs))
    if sym.pure_time_coeff <= 0:
        raise ValueError(f"symbol of order {sym.order} has nonpositive pure-time coefficient")
    if sym.order == 0:
        return Hyperbolicity.STRICT, None
    t = _RootTable(restriction_coeffs(sym, dirs))
    if not t.real.all():
        return Hyperbolicity.NONE, t
    if t.degree > 1 and np.any(np.min(np.diff(t.re, axis=1), axis=1) <= TOL.strict_gap_rtol * t.scale):
        return Hyperbolicity.WEAK, t
    return Hyperbolicity.STRICT, t


def classify_hyperbolicity(sym: HomogeneousSymbol, samples: Sequence[Direction]) -> Hyperbolicity:
    return _hyperbolicity(sym, np.array([d.components for d in samples], dtype=float))[0]


def _degree_mismatch(low_degree: int, high_degree: int) -> str | None:
    if high_degree != low_degree + 1:
        return f"degree mismatch: deg high {high_degree} != deg low {low_degree} + 1"
    return None


def _interlacing(low: _RootTable, high: _RootTable) -> InterlacingClass:
    """Interlacing of the roots of each row of `low` inside the same row of `high`,
    combined over rows.

    The class is the worst over rows and the margin (min signed gap / scale)
    the minimum.  The witness is that of the first row at the worst class,
    prefixed with its row index; within a row the gaps run b[i]-lam[i],
    lam[i+1]-b[i] and the first minimum is the witness.  A row with a non-real
    root fails with margin -inf, as does every row when the degrees do not match.
    """
    mismatch = _degree_mismatch(low.degree, high.degree)
    if mismatch is not None:
        return InterlacingClass(Interlacing.FAIL, -np.inf, (0, mismatch))
    lam, b = high.re, low.re
    scale = np.maximum(high.scale, low.scale)
    gaps = np.empty((len(lam), 2 * b.shape[1]))
    gaps[:, 0::2] = b - lam[:, :-1]
    gaps[:, 1::2] = lam[:, 1:] - b
    at = np.argmin(gaps, axis=1)
    min_gap = gaps[np.arange(len(gaps)), at]
    tol = TOL.interlace_margin_rtol * scale
    nonreal = ~(high.real & low.real)
    rank = np.where(nonreal | (min_gap < -tol), 2, np.where(min_gap > tol, 0, 1))
    margin = float(np.min(np.where(nonreal, -np.inf, min_gap / scale)))
    worst = int(np.max(rank))
    row = int(np.argmax(rank == worst))
    if worst == 0:
        witness = None
    elif nonreal[row]:
        witness = (row, str((high if not high.real[row] else low).nonreal_error(row)))
    else:
        i = int(at[row]) // 2
        desc = f"b[{i}]-lam[{i}]" if at[row] % 2 == 0 else f"lam[{i + 1}]-b[{i}]"
        witness = (row, desc, float(min_gap[row]))
    return InterlacingClass((Interlacing.STRICT, Interlacing.WEAK, Interlacing.FAIL)[worst], margin, witness)


def classify_interlacing(p_low: UnivariatePoly, p_high: UnivariatePoly) -> InterlacingClass:
    """Interlacing of the roots of p_low (degree d-1) inside those of p_high (degree d):
    the one-row call of the row-wise test, raising where that test fails a row."""
    mismatch = _degree_mismatch(p_low.degree, p_high.degree)
    if mismatch is not None:
        raise ValueError(mismatch)
    high, low = (real_root_table(p.array()[None, :]) for p in (p_high, p_low))
    cls = _interlacing(low, high)
    return InterlacingClass(cls.klass, cls.margin, None if cls.witness is None else cls.witness[1:])


# ---------------------------------------------------------------------------
# root structure along a direction (shared with the asymptotics module)


@dataclass(frozen=True)
class DirectionRootData:
    direction: Direction
    roots_by_level: tuple[np.ndarray, ...]  # sorted real roots of P_{m-j} restriction, j = 0..ell
    scale: float

    def roots(self, j: int) -> np.ndarray:
        return self.roots_by_level[j]


def direction_root_data(stack: OperatorStack, d: Direction) -> DirectionRootData:
    """One row of the classification table: the sorted real restriction roots along d."""
    tables = [real_root_table(restriction_coeffs(s, d.vector()[None, :])) for s in stack.symbols]
    return DirectionRootData(d, tuple(t.re[0] for t in tables), float(max(t.scale[0] for t in tables)))


def _scenario_flags(stack: OperatorStack, tables: Sequence[_RootTable]) -> frozenset[str]:
    """Scenario flags over the rows at which every restriction is real-rooted: a
    double root of P_m (of P_{m-2}) flags DERIVATIVE_LOSS (DECAY_LOSS), a simple
    one shared with P_{m-1} flags REG_LOSS_DECAY (SLOW_LOW)."""
    ok = np.logical_and.reduce([t.real for t in tables])
    tol = TOL.root_match_rtol * np.max([t.scale for t in tables], axis=0)[ok, None]
    b = tables[1].re[ok] if stack.ell >= 1 else np.empty((int(ok.sum()), 0))
    flags: set[str] = set()
    levels = [(0, SCENARIO_DERIVATIVE_LOSS, SCENARIO_REG_LOSS_DECAY),
              (2, SCENARIO_DECAY_LOSS, SCENARIO_SLOW_LOW)]
    for j, double_flag, shared_flag in levels[: 2 if stack.ell >= 2 else 1]:
        r = tables[j].re[ok]
        labels = root_groups(r, tol[:, 0])
        in_pair = np.count_nonzero(labels[:, :, None] == labels[:, None, :], axis=2) >= 2
        if in_pair.any():
            flags.add(double_flag)
        if b.shape[1] and np.any(~in_pair & (np.min(np.abs(b[:, None, :] - r[:, :, None]), axis=2) <= tol)):
            flags.add(shared_flag)
    return frozenset(flags)


# ---------------------------------------------------------------------------
# stability verdicts


def _uncertain_strict(margin: float) -> bool:
    """Strict interlacing required: the verdict flips at margin = rtol."""
    tol = TOL.interlace_margin_rtol
    return tol / 10.0 <= margin <= 10.0 * tol


def _uncertain_weak(margin: float) -> bool:
    """Weak interlacing suffices: the verdict flips at margin = -rtol."""
    tol = TOL.interlace_margin_rtol
    return -10.0 * tol <= margin <= -tol / 10.0


def stable_Q1(stack: OperatorStack, samples: Sequence[Direction] | None = None) -> StabilityReport:
    """Strict stability for a depth-1 stack: both symbols strictly hyperbolic
    and strictly interlacing at every sampled direction."""
    if stack.ell != 1:
        raise ValueError(f"stable_Q1 needs ell = 1, got {stack.ell}")
    dirs, hyp, tables = _stack_table(stack, samples)
    upper = _interlacing(tables[1], tables[0])
    stable = (hyp[stack.m] is Hyperbolicity.STRICT and hyp[stack.m - 1] is Hyperbolicity.STRICT
              and upper.klass is Interlacing.STRICT)
    return StabilityReport(
        ell=1, m=stack.m, hyperbolicity=hyp, interlacing_upper=upper, interlacing_lower=None,
        no_common_triple_root=True, triple_witness=None, strictly_stable=stable,
        scenario_flags=_scenario_flags(stack, tables), min_margin=upper.margin,
        n_directions=len(dirs), inconclusive=_uncertain_strict(upper.margin))


def _no_common_triple_root(tables: Sequence[_RootTable]):
    """Smallest (over directions and root candidates) of the largest relative
    residual among the three top symbols; a common triple root drives it to 0.
    Candidates are the roots of each real-rooted restriction, symbol by symbol;
    the witness is the first (direction, candidate) at the minimum."""
    cand = np.concatenate([t.re for t in tables], axis=1)
    usable = np.concatenate([np.broadcast_to(t.real[:, None], t.re.shape) for t in tables], axis=1)
    worst = np.zeros(cand.shape)
    for t in tables:
        worst = np.maximum(worst, _residuals(t.coeffs, cand))
    worst = np.where(usable, worst, np.inf)
    first = int(np.argmin(worst))
    best = float(worst.flat[first])
    di, ci = divmod(first, cand.shape[1])
    witness = (di, float(cand[di, ci]), best) if np.isfinite(best) else None
    return best > TOL.triple_root_rtol, witness, best


def verify_hypothesis_Q2(stack: OperatorStack, samples: Sequence[Direction] | None = None) -> StabilityReport:
    """All five strict-stability conditions for a depth-2 stack, plus scenario flags."""
    if stack.ell != 2:
        raise ValueError(f"verify_hypothesis_Q2 needs ell = 2, got {stack.ell}")
    dirs, hyp, tables = _stack_table(stack, samples)
    upper = _interlacing(tables[1], tables[0])
    lower = _interlacing(tables[2], tables[1])
    triple_ok, triple_witness, triple_res = _no_common_triple_root(tables)
    stable = (
        hyp[stack.m] in (Hyperbolicity.STRICT, Hyperbolicity.WEAK)
        and hyp[stack.m - 2] in (Hyperbolicity.STRICT, Hyperbolicity.WEAK)
        and hyp[stack.m - 1] is Hyperbolicity.STRICT
        and upper.klass in (Interlacing.STRICT, Interlacing.WEAK)
        and lower.klass in (Interlacing.STRICT, Interlacing.WEAK)
        and triple_ok
    )
    margin = min(upper.margin, lower.margin)
    uncertain = (_uncertain_weak(upper.margin) or _uncertain_weak(lower.margin)
                 or TOL.triple_root_rtol / 10.0 <= triple_res <= 10.0 * TOL.triple_root_rtol)
    return StabilityReport(
        ell=2, m=stack.m, hyperbolicity=hyp, interlacing_upper=upper, interlacing_lower=lower,
        no_common_triple_root=triple_ok, triple_witness=triple_witness, strictly_stable=stable,
        scenario_flags=_scenario_flags(stack, tables), min_margin=margin,
        n_directions=len(dirs), inconclusive=uncertain)


def _hermite_biehler_rows(stack: OperatorStack, dirs: np.ndarray,
                          radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Odd and even test-polynomial coefficients at xi = rho * d for every row d of
    dirs[D, n] and radius rho, direction-major: shapes (D*R, m), (D*R, m+1).
    P(lambda, rho*d) scales the restriction's lambda^k coefficient by rho^(order-k),
    a Python float power (C `pow`): numpy's vectorized power can differ in the last bit."""
    m = stack.m
    rows = np.zeros((2, len(dirs) * len(radii), m + 1))       # [even, odd]
    for j, s in enumerate(stack.symbols):
        powers = np.array([[rho ** (s.order - k) for k in range(s.order + 1)] for rho in radii.tolist()])
        c = (restriction_coeffs(s, dirs)[:, None, :] * powers).reshape(-1, s.order + 1)
        rows[j % 2, :, : s.order + 1] += c if j < 2 else -c
    return rows[1, :, :m], rows[0]


def hermite_biehler_pair(stack: OperatorStack, xi: Sequence[float]) -> tuple[UnivariatePoly, UnivariatePoly]:
    """(odd, even) test polynomials at real xi: O = P_{m-1}-P_{m-3}, E = P_m-P_{m-2}."""
    xi = np.asarray(xi, dtype=float)
    rho = float(np.linalg.norm(xi))
    if rho == 0.0:
        raise ValueError("the interlacing test needs xi != 0")
    odd, even = _hermite_biehler_rows(stack, Direction.of(xi).vector()[None, :], np.array([rho]))
    return UnivariatePoly.of(odd[0]), UnivariatePoly.of(even[0])


def hermite_biehler_stable(stack: OperatorStack, xi: Sequence[float]) -> bool:
    """Strict stability of the full symbol at one xi via strict interlacing of
    the even/odd test pair; non-real-rooted pairs count as not stable."""
    if stack.ell < 1 or stack.ell > 3:
        raise ValueError("the interlacing stability test supports depths 1..3")
    odd, even = hermite_biehler_pair(stack, xi)
    try:
        cls = classify_interlacing(odd, even)
    except (NonRealRootsError, ValueError):
        return False
    return cls.klass is Interlacing.STRICT


def hermite_biehler_report(stack: OperatorStack, samples: Sequence[Direction] | None = None,
                           radii: Sequence[float] | None = None) -> StabilityReport:
    """Depth-3 (or general) verdict: the even/odd pair must strictly interlace
    at every sampled direction and radius."""
    dirs, hyp, tables = _stack_table(stack, samples)
    radii = np.asarray(radii if radii is not None else np.geomspace(1e-3, 1e3, 25), dtype=float)
    odd, even = _hermite_biehler_rows(stack, dirs, radii)
    verdict = _interlacing(_RootTable(odd), _RootTable(even))
    if verdict.witness is not None:  # rows run over the radii of one direction, then the next
        verdict = replace(verdict, witness=(verdict.witness[0] // len(radii),) + verdict.witness[1:])
    return StabilityReport(
        ell=stack.ell, m=stack.m, hyperbolicity=hyp, interlacing_upper=verdict, interlacing_lower=None,
        no_common_triple_root=True, triple_witness=None, strictly_stable=verdict.klass is Interlacing.STRICT,
        scenario_flags=_scenario_flags(stack, tables), min_margin=verdict.margin,
        n_directions=len(dirs), inconclusive=_uncertain_strict(verdict.margin),
        notes=["even/odd pair interlacing sampled over directions and radii"])


def classify_stack(stack: OperatorStack, samples: Sequence[Direction] | None = None) -> StabilityReport:
    if stack.ell == 1:
        return stable_Q1(stack, samples)
    if stack.ell == 2:
        return verify_hypothesis_Q2(stack, samples)
    if stack.ell == 3:
        return hermite_biehler_report(stack, samples)
    raise ValueError(f"no stability route for stack depth {stack.ell}")


def routh_hurwitz_cubic(a2: float, a1: float, a0: float) -> bool:
    """Strict stability of z^3 + a2 z^2 + a1 z + a0 with positive coefficients."""
    if a2 <= 0 or a1 <= 0 or a0 <= 0:
        raise ValueError("all coefficients must be positive")
    return a0 < a1 * a2


def abscissa_verdict(stack: OperatorStack, n_samples: int = 64,
                     rho_range: tuple[float, float] = (1e-2, 1e2)) -> tuple[bool, float]:
    """Direct check max Re lambda < -abscissa_margin over sampled xi != 0.

    Returns (verdict, worst_abscissa).  Sampling: all radii on one direction
    for isotropic stacks, radii x directions otherwise.
    """
    if stack.isotropic or stack.dim == 1:
        dirs = sample_directions(stack.dim, isotropic=stack.isotropic)[: 2]
        n_r = max(1, n_samples // len(dirs))
    else:
        dirs = directions_for(stack)[:: max(1, len(directions_for(stack)) // 8)][:8]
        n_r = max(1, n_samples // len(dirs))
    radii = np.geomspace(rho_range[0], rho_range[1], n_r)
    worst = max(float(np.max(RadialRootSolver(stack, d).lambdas_grid(radii).real)) for d in dirs)
    return worst < -TOL.abscissa_margin, worst
