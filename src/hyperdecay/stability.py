"""Hyperbolicity, interlacing, and strict-stability classification.

The decisive quantities are root gaps and orderings of the restrictions
P_{m-j}(lambda, d).  A classification solves each symbol once over all sampled
directions (one `roots_batch` call on its `restriction_coeffs` rows) and every
check reads that table; the depth-3 route reads its even/odd test rows for
all (direction, radius) points off one `stack_rows` call and shares the
row-wise interlacing test.
Classification is a certification up to the sampled direction resolution:
every report carries the minimum margin observed (normalized by a
root-magnitude scale) so callers can judge robustness, and the CLI maps small
margins to an "inconclusive" exit code.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .rootkit import NonRealRootsError, _residuals, is_real_root, root_groups, roots_batch
from .symbols import (Direction, HomogeneousSymbol, OperatorStack, UnivariatePoly, axis_direction,
                      restriction_coeffs, stack_rows)
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
            "min_margin": self.min_margin,
            "n_directions": self.n_directions,
            "inconclusive": self.inconclusive,
            "notes": list(self.notes),
        }


def _encode_interlacing(c: InterlacingClass | None):
    if c is None:
        return None
    return {"class": c.klass.value, "margin": c.margin, "witness": _encode_witness(c.witness)}


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
        self.re = self.roots.real   # `roots_batch` orders each row by real part first
        self.scale = 1.0 + np.max(np.abs(self.re), axis=1, initial=0.0)

    def nonreal_error(self, row: int) -> NonRealRootsError:
        """The error naming the row's first non-real root in canonical order."""
        bad = self.roots[row][np.argmin(self.root_is_real[row])]
        return NonRealRootsError(bad)


def real_root_table(coeffs: np.ndarray) -> _RootTable:
    """The table of one coefficient row coeffs[1, w]; raises NonRealRootsError on a non-real root."""
    t = _RootTable(coeffs)
    if not t.real[0]:
        raise t.nonreal_error(0)
    return t


def _stack_table(stack: OperatorStack):
    """(directions[D, n], hyperbolicity by order, root table per symbol) for one classification."""
    dirs = np.array([d.components for d in sample_directions(stack.dim, stack.isotropic)], dtype=float)
    classes, tables = zip(*(_hyperbolicity(s, dirs) for s in stack.symbols))
    return dirs, {s.order: c for s, c in zip(stack.symbols, classes)}, tables


# ---------------------------------------------------------------------------
# hyperbolicity and interlacing


def _hyperbolicity(sym: HomogeneousSymbol, dirs: np.ndarray) -> tuple[Hyperbolicity, _RootTable | None]:
    """Class of sym over the rows of dirs[D, n] and the table it was read from (None at order 0)."""
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


AnchorCases = namedtuple("AnchorCases", "group multiplicity nearest distance shared tol")


def anchor_cases(base: np.ndarray, mid: np.ndarray, scale) -> AnchorCases:
    """The one decision of double and shared anchor roots, behind both the scenario flags
    and the expansion cases.  Per sorted real root of base[..., k]: its `root_groups` label
    at tol = root_match_rtol * scale[...] (the first index of its group), the group's size,
    the index of and distance to the nearest root of mid[..., k'] (-1 and inf without one),
    and whether it is shared: simple and within tol of that root."""
    tol = TOL.root_match_rtol * np.asarray(scale, dtype=float)
    group = root_groups(base, tol)
    multiplicity = np.count_nonzero(group[..., :, None] == group[..., None, :], axis=-1)
    dist = np.abs(base[..., :, None] - mid[..., None, :])
    distance = np.min(dist, axis=-1, initial=np.inf)
    nearest = np.argmin(dist, axis=-1) if mid.shape[-1] else np.full(base.shape, -1)
    return AnchorCases(group, multiplicity, nearest, distance,
                       (multiplicity == 1) & (distance <= tol[..., None]), tol)


def _scenario_flags(stack: OperatorStack, tables: Sequence[_RootTable]) -> frozenset[str]:
    """Scenario flags over the rows at which every restriction is real-rooted: a
    double root of P_m (of P_{m-2}) flags DERIVATIVE_LOSS (DECAY_LOSS), a simple
    one shared with P_{m-1} flags REG_LOSS_DECAY (SLOW_LOW)."""
    ok = np.logical_and.reduce([t.real for t in tables])
    scale = np.max([t.scale for t in tables], axis=0)[ok]
    flags: set[str] = set()
    levels = [(0, SCENARIO_DERIVATIVE_LOSS, SCENARIO_REG_LOSS_DECAY),
              (2, SCENARIO_DECAY_LOSS, SCENARIO_SLOW_LOW)]
    for j, double_flag, shared_flag in levels[: 2 if stack.ell >= 2 else 1]:
        cases = anchor_cases(tables[j].re[ok], tables[1].re[ok], scale)
        if np.any(cases.multiplicity >= 2):
            flags.add(double_flag)
        if np.any(cases.shared):
            flags.add(shared_flag)
    return frozenset(flags)


# ---------------------------------------------------------------------------
# stability verdicts


def _near(value: float, boundary: float) -> bool:
    """Within a decade of a verdict boundary: value between boundary/10 and
    10*boundary (an inconclusive verdict).  A zero boundary admits 0 only."""
    lo, hi = sorted((boundary / 10.0, 10.0 * boundary))
    return lo <= value <= hi


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


def _hermite_biehler_rows(stack: OperatorStack, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Odd and even test-polynomial coefficients O = P_{m-1} - P_{m-3} and
    E = P_m - P_{m-2} at every row of xi[N, n], from its `stack_rows` row;
    shapes (N, m) and (N, m+1)."""
    r = np.pad(stack_rows(stack, xi), ((0, 0), (0, 3 - stack.ell), (0, 0)))
    return (r[:, 1] - r[:, 3])[:, : stack.m], r[:, 0] - r[:, 2]


def hermite_biehler_stable(stack: OperatorStack, xi: Sequence[float]) -> bool:
    """Strict stability of the full symbol at one xi != 0: one row of the depth-3
    test in `classify_stack`; non-real-rooted pairs count as not stable."""
    if stack.ell < 1 or stack.ell > 3:
        raise ValueError("the interlacing stability test supports depths 1..3")
    xi = np.asarray(xi, dtype=float)
    if not np.any(xi):
        raise ValueError("the interlacing test needs xi != 0")
    odd, even = _hermite_biehler_rows(stack, xi[None, :])
    return _interlacing(_RootTable(odd), _RootTable(even)).klass is Interlacing.STRICT


def classify_stack(stack: OperatorStack) -> StabilityReport:
    """Strict stability of a depth-1, 2 or 3 stack at every `sample_directions` direction, plus flags.

    Depth 1: both symbols strictly hyperbolic and strictly interlacing.
    Depth 2: P_{m-1} strictly and P_m, P_{m-2} at least weakly hyperbolic, both
    consecutive pairs at least weakly interlacing, and no common triple root.
    Depth 3: the even/odd pair strictly interlaces at 25 radii in [1e-3, 1e3]
    along every direction.  A verdict within a decade of its boundary is
    inconclusive.
    """
    if not 1 <= stack.ell <= 3:
        raise ValueError(f"no stability route for stack depth {stack.ell}")
    dirs, hyp, tables = _stack_table(stack)
    weak_ok = stack.ell == 2
    triple_ok, triple_witness, notes = True, None, []
    if stack.ell == 3:
        radii = np.geomspace(1e-3, 1e3, 25)
        xi = (dirs[:, None, :] * radii[:, None]).reshape(-1, stack.dim)  # direction-major
        odd, even = _hermite_biehler_rows(stack, xi)
        pair = _interlacing(_RootTable(odd), _RootTable(even))
        if pair.witness is not None:  # rows run over the radii of one direction, then the next
            pair = replace(pair, witness=(pair.witness[0] // len(radii),) + pair.witness[1:])
        pairs, stable = [pair], True
        notes.append("even/odd pair interlacing sampled over directions and radii")
    else:
        pairs = [_interlacing(tables[j + 1], tables[j]) for j in range(stack.ell)]
        ends = (Hyperbolicity.STRICT, Hyperbolicity.WEAK) if weak_ok else (Hyperbolicity.STRICT,)
        stable = (hyp[stack.m - 1] is Hyperbolicity.STRICT and hyp[stack.m] in ends
                  and hyp[stack.m - stack.ell] in ends)
    tol = TOL.interlace_margin_rtol
    windows = [(c.margin, -tol if weak_ok else tol) for c in pairs]
    if weak_ok:
        triple_ok, triple_witness, triple_res = _no_common_triple_root(tables)
        windows.append((triple_res, TOL.triple_root_rtol))
    accepted = (Interlacing.STRICT, Interlacing.WEAK) if weak_ok else (Interlacing.STRICT,)
    return StabilityReport(
        ell=stack.ell, m=stack.m, hyperbolicity=hyp, interlacing_upper=pairs[0],
        interlacing_lower=pairs[1] if weak_ok else None,
        no_common_triple_root=triple_ok, triple_witness=triple_witness,
        strictly_stable=stable and triple_ok and all(c.klass in accepted for c in pairs),
        scenario_flags=_scenario_flags(stack, tables), min_margin=min(c.margin for c in pairs),
        n_directions=len(dirs), inconclusive=any(_near(v, b) for v, b in windows), notes=notes)


def stable_Q1(stack: OperatorStack) -> StabilityReport:
    """`classify_stack` for a depth-1 stack: both symbols strictly hyperbolic
    and strictly interlacing at every sampled direction."""
    if stack.ell != 1:
        raise ValueError(f"stable_Q1 needs ell = 1, got {stack.ell}")
    return classify_stack(stack)


def verify_hypothesis_Q2(stack: OperatorStack) -> StabilityReport:
    """`classify_stack` for a depth-2 stack: all five strict-stability conditions, plus scenario flags."""
    if stack.ell != 2:
        raise ValueError(f"verify_hypothesis_Q2 needs ell = 2, got {stack.ell}")
    return classify_stack(stack)
