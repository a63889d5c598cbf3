"""Hyperbolicity, interlacing, and strict-stability classification.

The decisive quantities are root gaps and orderings of the per-direction
restrictions.  Classification is a certification up to the sampled direction
resolution: every report carries the minimum margin observed (normalized by a
root-magnitude scale) so callers can judge robustness, and the CLI maps small
margins to an "inconclusive" exit code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rootkit import (NonRealRootsError, RadialRootSolver, is_real_root, real_roots_sorted,
                      roots, root_scale)
from .symbols import Direction, HomogeneousSymbol, OperatorStack, UnivariatePoly, axis_direction
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
            "interlacing_upper": None if self.interlacing_upper is None else {
                "class": self.interlacing_upper.klass.value,
                "margin": self.interlacing_upper.margin,
                "witness": _encode_witness(self.interlacing_upper.witness),
            },
            "interlacing_lower": None if self.interlacing_lower is None else {
                "class": self.interlacing_lower.klass.value,
                "margin": self.interlacing_lower.margin,
                "witness": _encode_witness(self.interlacing_lower.witness),
            },
            "no_common_triple_root": self.no_common_triple_root,
            "triple_witness": _encode_witness(self.triple_witness),
            "strictly_stable": self.strictly_stable,
            "scenario_flags": sorted(self.scenario_flags),
            "min_margin": self.min_margin,
            "n_directions": self.n_directions,
            "inconclusive": self.inconclusive,
            "notes": list(self.notes),
        }


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
# hyperbolicity and interlacing


def classify_hyperbolicity(sym: HomogeneousSymbol, samples: Sequence[Direction]) -> Hyperbolicity:
    if not samples:
        raise ValueError("classify_hyperbolicity needs at least one sample direction")
    if sym.is_zero:
        return Hyperbolicity.NONE
    if sym.pure_time_coeff <= 0:
        raise ValueError(f"symbol of order {sym.order} has nonpositive pure-time coefficient")
    if sym.order == 0:
        return Hyperbolicity.STRICT
    strict = True
    for d in samples:
        p = sym.restrict(d)
        zs = roots(p)
        if any(not is_real_root(z) for z in zs):
            return Hyperbolicity.NONE
        re = np.sort(zs.real)
        if len(re) > 1:
            scale = root_scale(re)
            if np.min(np.diff(re)) <= TOL.strict_gap_rtol * scale:
                strict = False
    return Hyperbolicity.STRICT if strict else Hyperbolicity.WEAK


def classify_interlacing(p_low: UnivariatePoly, p_high: UnivariatePoly) -> InterlacingClass:
    """Interlacing of the roots of p_low (degree d-1) inside those of p_high (degree d)."""
    if p_high.degree != p_low.degree + 1:
        raise ValueError(f"degree mismatch: deg high {p_high.degree} != deg low {p_low.degree} + 1")
    lam = real_roots_sorted(p_high)
    b = real_roots_sorted(p_low)
    scale = max(root_scale(lam), root_scale(b))
    tol = TOL.interlace_margin_rtol * scale
    min_gap = np.inf
    witness = None
    for i in range(len(b)):
        for gap, desc in ((b[i] - lam[i], f"b[{i}]-lam[{i}]"), (lam[i + 1] - b[i], f"lam[{i + 1}]-b[{i}]")):
            if gap < min_gap:
                min_gap = gap
                witness = (desc, float(gap))
    margin = float(min_gap / scale)
    if min_gap > tol:
        return InterlacingClass(Interlacing.STRICT, margin, None)
    if min_gap >= -tol:
        return InterlacingClass(Interlacing.WEAK, margin, witness)
    return InterlacingClass(Interlacing.FAIL, margin, witness)


def _combine(cur: InterlacingClass | None, new: InterlacingClass, d_index: int) -> InterlacingClass:
    new = InterlacingClass(new.klass, new.margin,
                           None if new.witness is None else (d_index,) + new.witness)
    if cur is None:
        return new
    rank = {Interlacing.STRICT: 0, Interlacing.WEAK: 1, Interlacing.FAIL: 2}
    worst = new if rank[new.klass] > rank[cur.klass] else cur
    margin = min(cur.margin, new.margin)
    witness = worst.witness if worst.witness is not None else (cur.witness or new.witness)
    return InterlacingClass(worst.klass, margin, witness)


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
    out = []
    scale = 1.0
    for s in stack.symbols:
        if s.is_zero:
            out.append(np.array([]))
            continue
        r = real_roots_sorted(s.restrict(d))
        out.append(r)
        if len(r):
            scale = max(scale, root_scale(r))
    return DirectionRootData(d, tuple(out), scale)


def _multiplicity_pairs(r: np.ndarray, tol: float) -> list[int]:
    """Indices i with r[i] ~ r[i+1] (adjacent double roots)."""
    return [i for i in range(len(r) - 1) if r[i + 1] - r[i] <= tol]


def _matches(value: float, pool: np.ndarray, tol: float) -> bool:
    return bool(len(pool)) and bool(np.min(np.abs(pool - value)) <= tol)


def scenario_flags_for(stack: OperatorStack, samples: Sequence[Direction]) -> frozenset[str]:
    """Which weak-interlacing phenomena are present anywhere on the sphere."""
    flags: set[str] = set()
    for d in samples:
        try:
            data = direction_root_data(stack, d)
        except NonRealRootsError:
            continue
        tol = TOL.root_match_rtol * data.scale
        a = data.roots(0)
        b = data.roots(1) if stack.ell >= 1 else np.array([])
        dd = data.roots(2) if stack.ell >= 2 else np.array([])
        a_doubles = _multiplicity_pairs(a, tol)
        if a_doubles:
            flags.add(SCENARIO_DERIVATIVE_LOSS)
        double_pos = {i for i in a_doubles} | {i + 1 for i in a_doubles}
        for i, aj in enumerate(a):
            if i not in double_pos and _matches(aj, b, tol):
                flags.add(SCENARIO_REG_LOSS_DECAY)
        if stack.ell >= 2:
            d_doubles = _multiplicity_pairs(dd, tol)
            if d_doubles:
                flags.add(SCENARIO_DECAY_LOSS)
            dpos = {i for i in d_doubles} | {i + 1 for i in d_doubles}
            for i, dj in enumerate(dd):
                if i not in dpos and _matches(dj, b, tol):
                    flags.add(SCENARIO_SLOW_LOW)
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
    samples = list(samples) if samples is not None else directions_for(stack)
    hyp = {s.order: classify_hyperbolicity(s, samples) for s in stack.symbols}
    upper = None
    notes: list[str] = []
    for di, d in enumerate(samples):
        try:
            cls = classify_interlacing(stack.symbol(1).restrict(d), stack.symbol(0).restrict(d))
        except NonRealRootsError as exc:
            cls = InterlacingClass(Interlacing.FAIL, -np.inf, (repr(exc.bad_root),))
        upper = _combine(upper, cls, di)
    stable = (hyp[stack.m] is Hyperbolicity.STRICT and hyp[stack.m - 1] is Hyperbolicity.STRICT
              and upper.klass is Interlacing.STRICT)
    flags = scenario_flags_for(stack, samples)
    return StabilityReport(
        ell=1, m=stack.m, hyperbolicity=hyp, interlacing_upper=upper, interlacing_lower=None,
        no_common_triple_root=True, triple_witness=None, strictly_stable=stable,
        scenario_flags=flags, min_margin=upper.margin, n_directions=len(samples),
        inconclusive=_uncertain_strict(upper.margin), notes=notes)


def _no_common_triple_root(stack: OperatorStack, samples: Sequence[Direction]):
    """Smallest (over directions and root candidates) of the largest relative
    residual among the three top symbols; a common triple root drives it to 0."""
    best = np.inf
    witness = None
    for di, d in enumerate(samples):
        ps = [stack.symbol(j).restrict(d) for j in range(3)]
        candidates: list[float] = []
        for p in ps:
            if p.degree >= 1:
                try:
                    candidates.extend(real_roots_sorted(p).tolist())
                except NonRealRootsError:
                    continue
        for lam0 in candidates:
            worst = 0.0
            for p in ps:
                c = np.abs(p.array())
                scale = float(np.polynomial.polynomial.polyval(abs(lam0), c))
                val = abs(complex(p(lam0))) / max(scale, np.finfo(float).tiny)
                worst = max(worst, val)
            if worst < best:
                best = worst
                witness = (di, float(lam0), float(worst))
    ok = best > TOL.triple_root_rtol
    return ok, witness, best


def verify_hypothesis_Q2(stack: OperatorStack, samples: Sequence[Direction] | None = None) -> StabilityReport:
    """All five strict-stability conditions for a depth-2 stack, plus scenario flags."""
    if stack.ell != 2:
        raise ValueError(f"verify_hypothesis_Q2 needs ell = 2, got {stack.ell}")
    samples = list(samples) if samples is not None else directions_for(stack)
    hyp = {s.order: classify_hyperbolicity(s, samples) for s in stack.symbols}
    upper = None
    lower = None
    for di, d in enumerate(samples):
        for pair, slot in (((1, 0), "upper"), ((2, 1), "lower")):
            try:
                cls = classify_interlacing(stack.symbol(pair[0]).restrict(d),
                                           stack.symbol(pair[1]).restrict(d))
            except (NonRealRootsError, ValueError) as exc:
                cls = InterlacingClass(Interlacing.FAIL, -np.inf, (str(exc),))
            if slot == "upper":
                upper = _combine(upper, cls, di)
            else:
                lower = _combine(lower, cls, di)
    triple_ok, triple_witness, triple_res = _no_common_triple_root(stack, samples)
    stable = (
        hyp[stack.m] in (Hyperbolicity.STRICT, Hyperbolicity.WEAK)
        and hyp[stack.m - 2] in (Hyperbolicity.STRICT, Hyperbolicity.WEAK)
        and hyp[stack.m - 1] is Hyperbolicity.STRICT
        and upper.klass in (Interlacing.STRICT, Interlacing.WEAK)
        and lower.klass in (Interlacing.STRICT, Interlacing.WEAK)
        and triple_ok
    )
    flags = scenario_flags_for(stack, samples)
    margin = min(upper.margin, lower.margin)
    uncertain = (_uncertain_weak(upper.margin) or _uncertain_weak(lower.margin)
                 or TOL.triple_root_rtol / 10.0 <= triple_res <= 10.0 * TOL.triple_root_rtol)
    return StabilityReport(
        ell=2, m=stack.m, hyperbolicity=hyp, interlacing_upper=upper, interlacing_lower=lower,
        no_common_triple_root=triple_ok, triple_witness=triple_witness, strictly_stable=stable,
        scenario_flags=flags, min_margin=margin, n_directions=len(samples), inconclusive=uncertain)


def _restrict_at_xi(sym: HomogeneousSymbol, d: Direction, rho: float) -> UnivariatePoly:
    """P(lambda, rho*d) over the reals: restriction coefficients scaled by rho^(order-k)."""
    p = sym.restrict(d).array()
    out = np.zeros(sym.order + 1, dtype=float)
    out[: len(p)] = p.real
    for k in range(sym.order + 1):
        out[k] *= rho ** (sym.order - k)
    return UnivariatePoly.of(out)


def hermite_biehler_pair(stack: OperatorStack, xi: Sequence[float]) -> tuple[UnivariatePoly, UnivariatePoly]:
    """(odd, even) test polynomials at real xi: O = P_{m-1}-P_{m-3}, E = P_m-P_{m-2}."""
    xi = np.asarray(xi, dtype=float)
    rho = float(np.linalg.norm(xi))
    if rho == 0.0:
        raise ValueError("the interlacing test needs xi != 0")
    d = Direction.of(xi)
    even = _restrict_at_xi(stack.symbol(0), d, rho)
    if stack.ell >= 2:
        even = even - _restrict_at_xi(stack.symbol(2), d, rho)
    odd = _restrict_at_xi(stack.symbol(1), d, rho) if stack.ell >= 1 else UnivariatePoly.of([0.0])
    if stack.ell >= 3:
        odd = odd - _restrict_at_xi(stack.symbol(3), d, rho)
    return odd, even


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
    samples = list(samples) if samples is not None else directions_for(stack)
    radii = np.asarray(radii if radii is not None else np.geomspace(1e-3, 1e3, 25))
    hyp = {s.order: classify_hyperbolicity(s, samples) for s in stack.symbols}
    verdict = None
    for di, d in enumerate(samples):
        for rho in radii:
            try:
                cls = classify_interlacing(*hermite_biehler_pair(stack, rho * d.vector()))
            except (NonRealRootsError, ValueError) as exc:
                cls = InterlacingClass(Interlacing.FAIL, -np.inf, (str(exc),))
            verdict = _combine(verdict, cls, di)
    stable = verdict.klass is Interlacing.STRICT
    flags = scenario_flags_for(stack, samples)
    return StabilityReport(
        ell=stack.ell, m=stack.m, hyperbolicity=hyp, interlacing_upper=verdict, interlacing_lower=None,
        no_common_triple_root=True, triple_witness=None, strictly_stable=stable,
        scenario_flags=flags, min_margin=verdict.margin, n_directions=len(samples),
        inconclusive=_uncertain_strict(verdict.margin),
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
