"""Homogeneous symbols, operator stacks, and the polynomial carriers they produce.

A homogeneous symbol of order ``r`` in dimension ``n`` is a coefficient table
``c[(k, alpha)]`` with ``k + |alpha| = r``.  Stacks are ordered lists of such
symbols with consecutive decreasing orders ``m, m-1, ..., m-ell``; the leading
pure-time coefficient is normalized to 1 at construction.

`restriction_coeffs` is the one loop over a symbol's terms: the real
coefficients of P(lambda, xi) at many real xi at once.  Every other
coefficient view is read from it: `stack_rows` holds every symbol's row,
padded to degree m, and by homogeneity P(lambda, i*xi) is the row with its
lambda^k coefficient turned by i^(order-k) (`turned`); `symbol_coeffs` sums
those turned rows into the full symbol Q(lambda, i*xi).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tolerances import TOL

MultiIndex = tuple[int, ...]

MAX_STACK_DEPTH = 3


class DimensionMismatchError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# univariate polynomials


@dataclass(frozen=True)
class UnivariatePoly:
    """Dense univariate polynomial, coefficients in ascending degree.

    Trailing exact zeros are trimmed so ``degree`` is authoritative; the zero
    polynomial keeps a single zero coefficient and reports degree -1.
    """

    coeffs: tuple[complex, ...]

    @staticmethod
    def of(coeffs: Iterable[complex]) -> "UnivariatePoly":
        c = list(complex(x) if isinstance(x, complex) else float(x) for x in coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0.0]
        return UnivariatePoly(tuple(c))

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    @property
    def leading(self) -> complex:
        return self.coeffs[-1]

    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.array())


# ---------------------------------------------------------------------------
# directions


@dataclass(frozen=True)
class Direction:
    """Unit vector on the sphere; the norm is validated to 1e-12."""

    components: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, self.components)):
            raise ValueError(f"direction {tuple(map(float, self.components))} has a non-finite component")
        norm = math.sqrt(sum(x * x for x in self.components))
        if abs(norm - 1.0) > TOL.unit_direction:
            raise ValueError(f"direction norm {norm!r} deviates from 1 beyond {TOL.unit_direction}")

    @staticmethod
    def of(components: Sequence[float]) -> "Direction":
        v = np.asarray(components, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector into a direction")
        with np.errstate(invalid="ignore"):  # inf / inf is NaN, which __post_init__ rejects
            return Direction(tuple(v / norm))

    @property
    def dim(self) -> int:
        return len(self.components)

    def vector(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)


def axis_direction(dim: int) -> Direction:
    """The unit vector along the first axis."""
    v = [0.0] * dim
    v[0] = 1.0
    return Direction(tuple(v))


# ---------------------------------------------------------------------------
# homogeneous symbols


def _validate_terms(order: int, dim: int, coeffs: Mapping[tuple[int, MultiIndex], float]):
    for (k, alpha), c in coeffs.items():
        if len(alpha) != dim:
            raise ModelFormatError(f"multi-index {alpha} does not match dimension {dim}")
        if any(a < 0 for a in alpha) or k < 0:
            raise ModelFormatError(f"negative exponent in term (k={k}, alpha={alpha})")
        if not math.isfinite(c):
            raise ModelFormatError(f"term (k={k}, alpha={alpha}) has the non-finite coefficient {c}")
        if k + sum(alpha) != order:
            raise ModelFormatError(
                f"term (k={k}, alpha={alpha}) violates k+|alpha|={order} for a symbol of order {order}"
            )


@dataclass(frozen=True)
class HomogeneousSymbol:
    """One homogeneous operator piece: coefficients c[(k, alpha)] with k+|alpha| = order."""

    order: int
    dim: int
    coeffs: dict[tuple[int, MultiIndex], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ModelFormatError("spatial dimension must be >= 1")
        if self.order < 0:
            raise ModelFormatError("symbol order must be >= 0")
        _validate_terms(self.order, self.dim, self.coeffs)
        cleaned = {key: float(c) for key, c in self.coeffs.items() if c != 0.0}
        object.__setattr__(self, "coeffs", cleaned)

    @staticmethod
    def isotropic(order: int, dim: int, radial: Mapping[int, float]) -> "HomogeneousSymbol":
        """Build a symbol from radial data: radial[k] multiplies lambda^k |xi|^(order-k).

        order-k must be even for every entry (|xi|^odd is not polynomial).
        """
        if dim < 1:     # checked before `_compositions`, which recurses without end on dim < 1
            raise ModelFormatError("spatial dimension must be >= 1")
        coeffs: dict[tuple[int, MultiIndex], float] = {}
        for k, c in radial.items():
            p2 = order - k
            if p2 < 0 or p2 % 2:
                raise ModelFormatError(f"|xi| power {p2} for lambda^{k} is not an even nonnegative integer")
            p = p2 // 2
            for beta in _compositions(p, dim):
                w = math.factorial(p)
                for b in beta:
                    w //= math.factorial(b)
                alpha = tuple(2 * b for b in beta)
                coeffs[(k, alpha)] = coeffs.get((k, alpha), 0.0) + c * w
        return HomogeneousSymbol(order, dim, coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def pure_time_coeff(self) -> float:
        return self.coeffs.get((self.order, (0,) * self.dim), 0.0)

    def terms(self):
        """Deterministic iteration: descending time order, then lexicographic multi-index."""
        return sorted(self.coeffs.items(), key=lambda kv: (-kv[0][0], kv[0][1]))

    def divided(self, divisor: float) -> "HomogeneousSymbol":
        return HomogeneousSymbol(self.order, self.dim, {key: c / divisor for key, c in self.coeffs.items()})


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# operator stacks


@dataclass(frozen=True)
class OperatorStack:
    """Ordered symbols of consecutive orders m, m-1, ..., m-ell (depth 0 <= ell <= 3)."""

    symbols: tuple[HomogeneousSymbol, ...]
    isotropic: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not self.symbols:
            raise ModelFormatError("an operator stack needs at least one symbol")
        dims = {s.dim for s in self.symbols}
        if len(dims) != 1:
            raise DimensionMismatchError(f"symbols mix dimensions {sorted(dims)}")
        orders = [s.order for s in self.symbols]
        expected = list(range(orders[0], orders[0] - len(orders), -1))
        if orders != expected:
            raise ModelFormatError(f"orders {orders} are not consecutive decreasing from the leading order")
        if len(self.symbols) - 1 > MAX_STACK_DEPTH:
            raise ModelFormatError(
                f"stack depth ell={len(self.symbols) - 1} exceeds the supported maximum {MAX_STACK_DEPTH}"
            )
        if orders[-1] < 1 and len(self.symbols) > 1:
            raise ModelFormatError("the lowest symbol must have order >= 1")

    @staticmethod
    def build(symbols: Sequence[HomogeneousSymbol]) -> "OperatorStack":
        """Normalize (divide by the leading pure-time coefficient) and validate positivity."""
        if not symbols:
            raise ModelFormatError("an operator stack needs at least one symbol")
        top = symbols[0].pure_time_coeff
        if top <= 0:
            raise ModelFormatError(f"leading pure-time coefficient must be positive, got {top}")
        # c / top, not c * (1 / top): the leading coefficient is then exactly 1
        scaled = tuple(s.divided(top) for s in symbols)
        if len(scaled) > 1 and scaled[-1].pure_time_coeff <= 0:
            raise ModelFormatError("the lowest symbol needs a positive pure-time coefficient")
        iso = _detect_isotropy(scaled)
        return OperatorStack(scaled, isotropic=iso)

    @property
    def m(self) -> int:
        return self.symbols[0].order

    @property
    def ell(self) -> int:
        return len(self.symbols) - 1

    @property
    def dim(self) -> int:
        return self.symbols[0].dim

    def pure_time_coeffs(self) -> list[float]:
        """[c_{m,0}, c_{m-1,0}, ..., c_{m-ell,0}] after normalization."""
        return [s.pure_time_coeff for s in self.symbols]


def _detect_isotropy(symbols: Sequence[HomogeneousSymbol]) -> bool:
    dim = symbols[0].dim
    if dim == 1:
        ds = [axis_direction(1), Direction((-1.0,))]
    else:
        rng = np.random.default_rng(181261)
        ds = [Direction.of(rng.normal(size=dim)) for _ in range(8)]
    dirs = np.array([d.components for d in ds])
    for s in symbols:
        c = restriction_coeffs(s, dirs)
        scale = max(1.0, float(np.max(np.abs(c[0]))))
        if np.max(np.abs(c[1:] - c[0])) > TOL.isotropy_rtol * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# the coefficient views

_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def restriction_coeffs(sym: HomogeneousSymbol, xi: np.ndarray) -> np.ndarray:
    """Ascending coefficients of P(lambda, xi) at every row of xi[N, n]; shape (N, order+1).

    The one loop over a symbol's terms.  Each monomial is a product of
    per-coordinate powers with a scalar exponent.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != sym.dim:
        raise DimensionMismatchError(f"xi shape {xi.shape} != (N, {sym.dim})")
    out = np.zeros((xi.shape[0], sym.order + 1), dtype=float)
    for (k, alpha), c in sym.terms():
        mono = np.ones(xi.shape[0])
        for i, a in enumerate(alpha):
            if a:
                mono = mono * xi[:, i] ** a
        out[:, k] += c * mono
    return out


def stack_rows(stack: OperatorStack, xi: np.ndarray) -> np.ndarray:
    """Real restriction coefficients of every symbol at every row of xi[N, n],
    zero-padded to degree m; shape (N, ell+1, m+1), [:, j] holding P_{m-j}."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:1] + (stack.ell + 1, stack.m + 1))
    for j, s in enumerate(stack.symbols):
        out[:, j, : s.order + 1] = restriction_coeffs(s, xi)
    return out


def turned(rows: np.ndarray, order) -> np.ndarray:
    """Coefficients of P(lambda, i*xi) from those of P(lambda, xi) in rows[..., k]:
    by homogeneity the lambda^k one gains i^(order-k).  `order` is an int or,
    for `stack_rows` output, the orders m - arange(ell+1)."""
    return rows * _I_POWERS[np.subtract.outer(order, np.arange(rows.shape[-1])) % 4]


def full_symbol_at(stack: OperatorStack, xi: Sequence[float]) -> UnivariatePoly:
    """Q(lambda, i*xi) as a complex polynomial of degree exactly m (one row of `symbol_coeffs`)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (stack.dim,):
        raise DimensionMismatchError(f"xi shape {xi.shape} != ({stack.dim},)")
    return UnivariatePoly.of(symbol_coeffs(stack, xi[None, :])[0])


def symbol_coeffs(stack: OperatorStack, xi: np.ndarray) -> np.ndarray:
    """Ascending coefficients of Q(lambda, i*xi) = sum_j P_{m-j}(lambda, i*xi) at
    every row of xi[N, n]; shape (N, m+1).  Summed symbol by symbol from the
    turned `restriction_coeffs` rows."""
    xi = np.asarray(xi, dtype=float)
    coeffs = np.zeros(xi.shape[:1] + (stack.m + 1,), dtype=complex)
    for s in stack.symbols:
        coeffs[:, : s.order + 1] += turned(restriction_coeffs(s, xi), s.order)
    return coeffs


def check_poly(p: UnivariatePoly, roots: Sequence[complex], deleted: set[int] | frozenset[int],
               at: complex) -> complex:
    """leading(p) * prod over non-deleted root indices of (at - root).

    `roots` must enumerate the full root multiset of p; one or two indices may
    be deleted.
    """
    deleted = set(deleted)
    if not deleted or len(deleted) > 2:
        raise ValueError("deleted must contain one or two indices")
    n = len(roots)
    if any(ix < 0 or ix >= n for ix in deleted):
        raise IndexError(f"deleted indices {sorted(deleted)} out of range for {n} roots")
    out = complex(p.leading)
    for k, r in enumerate(roots):
        if k in deleted:
            continue
        out *= at - r
    return out


# ---------------------------------------------------------------------------
# model files


def stack_to_dict(stack: OperatorStack, name: str = "model") -> dict:
    return {
        "name": name,
        "dim": stack.dim,
        "symbols": [
            {
                "order": s.order,
                "terms": [{"k": k, "alpha": list(alpha), "c": c} for (k, alpha), c in s.terms()],
            }
            for s in stack.symbols
        ],
    }


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _checked(value, kind: type, at: str):
    """value as a JSON value of `kind`, one of `_KINDS`: an integer is neither a bool nor a
    float, and a number is an int or a float (NaN and inf included; the constructors name
    those) but not a bool.  A wrong kind raises ModelFormatError naming `at`."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ModelFormatError(f"{at}: not {_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _read(doc, key: str, kind: type, path: str = "", default=MISSING, of: type | None = None):
    """Field `key` of the object `doc` of an input file, `_checked` to be of `kind`; with
    `of`, a list whose items are each of kind `of`.  `path` names doc in the file, so an
    error names the field's path, such as "symbols[0].terms[1].k: not an integer, got 1.5".
    A missing field, or any field of a doc that is not an object, is `default`, or
    "<path>: missing" without one.  Both input files, the model and the data, are read
    field by field through here."""
    at = f"{path}.{key}" if path else key
    if not (isinstance(doc, dict) and key in doc):
        if default is MISSING:
            raise ModelFormatError(f"{at}: missing")
        return default
    value = _checked(doc[key], kind, at)
    return value if of is None else [_checked(v, of, f"{at}[{i}]") for i, v in enumerate(value)]


def stack_from_dict(doc: Mapping) -> OperatorStack:
    """The stack of a model document, each field read through `_read`."""
    dim = _read(doc, "dim", int)
    symbols = []
    for i, entry in enumerate(_read(doc, "symbols", list, of=dict)):
        at = f"symbols[{i}]"
        order = _read(entry, "order", int, at)
        coeffs: dict[tuple[int, MultiIndex], float] = {}
        for j, term in enumerate(_read(entry, "terms", list, at, [], of=dict)):
            tat = f"{at}.terms[{j}]"
            k = _read(term, "k", int, tat)
            alpha = tuple(_read(term, "alpha", list, tat, of=int))
            coeffs[(k, alpha)] = coeffs.get((k, alpha), 0.0) + _read(term, "c", float, tat)
        symbols.append(HomogeneousSymbol(order, dim, coeffs))
    return OperatorStack.build(symbols)


def load_model(path) -> tuple[OperatorStack, str]:
    """The stack and name of a model file.  The name names the output files, so it must be
    a plain file name: not empty, "." or "..", and with no path separator."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    stack = stack_from_dict(doc)
    name = _read(doc, "name", str, default="model")
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ModelFormatError(f"name: not a plain file name, got {name!r}")
    return stack, name


def save_model(stack: OperatorStack, path, name: str = "model") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stack_to_dict(stack, name), fh, indent=2, sort_keys=True)
        fh.write("\n")
