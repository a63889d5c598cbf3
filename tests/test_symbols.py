import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdecay import Direction, HomogeneousSymbol, OperatorStack, check_poly, full_symbol_at, roots
from hyperdecay.presets import anisotropic_elastic_2d_stack, damped_wave_stack, mgt_stack
from hyperdecay.stability import sample_directions
from hyperdecay.rootkit import RadialRootSolver
from hyperdecay.symbols import (DimensionMismatchError, ModelFormatError, UnivariatePoly, axis_direction,
                                restriction_coeffs, stack_from_dict, stack_to_dict, symbol_coeffs)
from tests.oracles import symbol_value


def test_mgt_restriction_any_direction():
    stack = mgt_stack()
    for d in [axis_direction(3), Direction.of((1.0, 2.0, -1.0))]:
        p = stack.symbols[0].restrict(d)
        assert np.allclose(p.array(), [0, -2, 0, 1], atol=1e-12)


def test_zero_symbol_restricts_to_zero():
    z = HomogeneousSymbol(3, 2, {})
    p = z.restrict(axis_direction(2))
    assert p.is_zero


def test_anisotropic_restriction_example():
    stack = anisotropic_elastic_2d_stack(a1=2.0, a2=1.0, mu=1.0, nu_lame=0.0)
    p3 = stack.symbols[1].restrict(Direction((1.0, 0.0)))
    assert np.allclose(p3.array(), [0, -4, 0, 3], atol=1e-12)


def test_full_symbol_mgt():
    stack = mgt_stack()
    q = full_symbol_at(stack, np.array([0.0, 0.3, 0.0]))
    assert np.allclose(q.array(), [0.09, 0.18, 1.0, 1.0], atol=1e-14)


def test_full_symbol_at_zero_structure():
    # Q(lambda, 0) = lambda^(m-ell) * sum c_{m-j,0} lambda^(ell-j)
    stack = mgt_stack(tau=2.0, b=0.7, c=1.3)
    q = full_symbol_at(stack, np.zeros(3))
    zs = roots(q)
    zero_count = np.sum(np.abs(zs) < 1e-12)
    assert zero_count == stack.m - stack.ell
    others = zs[np.abs(zs) >= 1e-12]
    cs = stack.pure_time_coeffs()
    for z in others:
        val = sum(cs[j] * z ** (stack.ell - j) for j in range(stack.ell + 1))
        assert abs(val) < 1e-12


def test_full_symbol_damped_wave():
    stack = damped_wave_stack()
    q = full_symbol_at(stack, np.array([0.3]))
    assert np.allclose(q.array(), [0.09, 1.0, 1.0], atol=1e-15)


def test_conjugate_symmetry():
    stack = anisotropic_elastic_2d_stack()
    xi = np.array([0.4, -1.1])
    a = full_symbol_at(stack, xi).array()
    b = full_symbol_at(stack, -xi).array()
    assert np.allclose(b, np.conj(a), atol=1e-13)


def test_check_poly_examples():
    # two deleted-root values with explicit root lists
    p2 = UnivariatePoly.of([-1.0, 0.0, 1.0])  # lambda^2 - c^2 with c = 1
    assert check_poly(p2, [-1.0, 1.0], {0}, -1.0) == pytest.approx(-2.0)
    # deleting everything leaves the leading coefficient
    p = UnivariatePoly.of([-6.0, 11.0, -6.0, 1.0])
    assert check_poly(p, [1.0, 2.0, 3.0], {0, 1}, 0.0) == pytest.approx(-3.0)
    # degree-3 middle symbol with roots (-c, 0, c), delete the 0 root, at 0
    p3 = UnivariatePoly.of([0.0, -1.0, 0.0, 1.0])
    assert check_poly(p3, [-1.0, 0.0, 1.0], {1}, 0.0) == pytest.approx(-1.0)
    with pytest.raises(IndexError):
        check_poly(p3, [-1.0, 0.0, 1.0], {5}, 0.0)
    with pytest.raises(ValueError):
        check_poly(p3, [-1.0, 0.0, 1.0], set(), 0.0)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(-3, 3), rho=st.floats(0.1, 10),
       comps=st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(lambda v: sum(x * x for x in v) > 0.1))
def test_homogeneity(lam, rho, comps):
    sym = mgt_stack().symbols[0]
    d = Direction.of(comps)
    left = symbol_value(sym, rho * lam, rho * d.vector())
    right = rho**sym.order * symbol_value(sym, lam, d.vector())
    assert abs(left - right) <= 1e-10 * (1.0 + abs(right))


def test_restriction_coeffs_rows_evaluate_the_symbol():
    stack = anisotropic_elastic_2d_stack()
    dirs = np.array([d.components for d in sample_directions(2)])
    for sym in stack.symbols:
        c = restriction_coeffs(sym, dirs)
        assert c.shape == (len(dirs), sym.order + 1)
        for lam in (-0.7, 1.3):
            want = [symbol_value(sym, lam, d) for d in dirs]
            assert np.allclose(np.polynomial.polynomial.polyval(lam, c.T), want, rtol=1e-12, atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        restriction_coeffs(stack.symbols[0], np.ones((4, 3)))
    # the full symbol at non-unit xi: P(lam, i xi) = i^r P(-i lam, xi) per symbol
    xi = np.random.default_rng(7).normal(scale=3.0, size=(16, 2))
    q = symbol_coeffs(stack, xi)
    assert q.shape == (len(xi), stack.m + 1)
    for lam in (-0.7 + 0.2j, 1.3j):
        want = [sum(1j**s.order * symbol_value(s, -1j * lam, x) for s in stack.symbols) for x in xi]
        assert np.allclose(np.polynomial.polynomial.polyval(lam, q.T), want, rtol=1e-12, atol=1e-12)


def test_mu_coeffs_are_scaled_symbol_coeffs():
    """mu_coeffs(rho)[k] = rho^(k-m+ell) * Q's lambda^k coefficient at rho*d."""
    for stack, d in [(mgt_stack(), axis_direction(3)),
                     (anisotropic_elastic_2d_stack(), Direction.of((0.6, -1.3)))]:
        solver = RadialRootSolver(stack, d)
        for rho in (1e-3, 0.37, 42.0):
            q = symbol_coeffs(stack, rho * d.vector()[None, :])[0]
            want = rho ** (np.arange(stack.m + 1) - stack.m + stack.ell) * q
            got = solver.mu_coeffs(rho)
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_normalization_divides_leading():
    stack = mgt_stack(tau=2.0)
    assert stack.pure_time_coeffs()[0] == pytest.approx(1.0)


def test_stack_validation_errors():
    with pytest.raises(ModelFormatError):
        HomogeneousSymbol(2, 2, {(1, (2, 0)): 1.0})  # k+|alpha| != order
    p2 = HomogeneousSymbol.isotropic(2, 1, {2: 1.0})
    p0 = HomogeneousSymbol.isotropic(0, 1, {0: 1.0})
    with pytest.raises(ModelFormatError):
        OperatorStack.build([p2, p0])  # skips order 1
    sym5 = HomogeneousSymbol.isotropic(5, 1, {5: 1.0})
    subs = [HomogeneousSymbol.isotropic(5 - j, 1, {5 - j: 1.0}) for j in range(5)]
    with pytest.raises(ModelFormatError):
        OperatorStack.build(subs)  # depth 4 beyond the supported cap


def test_isotropy_flag():
    assert mgt_stack().isotropic
    assert not anisotropic_elastic_2d_stack().isotropic


def test_model_json_roundtrip(tmp_path):
    stack = mgt_stack()
    doc = stack_to_dict(stack, "mgt")
    rebuilt = stack_from_dict(doc)
    d = Direction.of((0.3, -0.5, 0.8))
    assert np.allclose(rebuilt.symbols[0].restrict(d).array(), stack.symbols[0].restrict(d).array())
    bad = json.loads(json.dumps(doc))
    bad["symbols"][0]["terms"][0]["k"] += 1  # breaks k+|alpha| = order
    with pytest.raises(ModelFormatError):
        stack_from_dict(bad)


def test_direction_rejects_non_finite_components():
    # |nan - 1| > tol is false, and inf / inf normalizes to NaN
    for comps in ((np.nan, 1.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError, match="non-finite component"):
            Direction.of(comps)
    with pytest.raises(ValueError, match="non-finite component"):
        Direction((np.nan, 1.0))


def test_non_finite_coefficient_is_a_model_error():
    for c in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelFormatError, match=r"term \(k=0, alpha=\(2,\)\) has the non-finite"):
            HomogeneousSymbol(2, 1, {(2, (0,)): 1.0, (0, (2,)): c})
    doc = stack_to_dict(mgt_stack(), "mgt")
    doc["symbols"][0]["terms"][0]["c"] = float("nan")  # json.load reads NaN as well
    with pytest.raises(ModelFormatError, match="non-finite coefficient nan"):
        stack_from_dict(json.loads(json.dumps(doc)))


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction((0.5, 0.5))
    d = Direction.of((3.0, 4.0))
    assert d.components == pytest.approx((0.6, 0.8))
