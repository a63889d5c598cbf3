"""Each benchmark check accepts a right answer and rejects a deliberately wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checks import (band_problems, companion_exp_column, norm_problems,  # noqa: E402
                    order_problems, root_problems, shell_l2, symbol_coeffs, verdict_problems)
from hyperdecay.presets import damped_wave_stack, mgt_stack  # noqa: E402


@pytest.fixture
def mgt_ray():
    stack = mgt_stack()
    xi = np.geomspace(1e-3, 1e2, 40)[:, None] * np.array([[0.0, 1.0, 0.0]])
    lams = np.array([np.roots(c[::-1]) for c in symbol_coeffs(stack, xi)])
    return stack, xi, lams


def test_roots_accepted(mgt_ray):
    assert root_problems(*mgt_ray) == []


def test_perturbed_root_rejected(mgt_ray):
    stack, xi, lams = mgt_ray
    lams = lams.copy()
    lams[7, 1] *= 1.0 + 1e-6
    assert any("residual" in p for p in root_problems(stack, xi, lams))


def test_undamped_root_rejected(mgt_ray):
    stack, xi, lams = mgt_ray
    lams = lams.copy()
    lams[3, 0] = -lams[3, 0].conjugate()   # mirrored into the right half-plane
    assert any("Re lambda" in p for p in root_problems(stack, xi, lams))


def test_slope_band():
    assert band_problems("fitted slope", -0.2507, -0.30, -0.20) == []
    assert band_problems("fitted slope", -0.3120, -0.30, -0.20) != []
    assert band_problems("fitted slope", float("nan"), -0.30, -0.20) != []


def test_wrong_verdict_rejected():
    report = SimpleNamespace(strictly_stable=True, scenario_flags=frozenset({"DECAY_LOSS"}))
    assert verdict_problems(report, True, {"DECAY_LOSS"}) == []
    assert verdict_problems(report, False, {"DECAY_LOSS"}) != []
    assert verdict_problems(report, True, set()) != []


def test_remainder_orders():
    assert order_problems([2.5, float("inf")], [2.0, 0.0]) == []
    assert order_problems([2.3], [2.0]) != []


def test_companion_exponential_matches_damped_wave():
    # lambda^2 + lambda + rho^2: u(t) = (e^(l1 t) - e^(l2 t)) / (l1 - l2) for data (0, 1)
    stack = damped_wave_stack()
    rho = np.array([0.1, 0.3, 2.0, 40.0])
    disc = np.sqrt(1.0 - 4.0 * rho**2 + 0j)
    l1, l2 = (-1.0 + disc) / 2.0, (-1.0 - disc) / 2.0
    t = 3.0
    want = (np.exp(l1 * t) - np.exp(l2 * t)) / (l1 - l2)
    got = companion_exp_column(symbol_coeffs(stack, rho[:, None]), t, 1)[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def test_norm_mismatch_rejected():
    want = np.array([11.76, 6.609, 3.705])
    assert norm_problems(want * (1.0 + 1e-12), want) == []
    assert norm_problems(want * (1.0 + 1e-6), want) != []
    assert norm_problems(np.array([np.nan, 1.0, 1.0]), want) != []


def test_shell_evolution_at_time_zero_is_the_data():
    n, h = 32, 8.0
    x = -h + (2.0 * h / n) * np.arange(n)
    gauss = np.exp(-0.5 * (x[:, None] ** 2 + x[None, :] ** 2))
    direct = np.sqrt(np.sum(gauss**2) * (2.0 * h / n) ** 2)
    assert shell_l2(mgt_stack(dim=2), h, n, gauss, 0, 0.0) == pytest.approx(direct, rel=1e-12)
