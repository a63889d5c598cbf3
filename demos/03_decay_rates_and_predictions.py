#!/usr/bin/env python3
"""Predicted vs measured energy decay.

For each wired model the decay exponent is computed from the stability
report (estimate family selected by the scenario flags), then the exact
per-mode solver propagates Gaussian data and fits the norm slope over two
decades of time.
"""

import numpy as np

from hyperdecay import classify_stack, critical_exponent, predict_decay, simulate
from hyperdecay.presets import PRESETS
from hyperdecay.solver import gaussian_data

times = np.geomspace(1e2, 1e4, 17)

print("=== predicted vs fitted slopes ===")
for name in ["mgt", "blackstock_crighton", "em_elastic", "mgt_classical_damping",
              "fourth_order_weak"]:
    pm = PRESETS[name]
    cfg = pm.expected["sim"]
    stack = pm.build()
    rep = classify_stack(stack)
    pred = predict_decay(rep, cfg["n"], cfg["q"], cfg["k"], cfg["s"])
    series = simulate(stack, gaussian_data(stack.m, cfg["slot"]), times, cfg["k"], cfg["s"])
    print(f"{name:24s} {pred.regime_note:14s} predicted {pred.exponent:+.4f} "
          f"fitted {series.fitted_slope:+.4f} (+-{series.slope_stderr:.4f})")

print("\n=== critical exponents for the power nonlinearity ===")
for m, iota, nu, n in [(3, 0, 0, 3), (3, 0, 0, 2), (3, 1, 0, 1), (4, 0, 2, 2), (5, 1, 0, 3)]:
    rep = critical_exponent(m, iota, nu, n)
    print(f"m={m} iota={iota} nu={nu} n={n}: p_bar = {rep.p_bar:.4g} "
          f"(admissible n in {rep.admissible_n}, n ok: {rep.n_ok})")
