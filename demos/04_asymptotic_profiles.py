#!/usr/bin/env python3
"""Leading asymptotic profiles and the profile-gap improvement.

The smoothed profile built from the low-frequency root data should absorb the
leading long-time behavior: subtracting it from the exact solution gains half
a power of time whenever the data moment M is nonzero, and engineering M = 0
transfers that gain to the solution itself.
"""

import numpy as np

from hyperdecay import build_profile, moment, simulate, solution_and_gap
from hyperdecay.presets import PRESETS
from hyperdecay.solver import DataSpec, GaussianProfile, ZeroProfile, gaussian_data

times = np.geomspace(1e2, 1e4, 17)

print("=== generic profile vs closed form (third-order acoustic model) ===")
pm = PRESETS["mgt"]
stack = pm.build()
spec = build_profile(stack, M=1.0)
cf = pm.expected["profile"]
for t, r in [(5.0, 0.3), (50.0, 0.1), (500.0, 0.03)]:
    print(f"t={t:6g} rho={r:5g}: generic {spec.fourier_value(t, r):+.6e} "
          f"closed form {cf(t, r):+.6e}")

print("\n=== gap improvement with nonzero moment ===")
for name, slot, k, s in [("mgt", 2, 0, 0.0), ("blackstock_crighton", 3, 0, 1.0)]:
    stack = PRESETS[name].build()
    data = gaussian_data(stack.m, slot)
    sol, gap = solution_and_gap(stack, data, times, k, s)
    print(f"{name:22s} M = {moment(data, stack):8.3f}  solution slope {sol.fitted_slope:+.3f}  "
          f"gap slope {gap.fitted_slope:+.3f}  improvement {gap.fitted_slope - sol.fitted_slope:+.3f}")

print("\n=== vanishing moment: the solution itself speeds up ===")
stack = PRESETS["mgt"].build()
data0 = DataSpec((ZeroProfile(), GaussianProfile(-1.0, 1.0), GaussianProfile(1.0, 1.0)))
plain = simulate(stack, gaussian_data(3, 2), times, 0, 0.0)
cancel = simulate(stack, data0, times, 0, 0.0)
print(f"M = {moment(data0, stack):g}: slope {cancel.fitted_slope:+.3f} "
      f"vs {plain.fitted_slope:+.3f} with M != 0")

print("\n=== heat-kernel profile of the frictionally damped model ===")
stack = PRESETS["mgt_classical_damping"].build()
data = gaussian_data(3, 2)
for k in (0, 1):
    sol = simulate(stack, data, times, k, 0.0)
    print(f"k={k}: solution slope {sol.fitted_slope:+.3f}  "
          "(each time derivative buys a full extra power)")
