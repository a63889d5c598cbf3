#!/usr/bin/env python3
"""Stability classification walkthrough.

Builds the bundled operator models, classifies hyperbolicity and interlacing
of their homogeneous pieces, and shows how the verdict reacts to parameter
changes: the third-order acoustic model loses strict stability exactly when
its viscosity parameter b reaches zero, and the depth-3 stack is decided by
the even/odd interlacing criterion.
"""

import numpy as np

from hyperdecay import classify_stack, hermite_biehler_stable, spectral_abscissa
from hyperdecay.presets import PRESETS, example_ell3_stack, example_ell3_stable_predicate, mgt_stack

print("=== classification of the bundled models ===")
for name, pm in PRESETS.items():
    stack = pm.build()
    rep = classify_stack(stack)
    flags = ", ".join(sorted(rep.scenario_flags)) or "none"
    print(f"{name:26s} stable={rep.strictly_stable!s:5s} flags=[{flags}] "
          f"min margin={rep.min_margin:.2e}")

print("\n=== the b > 0 boundary of the third-order acoustic model ===")
for b in [2.0, 0.5, 0.05, 0.0]:
    rep = classify_stack(mgt_stack(b=b))
    cls = rep.interlacing_upper.klass.value
    print(f"b = {b:<5g} interlacing {cls:7s} strictly stable: {rep.strictly_stable}")

print("\n=== depth-3 stack: even/odd interlacing vs the closed-form condition ===")
for c1, b in [(1.0, 1.0), (2.5, 0.5), (2.5, 1.2), (3.5, 0.5)]:
    params = dict(a=2.0, b=b, c1=c1, c2=2.0, c3=1.5)
    stack = example_ell3_stack(**params)
    want = example_ell3_stable_predicate(**params)
    got = classify_stack(stack).strictly_stable
    probe = hermite_biehler_stable(stack, np.array([0.7, 0.0, 0.0]))
    print(f"c1={c1} b={b}: closed form {want!s:5s} crossing-radius route {got!s:5s} "
          f"single-frequency probe {probe}")

print("\n=== direct spectral abscissa cross-check (third-order model) ===")
stack = mgt_stack()
for rho in [1e-2, 1e-1, 1.0, 10.0]:
    print(f"|xi| = {rho:6g}: max Re lambda = {spectral_abscissa(stack, np.array([rho, 0, 0])):+.6f}")
