"""Root-free reference propagation, kept apart from the library's kernel.

`_propagate_companion` advances one mode's companion system by scaling and
squaring matrix exponentials; it uses the symbol coefficients only, never the
roots, so tests compare the divided-difference kernel against it.
"""

import numpy as np
from scipy.linalg import expm

from hyperdecay.rootkit import companion

_SUBSTEP_NORM = 4.0
_MAX_SUBSTEPS = 2_000


def _propagate_companion(coeffs: np.ndarray, data: np.ndarray, t, k: int):
    """Companion-system route: scaling-and-squaring exponential of the mode matrix.

    The system is rebalanced by a root-magnitude bound (lambda = sigma * mu) and,
    when the total phase sigma*t is moderate, advanced by repeated application
    of one sub-threshold exponential, which avoids compounding the non-normal
    amplification through repeated squaring.  Very long horizons fall back to
    one exponential per requested time (accurate for the damped spectra this
    route serves).
    """
    c = np.asarray(coeffs, dtype=complex)
    c = c / c[-1]
    m = len(c) - 1
    if k >= m:
        raise ValueError(f"companion route reads state coordinate k; need k < {m}")
    mags = [abs(c[r]) ** (1.0 / (m - r)) for r in range(m) if c[r] != 0]
    sigma = max(1.0, *mags) if mags else 1.0
    scaled = np.array([c[r] / sigma ** (m - r) for r in range(m + 1)])
    a = companion(scaled)
    dvec = sigma ** np.arange(m)
    data_mu = np.asarray(data, dtype=complex) / dvec
    t = np.atleast_1d(np.asarray(t, dtype=float))
    order = np.argsort(t)
    taus = sigma * t[order]
    anorm = float(np.linalg.norm(a, 1))
    out = np.empty(len(t), dtype=complex)
    total_steps = anorm * (taus[-1] if len(taus) else 0.0) / _SUBSTEP_NORM
    if total_steps <= _MAX_SUBSTEPS:
        state = data_mu.copy()
        prev = 0.0
        cache: dict[float, np.ndarray] = {}
        for pos, tau in zip(order, taus):
            gap = tau - prev
            if gap > 0:
                n = max(1, int(np.ceil(anorm * gap / _SUBSTEP_NORM)))
                h = gap / n
                e = cache.get(h)
                if e is None:
                    e = expm(a * h)
                    cache = {h: e}
                for _ in range(n):
                    state = e @ state
            prev = tau
            out[pos] = state[k] * sigma**k
    else:
        for pos, tau in zip(order, taus):
            out[pos] = (expm(a * tau) @ data_mu)[k] * sigma**k
    return out
