"""Predicted polynomial decay exponents and the semilinear critical exponent.

The exponent bookkeeping follows the estimate family selected by the
stability report's scenario flags, one row of `_FAMILIES` each:

* no flags          - the strict-interlacing rates (half powers);
* SLOW_LOW only     - quarter powers (slow low-frequency dissipation);
* DECAY_LOSS only   - half powers with one extra lost half power;
* both              - the top data j >= m-2-iota take the min of the two
                      rates above; the other data keep the SLOW_LOW rate;
* REG_LOSS_DECAY    - an additional regularity-trading branch (1+t)^(-nu/2)
                      against data measured in H^(k+s+nu-j);
* DERIVATIVE_LOSS   - the same branch with nu forced >= 1.

Exponents are powers of (1+t); negative means decay.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .stability import (SCENARIO_DECAY_LOSS, SCENARIO_DERIVATIVE_LOSS, SCENARIO_REG_LOSS_DECAY,
                        SCENARIO_SLOW_LOW, StabilityReport)

# (SLOW_LOW, DECAY_LOSS) -> (regime, rates of the top data j >= m-2-iota, rates of
# the other data).  A rate (d, shift) is rate(d, min(j, m-2-iota) + shift), and a
# datum takes the min of its rates.  Depth 1 reads the first row as estQ1.
_FAMILIES = {
    (False, False): ("estQ2", ((2.0, 0),), ((2.0, 0),)),
    (True, False): ("estQ2strict", ((4.0, 0),), ((4.0, 0),)),
    (False, True): ("estQ2strong", ((2.0, 1),), ((2.0, 1),)),
    (True, True): ("estQ2worst", ((4.0, 0), (2.0, 1)), ((4.0, 0),)),
}


@dataclass(frozen=True)
class DecayPrediction:
    exponent: float
    per_datum_exponents: tuple[float, ...]
    constraint_ok: bool
    violated_constraint: str | None
    regularity_loss: float
    regime_note: str
    data_requirements: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CriticalExponentReport:
    p_bar: float
    admissible_n: tuple[int, int]   # integer interval (lo, hi), inclusive
    iota: int
    nu: int
    n_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def predict_decay(report: StabilityReport, n: int, q: float, k: int, s: float,
                  moment_zero: bool = False, nu: float = 2.0) -> DecayPrediction:
    """Decay exponent of the k-th time derivative in the homogeneous s-norm.

    The order m and the table (Q1 at depth 1, Q2 at depth 2) come from the
    report; `q` in [1, 2] is the extra data integrability; `nu` is the
    regularity the caller is willing to trade when a loss flag is set (forced
    >= 1 under DERIVATIVE_LOSS).  When constraints fail, the formal exponent
    is still reported with constraint_ok = False.
    """
    if report.ell not in (1, 2):
        raise ValueError(f"the decay table covers depths 1 (Q1) and 2 (Q2), got depth {report.ell}")
    if not (math.isfinite(n) and n >= 1):
        raise ValueError(f"the dimension n must be finite and >= 1, got {n}")
    if k < 0:
        raise ValueError(f"the time-derivative order k must be >= 0, got {k}")
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    if not (1.0 <= q <= 2.0):
        raise ValueError("q must lie in [1, 2]")
    if not report.strictly_stable:
        raise ValueError("decay predictions need a strictly stable stack")
    m, iota = report.m, report.ell - 1
    r = 1.0 / q - 0.5
    ks = k + s
    lo = m - 2 - iota   # the top data j >= lo share the slowest rate

    flags = report.scenario_flags
    regime, top, other = _FAMILIES[SCENARIO_SLOW_LOW in flags and iota == 1,
                                   SCENARIO_DECAY_LOSS in flags and iota == 1]
    regime = "estQ1" if iota == 0 else regime
    regloss = SCENARIO_REG_LOSS_DECAY in flags
    derloss = SCENARIO_DERIVATIVE_LOSS in flags
    nu = max(nu, 1.0) if derloss else nu

    def rate(d: float, offset: float) -> float:
        return (n / d) * r + (ks - offset) / d

    rates = [min(rate(d, min(j, lo) + shift) for d, shift in (top if j >= lo else other))
             for j in range(m)]

    notes = []
    if moment_zero and q == 1.0:
        # r = 1/2 here, so rate(2, offset) = n/4 + (ks - offset)/2
        rates = [rate(2.0, lo - 1) if j >= lo else max(rj, rate(2.0, j)) for j, rj in enumerate(rates)]
        regime = regime + "+M0-improved"
        notes.append("vanishing moment: top data measured in the weighted integrable class")
    elif moment_zero:
        notes.append("moment shift needs q = 1; ignored")

    data_req = [f"u_j in L^{q:g} and H^(k+s-j)"]
    if regloss or derloss:
        rates = [min(rj, nu / 2.0) for rj in rates]
        regime += "+estQ2loss" if not derloss else "+estQ2regloss"
        data_req.append(f"high-frequency data in H^(k+s+{nu:g}-j), Fourier support away from 0")

    exponent = -min(rates)

    # admissibility of (q, k, s)
    threshold = lo - 1 if moment_zero and q == 1.0 else lo
    if q == 2.0:
        ok = ks >= threshold
        violated = None if ok else f"k+s >= {threshold} required for q = 2"
    else:
        ok = n * r + ks > threshold
        violated = None if ok else f"n(1/q-1/2)+k+s > {threshold} required"

    return DecayPrediction(
        exponent=exponent,
        per_datum_exponents=tuple(-rj for rj in rates),
        constraint_ok=ok,
        violated_constraint=violated,
        regularity_loss=(nu if (regloss or derloss) else 0.0),
        regime_note=regime,
        data_requirements=tuple(data_req + notes),
    )


def critical_exponent(m: int, iota: int, nu: int, n: int) -> CriticalExponentReport:
    """Threshold power for global small-data solvability of the power-nonlinear problem.

    p_bar = 1 + (m-iota-nu) / (n - (m-2-iota-nu)); space dimensions n with
    m-2-iota-nu < n <= 2(m-1-iota-nu) are admissible.
    """
    if iota not in (0, 1):
        raise ValueError("iota must be 0 or 1")
    if not (0 <= nu <= m - 2):
        raise ValueError("nu must lie in [0, m-2]")
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = m - 2 - iota - nu
    hi = 2 * (m - 1 - iota - nu)
    n_ok = lo < n <= hi
    denom = n - lo
    if denom <= 0:
        raise ValueError(f"n = {n} is at or below the scaling threshold {lo}; no finite p_bar")
    p_bar = 1.0 + (m - iota - nu) / denom
    return CriticalExponentReport(p_bar=p_bar, admissible_n=(lo + 1, hi), iota=iota, nu=nu, n_ok=n_ok)
