"""Predicted polynomial decay exponents and the semilinear critical exponent.

The exponent bookkeeping follows the estimate family selected by the
stability report's scenario flags:

* no flags          - the strict-interlacing rates (half powers);
* SLOW_LOW only     - quarter powers (slow low-frequency dissipation);
* DECAY_LOSS only   - half powers with one extra lost half power;
* both              - the min of the two branches, per datum;
* REG_LOSS_DECAY    - an additional regularity-trading branch (1+t)^(-nu/2)
                      against data measured in H^(k+s+nu-j);
* DERIVATIVE_LOSS   - the same branch with nu forced >= 1.

Exponents are powers of (1+t); negative means decay.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stability import (SCENARIO_DECAY_LOSS, SCENARIO_DERIVATIVE_LOSS, SCENARIO_REG_LOSS_DECAY,
                        SCENARIO_SLOW_LOW, StabilityReport)


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
        return {
            "exponent": self.exponent,
            "per_datum_exponents": list(self.per_datum_exponents),
            "constraint_ok": self.constraint_ok,
            "violated_constraint": self.violated_constraint,
            "regularity_loss": self.regularity_loss,
            "regime_note": self.regime_note,
            "data_requirements": list(self.data_requirements),
        }


@dataclass(frozen=True)
class CriticalExponentReport:
    p_bar: float
    admissible_n: tuple[int, int]   # integer interval (lo, hi), inclusive
    iota: int
    nu: int
    n_ok: bool

    def to_dict(self) -> dict:
        return {
            "p_bar": self.p_bar,
            "admissible_n": list(self.admissible_n),
            "iota": self.iota,
            "nu": self.nu,
            "n_ok": self.n_ok,
        }


def predict_decay(report: StabilityReport, n: int, q: float, k: int, s: float,
                  moment_zero: bool = False, nu: float = 2.0, data_present=None) -> DecayPrediction:
    """Decay exponent of the k-th time derivative in the homogeneous s-norm.

    The order m and the table (Q1 at depth 1, Q2 at depth 2) come from the
    report; `q` in [1, 2] is the extra data integrability; `nu` is the
    regularity the caller is willing to trade when a loss flag is set (forced
    >= 1 under DERIVATIVE_LOSS).  When constraints fail, the formal exponent
    is still reported with constraint_ok = False.
    """
    if report.ell not in (1, 2):
        raise ValueError(f"the decay table covers depths 1 (Q1) and 2 (Q2), got depth {report.ell}")
    if k < 0:
        raise ValueError(f"the time-derivative order k must be >= 0, got {k}")
    if not (1.0 <= q <= 2.0):
        raise ValueError("q must lie in [1, 2]")
    if not report.strictly_stable:
        raise ValueError("decay predictions need a strictly stable stack")
    m, iota = report.m, report.ell - 1
    r = 1.0 / q - 0.5
    ks = k + s
    lo, hi = m - 2 - iota, m - 1   # data indices sharing the slowest rate

    flags = report.scenario_flags
    slow = SCENARIO_SLOW_LOW in flags and iota == 1
    dloss = SCENARIO_DECAY_LOSS in flags and iota == 1
    regloss = SCENARIO_REG_LOSS_DECAY in flags
    derloss = SCENARIO_DERIVATIVE_LOSS in flags
    if derloss:
        nu = max(nu, 1.0)

    def half_rate(offset: float) -> float:
        return (n / 2.0) * r + (ks - offset) / 2.0

    def quarter_rate(offset: float) -> float:
        return (n / 4.0) * r + (ks - offset) / 4.0

    notes = []
    rates: list[float] = []
    for j in range(m):
        top = lo <= j <= hi
        if not slow and not dloss:
            base = half_rate(lo) if top else half_rate(j)
        elif not dloss:
            base = quarter_rate(lo) if top else quarter_rate(j)
        elif not slow:
            base = half_rate(m - 2) if top else half_rate(j + 1)
        else:
            base = min(quarter_rate(lo), half_rate(m - 2)) if top else quarter_rate(j)
        rates.append(base)
    if iota == 0:
        regime = "estQ1"
    elif slow and dloss:
        regime = "estQ2worst"
    elif slow:
        regime = "estQ2strict"
    elif dloss:
        regime = "estQ2strong"
    else:
        regime = "estQ2"

    if moment_zero:
        if q == 1.0:
            shift = lo - 1
            for j in range(m):
                if lo <= j <= hi:
                    rates[j] = n / 4.0 + (ks - shift) / 2.0
                else:
                    rates[j] = max(rates[j], n / 4.0 + (ks - j) / 2.0)
            regime = regime + "+M0-improved"
            notes.append("vanishing moment: top data measured in the weighted integrable class")
        else:
            notes.append("moment shift needs q = 1; ignored")

    data_req = [f"u_j in L^{q:g} and H^(k+s-j)"]
    if regloss or derloss:
        rates = [min(rj, nu / 2.0) for rj in rates]
        regime += "+estQ2loss" if not derloss else "+estQ2regloss"
        data_req.append(f"high-frequency data in H^(k+s+{nu:g}-j), Fourier support away from 0")

    if data_present is None:
        data_present = range(m)
    present = [j for j in data_present if 0 <= j < m]
    if not present:
        raise ValueError("no data indices present")
    exponent = -min(rates[j] for j in present)

    # admissibility of (q, k, s)
    threshold = m - 2 - iota
    if moment_zero and q == 1.0:
        threshold = threshold - 1
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
