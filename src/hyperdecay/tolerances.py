"""Central registry of numerical tolerances.

Every threshold that a classification or a guarantee depends on lives here,
so the CLI can override them uniformly (``--tol name=value``) and tests can
reference the same numbers the library uses.
"""

import math
from dataclasses import dataclass, fields


@dataclass
class Tolerances:
    # geometry / model loading
    unit_direction: float = 1e-12
    isotropy_rtol: float = 1e-12
    # root finding
    root_residual_rtol: float = 1e-10
    realness_rtol: float = 1e-8
    # classification
    strict_gap_rtol: float = 1e-7        # simple-root separation for strict hyperbolicity
    interlace_margin_rtol: float = 1e-9  # strict interlacing margin
    root_match_rtol: float = 1e-7        # "same root" pairing across polynomials
    triple_root_rtol: float = 1e-8       # common-triple-root residual threshold
    # branch tracking / propagation
    cluster_rtol: float = 1e-6
    # quadrature
    tail_fraction: float = 1e-6


TOL = Tolerances()


def set_tolerance(name: str, value: float) -> None:
    """Override one tolerance by name; raises on unknown names and on values
    that are not finite and >= 0."""
    valid = {f.name for f in fields(Tolerances)}
    if name not in valid:
        raise KeyError(f"unknown tolerance {name!r}; valid names: {sorted(valid)}")
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"tolerance {name} must be finite and >= 0, got {value}")
    setattr(TOL, name, value)
