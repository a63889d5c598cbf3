"""Numerical toolkit for dissipative hyperbolic operators built from stacked
homogeneous symbols: stability certification, root-branch asymptotics, exact
Fourier-side propagation with decay-rate fits, asymptotic profiles, and a
desk-scale pseudospectral probe of the power-nonlinear problem."""

from .asymptotics import (ExpansionCase, ExpansionRecord, Regime, high_freq_expansions,
                          low_freq_expansions, verify_expansion)
from .decay import CriticalExponentReport, DecayPrediction, critical_exponent, predict_decay
from .profiles import (ProfileKind, ProfileSpec, build_profile, moment, profile_gap_series,
                       solution_and_gap)
from .rootkit import (RootBranchSet, connecting_permutation, roots, roots_batch,
                      spectral_abscissa, track_branches)
from .semilinear import SemilinearRun, build_run, run_semilinear, step
from .solver import (DataSpec, GaussianProfile, GridProfile, NormTimeSeries, RingProfile,
                     ZeroProfile, propagate_mode, simulate, sobolev_norm)
from .stability import (Hyperbolicity, Interlacing, InterlacingClass, StabilityReport,
                        classify_interlacing, classify_stack, hermite_biehler_stable,
                        sample_directions, stable_Q1, verify_hypothesis_Q2)
from .symbols import (Direction, HomogeneousSymbol, OperatorStack, UnivariatePoly, check_poly,
                      full_symbol_at, load_model, save_model, symbol_coeffs)
from .tolerances import TOL, set_tolerance

__version__ = "0.1.0"

__all__ = [
    "CriticalExponentReport", "DataSpec", "DecayPrediction", "Direction", "ExpansionCase",
    "ExpansionRecord", "GaussianProfile", "GridProfile", "HomogeneousSymbol", "Hyperbolicity",
    "Interlacing", "InterlacingClass", "NormTimeSeries", "OperatorStack", "ProfileKind",
    "ProfileSpec", "Regime", "RingProfile", "RootBranchSet", "SemilinearRun", "StabilityReport",
    "TOL", "UnivariatePoly", "ZeroProfile", "build_profile", "build_run", "check_poly",
    "classify_interlacing", "classify_stack", "connecting_permutation", "critical_exponent",
    "full_symbol_at", "hermite_biehler_stable", "high_freq_expansions", "load_model",
    "low_freq_expansions", "moment", "predict_decay", "profile_gap_series", "propagate_mode",
    "roots", "roots_batch", "run_semilinear", "sample_directions", "save_model",
    "set_tolerance", "simulate", "solution_and_gap", "sobolev_norm", "spectral_abscissa",
    "stable_Q1", "step", "symbol_coeffs", "track_branches", "verify_expansion",
    "verify_hypothesis_Q2",
]
