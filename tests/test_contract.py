"""The public contract: exported names, CLI flags and tolerance names.

Each is compared with a committed list, so a change to the contract shows up
as a change to this file.
"""

import argparse
from dataclasses import fields

import hyperdecay
from hyperdecay.cli import build_parser
from hyperdecay.tolerances import Tolerances

EXPORTS = [
    "CriticalExponentReport", "DataSpec", "DecayPrediction", "Direction", "ExpansionCase",
    "ExpansionRecord", "GaussianProfile", "GridProfile", "HomogeneousSymbol", "Hyperbolicity",
    "Interlacing", "InterlacingClass", "NormTimeSeries", "OperatorStack", "ProfileKind",
    "ProfileSpec", "Regime", "RingProfile", "RootBranchSet", "RootCluster", "SemilinearRun",
    "StabilityReport", "TOL", "UnivariatePoly", "ZeroProfile", "build_profile", "build_run",
    "check_poly", "classify_hyperbolicity", "classify_interlacing", "classify_stack",
    "connecting_permutation", "critical_exponent", "full_symbol_at", "hermite_biehler_stable",
    "high_freq_expansions", "kappa_solutions", "load_model", "low_freq_expansions", "moment",
    "predict_decay", "profile_gap_series", "propagate_mode", "roots", "roots_batch",
    "routh_hurwitz_cubic", "run_semilinear", "sample_directions", "save_model", "set_tolerance",
    "simulate", "sobolev_norm", "solution_and_gap", "spectral_abscissa", "stable_Q1", "step",
    "symbol_coeffs", "track_branches", "verify_expansion", "verify_hypothesis_Q2",
]

_HELP = ["-h", "--help"]
_NORM_RUN = _HELP + ["model", "--data", "--k", "--s", "--tmin", "--tmax", "--points"]
# positionals by their name, optionals by their option strings, in declaration order
FLAGS = {
    None: _HELP + ["--out", "--tol"],
    "classify": _HELP + ["model"],
    "asymptotics": _HELP + ["model", "--regime", "--direction"],
    "predict": _HELP + ["model", "--n", "--q", "--k", "--s", "--nu", "--moment-zero",
                        "--nonlinearity-order"],
    "simulate": _NORM_RUN,
    "profile": _NORM_RUN,
    "semilinear": _HELP + ["model", "--p", "--sign", "--nu", "--amplitude", "--T", "--dt", "--dim",
                           "--modes", "--box"],
    "reproduce": _HELP + ["model"],
}

TOLERANCES = [
    "unit_direction", "isotropy_rtol", "root_residual_rtol", "realness_rtol", "strict_gap_rtol",
    "interlace_margin_rtol", "root_match_rtol", "triple_root_rtol", "cluster_rtol", "tail_fraction",
]


def _flags(parser: argparse.ArgumentParser) -> list[str]:
    return [s for a in parser._actions if not isinstance(a, argparse._SubParsersAction)
            for s in (a.option_strings or [a.dest])]


def test_exported_names():
    assert sorted(hyperdecay.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(hyperdecay, name), name


def test_cli_flags():
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    got = {None: _flags(ap)} | {name: _flags(p) for name, p in sub.choices.items()}
    assert got == FLAGS


def test_tolerance_names():
    assert [f.name for f in fields(Tolerances)] == TOLERANCES
