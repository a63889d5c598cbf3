"""The public contract: exported names, CLI flags and tolerance names.

Each is compared with a committed list, so a change to the contract shows up
as a change to this file.  Every export is also a program path: some module,
demo or benchmark file uses it, or `KEPT` says why it stays without one.
"""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

import hyperdecay
from hyperdecay.cli import build_parser
from hyperdecay.tolerances import Tolerances

EXPORTS = [
    "CriticalExponentReport", "DataSpec", "DecayPrediction", "Direction", "ExpansionCase",
    "ExpansionRecord", "GaussianProfile", "GridProfile", "HomogeneousSymbol", "Hyperbolicity",
    "Interlacing", "InterlacingClass", "NormTimeSeries", "OperatorStack", "ProfileKind",
    "ProfileSpec", "Regime", "RingProfile", "RootBranchSet", "SemilinearRun", "StabilityReport",
    "TOL", "UnivariatePoly", "ZeroProfile", "build_profile", "build_run", "check_poly",
    "classify_interlacing", "classify_stack", "connecting_permutation", "critical_exponent",
    "full_symbol_at", "hermite_biehler_stable", "high_freq_expansions", "load_model",
    "low_freq_expansions", "moment", "predict_decay", "profile_gap_series", "propagate_mode",
    "roots", "roots_batch", "run_semilinear", "sample_directions", "save_model",
    "set_tolerance", "simulate", "sobolev_norm", "solution_and_gap", "spectral_abscissa",
    "stable_Q1", "step", "symbol_coeffs", "track_branches", "verify_expansion",
    "verify_hypothesis_Q2",
]

# exports that no program file uses, each with the reason it stays
KEPT = {
    "classify_interlacing": "the paper's interlacing of two restricted polynomials, one pair at a time",
    "connecting_permutation": "the paper's branch permutation between the two ends of a ray",
    "propagate_mode": "the documented one-mode propagation call",
    "stable_Q1": "checks the paper's hypothesis (Q1) on a depth-1 stack",
    "verify_hypothesis_Q2": "checks the paper's hypothesis (Q2) on a depth-2 stack",
}

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = [ROOT / "src" / "hyperdecay", ROOT / "demos", ROOT / "perfbench"]

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


def _program_uses() -> set[str]:
    """The names that program files read: loaded names, attributes of imported names, and
    strings (perfbench names the functions it wraps).  A definition and the package's own
    re-export are not uses."""
    used = set()
    for path in (p for d in PROGRAM_DIRS for p in sorted(d.rglob("*.py"))):
        if path == ROOT / "src" / "hyperdecay" / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {a.asname or a.name.split(".")[0] for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in imported:
                used.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.add(n.value)
    return used


def test_exported_names():
    assert sorted(hyperdecay.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(hyperdecay, name), name


def test_every_export_is_used_or_kept():
    used = _program_uses()
    assert set(KEPT) <= set(hyperdecay.__all__)
    assert sorted(set(hyperdecay.__all__) - used - set(KEPT)) == []
    # a kept name that gains a use leaves KEPT
    assert sorted(set(KEPT) & used) == []


def test_cli_flags():
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    got = {None: _flags(ap)} | {name: _flags(p) for name, p in sub.choices.items()}
    assert got == FLAGS


def test_tolerance_names():
    assert [f.name for f in fields(Tolerances)] == TOLERANCES
