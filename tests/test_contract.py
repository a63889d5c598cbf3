"""The public contract: exported names, CLI flags and tolerance names.

Each is compared with a committed list, so a change to the contract shows up
as a change to this file.  Every export is also a program path: some module,
demo or benchmark file uses it, or `KEPT` says why it stays without one.  So is
every optional parameter of an export: some program call sets it, or
`KEPT_PARAMS` says why it stays without one.
"""

import argparse
import ast
import inspect
from collections import defaultdict
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

# optional parameters that no program call sets, each with the reason it stays
KEPT_PARAMS = {
    ("simulate", "rho_grid"): "the tests' small and reference radial grids",
    ("profile_gap_series", "rho_grid"): "the tests' small and reference radial grids",
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


def _program_trees():
    """The parsed program files, less the package's own re-exports."""
    for path in (p for d in PROGRAM_DIRS for p in sorted(d.rglob("*.py"))):
        if path != ROOT / "src" / "hyperdecay" / "__init__.py":
            yield ast.parse(path.read_text())


def _program_uses() -> set[str]:
    """The names that program files read: loaded names, attributes of imported names, and
    strings (perfbench names the functions it wraps).  A definition and the package's own
    re-export are not uses."""
    used = set()
    for tree in _program_trees():
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


def _outside_kept(node: ast.AST):
    """The nodes under node, less the bodies of KEPT exports, which no program path runs."""
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.FunctionDef) and child.name in KEPT):
            yield child
            yield from _outside_kept(child)


def _program_calls():
    """Per callee name, the keywords program calls pass and how many places their positional
    arguments reach (a starred one reaches every place), and the program's string constants
    (perfbench passes keywords through `**kwargs`)."""
    keywords, reach, strings = defaultdict(set), defaultdict(int), set()
    for tree in _program_trees():
        for n in _outside_kept(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                strings.add(n.value)
            if not isinstance(n, ast.Call) or not isinstance(n.func, (ast.Name, ast.Attribute)):
                continue
            callee = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            keywords[callee] |= {k.arg for k in n.keywords}
            starred = any(isinstance(a, ast.Starred) for a in n.args)
            reach[callee] = max(reach[callee], float("inf") if starred else len(n.args))
    return keywords, reach, strings


def _defaulted(label: str, callee: str, func, skip: int) -> list[tuple[str, str, str, int]]:
    """(label, callee, name, place) of each defaulted parameter of func after its first `skip`;
    `place` is the parameter's positional index in a call."""
    params = list(inspect.signature(func).parameters.values())[skip:]
    return [(label, callee, p.name, place) for place, p in enumerate(params) if p.default is not p.empty]


def _optional_parameters():
    """The defaulted parameters of each export not in KEPT and of the public methods and
    staticmethods of exported classes, as `_defaulted` gives them."""
    for export in sorted(set(hyperdecay.__all__) - set(KEPT)):
        obj = getattr(hyperdecay, export)
        if inspect.isfunction(obj):
            yield from _defaulted(export, export, obj, 0)
        elif inspect.isclass(obj):
            for name, v in vars(obj).items():
                if name.startswith("_"):
                    continue
                if isinstance(v, staticmethod):
                    yield from _defaulted(f"{export}.{name}", name, v.__func__, 0)
                elif inspect.isfunction(v):     # a call does not pass `self`
                    yield from _defaulted(f"{export}.{name}", name, v, 1)


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


def test_every_optional_parameter_is_set_or_kept():
    keywords, reach, strings = _program_calls()
    unset = {(label, name) for label, callee, name, place in _optional_parameters()
             if not (name in keywords[callee] or reach[callee] > place or name in strings)}
    assert sorted(unset - set(KEPT_PARAMS)) == []
    # a kept parameter that gains a use leaves KEPT_PARAMS
    assert sorted(set(KEPT_PARAMS) - unset) == []


def test_cli_flags():
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    got = {None: _flags(ap)} | {name: _flags(p) for name, p in sub.choices.items()}
    assert got == FLAGS


def test_tolerance_names():
    assert [f.name for f in fields(Tolerances)] == TOLERANCES
