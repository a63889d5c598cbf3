#!/usr/bin/env python3
"""Digest of a fixed list of CLI runs: exit code, stdout and every output file.

Each run calls `hyperdecay.cli.main` in-process from the repository root
(so a model file is named by its path from there, whatever the working
directory) with its own temporary `--out` directory, then prints one block:

    == <argv>
    exit <code>               (or the type name of an exception that escapes main)
    stdout <hash>
    <file name> <hash>        (one line per output file, sorted)

Hashes are the first 16 hex digits of SHA-256.  The first line is a header
naming the numpy version and the platform, since the last bits of a float
output can change with either.  Two trees whose outputs are byte-identical
print identical digests, so comparing a change with its parent is one `diff`:

    PYTHONPATH=<parent checkout>/src python3 tools/cli_digest.py > parent.txt
    PYTHONPATH=src python3 tools/cli_digest.py > change.txt
    diff parent.txt change.txt

`tests/data/cli_digest.txt` is this script's output at the current tree, and
`tests/test_cli_digest.py` compares against it; after a change that means to
move an output, regenerate it with

    PYTHONPATH=src python3 tools/cli_digest.py > tests/data/cli_digest.txt

The whole list takes about 10 s on 2 vCPUs; `simulate anisotropic_elastic_2d`
is most of it.

A hash says only that an output moved.  To see by how much, keep every run's
files (`--keep DIR` writes run i's output files and its `stdout.txt` under
DIR/<i>) and compare two kept trees number by number:

    PYTHONPATH=<parent checkout>/src python3 tools/cli_digest.py --keep parent > /dev/null
    PYTHONPATH=src python3 tools/cli_digest.py --keep change > /dev/null
    PYTHONPATH=src python3 tools/cli_digest.py --compare parent change

The comparison prints one line per file that differs: its run, its name, how
many of its numbers moved and the largest relative change among them, with
the two values, or that its text changed outside the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from hyperdecay.cli import main
from hyperdecay.presets import PRESETS

ROOT = Path(__file__).resolve().parent.parent
# 1-d, P2 = lambda^2 - xi^2, P1 = lambda + xi/2, strictly stable: its odd order gives complex
# rows Q(lambda, i xi), which no preset has (their spatial orders are all even)
MODEL = "tests/data/damped_transport.json"
# 1-d, depth 3, m = 5: a root crosses into Re lambda > 0 on rho in (0.4806, 0.5403) only, which
# no preset does (example_ell3 has no crossing)
DEPTH3 = "tests/data/depth3_crossing.json"
# three profiles (zero, a ring r0 = 1, sigma = 0.2, a gaussian of amplitude 2 and width 0.5)
# for a stack with m = 3
DATA = "tests/data/ring_data.json"

RUNS = ([["reproduce", name] for name in PRESETS]
        + [["classify", name] for name in PRESETS]
        + [["asymptotics", name, "--regime", regime] for name in PRESETS for regime in ("low", "high")]
        # the one off-axis ray with cluster events among the tracker's reference rays
        + [["asymptotics", "anisotropic_elastic_2d", "--regime", "low", "--direction", "1,1"]]
        + [["predict", name, "--n", "3"] for name in PRESETS]
        # every row of the decay table that a depth-1 or depth-2 preset reaches, with its
        # moment-zero, q = 2 and regularity-loss steps
        + [["predict", name, *extra] for name, pm in PRESETS.items() if pm.build().ell < 3
           for extra in (["--n", "3", "--moment-zero"], ["--n", "3", "--q", "2", "--k", "1", "--s", "1"],
                         ["--n", "1", "--q", "1.5", "--nu", "0.5"])]
        # the last two build the two weak profile kinds, W_WEAK and V_WEAK
        + [["profile", name] for name in ("mgt", "blackstock_crighton", "em_elastic", "fourth_order_weak",
                                          "em_elastic_dissipative")]
        + [["simulate", "mgt"], ["simulate", "anisotropic_elastic_2d"],
           ["semilinear", "mgt", "--p", "5", "--dim", "2", "--modes", "64", "--T", "5"],
           # a large datum with p = 2: "growing" by T = 3, "blowup" near t = 3.09 by T = 6
           *[["semilinear", "mgt", "--p", "2", "--dim", "1", "--modes", "64", "--box", "20",
              "--amplitude", "30", "--dt", "0.05", "--T", T] for T in ("3", "6")],
           # two times leave fewer than three points in the fit window
           ["simulate", "mgt", "--points", "2"], ["profile", "mgt", "--points", "2"],
           # the largest m (5) with k > 0 through the coordinate-0 contraction of `exp_newton`
           ["simulate", "em_elastic", "--k", "2"], ["profile", "em_elastic", "--k", "1"]]
        # the model file's complex rows through every command that solves roots
        + [[cmd, MODEL, *extra] for cmd, *extra in (
            ["classify"], ["simulate"], ["profile"], ["asymptotics", "--regime", "low"],
            ["asymptotics", "--regime", "high"], ["semilinear", "--p", "3", "--dim", "1", "--modes", "32", "--T", "1"])]
        # a depth-3 crossing radius: not stable, exit 2
        + [["classify", DEPTH3]]
        # a data file through `_load_data`, and its profile count checked against m = 5
        + [["simulate", "mgt", "--data", DATA], ["profile", "mgt", "--data", DATA],
           ["simulate", "em_elastic", "--data", DATA]]
        # every flag of the block that `simulate` and `profile` share
        + [[cmd, "mgt", "--k", "1", "--s", "0.5", "--tmin", "50", "--tmax", "2e4", "--points", "17"]
           for cmd in ("simulate", "profile")]
        # configuration errors: exit 1 and no output
        + [["simulate", "mgt", "--points", "0"], ["simulate", "mgt", "--tmin", "1e4", "--tmax", "1e2"],
           ["profile", "mgt", "--points", "0"], ["predict", "mgt", "--n", "0"],
           ["semilinear", "mgt", "--p", "5", "--modes", "0"],
           ["semilinear", "mgt", "--p", "5", "--dim", "1", "--modes", "16", "--T", "-5"],
           ["semilinear", "mgt", "--p", "5", "--dim", "1", "--modes", "16", "--T", "1", "--sign", "nan"],
           ["simulate", "mgt", "--s", "inf"], ["asymptotics", "anisotropic_elastic_2d", "--direction", "nan,1"],
           # a name that left the registry is an unknown name
           ["--tol", "confluence_rtol=1e-5", "classify", "mgt"]])


def header() -> str:
    return f"# numpy {np.__version__} on {platform.system()} {platform.machine()}"


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest(argv: list[str], keep: Path | None = None) -> list[str]:
    """The digest lines of one run; with `keep`, its files and stdout.txt are copied there."""
    with tempfile.TemporaryDirectory() as tmp:
        stdout, cwd = io.StringIO(), os.getcwd()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                os.chdir(ROOT)
                code = main(["--out", tmp] + argv)
            except Exception as exc:     # an escaped exception is recorded by its type
                code = type(exc).__name__
            finally:
                os.chdir(cwd)
        lines = [f"== {' '.join(argv)}", f"exit {code}", f"stdout {_hash(stdout.getvalue().encode())}"]
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                lines.append(f"{path.relative_to(tmp)} {_hash(path.read_bytes())}")
        if keep is not None:
            shutil.copytree(tmp, keep, dirs_exist_ok=True)
            (keep / "stdout.txt").write_text(stdout.getvalue())
    return lines


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)", re.IGNORECASE)


def moved(old: str, new: str) -> str | None:
    """How the numbers of one file's text moved; None when the texts are equal."""
    if old == new:
        return None
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return "text changed outside its numbers"
    pairs = [(float(a), float(b)) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)) if a != b]
    rel, a, b = max((abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0, a, b) for a, b in pairs)
    return f"{len(pairs)} numbers moved, largest relative change {rel:.1e} ({a!r} -> {b!r})"


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per kept file that differs between two `--keep` trees of the same run list."""
    lines = []
    for i, argv in enumerate(RUNS):
        old, new = old_dir / str(i), new_dir / str(i)
        names = sorted({p.relative_to(d) for d in (old, new) for p in d.rglob("*") if p.is_file()})
        for name in names:
            a, b = old / name, new / name
            if not (a.is_file() and b.is_file()):
                change = "only in " + (str(old_dir) if a.is_file() else str(new_dir))
            else:
                change = moved(a.read_text(), b.read_text())
            if change:
                lines.append(f"{' '.join(argv)} | {name}: {change}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path, help="directory that receives each run's files under <run index>/")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --keep directories number by number instead of running")
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*args.compare)))
        sys.exit(0)
    print(header())
    for i, argv in enumerate(RUNS):
        print("\n".join(digest(argv, None if args.keep is None else args.keep / str(i))), flush=True)
    sys.exit(0)
