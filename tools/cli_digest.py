#!/usr/bin/env python3
"""Digest of a fixed list of CLI runs: exit code, stdout and every output file.

Each run calls `hyperdecay.cli.main` in-process with its own temporary
`--out` directory, then prints one block:

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
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from hyperdecay.cli import main
from hyperdecay.presets import PRESETS

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
        + [["profile", name] for name in ("mgt", "blackstock_crighton", "em_elastic")]
        + [["simulate", "mgt"], ["simulate", "anisotropic_elastic_2d"],
           ["semilinear", "mgt", "--p", "5", "--dim", "2", "--modes", "64", "--T", "5"],
           # a large datum with p = 2: "growing" by T = 3, "blowup" near t = 3.09 by T = 6
           *[["semilinear", "mgt", "--p", "2", "--dim", "1", "--modes", "64", "--box", "20",
              "--amplitude", "30", "--dt", "0.05", "--T", T] for T in ("3", "6")],
           # two times leave fewer than three points in the fit window
           ["simulate", "mgt", "--points", "2"], ["profile", "mgt", "--points", "2"],
           # the largest m (5) with k > 0 through the coordinate-0 contraction of `exp_newton`
           ["simulate", "em_elastic", "--k", "2"], ["profile", "em_elastic", "--k", "1"]]
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


def digest(argv: list[str]) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(["--out", tmp] + argv)
            except Exception as exc:     # an escaped exception is recorded by its type
                code = type(exc).__name__
        lines = [f"== {' '.join(argv)}", f"exit {code}", f"stdout {_hash(stdout.getvalue().encode())}"]
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                lines.append(f"{path.relative_to(tmp)} {_hash(path.read_bytes())}")
    return lines


if __name__ == "__main__":
    print(header())
    for argv in RUNS:
        print("\n".join(digest(argv)), flush=True)
    sys.exit(0)
