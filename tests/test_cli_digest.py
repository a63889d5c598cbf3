"""The CLI's outputs, byte for byte, against the committed digest of `tools/cli_digest.py`."""

import difflib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "data" / "cli_digest.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _blocks(lines: list[str]) -> dict[str, list[str]]:
    """Digest lines grouped under their `== <argv>` line."""
    blocks: dict[str, list[str]] = {}
    for line in lines:
        if line.startswith("== "):
            blocks[line] = body = []
        else:
            body.append(line)
    return blocks


def test_cli_outputs_match_the_committed_digest():
    """Every run of the digest's list prints the committed exit code and hashes.

    The hashes cover exact bytes, and the last bits of a float output can change
    with the numpy version or the platform, so under another header than the
    committed one the comparison says nothing about this code and is skipped.
    """
    tool = _tool()
    header, *want = DIGEST.read_text().splitlines()
    if header != tool.header():
        pytest.skip(f"the digest was made under {header!r}, this is {tool.header()!r}; regenerate it "
                    "with `PYTHONPATH=src python3 tools/cli_digest.py > tests/data/cli_digest.txt`")
    got = [line for argv in tool.RUNS for line in tool.digest(argv)]
    if got != want:
        old, new = _blocks(want), _blocks(got)
        changed = [title for title in dict.fromkeys([*old, *new]) if old.get(title) != new.get(title)]
        report = [title + "".join(f"\n  {line}" for line in difflib.ndiff(old.get(title, []), new.get(title, []))
                                  if line[0] in "+-")
                  for title in changed]
        pytest.fail(f"{len(changed)} of {len(old)} runs changed (- committed, + now):\n" + "\n".join(report),
                    pytrace=False)


def test_kept_outputs_compare_number_by_number(tmp_path):
    """`--keep` trees compare by their numbers: how many moved, and the largest relative change."""
    tool = _tool()
    assert tool.moved("t,1.5,2e-3\n", "t,1.5,2e-3\n") is None
    assert tool.moved("t,1.5,2e-3\n3,-0\n", "t,1.5,2.2e-3\n3,0\n") == (
        "2 numbers moved, largest relative change 9.1e-02 (0.002 -> 0.0022)")   # -0 -> 0 moved too
    assert tool.moved('"slope": 1', '"slope": 1, "n": 2') == "text changed outside its numbers"
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "0").mkdir(parents=True)
    (new / "0").mkdir(parents=True)
    (old / "0" / "fit.json").write_text('{"slope": -0.25}')
    (new / "0" / "fit.json").write_text('{"slope": -0.5}')
    (new / "0" / "stdout.txt").write_text("ok\n")
    assert tool.compare(old, new) == [
        f"{' '.join(tool.RUNS[0])} | fit.json: 1 numbers moved, largest relative change 5.0e-01 (-0.25 -> -0.5)",
        f"{' '.join(tool.RUNS[0])} | stdout.txt: only in {new}"]
