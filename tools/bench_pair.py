#!/usr/bin/env python3
"""Before/after benchmark numbers: alternating perfbench runs on two trees.

    python3 tools/bench_pair.py PARENT_TREE CHANGE_TREE --label L --workload W --pairs N

Each tree is a checkout of this repository.  Pair i (seed i on both sides,
i = 1 .. N) runs `perfbench/run.py --workload W --seed i --seconds
<run_seconds of BENCHMARK.json> --trace 0` in each tree, one process at a
time; the parent runs first in the odd pairs 1, 3, 5, ... and the change first
in the even ones.  One traced run (--trace 1, seed 1) per side follows.  The
result goes under `workloads.W` of `BENCH_<L>.json` in the current directory;
the file's other workloads are kept, so one file collects several invocations.

Per side and end-to-end metric: median, quartiles (statistics.quantiles,
n = 4) and spread (Q3 - Q1) / median, plus every run.  Per metric the
comparison records the pairs the change wins (ties count for neither), the
relative change of the median, the gap between the medians, the parent's
interquartile range and the benchmark's bound; it passes no verdict.

Each tree is named by its git commit (`commits`, null outside a git
checkout) and by a SHA-256 over its sorted `src/hyperdecay/*.py` paths and
bytes (`sources`), which names the measured code in an exported tree too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                           "--trace", str(trace)],
                          cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench/run.py failed in {tree} with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def side_summary(results: list[dict], seeds: list[int], firsts: list[str]) -> dict:
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    summary = {name: quartiles([r["metrics"][name]["value"] for r in results]) for name in names}
    summary.update(correct_all=all(r["correct"] for r in results),
                   failed=sum(r["failed"] for r in results),
                   attempted=sum(r["attempted"] for r in results),
                   runs=[{"seed": seed, "first": first,
                          **{name: r["metrics"][name]["value"] for name in names}}
                         for r, seed, first in zip(results, seeds, firsts)])
    return summary


def comparison(parent: dict, change: dict) -> dict:
    out = {}
    for metric in BENCHMARK["end_to_end"]:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        gains = [sign * (p[name] - c[name]) for p, c in zip(parent["runs"], change["runs"])]
        pm, cm = parent[name]["median"], change[name]["median"]
        out[name] = {"change_better": sum(g > 0 for g in gains), "ties": sum(g == 0 for g in gains),
                     "median_change_vs_parent": (cm - pm) / pm if pm else 0.0,
                     "bound": metric["bound"], "parent_iqr": parent[name]["q3"] - parent[name]["q1"],
                     "median_gap": abs(cm - pm)}
    return out


def commit_of(tree: Path) -> str | None:
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + (" + uncommitted changes" if dirty else "")


def source_digest(tree: Path) -> str:
    """SHA-256 over each `src/hyperdecay/*.py` file, in sorted order: its path in the tree, its size, its bytes."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "hyperdecay").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(tree).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def machine(threads: str) -> dict:
    import numpy
    cpuinfo = Path("/proc/cpuinfo")
    names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
             if line.startswith("model name")] if cpuinfo.is_file() else []
    return {"nproc": os.cpu_count(), "cpu": names[0] if names else platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(threads)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{side} tree {getattr(args, side)} has no perfbench/run.py")

    seeds = list(range(1, args.pairs + 1))
    results = {"parent": [], "change": []}
    firsts = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        firsts.append(order[0])
        for side in order:
            res = run_bench(trees[side], args.workload, seed, trace=0)
            results[side].append(res)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                  + f"; failed {res['failed']}/{res['attempted']}, correct {res['correct']}",
                  file=sys.stderr, flush=True)
    sides = {side: side_summary(results[side], seeds, firsts) for side in trees}
    trace = {side: {k: v["value"] for k, v in run_bench(trees[side], args.workload, seeds[0],
                                                          trace=1)["metrics"].items()}
             for side in trees}

    path = Path(f"BENCH_{args.label}.json")
    doc = json.loads(path.read_text()) if path.is_file() else {}
    # run.py records the BLAS thread count it fixed in its log of the run
    log = trees["parent"] / "perfbench" / "out" / f"{args.workload}-seed{seeds[-1]}-trace0.json"
    doc.update(label=args.label, machine=machine(json.loads(log.read_text())["threads"]),
               commits={side: commit_of(tree) for side, tree in trees.items()},
               sources={side: source_digest(tree) for side, tree in trees.items()})
    doc["what"] = ("tools/bench_pair.py: perfbench/run.py --seconds "
                   f"{BENCHMARK['run_seconds']} --trace 0 in each tree, alternating pairs (parent "
                   "first in odd pairs, change first in even; both sides of a pair use the same "
                   "seed); median and quartiles by statistics.quantiles(n=4); one traced run "
                   "(--trace 1) per side on the first seed under 'trace'")
    doc.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs, "seeds": seeds, **sides,
        "comparison": comparison(sides["parent"], sides["change"]), "trace": trace}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, c in doc["workloads"][args.workload]["comparison"].items():
        print(f"{args.workload} {name}: parent {sides['parent'][name]['median']:.4g}, change "
              f"{sides['change'][name]['median']:.4g} ({c['median_change_vs_parent']:+.1%}), "
              f"change better in {c['change_better']}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
