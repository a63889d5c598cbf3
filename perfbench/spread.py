"""Run the benchmark on several seeds and print each metric's median, quartiles and spread.

    python3 perfbench/spread.py --workload decay --seeds 1-10 [--seconds 12] [--trace 0]

The spread is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4).  Results go to perfbench/out/spread-*.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                    ["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", args.trace],
                              stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
              + f"; failed {res['failed']}/{res['attempted']}, correct {res['correct']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:30s} median {med:.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}  spread {summary[name]['spread']:.2%}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spread-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"seeds": args.seeds, "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
