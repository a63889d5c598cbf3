"""Benchmark of hyperdecay's decay, box and branch-tracking computations.

    python3 perfbench/run.py --workload {decay,box,branches} --seed N --seconds S --trace {0,1}

Run from the repository root.  One closed-loop process runs the workload's
operations one after another: set-up, one warm-up pass (whose results also
get the root checks), then timed passes until S seconds of passes have been
measured, and at least two.  Every result is checked outside the timed region.  The last line
of standard output is one JSON object: with --trace 0 the end-to-end metrics
(wall_s, cpu_s, setup_s, peak_rss_mb), with --trace 1 the per-layer metrics
of `spans.LAYER_METRICS`.  A record of the run goes to perfbench/out/.
"""

import os

# Fixed before numpy is imported; child processes inherit it.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
MIN_PASSES = 2       # a median of one pass would carry all of the machine's noise


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["decay", "box", "branches"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_workloads():
    src = ROOT / "src"
    if not (src / "hyperdecay" / "__init__.py").is_file():
        sys.exit(f"error: no hyperdecay sources under {src}; run from a repository checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import workloads
    return workloads


def probe_setup(args) -> list[float]:
    """Process start to ready (imports and inputs built), in fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return samples


def call(op) -> BaseException | None:
    op.result = None     # the previous pass's result is not held while this one runs
    try:
        op.result = op.call()
    except Exception as exc:   # a failed operation is counted, the run goes on
        return exc
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_workloads()
    ops = wl.build(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    from spans import Tracer, install_layer_spans, layer_metrics

    setup = [] if args.trace else probe_setup(args)
    log = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "threads": THREADS,
           "setup_s": setup, "passes": [], "problems": []}
    attempted = failed = 0
    wrong = False

    def settle(op, exc, extra=()):
        nonlocal attempted, failed, wrong
        attempted += 1
        if exc is not None:
            problems = [f"raised {exc!r}"]
        else:
            try:
                problems = op.check(op.result) + list(extra)
            except Exception as err:   # a check that cannot read the result rejects it
                problems = [f"check raised {err!r}"]
        if problems:
            failed += 1
            wrong |= exc is None
            log["problems"].append({"op": op.name, "problems": problems})
            print(f"FAILED {op.name}: {problems}", file=sys.stderr)

    # warm-up pass, with the roots of every propagator it builds checked too
    t0 = time.perf_counter()
    for op in ops:
        capture = wl.capture_propagators(op)
        try:
            exc = call(op)
        finally:
            capture.restore()
        settle(op, exc, wl.root_check(op) if exc is None else ())
        op.propagators = []
    log["warmup_s"] = time.perf_counter() - t0

    tracer = Tracer()
    if args.trace:
        install_layer_spans(tracer)
    walls, cpus, layers = [], [], []
    while sum(walls) < args.seconds or len(walls) < MIN_PASSES:
        tracer.reset()
        excs = []
        c0, t0 = time.process_time(), time.perf_counter()
        for op in ops:
            excs.append(call(op))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            layers.append(layer_metrics(tracer))
        for op, exc in zip(ops, excs):
            settle(op, exc)
        log["passes"].append({"wall_s": wall, "cpu_s": cpu})
        print(f"pass {len(walls)}: {wall:.3f} s wall, {cpu:.3f} s cpu", file=sys.stderr)
    tracer.restore()

    if args.trace:
        metrics = {name: {"value": statistics.median(p[name][0] for p in layers), "unit": unit}
                   for name, (_, unit) in layers[0].items()}
        log["layers"] = [{k: v for k, (v, _) in p.items()} for p in layers]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    log["result"] = result
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(log, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
