"""Benchmark entry point.

One run:
    python3 perfbench/run.py --workload simulate|decide|construct \
        --seed N --seconds S --trace 0|1

runs the workload in a fresh single-threaded child process with
PYTHONHASHSEED derived from the seed, then six more children that only
set up, and prints every metric by name and unit.  The last line of
standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics
for --trace 1.

Steadiness:
    python3 perfbench/run.py --steady 10 [--workload W ...] [--seed N] [--seconds S]

repeats each workload with seeds N..N+9 (N defaults to 1) in fresh
processes and prints the median, quartiles and spread of every
end-to-end metric next to its bound from BENCHMARK.json, flagging any
spread above its bound.

The benchmark reads the program from ./src of the checkout it sits in
and writes only below .perfbench_work/ and .perfbench_out/ there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("simulate", "decide", "construct")
SETUPS = 7                 # set-up is measured in this many fresh processes
CHILD_TIMEOUT = 150        # seconds; the whole run must end within 180

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def layer_units():
    sys.path.insert(0, str(BENCH))
    import tracing
    units = {m: "s" for m in tracing.SELF_TIME}
    units.update({m: "count" for m in list(tracing.CALLS) + list(tracing.COUNTS)})
    units["decide.linear_feasible.feasible"] = "ratio"
    units["trace.overhead"] = "%"
    return units


def child(args, workdir, out, *extra, timeout=CHILD_TIMEOUT):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out), *extra]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.read_text())


def one_run(args):
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        extra = []
        if args.trace:
            OUT.mkdir(exist_ok=True)
            extra = ["--spans", str(OUT / f"spans-{args.workload}-{args.seed}.json")]
        main = child(args, workdir, workdir / "result.json", *extra)
        setups = [main]
        for i in range(SETUPS - 1):
            sub = workdir / f"setup{i}"
            sub.mkdir()
            setups.append(child(args, sub, sub / "result.json", "--setup-only", timeout=20))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op_id, why in main["wrong"]:
        print(f"WRONG {op_id}: {why}", file=sys.stderr)
    if args.trace:
        units = layer_units()
        values = main["layer"]
    else:
        units = END_TO_END
        values = {"setup_s": statistics.median(r["setup_s"] for r in setups), "wall_s": main["wall_s"],
                  "cpu_s": main["cpu_s"], "op_p50_ms": main["op_p50_ms"],
                  "op_p90_ms": main["op_p90_ms"], "peak_rss_mb": main["peak_rss_mb"]}
    print(f"# {args.workload} seed {args.seed}: {main['rounds']} untraced rounds of "
          f"{main['ops_per_round']} operations ({main['samples']} latency samples), "
          f"{main['attempted']} attempted, {main['failed']} failed")
    print(f"# times are at the reference speed; the machine ran at {main['speed']:.3f} of it, "
          f"the raw batch took {main['raw_wall_s']:.4g} s and the raw set-up "
          f"{statistics.median(r['setup_raw_s'] for r in setups):.4g} s")
    for fault in main["faults"]:
        print(f"# known fault: {fault}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not main["wrong"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))


def steady(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    flagged = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.seed, args.seed + args.steady):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} failed")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"  seed {seed}: " + "  ".join(
                f"{n} {m['value']:.4g}" for n, m in runs[-1]["metrics"].items()), flush=True)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        ratios = {f"{f}/{a}" for f, a in shares}
        same = len({f / a for f, a in shares}) == 1
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted {sorted(ratios)} ({'same share' if same else 'SHARE DIFFERS'})")
        flagged |= not same or not all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bound:
                flag, flagged = "  SPREAD ABOVE BOUND", True
            elif spread > bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bound}{flag}")
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N",
                    help="repeat each workload N times with seeds from --seed on")
    args = ap.parse_args()
    if not (SRC / "rbcm" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'rbcm'})", file=sys.stderr)
        return 2
    if args.steady:
        return steady(args)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        ap.error("one --workload and --seconds are needed for a run")
    args.workload = args.workload[0]
    try:
        one_run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
