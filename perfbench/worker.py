"""One workload run in a fresh process; started by run.py.

Set-up (timed as `setup_s`): import `rbcm`, generate and write the
inputs from the seed, and warm up.  Then whole rounds of the workload's
operations run until `--seconds` have passed; with `--trace 1` untraced
and traced rounds alternate, and the ratio of their batch times is the
tracing overhead.  Every time is scaled to the reference speed (see
`reference_loop`).  The peak resident memory is read when the timed
region ends; then every distinct result is checked.  The result goes to
`--out` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import time


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# The time the reference loop takes at the reference speed: its best
# time on the 2-core machine the benchmark was tuned on.
REF_LOOP_S = 300e-6


def reference_loop():
    """A fixed piece of pure-Python work (tuples, a dict, a list), timed
    beside the operations to measure how fast the machine runs right then.
    The shared machine the benchmark was tuned on swings between a fast
    and a slow speed about 2x apart, for seconds to minutes at a time,
    and the swing hits every kind of Python code alike; an operation's
    time multiplied by REF_LOOP_S / (this loop's time) is its time at the
    reference speed, which stays put where the raw time does not."""
    seen = {}
    out = []
    for i in range(1500):
        key = (i % 97, i & 15)
        seen[key] = seen.get(key, 0) + 1
        out.append(key)
    return len(out) + len(seen)


def loop_times(samples):
    """Wall times of `samples` runs of the reference loop."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t)
    return times


def one_round(ops, seen, tracer=None):
    """Run every operation once, each after one run of the reference loop,
    and return [(wall seconds, CPU seconds, speed factor)].  An
    operation's speed factor is REF_LOOP_S over the median time of the
    ten loops around it (the four before the one just before it, and the
    five after it), so that it follows the machine through the round.
    Each result is kept only the first time it shows: seen[i] maps a
    digest of operation i's result to [result, times seen], so the memory
    held does not grow with the number of rounds."""
    times, loop = [], []
    for i, op in enumerate(ops):
        t = time.perf_counter()
        reference_loop()
        loop.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.op = op.id
        w, c = time.perf_counter(), time.process_time()
        try:
            r = ("ok", op.run())
        except Exception as exc:                  # a crash is a wrong result
            r = ("raised", f"{type(exc).__name__}: {exc}")
        times.append([time.perf_counter() - w, time.process_time() - c])
        key = hashlib.sha1(repr(r).encode()).digest()
        if key in seen[i]:
            seen[i][key][1] += 1
        else:
            seen[i][key] = [r, 1]
    for i, row in enumerate(times):
        row.append(REF_LOOP_S / statistics.median(loop[max(0, i - 4):i + 6]))
    return times


def op_times(rounds, which):
    """Each operation's median over the rounds of its time at the
    reference speed (which: 0 wall, 1 CPU)."""
    return [statistics.median(times[i][which] * times[i][2] for times in rounds)
            for i in range(len(rounds[0]))]


def raw_times(rounds, which):
    """The same without the scaling, for the record."""
    return [statistics.median(times[i][which] for times in rounds)
            for i in range(len(rounds[0]))]


def check(ops, seen):
    """(failed, wrong) over all attempts; `wrong` lists unexpected failures.
    An operation with a known fault fails as expected only when its result
    shows that fault's verdict."""
    failed, wrong = 0, []
    for op, results in zip(ops, seen):
        for r, count in results.values():
            if r[0] == "raised":
                why = r[1]
            else:
                try:
                    why = op.check(r[1])
                except Exception as exc:         # a checker fault must not pass
                    why = f"check raised {type(exc).__name__}: {exc}"
            if why is None:
                continue
            failed += count
            known = op.fault is not None and r[0] == "ok" and op.fault.shows_in(r[1])
            if not known:
                wrong.append((op.id, why))
    return failed, wrong


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # the machine's speed around set-up, from 100 runs of the loop just
    # before it and 100 just after it (0.03-0.05 s each)
    loops = loop_times(100)
    t0 = time.perf_counter()
    import rbcm  # noqa: F401  (set-up time includes the import)
    import ops as workloads

    ops, warm = workloads.build(args.workload, random.Random(args.seed), args.workdir)
    warm()
    setup_raw = time.perf_counter() - t0
    loops += loop_times(100)
    out = {"setup_s": setup_raw * REF_LOOP_S / statistics.median(loops),
           "setup_raw_s": setup_raw}
    if not args.setup_only:
        rounds, traced = [], []
        seen = [{} for _ in ops]
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(one_round(ops, seen))
            if tracer is not None:
                # traced and untraced rounds alternate, so that both see
                # the same machine
                tracer.install()
                try:
                    traced.append(one_round(ops, seen, tracer))
                finally:
                    tracer.uninstall()
                tracer.keep_spans = False
        # the workload's own peak, before the checks allocate anything
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            layer = tracer.metrics(len(traced))
            layer["trace.overhead"] = 100.0 * (sum(op_times(traced, 0)) /
                                               sum(op_times(rounds, 0)) - 1.0)
            out["layer"] = layer
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent", "op"],
                               "spans": tracer.spans}, fh)
        failed, wrong = check(ops, seen)
        # every untraced operation's time at the reference speed
        lat = [w * f for times in rounds for w, _c, f in times]
        out.update(
            rounds=len(rounds), ops_per_round=len(ops),
            attempted=len(ops) * (len(rounds) + len(traced)), failed=failed, wrong=wrong,
            wall_s=sum(op_times(rounds, 0)), cpu_s=sum(op_times(rounds, 1)),
            raw_wall_s=sum(raw_times(rounds, 0)),
            speed=statistics.median(f for times in rounds for _w, _c, f in times),
            op_p50_ms=1000 * statistics.median(lat), op_p90_ms=1000 * percentile(lat, 0.9),
            peak_rss_mb=rss_mb, samples=len(lat),
            faults=sorted({op.fault.what for op in ops if op.fault}),
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
