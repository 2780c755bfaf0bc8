"""One workload in one fresh process: set up, run, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        --spawned T --workdir DIR [--seconds S]

MODE is ``setup`` (set up, report the set-up time, exit), ``run`` (rounds
while the next one is likely to end within S seconds, at least one;
untraced), ``fixed`` (one round, untraced) or ``traced`` (one round with
every layer traced; the spans go to DIR/spans.jsonl).  Every round is one
pass of the same job, fixed by the seed.  T is the wall-clock time at which
the parent started this process, so set-up time includes interpreter
start-up.

The last line of standard output is one JSON object with the run's record.
"""

import time

SPAWN_CLOCK_START = time.time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "fixed", "traced"),
                    required=True)
    ap.add_argument("--spawned", type=float, default=SPAWN_CLOCK_START)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    import workloads  # imports panache, which is part of set-up

    wl = workloads.make(args.workload, args.workdir)
    wl.setup(args.seed)
    setup_s = time.time() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracer as tracing
        tracer = tracing.install()
    rec = workloads.Recorder(tracer)
    round_s = []
    start = time.perf_counter()
    r = 0
    while True:
        if args.mode == "run":
            # stop before a round that would likely end past the budget
            elapsed = time.perf_counter() - start
            if r and elapsed + elapsed / r > args.seconds:
                break
        elif r:
            break
        wl.reset()
        t0 = time.perf_counter()
        wl.run_round(r, rec)
        round_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.paused = True
        wl.after_round(r, rec)
        if tracer is not None:
            tracer.paused = False
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies = sorted((sec / n, n) for _, n, sec, _ in rec.ops)
    attempted = sum(n for _, n, _, _ in rec.ops)
    failed = sum(n for _, n, _, ok in rec.ops if not ok)
    done = [0] * len(round_s)
    for rnd, n, _, ok in rec.ops:
        done[rnd] += n if ok else 0
    out = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "setup_s": setup_s,
        "rounds": len(round_s),
        "round_s": round_s,
        "run_s": statistics.median(round_s),
        "run_total_s": sum(round_s),
        "ops_per_s": statistics.median(d / t for d, t in zip(done, round_s)),
        "attempted": attempted,
        "failed": failed,
        "records": len(rec.ops),
        "op_p50_ms": 1000.0 * weighted_percentile(latencies, 0.50),
        "op_p90_ms": 1000.0 * weighted_percentile(latencies, 0.90),
        "peak_rss_mb": peak_rss_mb,
        "verdicts": rec.verdicts,
        "undecided": rec.undecided,
        "errors": rec.errors[:20],
        "outputs_sha256": hashlib.sha256(
            json.dumps(rec.outputs, sort_keys=True, default=str).encode()).hexdigest(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    print(json.dumps(out))
    return 0


def weighted_percentile(pairs, q: float) -> float:
    """Nearest-rank percentile of per-op latencies; ``pairs`` is a sorted
    list of (latency, number of ops with that latency)."""
    total = sum(n for _, n in pairs)
    if not total:
        return 0.0
    rank = q * total
    seen = 0
    for value, n in pairs:
        seen += n
        if seen >= rank:
            return value
    return pairs[-1][0]


if __name__ == "__main__":
    sys.exit(main())
