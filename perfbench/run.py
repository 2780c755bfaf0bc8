"""The panache benchmark: one workload per invocation, run from the root of
a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suites, calibration, search, cli-session (BENCHMARK.json says why
each exists; layers.json says which layer metrics should move its
end-to-end metrics).

The seed fixes each workload's job, and one round is one pass of that job.
--trace 0 measures the end-to-end metrics with tracing off: set-up time is
the median over five fresh processes (four that only set up, plus the
measured one); the measured process repeats the identical round while the
next one is likely to end within S seconds, and always runs at least one.
--trace 1 runs one round twice in fresh processes, untraced and traced,
reports every per-layer metric from the traced run's spans plus the tracing
overhead, and requires both runs to give byte-identical answers.

Every answer is checked.  Human-readable lines (with provenance and every
metric with its unit and sample count) come first; the last line of
standard output is the JSON result.  Scratch files (workspace, spans,
full records) go to .perfbench/ in the checkout.
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
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("suites", "calibration", "search", "cli-session")
END_TO_END = ("setup_s", "run_s", "ops_per_s", "op_p50_ms", "op_p90_ms",
              "peak_rss_mb")
SETUP_PROCESSES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(workload, seed, mode, workdir, deadline, seconds=None) -> dict:
    """Run one worker process to completion and return its record."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--workdir", workdir, "--spawned", repr(time.time())]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "panache")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "source_sha256": digest.hexdigest(),
            "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload, seed, seconds, workdir, deadline) -> tuple[dict, list]:
    setups = [spawn(workload, seed, "setup", workdir, deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES - 1)]
    run = spawn(workload, seed, "run", workdir, deadline, seconds=seconds)
    setups.append(run["setup_s"])
    ops = run["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh processes"),
        "run_s": (run["run_s"], "s", f"median of {run['rounds']} rounds"),
        "ops_per_s": (run["ops_per_s"], "1/s",
                      f"median over {run['rounds']} rounds of ops completed "
                      f"per second"),
        "op_p50_ms": (run["op_p50_ms"], "ms", f"{ops} ops"),
        "op_p90_ms": (run["op_p90_ms"], "ms", f"{ops} ops"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "measured process"),
    }
    run["setup_samples_s"] = setups
    return metrics, [run]


def trace(workload, seed, workdir, deadline) -> tuple[dict, list]:
    plain = spawn(workload, seed, "fixed", workdir, deadline)
    traced = spawn(workload, seed, "traced", workdir, deadline)
    if plain["outputs_sha256"] != traced["outputs_sha256"]:
        traced["failed"] = max(traced["failed"], 1)
        traced["errors"].append("traced answers differ from untraced answers")
    units = {name: unit for name, unit, _ in layer_specs()}
    metrics = {name: (value, units[name], "one round traced")
               for name, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = (
        traced["run_total_s"] - plain["run_total_s"], "s",
        f"traced {traced['run_total_s']:.3f} s - untraced "
        f"{plain['run_total_s']:.3f} s, one round")
    return metrics, [plain, traced]


def layer_specs():
    return tracer.metric_specs() + [("trace.overhead_s", "s", "lower"),
                                    ("fail_ratio", "ratio", "lower"),
                                    ("undecided_ratio", "ratio", "lower")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "panache")):
        print(f"no panache sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            metrics, runs = trace(args.workload, args.seed, workdir, deadline)
        else:
            metrics, runs = measure(args.workload, args.seed, args.seconds,
                                    workdir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = max(r["attempted"] for r in runs)
    failed = max(r["failed"] for r in runs)
    verdicts = runs[-1]["verdicts"]
    undecided = runs[-1]["undecided"]
    fail_ratio = failed / attempted if attempted else 1.0
    undecided_ratio = undecided / verdicts if verdicts else 0.0
    summary = dict(metrics)
    summary["fail_ratio"] = (fail_ratio, "ratio", f"{failed} of {attempted} ops")
    summary["undecided_ratio"] = (undecided_ratio, "ratio",
                                  f"{undecided} of {verdicts} verdicts")
    prov = provenance(args.seed)
    prov.update(workload=args.workload, trace=args.trace, seconds=args.seconds)
    record = {"provenance": prov, "runs": runs,
              "metrics": {k: {"value": v, "unit": u, "basis": b}
                          for k, (v, u, b) in summary.items()}}
    path = os.path.join(workdir, f"result-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"panache benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, python {prov['python']}, nproc {prov['nproc']}, "
          f"commit {prov['commit']}, source {prov['source_sha256'][:12]}")
    shown = summary if not args.trace else {
        k: summary[k] for k in ("trace.overhead_s", "fail_ratio", "undecided_ratio")}
    for name, (value, unit, basis) in shown.items():
        print(f"  {name:<16} {value:>14.6g} {unit:<6} ({basis})")
    for err in (e for r in runs for e in r["errors"]):
        print(f"  FAILED: {err}")
    print(f"  full record: {os.path.relpath(path, ROOT)}")

    if args.trace:
        out = {name: summary[name] for name, _, _ in layer_specs()}
    else:
        out = {name: metrics[name] for name in END_TO_END}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
