"""Trace determinism check for the panache benchmark.

    python3 perfbench/check_trace.py [--workload NAME ...] [--seed N]

For each workload: two traced runs at one seed must give identical call
counts and every other count or ratio metric, and the answers of both must
be byte-identical to an untraced run's.  Also checks that the metric names
in BENCHMARK.json are exactly the ones the benchmark reports.  Exits 1 on
any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run


def check_names() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    declared = [m["name"] for m in bench["per_layer"]]
    reported = [name for name, _, _ in run.layer_specs()]
    if declared != reported:
        problems.append(f"per_layer names differ: only declared "
                        f"{sorted(set(declared) - set(reported))}, only reported "
                        f"{sorted(set(reported) - set(declared))}")
    units = {name: (unit, better) for name, unit, better in run.layer_specs()}
    for m in bench["per_layer"]:
        if m["name"] in units and (m["unit"], m["better"]) != units[m["name"]]:
            problems.append(f"{m['name']}: unit/better differ from the tracer")
    e2e = [m["name"] for m in bench["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append(f"end_to_end names {e2e} != reported {list(run.END_TO_END)}")
    return problems


def check_workload(workload: str, seed: int) -> list[str]:
    workdir = os.path.join(run.ROOT, ".perfbench", workload)
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + 3 * run.DEADLINE_S
    plain = run.spawn(workload, seed, "fixed", workdir, deadline)
    first = run.spawn(workload, seed, "traced", workdir, deadline)
    second = run.spawn(workload, seed, "traced", workdir, deadline)
    problems = []
    for rec in (plain, first, second):
        if rec["failed"] or not rec["attempted"]:
            problems.append(f"{workload} {rec['mode']}: {rec['failed']} of "
                            f"{rec['attempted']} ops failed")
    if len({plain["outputs_sha256"], first["outputs_sha256"],
            second["outputs_sha256"]}) != 1:
        problems.append(f"{workload}: answers differ between traced and untraced runs")
    for name, value in first["layers"].items():
        if name.endswith("_s"):
            continue
        if second["layers"][name] != value:
            problems.append(f"{workload} {name}: {value} then {second['layers'][name]}")
    print(f"{workload}: {first['spans']} spans, untraced {plain['run_total_s']:.3f} s, "
          f"traced {first['run_total_s']:.3f} s / {second['run_total_s']:.3f} s, "
          f"{'ok' if not problems else 'MISMATCH'}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = check_names()
    for workload in args.workload or run.WORKLOADS:
        try:
            problems += check_workload(workload, args.seed)
        except run.BenchError as exc:
            problems.append(f"{workload}: {exc}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
