#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 tabbench/selftest.py [--seconds S] [WORKLOAD ...]

Run from the repository root. For each workload (default: all four in
BENCHMARK.json) it checks that

1. every metric BENCHMARK.json names is emitted, with its unit: the
   end-to-end metrics by a `--trace 0` run, the per-layer metrics by a
   `--trace 1` run;
2. the runs pass their own answer checks (exit 0, `correct`, no failures);
3. two traced runs give identical count metrics (the work counters, IR
   sizes and sequential allocation counts below), and two untraced runs
   the same `table_kb`.

Exits non-zero, listing every problem, if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Per-layer metrics that count work and must repeat exactly.
COUNT_METRICS = [
    "syntax.clauses",
    "syntax.alloc_count",
    "funlang.alloc_count",
    "transform.rules",
    "transform.alloc_count",
    "evaluate.steps",
    "evaluate.clause_resolutions",
    "evaluate.subgoals",
    "evaluate.answers",
    "evaluate.duplicate_answers",
    "evaluate.calls_abstracted",
    "evaluate.answers_widened",
    "analyze.alloc_count",
    "term.nodes",
]


def run(workload, trace, seconds, problems):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=400)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        problems.append(f"{workload} trace {trace}: exit {done.returncode}")
        return {}
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{workload} trace {trace}: answers failed their checks")
    return result.get("metrics", {})


def check_named(workload, trace, spec, metrics, problems):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(
            f"{workload} trace {trace}: missing {missing}, extra {extra}, "
            f"wrong units {units}"
        )


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=3.0)
    p.add_argument("workloads", nargs="*")
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    problems = []
    for w in workloads:
        e2e = [run(w, 0, a.seconds, problems) for _ in range(2)]
        traced = [run(w, 1, a.seconds, problems) for _ in range(2)]
        check_named(w, 0, bench["end_to_end"], e2e[0], problems)
        check_named(w, 1, bench["per_layer"], traced[0], problems)
        for name in COUNT_METRICS:
            values = [m.get(name, {}).get("value") for m in traced]
            if values[0] != values[1]:
                problems.append(f"{w}: {name} differs between traced runs: {values}")
        kb = [m.get("table_kb", {}).get("value") for m in e2e]
        if kb[0] != kb[1]:
            problems.append(f"{w}: table_kb differs between runs: {kb}")
        print(f"{w}: checked", file=sys.stderr)
    for msg in problems:
        print(f"FAIL {msg}")
    if problems:
        sys.exit(1)
    print(f"ok: {len(workloads)} workloads")


if __name__ == "__main__":
    main()
