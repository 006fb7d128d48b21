#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 tabbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 tabbench/run.py --bless

Run from the repository root. The script builds the benchmark package
(`tabbench/Cargo.toml`, a workspace of its own over the repository's
crates) in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs it:

* `--trace 0`: the end-to-end metrics. `tabbench` times the passes with
  the system allocator in PROCESSES fresh processes, each for an equal
  share of `--seconds`, and the metrics pool their samples: run-to-run
  variation here is mostly between processes, not between passes.
  `tabbench-traced --heap` then measures `peak_heap_mb` in a separate
  process under the counting allocator.
* `--trace 1`: the per-layer metrics. `tabbench --layers` runs untraced
  for a third of the time (the untraced sequential pass time and the
  `core::parallel` layer), `tabbench-traced` brackets every layer for the
  rest; `trace.overhead_pct` compares their sequential pass times.

It prints a host record line, then the result as the last line:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
The exit code is 0 only if every answer was checked correct.
`--bless` rewrites the committed depth-k and strictness reference answers.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
# Every child must end well inside the benchmark's 180-second limit.
CHILD_TIMEOUT_S = 120
# End-to-end processes per run; setup_s is the median of their set-ups.
PROCESSES = 5
END_TO_END = [
    "setup_s",
    "pass_ms.p50",
    "pass_ms.p90",
    "program_ms.geomean",
    "analyses_per_s",
    "table_kb",
    "peak_heap_mb",
    "ok_ratio",
]


def fail(msg):
    print(f"tabbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release")


def run_child(binary, args):
    """Runs a benchmark binary and returns its parsed last output line."""
    cmd = [binary, *args, "--reference", REFERENCE_DIR]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{os.path.basename(binary)}: {e}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(binary)} printed no result (exit {done.returncode})")
    return json.loads(lines[-1])


def quantile(xs, q):
    """The q-quantile by linear interpolation between order statistics."""
    v = sorted(xs)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(runs):
    """Pools the samples of the end-to-end processes into the metrics."""
    e2e = [r for k, r in runs.items() if k.startswith("e2e")]
    samples = [r["samples"] for r in e2e]
    passes = [x for s in samples for x in s["pass_ms"]]
    programs = {}
    for s in samples:
        for name, xs in s["program_ms"].items():
            programs.setdefault(name, []).extend(xs)
    per_program = [quantile(xs, 0.5) for xs in programs.values()]
    table_bytes = {s["table_bytes"] for s in samples}
    if len(table_bytes) != 1:
        # Table space is deterministic; processes disagreeing is a failure.
        for r in e2e:
            r["correct"] = False
            r["failed"] += 1
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    values = {
        "setup_s": (quantile([s["setup_s"] for s in samples], 0.5), "s"),
        "pass_ms.p50": (quantile(passes, 0.5), "ms"),
        "pass_ms.p90": (quantile(passes, 0.9), "ms"),
        "program_ms.geomean": (
            math.exp(sum(math.log(x) for x in per_program) / len(per_program)),
            "ms",
        ),
        "analyses_per_s": (
            sum(len(xs) for xs in programs.values())
            / sum(s["timed_s"] for s in samples),
            "1/s",
        ),
        "table_kb": (max(table_bytes) / 1024, "KiB"),
        "peak_heap_mb": (runs["heap"]["metrics"]["peak_heap_mb"]["value"], "MB"),
        "ok_ratio": (1 - failed / max(attempted, 1), "ratio"),
    }
    return {k: {"value": values[k][0], "unit": values[k][1]} for k in END_TO_END}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the measured sources, naming the code where git cannot."""
    h = hashlib.sha256()
    for top in ("crates", "tabbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["ground", "depthk", "strict", "batch"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--bless", action="store_true")
    a = p.parse_args()
    if not os.path.isdir("crates"):
        fail("run from the repository root (no crates/ here)")
    bins = build()
    e2e = os.path.join(bins, "tabbench")
    traced = os.path.join(bins, "tabbench-traced")

    if a.bless:
        for w in ("depthk", "strict"):
            done = subprocess.run(
                [e2e, "--workload", w, "--seed", "1", "--seconds", "0",
                 "--reference", REFERENCE_DIR, "--bless"],
                timeout=CHILD_TIMEOUT_S,
            )
            if done.returncode != 0:
                sys.exit(done.returncode)
        return
    if a.workload is None:
        fail("--workload is required")

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace == 0:
        runs = {
            f"e2e{i}": run_child(e2e, [
                "--workload", a.workload,
                # Distinct, seed-determined program orders per process.
                "--seed", str(a.seed * PROCESSES + i),
                "--seconds", str(a.seconds / PROCESSES),
            ])
            for i in range(PROCESSES)
        }
        runs["heap"] = run_child(traced, [*common, "--seconds", "0", "--heap"])
        metrics = end_to_end(runs)
    else:
        runs = {
            "untraced": run_child(
                e2e, [*common, "--seconds", str(a.seconds / 3), "--layers"]
            ),
            "traced": run_child(
                traced, [*common, "--seconds", str(a.seconds * 2 / 3)]
            ),
        }
        layers = runs["untraced"]["layers"]
        untraced_ms = layers["seq_pass_ms"]
        traced_ms = runs["traced"]["info"]["traced_pass_ms"]
        metrics = dict(runs["traced"]["metrics"])
        for k in ("batch.busy_frac", "batch.slowdown"):
            metrics[k] = {"value": layers.get(k, 0.0), "unit": "ratio"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_ms - untraced_ms) / untraced_ms,
            "unit": "%",
        }

    info = {k: r.get("info", {}) for k, r in runs.items()}
    for k, r in runs.items():
        if "samples" in r:
            info[k]["passes"] = len(r["samples"]["pass_ms"])
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_profile": "release",
        "git_rev": git_rev(),
        "source_digest": source_digest(),
    }
    print(json.dumps({"host": host, "workload": a.workload, "seed": a.seed,
                      "trace": a.trace, "runs": info}))
    result = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
