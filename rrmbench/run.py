"""Benchmark entry point for rrmgnn.

    python3 rrmbench/run.py --workload eval-mixed --seed 1 --seconds 30 --trace 0
    python3 rrmbench/run.py --workload all --seed 1 --seconds 30

One workload: its measurement runs in a fresh process (bench.py) with the
BLAS/OpenMP pools pinned to one thread, after a few set-up-only processes whose
set-up times join the reported median. The last line of standard output is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1). The line before
it records the machine, numpy and thread settings of the measuring process.

`--workload all` runs every workload, untraced and then traced, one process
at a time, and prints each metric with its unit and the tracing overhead.

Run from anywhere; it reads the package from src/ next to this directory and
keeps its files under .rrmbench/ there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import ROOT, THREAD_VARS  # bench.py imports nothing but the stdlib here

WORKLOADS = ("train-ic-k4", "eval-mixed", "solve-baselines")
SETUP_PROBES = 4          # set-up-only processes per untraced run
DEADLINE_S = 170.0        # the whole command must finish within 180 s


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(args, deadline):
    """Run bench.py in a fresh process; returns its JSON result."""
    cmd = [sys.executable, str(ROOT / "rrmbench" / "bench.py"), *args,
           "--launched", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("time budget spent before the run started")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """Set-up probes (untraced only), then the measuring process."""
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_child(base + ["--seconds", "0", "--setup-only"], deadline)
            setups.append(probe["setup_s"])
    out = ROOT / ".rrmbench"
    out.mkdir(exist_ok=True)
    args = base + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        args += ["--spans", str(out / f"spans-{workload}-seed{seed}.jsonl")]
    result = run_child(args, deadline)
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        result["setup_samples_s"] = setups
    with open(out / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return result


def final_line(result):
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                               "metrics")})


def report(seed, seconds, deadline):
    """Every workload, untraced then traced, with the tracing overhead."""
    summary = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, False, deadline)
        traced = run_workload(workload, seed, seconds, True, deadline)
        ips = plain["metrics"]["instances_per_s"]["value"]
        ips_traced = traced["metrics"]["traced.instances_per_s"]["value"]
        print(f"== {workload} (seed {seed}): ops {plain['attempted']}, "
              f"ops_failed {plain['failed']}, correct {plain['correct']}")
        for name, m in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'tracing overhead':40s} {ips - ips_traced:14.6g} 1/s "
              f"({100.0 * (ips - ips_traced) / ips:.1f}% of instances_per_s)")
        for p in plain["problems"] + traced["problems"]:
            print(f"  problem: {p}")
        summary[workload] = {"untraced": plain, "traced": traced}
    print(json.dumps({w: {"correct": s["untraced"]["correct"],
                          "ops": s["untraced"]["attempted"],
                          "ops_failed": s["untraced"]["failed"]}
                      for w, s in summary.items()}))


def main(argv=None):
    ap = argparse.ArgumentParser(description="rrmgnn benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rrmgnn" / "__init__.py").is_file():
        print(f"error: no rrmgnn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        report(args.seed, args.seconds, time.monotonic() + 6 * (args.seconds + 60))
        return 0
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), time.monotonic() + DEADLINE_S)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": result["environment"],
                      "passes": len(result["pass_seconds"]),
                      "problems": result["problems"]}))
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
