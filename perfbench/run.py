#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the toolkit and the
benchmark binary from source into .bench_build/perfbench; later calls only
check that the build is current. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"} holding every end-to-end metric
BENCHMARK.json names (--trace 0) or every per-layer one (--trace 1). Exit 0
when every output check passed, 1 when one failed, 2 when the benchmark could
not run (no build, no BENCHMARK.json, a metric missing).
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# Seeds: the default one every result is quoted at, and one held out while
# the benchmark was written, on which a claimed gain must also hold.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7331

# A run must end within 180 s; this leaves room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run(workload, seed, seconds, trace, spec):
    """Runs one workload; returns (exit code, text lines, result object)."""
    out_dir = os.path.join(BUILD, "spans")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} exited {proc.returncode} without a result")

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not trace:
                fail(f"{workload} did not report {m['name']}")
            # A layer this workload does not exercise did no work.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says "
                 f"{m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{m['name']}: value {got['value']!r} is not a finite number")
        metrics[m["name"]] = got
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    return proc.returncode, lines[:-1], result


def self_test(spec):
    """Every workload at minimum length on both seeds, plain and traced."""
    ok = True
    for w in spec["workloads"]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                code, _, result = run(w["name"], seed, 1, trace, spec)
                good = (code == 0 and result["correct"]
                        and result["failed"] == 0 and result["attempted"] >= 1)
                if not trace:
                    good = good and all(v["value"] != 0
                                        for v in result["metrics"].values())
                ok = ok and good
                print(f"{'ok  ' if good else 'FAIL'} {w['name']} seed={seed} "
                      f"trace={trace} metrics={len(result['metrics'])}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    build()
    if args.self_test:
        return self_test(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    code, text, result = run(args.workload, args.seed, args.seconds,
                             args.trace, spec)
    for line in text:
        print(line)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
