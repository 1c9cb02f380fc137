#!/usr/bin/env python3
"""Build and run the SESR benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
runs the harness and relays its output. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the metrics are
exactly BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1). Exits non-zero when the build fails, an output is wrong, or the
harness reports other metrics than BENCHMARK.json declares.

--corrupt-output flips one bit of one output before it is checked, to show
that the correctness gate fails the run.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench_harness", "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return None
            if done.returncode != 0:
                log(f"build step failed: {' '.join(step)}")
                return None
    return os.path.join(build_dir, "perfbench_harness")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-output", action="store_true")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    harness = build(build_dir)
    if harness is None:
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [harness, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-dir", trace_dir]
    if args.corrupt_output:
        cmd.append("--corrupt-output")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"harness did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        log(f"harness printed nothing (exit {done.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness output does not end in a JSON result")
        return 1
    want = declared_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
