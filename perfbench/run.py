#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload sim-cc1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. Builds perfbench/ (the rtdc_perfbench
binary plus the simulator library from src/) as a Release build under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload and prints its result: a stamp line, then as the last line one
JSON object with the keys correct, attempted, failed and metrics. The
metric set is checked against BENCHMARK.json: the end-to-end metrics
with --trace 0, the per-layer ledger with --trace 1 (which also writes a
Chrome trace under .bench_out/).

--smoke runs every workload at a tiny length, traced and untraced, and
checks the schema and the correctness checks only, never a timing.

Exit status: 0 when every check passed, 1 when a correctness check
failed (the result line is still printed), 2 when the benchmark could
not be built or run (nothing is printed).
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within 180 s; keep a margin for start-up.
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 840
SMOKE_SECONDS = "1"


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    """Configure once, then build incrementally; returns the binary."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    # At most 4 compilers at once keeps the build's memory small.
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                      text=True, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                die("build timed out: " + " ".join(step))
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
                die("build failed: " + " ".join(step))
    return os.path.join(out, "rtdc_perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def run_binary(binary, args, deadline):
    """Run the binary in its own session; kill the whole group after."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline -
                                                 time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("run timed out: " + " ".join(args))
    finally:
        # Worker processes of a crashed run must not outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, stdout.splitlines()


def check_result(lines, spec, trace):
    """Parse the last line and check it against BENCHMARK.json."""
    if not lines:
        return None, "no output"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys: %s" % sorted(result)
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        missing = {m["name"] for m in declared} - set(metrics)
        extra = set(metrics) - {m["name"] for m in declared}
        return None, "metric set differs: missing %s, extra %s" % (
            sorted(missing), sorted(extra))
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            return None, "unit of %s" % m["name"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None, "attempted < 1"
    return result, None


def smoke(binary, spec, commit):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    failures = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            args = ["--workload", workload["name"], "--seed", "1",
                    "--seconds", SMOKE_SECONDS, "--trace", str(trace),
                    "--smoke", "--commit", commit]
            code, lines = run_binary(binary, args, deadline)
            result, error = check_result(lines, spec, trace)
            if error is None and (code != 0 or not result["correct"]):
                error = "correctness check failed (exit %d)" % code
            label = "%s trace=%d" % (workload["name"], trace)
            print("smoke %-20s %s" % (label, error or "ok"))
            if error:
                failures.append(label)
    if failures:
        print("smoke FAILED: " + ", ".join(failures))
        return 1
    print("smoke ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        die("BENCHMARK.json not found beside " + HERE)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        die("--workload must be one of " + ", ".join(names))
    if args.seed < 0:
        die("--seed must be a non-negative integer")

    binary = build()
    commit = source_id()
    if args.smoke:
        return smoke(binary, spec, commit)

    seconds = args.seconds or spec["run_seconds"]
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(seconds), "--trace", str(args.trace),
                "--commit", commit]
    code, lines = run_binary(binary, run_args,
                             time.monotonic() + RUN_TIMEOUT_S)
    result, error = check_result(lines, spec, args.trace)
    if error:
        sys.stderr.write("\n".join(lines[-5:]) + "\n")
        die("bad result: " + error)
    for line in lines:
        print(line)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
