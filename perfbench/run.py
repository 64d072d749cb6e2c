#!/usr/bin/env python3
"""Builds and runs the relsched benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hls_suite|edit_stream|serve_edits \
        --seed N --seconds S --trace 0|1

Builds the repository's libraries, the relsched_serve daemon and the
perfbench binary from source into $CARGO_TARGET_DIR (default
.bench_build), then runs one workload. Its output is passed
through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every correctness gate passed and no operation failed.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("hls_suite", "edit_stream", "serve_edits")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """sha1 over the sources the benchmark builds, so a result names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir):
    """Configures (once) and builds the benchmark package; build output
    goes to stderr so stdout stays the benchmark's."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "relsched_serve_bin", "-j", jobs],
            stdout=sys.stderr, check=True)


def reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def valid_result(line):
    try:
        obj = json.loads(line, parse_constant=reject_constant)
    except ValueError as e:
        log(f"last line is not valid JSON: {e}")
        return False
    if not isinstance(obj, dict) or set(obj) != {
            "correct", "attempted", "failed", "metrics"}:
        log("last line does not have exactly the result keys")
        return False
    for name, m in obj["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            log(f"metric {name} has no finite value")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("the repository's sources (src/) are not next to perfbench/; "
            "run from a full checkout")
        return 2
    os.chdir(root)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    # Relative paths keep the daemon's unix socket name short.
    work_dir = os.path.join(build_dir, "work", args.workload)
    trace_dir = os.path.join(build_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin",
        os.path.join(build_dir, "relsched", "serve", "relsched_serve"),
        "--work-dir", work_dir,
        "--trace-path",
        os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"),
        "--commit", git_commit(root),
        "--source-digest", source_digest(root),
    ]
    # Own process group: on a timeout perfbench and the daemon it spawned
    # are stopped together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 3
    finally:
        # Nothing perfbench started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = out.rstrip("\n").split("\n") if out else []
    if not lines or not valid_result(lines[-1]):
        sys.stdout.write(out)
        log(f"perfbench exited {proc.returncode} without a valid result")
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    start = time.monotonic()
    code = main()
    log(f"exit {code} after {time.monotonic() - start:.1f} s")
    sys.exit(code)
