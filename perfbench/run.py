#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload paper_sweep|oltp_server --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  It builds the chronoquel library from
src/ and the perfbench binary (Release) into $CARGO_TARGET_DIR, default
.bench_build, then runs one measurement.  The last line of standard output
is the result object: {"correct", "attempted", "failed", "metrics"}.  The
line before it carries the host, build and option stamp.  A traced run
(--trace 1) also writes its spans to .bench_trace/<workload>.jsonl.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_sweep", "oltp_server")
RUN_TIMEOUT_EXTRA_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_stamp(root):
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs]
    for cmd in (configure, compile_):
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    levers = sorted(k for k in os.environ if k.startswith("TDB_"))
    if levers:
        fail("refusing to run with engine levers set: " + ", ".join(levers))
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: no src/CMakeLists.txt here")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(root, bench_dir, build_dir)

    run_dir = os.path.join(".bench_run", args.workload)
    trace_dir = ".bench_trace"
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir,
           "--trace-out", os.path.join(trace_dir, args.workload + ".jsonl"),
           "--commit", source_stamp(root)]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              timeout=args.seconds + RUN_TIMEOUT_EXTRA_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % (args.seconds + RUN_TIMEOUT_EXTRA_S))
    finally:
        shutil.rmtree(".bench_run", ignore_errors=True)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
