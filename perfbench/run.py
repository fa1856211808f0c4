#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload skew_tiered --seed 1 \
        --seconds 15 --trace 0

Configures and builds perfbench/ (which compiles the repository's
src/) into .bench_build/perfbench, then runs one workload. Build output
goes to stderr; the benchmark's report goes to stdout, ending with one
JSON result line. The exit code is the benchmark's: 0 when every
correctness check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")


def source_digest():
    """Content hash of the library sources: the commit stand-in when
    the checkout is not a git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "engine_runtime.h")):
        print("perfbench: library sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work, "--commit", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
