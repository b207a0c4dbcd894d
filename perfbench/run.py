#!/usr/bin/env python3
"""Builds and runs the msn benchmark.

    python3 perfbench/run.py --workload dp_nets --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds the
library and the benchmark program (RelWithDebInfo) under
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``); later
calls rebuild incrementally.  Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.  Any build or run failure exits
non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE_DIRS = ("src",)
SOURCE_FILES = ("CMakeLists.txt",)


def source_digest():
    """SHA-256 over the library sources: identifies the measured code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        if not os.path.isfile(p):
            continue
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            stdin=subprocess.DEVNULL).returncode
        if rc != 0:
            print(f"perfbench: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(base, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, *sys.argv[1:],
           "--work-dir", work_dir,
           "--golden-dir", os.path.join(HERE, "goldens"),
           "--commit", git_commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
