#!/usr/bin/env python3
"""Builds the DEFACTO-DSE benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile-guided --seed 1 \
        --seconds 10 --trace 0

Every argument is passed through to the C++ program (perfbench/src/main.cpp);
see perfbench/README.md for the workloads and metrics. The build lands in
.bench_build/perfbench under the repository root and is incremental, so only
the first run in a checkout pays for compiling the engine. Build output goes
to standard error: the last line of standard output is the program's result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the engine sources and the benchmark, by content."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if shutil.which("git") is None:
        return "unknown"
    # Never let git search above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, env=env)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("configure failed")
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    build()
    os.environ["PERFBENCH_COMMIT"] = git_commit()
    os.environ["PERFBENCH_SOURCE_SHA256"] = source_digest()
    binary = os.path.join(BUILD, "perfbench")
    args = [binary, "--reference",
            os.path.join(HERE, "reference", "winners.tsv"),
            "--work-dir", os.path.join(BUILD, "run")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
