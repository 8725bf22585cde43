#!/usr/bin/env python3
"""Builds and runs the OpenDMX pipe benchmark.

    python3 pipebench/run.py --workload predict_batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds two
trees under .bench_build/pipebench, both RelWithDebInfo (the project's
default build type): a plain one for untraced runs and a -DDMX_ALLOC_STATS=ON
one for traced runs; later runs only check that they are up to date. The benchmark binary then runs one workload and its
last line of output is the JSON result. The exit code is the binary's: 0
when every correctness oracle held, non-zero otherwise.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
WORKLOADS = ("predict_batch", "train_durable")
# The driver allows a run 180 s; stop the binary before that.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(flavor, extra):
    """Configures (once) and builds one tree; returns the binary's path."""
    tree = os.path.join(BUILD, flavor)
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            + generator + extra,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(tree, "pipebench")


def commit():
    """The git commit, or a digest of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 check=True, capture_output=True, text=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # For the benchmark's own test only.
    parser.add_argument("--scale", default=None)
    parser.add_argument("--corrupt", choices=("flip", "drop"), default=None)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("pipebench: no OpenDMX sources at", os.path.join(ROOT, "src"),
            "- run from the root of a full checkout")
        return 2
    try:
        plain = build("plain", [])
        traced = build("alloc", ["-DDMX_ALLOC_STATS=ON"])
    except (OSError, subprocess.CalledProcessError) as e:
        log("pipebench: build failed:", e)
        return 2

    work = os.path.join(BUILD, "run-" + args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [traced if args.trace == "1" else plain,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work, "--commit", commit()]
    if args.scale is not None:
        cmd += ["--scale", args.scale]
    if args.corrupt is not None:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        if e.stdout:
            out = e.stdout if isinstance(e.stdout, str) else e.stdout.decode()
            sys.stderr.write(out)
        log("pipebench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
