#!/usr/bin/env python3
"""TEVoT benchmark: builds the benchmark binary from the checkout's
sources, runs one workload and prints its figures.

    python3 perfbench/run.py --workload characterize|predict|serve|dvfs \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
the line before it ("meta: {...}") records the host and build. Every
result is also appended, with its metadata, to .bench_out/results.jsonl.
The build goes to .bench_build/perfbench and is reused by later runs.

Options for the benchmark's own tests: --size tiny runs small inputs,
--corrupt CHECK corrupts one checked output to show that CHECK trips.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "tevot_perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("characterize", "predict", "serve", "dvfs")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--corrupt", default="")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no TEVoT sources under {ROOT}/src; run from a full checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc())])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if head.returncode == 0 and head.stdout.strip():
                return head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def host_metadata(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            version = out.stdout.splitlines()[0] if out.stdout else ""
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "size": args.size,
        "nproc": nproc(),
        "cpu_model": cpu,
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or BUILD_TYPE,
        "commit": source_revision(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main():
    args = parse_args()
    if not build():
        return 3
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--size", args.size, "--out-dir", OUT_DIR]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=60 + 4 * args.seconds)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 3
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict):
        sys.stdout.write(done.stdout)
        log(f"no result (exit code {done.returncode})")
        return done.returncode or 3
    meta = host_metadata(args)
    for line in lines[:-1]:
        print(line)
    print("meta: " + json.dumps(meta, sort_keys=True))
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as results:
        results.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
