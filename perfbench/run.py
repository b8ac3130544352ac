#!/usr/bin/env python3
"""Workbench benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source tree. Builds the benchmark package
(perfbench/CMakeLists.txt, which compiles the repository's src/) into
.bench_build/ on first use, runs perfbench_runner, writes the full record
(metrics, per-leg results, host metadata) to .bench_build/results/, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. --selftest builds and runs the determinism
self-test instead. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RESULTS = os.path.join(BUILD_ROOT, "results")
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hpp")):
        log(f"no dbsm sources under {ROOT}/src; run from the root of the source tree")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    make = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(BUILD, target)


def source_digest():
    """SHA-256 over the benchmark and library sources (names and bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        return subprocess.run([build("perfbench_selftest")]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    runner = build("perfbench_runner")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUNNER_TIMEOUT_S}s")
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"runner exited {proc.returncode} without a result")
        return 3

    rec["host"] = {
        "nproc": os.cpu_count(),
        "compiler": rec.pop("compiler"),
        "build_type": rec.pop("build_type"),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(rec, f, indent=1)
        f.write("\n")
    for err in rec["errors"]:
        log(f"FAIL {err}")
    log(f"record written to {os.path.relpath(path, ROOT)}")

    correct = proc.returncode == 0 and rec["correct"] and not rec["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
