#!/usr/bin/env python3
"""Regenerate the modeled baselines in bench/ from a build directory.

Reruns each cheap modeled baseline at its baseline config (the bench's
defaults) and writes it over the checked-in file, so that

    python3 scripts/bench_check.py build && git diff --exit-code bench/

is the baseline check: the modeled figures are deterministic per seed, so
a baseline either reproduces byte for byte or the behaviour changed. After
an intended change, the same command regenerates the files to commit.

Two baselines are not rerun because they are host-timed and differ on every
run and machine: BENCH_cert.json (google-benchmark wall-clock timings from
bench_micro) and BENCH_cert_shards.json (its real_ns_per_certify column and
host_cpus field).

Exit status: 0 when every bench exits 0, 1 otherwise (a bench that fails
its own gates still writes its baseline), 2 on bad usage.

Usage: bench_check.py BUILD_DIR
"""

import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

# Baseline file -> the bench binary that writes it with --json.
BASELINES = {
    "BENCH_batching.json": "bench_ablation_batching",
    "BENCH_ordering.json": "bench_ablation_ordering",
    "BENCH_reads.json": "bench_ablation_read_path",
    "BENCH_faults.json": "bench_table2_fault_aborts",
    "BENCH_partial.json": "bench_ablation_partial_replication",
    "BENCH_kv.json": "bench_ablation_skew",
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[1].startswith("-"):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    build = Path(argv[1]).resolve()
    failed = []
    for baseline, binary in BASELINES.items():
        exe = build / binary
        if not exe.is_file():
            print(f"{baseline}: {exe} not found", file=sys.stderr)
            failed.append(baseline)
            continue
        start = time.monotonic()
        run = subprocess.run(
            [str(exe), "--json", str(BENCH_DIR / baseline)],
            cwd=build, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, check=False)
        took = time.monotonic() - start
        print(f"{baseline}: {binary} exit {run.returncode} in {took:.1f} s")
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            failed.append(baseline)
    if failed:
        print("FAILED: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
