#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

Feeds run.py a goldens file whose digest for the run's seed is wrong and
asserts that the run reports the mismatch, counts every operation as
failed and exits non-zero. Then checks that the same run passes against
its own digest, so the gate fires on the wrong golden and only there.

  python3 perfbench/test_golden.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
WORKLOAD = "serving-3tenant"  # the cheapest point
SEED = 4242                   # no checked-in golden


def run(goldens):
    path = SCRATCH / "goldens.json"
    path.write_text(json.dumps(goldens))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "0", "--trace", "0",
         "--goldens", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failures = []

    proc, result = run({WORKLOAD: {str(SEED): ["0" * 16]}})
    if proc.returncode == 0:
        failures.append("wrong golden: exit code 0")
    if "digest mismatch vs golden" not in proc.stdout:
        failures.append("wrong golden: no 'digest mismatch vs golden' message")
    if result is None or result["correct"] or \
            result["failed"] != result["attempted"]:
        failures.append(f"wrong golden: result not marked failed: {result}")

    digest = None
    for line in proc.stdout.splitlines():
        if line.startswith("manifest: "):
            digest = json.loads(line[len("manifest: "):])["digests"][0]
    proc, result = run({WORKLOAD: {str(SEED): [digest]}})
    if proc.returncode != 0 or result is None or not result["correct"] or \
            result["failed"] != 0:
        failures.append(f"right golden: run did not pass: {result}\n"
                        f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")

    for f in failures:
        print("FAIL:", f)
    if failures:
        return 1
    print("PASS: a wrong golden fails the run; the right one passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
