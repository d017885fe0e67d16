#!/usr/bin/env python3
"""Repository benchmark: host cost of one simulated experiment point.

Run from the root of a checkout:

  python3 perfbench/run.py --workload homa-w3 --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --workload all            # every workload, both modes
  python3 perfbench/run.py --steadiness 10           # spread of each metric

One run builds the simulator from ../src (perfbench/CMakeLists.txt, into
.bench_build/), then for --seconds seconds runs experiment points of the
workload, each in a fresh process, and reports the median of each metric.
A seed names a fixed sequence of points (point i runs with the sweep
layer's deriveSweepSeed(seed, i)). --trace 0 runs points 0, 1, 2, ... and
reports the end-to-end metrics; --trace 1 repeats point 0 untraced and then
traced, and reports the per-layer split. Every process's simulated output
is checked: invariants, traced == untraced, identical digests for repeats
of a point, and the golden digest when perfbench/goldens.json has one for
the point. The last stdout line is one JSON object: correct, attempted,
failed, metrics. A failed check prints the reason, counts every operation
of the run as failed and exits 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
from statistics import median, quantiles
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
POINT_BIN = BUILD_DIR / "perfbench_point"
GOLDENS = BENCH_DIR / "goldens.json"

WORKLOADS = ["homa-w3", "pfabric-w4-3shard", "serving-3tenant"]

# Cold set-up is ~15-60 ms with ~20% spread between processes, so every
# point process is preceded by this many set-up-only processes and the run
# reports the median of all set-up samples.
SETUP_PER_POINT = 5
POINT_TIMEOUT_S = 170

END_TO_END = [
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.other_s", "s"),
    ("parallel.shards", "count"),
    ("parallel.event_imbalance", "ratio"),
    ("transport.send_message.calls", "count"),
    ("transport.send_message.self_s", "s"),
    ("transport.handle_packet.calls", "count"),
    ("transport.handle_packet.self_s", "s"),
    ("transport.pull_packet.calls", "count"),
    ("transport.pull_packet.self_s", "s"),
    ("transport.pull_packet.hit_ratio", "ratio"),
    ("qdisc.enqueue.calls", "count"),
    ("qdisc.enqueue.self_s", "s"),
    ("qdisc.dequeue.calls", "count"),
    ("qdisc.dequeue.self_s", "s"),
    ("qdisc.accept_ratio", "ratio"),
    ("oracle.calls", "count"),
    ("oracle.self_s", "s"),
    ("oracle.distinct_key_ratio", "ratio"),
    ("stats.record.calls", "count"),
    ("stats.record.self_s", "s"),
    ("stats.finalize_s", "s"),
    ("workload.generated", "count"),
    ("workload.bytes", "bytes"),
    ("rpc.calls", "count"),
    ("rpc.retries", "count"),
    ("rpc.useful_byte_ratio", "ratio"),
    ("rpc.hedge_win_ratio", "ratio"),
    ("setup.dist_s", "s"),
    ("setup.network_s", "s"),
    ("setup.generator_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Layers a workload cannot expose from outside src/: serving runs inside
# runRpcExperiment, whose transports, oracle, slowdown recording and event
# loop are internal. Their per-layer values read 0 there.
NOT_OBSERVED = {
    "serving-3tenant": ("engine.events", "engine.ns_per_event",
                        "transport.", "oracle.", "stats.record."),
}

NOTE = ("per-call timing, unsampled (two steady_clock reads per wrapped call); "
        "qdisc.* covers switch egress ports only, host NIC queues are built "
        "inside Host and cannot be wrapped")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build

def build():
    if not (ROOT / "src" / "driver" / "experiment.h").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    if not POINT_BIN.is_file():
        raise BenchError(f"build produced no {POINT_BIN}")


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the
    code measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR)
                   for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------- points

def run_point(workload, seed, index, mode):
    cmd = [str(POINT_BIN), "--workload", workload, "--seed", str(seed),
           "--index", str(index), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=POINT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd)} timed out")
    if proc.returncode != 0:
        log(proc.stderr[-2000:])
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1])


def load_goldens(path):
    if path.is_file():
        return json.loads(path.read_text())
    return {}


def check_outputs(workload, seed, procs, goldens):
    """Returns the failed checks over one run's point processes."""
    problems = []
    by_index = {}
    for p in procs:
        out = p["outputs"]
        problems += [f"invariant: {v}" for v in out["violations"]]
        by_index.setdefault(p["manifest"]["index"], set()).add(out["digest"])
        if "traced_outputs" in p:
            tr = p["traced_outputs"]
            problems += [f"traced invariant: {v}" for v in tr["violations"]]
            for key in ("completed", "p50_hex", "p99_hex", "kept_up",
                        "digest"):
                if tr[key] != out[key]:
                    problems.append(f"traced != untraced: {key} {tr[key]} vs "
                                    f"{out[key]}")
    golden = goldens.get(workload, {}).get(str(seed), [])
    for index, digests in sorted(by_index.items()):
        if len(digests) > 1:
            problems.append(f"repeats of point {index} disagree: "
                            f"digests {sorted(digests)}")
        if index < len(golden) and golden[index] not in digests:
            problems.append(f"digest mismatch vs golden (seed {seed}, point "
                            f"{index}): {sorted(digests)} != {golden[index]}")
    return problems


def run_once(workload, seed, seconds, trace, goldens):
    """One benchmark run of at most `seconds` (but at least one point).

    Untraced, it runs points 0, 1, 2, ... of the seed's sequence, each once
    in a fresh process, and reports per-point medians: the points' inputs
    differ, so the median also averages over the seed-to-seed variation of
    the work. Traced, it repeats point 0 (exact counts, median times).
    Set-up-only processes are interleaved with the points so that the
    set-up samples span the whole run.
    """
    mode = "trace" if trace else "run"
    setups, procs = [], []
    start = time.monotonic()
    step = 0.0  # duration of the last point with its set-up samples
    # Start another point only if it should end within `seconds`, so a run
    # does not overshoot its budget by a whole point.
    while not procs or time.monotonic() - start + step <= seconds:
        t0 = time.monotonic()
        setups += [run_point(workload, seed, 0, "setup")
                   for _ in range(SETUP_PER_POINT)]
        index = 0 if trace else len(procs)
        procs.append(run_point(workload, seed, index, mode))
        step = time.monotonic() - t0
    samples = setups + procs

    problems = check_outputs(workload, seed, procs, goldens)
    attempted = sum(p["outputs"]["attempted"] for p in procs)
    completed = sum(p["outputs"]["completed"] for p in procs)
    failed = attempted if problems else attempted - completed

    metrics = {}
    if trace:
        for name, unit in PER_LAYER:
            if name.startswith("setup."):
                key = name.split(".", 1)[1]
                value = median([s["setup"][key] for s in samples])
            else:
                value = median([p["layers"][name] for p in procs])
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "run_s": median([p["run_s"] for p in procs]),
            "cpu_s": median([p["cpu_s"] for p in procs]),
            "setup_s": median([s["setup"]["total_s"] for s in samples]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in procs]),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}

    golden = goldens.get(workload, {}).get(str(seed), [])
    first = procs[0]["manifest"]
    manifest = {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "compiler": first["compiler"],
        "optimized": first["optimized"],
        "ndebug": first["ndebug"],
        "hardware_concurrency": first["hardware_concurrency"],
        "shards": first["shards"],
        "points": len(procs),
        "setup_samples": len(samples),
        "run_s_points": [p["run_s"] for p in procs],
        "digests": [p["outputs"]["digest"] for p in procs],
        "golden_checked": sum(1 for p in procs
                              if p["manifest"]["index"] < len(golden)),
        "delivered": [p["outputs"]["completed"] for p in procs],
        "p50_slowdown": [p["outputs"]["p50"] for p in procs],
        "p99_slowdown": [p["outputs"]["p99"] for p in procs],
        "kept_up": [p["outputs"]["kept_up"] for p in procs],
    }
    if trace:
        manifest["trace_note"] = NOTE
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, manifest, problems


def not_observed(workload, name):
    return any(name.startswith(p) for p in NOT_OBSERVED.get(workload, ()))


def print_report(workload, result, manifest, problems):
    print(f"== {workload}  seed {manifest['seed']}  "
          f"points {manifest['points']}  shards {manifest['shards']}")
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    for name, m in result["metrics"].items():
        flag = "  (not observed on this workload)" \
            if not_observed(workload, name) else ""
        print(f"  {name:34s} {m['value']:>18.6g} {m['unit']}{flag}")
    print(f"  operations: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    unchecked = manifest["points"] - manifest["golden_checked"]
    if unchecked:
        print(f"  {unchecked} point(s) without a golden; their digests are "
              f"in the manifest (compare across commits)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")


def record_goldens(workload, seed, count, path):
    """Writes the digests of points 0..count-1 of `seed` into `path`. For
    re-recording after a change that is meant to alter simulated output."""
    digests = []
    for index in range(count):
        p = run_point(workload, seed, index, "run")
        out = p["outputs"]
        if out["violations"] or out["completed"] != out["attempted"]:
            raise BenchError(f"point {index}: {out['violations']}, "
                             f"{out['attempted'] - out['completed']} "
                             f"operations undelivered")
        digests.append(out["digest"])
    goldens = load_goldens(path)
    goldens.setdefault(workload, {})[str(seed)] = digests
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {count} golden digests for {workload} seed {seed} "
          f"in {path}")


# ------------------------------------------------------------ steadiness

def load_bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m.get("bound")
            for m in json.loads(path.read_text()).get("end_to_end", [])}


def steadiness(workloads, k, seconds, goldens):
    """Runs each workload k times (seeds 1..k) and prints each end-to-end
    metric's median, quartiles and relative spread next to its bound."""
    bounds = load_bounds()
    ok = True
    summary = {}
    for w in workloads:
        values = {name: [] for name, _ in END_TO_END}
        for seed in range(1, k + 1):
            result, manifest, problems = run_once(w, seed, seconds, False,
                                                  goldens)
            print_report(w, result, manifest, problems)
            ok = ok and not problems
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== steadiness {w}: {k} runs")
        for name, unit in END_TO_END:
            v = values[name]
            q1, q2, q3 = quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "WIDER THAN BOUND")
            print(f"  {name:12s} median {q2:.6g} {unit}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {spread:.3f}  bound {bound}  {verdict}")
            summary[f"{w}/{name}"] = {"median": q2, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bound}
    print(json.dumps({"steadiness": summary}))
    return ok


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K", default=0,
                    help="run each workload K times and report spreads")
    ap.add_argument("--goldens", type=Path, default=GOLDENS,
                    help="golden digests file (default perfbench/goldens.json)")
    ap.add_argument("--record-goldens", type=int, metavar="N", default=0,
                    help="record the digests of the seed's first N points")
    args = ap.parse_args()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        ap.error(f"unknown workload {args.workload}")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
        if args.record_goldens:
            for w in workloads:
                record_goldens(w, args.seed, args.record_goldens, args.goldens)
            return 0
        goldens = load_goldens(args.goldens)
        if args.steadiness:
            return 0 if steadiness(workloads, args.steadiness, args.seconds,
                                   goldens) else 1
        if len(workloads) == 1:
            result, manifest, problems = run_once(
                workloads[0], args.seed, args.seconds, args.trace == 1, goldens)
            print_report(workloads[0], result, manifest, problems)
            print(json.dumps(result))
            return 1 if problems else 0
        # Every workload, untraced and traced: one combined result whose
        # metric names carry the workload.
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in workloads:
            for trace in (False, True):
                result, manifest, problems = run_once(w, args.seed,
                                                      args.seconds, trace,
                                                      goldens)
                print_report(w, result, manifest, problems)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    combined["metrics"][f"{w}/{name}"] = m
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
