#!/usr/bin/env python3
"""The repository benchmark: seeded, closed-loop, fixed-work rounds of the
NBBS stack, each round in a fresh process.

    python3 perfbench/run.py --workload app-churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload programs are built from source with
cargo into $CARGO_TARGET_DIR (default .bench_build).  Rounds repeat until
--seconds have passed; every reported figure is the median over rounds.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see README.md next to this file).  Metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object; everything
else is for people.  Exits 1 on a build failure or any correctness
failure, 2 on bad arguments.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
PKG = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("app-churn", "tree-larson", "stack-handoff")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 60


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the plain and the op-stats programs; returns their bin dirs."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    dirs = {}
    for variant, extra in (("plain", []), ("op-stats", ["--features", "op-stats"])):
        tdir = target if variant == "plain" else os.path.join(target, "op-stats")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(PKG, "Cargo.toml"),
               "--target-dir", tdir] + extra
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build of the {variant} programs failed")
        dirs[variant] = os.path.join(tdir, "release")
    return dirs


def host_tag(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(), "commit": commit,
            "workload": args.workload, "seed": args.seed, "threads": args.threads, "trace": args.trace}


class Workload:
    """How to run one round of a workload."""

    def __init__(self, bins, workload, threads):
        self.bins, self.workload, self.threads = bins, workload, threads

    def command(self, variant, traced, seed, threads=None):
        threads = threads or self.threads
        common = ["--seed", str(seed), "--threads", str(threads)]
        bindir = self.bins[variant]
        if self.workload == "app-churn":
            name = "app_traced" if traced else "app_nbbs"
            return [os.path.join(bindir, name)] + common
        cmd = [os.path.join(bindir, "stack"), "--workload", self.workload] + common
        return cmd + (["--traced"] if traced else [])

    def system_command(self, seed):
        return [os.path.join(self.bins["plain"], "app_system"), "--seed", str(seed),
                "--threads", str(self.threads)]


def run_round(cmd):
    """Runs one round process; returns its report with the set-up time."""
    spawned = time.time_ns()
    try:
        # A fixed argv[0]: std copies the program path onto the heap, so
        # paths of different lengths would change the allocation sequence.
        r = subprocess.run(["perfbench-round"] + cmd[1:], executable=cmd[0], capture_output=True,
                           text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"round timed out: {' '.join(cmd)}")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"round exited with {r.returncode}: {' '.join(cmd)}")
    rec = json.loads(r.stdout.strip().splitlines()[-1])
    # app-churn's set-up is process start-up: spawn until the stack has
    # served its first request inside the child.
    if "ready_unix_ns" in rec:
        rec["setup_ns"] = rec["ready_unix_ns"] - spawned
    return rec


def round_errors(rec, reference=None):
    """Correctness failures of one round."""
    errs = []
    if rec.get("mismatches", 0):
        errs.append(f"{rec['mismatches']:.0f} blocks lost their stamp (overlapping grant or lost copy)")
    if rec.get("leaked_bytes", 0):
        errs.append(f"allocated_bytes() is {rec['leaked_bytes']:.0f} after drain, not 0")
    if rec.get("failed", 0):
        errs.append(f"{rec['failed']:.0f} requests failed")
    if reference is not None and rec.get("checksum") != reference.get("checksum"):
        errs.append(f"checksum {rec.get('checksum')} differs from System's {reference.get('checksum')}")
    return errs


def median(recs, key, scale=1.0):
    return statistics.median(r.get(key, 0.0) for r in recs) * scale


def end_to_end(recs):
    return {
        "setup_s": median(recs, "setup_ns", 1e-9),
        "run_s": median(recs, "run_ns", 1e-9),
        "req_p50_ns": median(recs, "req_p50_ns"),
        "req_p99_ns": median(recs, "req_p99_ns"),
        "peak_rss_mb": median(recs, "peak_kb", 1 / 1024),
        "trough_rss_mb": median(recs, "trough_kb", 1 / 1024),
    }


def counter_check(workload, seed):
    """Runs one thread untraced and traced on the same seed (op-stats
    build); the passthroughs must leave every layer counter unchanged."""
    plain = run_round(workload.command("op-stats", False, seed, threads=1))
    traced = run_round(workload.command("op-stats", True, seed, threads=1))
    keys = sorted(k for k in plain if k.startswith("c."))
    diffs = [f"traced run changed a layer counter: {k}: {plain[k]} untraced vs {traced.get(k)} traced"
             for k in keys if plain[k] != traced.get(k)]
    return keys, round_errors(plain) + round_errors(traced) + diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=min(2, os.cpu_count() or 1))
    args = ap.parse_args()
    nproc = os.cpu_count() or 1
    if args.threads < 1 or args.threads > nproc:
        fail(f"--threads {args.threads} refused: this host has nproc = {nproc}", 2)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    bins = build()
    workload = Workload(bins, args.workload, args.threads)
    print("host " + json.dumps(host_tag(args)))
    errors = []
    start = time.monotonic()

    if args.trace == 0:
        reference = None
        if args.workload == "app-churn":
            reference = run_round(workload.system_command(args.seed))
        recs = []
        while len(recs) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            rec = run_round(workload.command("plain", False, args.seed))
            errors += round_errors(rec, reference)
            recs.append(rec)
        values = end_to_end(recs)
        samples = {k: len(recs) for k in values}
        samples["req_p50_ns"] = samples["req_p99_ns"] = int(sum(r["samples"] for r in recs))
        metrics = spec["end_to_end"]
        if reference is not None:
            ref = end_to_end([reference])
            print("reference std::alloc::System (ungated, 1 round): " +
                  ", ".join(f"{k}={v:.4g}" for k, v in ref.items()))
    else:
        keys, errors = counter_check(workload, args.seed)
        print(f"1-thread counter check over {', '.join(keys)}: {'failed' if errors else 'identical'}")
        plain, recs = [], []
        while len(recs) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            plain.append(run_round(workload.command("plain", False, args.seed)))
            errors += round_errors(plain[-1])
            rec = run_round(workload.command("op-stats", True, args.seed))
            errors += round_errors(rec)
            recs.append(rec)
        metrics = spec["per_layer"]
        values = {m["name"]: median(recs, m["name"]) for m in metrics}
        values["trace.overhead_frac"] = median(recs, "run_ns") / median(plain, "run_ns") - 1
        samples = {k: len(recs) for k in values}

    attempted = int(sum(r["attempted"] for r in recs))
    failed = int(sum(r["failed"] for r in recs))
    fail_frac = statistics.median(r["fail_frac"] for r in recs)
    print(f"{'metric':<34} {'value':>14}  {'unit':<8} samples")
    for m in metrics:
        print(f"{m['name']:<34} {values[m['name']]:>14.6g}  {m['unit']:<8} {samples[m['name']]}")
    print(f"{'fail_frac':<34} {fail_frac:>14.6g}  {'ratio':<8} {len(recs)}")
    print(f"rounds={len(recs)} attempted={attempted} failed={failed}")
    for e in dict.fromkeys(errors):
        print(f"CORRECTNESS: {e} ({errors.count(e)} rounds)", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}}
    print(json.dumps(result))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
