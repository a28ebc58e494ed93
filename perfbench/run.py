#!/usr/bin/env python3
"""Build and run the InvertQ repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Workloads: q14-session-sweep, q5-service-open, q5-service-drift (see
BENCHMARK.json for why each exists); --all runs each of them untraced
(end-to-end metrics) and traced (per-layer ledger). The first call
configures and builds the InvertQ libraries plus the perfbench binary
into .bench_build/perfbench (Release); later calls rebuild
incrementally. After each build the benchmark's own arithmetic tests
run; a failure stops the run before any number is reported.

Each run prints the fingerprint, the output checks, every metric
BENCHMARK.json lists for that kind of run (end-to-end untraced,
per-layer traced) by name with its unit, and as the last line one
JSON object {correct, attempted, failed, metrics}. It also leaves the
binary's record .bench_build/perfbench/results/result-*.json (and a
Chrome trace for traced runs), which compare.py reads.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
WORKLOADS = ("q14-session-sweep", "q5-service-open", "q5-service-drift")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd, logfile):
    """Run cmd with its output appended to logfile; echo the log on failure."""
    with open(logfile, "a") as out:
        code = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        with open(logfile) as f:
            sys.stderr.write(f.read()[-8000:])
        log(f"command failed ({code}): {' '.join(cmd)}")
        sys.exit(3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no InvertQ sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    logfile = os.path.join(BUILD_DIR, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], logfile)
    jobs = str(max(1, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], logfile)
    run_quiet([os.path.join(BUILD_DIR, "perfbench_selftest"),
               "--gtest_brief=1"], logfile)


def source_id():
    """Git sha when the tree is a clean checkout, else a content hash
    of the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain", "src",
                                "perfbench"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and dirty.returncode == 0 and \
                not dirty.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def perfbench_cmd(args, workload, trace):
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", trace,
           "--out-dir", RESULTS_DIR, "--source-id", args.source_id]
    return cmd


def report(workload, seed, trace):
    """Print the metrics BENCHMARK.json lists for this kind of run from
    the binary's record, then the one-line result. Returns the result,
    or None when the record does not match BENCHMARK.json."""
    path = os.path.join(RESULTS_DIR,
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        record = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["end_to_end"] + spec["per_layer"]
    unknown = set(record["metrics"]) - {m["name"] for m in listed}
    if unknown:
        log(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        return None
    kind = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    print("per-layer ledger (traced phase):" if trace == "1"
          else "end-to-end (untraced):")
    metrics = {}
    for m in kind:
        value = record["metrics"].get(m["name"])
        if value is None:
            if trace == "0":
                log(f"end-to-end metric {m['name']} was not measured")
                return None
            value = 0.0  # This layer does not run in this workload.
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:36s} {value:16.6g} {m['unit']}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def run_one(args, workload, trace):
    sys.stdout.flush()
    code = subprocess.call(perfbench_cmd(args, workload, trace))
    result = report(workload, args.seed, trace) if code == 0 else None
    if result is None:
        return None
    print(json.dumps(result), flush=True)
    return result


def run_all(args):
    """Every workload untraced, then traced; exit 1 on any failure."""
    verdicts = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            result = run_one(args, workload, trace)
            print()
            verdicts.append((workload, trace, result is not None and
                             result["correct"] and result["failed"] == 0))
    for workload, trace, ok in verdicts:
        print(f"{workload:20s} trace {trace}: {'ok' if ok else 'FAILED'}")
    return 0 if all(ok for _, _, ok in verdicts) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1"))
    args = parser.parse_args()
    if not args.all and (args.workload is None or args.trace is None):
        parser.error("give --workload and --trace, or --all")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    args.source_id = source_id()
    if args.all:
        return run_all(args)
    return 0 if run_one(args, args.workload, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
