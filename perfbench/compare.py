#!/usr/bin/env python3
"""Summarise and compare result sets of the repository benchmark.

Every run of run.py leaves a result record
(.bench_build/perfbench/results/result-<workload>-seed<n>-trace<t>.json)
holding the metrics, the output digest and a host/build fingerprint.
Copy the records of one set of runs into a directory per set, then:

  compare.py spread DIR
      Per workload and end-to-end metric: median, quartiles and the
      quartile spread as a share of the median (what BENCHMARK.json's
      bounds are checked against), plus a check that runs with the
      same seed, traced or not, produced the same output digest.

  compare.py diff BASE_DIR NEW_DIR
      Per workload and metric: both medians and the change against
      BENCHMARK.json's bound. Result sets whose fingerprints differ
      (another host, CPU, kernel implementation, build type, compiler
      or thread layout) are flagged and not diffed: their numbers are
      not comparable.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Fingerprint fields that make two result sets comparable. source_id
# is deliberately absent: it is what a comparison is about.
HOST_FIELDS = ("nproc", "cpu_model", "isa", "kernels", "build_type",
               "compiler", "workers", "caller_threads",
               "generator_threads", "client_threads", "maintenance_threads")


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_set(directory):
    """{(workload, trace): [record, ...]} of one result directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault((record["workload"], record["trace"]), []).append(
            record)
    if not runs:
        sys.exit(f"compare.py: no result-*.json under {directory}")
    return runs


def host(record):
    return {k: record["fingerprint"].get(k) for k in HOST_FIELDS}


def summary(values):
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def check_digests(records):
    """Messages for same-seed runs whose output digests differ."""
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["seed"], set()).add(
            r["details"].get("digest"))
    return [f"seed {seed}: {len(d)} different output digests"
            for seed, d in sorted(by_seed.items()) if len(d) > 1]


def cmd_spread(args):
    spec = load_spec()
    status = 0
    runs = load_set(args.dir)
    for (workload, trace), records in sorted(runs.items()):
        if trace:
            continue
        hosts = {json.dumps(host(r), sort_keys=True) for r in records}
        print(f"{workload}: {len(records)} runs"
              + ("" if len(hosts) == 1 else
                 f"  WARNING: {len(hosts)} different fingerprints"))
        bad = [r for r in records if not r["correct"] or r["failed"]]
        if bad:
            print(f"  {len(bad)} runs incorrect or with failed requests")
            status = 1
        for message in check_digests(records + runs.get((workload, True),
                                                        [])):
            print(f"  DIGEST MISMATCH {message}")
            status = 1
        for name, metric in spec.items():
            if "bound" not in metric:
                continue
            values = [r["metrics"][name] for r in records
                      if name in r["metrics"]]
            if not values:
                continue
            med, q1, q3 = summary(values)
            share = (q3 - q1) / med if med else float("inf")
            limit = metric["bound"] / 3
            flag = "" if share <= limit else "  > bound/3"
            print(f"  {name:28s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {share:6.3f} "
                  f"(bound {metric['bound']}){flag}")
    return status


def cmd_diff(args):
    spec = load_spec()
    base, new = load_set(args.base), load_set(args.new)
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        label = f"{workload} ({'traced' if trace else 'untraced'})"
        if key not in base or key not in new:
            print(f"{label}: only in one set")
            continue
        hb = {json.dumps(host(r), sort_keys=True) for r in base[key]}
        hn = {json.dumps(host(r), sort_keys=True) for r in new[key]}
        if len(hb) != 1 or hb != hn:
            print(f"{label}: FINGERPRINTS DIFFER, not compared")
            for h in sorted(hb | hn):
                side = ("base" if h in hb else "") + \
                       (" new" if h in hn else "")
                print(f"  [{side.strip()}] {h}")
            continue
        print(f"{label}: {len(base[key])} vs {len(new[key])} runs")
        names = sorted(set().union(*(r["metrics"] for r in base[key])))
        for name in names:
            b = [r["metrics"][name] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name] for r in new[key] if name in r["metrics"]]
            if not b or not n or name not in spec:
                continue
            mb, mn = summary(b)[0], summary(n)[0]
            metric = spec[name]
            change = (mn - mb) / mb if mb else 0.0
            worse = -change if metric["better"] == "higher" else change
            verdict = ""
            if "bound" in metric:
                verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            print(f"  {name:36s} {mb:<12.6g} -> {mn:<12.6g} "
                  f"{change:+8.2%} {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    spread = sub.add_parser("spread", help="run-to-run spread of one set")
    spread.add_argument("dir")
    diff = sub.add_parser("diff", help="compare two result sets")
    diff.add_argument("base")
    diff.add_argument("new")
    args = parser.parse_args()
    return cmd_spread(args) if args.command == "spread" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
