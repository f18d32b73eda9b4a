#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs the benchmark command of BENCHMARK.json in two sets of ten runs per
workload, each run with another seed (seeds 1..10, then 11..20), and
records for every end-to-end metric and set the median, the quartiles
(statistics.quantiles, n=4) and the spread: the interquartile distance as a
share of the median, beside the metric's bound. It also records how much
worse the second set's median is than the first's, as a share of the first.
Run it from the root of a checkout:

    python3 perfbench/steady.py --out perfbench/steadiness.json

It exits 1 if a spread (setup_s excepted) or a set-to-set worsening is
above its metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RUNS = 10
SETS = [range(1, 1 + RUNS), range(1 + RUNS, 1 + 2 * RUNS)]


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return f"{os.cpu_count()} CPUs {model}, {platform.system()}, {go}".replace("  ", " ")


def run_set(bench, seeds):
    """Runs every workload once per seed and returns its metrics' statistics."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for w in bench["workloads"]:
        name = w["name"]
        values = {m: [] for m in bounds}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            took = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect result {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: {took:.1f} s, attempted {result['attempted']}", file=sys.stderr)

        rows = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": round((q3 - q1) / med, 5), "bound": bounds[m]}
        out[name] = {"seeds": list(seeds), "metrics": rows}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the record as JSON to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    sets = [run_set(bench, seeds) for seeds in SETS]
    worsening, ok = {}, True
    for name in sets[0]:
        worsening[name] = {}
        for m, better_is in better.items():
            first, second = (s[name]["metrics"][m] for s in sets)
            diff = second["median"] - first["median"]
            worse = round((diff if better_is == "lower" else -diff) / first["median"], 5)
            worsening[name][m] = worse
            for i, s in enumerate(sets, 1):
                row = s[name]["metrics"][m]
                flag = ""
                if row["spread"] > row["bound"] and m != "setup_s":
                    flag, ok = "  <-- spread above bound", False
                elif row["spread"] >= row["bound"] / 3:
                    flag = "  (spread above bound/3)"
                print(f"set {i} {name:15s} {m:22s} median {row['median']:14.6g}"
                      f"  spread {row['spread']:7.4f}  bound {row['bound']:.3f}{flag}")
            if worse > first["bound"]:
                ok = False
            print(f"      {name:15s} {m:22s} set 2 worse than set 1 by {worse:+.4f}"
                  f"{'  <-- above bound' if worse > first['bound'] else ''}")

    record = {
        "what": f"Steadiness of the end-to-end metrics: two sets of {RUNS} runs per workload at run_seconds, "
                "seeds 1..10 then 11..20, made by perfbench/steady.py. spread = (q3 - q1) / median with "
                "statistics.quantiles(n=4); median_worsening_set2_vs_set1 = how much worse set 2's median "
                "is than set 1's, as a share of set 1's (negative: better).",
        "machine": machine(),
        "run_seconds": bench["run_seconds"],
        "median_worsening_set2_vs_set1": worsening,
        "sets": sets,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
