#!/usr/bin/env python3
"""Repeat-run spread report for the benchmark.

Runs the command in BENCHMARK.json several times per workload, each time
with another seed, and prints for every metric its median, quartiles, min,
max and the quartile spread as a share of the median: the figures the
bounds in BENCHMARK.json are set from. Quartiles are Python's
statistics.quantiles(values, n=4).

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--seeds-from 1] [--trace 0]
        [--workload NAME ...] [--out FILE.json] [--previous FILE.json]

With --previous, the --out file of an earlier set of the same code, it also
prints how much worse each metric's median got since that set, as a share of
the earlier median, next to the metric's bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

# "<workload> <class>: N checked, F failed, relative error mean X max Y"
ERRORS = re.compile(r"^\S+ (\S+): \d+ checked, \d+ failed, relative error mean \S+ max (\S+)$", re.M)


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    errors = {name: float(worst) for name, worst in ERRORS.findall(proc.stderr)}
    return result, wall, errors


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds-from", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--previous")
    opts = parser.parse_args()
    previous = {}
    if opts.previous:
        with open(opts.previous) as f:
            previous = json.load(f)["workloads"]

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    report = {"runs": opts.runs, "seconds": bench["run_seconds"],
              "trace": opts.trace, "workloads": {}}
    for workload in workloads:
        per_metric, walls, units, worst = {}, [], {}, {}
        for i in range(opts.runs):
            seed = opts.seeds_from + i
            result, wall, errors = run_once(bench["command"], workload, seed,
                                            bench["run_seconds"], opts.trace)
            for name, err in errors.items():
                worst[name] = max(worst.get(name, 0.0), err)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
            walls.append(wall)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {opts.runs} runs, seeds {opts.seeds_from}.."
              f"{opts.seeds_from + opts.runs - 1}, wall {statistics.median(walls):.1f} s median")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        summary = {}
        for name, values in per_metric.items():
            s = summarize(values)
            s["unit"] = units[name]
            summary[name] = s
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or s["spread"] <= bound / 3 else "  > bound/3"
            print(f"  {name:32} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['min']:12.5g} "
                  f"{s['max']:12.5g} {s['spread']:7.4f} {bound if bound is not None else '':>6}{flag}")
        for name, err in worst.items():
            print(f"  largest relative error against exact, {name}: {err:.4f}")
        earlier = previous.get(workload, {}).get("metrics", {})
        if earlier:
            print(f"  worse than the previous set's median, as a share of it:")
        for name, s in summary.items():
            before = earlier.get(name, {}).get("median")
            if not before:
                continue
            worse = (s["median"] - before) / abs(before)
            if better.get(name) == "higher":
                worse = -worse
            bound = bounds.get(name)
            flag = "  > bound" if bound is not None and worse > bound else ""
            print(f"  {name:32} {worse:+7.3f} {bound if bound is not None else '':>6}{flag}")
        report["workloads"][workload] = {"wall_s": walls, "metrics": summary,
                                         "max_rel_err": worst}
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
