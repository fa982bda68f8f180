#!/usr/bin/env python3
"""Offered-rate sweep of the open-loop `tenant-qa` workload.

Runs the command in BENCHMARK.json on `tenant-qa` at each `--rate`, untraced,
and prints per rate: throughput against the admitted rate, p50 and p90, the
share of the timed phase the server was busy, and the serving capacity the
run estimates (requests answered per second spent inside server calls).

It then prints two capacities:

- the sustainable rate: the highest offered rate whose p90 stays within
  4 times the p90 at the lowest rate swept. Above it, queues grow without
  bound. `RATE_PER_S` in `src/tenant_qa.rs` is half of it.
- the service capacity: the median of the per-run estimates over the rates
  where the server was busy at most 60 % of the time. It is the rate at
  which the server would never be idle, and lies above the sustainable rate
  because Poisson bursts queue long before the server is busy all the time.

Usage, from the repository root:

    python3 perfbench/capacity.py [--rates 2000,4000,...] [--seconds 5]
        [--seeds 1,2] [--out FILE.json]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

BUSY = re.compile(r"server busy ([0-9.]+) of the timed phase; serving capacity ([0-9.]+) req/s")
COUNTS = re.compile(r"(\d+) attempted, (\d+) throttled, (\d+) answered in ([0-9.]+) s")


def run_once(command, rate, seed, seconds):
    args = command + ["--workload", "tenant-qa", "--seed", str(seed), "--seconds",
                      str(seconds), "--trace", "0", "--rate", str(rate)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    busy, counts = BUSY.search(proc.stderr), COUNTS.search(proc.stderr)
    if proc.returncode != 0 or not lines or not busy or not counts:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"rate {rate} seed {seed}: exit {proc.returncode}")
    metrics = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    attempted, throttled = int(counts.group(1)), int(counts.group(2))
    metrics["admitted_per_s"] = (attempted - throttled) / seconds
    metrics["busy_frac"] = float(busy.group(1))
    metrics["capacity_per_s"] = float(busy.group(2))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="2000,4000,6000,8000,10000,12000,14000,16000")
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--out")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]
    seeds = [int(s) for s in opts.seeds.split(",")]
    keys = ["admitted_per_s", "throughput_qps", "p50_us", "p90_us", "busy_frac", "capacity_per_s"]
    print(f"{'offered':>8} " + " ".join(f"{k:>15}" for k in keys))
    rows = []
    for rate in [float(r) for r in opts.rates.split(",")]:
        runs = [run_once(command, rate, seed, opts.seconds) for seed in seeds]
        row = {"offered_per_s": rate, "seeds": seeds, "runs": runs}
        row.update({k: statistics.median(r[k] for r in runs) for k in keys})
        rows.append(row)
        print(f"{rate:8.0f} " + " ".join(f"{row[k]:15.5g}" for k in keys), flush=True)
    knee = max(r["offered_per_s"] for r in rows if r["p90_us"] <= 4 * rows[0]["p90_us"])
    capacity = statistics.median(r["capacity_per_s"] for r in rows if r["busy_frac"] <= 0.6)
    print(f"\nsustainable rate (p90 within 4x of the lowest rate's): {knee:.0f} req/s offered;"
          f" half: {knee / 2:.0f} req/s")
    print(f"service capacity (median over rates with busy_frac <= 0.6): {capacity:.0f} req/s answered")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"seconds": opts.seconds, "sustainable_offered_per_s": knee,
                       "service_capacity_per_s": capacity, "rows": rows}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
