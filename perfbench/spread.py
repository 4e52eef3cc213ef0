#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's median
and quartile spread (IQR over median, as statistics.quantiles(n=4) gives
the quartiles), the figure the end-to-end bounds in BENCHMARK.json are
judged against.

    python3 perfbench/spread.py --workload fleet --seeds 1-5 [--trace 0]

Run it from the repository root; it reads `command` and `run_seconds`
from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = p.stdout.strip().splitlines()[-1]
        res = json.loads(last)
        if p.returncode != 0 or not res["correct"]:
            sys.exit(f"seed {seed}: exit {p.returncode}, correct={res['correct']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})"
        print(f"{name:28s} median {med:<14.6g} spread {spread:.4f}{flag}")


if __name__ == "__main__":
    main()
