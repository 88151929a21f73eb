"""Run the benchmark once per seed and report, per workload and metric,
the median, the quartiles and the spread (interquartile range over the
median) next to the metric's bound from BENCHMARK.json.

    python3 perfbench/stats.py --seeds 1-10
    python3 perfbench/stats.py --seeds 3,3 --trace 1 --workload paths

Quartiles are ``statistics.quantiles(values, n=4)``.  With --trace 1 it
also lists every count metric that did not repeat exactly across the
runs (counts must repeat when the seed does).  --out writes the runs and
the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for chunk in text.split(","):
        lo, dash, hi = chunk.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write runs and summary as JSON to this file")
    args = ap.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = s = summarize(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] < bound / 3 else "WIDE"
                flag = f"bound {bound:<5} {flag}"
            elif m["unit"] in ("count", "bytes") and len(set(values)) > 1:
                flag = "NOT REPEATED"
            print(f"  {m['name']:45s} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:7.2%} {flag}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "seconds": bench["run_seconds"],
                       "trace": args.trace, "workloads": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
