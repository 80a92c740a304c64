#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs `bash servebench/run.sh` from the repository root once per seed for
each workload named in BENCHMARK.json and writes, per workload and
end-to-end metric, the values, their median and quartiles, and the
spread (q3 - q1) / median, as statistics.quantiles(values, n=4) gives
them. Also keeps each run's tail percentile, mode-window ratios and
outcome counts.

    python3 servebench/steadiness.py --seeds 1-10 --out servebench/evidence/steadiness.json
"""
import argparse
import json
import statistics
import subprocess
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            start = time.time()
            out = subprocess.run(
                bench["command"] + ["--workload", name, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True).stdout.strip().splitlines()
            result, record = json.loads(out[-1]), json.loads(out[-2])["record"]
            runs.append({
                "seed": seed,
                "wall_s": round(time.time() - start, 1),
                "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "outcomes": record["outcomes"],
                "query_tail_percentile": record["query_tail_percentile"],
                "query_ok_per_pass": record["samples"]["query_ok_per_pass"],
                "mode_window_ratio": record["mode_window_ratio"],
            })
            print(name, seed, runs[-1]["wall_s"], runs[-1]["metrics"], flush=True)
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bounds[metric],
            }
        report["workloads"][name] = {"summary": summary, "runs": runs}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
