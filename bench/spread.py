"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 0-9 [--workloads a,b] [--record]

Run from the root of a checkout.  For every workload and end-to-end metric
it prints the median of the runs and the distance between their first and
third quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  With --record, each run's result digest is stored in
bench/baseline.json, together with the medians and quartiles of the runs as
the baseline of this commit.  When a baseline is recorded, each median is
also compared with it, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    baseline_path = os.path.join(HERE, "baseline.json")
    with open(baseline_path) as fh:
        baseline = json.load(fh)

    exit_code = 0
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                exit_code = 1
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append(result["metrics"])
            print(f"{name} seed {seed}: ops {info['ops']} digest {info['digest']}", flush=True)
            if args.record:
                baseline["digests"].setdefault(name, {})[str(seed)] = info["result_digest"]
        if len(runs) < 4:
            continue
        summary = {}
        for metric, bound in bounds.items():
            values = [run[metric]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "runs": len(values)}
            flag = "ok" if share < bound / 3 else ("WIDE" if share < bound else "OVER")
            line = f"  {metric:12s} median {median:12.5f}  iqr/median {share:.4f}  bound {bound}  {flag}"
            recorded = baseline["baseline"].get(name, {}).get(metric)
            if recorded:
                worse = (median - recorded["median"]) / recorded["median"]
                worse = worse if lower_is_better[metric] else -worse
                line += f"  worse than baseline by {worse:+.4f} {'OVER' if worse > bound else 'ok'}"
            print(line)
        if args.record:
            baseline["baseline"][name] = summary
    if args.record:
        with open(baseline_path, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
