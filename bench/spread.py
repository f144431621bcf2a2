"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/spread.py --seconds 20 --seeds 1-10 --label set-a [WORKLOAD ...]

For every workload it runs `run.py --trace 0` once per seed, then prints, per
end-to-end metric, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, which is what the bounds in BENCHMARK.json are compared with.  All
results go to bench/out/spread-<label>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--label", default="spread")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    for name in args.workloads:
        runs[name] = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append(dict(result, seed=seed))
            print(name, seed, json.dumps({k: round(v["value"], 4)
                                          for k, v in result["metrics"].items()}),
                  "correct" if result["correct"] else "INCORRECT",
                  f"{result['failed']}/{result['attempted']} failed", flush=True)

    summary = {}
    for name, results in runs.items():
        summary[name] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = quantiles(values, n=4)
            summary[name][metric] = {"median": median(values), "q1": q1, "q3": q3,
                                     "iqr_share": (q3 - q1) / median(values),
                                     "bound": bound}
            print(f"{name:22s} {metric:14s} median {median(values):10.4f}  "
                  f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {(q3 - q1) / median(values):6.3f}"
                  f"  (bound {bound})")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name:22s} failed share {sorted(shares)}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.label}.json"), "w") as fh:
        json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
