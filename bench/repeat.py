"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 bench/repeat.py --workloads pro-sweep,cli-suite --seeds 1-10 \
        [--trace 1] [--out summary.json]

Runs happen one after another. For every workload and metric it prints the
median over runs, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the distance between the quartiles as a share of the median,
beside a third of the metric's bound from BENCHMARK.json. ``--out`` writes
the same summary as JSON, in the shape of an entry of BENCH_trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in declared}
        attempted = failed = 0
        wall = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                status = 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
        print(f"{workload}: {attempted} rounds, {failed} failed, "
              f"{statistics.median(wall):.1f} s median wall per run")
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for m in declared:
            s = summarise(values[m["name"]])
            s["unit"] = m["unit"]
            summary[workload]["metrics"][m["name"]] = s
            bound = m.get("bound")
            mark = ""
            if bound is not None:
                mark = "ok" if s["spread"] < bound / 3 else "WIDE"
                mark = f"bound/3 {bound / 3:.3f} {mark}"
            print(f"  {m['name']:38s} median {s['median']:12.6g} {m['unit']:6s}"
                  f" q1 {s['q1']:10.5g} q3 {s['q3']:10.5g}"
                  f" spread {s['spread']:.4f} {mark}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "seeds": args.seeds, "trace": args.trace,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
