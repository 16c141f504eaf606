#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread.

    python3 bench/spread.py --seeds 10 --out bench/BENCH_baseline.json

For every workload in BENCHMARK.json (or --workloads), runs
`bench/run_bench.py` once per seed, one run at a time, and reports per
metric: the values, their median, their quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread (Q3 - Q1) /
median next to the metric's bound. A spread above a third of its bound is
flagged, since two sets of runs must agree within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": bound is None or spread < bound / 3}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, default=None, help="write the summary here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs, walls = [], []
        for seed in seeds:
            started = time.perf_counter()
            runs.append(run_once(workload, seed, args.seconds, trace=0))
            walls.append(time.perf_counter() - started)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values, bounds.get(name))
            m = metrics[name]
            print(f"{workload:12s} {name:12s} median {m['median']:10.4f} "
                  f"IQR/median {m['spread']:.4f} (bound {m['bound']})"
                  f"{'' if m['steady'] else '  NOT STEADY'}", flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": walls,
        }
        record = ROOT / ".bench_out" / f"{workload}-seed{seeds[0]}-trace0.json"
        summary.setdefault("environment", json.loads(record.read_text())["environment"])
        print(f"{workload:12s} runs took {sum(walls):.0f} s "
              f"({max(walls):.1f} s longest)", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
