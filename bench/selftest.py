#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about half a minute).

    python3 bench/selftest.py

Runs every workload with `--size tiny` (the compact config of acceptance
criterion 11) and checks that:

- each run exits 0 and its last stdout line is the result object, with every
  metric of BENCHMARK.json printed under its unit (end-to-end metrics with
  --trace 0, per-layer metrics with --trace 1);
- two runs with the same seed give the same output digest op for op, and a
  different seed gives different ones;
- field-adapt and run-all pass their output checks. desk-train's generator
  check is acceptance criterion 4, a property of the default size; after the
  42 CVAE steps of the compact config it fails, so here its check only has to
  have run;
- in a directory holding only BENCHMARK.json and bench/, the benchmark exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MUST_PASS = {"field-adapt", "run-all"}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done, what: str) -> dict:
    assert done.returncode == 0, f"{what}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}"
    assert result["attempted"] >= 1, f"{what}: nothing attempted"
    return result


def check_metrics(result: dict, expected: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"{what}: metrics differ from BENCHMARK.json: " \
                        f"{sorted(set(got.items()) ^ set(want.items()))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def digests(workload: str, seed: int) -> list[str]:
    record = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
    for op in record["ops"]:
        assert op["check"], f"{workload}: op without a check result"
    return [op["digest"] for op in record["ops"]]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        name = w["name"]
        first = result_of(run(name, 7, 0), f"{name} seed 7")
        check_metrics(first, spec["end_to_end"], name)
        d1 = digests(name, 7)
        result_of(run(name, 7, 0), f"{name} seed 7 again")
        d2 = digests(name, 7)
        n = min(len(d1), len(d2))
        assert d1[:n] == d2[:n], f"{name}: digests differ between runs with one seed"
        result_of(run(name, 8, 0), f"{name} seed 8")
        assert digests(name, 8)[0] != d1[0], f"{name}: another seed, same digest"
        traced = result_of(run(name, 7, 1), f"{name} traced")
        check_metrics(traced, spec["per_layer"], f"{name} traced")
        if name in MUST_PASS:
            assert first["correct"] and traced["correct"], f"{name}: output check failed"
        print(f"ok {name}: {len(d1)} ops, digests repeat, "
              f"{len(traced['metrics'])} per-layer metrics", flush=True)

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(spec["workloads"][0]["name"], 7, 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0, "benchmark without the package exited 0"
    assert '"correct"' not in done.stdout, "benchmark without the package printed a result"
    print("ok bare checkout: exits", done.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
