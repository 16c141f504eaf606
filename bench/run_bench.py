#!/usr/bin/env python3
"""Benchmark of the loco-pda pipeline, timed from outside through its public API.

    python3 bench/run_bench.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it); the package is imported
from ./src. One process runs one workload:

- set-up: import time in fresh interpreters, sampled before set-up and after
  every op, fastest sample, plus the workload's own set-up: `setup_s`;
- with --trace 0, ops back to back until --seconds have passed (at least one),
  each on fresh seeds and checked; reports `op_s_min`, `setup_s` and
  `peak_rss_mb`;
- with --trace 1, an untraced op and then an op under span tracing; reports
  the per-layer metrics of the traced op and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The full record (environment, per-op seeds, times, checks and output
digests) is written to .bench_out/ in the checkout. BLAS and OpenMP thread
counts are pinned to 1 before numpy is imported (see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_SAMPLES = 4              # before set-up; one more follows every op
IMPORT_PROBE = ("import time; t = time.perf_counter(); import loco_pda.cli; "
                "print(time.perf_counter() - t)")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = (("op_s_min", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # spelled out, not read from workloads.WORKLOADS: that module imports numpy,
    # which must wait until the thread variables are pinned
    p.add_argument("--workload", required=True,
                   choices=("desk-train", "field-adapt", "run-all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default",
                   help="tiny runs the compact config of acceptance criterion 11")
    p.add_argument("--blas-threads", type=int, default=1,
                   help="thread count pinned for BLAS/OpenMP; 0 keeps the library default")
    return p.parse_args(argv)


def pin_threads(count: int) -> None:
    for var in THREAD_VARS:
        if count > 0:
            os.environ[var] = str(count)
        else:
            os.environ.pop(var, None)


def import_seconds() -> float:
    """Import time of the package (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    """HEAD's commit, read from .git when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "loco_pda").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def run_op(workload, tracer=None) -> dict:
    """One timed op, then its output check and digest. An op that raises counts
    as failed, with the traceback as its check result."""
    gc.collect()
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        with tracer or contextlib.nullcontext():
            out = workload.op()
    except Exception:
        return {"seed": None, "seconds": time.perf_counter() - started,
                "cpu_seconds": time.process_time() - cpu_started, "ok": False,
                "check": traceback.format_exc(), "digest": ""}
    seconds = time.perf_counter() - started
    cpu_seconds = time.process_time() - cpu_started
    if tracer is not None:
        tracer.measure_allocations()
    try:
        ok, detail = workload.check(out)
        digest = workload.digest(out)
    finally:
        workload.cleanup(out)
    return {"seed": out["seed"], "seconds": seconds, "cpu_seconds": cpu_seconds, "ok": ok,
            "check": detail, "digest": digest}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loco_pda" / "__init__.py").is_file():
        print(f"error: no loco_pda package under {SRC}", file=sys.stderr)
        return 2
    pin_threads(args.blas_threads)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import workloads                     # imports numpy and loco_pda

    OUT.mkdir(exist_ok=True)
    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    cfg = workloads.load_config(args.size)
    workload = workloads.WORKLOADS[args.workload](cfg, workloads.Seeds(args.seed), OUT)
    started = time.perf_counter()
    workload.setup()
    own_setup_s = time.perf_counter() - started

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        # the traced op runs second, so that its self times are not those of a
        # cold process; the untraced op it is compared with runs cold
        ops = [run_op(workload), run_op(workload, tracer)]
        metrics = tracer.metrics(ops[1]["seconds"], ops[0]["seconds"])
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.trace_record()), encoding="utf-8")
    else:
        ops = []
        measure_start = time.perf_counter()
        while True:
            ops.append(run_op(workload))
            imports.append(import_seconds())
            if time.perf_counter() - measure_start >= args.seconds:
                break
        timed = [op for op in ops if op["ok"]] or ops
        metrics = {
            "op_s_min": min(op["seconds"] for op in timed),
            "setup_s": min(imports) + own_setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": float(metrics[name]), "unit": unit}
                   for name, unit in END_TO_END}

    failed = sum(not op["ok"] for op in ops)
    record = {
        "environment": environment(args),
        "import_s": imports,
        "workload_setup_s": own_setup_s,
        "ops": ops,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for op in ops:
        print(f"op seed={op['seed']} {op['seconds']:.3f} s ({op['cpu_seconds']:.3f} cpu-s) "
              f"{'ok' if op['ok'] else 'FAILED'}: {op['check']} digest={op['digest'][:16]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
