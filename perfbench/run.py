"""Benchmark of the iosfd solver: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload ds-close-L256 --seed 0 --seconds 45 --trace 0

With `--trace 0` the last line holds the end-to-end metrics, measured with no
wrapper in place; with `--trace 1` it holds the per-layer metrics of a traced
run.  iosfd is imported from the `src/` directory next to this one, never from
an installed copy.  See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned before numpy loads; workers inherit this.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5


def load_program():
    """Import iosfd from ROOT/src and the benchmark modules that use it."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import iosfd
    if Path(iosfd.__file__).resolve().parent != ROOT / "src" / "iosfd":
        raise SystemExit(f"iosfd was imported from {iosfd.__file__}, not from {ROOT / 'src'}")
    import workloads
    return workloads


def machine_record(threads: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy older than 1.26 has no dict mode
        blas = "unknown"
    return {"nproc": threads, "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for (KiB on Linux)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up timed in fresh interpreters, so each sample pays the import."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(p.stem for p in (HERE / "configs").glob("*.json")))
    ap.add_argument("--seed", type=int, default=0,
                    help="where in the workload's seed pool each round starts")
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="measure whole rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time the import and set-up only and print the seconds")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    workloads = load_program()
    inputs = workloads.prepare(args.workload, args.seed)
    if args.setup_probe:
        print(time.perf_counter() - t0)
        return 0
    main_setup_s = time.perf_counter() - t0
    threads = len(os.sched_getaffinity(0))
    print("machine", json.dumps(machine_record(threads)), flush=True)

    if args.trace:
        metrics, rounds = workloads.traced(inputs, args.seconds, threads)
        units = dict(workloads.PER_LAYER)
    else:
        probes = setup_seconds(args.workload, args.seed)
        print("setup_probes_s", json.dumps(probes), "in_process_setup_s", main_setup_s, flush=True)
        rounds = workloads.run_rounds(inputs, args.seconds, threads)
        metrics = workloads.end_to_end(rounds, statistics.median(probes), peak_rss_mb())
        units = dict(workloads.END_TO_END)

    for i, rnd in enumerate(rounds):
        print(f"round {i}: {rnd.attempted} runs, {rnd.failed} failed, {rnd.iterations} "
              f"outer iterations, {rnd.wall_s:.3f} s", flush=True)
        for err in rnd.errors[:20]:
            print("  FAILED", err.strip().replace("\n", " | "), flush=True)
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:32s} {value:14.6g} {units[name]}")
    # the untraced baseline round of a traced run is not part of the result
    counted = rounds[1:] if args.trace else rounds
    attempted = sum(r.attempted for r in counted)
    failed = sum(r.failed for r in counted)
    result = {
        # a run that raised is failed; a run whose output is wrong makes the result incorrect
        "correct": not any(r.wrong for r in rounds) and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
