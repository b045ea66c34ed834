"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full result record (environment, traffic, latency
percentiles, failures), which is also written to ``.bench_out/``.
``--workload all`` runs every workload in its own process and prints a
table.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train_long", "predict_short", "cli_cycle")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="sebertnets benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _blas_threads():
    """Thread count of the BLAS library loaded into this process, if known."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() or "mkl" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return {"threads": fn(), "library": os.path.basename(lib)}
    return None


def _git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                             capture_output=True, timeout=20, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], text=True,
                                capture_output=True, timeout=20, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {"rev": rev, "dirty": bool(status.strip())}


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS
                            if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git": _git_rev(),
        "seed": seed,
    }


def result_line(record: dict) -> dict:
    return {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}


def run_one(args, sizes=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "sebertnets", "__init__.py")):
        print(f"perfbench: no sebertnets package under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # One BLAS thread, whatever the caller's environment says: with the
    # library default of one thread per core, a worker that spins between
    # calls made whole runs fast or slow at random on a 2-core machine.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    record = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR,
        sizes or workloads.FULL)
    record["environment"] = environment(args.seed)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result_line(record)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that set-up time and peak
    memory belong to that workload alone."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':<40} {'unit':<10}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for m in names:
        row = [results[w]["metrics"].get(m) for w in WORKLOADS]
        unit = next(r["unit"] for r in row if r)
        print(f"{m:<40} {unit:<10}" + "".join(
            f"{r['value']:>16.6g}" if r else f"{'-':>16}" for r in row))
    for w in WORKLOADS:
        r = results[w]
        print(f"{w}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None, sizes=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, sizes)


if __name__ == "__main__":
    sys.exit(main())
