"""Timing of the recurrent layer with its two directions on one thread
and on two.

For GRU and LSTM (input 64, hidden 200, float32, as in the
``train_long`` and ``cli_cycle`` benchmark workloads), padded lengths 32,
64 and 128 and batches of 1 and 32 rows, times three calls of
``recurrent.bidirectional_encode``:

* the tape-free forward, as ``eval`` and ``predict`` run it;
* the recorded forward, on a chain holding an arena as a training
  step's does;
* the backward of the stage it appends (both directions' BPTT and the
  input and weight gradients), handed an output gradient from the arena.

Each is timed with both directions on the calling thread ("inline") and
with the left-to-right one on the worker thread ("threads"), whatever
the layer would choose for that batch; ``default`` in a row says which
one it chooses. Every number is the median of ``--repeats`` runs, in
milliseconds, after one warm-up; the two placements alternate run by
run. Every row is all real tokens. BLAS is held to one thread, as the
benchmark holds it, since with more the two directions' BLAS calls
contend for the same cores.

Writes the rows and the environment (Python, numpy, BLAS and its
threads, nproc, CPU affinity, worker threads) as JSON to ``--out`` and
prints a table. Run from the root of a checkout::

    PYTHONPATH=src python3 tools/bench_recurrent.py --out BENCH.json

Stdlib and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from run import BLAS_THREAD_VARS, environment  # noqa: E402

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from sebertnets import recurrent as R  # noqa: E402
from sebertnets import tensor as T  # noqa: E402
from sebertnets import threads  # noqa: E402
from sebertnets.tensor import Tensor  # noqa: E402

INPUT, HIDDEN = 64, 200
LENGTHS, BATCHES, CELLS = (32, 64, 128), (1, 32), (R.GRU, R.LSTM)
PLACEMENTS = {"inline": False, "threads": True}
SEED = 0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - t0)


def measure(cell: str, s: int, b: int, repeats: int) -> dict[str, dict[str, float]]:
    """Per placement, the median milliseconds of each of the three calls."""
    rng = np.random.default_rng(SEED)
    fwd, bwd = (R.RecurrentParams(cell, INPUT, HIDDEN,
                                  T.draw(R.direction_layout(cell, INPUT, HIDDEN), rng))
                for _ in range(2))
    seq = rng.standard_normal((b, s, INPUT)).astype(np.float32)
    mask = np.ones((b, s), dtype=bool)
    weights = {f"{i}.{k}": t for i, p in enumerate((fwd, bwd)) for k, t in p.weights.items()}
    arena = T.Arena()
    dy_values = rng.standard_normal((b, s, 2 * HIDDEN)).astype(np.float32)
    times = {name: {"tape_free_forward": [], "recorded_forward": [], "backward": []}
             for name in PLACEMENTS}
    real = threads.threaded
    try:
        for rep in range(repeats + 1):
            for name, threaded in PLACEMENTS.items():
                threads.threaded = lambda rows, on=threaded: on
                tape_free = _timed(lambda: R.bidirectional_encode(Tensor(seq), mask, fwd, bwd))
                chain = T.Chain(weights, arena)
                recorded = _timed(lambda: R.bidirectional_encode(Tensor(seq), mask, fwd, bwd,
                                                                 chain=chain))
                _, back, _ = chain.pop()
                dy = arena.take(dy_values.shape, dy_values.dtype)
                dy[...] = dy_values
                out = []
                backward = _timed(lambda: out.extend(back(dy)))
                del back, dy, out  # the pass's blocks go back to the arena
                if rep:  # the first run of each placement warms up
                    for key, ms in (("tape_free_forward", tape_free),
                                    ("recorded_forward", recorded), ("backward", backward)):
                        times[name][key].append(ms)
    finally:
        threads.threaded = real
    if arena.taken_bytes:
        raise RuntimeError(f"{arena.taken_bytes} arena bytes left taken")
    return {name: {key: statistics.median(v) for key, v in per.items()}
            for name, per in times.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=11, help="timed runs per number")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    rows = []
    print(f"| cell | S | B | placement | default | tape-free fwd ms | recorded fwd ms "
          f"| backward ms |\n|---|---:|---:|---|---|---:|---:|---:|")
    for cell in CELLS:
        for s in LENGTHS:
            for b in BATCHES:
                for name, ms in measure(cell, s, b, args.repeats).items():
                    row = {"cell": cell, "seq_len": s, "batch": b, "placement": name,
                           "default": threads.threaded(b) == PLACEMENTS[name],
                           **{f"{k}_ms": round(v, 3) for k, v in ms.items()}}
                    rows.append(row)
                    print(f"| {cell} | {s} | {b} | {name} | {'yes' if row['default'] else ''} "
                          f"| {ms['tape_free_forward']:.2f} | {ms['recorded_forward']:.2f} "
                          f"| {ms['backward']:.2f} |", flush=True)
    env = environment(SEED)
    env["workers"] = {"threads": 1, "inline": 0}
    record = {"what": "recurrent.bidirectional_encode, median ms per call",
              "shape": {"input_size": INPUT, "hidden_size": HIDDEN, "dtype": "float32",
                        "repeats": args.repeats},
              "environment": env, "rows": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
