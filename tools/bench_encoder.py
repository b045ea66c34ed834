"""Timing of the encoder's attention and FFN blocks, whole and on two
batch halves.

For one layer of the default encoder (d_model 64, 4 heads, d_ff 256,
relu, dropout 0.1, float32), padded lengths 32, 64 and 128 and batch 32,
times three calls of each block:

* the tape-free forward, as ``eval`` and ``predict`` run it;
* the recorded forward, taking from an arena as a model's pass does;
* that record's backward, handed an output gradient from the arena.

Each is timed with the block's per-row work on the calling thread
("whole") and on two batch halves, the first on the worker thread
("split"), whatever the encoder would choose; ``default`` in a row says
which one it chooses. The encoder never splits a tape-free pass: its
split row is for the record. Every number is the median of ``--repeats``
runs, in milliseconds, after one warm-up; the two placements alternate
run by run. Every row is all real tokens. BLAS is held to one thread, as
the benchmark holds it.

On a shared machine the second core comes and goes, so the run also
times a pure matrix-product load twice on the calling thread and once
on each thread at once, before and after the blocks: the ratio
("two_thread_speedup", 2.0 at best) says how much of a second core the
run had.

Writes the rows and the environment (Python, numpy, BLAS and its
threads, nproc, CPU affinity) as JSON to ``--out`` and prints a table.
``--quick`` times one short length at a few rows, once. Run from the
root of a checkout::

    PYTHONPATH=src python3 tools/bench_encoder.py --out BENCH.json

Stdlib and numpy only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from bench_recurrent import SEED, _timed, environment  # holds BLAS to one thread

import numpy as np  # noqa: E402

from sebertnets import encoder as E  # noqa: E402
from sebertnets import tensor as T  # noqa: E402
from sebertnets import threads  # noqa: E402

CFG = E.EncoderConfig(vocab_size=8, d_model=64, n_heads=4, d_ff=256, dropout_rate=0.1)
PLACEMENTS = {"whole": False, "split": True}
KEYS = ("tape_free_forward", "recorded_forward", "backward")


def _blocks(params, neg):
    """Layer 0's attention and FFN blocks as functions of ``x``, the
    rows, the attention maps list and the dropout generator."""
    attn = [params["layer0." + name] for name in E._ATTENTION]
    ffn = [params["layer0." + name] for name in E._FFN]

    def attention(x, rows, maps, gen):
        return E._attention(x, *attn, neg, CFG.n_heads, maps, CFG.dropout_rate, gen, rows=rows)

    def feed_forward(x, rows, maps, gen):
        return E._ffn(x, *ffn, CFG.activation, CFG.dropout_rate, gen, rows=rows)
    return {"attention": attention, "FFN": feed_forward}


def two_thread_speedup(repeats: int = 5) -> float:
    """The median, over ``repeats``, of the time of two equal GEMM loads
    run one after the other over their time run at once on two threads."""
    a = np.random.default_rng(SEED).standard_normal((256, 256)).astype(np.float32)

    def load():
        for _ in range(40):
            a @ a
    ratios = []
    for _ in range(repeats):
        serial = _timed(lambda: (load(), load()))
        ratios.append(serial / _timed(lambda: threads.both(2, load, load)))
    return statistics.median(ratios)


def measure(s: int, b: int, repeats: int) -> dict[str, dict[str, dict[str, float]]]:
    """Per block and placement, the median milliseconds of each call."""
    rng = np.random.default_rng(SEED)
    params = {k: t.data for k, t in T.draw(E.encoder_layout(CFG), rng).items()}
    x = rng.standard_normal((b, s, CFG.d_model)).astype(np.float32)
    neg = np.zeros((b, 1, 1, s), np.float32)
    g_values = rng.standard_normal(x.shape).astype(np.float32)
    arena = T.Arena()
    times = {name: {p: {k: [] for k in KEYS} for p in PLACEMENTS}
             for name in ("attention", "FFN")}
    real = threads.threaded
    try:
        for rep in range(repeats + 1):
            for name, block in _blocks(params, neg).items():
                for placement, split in PLACEMENTS.items():
                    threads.threaded = lambda rows, on=split: on
                    tape_free = _timed(lambda: block(x, E._Rows(T.MALLOC, b, split), [], None))
                    out = []
                    recorded = _timed(lambda: out.extend(
                        block(x, E._Rows(arena, b, split), None, np.random.default_rng(rep))))
                    g = arena.take(x.shape, x.dtype)
                    g[...] = g_values
                    grads = []
                    backward = _timed(lambda: grads.extend(out[1](g)))
                    del out, g, grads  # the pass's blocks go back to the arena
                    if rep:  # the first run of each placement warms up
                        for key, ms in zip(KEYS, (tape_free, recorded, backward)):
                            times[name][placement][key].append(ms)
    finally:
        threads.threaded = real
    if arena.taken_bytes:
        raise RuntimeError(f"{arena.taken_bytes} arena bytes left taken")
    return {name: {p: {k: statistics.median(v) for k, v in per.items()}
                   for p, per in by_placement.items()}
            for name, by_placement in times.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=11, help="timed runs per number")
    ap.add_argument("--quick", action="store_true",
                    help="one run at 8 tokens and 4 rows, as a smoke test")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    lengths, batch, repeats = ((8,), 4, 1) if args.quick else ((32, 64, 128), 32, args.repeats)

    before = two_thread_speedup()
    rows = []
    print("| block | S | B | placement | default | tape-free fwd ms | recorded fwd ms "
          "| backward ms |\n|---|---:|---:|---|---|---:|---:|---:|")
    for s in lengths:
        for name, by_placement in measure(s, batch, repeats).items():
            for placement, ms in by_placement.items():
                default = threads.threaded(batch) == PLACEMENTS[placement]
                row = {"block": name, "seq_len": s, "batch": batch, "placement": placement,
                       "default_recorded": default,
                       **{f"{k}_ms": round(v, 3) for k, v in ms.items()}}
                rows.append(row)
                print(f"| {name} | {s} | {batch} | {placement} | {'yes' if default else ''} "
                      f"| {ms['tape_free_forward']:.2f} | {ms['recorded_forward']:.2f} "
                      f"| {ms['backward']:.2f} |", flush=True)
    env = environment(SEED)
    env["threaded_at_batch"] = threads.threaded(batch)
    env["two_thread_speedup"] = {"before": round(before, 2),
                                 "after": round(two_thread_speedup(), 2)}
    print(f"two-thread speedup of a GEMM load: {before:.2f} before, "
          f"{env['two_thread_speedup']['after']:.2f} after")
    record = {"what": "encoder attention and FFN blocks, median ms per call; a tape-free "
                      "pass always runs whole",
              "shape": {"d_model": CFG.d_model, "n_heads": CFG.n_heads, "d_ff": CFG.d_ff,
                        "activation": CFG.activation, "dropout": CFG.dropout_rate,
                        "dtype": "float32", "repeats": repeats},
              "environment": env, "rows": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
