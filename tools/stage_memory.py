"""Memory of one training step, stage by stage.

Runs one ``sebertnets`` GRU ``train_step`` shaped like the ``train_long``
benchmark workload (hidden 200, batch 32, rows of about 120 tokens, the
default two-layer encoder, dropout on) under ``tracemalloc``, and prints
one Markdown table row per stage: the traced memory live at the end of
the stage, the traced peak within it, both in MB (1e6 bytes), the
process resident set size at its end, in MiB, the minor page faults
within it (the ``getrusage`` ``ru_minflt`` delta), and the bytes taken
from and reserved by the model's arena at its end, in MB. Two warm-up
steps run first, so the optimizer state and the arena exist before
tracing and the traced step is a steady-state one. The last lines give
the step's totals: traced peak, minor faults, the arena's taken
high-water and reserved bytes, and the process's peak RSS.

Stages are found by wrapping the encoder blocks, the recurrent layer
and their backwards, ``backward``, clipping and the optimizer step at
run time; nothing in the library changes. The recurrent layer is one
stage each way, since its two directions run at once on two threads. An
attention or FFN block split over two batch halves is one stage each
way too: it returns once both halves are done.
Each backward wrapper hands its gradient on without holding it, so a
backward that drops its input frees it as it would unwrapped.

Run from the root of a checkout::

    PYTHONPATH=src python3 tools/stage_memory.py [--seed 1]

Stdlib and numpy only; RSS is read from ``/proc/self/statm`` (Linux) and
printed as ``-`` elsewhere.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tracemalloc

import numpy as np

from sebertnets import encoder as E
from sebertnets import model as M
from sebertnets import recurrent as R
from sebertnets import tensor as T
from sebertnets.data import SynthConfig, Vocabulary, batch, encode_example, generate_synthetic
from sebertnets.encoder import EncoderConfig
from sebertnets.model import SEBERTNETS, Model, ModelConfig
from sebertnets.optim import make_state

MB = 1e6


def _rss_mib() -> float | None:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Stages:
    """Rows of (stage, live bytes, peak bytes, RSS MiB, minor faults,
    arena taken bytes, arena reserved bytes), one per ``mark``. ``arena``
    is the model's arena, or None where the model has none."""

    def __init__(self, arena):
        self.arena = arena
        self.rows: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.faults = _minflt()

    def mark(self, stage: str) -> None:
        live, peak = tracemalloc.get_traced_memory()
        faults, self.faults = _minflt() - self.faults, _minflt()
        arena = self.arena
        self.rows.append((stage, live, peak, _rss_mib(), faults,
                          None if arena is None else arena.taken_bytes,
                          None if arena is None else arena.reserved_bytes))
        tracemalloc.reset_peak()

    def numbered(self, kind: str) -> str:
        """``kind`` with its call count in this step: "attention 0", ..."""
        n = self.counts.get(kind, 0)
        self.counts[kind] = n + 1
        return f"{kind} {n}"

    def after_backward(self, stage: str, back):
        """``back``, marking ``stage`` once it returns."""
        def wrapped(g):
            box = [g]
            del g
            out = back(box.pop())
            self.mark(stage)
            return out
        return wrapped

    def block(self, kind: str, fn):
        """Encoder block ``fn``, marking its forward and its backward."""
        def wrapped(*args, **kwargs):
            stage = kind if kind == "embedding" else self.numbered(kind)
            out, back = fn(*args, **kwargs)
            self.mark(f"{stage} forward")
            return out, self.after_backward(f"{stage} backward", back)
        return wrapped

    def recurrent(self, fn):
        """``bidirectional_encode``, marking its forward and, through the
        tape record it makes, its backward: both directions at once, since
        they run on two threads."""
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.mark("recurrent layer forward")
            rec = T._active_tape()._records[-1]
            rec.backward = self.after_backward("recurrent layer backward (both directions)",
                                               rec.backward)
            return out
        return wrapped

    def around(self, fn, before: str | None, after: str):
        def wrapped(*args, **kwargs):
            if before is not None:
                self.mark(before)
            out = fn(*args, **kwargs)
            self.mark(after)
            return out
        return wrapped


def build(seed: int):
    corpus = generate_synthetic(SynthConfig(n_examples=32, min_distractors=7,
                                            max_distractors=8, filler_len=(7, 9)), seed)
    vocab = Vocabulary.from_corpus(corpus)
    enc_cfg = EncoderConfig(vocab_size=vocab.size, d_model=64, n_layers=2, n_heads=4,
                            d_ff=256, max_len=140, dropout_rate=0.1)
    model = Model(ModelConfig(variant=SEBERTNETS, cell=R.GRU, hidden_size=200), enc_cfg,
                  vocab, seed=0)
    return model, batch([encode_example(ex, vocab, enc_cfg.max_len) for ex in corpus])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="corpus and dropout seed")
    args = ap.parse_args(argv)

    model, b = build(args.seed)
    state, rng = make_state("adam", lr=1e-3), np.random.default_rng(args.seed)
    for _ in range(2):
        model.train_step(b, state, rng)

    arena = getattr(model, "_arena", None)
    if arena is not None:
        arena.high_water = arena.taken_bytes
    stages = Stages(arena)
    patches = [(E, "_embedding", stages.block("embedding", E._embedding)),
               (E, "_attention", stages.block("attention", E._attention)),
               (E, "_ffn", stages.block("FFN", E._ffn)),
               (M, "bidirectional_encode", stages.recurrent(M.bidirectional_encode)),
               (M, "backward", stages.around(M.backward, "span head and loss",
                                             "end of backward")),
               (M, "clip_global_norm", stages.around(M.clip_global_norm, None,
                                                     "gradient clipping")),
               (M, "apply_step", stages.around(M.apply_step, None, "optimizer step"))]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, fn in patches:
        setattr(mod, name, fn)
    tracemalloc.start()
    start = _minflt()
    try:
        model.train_step(b, state, rng)
        faults = _minflt() - start
    finally:
        tracemalloc.stop()
        for mod, name, fn in saved:
            setattr(mod, name, fn)

    print(f"# sebertnets/GRU hidden 200, batch {b.token_ids.shape[0]}, "
          f"{b.token_ids.shape[1]} tokens, seed {args.seed}; Python "
          f"{sys.version.split()[0]}, numpy {np.__version__}, nproc {os.cpu_count()}")
    print("| stage | live MB | peak MB | RSS MiB | minor faults | arena taken MB "
          "| arena reserved MB |")
    print("|---|---:|---:|---:|---:|---:|---:|")

    def mb(value, scale=MB):
        return "-" if value is None else f"{value / scale:.1f}"
    for stage, live, peak, rss, stage_faults, taken, reserved in stages.rows:
        print(f"| {stage} | {mb(live)} | {mb(peak)} | {mb(rss, 1)} | {stage_faults} "
              f"| {mb(taken)} | {mb(reserved)} |")
    print(f"step traced peak: {max(r[2] for r in stages.rows) / MB:.1f} MB")
    print(f"step minor faults: {faults}")
    print(f"arena taken high-water: {mb(arena and arena.high_water)} MB, "
          f"reserved: {mb(arena and arena.reserved_bytes)} MB")
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"process peak RSS: {peak_rss:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
