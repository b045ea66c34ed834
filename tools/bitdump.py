"""Bit-identity check of two revisions.

Unpacks each revision with ``git archive`` into a temporary directory,
runs the same dump under each in a fresh interpreter, and prints every
SHA-256 digest that differs. The dump covers:

* a matrix of 3 variants x 2 cells x relu/gelu x dropout 0/0.1 x
  float32/float64 x batch 1/32 on short synthetic rows (hidden 8, two
  encoder layers), plus one sebertnets/GRU case at the ``train_long``
  shape (rows of about 120 tokens, batch 32, hidden 200, dropout 0.1);
  for each case the tape-free logits and attention maps, the losses and
  weights over 3 Adam steps, and, from the first of those steps, the
  recorded logits and loss as ``sebertnets.model.span_loss`` sees them
  and every parameter gradient as ``sebertnets.model.clip_global_norm``
  is handed it, before it scales them. The dump reads nothing but
  ``train_step``'s calls, so it runs on any revision that trains through
  those two names;
* same-seed CLI ``synth``, ``train`` (2 epochs, dropout 0.1, dev on),
  ``eval``, ``predict`` (batch 16 and 1) and ``inspect`` for bert,
  sebertnets/GRU and hsebertnets/LSTM: every file each writes, and its
  standard output.

Run from the root of a checkout::

    python3 tools/bitdump.py REV_A REV_B [--quick]

A revision is anything ``git archive`` takes; an existing directory that
holds ``src/sebertnets`` is used as it is (``.`` is the working tree).
``--quick`` skips the ``train_long``-shaped case and the CLI. Exits 1 if
any digest differs, else 0. Stdlib and numpy only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

# runs in the child, with sys.path[0] the revision's src directory
_DUMP = r'''
import contextlib, hashlib, io, itertools, json, os, sys
import numpy as np
from sebertnets.cli import console_main
from sebertnets.data import (SynthConfig, Vocabulary, batch, encode_example,
                             flatten_for_training, generate_synthetic)
from sebertnets import model as M
from sebertnets.encoder import EncoderConfig
from sebertnets.model import Model, ModelConfig
from sebertnets.optim import make_state

digests = {}


def put(key, value):
    a = np.ascontiguousarray(value)
    digests[key] = hashlib.sha256(str((a.dtype.str, a.shape)).encode()
                                  + a.tobytes()).hexdigest()


def first_step(tag):
    """Wrappers of ``M.span_loss`` and ``M.clip_global_norm`` that digest
    the recorded logits and loss, and the gradients before clipping scales
    them in place, of the first training step only."""
    real_loss, real_clip = M.span_loss, M.clip_global_norm
    seen = set()

    def span_loss(logits, gold, **kwargs):
        loss = real_loss(logits, gold, **kwargs)
        if "loss" not in seen:
            seen.add("loss")
            put(f"{tag}/recorded/start", logits.start_logits.data)
            put(f"{tag}/recorded/end", logits.end_logits.data)
            put(f"{tag}/recorded/loss", loss.data)
        return loss

    def clip_global_norm(grads, max_norm):
        if "grads" not in seen:
            seen.add("grads")
            for name, g in grads.items():
                put(f"{tag}/grad/{name}", g)
        return real_clip(grads, max_norm)
    return span_loss, clip_global_norm


def case(tag, variant, cell, act, dropout, dtype, n, synth, hidden, d_ff):
    corpus = generate_synthetic(synth, 0)
    vocab = Vocabulary.from_corpus(corpus)
    enc_cfg = EncoderConfig(vocab_size=vocab.size, d_model=64 if hidden > 100 else 8,
                            n_layers=2, n_heads=4 if hidden > 100 else 2, d_ff=d_ff,
                            max_len=140, dropout_rate=dropout, activation=act)
    model = Model(ModelConfig(variant=variant, cell=cell, hidden_size=hidden),
                  enc_cfg, vocab, seed=0)
    params = model.parameters()
    for p in params.values():
        p.data = p.data.astype(dtype)
    flat = flatten_for_training(corpus)[:n]
    b = batch([encode_example(ex, vocab, enc_cfg.max_len) for ex in flat])
    logits, maps = model.forward(b)
    put(f"{tag}/eval/start", logits.start_logits.data)
    put(f"{tag}/eval/end", logits.end_logits.data)
    for i, m in enumerate(maps):
        put(f"{tag}/eval/map{i}", m)
    real = M.span_loss, M.clip_global_norm
    M.span_loss, M.clip_global_norm = first_step(tag)
    try:
        state, rng = make_state("adam", lr=1e-3), np.random.default_rng(11)
        for step in range(3):
            put(f"{tag}/adam{step}/loss", np.float64(model.train_step(b, state, rng)))
    finally:
        M.span_loss, M.clip_global_norm = real
    for name, p in params.items():
        put(f"{tag}/adam/{name}", p.data)


def matrix(full):
    short = SynthConfig(n_examples=40)
    for variant, cell, act, dropout, dtype, n in itertools.product(
            ("bert_baseline", "sebertnets", "hsebertnets"), ("gru", "lstm"),
            ("relu", "gelu"), (0.0, 0.1), (np.float32, np.float64), (1, 32)):
        tag = f"{variant}/{cell}/{act}/p{dropout}/{np.dtype(dtype).name}/b{n}"
        case(tag, variant, cell, act, dropout, dtype, n, short, 8, 16)
    if full:
        long = SynthConfig(n_examples=32, min_distractors=7, max_distractors=8,
                           filler_len=(7, 9))
        case("train_long", "sebertnets", "gru", "relu", 0.1, np.float32, 32, long, 200, 256)


def cli(work):
    def run(tag, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = console_main(list(argv))
        put(f"cli/{tag}/exit", np.int64(code))
        put(f"cli/{tag}/stdout", np.frombuffer(out.getvalue().encode(), np.uint8))

    def path(name):
        return os.path.join(work, name)

    run("synth", "synth", "--out", path("data.jsonl"), "--seed", "3",
        "--n-examples", "48", "--multi-entity-fraction", "0.25")
    with open(path("data.jsonl"), encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path("train.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(lines[:36])
    with open(path("dev.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(lines[36:])
    first_id = json.loads(lines[36])["id"]
    shape = ["--d-model", "16", "--n-layers", "2", "--n-heads", "2", "--d-ff", "32",
             "--hidden", "12", "--dropout", "0.1", "--max-len", "64"]
    for variant, cell in (("bert", "gru"), ("sebertnets", "gru"), ("hsebertnets", "lstm")):
        tag = f"{variant}-{cell}"
        ckpt = path(f"{tag}.sebn")
        run(f"{tag}/train", "train", "--train", path("train.jsonl"), "--dev",
            path("dev.jsonl"), "--variant", variant, "--cell", cell, "--epochs", "2",
            "--batch-size", "8", "--seed", "5", "--checkpoint", ckpt,
            "--log", path(f"{tag}.log.jsonl"), *shape)
        run(f"{tag}/eval", "eval", "--checkpoint", ckpt, "--data", path("dev.jsonl"),
            "--json", "--json-out", path(f"{tag}.eval.json"))
        for bs in ("16", "1"):
            run(f"{tag}/predict{bs}", "predict", "--checkpoint", ckpt, "--data",
                path("dev.jsonl"), "--batch-size", bs, "--out",
                path(f"{tag}.pred{bs}.jsonl"))
        run(f"{tag}/inspect", "inspect", "--checkpoint", ckpt, "--data",
            path("dev.jsonl"), "--example-id", first_id, "--out",
            path(f"{tag}.inspect.csv"))
    for name in sorted(os.listdir(work)):
        with open(path(name), "rb") as fh:
            put(f"cli/file/{name}", np.frombuffer(fh.read(), np.uint8))


full = sys.argv[1] == "full"
matrix(full)
if full:
    cli(sys.argv[2])
json.dump(digests, sys.stdout, sort_keys=True)
'''


def checkout(rev: str, into: str) -> str:
    """The root of ``rev``: an existing checkout directory as it is, else
    ``git archive`` of the revision unpacked under ``into``."""
    if os.path.isdir(os.path.join(rev, "src", "sebertnets")):
        return os.path.abspath(rev)
    blob = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into


def dump(root: str, full: bool) -> dict[str, str]:
    with tempfile.TemporaryDirectory(prefix="bitdump-cli-") as work:
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        out = subprocess.run([sys.executable, "-c", _DUMP, "full" if full else "quick",
                              work], check=True, capture_output=True, text=True,
                             env=env, cwd=work).stdout
    return json.loads(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--quick", action="store_true",
                    help="the short-row matrix only: no train_long case, no CLI")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bitdump-") as tmp:
        a, b = (dump(checkout(rev, os.path.join(tmp, name)), not args.quick)
                for rev, name in ((args.rev_a, "a"), (args.rev_b, "b")))
    differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    only = sorted(a.keys() ^ b.keys())
    for key in differ:
        print(f"differs: {key}  {a[key][:16]}  {b[key][:16]}")
    for key in only:
        print(f"only in {'a' if key in a else 'b'}: {key}")
    print(f"{len(a.keys() & b.keys())} digests compared, {len(differ)} differ, "
          f"{len(only)} in one revision only")
    return 1 if differ or only else 0


if __name__ == "__main__":
    sys.exit(main())
