"""The three benchmark workloads.

Each is a closed loop: one caller in one process sends the next call when
the previous one returns. Inputs come from the workload seed only.

* ``train_long``: ``Model.train_step`` for ``sebertnets`` (GRU) on rows
  padded to about 128 tokens. The recurrent layer and the tape
  ``backward`` do most of the work; decode, data IO and checkpoints none.
* ``predict_short``: ``Model.predict`` for ``bert_baseline`` on rows of
  about 32 tokens, in batches of 32 and then one example at a time.
  Encoder and span decode do the work; recurrent layer, backward and
  optimizer none.
* ``cli_cycle``: the CLI entry point in-process, ``train`` (one epoch of
  ``hsebertnets`` with the LSTM cell, dev scoring on) then ``eval`` and
  ``predict`` from the checkpoint it wrote. The only workload that runs
  JSONL IO, checkpoint writes and reads, the evaluator and both decode
  channels.

Every workload reports the same end-to-end metrics (see ``METRICS``);
what "one example" and "one operation" mean for each is spelled out in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import numpy as np

from sebertnets.cli import console_main
from sebertnets.data import (
    SynthConfig,
    Vocabulary,
    batch,
    encode_example,
    flatten_for_training,
    generate_synthetic,
    write_jsonl,
)
from sebertnets.encoder import EncoderConfig
from sebertnets.model import BERT_BASELINE, SEBERTNETS, Model, ModelConfig
from sebertnets.optim import make_state
from sebertnets.recurrent import GRU
from sebertnets.span import span_loss

import oracle
from tracer import Tracer, per_layer_metric_units

METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ex_per_s": "ex/s",
    "op_ms_p50": "ms",
    "loss": "nats",
}

TOP_K = 5
MAX_SPAN_LEN = 30
FIXTURE_SEED = 1234


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes and model shape. ``FULL`` is the benchmark; ``TINY``
    exists so the smoke test finishes in seconds."""
    batch_size: int = 32
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    dropout: float = 0.1
    hidden: int = 200
    max_len: int = 140
    setup_reps: int = 5
    # training must cut the loss to below this share of an untrained model's
    max_loss_ratio: float = 0.95
    # train_long
    train_pool: int = 256
    train_min_steps: int = 8        # the loss metric is taken after these steps
    # predict_short
    fixture_examples: int = 1024
    fixture_steps: int = 30
    predict_pool: int = 1024
    single_pool: int = 256
    singles_per_round: int = 16      # batch-1 calls after each batch-32 call
    predict_min_rounds: int = 63     # >= 1000 batch-1 samples: p99 has 10 beyond
    oracle_batches: int = 2
    oracle_singles: int = 64
    # cli_cycle
    cli_train_flat: int = 128
    cli_dev: int = 64
    cli_oracle_records: int = 64

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(vocab_size=vocab_size, d_model=self.d_model,
                             n_layers=self.n_layers, n_heads=self.n_heads,
                             d_ff=self.d_ff, max_len=self.max_len,
                             dropout_rate=self.dropout)


FULL = Sizes()
TINY = Sizes(batch_size=4, d_model=8, n_layers=1, n_heads=2, d_ff=16,
             hidden=6, setup_reps=2, max_loss_ratio=1.0, train_pool=8, train_min_steps=2,
             fixture_examples=16, fixture_steps=2, predict_pool=8,
             single_pool=4, singles_per_round=4, predict_min_rounds=2,
             oracle_batches=1, oracle_singles=4, cli_train_flat=8, cli_dev=6,
             cli_oracle_records=6)


class Run:
    """Bookkeeping shared by the workloads: op timing, failures, and, in
    trace mode, a tracer that is switched on for every other operation of
    each kind so the untraced ones measure the tracing overhead."""

    def __init__(self, trace: bool, sizes: Sizes):
        self.sizes = sizes
        self.tracer = Tracer() if trace else None
        self.plain: dict[str, list[float]] = defaultdict(list)
        self.traced: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_reps: list[float] = []
        self.last_plain_s: float | None = None  # the last call, if untraced and ok
        self.record: dict = {}
        self._count: dict[str, int] = defaultdict(int)

    def _fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {detail}")

    def call(self, kind: str, fn, *args):
        """Run one operation; returns its result, or None if it raised."""
        n = self._count[kind]
        self._count[kind] += 1
        traced = self.tracer is not None and n % 2 == 1
        self.attempted += 1
        self.last_plain_s = None
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.op(kind):
                    out = fn(*args)
            else:
                out = fn(*args)
        except Exception:  # a failed operation is counted, and the run goes on
            self._fail(kind, traceback.format_exc(limit=3))
            return None
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        (self.traced if traced else self.plain)[kind].append(dt)
        if not traced:
            self.last_plain_s = dt
        return out

    @staticmethod
    def loop(seconds: float, min_rounds: int, fn) -> int:
        """Call ``fn(i)`` until ``seconds`` have passed and at least
        ``min_rounds`` calls were made; returns the number of calls."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_rounds or time.perf_counter() < deadline:
            fn(i)
            i += 1
        return i

    def reject(self, kind: str, problems: list[str]) -> None:
        """Mark an operation already counted as failed, if ``problems``."""
        if problems:
            self._fail(kind, "; ".join(problems[:3]))

    def verify(self, kind: str, problems: list[str]) -> None:
        """Count a check that is an operation of its own; failed if ``problems``."""
        self.attempted += 1
        self.reject(kind, problems)

    def setup(self, name: str, seed: int, workdir: str):
        """Time ``setup_reps`` cold set-ups, each in a fresh interpreter
        from before the imports to the end of set-up, then set up once
        in this process and return what set-up built."""
        sizes = json.dumps(dataclasses.asdict(self.sizes))
        for _ in range(self.sizes.setup_reps):
            self.setup_reps.append(float(_python_child(_SETUP_CHILD, name, str(seed),
                                                       sizes, workdir)))
        if self.tracer is None:
            out = SETUPS[name](seed, self.sizes, workdir)
        else:
            self.tracer.install()
            with self.tracer.op("setup"):
                out = SETUPS[name](seed, self.sizes, workdir)
            self.tracer.uninstall()
        gc.collect()
        return out

    def median(self, *kinds: str) -> float:
        """Median untraced time of the successful operations of ``kinds``."""
        samples = [t for kind in kinds for t in self.plain[kind]]
        if not samples:
            raise RuntimeError(f"no successful {'/'.join(kinds)} operation to time")
        return statistics.median(samples)


# ---------------------------------------------------------------- helpers


_SETUP_CHILD = ("import json, sys, time; t0 = time.perf_counter(); "
                "sys.path[:0] = json.loads(sys.argv[1]); import workloads; "
                "workloads.SETUPS[sys.argv[2]](int(sys.argv[3]), "
                "workloads.Sizes(**json.loads(sys.argv[4])), sys.argv[5]); "
                "print(time.perf_counter() - t0)")


def _python_child(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this directory
    and the ``sebertnets`` package; returns its standard output."""
    import sebertnets
    dirs = [os.path.dirname(os.path.abspath(__file__)),
            os.path.dirname(os.path.dirname(os.path.abspath(sebertnets.__file__)))]
    return subprocess.run([sys.executable, "-c", code, json.dumps(dirs), *args],
                          check=True, capture_output=True, text=True,
                          timeout=150).stdout


def eval_loss(model: Model, batches) -> float:
    """Per-example mean span loss over ``batches``, without dropout."""
    total = 0.0
    for b in batches:
        logits, _ = model.forward(b)
        total += float(span_loss(logits, b.golds).data) * len(b)
    return total / sum(len(b) for b in batches)


def _learning_check(run: Run, model: Model, batches, loss: float) -> None:
    """Training must bring the loss on ``batches`` below
    ``max_loss_ratio`` times a freshly initialised model's: zero or wrong
    gradients leave it near where it started, or above."""
    ratio = run.sizes.max_loss_ratio
    init = eval_loss(Model(model.cfg, model.enc_cfg, model.vocab, seed=0), batches)
    run.record["learning"] = {"init_loss": init, "loss": loss, "ratio": loss / init}
    run.verify("learning", [] if loss < ratio * init else
               [f"loss {loss!r} is not below {ratio} x the untrained {init!r}"])


def _chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def _shape(batches, rows, records) -> dict:
    """Measured input shape: padded length per batch, real tokens per row."""
    padded = [b.token_ids.shape[1] for b in batches]
    real = [int(n) for b in batches for n in b.attention_mask.sum(axis=1)]
    multi = sum(len(ex.gold_entities) > 1 for ex in records)
    return {
        "padded_len": {"mean": statistics.fmean(padded), "min": min(padded),
                       "max": max(padded), "batches": len(padded)},
        "real_tokens_per_row": {"mean": statistics.fmean(real), "min": min(real),
                                "max": max(real)},
        "multi_entity_share": multi / len(records),
        "rows": rows,
    }


def latency_summary(samples: list[float]) -> dict:
    """Median plus the highest whole percentile with >= 10 samples beyond it."""
    n = len(samples)
    out = {"n": n, "p50_ms": 1e3 * statistics.median(samples) if n else None}
    p = math.floor(100 * (1 - 10 / n)) if n >= 20 else 0
    if p > 50:
        out[f"p{p}_ms"] = 1e3 * statistics.quantiles(samples, n=100)[p - 1]
    return out


def _candidates(cands) -> list[tuple]:
    return [(c.start, c.end, c.score, c.entity_text) for c in cands]


def _check_predict_batch(model, b, recall, got_lists) -> list[str]:
    logits, _ = model.forward(b)
    problems = []
    for j, item in enumerate(b.items):
        ex = logits.example(j)
        problems += oracle.check_candidates(
            _candidates(got_lists[j]), ex.start_logits.data, ex.end_logits.data,
            ex.valid, item.text, item.text_span, recall.k, recall.max_span_len)
    return problems


# ------------------------------------------------------------- train_long


def setup_train_long(seed: int, s: Sizes, workdir: str):
    corpus = generate_synthetic(
        SynthConfig(n_examples=s.train_pool, min_distractors=7,
                    max_distractors=8, filler_len=(7, 9)), seed)
    vocab = Vocabulary.from_corpus(corpus)
    encoded = [encode_example(ex, vocab, s.max_len) for ex in corpus]
    batches = [batch(c) for c in _chunks(encoded, s.batch_size)]
    model = Model(ModelConfig(variant=SEBERTNETS, cell=GRU, hidden_size=s.hidden),
                  s.encoder_config(vocab.size), vocab, seed=0)
    return corpus, batches, model


def train_long(run: Run, seed: int, seconds: float, workdir: str) -> dict:
    s = run.sizes
    corpus, batches, model = run.setup("train_long", seed, workdir)
    state = make_state("adam", lr=1e-3)
    rng = np.random.default_rng(seed)
    trained: list[float] = []

    def step(i):
        run.call("train_step", model.train_step, batches[i % len(batches)], state, rng)
        if i == s.train_min_steps - 1:
            trained.append(eval_loss(model, batches))

    run.call("warmup_train_step", model.train_step, batches[0], state, rng)
    n = run.loop(seconds, s.train_min_steps, step)
    _learning_check(run, model, batches, trained[0])

    recall = model.recall_config(k=TOP_K, max_span_len=MAX_SPAN_LEN)
    cands = run.call("oracle_predict", model.predict, batches[0], recall)
    if cands is not None:
        run.reject("oracle_predict", _check_predict_batch(model, batches[0], recall, cands))

    steps = run.plain["train_step"]
    run.record["traffic"] = _shape([batches[i % len(batches)] for i in range(n)],
                                   n * s.batch_size, corpus)
    run.record["latency"] = {"train_step": latency_summary(steps)}
    return {
        "ex_per_s": s.batch_size / run.median("train_step"),
        "op_ms_p50": 1e3 * run.median("train_step"),
        "loss": trained[0],
    }


# ---------------------------------------------------------- predict_short


def make_predict_fixture(path: str, s: Sizes) -> None:
    """Train ``bert_baseline`` briefly with a fixed seed and save it, so
    that scores are peaked the way a trained model's are."""
    corpus = generate_synthetic(SynthConfig(n_examples=s.fixture_examples), FIXTURE_SEED)
    vocab = Vocabulary.from_corpus(corpus)
    encoded = [encode_example(ex, vocab, s.max_len) for ex in corpus]
    batches = [batch(c) for c in _chunks(encoded, s.batch_size)]
    model = Model(ModelConfig(variant=BERT_BASELINE), s.encoder_config(vocab.size),
                  vocab, seed=0)
    state = make_state("adam", lr=1e-3)
    rng = np.random.default_rng(FIXTURE_SEED)
    for i in range(s.fixture_steps):
        model.train_step(batches[i % len(batches)], state, rng)
    model.save(path)


def _fixture_in_child(path: str, s: Sizes) -> float:
    """Build the fixture in a child process, so that its training does not
    count towards this process's set-up time or peak memory."""
    code = ("import json, sys; sys.path[:0] = json.loads(sys.argv[1]); import workloads; "
            "workloads.make_predict_fixture(sys.argv[2], "
            "workloads.Sizes(**json.loads(sys.argv[3])))")
    t0 = time.perf_counter()
    _python_child(code, path, json.dumps(dataclasses.asdict(s)))
    return time.perf_counter() - t0


def setup_predict_short(seed: int, s: Sizes, workdir: str):
    model, _ = Model.load(os.path.join(workdir, "baseline.sebn"))
    corpus = generate_synthetic(SynthConfig(n_examples=s.predict_pool), seed)
    encoded = [encode_example(ex, model.vocab, model.enc_cfg.max_len) for ex in corpus]
    batches = [batch(c) for c in _chunks(encoded, s.batch_size)]
    singles = [batch([e]) for e in encoded[:s.single_pool]]
    return model, corpus, batches, singles


def predict_short(run: Run, seed: int, seconds: float, workdir: str) -> dict:
    s = run.sizes
    run.record["fixture_s"] = _fixture_in_child(os.path.join(workdir, "baseline.sebn"), s)
    model, corpus, batches, singles = run.setup("predict_short", seed, workdir)
    recall = model.recall_config(k=TOP_K, max_span_len=MAX_SPAN_LEN)
    sampled: dict[str, list] = {"predict_batch": [], "predict_one": []}

    def predictor(kind, pool, keep):
        def op(i):
            out = model.predict(pool[i % len(pool)], recall)
            if i < keep:
                sampled[kind].append((i, out))
        return op

    predict_batch = predictor("predict_batch", batches, s.oracle_batches)
    predict_one = predictor("predict_one", singles, s.oracle_singles)

    def predict_round(r):
        # the two phases interleave, so both sample the whole run
        run.call("predict_batch", predict_batch, r)
        for j in range(s.singles_per_round):
            run.call("predict_one", predict_one, r * s.singles_per_round + j)

    run.call("warmup_predict_batch", model.predict, batches[0], recall)
    run.call("warmup_predict_one", model.predict, singles[0], recall)
    rounds = run.loop(seconds, s.predict_min_rounds, predict_round)
    n_b, n_1 = rounds, rounds * s.singles_per_round

    for kind, pool in (("predict_batch", batches), ("predict_one", singles)):
        for i, out in sampled[kind]:
            run.reject(kind, _check_predict_batch(model, pool[i % len(pool)],
                                                  recall, out))

    loss = eval_loss(model, batches)
    _learning_check(run, model, batches, loss)

    run.record["traffic"] = {
        "predict_batch": _shape([batches[i % len(batches)] for i in range(n_b)],
                                n_b * s.batch_size, corpus),
        "predict_one": _shape([singles[i % len(singles)] for i in range(n_1)],
                              n_1, corpus[:s.single_pool]),
    }
    run.record["latency"] = {k: latency_summary(run.plain[k])
                             for k in ("predict_batch", "predict_one")}
    return {
        "ex_per_s": s.batch_size / run.median("predict_batch"),
        "op_ms_p50": 1e3 * run.median("predict_one"),
        "loss": loss,
    }


# -------------------------------------------------------------- cli_cycle


def _cli_corpus(seed: int, s: Sizes):
    """Training records whose gold entities flatten to exactly
    ``cli_train_flat`` examples, plus ``cli_dev`` dev records; 20% of
    records hold several entities."""
    records = generate_synthetic(
        SynthConfig(n_examples=s.cli_train_flat + s.cli_dev,
                    multi_entity_fraction=0.2, min_distractors=3,
                    max_distractors=3, filler_len=(5, 6)), seed)
    train, rest, flat = [], [], 0
    for ex in records:
        n = len(ex.gold_entities)
        if flat + n <= s.cli_train_flat:
            train.append(ex)
            flat += n
        else:
            rest.append(ex)
    return train, rest[:s.cli_dev]


def _read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def setup_cli_cycle(seed: int, s: Sizes, workdir: str):
    train, dev = _cli_corpus(seed, s)
    write_jsonl(train, os.path.join(workdir, "train.jsonl"))
    write_jsonl(dev, os.path.join(workdir, "dev.jsonl"))
    return train, dev


def cli_cycle(run: Run, seed: int, seconds: float, workdir: str) -> dict:
    s = run.sizes
    paths = {name: os.path.join(workdir, name) for name in
             ("train.jsonl", "dev.jsonl", "model.sebn", "train_log.jsonl",
              "pred.jsonl")}
    train, dev = run.setup("cli_cycle", seed, workdir)
    flat = flatten_for_training(train)
    shape_flags = ["--batch-size", str(s.batch_size), "--d-model", str(s.d_model),
                   "--n-layers", str(s.n_layers), "--n-heads", str(s.n_heads),
                   "--d-ff", str(s.d_ff), "--dropout", str(s.dropout),
                   "--hidden", str(s.hidden), "--max-len", str(s.max_len)]
    train_argv = ["train", "--train", paths["train.jsonl"], "--dev", paths["dev.jsonl"],
                  "--variant", "hsebertnets", "--cell", "lstm", "--epochs", "1",
                  "--seed", "0", "--checkpoint", paths["model.sebn"],
                  "--log", paths["train_log.jsonl"]] + shape_flags
    eval_argv = ["eval", "--checkpoint", paths["model.sebn"], "--data", paths["dev.jsonl"],
                 "--top-k", str(TOP_K), "--max-span-len", str(MAX_SPAN_LEN),
                 "--batch-size", str(s.batch_size), "--json"]
    predict_argv = ["predict", "--checkpoint", paths["model.sebn"],
                    "--data", paths["dev.jsonl"], "--top-k", str(TOP_K),
                    "--max-span-len", str(MAX_SPAN_LEN),
                    "--batch-size", str(s.batch_size), "--out", paths["pred.jsonl"]]
    gold = {ex.id: list(ex.gold_entities) for ex in dev}

    def command(argv, stdout=None):
        with contextlib.redirect_stdout(stdout or io.StringIO()):
            code = console_main(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with code {code}")
        return code

    # the traffic record: every batch the CLI builds in the first cycle,
    # by command; inside ``train``, batches without golds are dev scoring
    shapes: dict[str, list] = defaultdict(list)
    current = ["train"]

    def seen(b):
        gold = current[0] != "train" or (b.golds >= 0).all()
        shapes[current[0] if gold else "train.dev_scoring"].append(b)

    batch_probe = Tracer(only={"data.batch"}, batch_hook=seen)

    epoch_losses: list[float] = []
    serve_s: list[float] = []
    loss = None
    dev_f1 = None
    deadline = time.perf_counter() + seconds
    last_cycle = 0.0
    cycle = 0
    while cycle == 0 or time.perf_counter() + last_cycle <= deadline + 0.1 * seconds:
        t0 = time.perf_counter()
        for p in ("model.sebn", "train_log.jsonl", "pred.jsonl"):
            if os.path.exists(paths[p]):
                os.remove(paths[p])
        if cycle == 0:
            batch_probe.install()
        current[0] = "train"
        ok_train = run.call("train", command, train_argv) is not None
        report = io.StringIO()
        current[0] = "eval"
        ok_eval = run.call("eval", command, eval_argv, report) is not None
        eval_s = run.last_plain_s
        current[0] = "predict"
        ok_predict = run.call("predict", command, predict_argv) is not None
        if eval_s is not None and run.last_plain_s is not None:
            serve_s.append(eval_s + run.last_plain_s)
        batch_probe.uninstall()
        last_cycle = time.perf_counter() - t0
        cycle += 1

        if ok_train:
            log = _read_jsonl(paths["train_log.jsonl"])
            problems = []
            if len(log) != 1 or not math.isfinite(log[0].get("loss", math.nan)):
                problems.append(f"training log {log!r} lacks one finite epoch loss")
            else:
                epoch_losses.append(log[0]["loss"])
                dev_f1 = log[0].get("dev_f1")
                if epoch_losses[0] != epoch_losses[-1]:
                    problems.append(f"epoch loss {epoch_losses[-1]!r} differs from the "
                                    f"first cycle's {epoch_losses[0]!r} for the same seed")
            run.reject("train", problems)
            if loss is None:
                model, _ = Model.load(paths["model.sebn"])
                encoded = [encode_example(ex, model.vocab, model.enc_cfg.max_len)
                           for ex in flat]
                probe = [batch(c) for c in _chunks(encoded, s.batch_size)]
                loss = eval_loss(model, probe)
                _learning_check(run, model, probe, loss)
        if not ok_predict:
            continue
        preds = _read_jsonl(paths["pred.jsonl"])
        by_id = {p["id"]: [e["text"] for e in p["entities"]] for p in preds}
        if ok_eval:
            run.reject("eval", oracle.check_report(json.loads(report.getvalue()),
                                                   by_id, gold, TOP_K))
        run.reject("predict", _check_cli_predictions(paths["model.sebn"], dev, preds, s))

    run.record["cycles"] = cycle
    run.record["epoch_loss"] = epoch_losses[0] if epoch_losses else None
    run.record["dev_f1"] = dev_f1
    run.record["checkpoint_bytes"] = os.path.getsize(paths["model.sebn"])
    run.record["traffic"] = {
        cmd: _shape(bs, sum(len(b) for b in bs), train if cmd == "train" else dev)
        for cmd, bs in shapes.items() if bs}
    run.record["traffic"]["train"]["flat_examples"] = len(flat)
    run.record["latency"] = {k: latency_summary(run.plain[k])
                             for k in ("train", "eval", "predict")}
    run.record["latency"]["eval_plus_predict"] = latency_summary(serve_s)
    if not serve_s or loss is None:
        raise RuntimeError("no cycle completed train, eval and predict")
    return {
        "ex_per_s": len(flat) / run.median("train"),
        "op_ms_p50": 1e3 * statistics.median(serve_s),
        "loss": loss,
    }


def _check_cli_predictions(ckpt, dev, preds, s: Sizes) -> list[str]:
    """Oracle over the first ``cli_oracle_records`` predicted records,
    with logits recomputed from the checkpoint on the CLI's batching
    (file order, ``batch_size`` rows)."""
    model, _ = Model.load(ckpt)
    recall = model.recall_config(k=TOP_K, max_span_len=MAX_SPAN_LEN)
    sample = dev[:s.cli_oracle_records]
    problems = []
    if [p["id"] for p in preds] != [ex.id for ex in dev]:
        problems.append("prediction ids differ from the input records")
    for start in range(0, len(sample), s.batch_size):
        chunk = [dataclasses.replace(ex, entity=None, entities=None)
                 for ex in dev[start:start + s.batch_size]]
        b = batch([encode_example(ex, model.vocab, model.enc_cfg.max_len) for ex in chunk])
        logits, _ = model.forward(b)
        for j, item in enumerate(b.items):
            if start + j >= len(sample):
                break
            got = [(e["start"], e["end"], e["score"], e["text"])
                   for e in preds[start + j]["entities"]]
            ex = logits.example(j)
            problems += oracle.check_candidates(
                got, ex.start_logits.data, ex.end_logits.data, ex.valid,
                item.text, item.text_span, recall.k, recall.max_span_len)
    return problems


# ----------------------------------------------------------- one workload

WORKLOADS = {
    "train_long": train_long,
    "predict_short": predict_short,
    "cli_cycle": cli_cycle,
}
SETUPS = {
    "train_long": setup_train_long,
    "predict_short": setup_predict_short,
    "cli_cycle": setup_cli_cycle,
}


def _overhead(run: Run) -> float:
    """Traced over untraced time, per operation kind, weighted by the
    number of traced operations of that kind; minus one."""
    traced = plain = 0.0
    for kind, ts in run.traced.items():
        if ts and run.plain.get(kind):
            traced += statistics.median(ts) * len(ts)
            plain += statistics.median(run.plain[kind]) * len(ts)
    return traced / plain - 1.0 if plain else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, sizes: Sizes = FULL) -> dict:
    """Run one workload; returns the result record (metrics included)."""
    run = Run(trace, sizes)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        measured = WORKLOADS[name](run, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = dict(run.record)
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_reps_s": run.setup_reps,
        "failures": run.failures,
        "ops": {k: len(v) for k, v in run.plain.items()},
    })
    if run.tracer is None:
        values = dict(measured)
        values["setup_s"] = statistics.median(run.setup_reps)
        values["peak_rss_mb"] = peak_mb
        metrics = {k: {"value": values[k], "unit": u} for k, u in METRICS.items()}
    else:
        timed = [k for k in run.traced if not k.startswith("warmup")]
        summary = run.tracer.summary(timed)
        units = per_layer_metric_units()
        values = {}
        for span, st in summary["spans"].items():
            for stat, v in st.items():
                values[f"{span}.{stat}"] = v
        values.update(summary["counts"])
        values["trace.coverage"] = summary["coverage"]
        values["trace.overhead"] = _overhead(run)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        record["traced_ops"] = {k: len(v) for k, v in run.traced.items()}
        record["trace_missing_targets"] = summary["missing_targets"]
        record["end_to_end_in_traced_run"] = measured
        spans_path = os.path.join(out_dir, f"{name}-seed{seed}.spans.jsonl")
        run.tracer.write(spans_path)
        record["spans_file"] = spans_path
    record["attempted"] = run.attempted
    record["failed"] = run.failed
    record["correct"] = run.failed == 0
    record["metrics"] = metrics
    return record
