"""The shared worker rule (``threads.threaded``) and the recorded encoder
blocks on two batch halves: the split pass equals the whole one bit for
bit, keeps its arena calls on the calling thread and raises a half's
error only once both halves have finished."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from sebertnets import encoder as E
from sebertnets import recurrent as R
from sebertnets import tensor as T
from sebertnets import threads
from sebertnets.data import (SynthConfig, Vocabulary, batch, encode_example,
                             flatten_for_training, generate_synthetic)
from sebertnets.encoder import EncoderConfig
from sebertnets.errors import DegenerateMaskError
from sebertnets.model import BERT_BASELINE, HSEBERTNETS, SEBERTNETS, Model, ModelConfig
from sebertnets.optim import make_state
from sebertnets.span import span_loss

# per variant: its cell and its FFN activation, so that both cells and
# both activations run split
SHAPES = {BERT_BASELINE: (R.GRU, "relu"), SEBERTNETS: (R.GRU, "gelu"),
          HSEBERTNETS: (R.LSTM, "relu")}


def build(variant, dropout, dtype, n):
    corpus = generate_synthetic(SynthConfig(n_examples=40), 0)
    vocab = Vocabulary.from_corpus(corpus)
    cell, activation = SHAPES[variant]
    enc_cfg = EncoderConfig(vocab_size=vocab.size, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                            max_len=140, dropout_rate=dropout, activation=activation)
    model = Model(ModelConfig(variant=variant, cell=cell, hidden_size=8), enc_cfg, vocab,
                  seed=0)
    for p in model.parameters().values():
        p.data = p.data.astype(dtype)
    flat = flatten_for_training(corpus)[:n]
    return model, batch([encode_example(ex, vocab, enc_cfg.max_len) for ex in flat])


def outputs(model, b):
    """The recorded logits and loss, every parameter gradient, and the
    losses and weights over 3 Adam steps."""
    params = model.parameters()
    with T.Tape() as tape:
        logits, _ = model.forward(b, rng=np.random.default_rng(7))
        loss = span_loss(logits, b.golds)
    got = [logits.start_logits.data, logits.end_logits.data, loss.data]
    T.backward(tape, loss)
    got += [p.grad for p in params.values()]
    state, rng = make_state("adam", lr=1e-3), np.random.default_rng(11)
    got += [np.float64(model.train_step(b, state, rng)) for _ in range(3)]
    return got + [p.data for p in params.values()]


def on_threads(monkeypatch):
    """Thread idents of every run of queued per-row encoder work."""
    idents, real = [], E._run

    def run(queue, r):
        idents.append(threading.get_ident())
        real(queue, r)
    monkeypatch.setattr(E, "_run", run)
    return idents


@pytest.mark.parametrize("variant", sorted(SHAPES))
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [5, 32])
def test_split_blocks_equal_whole_blocks_bit_for_bit(monkeypatch, variant, dropout, dtype,
                                                     n):
    """At 5 rows the halves are 2 and 3 rows."""
    idents = on_threads(monkeypatch)
    runs = []
    for split in (False, True):
        monkeypatch.setattr(threads, "threaded", lambda rows, on=split: on)
        model, b = build(variant, dropout, dtype, n)
        assert b.token_ids.shape[0] == n
        runs.append(outputs(model, b))
        assert model._arena.taken_bytes == 0
        if not split:
            assert idents == []
    # both halves of every block ran, one on the worker
    assert len(set(idents)) == 2 and threading.get_ident() in idents
    whole, halves = runs
    assert len(whole) == len(halves)
    for a, c in zip(whole, halves):
        assert a.dtype == c.dtype and a.shape == c.shape
        assert a.tobytes() == c.tobytes()


def test_tape_free_and_one_row_passes_stay_whole(monkeypatch):
    monkeypatch.setattr(threads, "threaded", lambda rows: rows > 1)
    idents = on_threads(monkeypatch)
    model, b = build(SEBERTNETS, 0.1, np.float32, 8)
    model.forward(b)  # tape-free
    one, b1 = build(SEBERTNETS, 0.1, np.float32, 1)
    one.train_step(b1, make_state("adam"), np.random.default_rng(0))
    assert idents == []
    model.train_step(b, make_state("adam"), np.random.default_rng(0))
    assert len(idents) > 0


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_half_error_surfaces_once_both_halves_have_finished(monkeypatch, failing):
    monkeypatch.setattr(threads, "threaded", lambda rows: True)
    model, b = build(SEBERTNETS, 0.1, np.float64, 6)
    here, finished, real = threading.get_ident(), threading.Event(), E._run

    def run(queue, r):
        if (threading.get_ident() == here) == (failing == "caller"):
            raise DegenerateMaskError("a half failed")
        time.sleep(0.2)  # the other half is still running
        real(queue, r)
        finished.set()
    monkeypatch.setattr(E, "_run", run)
    with pytest.raises(DegenerateMaskError, match="a half failed"):
        model.train_step(b, make_state("adam"), np.random.default_rng(0))
    assert finished.is_set()


def test_a_multithreaded_blas_runs_both_layers_inline(monkeypatch):
    """With BLAS threads of their own, the two parts' products would
    contend for the same cores: the encoder and the recurrent layer then
    run on the calling thread. A count that cannot be read is taken as
    one thread."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs os.sched_getaffinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(threads, "blas_threads", lambda: 2)
    assert not threads.threaded(32)
    idents, real_sweep = on_threads(monkeypatch), R._sweep

    def sweep(*args):
        idents.append(threading.get_ident())
        real_sweep(*args)
    monkeypatch.setattr(R, "_sweep", sweep)
    model, b = build(SEBERTNETS, 0.1, np.float32, 8)
    model.train_step(b, make_state("adam"), np.random.default_rng(0))
    assert set(idents) == {threading.get_ident()} and len(idents) == 2
    for count, on in ((1, True), (None, True), (4, False)):
        monkeypatch.setattr(threads, "blas_threads", lambda c=count: c)
        assert threads.threaded(32) == on


def test_blas_threads_reads_a_count_once():
    first = threads.blas_threads()
    assert first is None or (isinstance(first, int) and first >= 1)
    assert threads.blas_threads() is first


def test_two_training_threads_share_the_worker(monkeypatch):
    """Two threads training at once hand their halves to the one worker,
    three threads on two cores, with the interpreter switching threads
    often: each gets what a whole pass gives, bit for bit."""
    monkeypatch.setattr(threads, "threaded", lambda rows: False)
    want = outputs(*build(HSEBERTNETS, 0.1, np.float32, 12))
    monkeypatch.setattr(threads, "threaded", lambda rows: True)
    got, errors = {}, []

    def train(i):
        try:
            got[i] = outputs(*build(HSEBERTNETS, 0.1, np.float32, 12))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runners = [threading.Thread(target=train, args=(i,)) for i in range(2)]
        for t in runners:
            t.start()
        for t in runners:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in runners) and errors == []
    for i in range(2):
        assert [a.tobytes() for a in got[i]] == [a.tobytes() for a in want]
