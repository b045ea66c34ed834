"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

1.  Gradient suite: every kind of stage a training chain holds, each
    encoder block, the span head and the span loss on its own and the
    recurrent layer in the composed 2-layer-encoder + 4-step-BiLSTM/BiGRU
    + span-loss chain, against fp64 central differences, rel err < 1e-5,
    100 randomized trials each.
2.  lstm_step / gru_step match straight-line fp64 references bit-exactly
    on 1000 random cases each.
3.  Encoder and bidirectional outputs at real positions invariant to
    padding length (<= 1e-6), lengths 1..20, both cells.
4.  decode_top1 equals exhaustive enumeration on 500 random logit sets;
    decode_multichannel satisfies prefix/dedup/sorted on the same sets.
5.  Tiny recurrent variant overfits a 64-example corpus to train
    F1@1 = 1.0 within 300 epochs.
6.  Encoder-only dev F1@1 <= recurrent dev F1@1 (majority of 3 seeds) on
    a 2000-example corpus with 500 held out; F1@k monotone for every
    variant and seed.
7.  On a 50% multi-entity corpus the multi-channel decode's F1@3
    strictly beats the repeated single top-1 candidate, 3 of 3 seeds.
8.  SWATS on a 10-d quadratic: switches within 5000 steps, pre-switch
    bit-matches Adam, post-switch bit-matches SGD at the locked rate,
    never reverts.
9.  evaluate matches a brute-force counter on 200 randomized sets;
    f1(0.5, 1) = 2/3 exactly.
10. Checkpoint save -> load -> forward is bit-identical; corrupting any
    header byte is detected.

Every test also asserts its own wall-clock budget.
"""

import dataclasses
import time

import numpy as np
import pytest

from gradcheck import (REL_TOL, check_grads, grad_close, kernel_op, numeric_grad_at,
                       source, weighted_sum)
from sebertnets import encoder as E
from sebertnets import span as S
from sebertnets.data import (
    SynthConfig,
    Vocabulary,
    batch,
    encode_example,
    flatten_for_training,
    generate_synthetic,
)
from sebertnets.encoder import EncoderConfig, encode, encoder_layout
from sebertnets.errors import CheckpointError
from sebertnets.evaluation import evaluate, f1
from sebertnets.model import (
    BERT_BASELINE,
    HSEBERTNETS,
    SEBERTNETS,
    Model,
    ModelConfig,
)
from sebertnets.optim import (
    SGD_PHASE,
    AdamState,
    SgdState,
    SwatsState,
    adam_step,
    make_state,
    sgd_step,
    swats_step,
)
from sebertnets.recurrent import (
    GRU,
    LSTM,
    CellState,
    RecurrentParams,
    bidirectional_encode,
    direction_layout,
    gru_step,
    lstm_step,
)
from sebertnets.span import (
    RecallConfig,
    SpanLogits,
    decode_multichannel,
    decode_top1,
    head_layout,
    score,
    span_loss,
)
from sebertnets.tensor import Chain, Tensor, backward, draw


def _elapsed_ok(t0: float, budget: float, label: str) -> None:
    dt = time.monotonic() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
    print(f"{label}: PASS in {dt:.1f}s")


# ---------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------


# the kind of stage that criterion 1 checks in its composed chain only
COMPOSED_ONLY = "recurrent"


def _stage_trials(rng):
    """name -> (build, arrays): one randomized check per kind of stage but
    ``COMPOSED_ONLY``, named by its kind and a variant after "_". Encoder
    blocks run with dropout on (a fixed mask per trial), over a ragged key
    mask and both activations; the span head over one example's states
    and over a batch's, whose scorers the batch shares; the span loss,
    the scalar a chain ends in, over ragged valid positions."""
    n = rng.standard_normal
    b, s, d, heads, ff, rate = 2, 3, 4, 2, 5, 0.3
    ids = rng.integers(0, 6, size=(b, s))
    segs = rng.integers(0, 2, size=(b, s))
    keys = rng.random((b, s)) > 0.4
    keys[np.arange(b), rng.integers(0, s, size=b)] = True
    neg = np.where(keys, 0.0, -np.inf)[:, None, None, :]
    drop_seed = int(rng.integers(0, 2 ** 31))
    w_out = n((b, s, d))
    golds = np.array([rng.choice(np.flatnonzero(row), size=2) for row in keys])

    def block(fn, *args):
        def build(chain, *tensors):
            op = kernel_op(fn, *args, rate, np.random.default_rng(drop_seed))
            return weighted_sum(chain, op(chain, *tensors), w_out)
        return build

    def ln():
        return [1.0 + 0.1 * n(d), 0.1 * n(d)]

    def linear(n_in, n_out, bias=True):
        return [n((n_in, n_out)) / np.sqrt(n_in)] + ([0.1 * n(n_out)] if bias else [])

    def head(w):
        return lambda chain, *tensors: weighted_sum(chain, kernel_op(S._head)(chain, *tensors),
                                                    w)

    def scorers():
        return [n((d, 1)), n((d, 1))]

    def loss(chain, scores):
        logits = SpanLogits(source(chain, scores), keys)
        return span_loss(logits, golds, chain=chain).data

    return {
        "embedding": (block(E._embedding, ids, segs),
                      [n((6, d)), n((s, d)), n((2, d)), *ln()]),
        "attention": (block(E._attention, neg, heads, []),
                      [n((b, s, d)), *linear(d, d), *linear(d, d, bias=False),
                       *linear(d, d), *linear(d, d), *ln()]),
        "ffn_relu": (block(E._ffn, "relu"),
                     [n((b, s, d)), *linear(d, ff), *linear(ff, d), *ln()]),
        "ffn_gelu": (block(E._ffn, "gelu"),
                     [n((b, s, d)), *linear(d, ff), *linear(ff, d), *ln()]),
        "head_mat": (head(n((2, s))), [n((s, d)), *scorers()]),
        "head_batched_shared": (head(n((2, b, s))), [n((b, s, d)), *scorers()]),
        "loss": (loss, [n((2, b, s))]),
    }


def _composed_loss(leaves, enc_cfg, cell, ids, segs, attn_mask, valid, golds,
                   chain=None):
    """Encoder -> bidirectional recurrent layer -> span loss over a flat
    name -> fp64 Tensor dict, recorded on ``chain`` if one is given.
    Returns the loss as a float."""
    enc_params = {k[len("enc."):]: v for k, v in leaves.items()
                  if k.startswith("enc.")}
    head = {k[len("head."):]: v for k, v in leaves.items()
            if k.startswith("head.")}

    def rnn(prefix, size_in, size_h):
        weights = {k[len(prefix):]: v for k, v in leaves.items()
                   if k.startswith(prefix)}
        return RecurrentParams(cell=cell, input_size=size_in,
                               hidden_size=size_h, weights=weights)

    hidden = 3
    out = encode(ids, segs, attn_mask, enc_params, enc_cfg, chain=chain)
    h = bidirectional_encode(out.hidden, attn_mask,
                             rnn("fwd.", enc_cfg.d_model, hidden),
                             rnn("bwd.", enc_cfg.d_model, hidden), chain=chain)
    logits = score(h, head, valid, chain=chain)
    return float(span_loss(logits, golds, chain=chain).data)


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    master = np.random.default_rng(1001)
    for trial in range(100):
        rng = np.random.default_rng(master.integers(0, 2 ** 63))
        for name, (build, arrays) in _stage_trials(rng).items():
            try:
                check_grads(build, arrays)
            except AssertionError as exc:
                raise AssertionError(f"op {name}, trial {trial}: {exc}")

    # composed graph: two encoder layers, four real recurrent steps
    enc_cfg = EncoderConfig(vocab_size=7, d_model=4, n_layers=2, n_heads=2,
                            d_ff=6, max_len=8, dropout_rate=0.0)
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        cell = LSTM if trial % 2 == 0 else GRU
        arrays = {}
        for pre, part in (("enc.", encoder_layout(enc_cfg)),
                          ("fwd.", direction_layout(cell, enc_cfg.d_model, 3)),
                          ("bwd.", direction_layout(cell, enc_cfg.d_model, 3)),
                          ("head.", head_layout(6))):
            for k, v in draw(part, rng, np.float64).items():
                arrays[pre + k] = v.data

        ids = rng.integers(0, 7, size=(2, 6))
        segs = rng.integers(0, 2, size=(2, 6))
        attn_mask = np.zeros((2, 6), dtype=bool)
        attn_mask[:, :4] = True  # four real steps, two padded
        valid = np.zeros((2, 6), dtype=bool)
        valid[:, 1:4] = True
        golds = np.stack([rng.integers(1, 4, size=2),
                          rng.integers(1, 4, size=2)], axis=1)
        golds = np.sort(golds, axis=1)

        leaves = {k: Tensor(v) for k, v in arrays.items()}
        chain = Chain(leaves)
        _composed_loss(leaves, enc_cfg, cell, ids, segs, attn_mask, valid, golds, chain)
        grads = {}
        backward(chain, grads)

        names = sorted(arrays)
        picks = [names[i] for i in rng.choice(len(names), size=6, replace=False)]
        for name in picks:
            base = arrays[name]
            coord = int(rng.integers(0, base.size))

            def loss_at(x, name=name):
                vals = dict(arrays)
                vals[name] = x
                return _composed_loss({k: Tensor(v) for k, v in vals.items()}, enc_cfg,
                                      cell, ids, segs, attn_mask, valid, golds)

            num = numeric_grad_at(loss_at, base, [coord])[0]
            ana = float(grads[name].ravel()[coord])
            assert grad_close(np.array(ana), np.array(num)), (
                f"composed graph trial {trial}, {name}[{coord}]: "
                f"analytic {ana} vs numeric {num}")
    _elapsed_ok(t0, 120.0, "criterion 1 (gradient suite)")


# ---------------------------------------------------------------------
# criterion 2: recurrent equation oracle
# ---------------------------------------------------------------------


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _ref_lstm(x, h, c, W, U, b):
    f = _sig((x @ W["f"] + h @ U["f"]) + b["f"])
    i = _sig((x @ W["i"] + h @ U["i"]) + b["i"])
    o = _sig((x @ W["o"] + h @ U["o"]) + b["o"])
    g = np.tanh((x @ W["c"] + h @ U["c"]) + b["c"])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def _ref_gru(x, h, W, U, b):
    z = _sig((x @ W["update"] + h @ U["update"]) + b["update"])
    r = _sig((x @ W["reset"] + h @ U["reset"]) + b["reset"])
    cand = np.tanh((x @ W["candidate"] + (r * h) @ U["candidate"])
                   + b["candidate"])
    return (1.0 - z) * h + z * cand


def _random_cell_params(cell, rng, d_in, d_h):
    gates = ("f", "i", "o", "c") if cell == LSTM else ("update", "reset",
                                                       "candidate")
    W = {g: 3.0 * rng.standard_normal((d_in, d_h)) for g in gates}
    U = {g: 3.0 * rng.standard_normal((d_h, d_h)) for g in gates}
    b = {g: 3.0 * rng.standard_normal(d_h) for g in gates}
    weights = {}
    for g in gates:
        weights[f"w_{g}"] = Tensor(W[g])
        weights[f"u_{g}"] = Tensor(U[g])
        weights[f"b_{g}"] = Tensor(b[g])
    params = RecurrentParams(cell=cell, input_size=d_in, hidden_size=d_h,
                             weights=weights)
    return params, W, U, b


def test_criterion_02_recurrent_equation_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(22)
    for case in range(1000):
        d_in = int(rng.integers(1, 5))
        d_h = int(rng.integers(1, 5))
        x = rng.standard_normal((1, d_in))
        h = rng.standard_normal((1, d_h))
        c = rng.standard_normal((1, d_h))

        params, W, U, b = _random_cell_params(LSTM, rng, d_in, d_h)
        state = lstm_step(Tensor(x), CellState(h=Tensor(h), c=Tensor(c)), params)
        want_h, want_c = _ref_lstm(x, h, c, W, U, b)
        assert np.array_equal(state.h.data, want_h), f"LSTM h, case {case}"
        assert np.array_equal(state.c.data, want_c), f"LSTM c, case {case}"

        params, W, U, b = _random_cell_params(GRU, rng, d_in, d_h)
        got = gru_step(Tensor(x), Tensor(h), params)
        want = _ref_gru(x, h, W, U, b)
        assert np.array_equal(got.data, want), f"GRU h, case {case}"
    _elapsed_ok(t0, 10.0, "criterion 2 (recurrent equation oracle)")


# ---------------------------------------------------------------------
# criterion 3: mask/padding equivalence
# ---------------------------------------------------------------------


def test_criterion_03_mask_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(33)
    d_in, d_h = 5, 4

    for cell in (LSTM, GRU):
        layout = direction_layout
        fwd = RecurrentParams(cell, d_in, d_h, draw(layout(cell, d_in, d_h), rng))
        bwd = RecurrentParams(cell, d_in, d_h, draw(layout(cell, d_in, d_h), rng))
        for length in range(1, 21):
            pad = int(rng.integers(1, 9))
            seq = rng.standard_normal((1, length + pad, d_in)).astype(np.float32)
            mask = np.zeros((1, length + pad), dtype=bool)
            mask[0, :length] = True
            padded = bidirectional_encode(Tensor(seq), mask, fwd, bwd)
            bare = bidirectional_encode(Tensor(seq[:, :length].copy()),
                                        np.ones((1, length), dtype=bool),
                                        fwd, bwd)
            diff = np.abs(padded.data[:, :length] - bare.data).max()
            assert diff <= 1e-6, f"{cell} length {length}: diff {diff}"
            tail = np.abs(padded.data[:, length:]).max()
            assert tail == 0.0, f"{cell} length {length}: masked rows nonzero"

    enc_cfg = EncoderConfig(vocab_size=11, d_model=8, n_layers=2, n_heads=2,
                            d_ff=12, max_len=32, dropout_rate=0.0)
    params = draw(encoder_layout(enc_cfg), rng)
    for length in range(1, 21):
        pad = int(rng.integers(1, 9))
        ids = rng.integers(0, 11, size=(1, length))
        segs = np.zeros((1, length), dtype=np.int64)
        ids_p = np.concatenate([ids, np.zeros((1, pad), dtype=ids.dtype)], axis=1)
        segs_p = np.zeros((1, length + pad), dtype=np.int64)
        mask_p = np.zeros((1, length + pad), dtype=bool)
        mask_p[0, :length] = True
        bare = encode(ids, segs, np.ones((1, length), dtype=bool), params,
                      enc_cfg).hidden
        padded = encode(ids_p, segs_p, mask_p, params, enc_cfg).hidden
        diff = np.abs(padded.data[:, :length] - bare.data).max()
        assert diff <= 1e-6, f"encoder length {length}: diff {diff}"
    _elapsed_ok(t0, 30.0, "criterion 3 (mask equivalence)")


# ---------------------------------------------------------------------
# criterion 4: decode oracle
# ---------------------------------------------------------------------


def _ref_log_softmax(x, valid):
    x = np.asarray(x, dtype=np.float64)
    out = np.full_like(x, -np.inf)
    vals = x[valid]
    shifted = vals - vals.max()
    out[valid] = shifted - np.log(np.exp(shifted).sum())
    return out


def _brute_force_top1(lp_s, lp_e, valid, max_span_len):
    best = None
    n = len(lp_s)
    for s in range(n):
        if not valid[s]:
            continue
        for e in range(s, min(n, s + max_span_len)):
            if not valid[e]:
                continue
            sc = lp_s[s] + lp_e[e]
            if best is None or sc > best[0]:
                best = (sc, s, e)
    return best


def test_criterion_04_decode_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    checked_prefix = 0
    for case in range(500):
        n = int(rng.integers(2, 21))
        first = int(rng.integers(0, n))
        last = int(rng.integers(first, n))
        valid = np.zeros(n, dtype=bool)
        valid[first:last + 1] = True
        start = rng.standard_normal(n)
        end = rng.standard_normal(n)
        msl = int(rng.integers(1, 8))
        text = "".join(chr(ord("一") + i) for i in range(last - first + 1))
        logits = SpanLogits(Tensor(np.stack([start, end])), valid)
        cfg1 = RecallConfig(k=1, max_span_len=msl)

        got = decode_top1(logits, text, (first, last), cfg1)
        lp_s = _ref_log_softmax(start, valid)
        lp_e = _ref_log_softmax(end, valid)
        want = _brute_force_top1(lp_s, lp_e, valid, msl)
        assert (got.start, got.end) == (want[1], want[2]), f"case {case}"
        assert abs(got.score - want[0]) < 1e-9, f"case {case} score"

        lists = {}
        for k in (1, 3, 5, 7):
            cfg = RecallConfig(k=k, max_span_len=msl)
            cands = decode_multichannel(logits, text, (first, last), cfg)
            lists[k] = cands
            assert 1 <= len(cands) <= k
            assert (cands[0].start, cands[0].end) == (got.start, got.end)
            scores = [c.score for c in cands]
            assert all(a >= b for a, b in zip(scores, scores[1:]))
            texts = [c.entity_text for c in cands]
            assert len(set(texts)) == len(texts)
            for c in cands:
                assert first <= c.start <= c.end <= last
                assert c.end - c.start < msl
        for k_small, k_big in ((1, 3), (3, 5), (5, 7)):
            assert lists[k_big][:len(lists[k_small])] == lists[k_small]
            checked_prefix += 1
    assert checked_prefix == 1500
    _elapsed_ok(t0, 10.0, "criterion 4 (decode oracle)")


# ---------------------------------------------------------------------
# shared training helpers for criteria 5-7
# ---------------------------------------------------------------------

MAX_LEN = 48


def _build_model(variant, corpus, seed):
    vocab = Vocabulary.from_corpus(corpus)
    enc_cfg = EncoderConfig(vocab_size=vocab.size, d_model=32, n_layers=1,
                            n_heads=2, d_ff=64, max_len=MAX_LEN,
                            dropout_rate=0.0)
    model = Model(ModelConfig(variant=variant, hidden_size=16), enc_cfg,
                  vocab, seed=seed)
    return model, vocab


def _encode_all(examples, vocab, with_gold):
    out = []
    for ex in examples:
        e = ex if with_gold else dataclasses.replace(ex, entity=None,
                                                     entities=None)
        out.append(encode_example(e, vocab, MAX_LEN))
    return out


def _batches(encoded, bs, order=None):
    idx = order if order is not None else np.arange(len(encoded))
    for i in range(0, len(idx), bs):
        yield batch([encoded[j] for j in idx[i:i + bs]])


def _train(model, encoded, epochs, bs, seed, lr=1e-3):
    state = make_state("adam", lr=lr)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(encoded))
        for b in _batches(encoded, bs, order):
            model.train_step(b, state, rng)
    return state


def _report(model, raw, encoded, k, repeat_top1=False):
    recall = model.recall_config(k=1 if repeat_top1 else k, max_span_len=10)
    preds = {}
    for b in _batches(encoded, 32):
        for item, cands in zip(b.items, model.predict(b, recall)):
            texts = [c.entity_text for c in cands]
            preds[item.example_id] = texts * k if repeat_top1 else texts
    gold = {ex.id: list(ex.gold_entities) for ex in raw}
    return evaluate(preds, gold, k_max=k)


# ---------------------------------------------------------------------
# criterion 5: overfit
# ---------------------------------------------------------------------


def test_criterion_05_overfit_tiny_config():
    t0 = time.monotonic()
    corpus = generate_synthetic(SynthConfig(n_examples=64), seed=11)
    model, vocab = _build_model(SEBERTNETS, corpus, seed=0)
    enc_train = _encode_all(flatten_for_training(corpus), vocab, True)
    enc_eval = _encode_all(corpus, vocab, False)
    state = make_state("adam", lr=1e-3)
    rng = np.random.default_rng(0)
    reached = None
    for epoch in range(1, 301):
        order = rng.permutation(len(enc_train))
        for b in _batches(enc_train, 8, order):
            model.train_step(b, state, rng)
        if epoch % 5 == 0:
            rep = _report(model, corpus, enc_eval, 1)
            if rep.f1[0] == 1.0:
                reached = epoch
                break
    assert reached is not None, "train F1@1 never reached 1.0 in 300 epochs"
    _elapsed_ok(t0, 300.0, f"criterion 5 (overfit at epoch {reached})")


# ---------------------------------------------------------------------
# criterion 6: directional ordering
# ---------------------------------------------------------------------


def test_criterion_06_directional_ordering():
    t0 = time.monotonic()
    corpus = generate_synthetic(SynthConfig(n_examples=2000), seed=21)
    train_raw, dev_raw = corpus[:1500], corpus[1500:]
    assert len(dev_raw) == 500
    wins = 0
    for seed in (0, 1, 2):
        f1_at_1 = {}
        for variant in (BERT_BASELINE, SEBERTNETS):
            model, vocab = _build_model(variant, train_raw, seed=seed)
            enc_train = _encode_all(flatten_for_training(train_raw), vocab, True)
            enc_dev = _encode_all(dev_raw, vocab, False)
            _train(model, enc_train, epochs=3, bs=32, seed=seed)
            rep = _report(model, dev_raw, enc_dev, 5)
            for a, b in zip(rep.f1, rep.f1[1:]):
                assert a <= b, f"{variant} seed {seed}: F1@k not monotone {rep.f1}"
            f1_at_1[variant] = rep.f1[0]
        if f1_at_1[BERT_BASELINE] <= f1_at_1[SEBERTNETS]:
            wins += 1
    assert wins >= 2, f"encoder-only beat the recurrent variant in {3 - wins}/3 seeds"
    _elapsed_ok(t0, 1200.0, f"criterion 6 (ordering holds {wins}/3 seeds)")


# ---------------------------------------------------------------------
# criterion 7: multi-entity recall
# ---------------------------------------------------------------------


def test_criterion_07_multi_entity_recall():
    t0 = time.monotonic()
    corpus = generate_synthetic(
        SynthConfig(n_examples=800, multi_entity_fraction=0.5), seed=31)
    train_raw, dev_raw = corpus[:600], corpus[600:]
    for seed in (0, 1, 2):
        model, vocab = _build_model(HSEBERTNETS, train_raw, seed=seed)
        enc_train = _encode_all(flatten_for_training(train_raw), vocab, True)
        enc_dev = _encode_all(dev_raw, vocab, False)
        _train(model, enc_train, epochs=4, bs=32, seed=seed)
        multi = _report(model, dev_raw, enc_dev, 3)
        single = _report(model, dev_raw, enc_dev, 3, repeat_top1=True)
        assert multi.f1[2] > single.f1[2], (
            f"seed {seed}: multi-channel F1@3 {multi.f1[2]:.4f} did not beat "
            f"repeated top-1 {single.f1[2]:.4f}")
    _elapsed_ok(t0, 1200.0, "criterion 7 (multi-entity recall)")


# ---------------------------------------------------------------------
# criterion 8: optimizer switch contract
# ---------------------------------------------------------------------


def test_criterion_08_swats_contract():
    t0 = time.monotonic()
    theta0 = np.random.default_rng(0).standard_normal(10)

    swats = Tensor(theta0.copy())
    st = SwatsState(adam=AdamState(lr=0.01), eps_switch=1e-4)
    adam_ref = Tensor(theta0.copy())
    adam_st = AdamState(lr=0.01)
    sgd_ref = None
    sgd_st = None
    k_star = None
    for step in range(1, 5001):
        swats_step({"p": swats}, {"p": swats.data.copy()}, st)
        if k_star is None:
            adam_step({"p": adam_ref}, {"p": adam_ref.data.copy()}, adam_st)
            assert np.array_equal(swats.data, adam_ref.data), (
                f"pre-switch step {step} drifted from pure Adam")
            if st.phase == SGD_PHASE:
                k_star = step
                sgd_ref = Tensor(swats.data.copy())
                sgd_st = SgdState(lr=st.sgd_lr)
        else:
            assert st.phase == SGD_PHASE, f"phase reverted at step {step}"
            sgd_step({"p": sgd_ref}, {"p": sgd_ref.data.copy()}, sgd_st)
            assert np.array_equal(swats.data, sgd_ref.data), (
                f"post-switch step {step} drifted from SGD")
    assert k_star is not None and k_star <= 5000, "no switch within 5000 steps"
    assert st.sgd_lr > 0.0
    _elapsed_ok(t0, 5.0, f"criterion 8 (switch at step {k_star})")


# ---------------------------------------------------------------------
# criterion 9: evaluation oracle
# ---------------------------------------------------------------------


def _brute_force_eval(preds, gold, k_max):
    identified = sum(1 for ex in gold if len(preds.get(ex, [])) > 0)
    annotated = sum(1 for ex in gold if len(gold[ex]) > 0)
    correct = []
    for k in range(1, k_max + 1):
        n = 0
        for ex in gold:
            top = preds.get(ex, [])[:k]
            if gold[ex] and any(g in top for g in gold[ex]):
                n += 1
        correct.append(n)
    return identified, annotated, correct


def test_criterion_09_eval_oracle():
    t0 = time.monotonic()
    assert f1(0.5, 1.0) == 2.0 / 3.0
    rng = np.random.default_rng(99)
    alphabet = ["甲", "乙", "丙", "丁", "戊"]
    for case in range(200):
        k_max = int(rng.integers(1, 6))
        n = int(rng.integers(1, 15))
        preds = {}
        gold = {}
        for i in range(n):
            ex = f"c{case}-{i}"
            gold[ex] = list({str(rng.choice(alphabet))
                             for _ in range(rng.integers(0, 3))})
            if rng.random() < 0.9:
                preds[ex] = [str(rng.choice(alphabet))
                             for _ in range(rng.integers(0, 6))]
        rep = evaluate(preds, gold, k_max=k_max)
        identified, annotated, correct = _brute_force_eval(preds, gold, k_max)
        assert rep.identified == identified, f"case {case}"
        assert rep.annotated == annotated, f"case {case}"
        assert rep.correct == tuple(correct), f"case {case}"
        for k in range(k_max):
            p = correct[k] / identified if identified else 0.0
            r = correct[k] / annotated if annotated else 0.0
            want = 2 * p * r / (p + r) if p + r else 0.0
            assert rep.f1[k] == want, f"case {case} k={k + 1}"
    _elapsed_ok(t0, 5.0, "criterion 9 (eval oracle)")


# ---------------------------------------------------------------------
# criterion 10: persistence
# ---------------------------------------------------------------------


def test_criterion_10_persistence(tmp_path):
    t0 = time.monotonic()
    corpus = generate_synthetic(SynthConfig(n_examples=8), seed=3)
    model, vocab = _build_model(SEBERTNETS, corpus, seed=0)
    encoded = _encode_all(flatten_for_training(corpus), vocab, True)
    state = make_state("adam")
    rng = np.random.default_rng(0)
    for b in _batches(encoded, 8):
        model.train_step(b, state, rng)
    eval_batch = batch(_encode_all(corpus, vocab, False))
    before, _ = model.forward(eval_batch)

    path = tmp_path / "model.sebn"
    model.save(path, state)
    loaded, _ = Model.load(path)
    after, _ = loaded.forward(eval_batch)
    assert np.array_equal(before.start_logits.data, after.start_logits.data)
    assert np.array_equal(before.end_logits.data, after.end_logits.data)

    blob = bytearray(path.read_bytes())
    for offset in range(12):
        bad = tmp_path / f"corrupt{offset}.sebn"
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            Model.load(bad)
    _elapsed_ok(t0, 10.0, "criterion 10 (persistence)")
