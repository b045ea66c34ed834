"""Model assembly, training step, and checkpoint tests."""

import json
import struct

import numpy as np
import pytest

from sebertnets.data import (
    RawExample,
    SynthConfig,
    Vocabulary,
    batch,
    encode_example,
    flatten_for_training,
    generate_synthetic,
)
from sebertnets.encoder import EncoderConfig
from sebertnets.errors import (
    CheckpointError,
    CompatibilityError,
    ContractError,
    DivergenceError,
)
from sebertnets.model import (
    BERT_BASELINE,
    HSEBERTNETS,
    SEBERTNETS,
    Model,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from sebertnets.optim import AdamState, SgdState, SwatsState, make_state
from sebertnets.recurrent import GRU, LSTM
from sebertnets.span import decode_multichannel, decode_top1, span_loss
from sebertnets.tensor import Tape, backward

MAX_LEN = 40


def tiny_corpus(n=16, seed=0, multi=0.0):
    cfg = SynthConfig(n_examples=n, multi_entity_fraction=multi)
    return generate_synthetic(cfg, seed=seed)


def build_setup(variant=SEBERTNETS, n=16, seed=0, d_model=8, hidden=4,
                n_layers=1, n_heads=2, d_ff=16, dropout=0.0, corpus=None, cell=GRU):
    examples = corpus if corpus is not None else tiny_corpus(n=n, seed=seed)
    vocab = Vocabulary.from_corpus(examples)
    enc_cfg = EncoderConfig(vocab_size=vocab.size, d_model=d_model,
                            n_layers=n_layers, n_heads=n_heads, d_ff=d_ff,
                            max_len=MAX_LEN, dropout_rate=dropout)
    cfg = ModelConfig(variant=variant, cell=cell, hidden_size=hidden)
    model = Model(cfg, enc_cfg, vocab, seed=seed)
    flat = flatten_for_training(examples)
    encoded = [encode_example(ex, vocab, MAX_LEN) for ex in flat]
    return model, vocab, enc_cfg, batch(encoded)


# ------------------------------------------------------------- assembly


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(variant="transformer_xl")
    with pytest.raises(ContractError):
        ModelConfig(cell="rnn")
    with pytest.raises(ContractError):
        ModelConfig(hidden_size=0)


def test_vocab_size_mismatch_rejected():
    examples = tiny_corpus()
    vocab = Vocabulary.from_corpus(examples)
    enc_cfg = EncoderConfig(vocab_size=vocab.size + 3, d_model=8, n_layers=1,
                            n_heads=2, d_ff=16, max_len=MAX_LEN)
    with pytest.raises(CompatibilityError):
        Model(ModelConfig(), enc_cfg, vocab)


def test_head_width_by_variant():
    _, vocab, enc_cfg, _ = build_setup()
    m = Model(ModelConfig(variant=SEBERTNETS, hidden_size=200), enc_cfg, vocab)
    assert m.head_width == 400
    m = Model(ModelConfig(variant=BERT_BASELINE), enc_cfg, vocab)
    assert m.head_width == enc_cfg.d_model


def test_parameter_names_by_variant():
    _, vocab, enc_cfg, _ = build_setup()
    rec = Model(ModelConfig(variant=SEBERTNETS), enc_cfg, vocab)
    base = Model(ModelConfig(variant=BERT_BASELINE), enc_cfg, vocab)
    rec_names = set(rec.parameters())
    base_names = set(base.parameters())
    assert any(n.startswith("rnn_fwd.") for n in rec_names)
    assert any(n.startswith("rnn_bwd.") for n in rec_names)
    assert not any(n.startswith("rnn_") for n in base_names)
    assert {n for n in rec_names if n.startswith("head.")} == {"head.w_start",
                                                                "head.w_end"}
    assert not any(n.endswith("attn.bk") for n in rec_names)
    hse = Model(ModelConfig(variant=HSEBERTNETS), enc_cfg, vocab)
    assert set(hse.parameters()) == rec_names


# -------------------------------------------------------------- forward


def test_forward_shapes_and_valid_region():
    model, _, enc_cfg, b = build_setup()
    logits, attentions = model.forward(b)
    assert logits.start_logits.shape == b.token_ids.shape
    assert len(attentions) == enc_cfg.n_layers
    bsz, seqlen = b.token_ids.shape
    assert attentions[0].shape == (bsz, enc_cfg.n_heads, seqlen, seqlen)
    for i in range(len(b)):
        first, last = b.text_spans[i]
        want = np.zeros(seqlen, dtype=bool)
        want[first:last + 1] = True
        assert np.array_equal(logits.valid[i], want)


def test_se_and_hse_share_logits():
    model_se, vocab, enc_cfg, b = build_setup(variant=SEBERTNETS)
    model_hse = Model(ModelConfig(variant=HSEBERTNETS,
                                  hidden_size=model_se.cfg.hidden_size),
                      enc_cfg, vocab, seed=0)
    lo_se, _ = model_se.forward(b)
    lo_hse, _ = model_hse.forward(b)
    assert np.array_equal(lo_se.start_logits.data, lo_hse.start_logits.data)
    assert np.array_equal(lo_se.end_logits.data, lo_hse.end_logits.data)


def test_out_of_vocab_ids_rejected():
    model, _, _, b = build_setup()
    b.token_ids[0, 1] = model.enc_cfg.vocab_size + 5
    with pytest.raises(CompatibilityError):
        model.forward(b)


def test_forward_deterministic_in_eval_mode():
    model, _, _, b = build_setup(dropout=0.3)
    a, _ = model.forward(b)
    c, _ = model.forward(b)
    assert np.array_equal(a.start_logits.data, c.start_logits.data)


@pytest.mark.parametrize("variant, cell", [(BERT_BASELINE, GRU), (SEBERTNETS, GRU),
                                           (SEBERTNETS, LSTM)])
def test_every_parameter_gets_a_gradient(variant, cell):
    """Every parameter's fp64 gradient is above rounding noise: none is a
    bias that a softmax cancels, whose gradient is zero. One such bias is
    left: in ``bert_baseline`` the last layer norm's bias feeds the span
    head directly, so it only shifts every position's score alike."""
    model, _, _, b = build_setup(variant=variant, cell=cell)
    params = model.parameters()
    for p in params.values():
        p.data = p.data.astype(np.float64)
    with Tape() as tape:
        logits, _ = model.forward(b)
        loss = span_loss(logits, b.golds)
    backward(tape, loss)
    dead = [name for name, p in params.items()
            if p.grad is None or np.abs(p.grad).max() <= 1e-8]
    assert dead == (["encoder.layer0.ffn_ln.bias"] if variant == BERT_BASELINE else [])


# -------------------------------------------------------------- predict


def test_predict_ranked_lists():
    """The batched decode in ``predict`` returns, for each row, what the
    one-example decode of the same forward pass returns."""
    for variant in (BERT_BASELINE, HSEBERTNETS):
        model, _, _, b = build_setup(variant=variant)
        recall = model.recall_config(k=3, max_span_len=4)
        preds = model.predict(b, recall)
        logits, _ = model.forward(b)
        assert len(preds) == len(b)
        for i, cands in enumerate(preds):
            assert 1 <= len(cands) <= 3
            item = b.items[i]
            assert cands == decode_multichannel(logits.example(i), item.text,
                                                item.text_span, recall)
            assert cands[0] == decode_top1(logits.example(i), item.text,
                                           item.text_span, recall)
            scores = [c.score for c in cands]
            assert scores == sorted(scores, reverse=True)
            texts = [c.entity_text for c in cands]
            assert len(set(texts)) == len(texts)


def test_predict_requires_items():
    model, _, _, b = build_setup()
    stripped = type(b)(token_ids=b.token_ids, segment_ids=b.segment_ids,
                       attention_mask=b.attention_mask,
                       text_spans=b.text_spans, golds=b.golds, items=[])
    with pytest.raises(ContractError):
        model.predict(stripped)


# ----------------------------------------------------------- train_step


def test_zero_lr_leaves_parameters():
    model, _, _, b = build_setup()
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    loss = model.train_step(b, SgdState(lr=0.0), np.random.default_rng(0))
    assert np.isfinite(loss)
    for n, p in model.parameters().items():
        assert np.array_equal(p.data, before[n]), n
    assert model.step == 1


def test_example_losses_do_not_depend_on_the_batch_cut():
    """At one padded length each example's fp64 loss is the same however
    the examples are cut into batches (``bert_baseline`` has no recurrent
    row count), so their exact sum is too."""
    model, _, _, full = build_setup(variant=BERT_BASELINE, n=24)
    items = full.items
    pad = full.token_ids.shape[1]
    state, rng = SgdState(lr=0.0), np.random.default_rng(0)
    cuts = []
    for size in (len(items), 5, 3):
        order = rng.permutation(len(items))
        losses = []
        for i in range(0, len(order), size):
            chunk = batch([items[j] for j in order[i:i + size]], pad)
            model.train_step(chunk, state, rng, losses)
        assert len(losses) == len(items)
        cuts.append(dict(zip(order.tolist(), losses)))
    assert cuts[0] == cuts[1] == cuts[2]


def test_goldless_batch_rejected():
    model, vocab, _, b = build_setup()
    examples = tiny_corpus()
    bare = RawExample(id="x", text=b.items[0].text,
                      event_type=examples[0].event_type)
    got = batch([encode_example(bare, vocab, MAX_LEN)])
    assert (got.golds < 0).all()
    with pytest.raises(ContractError):
        model.train_step(got, AdamState(), np.random.default_rng(0))


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        model, _, _, b = build_setup(dropout=0.1)
        state = make_state("adam", lr=1e-3)
        rng = np.random.default_rng(42)
        losses = [model.train_step(b, state, rng) for _ in range(5)]
        runs.append((losses, {n: p.data.copy()
                              for n, p in model.parameters().items()}))
    assert runs[0][0] == runs[1][0]
    for n in runs[0][1]:
        assert np.array_equal(runs[0][1][n], runs[1][1][n]), n


def test_loss_decreases_over_200_steps():
    corpus = tiny_corpus(n=32, seed=7)
    model, _, _, b = build_setup(corpus=corpus, d_model=16, hidden=8, d_ff=32)
    state = make_state("adam", lr=1e-3)
    rng = np.random.default_rng(0)
    first = model.train_step(b, state, rng)
    last = first
    for _ in range(199):
        last = model.train_step(b, state, rng)
    assert last < first
    assert model.step == 200


def test_nonfinite_loss_raises_divergence():
    model, _, _, b = build_setup()
    model.head_params["w_start"].data[:] = np.nan
    with pytest.raises(DivergenceError, match="step"):
        model.train_step(b, AdamState(), np.random.default_rng(0))


def test_far_gold_logit_trains_with_finite_loss():
    """Gold start logits 110 and more below the best underflow a float32
    probability; the loss, read off log-probabilities, stays exact."""
    model, _, _, b = build_setup()
    model.head_params["w_start"].data *= 2000
    logits, _ = model.forward(b)
    rows = np.arange(len(b))
    want = 0.0
    for t, gold in zip((logits.start_logits, logits.end_logits), b.golds.T):
        x = np.where(logits.valid, t.data.astype(np.float64), -np.inf)
        best = x.max(axis=1)
        lse = best + np.log(np.exp(x - best[:, None]).sum(axis=1))
        want -= np.mean(x[rows, gold] - lse)
    start = np.where(logits.valid, logits.start_logits.data, -np.inf)
    assert (start.max(axis=1) - start[rows, b.golds[:, 0]]).max() >= 110
    loss = model.train_step(b, make_state("adam"), np.random.default_rng(0))
    np.testing.assert_allclose(loss, want, rtol=1e-6)


# ------------------------------------------------------------ checkpoint


def test_roundtrip_bit_identical(tmp_path):
    model, _, _, b = build_setup(variant=HSEBERTNETS)
    state = make_state("adam", lr=1e-3)
    rng = np.random.default_rng(1)
    for _ in range(3):
        model.train_step(b, state, rng)
    path = tmp_path / "model.sebn"
    model.save(path, state)

    loaded, opt = Model.load(path)
    assert loaded.cfg == model.cfg
    assert loaded.enc_cfg == model.enc_cfg
    assert loaded.vocab == model.vocab
    assert loaded.step == 3
    orig = model.parameters()
    for n, p in loaded.parameters().items():
        assert np.array_equal(p.data, orig[n].data), n
    assert isinstance(opt, AdamState)
    assert opt.k == 3
    for n in orig:
        assert np.array_equal(opt.m[n], state.m[n]), n
        assert np.array_equal(opt.v[n], state.v[n]), n

    before, _ = model.forward(b)
    after, _ = loaded.forward(b)
    assert np.array_equal(before.start_logits.data, after.start_logits.data)
    assert np.array_equal(before.end_logits.data, after.end_logits.data)


def test_resumed_training_matches_uninterrupted(tmp_path):
    model, _, _, b = build_setup(dropout=0.0)
    state = make_state("adam", lr=1e-3)
    rng = np.random.default_rng(3)
    for _ in range(4):
        model.train_step(b, state, rng)
    path = tmp_path / "mid.sebn"
    model.save(path, state)
    for _ in range(4):
        model.train_step(b, state, rng)

    resumed, opt = Model.load(path)
    rng2 = np.random.default_rng(99)  # dropout off, so the rng is inert
    for _ in range(4):
        resumed.train_step(b, opt, rng2)
    orig = model.parameters()
    for n, p in resumed.parameters().items():
        assert np.array_equal(p.data, orig[n].data), n


def test_swats_state_roundtrip(tmp_path):
    model, _, _, b = build_setup()
    state = make_state("swats", lr=1e-3, eps_switch=1e-4)
    rng = np.random.default_rng(0)
    for _ in range(3):
        model.train_step(b, state, rng)
    path = tmp_path / "sw.sebn"
    model.save(path, state)
    _, opt = Model.load(path)
    assert isinstance(opt, SwatsState)
    assert opt.phase == state.phase
    assert opt.lam == state.lam
    assert opt.sgd_lr == state.sgd_lr
    assert opt.adam.k == state.adam.k
    assert opt.eps_switch == state.eps_switch


def test_checkpoint_without_optimizer(tmp_path):
    model, _, _, _ = build_setup()
    path = tmp_path / "bare.sebn"
    save_checkpoint(model, path, None)
    _, opt = load_checkpoint(path)
    assert opt is None


def corrupt(path, out, offset, new_bytes):
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(new_bytes)] = new_bytes
    out.write_bytes(bytes(blob))


def test_corruption_detected(tmp_path):
    model, _, _, _ = build_setup()
    path = tmp_path / "ok.sebn"
    model.save(path)

    bad = tmp_path / "bad_magic.sebn"
    corrupt(path, bad, 0, b"XXXX")
    with pytest.raises(CheckpointError, match="magic") as exc:
        Model.load(bad)
    assert exc.value.offset == 0

    bad = tmp_path / "bad_version.sebn"
    corrupt(path, bad, 4, struct.pack("<I", 9))
    with pytest.raises(CheckpointError, match="version") as exc:
        Model.load(bad)
    assert exc.value.offset == 4

    bad = tmp_path / "bad_metalen.sebn"
    corrupt(path, bad, 8, struct.pack("<I", 2 ** 31))
    with pytest.raises(CheckpointError, match="overruns") as exc:
        Model.load(bad)
    assert exc.value.offset == 8

    bad = tmp_path / "bad_json.sebn"
    corrupt(path, bad, 12, b"\xff\xfe{{")
    with pytest.raises(CheckpointError, match="JSON") as exc:
        Model.load(bad)
    assert exc.value.offset == 12

    bad = tmp_path / "truncated.sebn"
    bad.write_bytes(path.read_bytes()[:7])
    with pytest.raises(CheckpointError, match="header"):
        Model.load(bad)

    bad = tmp_path / "short_payload.sebn"
    bad.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CheckpointError, match="payload"):
        Model.load(bad)

    bad = tmp_path / "extra_payload.sebn"
    bad.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="payload"):
        Model.load(bad)


def test_missing_metadata_section(tmp_path):
    model, _, _, _ = build_setup()
    path = tmp_path / "ok.sebn"
    model.save(path)
    blob = path.read_bytes()
    meta_len = struct.unpack("<I", blob[8:12])[0]
    meta = json.loads(blob[12:12 + meta_len])
    del meta["vocab"]
    new_meta = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    out = tmp_path / "novocab.sebn"
    out.write_bytes(blob[:8] + struct.pack("<I", len(new_meta))
                    + new_meta + blob[12 + meta_len:])
    with pytest.raises(CheckpointError, match="vocab") as exc:
        Model.load(out)
    assert exc.value.offset == 12


def rewrite_meta(path, out, edit):
    """Copy a checkpoint with its JSON metadata changed by ``edit``."""
    blob = path.read_bytes()
    meta_len = struct.unpack("<I", blob[8:12])[0]
    meta = json.loads(blob[12:12 + meta_len])
    edit(meta)
    new_meta = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    out.write_bytes(blob[:8] + struct.pack("<I", len(new_meta))
                    + new_meta + blob[12 + meta_len:])


@pytest.mark.parametrize("kind, keys", [
    ("adam", ["kind", "lr", "beta1", "beta2", "eps", "k"]),
    ("sgd", ["kind", "lr"]),
    ("swats", ["kind", "lr", "beta1", "beta2", "eps", "k", "eps_switch", "phase",
               "lam", "sgd_lr"]),
])
def test_optimizer_meta_keys_v1_order(tmp_path, kind, keys):
    model, _, _, b = build_setup()
    state = make_state(kind)
    model.train_step(b, state, np.random.default_rng(0))
    path = tmp_path / "m.sebn"
    model.save(path, state)
    meta = {}
    rewrite_meta(path, tmp_path / "copy.sebn", meta.update)
    assert list(meta["training"]["optimizer"]) == keys


_DELETE = "<deleted>"


def _set(section, key, value):
    def edit(meta):
        target = meta["training"]["optimizer"] if section == "optimizer" else meta[section]
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
    return edit


@pytest.mark.parametrize("section, key, value", [
    ("optimizer", "kind", _DELETE),
    ("optimizer", "kind", "rmsprop"),
    ("optimizer", "lr", "0.001"),
    ("optimizer", "k", "3"),
    ("optimizer", "k", 3.0),
    ("optimizer", "k", -1),
    ("optimizer", "beta2", _DELETE),
    ("optimizer", "lr", -0.001),
    ("optimizer", "lr", float("nan")),
    ("optimizer", "lr", float("inf")),
    ("optimizer", "beta1", float("nan")),
    ("optimizer", "beta2", 2.0),
    ("optimizer", "eps", float("inf")),
    ("optimizer", "sgd_lr", float("nan")),
    ("optimizer", "lam", float("nan")),
    ("model", "cell", _DELETE),
    ("model", "hidden_size", "4"),
    ("model", "hidden_size", True),
    ("model", "variant", _DELETE),
])
def test_bad_metadata_is_checkpoint_error(tmp_path, section, key, value):
    # an Adam state, and a SWATS state past its switch, which adds sgd_lr;
    # SWATS-only keys run on that state alone
    for kind in ("swats",) if key in ("sgd_lr", "lam") else ("adam", "swats"):
        model, _, _, b = build_setup()
        state = make_state(kind, eps_switch=1e30)
        for _ in range(2):
            model.train_step(b, state, np.random.default_rng(0))
        assert state.phase == ("sgd" if kind == "swats" else "adam")
        path = tmp_path / f"{kind}.sebn"
        model.save(path, state)
        bad = tmp_path / f"bad-{kind}.sebn"
        rewrite_meta(path, bad, _set(section, key, value))
        with pytest.raises(CheckpointError, match=key) as exc:
            Model.load(bad)
        assert exc.value.offset == 12


@pytest.mark.parametrize("edit, match", [
    (lambda meta: meta["params"][0].pop("shape"), "shape"),
    (lambda meta: meta.update(params={"name": "x"}), "params"),
    (lambda meta: meta["params"].__setitem__(0, "embed.tok"), "directory entry"),
    (lambda meta: meta["training"].pop("step"), "step"),
    (lambda meta: meta["encoder"].update(extra=1), "extra"),
    (lambda meta: meta["encoder"].update(d_model="8"), "d_model"),
    (lambda meta: meta.update(vocab="abc"), "vocab"),
    (lambda meta: meta["training"].pop("optimizer"), "optimizer"),
    (lambda meta: meta["params"][-1].update(name="stray"), "moments"),
    (lambda meta: [e.update(name="head.w_start") for e in meta["params"]
                   if e["name"] == "head.w_end"], "repeats"),
    (lambda meta: meta["params"].append(
        {"name": "head.w_extra", "shape": [0], "nbytes": 0,
         "offset": meta["params"][-1]["offset"] + meta["params"][-1]["nbytes"]}),
     "'head.w_extra'"),
    (lambda meta: meta["training"].update(optimizer=None), "'optim.m.encoder"),
    (lambda meta: meta["training"].update(optimizer={"kind": "sgd", "lr": 0.01}),
     "'optim.m.encoder"),
], ids=["entry-without-shape", "params-not-list", "entry-is-string", "no-step",
        "extra-encoder-key", "string-d-model", "string-vocab", "no-optimizer",
        "m-without-v", "repeated-name", "stray-entry", "moments-without-optimizer",
        "moments-with-sgd"])
def test_malformed_metadata_is_checkpoint_error(tmp_path, edit, match):
    """Directory, training, encoder, vocabulary and optimizer-moment
    metadata of the wrong shape or type, and directory entries the
    rebuilt model and optimizer do not own, raise CheckpointError, not
    KeyError, TypeError or AttributeError, and never load silently."""
    model, _, _, b = build_setup()
    state = make_state("adam")
    model.train_step(b, state, np.random.default_rng(0))
    path = tmp_path / "ok.sebn"
    model.save(path, state)
    bad = tmp_path / "bad.sebn"
    rewrite_meta(path, bad, edit)
    with pytest.raises(CheckpointError, match=match) as exc:
        Model.load(bad)
    assert exc.value.offset == 12


def add_entries(path, out, version, names):
    """Copy a checkpoint as format ``version`` with a zero-filled entry of
    shape [2] appended per name."""
    blob = path.read_bytes()
    meta_len = struct.unpack("<I", blob[8:12])[0]
    meta = json.loads(blob[12:12 + meta_len])
    end = len(blob) - 12 - meta_len
    for i, name in enumerate(names):
        meta["params"].append({"name": name, "shape": [2], "offset": end + 8 * i,
                               "nbytes": 8})
    new_meta = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    out.write_bytes(blob[:4] + struct.pack("<II", version, len(new_meta)) + new_meta
                    + blob[12 + meta_len:] + bytes(8 * len(names)))


_V1_ONLY = ["head.b_start", "head.b_end", "encoder.layer0.attn.bk",
            "optim.m.head.b_start", "optim.v.head.b_start",
            "optim.m.encoder.layer0.attn.bk", "optim.v.encoder.layer0.attn.bk"]


def test_version_1_file_loads_without_dropped_biases(tmp_path):
    """A version-1 file's key and span-head biases and their moments are
    dropped on load; every other entry loads as stored."""
    model, _, _, b = build_setup()
    state = make_state("adam")
    model.train_step(b, state, np.random.default_rng(0))
    path = tmp_path / "v2.sebn"
    model.save(path, state)
    old = tmp_path / "v1.sebn"
    add_entries(path, old, 1, _V1_ONLY)
    loaded, opt = Model.load(old)
    assert loaded.parameters().keys() == model.parameters().keys()
    for n, p in loaded.parameters().items():
        assert np.array_equal(p.data, model.parameters()[n].data), n
    assert opt.m.keys() == opt.v.keys() == state.m.keys()


@pytest.mark.parametrize("name", _V1_ONLY)
def test_version_2_file_with_a_dropped_bias_is_checkpoint_error(tmp_path, name):
    model, _, _, b = build_setup()
    state = make_state("adam")
    model.train_step(b, state, np.random.default_rng(0))
    path = tmp_path / "v2.sebn"
    model.save(path, state)
    bad = tmp_path / "bad.sebn"
    add_entries(path, bad, 2, [name])
    with pytest.raises(CheckpointError, match=f"'{name}'") as exc:
        Model.load(bad)
    assert exc.value.offset == 12


def test_swats_meta_phase_must_fit_sgd_lr(tmp_path):
    model, _, _, _ = build_setup()
    path = tmp_path / "sw.sebn"
    model.save(path, make_state("swats"))
    bad = tmp_path / "bad.sebn"
    rewrite_meta(path, bad, _set("optimizer", "phase", "sgd"))
    with pytest.raises(CheckpointError, match="phase") as exc:
        Model.load(bad)
    assert exc.value.offset == 12


def set_payload_float(path, out, name, index, value):
    """Copy a checkpoint with element ``index`` of payload entry ``name``
    set to ``value``; returns that float's byte offset in the file."""
    blob = bytearray(path.read_bytes())
    meta_len = struct.unpack("<I", blob[8:12])[0]
    meta = json.loads(blob[12:12 + meta_len])
    entry = next(e for e in meta["params"] if e["name"] == name)
    offset = 12 + meta_len + entry["offset"] + 4 * index
    blob[offset:offset + 4] = struct.pack("<f", value)
    out.write_bytes(bytes(blob))
    return offset


@pytest.mark.parametrize("name, index, value", [
    ("head.w_start", 3, float("nan")),
    ("optim.v.head.w_end", 0, float("inf")),
    ("rnn_fwd.u_update", 5, float("-inf")),
])
def test_nonfinite_payload_is_checkpoint_error(tmp_path, name, index, value):
    model, _, _, b = build_setup()
    state = make_state("adam")
    model.train_step(b, state, np.random.default_rng(0))
    path = tmp_path / "ok.sebn"
    model.save(path, state)
    bad = tmp_path / "bad.sebn"
    offset = set_payload_float(path, bad, name, index, value)
    with pytest.raises(CheckpointError, match="non-finite") as exc:
        Model.load(bad)
    assert exc.value.offset == offset


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_gradient_changes_no_weight(monkeypatch, value):
    """A non-finite gradient norm raises DivergenceError before the
    optimizer runs, so no weight, moment or step count changes."""
    import sebertnets.model as model_module

    model, _, _, b = build_setup()
    state = make_state("adam")
    model.train_step(b, state, np.random.default_rng(0))
    real_backward = model_module.backward

    def poisoned(tape, loss):
        real_backward(tape, loss)
        model.head_params["w_start"].grad[0, 0] = value

    monkeypatch.setattr(model_module, "backward", poisoned)
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    moments = {n: m.copy() for n, m in state.m.items()}
    with pytest.raises(DivergenceError, match="gradient norm"):
        model.train_step(b, state, np.random.default_rng(1))
    for n, p in model.parameters().items():
        assert np.array_equal(p.data, before[n]), n
    for n, m in state.m.items():
        assert np.array_equal(m, moments[n]), n
    assert model.step == 1 and state.k == 1


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    """A write that fails halfway leaves the previous file byte-identical
    and no temp file behind."""
    import builtins

    import sebertnets.model as model_module

    model, _, _, b = build_setup()
    path = tmp_path / "model.sebn"
    model.save(path)
    before = path.read_bytes()
    model.train_step(b, make_state("adam"), np.random.default_rng(0))

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(model_module, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        model.save(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.sebn"]
