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
from sebertnets.span import ALL_CHANNELS, JOINT_TOPK, RecallConfig, decode_top1

MAX_LEN = 40


def tiny_corpus(n=16, seed=0, multi=0.0):
    cfg = SynthConfig(n_examples=n, multi_entity_fraction=multi)
    return generate_synthetic(cfg, seed=seed)


def build_setup(variant=SEBERTNETS, n=16, seed=0, d_model=8, hidden=4,
                n_layers=1, n_heads=2, d_ff=16, dropout=0.0, corpus=None):
    examples = corpus if corpus is not None else tiny_corpus(n=n, seed=seed)
    vocab = Vocabulary.from_corpus(examples)
    enc_cfg = EncoderConfig(vocab_size=vocab.size, d_model=d_model,
                            n_layers=n_layers, n_heads=n_heads, d_ff=d_ff,
                            max_len=MAX_LEN, dropout_rate=dropout)
    cfg = ModelConfig(variant=variant, hidden_size=hidden)
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
    assert {"head.w_start", "head.b_end"} <= rec_names
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


# -------------------------------------------------------------- predict


def test_default_channels_by_variant():
    model, vocab, enc_cfg, _ = build_setup()
    assert model.recall_config().channels == frozenset((JOINT_TOPK,))
    hse = Model(ModelConfig(variant=HSEBERTNETS), enc_cfg, vocab)
    assert hse.recall_config().channels == ALL_CHANNELS
    base = Model(ModelConfig(variant=BERT_BASELINE), enc_cfg, vocab)
    assert base.recall_config().channels == frozenset((JOINT_TOPK,))


def test_predict_ranked_lists():
    model, _, _, b = build_setup(variant=HSEBERTNETS)
    recall = model.recall_config(k=3)
    preds = model.predict(b, recall)
    logits, _ = model.forward(b)
    assert len(preds) == len(b)
    for i, cands in enumerate(preds):
        assert 1 <= len(cands) <= 3
        top1 = decode_top1(logits.example(i), b.items[i].text,
                           b.items[i].text_span, recall)
        assert (cands[0].start, cands[0].end) == (top1.start, top1.end)
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


def test_variant_override_on_load(tmp_path):
    model, _, _, _ = build_setup(variant=SEBERTNETS)
    path = tmp_path / "se.sebn"
    model.save(path)
    as_hse, _ = Model.load(path, variant=HSEBERTNETS)
    assert as_hse.cfg.variant == HSEBERTNETS
    with pytest.raises(CompatibilityError):
        Model.load(path, variant=BERT_BASELINE)

    base, vocab, enc_cfg, _ = build_setup(variant=BERT_BASELINE)
    bpath = tmp_path / "base.sebn"
    base.save(bpath)
    with pytest.raises(CompatibilityError):
        Model.load(bpath, variant=SEBERTNETS)


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
    out.write_bytes(blob[:4] + struct.pack("<II", 1, len(new_meta))
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
    out.write_bytes(blob[:4] + struct.pack("<II", 1, len(new_meta))
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
    ("optimizer", "beta2", _DELETE),
    ("model", "cell", _DELETE),
    ("model", "hidden_size", "4"),
    ("model", "variant", _DELETE),
])
def test_bad_metadata_is_checkpoint_error(tmp_path, section, key, value):
    model, _, _, b = build_setup()
    state = make_state("adam")
    model.train_step(b, state, np.random.default_rng(0))
    path = tmp_path / "ok.sebn"
    model.save(path, state)
    bad = tmp_path / "bad.sebn"
    rewrite_meta(path, bad, _set(section, key, value))
    with pytest.raises(CheckpointError, match=key) as exc:
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
