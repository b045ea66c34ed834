"""Model assembly, training step, and checkpoint tests."""

import itertools
import json
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from sebertnets import tensor as T
from sebertnets.data import (
    RawExample,
    SynthConfig,
    Vocabulary,
    batch,
    encode_example,
    flatten_for_training,
    generate_synthetic,
)
from sebertnets.encoder import EncoderConfig, encode
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
    layout,
    load_checkpoint,
    save_checkpoint,
)
from sebertnets.optim import AdamState, SgdState, SwatsState, make_state
from sebertnets.recurrent import GRU, LSTM
from sebertnets.span import decode_multichannel, decode_top1, span_loss
from sebertnets.tensor import Chain, backward

MAX_LEN = 40


def tiny_corpus(n=16, seed=0, multi=0.0):
    cfg = SynthConfig(n_examples=n, multi_entity_fraction=multi)
    return generate_synthetic(cfg, seed=seed)


def build_setup(variant=SEBERTNETS, n=16, seed=0, d_model=8, hidden=4,
                n_layers=1, n_heads=2, d_ff=16, dropout=0.0, corpus=None, cell=GRU,
                activation="relu", max_len=MAX_LEN):
    examples = corpus if corpus is not None else tiny_corpus(n=n, seed=seed)
    vocab = Vocabulary.from_corpus(examples)
    enc_cfg = EncoderConfig(vocab_size=vocab.size, d_model=d_model,
                            n_layers=n_layers, n_heads=n_heads, d_ff=d_ff,
                            max_len=max_len, dropout_rate=dropout,
                            activation=activation)
    cfg = ModelConfig(variant=variant, cell=cell, hidden_size=hidden)
    model = Model(cfg, enc_cfg, vocab, seed=seed)
    flat = flatten_for_training(examples)
    encoded = [encode_example(ex, vocab, max_len) for ex in flat]
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
    chain = Chain(params)
    logits, _ = model.forward(b, chain=chain)
    span_loss(logits, b.golds, chain=chain)
    grads = {}
    backward(chain, grads)
    dead = [name for name in params if np.abs(grads[name]).max() <= 1e-8]
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


def test_every_primitive_is_run_by_a_model_or_reduces_a_gradcheck(monkeypatch):
    """The kinds of stage, stage names without their layer, that one
    dropout training step of some model records are exactly those that
    criterion 1 gradchecks, the span loss that each chain ends in among
    them. So no stage outlives its last model caller unnoticed."""
    import sebertnets.model as model_module
    from test_acceptance import COMPOSED_ONLY, _stage_trials

    kinds = set()
    real_backward = model_module.backward

    def collect(tape, grads):
        kinds.update(stage.split(".")[-1] for stage, _, _ in tape)
        return real_backward(tape, grads)

    monkeypatch.setattr(model_module, "backward", collect)
    for variant, cell, act in ((BERT_BASELINE, GRU, "gelu"), (SEBERTNETS, GRU, "relu"),
                               (HSEBERTNETS, LSTM, "relu")):
        model, _, _, b = build_setup(variant=variant, cell=cell, activation=act,
                                     dropout=0.1)
        model.train_step(b, make_state("adam"), np.random.default_rng(0))
    checked = {name.split("_")[0] for name in _stage_trials(np.random.default_rng(0))}
    assert kinds == checked | {COMPOSED_ONLY}


def test_default_train_step_makes_eight_tape_records(monkeypatch):
    """A default ``sebertnets`` step's chain holds one stage per encoder
    block (the embedding, then attention and feed-forward per layer), one
    for the recurrent layer, one for the span head and one for the loss."""
    import sebertnets.model as model_module

    examples = tiny_corpus(n=4)
    vocab = Vocabulary.from_corpus(examples)
    enc_cfg = EncoderConfig(vocab_size=vocab.size)
    model = Model(ModelConfig(), enc_cfg, vocab)
    b = batch([encode_example(ex, vocab, enc_cfg.max_len)
               for ex in flatten_for_training(examples)])
    lengths = []
    real_backward = model_module.backward

    def counting(tape, grads):
        lengths.append(len(tape))
        real_backward(tape, grads)

    monkeypatch.setattr(model_module, "backward", counting)
    model.train_step(b, make_state("adam"), np.random.default_rng(0))
    assert enc_cfg.n_layers == 2 and enc_cfg.dropout_rate > 0
    assert lengths == [8]


@pytest.mark.parametrize("variant, cell", [(SEBERTNETS, GRU), (HSEBERTNETS, LSTM)])
def test_train_step_peak_is_what_the_ops_keep(monkeypatch, variant, cell):
    """One recorded step peaks at the arrays its ops are documented to
    keep plus the recurrent backward's working set, within 5% for arrays
    too small to list (layer-norm scales, masks, per-step temporaries, the
    span head). A whole-sequence BPTT temporary, a kept ``r*h`` or
    ``tanh(c')``, a gradient held past its record, attention weights kept
    for the backward, or a record's arrays held once its gradient is
    taken lifts the peak past that. The optimizer runs after the tape is
    consumed.

    The peak is the arena's taken bytes plus the traced peak outside the
    arena, whose chunks the first step reserved, added per stretch between
    two arena events, a take or a free, where the taken bytes hold still
    (a block that dies counts as taken until the arena frees it, at the
    next take): the arena holds the kept activations and whole-batch
    temporaries, and traced memory the block outputs, the gradients and
    what stays on malloc."""
    import sebertnets.model as model_module

    d, hid, ff, nh = 8, 48, 16, 2
    model, _, _, b = build_setup(variant=variant, cell=cell, d_model=d, hidden=hid,
                                 n_heads=nh, d_ff=ff, dropout=0.1)
    state, rng = make_state("adam"), np.random.default_rng(0)
    model.train_step(b, state, rng)  # the optimizer state exists before tracing
    (n, s), f = b.token_ids.shape, 4
    acts = 4 if cell == GRU else 6  # [S, B, H] activations per direction
    # one encoder layer: each block keeps its float32 output and boolean
    # dropout draw; the embedding its normalized sum; attention q, k, v,
    # the context and the normalized residual, and no [B, nh, S, S]
    # array; the FFN its activation and normalized residual. The
    # recurrent layer keeps its time-major input, its activations and
    # its output
    kept = (n * s * d * (2 * f + 1)
            + n * s * d * (6 * f + 1)
            + n * s * (ff * f + d * (2 * f + 1))
            + n * s * (d + 2 * acts * hid + 2 * hid) * f)
    # the backward peaks in the first direction's BPTT, once the span
    # head's gradient of the recurrent output is split: the two time-major
    # halves of that gradient and the direction's gate gradients (4 LSTM
    # gates, or 3 GRU gates and r*h), 6H a position. The span head's
    # backward holds 4H, its input gradient and one side's product
    work = 3 * n * s * 2 * hid * f
    live, taken, peaks = [], [], []
    real_clip = model_module.clip_global_norm
    arena = model._arena

    def stretch_ends():
        peaks.append(arena.taken_bytes + tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def at_event(fn):
        def wrapped(*args):
            stretch_ends()
            return fn(*args)
        return wrapped

    def clip(grads, max_norm):
        live.append(tracemalloc.get_traced_memory()[0])
        taken.append(model._arena.taken_bytes)
        return real_clip(grads, max_norm)

    monkeypatch.setattr(model_module, "clip_global_norm", clip)
    monkeypatch.setattr(arena, "take", at_event(arena.take))
    monkeypatch.setattr(arena, "_free", at_event(arena._free))
    tracemalloc.start()
    try:
        model.train_step(b, state, rng)
        stretch_ends()
    finally:
        tracemalloc.stop()
    peak = max(peaks)
    assert model._arena is arena
    assert peak <= 1.05 * (kept + work)
    # when clipping starts, the gradients are live, no activation is and
    # no arena block is taken
    grad_bytes = sum(p.data.nbytes for p in model.parameters().values())
    assert live[0] < grad_bytes + kept // 20
    assert taken == [0]


def test_tape_free_predict_builds_no_tensor_inside_encode():
    """Per-example ``bert_baseline`` predict runs the encoder on bare
    arrays: the one Tensor built inside ``encode`` is its output."""
    model, vocab, _, _ = build_setup(variant=BERT_BASELINE, n_layers=2, dropout=0.1)
    one = batch([encode_example(flatten_for_training(tiny_corpus())[0], vocab, MAX_LEN)])
    enc_code, init_code = encode.__code__, T.Tensor.__init__.__code__
    depth, built = [0], []

    def watch(frame, event, arg):
        if frame.f_code is enc_code:
            depth[0] += {"call": 1, "return": -1}.get(event, 0)
        elif event == "call" and frame.f_code is init_code and depth[0]:
            built.append(frame.f_back.f_code.co_name)

    outer = sys.getprofile()
    sys.setprofile(watch)
    try:
        preds = model.predict(one)
    finally:
        sys.setprofile(outer)
    assert len(preds) == 1 and preds[0]
    assert built == ["encode"]


@pytest.mark.parametrize("variant", [BERT_BASELINE, SEBERTNETS, HSEBERTNETS])
def test_encode_is_one_path_with_and_without_a_tape(variant):
    """The same blocks run recorded on a chain and without one: hidden
    states and logits are bit-identical, with dropout off and on. The
    tape-free pass returns read-only attention maps, and the recorded
    pass, from both ``encode`` and ``Model.forward``, returns none."""
    model, vocab, _, _ = build_setup(variant=variant, n=32, n_layers=2, dropout=0.1)
    encoded = [encode_example(ex, vocab, MAX_LEN)
               for ex in flatten_for_training(tiny_corpus(n=32))]
    params = model.parameters()
    for dtype in (np.float32, np.float64):
        for p in params.values():
            p.data = p.data.astype(dtype)
        for b, seed in itertools.product((batch(encoded[:1]), batch(encoded[:32])),
                                         (None, 3)):
            def rng():
                return None if seed is None else np.random.default_rng(seed)

            runs = []
            for taped in (False, True):
                chain = Chain(params) if taped else None
                out = encode(b.token_ids, b.segment_ids, b.attention_mask,
                             model.encoder_params, model.enc_cfg, rng=rng(), chain=chain)
                logits, maps = model.forward(b, rng=rng(), chain=chain)
                assert bool(chain) is taped
                runs.append((out, logits, maps))
            (plain, plain_logits, plain_maps), (taped, taped_logits, taped_maps) = runs
            assert plain.hidden.dtype == dtype
            assert plain.hidden.data.tobytes() == taped.hidden.data.tobytes()
            assert plain_logits.start_logits.data.tobytes() == \
                taped_logits.start_logits.data.tobytes()
            assert taped.attentions == [] and taped_maps == []
            assert len(plain.attentions) == len(plain_maps) == 2
            for a, c in zip(plain.attentions, plain_maps):
                assert a.tobytes() == c.tobytes()
                assert not a.flags.writeable and not c.flags.writeable


@pytest.mark.parametrize("first", [0, 1])
def test_two_live_recorded_passes_backward_in_either_order(first):
    """Two chains recorded on two batches, dropout on, both alive: each
    backward gives bit for bit the gradients of its pass run alone,
    whichever runs first. The stages own their saved activations."""
    model, vocab, _, _ = build_setup(variant=SEBERTNETS, n=16, n_layers=2, dropout=0.1)
    encoded = [encode_example(ex, vocab, MAX_LEN)
               for ex in flatten_for_training(tiny_corpus(n=16))]
    batches = (batch(encoded[:5]), batch(encoded[5:12]))
    params = model.parameters()

    def record(i):
        chain = Chain(params)
        logits, _ = model.forward(batches[i], rng=np.random.default_rng(10 + i), chain=chain)
        span_loss(logits, batches[i].golds, chain=chain)
        return chain

    def grads(chain):
        got = {}
        backward(chain, got)
        return got

    alone = [grads(record(i)) for i in (0, 1)]
    live = [record(0), record(1)]
    for i in (first, 1 - first):
        got = grads(live[i])
        for n in params:
            assert got[n].tobytes() == alone[i][n].tobytes(), (i, n)


# ------------------------------------------------------------- arena


def step_grads(model, b, seed):
    """The parameter gradients of one recorded pass, by name, as bytes."""
    chain = Chain(model.parameters())
    logits, _ = model.forward(b, rng=np.random.default_rng(seed), chain=chain)
    span_loss(logits, b.golds, chain=chain)
    grads = {}
    backward(chain, grads)
    return {n: g.tobytes() for n, g in grads.items()}


@pytest.mark.parametrize("variant, cell", [(BERT_BASELINE, GRU), (SEBERTNETS, GRU),
                                           (HSEBERTNETS, LSTM)])
def test_train_step_returns_every_arena_block(variant, cell):
    """After each step the model holds its arena back with no block
    taken, and at one batch shape a step reserves nothing new."""
    model, _, _, b = build_setup(variant=variant, cell=cell, n_layers=2, dropout=0.1)
    state, rng = make_state("adam"), np.random.default_rng(0)
    reserved = []
    for _ in range(5):
        model.train_step(b, state, rng)
        assert model._arena.taken_bytes == 0
        reserved.append(model._arena.reserved_bytes)
    assert reserved == reserved[:1] * 5 and reserved[0] >= T.Arena.CHUNK


@pytest.mark.parametrize("variant, cell", [(BERT_BASELINE, GRU), (SEBERTNETS, GRU),
                                           (HSEBERTNETS, LSTM)])
def test_steady_step_allocates_only_what_it_hands_on(variant, cell):
    """Once the arena exists, a step's traced peak above its starting
    memory is the arrays it makes outside the arena: five block outputs
    and the embedding's normed sum under dropout, the recurrent output,
    each attention layer's per-row max and sum and each layer norm's
    per-position scale, within 10%, plus numpy's ufunc buffers (8192
    elements of float64, two at a time). A new [B, nh, S, S] or
    [B, S, 2H] temporary outside the arena lifts it past that."""
    d, hid, ff, nh, layers = 16, 16, 32, 4, 2
    model, _, _, b = build_setup(variant=variant, cell=cell, n=32, d_model=d,
                                 hidden=hid, n_heads=nh, d_ff=ff, n_layers=layers,
                                 dropout=0.1)
    state, rng = make_state("adam"), np.random.default_rng(0)
    for _ in range(2):
        model.train_step(b, state, rng)
    (n, s), f = b.token_ids.shape, 4
    made = (n * s * d * (2 + 2 * layers) + 2 * layers * n * nh * s
            + (1 + 2 * layers) * n * s) * f
    if model.cfg.recurrent:
        made += n * s * 2 * hid * f
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model.train_step(b, state, rng)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * made + 2 * 8192 * 8


def test_divergent_step_drops_the_arena():
    """A step whose loss is not finite never returns its arena; the next
    step takes a new one and returns it whole, and the model's gradients
    are bit for bit those of a model built from the same state."""
    model, _, _, b = build_setup(n_layers=2, dropout=0.1)
    twin, _, _, _ = build_setup(n_layers=2, dropout=0.1)
    model.train_step(b, make_state("adam"), np.random.default_rng(0))
    twin.train_step(b, make_state("adam"), np.random.default_rng(0))
    arena = model._arena
    w = model.head_params["w_start"].data
    kept = w.copy()
    w[:] = np.nan
    try:
        model.train_step(b, make_state("adam"), np.random.default_rng(1))
    except DivergenceError:
        pass
    else:
        raise AssertionError("a NaN loss did not raise")
    assert model._arena is None
    w[:] = kept
    assert step_grads(model, b, 2) == step_grads(twin, b, 2)
    model.train_step(b, make_state("adam"), np.random.default_rng(3))
    assert model._arena is not None and model._arena is not arena
    assert model._arena.taken_bytes == 0


def test_a_second_live_recorded_pass_gets_no_arena():
    """Only a training step lends the model's arena, to its own chain: a
    pass recorded on a caller's chain takes from that chain's arena,
    malloc by default, and leaves the model's idle arena untaken, however
    many such chains are live and whichever runs first."""
    model, _, _, b = build_setup(n_layers=2, dropout=0.1)
    model.train_step(b, make_state("adam"), np.random.default_rng(0))
    arena = model._arena
    chains = []
    for seed in (1, 2):
        chain = Chain(model.parameters())
        logits, _ = model.forward(b, rng=np.random.default_rng(seed), chain=chain)
        span_loss(logits, b.golds, chain=chain)
        chains.append(chain)
    assert all(chain.arena is T.MALLOC for chain in chains)
    assert model._arena is arena and arena.taken_bytes == 0
    for chain in reversed(chains):
        backward(chain, {})
    assert model._arena is arena and arena.taken_bytes == 0


class PoisonedArena(T.Arena):
    """An arena whose free fills the block's bytes with 0xFF, NaN in
    float32 and float64, so that a read of a block after it went back
    shows, as a read after free does under glibc's ``MALLOC_PERTURB_``."""

    def _free(self, ci, lo, hi):
        self._chunks[ci][0][lo:hi] = 0xFF
        super()._free(ci, lo, hi)


def adam_run(monkeypatch, arena_class, model, b):
    """Three Adam steps of ``model`` on ``b`` with ``arena_class`` as the
    model's arena: each step's loss and gradients, handed to clipping,
    and the weights after, as bytes."""
    import sebertnets.model as model_module

    grads = []
    real_clip = model_module.clip_global_norm

    def clip(g, max_norm):
        grads.append([a.tobytes() for a in g.values()])
        return real_clip(g, max_norm)

    state, rng = make_state("adam"), np.random.default_rng(0)
    with monkeypatch.context() as m:
        m.setattr(model_module, "Arena", arena_class)
        m.setattr(model_module, "clip_global_norm", clip)
        losses = [model.train_step(b, state, rng) for _ in range(3)]
    return losses, grads, [p.data.tobytes() for p in model.parameters().values()]


@pytest.mark.parametrize("placement", ["whole", "split"])
def test_a_poisoned_arena_changes_no_bit(monkeypatch, placement):
    """A step reads no arena block after it went back: with every freed
    block overwritten by NaN, losses, gradients and trained weights are
    bit for bit those of a clean arena. An array that does not hold its
    block, so that the block is freed while the array is read, fails it.
    A split block's queued per-row work holds its arrays until the sync,
    so such a block shows first in the whole placement; both run. The
    ``train_long``-shaped case (rows of about 120 tokens, batch 32, hidden
    200) spans several arena chunks."""
    from sebertnets import threads

    monkeypatch.setattr(threads, "threaded", lambda rows: placement == "split")
    cases = [dict(variant=variant, cell=cell, activation=act, dropout=dropout, dtype=dtype)
             for variant, cell in ((BERT_BASELINE, GRU), (SEBERTNETS, GRU), (SEBERTNETS, LSTM))
             for act in ("relu", "gelu") for dropout in (0.0, 0.1)
             for dtype in (np.float32, np.float64)]
    if placement == "whole":
        cases.append(dict(variant=SEBERTNETS, cell=GRU, activation="relu", dropout=0.1,
                          dtype=np.float32, long=True))
    for case in cases:
        runs = []
        for arena_class in (T.Arena, PoisonedArena):
            if case.get("long"):
                corpus = generate_synthetic(SynthConfig(n_examples=32, min_distractors=7,
                                                        max_distractors=8,
                                                        filler_len=(7, 9)), 0)
                model, _, _, b = build_setup(corpus=corpus, d_model=64, hidden=200,
                                             n_layers=2, n_heads=4, d_ff=256, dropout=0.1,
                                             max_len=140)
            else:
                model, _, _, b = build_setup(variant=case["variant"], cell=case["cell"],
                                             n=8, n_layers=2, dropout=case["dropout"],
                                             activation=case["activation"])
            for p in model.parameters().values():
                p.data = p.data.astype(case["dtype"])
            runs.append(adam_run(monkeypatch, arena_class, model, b))
        assert runs[0] == runs[1], case


@pytest.mark.parametrize("placement", ["whole", "split"])
def test_a_train_long_step_reserves_two_chunks(monkeypatch, placement):
    """Two steps shaped like the ``train_long`` benchmark (32 rows padded
    to 124 tokens, hidden 200, dropout 0.1) take less than two chunks at
    their high-water mark, and first fit places every block in two: a
    block that outlives its last use where a later take could have had
    it spills into a third chunk."""
    from sebertnets import threads

    monkeypatch.setattr(threads, "threaded", lambda rows: placement == "split")
    corpus = generate_synthetic(SynthConfig(n_examples=32, min_distractors=7,
                                            max_distractors=8, filler_len=(7, 9)), 0)
    model, _, _, b = build_setup(corpus=corpus, d_model=64, hidden=200, n_layers=2,
                                 n_heads=4, d_ff=256, dropout=0.1, max_len=140)
    b = batch(b.items, 124)
    state, rng = make_state("adam", lr=1e-3), np.random.default_rng(0)
    for _ in range(2):
        model.train_step(b, state, rng)
    assert b.token_ids.shape == (32, 124)
    assert model._arena.reserved_bytes == 2 * (T.Arena.CHUNK + T.Arena.ALIGN)


def test_tape_free_forward_drops_the_idle_arena():
    """A tape-free pass after training, of the model or of another, leaves
    the model no arena, so eval passes between steps do not keep it; the
    next step takes a new one."""
    model, _, _, b = build_setup(n_layers=2, dropout=0.1)
    other, _, _, _ = build_setup(n_layers=2, dropout=0.1)
    state = make_state("adam")
    for evaluated in (model, other):
        model.train_step(b, state, np.random.default_rng(0))
        assert isinstance(model._arena, T.Arena)
        evaluated.predict(b)
        assert model._arena is None
    model.train_step(b, state, np.random.default_rng(1))
    assert model._arena.taken_bytes == 0


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


@pytest.mark.parametrize("steps, drop, k", [
    (0, (), 3),
    (1, "all", 3),
    (1, ("head.w_end",), 3),
    (1, (), 0),
], ids=["k3-no-moments", "k3-moments-dropped", "k3-one-parameter-dropped",
        "k0-with-moments"])
def test_moments_must_fit_step_count(tmp_path, steps, drop, k):
    """An Adam or SWATS state past step 0 stores moments for every
    parameter, and one at step 0 for none. Anything else would resume
    from zeroed moments or misread the next bias correction, so it is a
    CheckpointError."""
    for kind in ("adam", "swats"):
        model, _, _, b = build_setup()
        state = make_state(kind)
        for _ in range(steps):
            model.train_step(b, state, np.random.default_rng(0))
        adam = state.adam if kind == "swats" else state
        for name in list(adam.m) if drop == "all" else drop:
            del adam.m[name], adam.v[name]
        path = tmp_path / f"{kind}.sebn"
        model.save(path, state)
        bad = tmp_path / f"bad-{kind}.sebn"
        rewrite_meta(path, bad, _set("optimizer", "k", k))
        with pytest.raises(CheckpointError, match="moments") as exc:
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
    (lambda meta: meta["vocab"].update(chars=meta["vocab"]["chars"][:-1]), "vocab"),
    (lambda meta: meta["vocab"].update(chars=meta["vocab"]["chars"][:-1]
                                       + meta["vocab"]["chars"][0]), "repeats"),
    (lambda meta: meta["model"].update(hiden_size=64), "hiden_size"),
], ids=["entry-without-shape", "params-not-list", "entry-is-string", "no-step",
        "extra-encoder-key", "string-d-model", "string-vocab", "no-optimizer",
        "m-without-v", "repeated-name", "stray-entry", "moments-without-optimizer",
        "moments-with-sgd", "vocab-one-short", "vocab-repeats-a-char",
        "extra-model-key"])
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


@pytest.mark.parametrize("section, key, value", [
    ("model", "hidden_size", 10 ** 5),
    ("encoder", "d_ff", 10 ** 9),
    ("encoder", "max_len", 10 ** 9),
    ("encoder", "d_model", 10 ** 9),
    ("encoder", "n_layers", 10 ** 6),
    ("encoder", "vocab_size", 10 ** 9),
])
def test_inflated_size_field_is_checkpoint_error(tmp_path, capsys, section, key, value):
    """A size field past what the payload holds is a CheckpointError
    (exit 2 from predict, no traceback) found before any parameter is
    allocated: the load stays under 1 MiB however large the field."""
    import tracemalloc

    from sebertnets.cli import console_main
    from sebertnets.data import write_jsonl

    model, _, _, _ = build_setup()
    path = tmp_path / "ok.sebn"
    model.save(path)
    bad = tmp_path / "bad.sebn"
    rewrite_meta(path, bad, _set(section, key, value))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError):
            Model.load(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"load peaked at {peak} bytes"

    data = tmp_path / "data.jsonl"
    write_jsonl(tiny_corpus(n=2), data)
    capsys.readouterr()
    assert console_main(["predict", "--checkpoint", str(bad), "--data", str(data),
                         "--out", str(tmp_path / "preds.jsonl")]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("variant, cell", [(BERT_BASELINE, GRU), (SEBERTNETS, GRU),
                                           (HSEBERTNETS, LSTM)])
def test_parameters_follow_the_layout_and_a_load_draws_none(tmp_path, monkeypatch,
                                                           variant, cell):
    """A model's parameters are its layout's names and shapes, in order,
    and its per-module dicts share their Tensors; a load takes them from
    the payload and never draws."""
    import sebertnets.model as model_module

    def expect(m):
        want = [(name, shape) for name, shape, _ in layout(m.cfg, m.enc_cfg)]
        params = m.parameters()
        assert [(name, p.shape) for name, p in params.items()] == want
        views = {f"encoder.{n}": p for n, p in m.encoder_params.items()}
        for pre, direction in (("rnn_fwd.", m.rnn_fwd), ("rnn_bwd.", m.rnn_bwd)):
            views.update({pre + n: p for n, p in getattr(direction, "weights", {}).items()})
        views.update({f"head.{n}": p for n, p in m.head_params.items()})
        assert views.keys() == params.keys()
        assert all(views[name] is p for name, p in params.items())

    model, _, _, _ = build_setup(variant=variant, cell=cell)
    expect(model)
    path = tmp_path / "m.sebn"
    model.save(path)

    def refuse(*args, **kwargs):
        raise AssertionError("a load drew parameters")

    monkeypatch.setattr(model_module, "draw", refuse)
    monkeypatch.setattr(T, "draw", refuse)
    loaded, _ = Model.load(path)
    expect(loaded)
    for name, p in loaded.parameters().items():
        assert np.array_equal(p.data, model.parameters()[name].data), name


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

    def poisoned(tape, grads):
        real_backward(tape, grads)
        grads["head.w_start"][0, 0] = value

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
