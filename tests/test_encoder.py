"""Encoder: embedding semantics, attention masking, a full hand-computed
single-layer oracle, padding invariance, and end-to-end gradients."""

import math

import numpy as np
import pytest

from sebertnets import encoder as E
from sebertnets import tensor as T
from sebertnets import threads
from sebertnets.errors import ContractError, ShapeError
from sebertnets.tensor import Tensor


def small_cfg(**kw):
    base = dict(vocab_size=11, d_model=4, n_layers=1, n_heads=2, d_ff=8,
                max_len=10, dropout_rate=0.0)
    base.update(kw)
    return E.EncoderConfig(**base)


def fp64_params(cfg, seed=0):
    return T.draw(E.encoder_layout(cfg), np.random.default_rng(seed), np.float64)


def embedded(*args, **kw):
    """``E.embed``'s value as an array: a bare array where no tape records."""
    out = E.embed(*args, **kw)
    assert isinstance(out, np.ndarray)
    return out


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ContractError):
            small_cfg(d_model=6, n_heads=4)

    def test_zero_heads_is_contract_error(self):
        with pytest.raises(ContractError, match="n_heads"):
            E.EncoderConfig(vocab_size=10, n_heads=0)

    def test_dropout_range(self):
        with pytest.raises(ContractError):
            small_cfg(dropout_rate=1.0)

    def test_activation_whitelist(self):
        with pytest.raises(ContractError):
            small_cfg(activation="swish")


class TestEmbed:
    def test_zero_tables_give_ln_bias(self):
        cfg = small_cfg()
        p = fp64_params(cfg)
        for name in ("tok_emb", "pos_emb", "seg_emb"):
            p[name].data[:] = 0.0
        p["emb_ln.bias"].data[:] = np.arange(4.0)
        ids = np.array([[1, 2, 3]])
        out = embedded(ids, np.zeros_like(ids), p, cfg)
        np.testing.assert_array_equal(out, np.broadcast_to(np.arange(4.0), (1, 3, 4)))

    def test_position_term_distinguishes_repeats(self):
        cfg = small_cfg()
        p = fp64_params(cfg)
        ids = np.array([[5, 5, 5, 5, 5, 5]])
        out = embedded(ids, np.zeros_like(ids), p, cfg)[0]
        assert np.abs(out[0] - out[5]).max() > 1e-6

    def test_segment_term_matters(self):
        cfg = small_cfg()
        p = fp64_params(cfg)
        ids = np.array([[5, 5]])
        a = embedded(ids, np.array([[0, 0]]), p, cfg)
        b = embedded(ids, np.array([[0, 1]]), p, cfg)
        assert np.abs(a[0, 1] - b[0, 1]).max() > 1e-6
        np.testing.assert_array_equal(a[0, 0], b[0, 0])

    def test_too_long_raises(self):
        cfg = small_cfg(max_len=4)
        p = fp64_params(cfg)
        ids = np.zeros((1, 5), dtype=np.int64)
        with pytest.raises(ShapeError):
            E.embed(ids, ids, p, cfg)

    def test_gradients(self):
        from gradcheck import check_grads, square_sum
        cfg = small_cfg()
        proto = fp64_params(cfg)
        names = list(proto)
        ids = np.array([[1, 4, 4, 9]])
        segs = np.array([[0, 0, 1, 1]])

        def build(*tensors):
            params = dict(zip(names, tensors))
            out = E.embed(ids, segs, params, cfg)
            return square_sum(out)

        check_grads(build, [proto[n].data for n in names])


def ref_softmax_rows(scores, key_mask):
    s = np.where(key_mask, scores, -np.inf)
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    return xc / np.sqrt(var + eps) * gain + bias


class TestEncodeOracle:
    def test_single_layer_single_head_hand_computed(self):
        cfg = small_cfg(vocab_size=7, d_model=2, n_layers=1, n_heads=1, d_ff=3,
                        max_len=4)
        rng = np.random.default_rng(42)
        p = fp64_params(cfg, seed=3)
        ids = np.array([[4, 6]])
        segs = np.array([[0, 1]])
        mask = np.array([[True, True]])
        got = E.encode(ids, segs, mask, p, cfg).hidden.data[0]

        # independent straight-line fp64 reference
        w = {k: v.data for k, v in p.items()}
        x = (w["tok_emb"][ids[0]] + w["pos_emb"][:2] + w["seg_emb"][segs[0]])
        x = ref_layer_norm(x, w["emb_ln.gain"], w["emb_ln.bias"])
        q = x @ w["layer0.attn.wq"] + w["layer0.attn.bq"]
        k = x @ w["layer0.attn.wk"]
        v = x @ w["layer0.attn.wv"] + w["layer0.attn.bv"]
        probs = ref_softmax_rows(q @ k.T / math.sqrt(2), np.array([[True, True]]))
        ctx = probs @ v
        attn = ctx @ w["layer0.attn.wo"] + w["layer0.attn.bo"]
        x = ref_layer_norm(x + attn, w["layer0.attn_ln.gain"], w["layer0.attn_ln.bias"])
        ff = np.maximum(x @ w["layer0.ffn.w1"] + w["layer0.ffn.b1"], 0.0) \
            @ w["layer0.ffn.w2"] + w["layer0.ffn.b2"]
        expect = ref_layer_norm(x + ff, w["layer0.ffn_ln.gain"], w["layer0.ffn_ln.bias"])

        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-14)

    def test_attention_rows_sum_to_one_and_masked_keys_zero(self):
        cfg = small_cfg(n_layers=2)
        p = fp64_params(cfg)
        ids = np.array([[1, 2, 3, 0, 0]])
        mask = np.array([[True, True, True, False, False]])
        out = E.encode(ids, np.zeros_like(ids), mask, p, cfg)
        assert len(out.attentions) == 2
        for a in out.attentions:
            assert a.shape == (1, 2, 5, 5)
            np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-5)
            assert (a[..., 3:] == 0.0).all()
            assert not a.flags.writeable


class TestRecordedPass:
    """What a recorded pass keeps: no attention weights, which its backward
    rebuilds, and table gradients equal to a scatter with accumulation."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_rebuilds_the_tape_free_weights_bit_for_bit(self, monkeypatch,
                                                                  dtype):
        cfg = small_cfg(n_layers=2, d_model=16, n_heads=4, d_ff=16, dropout_rate=0.1)
        params = T.draw(E.encoder_layout(cfg), np.random.default_rng(3), dtype)
        rng = np.random.default_rng(5)
        ids = rng.integers(1, cfg.vocab_size, (5, 9))
        mask = np.arange(9) < np.array([[9], [4], [9], [1], [6]])
        plain = E.encode(ids, np.zeros_like(ids), mask, params, cfg,
                         rng=np.random.default_rng(8)).attentions
        real = E._softmax_back

        def spy(p, g, *, rows):
            d = real(p, g, rows=rows)
            rows.sync()  # split, the rebuild waits in the queue until here
            rebuilt.append(p.copy())
            return d

        monkeypatch.setattr(E, "_softmax_back", spy)
        # whole, and on two batch halves
        for split in (False, True):
            monkeypatch.setattr(threads, "threaded", lambda rows, on=split: on)
            rebuilt = []
            with T.Tape() as tape:
                out = E.encode(ids, np.zeros_like(ids), mask, params, cfg,
                               rng=np.random.default_rng(8))
                loss = T.sum_all(out.hidden)
            assert out.attentions == [] and rebuilt == []
            T.backward(tape, loss)
            assert len(plain) == len(rebuilt) == 2
            assert (plain[0][1, ..., 4:] == 0.0).all()  # masked keys
            for a, p in zip(plain, reversed(rebuilt)):  # the backward runs last layer first
                assert a.dtype == p.dtype == dtype
                assert a.tobytes() == p.tobytes()

    def test_position_gradient_is_the_scatter_bit_for_bit(self, monkeypatch):
        """The position table's gradient, a sum over the batch, equals
        ``np.add.at`` into zeros in every bit, an all -0.0 column too."""
        rng, real = np.random.default_rng(2), E._layer_norm
        for b, s in ((1, 5), (7, 9)):
            dx = rng.standard_normal((b, s, 4)).astype(np.float32)
            dx[:, :, 1] = -0.0
            dx[:, 2, 3] = -0.0

            def layer_norm(v, gain, bias, **arena):
                y, back = real(v, gain, bias, **arena)
                return y, lambda g: (dx,) + back(g)[1:]

            monkeypatch.setattr(E, "_layer_norm", layer_norm)
            tables = [rng.standard_normal(shape).astype(np.float32)
                      for shape in ((6, 4), (10, 4), (2, 4))]
            ids = rng.integers(0, 6, (b, s))
            segs = rng.integers(0, 2, (b, s))
            _, back = E._embedding(*tables, np.ones(4, np.float32), np.zeros(4, np.float32),
                                   ids, segs, 0.0, None)
            d_pos = back(np.ones((b, s, 4), np.float32))[1]
            want = np.zeros_like(tables[1])
            np.add.at(want, np.broadcast_to(np.arange(s), (b, s)), dx)
            assert d_pos.tobytes() == want.tobytes()
            assert np.signbit(want[:s, 1]).sum() == 0


class TestPaddingInvariance:
    def test_real_rows_unchanged_by_padding(self):
        cfg = small_cfg(n_layers=2, max_len=12)
        p = fp64_params(cfg, seed=9)
        ids = np.array([[4, 7, 2, 9]])
        segs = np.zeros_like(ids)
        base = E.encode(ids, segs, np.ones((1, 4), dtype=bool), p, cfg).hidden.data

        padded_ids = np.concatenate([ids, np.zeros((1, 5), dtype=ids.dtype)], axis=1)
        padded_mask = np.array([[True] * 4 + [False] * 5])
        out = E.encode(padded_ids, np.zeros_like(padded_ids), padded_mask,
                       p, cfg).hidden.data
        np.testing.assert_allclose(out[:, :4], base, rtol=0, atol=1e-6)

    def test_swapping_tokens_changes_output(self):
        cfg = small_cfg()
        p = fp64_params(cfg, seed=10)
        rng = np.random.default_rng(0)
        for _ in range(10):
            ids = rng.integers(4, 11, size=(1, 6))
            i, j = 1, 4
            if ids[0, i] == ids[0, j]:
                continue
            swapped = ids.copy()
            swapped[0, [i, j]] = swapped[0, [j, i]]
            mask = np.ones((1, 6), dtype=bool)
            segs = np.zeros_like(ids)
            a = E.encode(ids, segs, mask, p, cfg).hidden.data
            b = E.encode(swapped, segs, mask, p, cfg).hidden.data
            assert np.abs(a - b).max() > 1e-8


class TestDropoutModes:
    def test_eval_is_deterministic(self):
        cfg = small_cfg(dropout_rate=0.3)
        p = fp64_params(cfg)
        ids = np.array([[1, 2, 3]])
        mask = np.ones((1, 3), dtype=bool)
        a = E.encode(ids, np.zeros_like(ids), mask, p, cfg).hidden.data
        b = E.encode(ids, np.zeros_like(ids), mask, p, cfg).hidden.data
        np.testing.assert_array_equal(a, b)

    def test_train_dropout_seeded(self):
        cfg = small_cfg(dropout_rate=0.3)
        p = fp64_params(cfg)
        ids = np.array([[1, 2, 3]])
        mask = np.ones((1, 3), dtype=bool)
        segs = np.zeros_like(ids)
        a = E.encode(ids, segs, mask, p, cfg,
                     rng=np.random.default_rng(5)).hidden.data
        b = E.encode(ids, segs, mask, p, cfg,
                     rng=np.random.default_rng(5)).hidden.data
        c = E.encode(ids, segs, mask, p, cfg,
                     rng=np.random.default_rng(6)).hidden.data
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0


class TestEndToEndGradients:
    def test_two_layer_gradcheck(self):
        from gradcheck import check_grads, square_sum
        cfg = small_cfg(vocab_size=7, d_model=4, n_layers=2, n_heads=2, d_ff=6,
                        max_len=6)
        proto = fp64_params(cfg, seed=4)
        names = list(proto)
        ids = np.array([[1, 4, 6, 2]])
        segs = np.array([[0, 0, 1, 1]])
        mask = np.array([[True, True, True, False]])

        def build(*tensors):
            params = dict(zip(names, tensors))
            out = E.encode(ids, segs, mask, params, cfg)
            return square_sum(out.hidden)

        check_grads(build, [proto[n].data for n in names])
