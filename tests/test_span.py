"""Span head: scoring, loss closed forms, and decoding vs brute-force
enumeration oracles."""

import math

import numpy as np
import pytest

from sebertnets import span as S
from sebertnets import tensor as T
from sebertnets.errors import ContractError, DecodeError
from sebertnets.tensor import Tensor

from gradcheck import check_grads, source


def logits_1d(start, end, valid):
    return S.SpanLogits(Tensor(np.asarray([start, end], dtype=np.float64)),
                        np.asarray(valid, dtype=bool))


def ref_log_probs(x, valid):
    x = np.where(valid, np.asarray(x, dtype=np.float64), -np.inf)
    m = x.max()
    return x - (m + np.log(np.exp(x - m).sum()))


def brute_force_pairs(start, end, valid, max_span_len):
    """Every valid (s, e) pair with joint log-prob, unordered."""
    lp_s = ref_log_probs(start, valid)
    lp_e = ref_log_probs(end, valid)
    n = len(lp_s)
    out = []
    for s in range(n):
        for e in range(s, n):
            if valid[s] and valid[e] and e - s < max_span_len:
                out.append((lp_s[s] + lp_e[e], s, e))
    return out


def brute_force_top1(start, end, valid, max_span_len):
    pairs = brute_force_pairs(start, end, valid, max_span_len)
    if not pairs:
        return None
    return min(pairs, key=lambda p: (-p[0], p[1], p[2]))


def reference_ranked(start, end, valid, text, first, cfg):
    """Loop reference for the ranked list as (start, end, text, score):
    every band pair, sorted by (-score, start, end), the first span of
    each text kept, cut at k."""
    pairs = brute_force_pairs(start, end, valid, cfg.max_span_len)
    out, seen = [], set()
    for sc, s, e in sorted(pairs, key=lambda p: (-p[0], p[1], p[2])):
        txt = text[s - first:e - first + 1]
        if txt not in seen:
            seen.add(txt)
            out.append((s, e, txt, float(sc)))
    return out[:cfg.k]


def random_decode_case(rng, dtype):
    """Random logits of ``dtype`` (a quarter of them all-tie rows), a
    random valid region, and a text over a 2-letter alphabet half the time
    so that distinct spans share texts."""
    n = int(rng.integers(1, 24))
    if rng.random() < 0.25:
        start, end = np.zeros(n), np.zeros(n)
    else:
        start, end = rng.standard_normal(n) * 2, rng.standard_normal(n) * 2
    valid = rng.random(n) < 0.8
    if not valid.any():
        valid[int(rng.integers(n))] = True
    first, last = np.flatnonzero(valid)[[0, -1]]
    alphabet = list("ab" if rng.random() < 0.5 else "abcdefghijklmnop")
    text = "".join(rng.choice(alphabet, last - first + 1))
    lg = S.SpanLogits(Tensor(np.stack([start, end]).astype(dtype)), valid)
    return lg, text, (int(first), int(last))


def random_decode_batch(rng, dtype):
    """Up to 8 ``random_decode_case`` rows, a fifth of them rounded to
    partial ties, padded with invalid positions to the longest row."""
    cases = [random_decode_case(rng, dtype) for _ in range(int(rng.integers(1, 9)))]
    n = max(lg.valid.size for lg, _, _ in cases)

    def stacked(get, fill):
        return np.stack([np.concatenate([get(lg), np.full(n - lg.valid.size, fill)])
                         for lg, _, _ in cases]).astype(get(cases[0][0]).dtype)

    start = stacked(lambda lg: lg.start_logits.data, 50.0)
    end = stacked(lambda lg: lg.end_logits.data, 50.0)
    rounded = rng.random(len(cases)) < 0.2
    start[rounded], end[rounded] = np.round(start[rounded]), np.round(end[rounded])
    lg = S.SpanLogits(Tensor(np.stack([start, end])), stacked(lambda lg: lg.valid, False))
    return lg, [text for _, text, _ in cases], np.array([span for _, _, span in cases])


def as_tuples(cands):
    return [(c.start, c.end, c.entity_text, c.score.hex()) for c in cands]


class TestValidMask:
    def test_layout_arithmetic(self):
        # CLS + 5 text + SEP + 3 type + SEP: text occupies 1..5
        v = S.valid_mask(11, (1, 5))
        assert v.tolist() == [False] + [True] * 5 + [False] * 5

    def test_bad_span(self):
        with pytest.raises(ContractError):
            S.valid_mask(4, (1, 4))

    def test_batched_rows_equal_single_masks(self):
        spans = np.array([[1, 5], [1, 2], [3, 3]])
        v = S.valid_mask(9, spans)
        assert v.shape == (3, 9)
        for row, span in zip(v, spans):
            np.testing.assert_array_equal(row, S.valid_mask(9, tuple(span)))
        with pytest.raises(ContractError, match=r"\(2, 9\)"):
            S.valid_mask(9, np.array([[1, 5], [2, 9]]))


class TestScore:
    def test_zero_weights_uniform(self):
        rng = np.random.default_rng(0)
        params = T.draw(S.head_layout(6), rng, np.float64)
        params["w_start"].data[:] = 0.0
        params["w_end"].data[:] = 0.0
        h = Tensor(rng.standard_normal((5, 6)))
        valid = np.array([False, True, True, True, False])
        out = S.score(h, params, valid)
        np.testing.assert_array_equal(out.start_logits.data, 0.0)
        p = np.exp(S._log_probs(out.start_logits.data, valid))
        np.testing.assert_allclose(p[valid], 1 / 3, rtol=1e-7)

    def test_batched_shape(self):
        rng = np.random.default_rng(1)
        params = T.draw(S.head_layout(6), rng)
        h = Tensor(rng.standard_normal((2, 5, 6)).astype(np.float32))
        valid = np.ones((2, 5), dtype=bool)
        out = S.score(h, params, valid)
        assert out.start_logits.shape == (2, 5)
        single = S.score(Tensor(h.data[0]), params, valid[0])
        np.testing.assert_allclose(single.start_logits.data,
                                   out.start_logits.data[0], rtol=1e-6)

    def test_gradients_through_score_and_loss(self):
        rng = np.random.default_rng(2)
        # one example, then a batch whose second row has a padded tail
        cases = [((5, 4), [False, True, True, True, False], (1, 3)),
                 ((2, 5, 4), [[False, True, True, True, False],
                              [False, True, True, False, False]], np.array([[1, 3], [2, 2]]))]
        for h_shape, valid, gold in cases:
            def build(chain, h, ws, we, valid=np.array(valid), gold=gold):
                logits = S.score(source(chain, h), {"w_start": ws, "w_end": we}, valid,
                                 chain=chain)
                return S.span_loss(logits, gold, chain=chain).data

            check_grads(build, [rng.standard_normal(h_shape),
                                rng.standard_normal((4, 1)),
                                rng.standard_normal((4, 1))])


class TestSpanLoss:
    def test_sharp_one_hot_gives_near_zero(self):
        start = np.full(6, -40.0)
        end = np.full(6, -40.0)
        start[2] = 40.0
        end[4] = 40.0
        valid = np.array([False, True, True, True, True, False])
        loss = S.span_loss(logits_1d(start, end, valid), (2, 4))
        assert 0.0 <= float(loss.data) < 1e-9

    def test_uniform_gives_two_log_v(self):
        valid = np.array([False] + [True] * 7 + [False])
        loss = S.span_loss(logits_1d(np.zeros(9), np.zeros(9), valid), (3, 5))
        np.testing.assert_allclose(float(loss.data), 2 * math.log(7), rtol=1e-14)

    def test_random_case_vs_straight_line_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            valid = np.zeros(n, dtype=bool)
            valid[1:n - 1] = True
            start = rng.standard_normal(n) * 3
            end = rng.standard_normal(n) * 3
            gold_s = int(rng.integers(1, n - 1))
            gold_e = int(rng.integers(gold_s, n - 1))
            loss = float(S.span_loss(logits_1d(start, end, valid),
                                     (gold_s, gold_e)).data)
            expect = -(ref_log_probs(start, valid)[gold_s]
                       + ref_log_probs(end, valid)[gold_e])
            np.testing.assert_allclose(loss, expect, rtol=1e-12)

    @pytest.mark.parametrize("gap", [100.0, 110.0, 1e4])
    def test_far_gold_is_exact(self, gap):
        """Gold logits ``gap`` below the best: a float32 probability
        underflows there, a log-probability does not. Loss and gradient
        match a straight-line fp64 log-sum-exp at both dtypes."""
        valid = np.array([[True] * 8, [False] + [True] * 4 + [False] * 3])
        golds = np.array([[1, 6], [2, 3]])
        start = np.zeros((2, 8))
        end = np.linspace(-1.0, 1.0, 16).reshape(2, 8)
        start[0, 4] = start[1, 3] = gap
        end[0, 0] = gap
        want, want_grads = 0.0, []
        for x, gold in ((start, golds[:, 0]), (end, golds[:, 1])):
            lp = np.stack([ref_log_probs(row, v) for row, v in zip(x, valid)])
            want -= lp[[0, 1], gold].sum() / 2
            want_grads.append((np.exp(lp) - np.eye(8)[gold]) / 2)
        for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
            lg = S.SpanLogits(Tensor(np.stack([start, end]).astype(dtype)), valid)
            chain = T.Chain({})
            loss = S.span_loss(lg, golds, chain=chain)
            assert len(chain) == 1
            d_scores = T.backward(chain, {})
            assert loss.dtype == dtype
            np.testing.assert_allclose(float(loss.data), want, rtol=tol)
            assert d_scores.dtype == dtype
            for got, grad in zip(d_scores, want_grads):
                np.testing.assert_allclose(got, grad, rtol=tol, atol=tol / 10)

    def test_batched_is_mean(self):
        valid = np.array([[False, True, True], [False, True, True]])
        start = np.array([[0.0, 1.0, 2.0], [0.0, -1.0, 0.5]])
        end = np.array([[0.0, 0.3, 0.1], [0.0, 2.0, -0.2]])
        lb = S.SpanLogits(Tensor(np.stack([start, end])), valid)
        golds = np.array([[1, 2], [2, 2]])
        batched = float(S.span_loss(lb, golds).data)
        singles = [float(S.span_loss(lb.example(i), tuple(golds[i])).data)
                   for i in range(2)]
        np.testing.assert_allclose(batched, np.mean(singles), rtol=1e-12)
        # the per-example losses it averages, in fp64
        per = S.example_losses(lb, golds)
        assert per.shape == (2,) and per.dtype == np.float64
        np.testing.assert_allclose(per, singles, rtol=1e-12)
        assert S.example_losses(lb.example(0), tuple(golds[0])).shape == ()

    def test_batched_gold_outside_valid_raises(self):
        valid = np.array([[False, True, True], [False, True, False]])
        lb = S.SpanLogits(Tensor(np.zeros((2, 2, 3))), valid)
        S.span_loss(lb, np.array([[1, 2], [1, 1]]))
        with pytest.raises(ContractError):
            S.span_loss(lb, np.array([[1, 2], [1, 2]]))
        with pytest.raises(ContractError):
            S.span_loss(lb, np.array([1, 2]))

    def test_gold_outside_valid_raises(self):
        valid = np.array([False, True, True, False])
        with pytest.raises(ContractError):
            S.span_loss(logits_1d(np.zeros(4), np.zeros(4), valid), (0, 2))
        with pytest.raises(ContractError):
            S.span_loss(logits_1d(np.zeros(4), np.zeros(4), valid), (1, 3))


class TestDecodeTop1:
    def setup_method(self):
        self.cfg = S.RecallConfig(k=5, max_span_len=30)
        self.text = "ABCDEFGH"
        self.span = (1, 8)

    def peaked(self, n, s_pos, e_pos):
        start = np.zeros(n)
        end = np.zeros(n)
        start[s_pos] = 9.0
        end[e_pos] = 9.0
        valid = np.zeros(n, dtype=bool)
        valid[1:9] = True
        return logits_1d(start, end, valid)

    def test_forward_peaks(self):
        c = S.decode_top1(self.peaked(10, 2, 4), self.text, self.span, self.cfg)
        assert (c.start, c.end) == (2, 4)
        assert c.entity_text == "BCD"

    def test_reversed_peaks_resolve_to_brute_force(self):
        lg = self.peaked(10, 4, 2)
        c = S.decode_top1(lg, self.text, self.span, self.cfg)
        sc, s, e = brute_force_top1(lg.start_logits.data, lg.end_logits.data,
                                    lg.valid, 30)
        assert (c.start, c.end) == (s, e) != (4, 2)
        np.testing.assert_allclose(c.score, sc, rtol=1e-12)

    def test_single_valid_position(self):
        valid = np.zeros(6, dtype=bool)
        valid[3] = True
        c = S.decode_top1(logits_1d(np.zeros(6), np.zeros(6), valid),
                          "ABCDEF", (1, 4), S.RecallConfig())
        assert (c.start, c.end) == (3, 3)

    def test_no_valid_position_raises(self):
        with pytest.raises(DecodeError):
            S.decode_top1(logits_1d(np.zeros(4), np.zeros(4),
                                    np.zeros(4, dtype=bool)),
                          "AB", (1, 2), S.RecallConfig())

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            valid = rng.random(n) < 0.7
            if not valid.any():
                valid[int(rng.integers(n))] = True
            start = rng.standard_normal(n) * 2
            end = rng.standard_normal(n) * 2
            msl = int(rng.integers(1, 8))
            cfg = S.RecallConfig(k=3, max_span_len=msl)
            text = "x" * n
            lg = logits_1d(start, end, valid)
            got = S.decode_top1(lg, text, (0, n - 1), cfg)
            sc, s, e = brute_force_top1(start, end, valid, msl)
            assert (got.start, got.end) == (s, e)
            np.testing.assert_allclose(got.score, sc, rtol=1e-12)

    def test_tie_break_smaller_start_then_end(self):
        # all-equal logits: every pair ties; expect the first valid (s, s)
        valid = np.array([False, True, True, True])
        c = S.decode_top1(logits_1d(np.zeros(4), np.zeros(4), valid),
                          "ABC", (1, 3), S.RecallConfig())
        assert (c.start, c.end) == (1, 1)


class TestDecodeMultichannel:
    def make(self, start, end, valid):
        return logits_1d(start, end, valid)

    def test_k1_equals_top1(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            n = 8
            valid = np.ones(n, dtype=bool)
            lg = self.make(rng.standard_normal(n), rng.standard_normal(n), valid)
            cfg = S.RecallConfig(k=1)
            out = S.decode_multichannel(lg, "y" * n, (0, n - 1), cfg)
            top1 = S.decode_top1(lg, "y" * n, (0, n - 1), cfg)
            assert out == [top1]

    def test_two_peaks_both_recalled(self):
        n = 12
        start = np.full(n, -6.0)
        end = np.full(n, -6.0)
        start[2], end[3] = 8.0, 8.0    # peak A: span (2,3)
        start[7], end[8] = 7.5, 7.5    # peak B: span (7,8)
        valid = np.zeros(n, dtype=bool)
        valid[1:11] = True
        text = "abcdefghij"
        cfg = S.RecallConfig(k=3)
        out = S.decode_multichannel(self.make(start, end, valid), text, (1, 10), cfg)
        spans = {(c.start, c.end) for c in out}
        assert (2, 3) in spans and (7, 8) in spans

    def test_dedup_keeps_best_scored_span_per_text(self):
        # same char at two positions: spans (1,1) and (3,3) share text "a"
        text = "aba"
        start = np.array([0.0, 5.0, 0.0, 4.0, 0.0])
        end = np.array([0.0, 5.0, 0.0, 4.0, 0.0])
        valid = np.array([False, True, True, True, False])
        cfg = S.RecallConfig(k=5)
        out = S.decode_multichannel(self.make(start, end, valid), text, (1, 3), cfg)
        texts = [c.entity_text for c in out]
        assert len(texts) == len(set(texts))
        a_cands = [c for c in out if c.entity_text == "a"]
        assert len(a_cands) == 1 and (a_cands[0].start, a_cands[0].end) == (1, 1)

    def test_sorted_distinct_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 16))
            valid = rng.random(n) < 0.8
            if not valid.any():
                valid[0] = True
            lg = self.make(rng.standard_normal(n) * 2, rng.standard_normal(n) * 2,
                           valid)
            k = int(rng.integers(1, 7))
            cfg = S.RecallConfig(k=k, max_span_len=5)
            out = S.decode_multichannel(lg, "z" * n, (0, n - 1), cfg)
            assert 1 <= len(out) <= k
            scores = [c.score for c in out]
            assert scores == sorted(scores, reverse=True)
            texts = [c.entity_text for c in out]
            assert len(texts) == len(set(texts))
            for c in out:
                assert c.end - c.start < 5 and valid[c.start] and valid[c.end]

    def test_prefix_property_growing_k(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(4, 14))
            valid = np.ones(n, dtype=bool)
            lg = self.make(rng.standard_normal(n) * 2,
                           rng.standard_normal(n) * 2, valid)
            prev = None
            for k in range(1, 8):
                cfg = S.RecallConfig(k=k, max_span_len=6)
                out = S.decode_multichannel(lg, "w" * n, (0, n - 1), cfg)
                if prev is not None:
                    assert out[:len(prev)] == prev
                prev = out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_loop_reference_exactly(self, dtype):
        rng = np.random.default_rng(8)
        for _ in range(150):
            lg, text, span = random_decode_case(rng, dtype)
            cfg = S.RecallConfig(k=int(rng.integers(1, 8)),
                                 max_span_len=int(rng.integers(1, 7)))
            got = S.decode_multichannel(lg, text, span, cfg)
            want = reference_ranked(lg.start_logits.data, lg.end_logits.data,
                                    lg.valid, text, span[0], cfg)
            assert [(c.start, c.end, c.entity_text, c.score) for c in got] == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_matches_loop_reference_exactly(self, dtype, monkeypatch):
        """Each row of a batched decode is the loop reference's list, score
        bits included, across ties, widths past the row length, k past the
        number of distinct texts, and rows whose best pairs repeat texts."""
        calls = []
        ranked = S._ranked_lists
        monkeypatch.setattr(S, "_ranked_lists", lambda *a: calls.append(a) or ranked(*a))
        rng = np.random.default_rng(9)
        short = wide = 0
        for trial in range(120):
            lg, texts, spans = random_decode_batch(rng, dtype)
            n = lg.valid.shape[1]
            cfg = S.RecallConfig(k=int(rng.integers(1, 13)),
                                 max_span_len=n + 5 if trial % 4 == 0
                                 else int(rng.integers(1, 9)))
            got = S.decode_multichannel(lg, texts, spans, cfg)
            assert len(got) == len(texts)
            for i, cands in enumerate(got):
                want = reference_ranked(lg.start_logits.data[i], lg.end_logits.data[i],
                                        lg.valid[i], texts[i], spans[i][0], cfg)
                assert as_tuples(cands) == [(s, e, t, sc.hex()) for s, e, t, sc in want]
                short += len(want) < cfg.k
            wide += cfg.max_span_len >= n
        assert len(calls) > 120, "no row needed the full re-sort"
        assert short and wide

    def test_one_example_and_top1_are_the_batched_rows(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            lg, texts, spans = random_decode_batch(rng, np.float32)
            cfg = S.RecallConfig(k=4, max_span_len=6)
            rows = S.decode_multichannel(lg, texts, spans, cfg)
            tops = S.decode_top1(lg, texts, spans, cfg)
            for i, text in enumerate(texts):
                one = S.decode_multichannel(lg.example(i), text, tuple(spans[i]), cfg)
                assert as_tuples(one) == as_tuples(rows[i])
                top = S.decode_top1(lg.example(i), text, tuple(spans[i]), cfg)
                assert as_tuples([top]) == as_tuples([tops[i]]) == as_tuples(one[:1])

    def test_full_resort_finds_texts_below_the_prefix(self, monkeypatch):
        """Every pair but the two that end on "b" ties, so the tied prefix
        holds only the texts "a" and "aa"; the full sort finds the rest."""
        calls = []
        ranked = S._ranked_lists
        monkeypatch.setattr(S, "_ranked_lists", lambda *a: calls.append(a) or ranked(*a))
        n = 30
        logits = np.zeros(n)
        logits[-1] = -10.0
        lg = logits_1d(np.zeros(n), logits, np.ones(n, dtype=bool))
        text, cfg = "a" * (n - 1) + "b", S.RecallConfig(k=4, max_span_len=2)
        got = S.decode_multichannel(lg, text, (0, n - 1), cfg)
        assert [c.entity_text for c in got] == ["a", "aa", "ab", "b"]
        assert len(calls) == 2
        want = reference_ranked(np.zeros(n), logits, lg.valid, text, 0, cfg)
        assert as_tuples(got) == [(s, e, t, sc.hex()) for s, e, t, sc in want]

    def test_batch_needs_one_text_and_span_per_row(self):
        lg = S.SpanLogits(Tensor(np.zeros((2, 2, 4))), np.ones((2, 4), dtype=bool))
        cfg = S.RecallConfig()
        with pytest.raises(ContractError):
            S.decode_multichannel(lg, ["abcd"], np.array([[0, 3], [0, 3]]), cfg)
        with pytest.raises(ContractError):
            S.decode_multichannel(lg, "ab", np.array([[0, 1], [0, 1]]), cfg)
        with pytest.raises(ContractError):
            S.decode_multichannel(lg, ["abcd", "abcd"], (0, 3), cfg)
        lg.valid[1] = False
        with pytest.raises(DecodeError):
            S.decode_multichannel(lg, ["abcd", "abcd"], np.array([[0, 3], [0, 3]]), cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["start", "end"])
    def test_nonfinite_logit_raises_naming_the_row(self, which, value):
        """A non-finite score at a valid position of row 1 is a DecodeError
        naming that row, not a list with a missing row; one at a masked
        position does not matter."""
        scores = np.zeros((2, 3, 5))
        side = scores[["start", "end"].index(which)]
        valid = np.ones((3, 5), dtype=bool)
        valid[0, 4] = False
        side[0, 4] = value
        side[1, 2] = value
        lg = S.SpanLogits(Tensor(scores), valid)
        spans = np.array([[0, 4]] * 3)
        with pytest.raises(DecodeError, match="row 1"):
            S.decode_multichannel(lg, ["abcde"] * 3, spans, S.RecallConfig(k=2))
        side[1, 2] = 0.0
        got = S.decode_multichannel(lg, ["abcde"] * 3, spans, S.RecallConfig(k=2))
        assert [len(c) for c in got] == [2, 2, 2]

    def test_config_validation(self):
        with pytest.raises(ContractError):
            S.RecallConfig(k=0)
        with pytest.raises(ContractError):
            S.RecallConfig(max_span_len=0)
