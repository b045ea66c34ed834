"""Recurrent cells vs straight-line fp64 references (bit-level), masked
bidirectional encoding vs a truncation oracle, gradient checks, and the
two directions on two threads vs both on the calling thread."""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sebertnets import encoder as E
from sebertnets import recurrent as R
from sebertnets import tensor as T
from sebertnets import threads
from sebertnets.errors import ContractError, DegenerateMaskError, ShapeError
from sebertnets.tensor import Tensor

from gradcheck import check_grads, square_sum, weighted_sum

@pytest.fixture
def rng():
    """A generator of the test's own, so its inputs do not depend on which
    tests ran before it."""
    return np.random.default_rng(2024)


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_lstm_step(l, h, c, w):
    """Straight-line fp64 reference of the six gate equations."""
    f = sig(l @ w["w_f"] + h @ w["u_f"] + w["b_f"])
    i = sig(l @ w["w_i"] + h @ w["u_i"] + w["b_i"])
    o = sig(l @ w["w_o"] + h @ w["u_o"] + w["b_o"])
    cc = np.tanh(l @ w["w_c"] + h @ w["u_c"] + w["b_c"])
    c2 = f * c + i * cc
    h2 = o * np.tanh(c2)
    return h2, c2, (f, i, o, cc)


def ref_gru_step(l, h, w):
    z = sig(l @ w["w_update"] + h @ w["u_update"] + w["b_update"])
    r = sig(l @ w["w_reset"] + h @ w["u_reset"] + w["b_reset"])
    hh = np.tanh(l @ w["w_candidate"] + (r * h) @ w["u_candidate"] + w["b_candidate"])
    return (1 - z) * h + z * hh, (z, r, hh)


def make_params(cell, d, hid, rng, dtype=np.float64, scale=1.0):
    p = R.RecurrentParams(cell, d, hid, T.draw(R.direction_layout(cell, d, hid), rng, dtype))
    if scale != 1.0:
        for t in p.weights.values():
            t.data *= scale
    return p


def raw_weights(p):
    return {k: t.data for k, t in p.weights.items()}


class TestLstmStep:
    def test_zero_params_zero_state(self, rng):
        p = make_params(R.LSTM, 3, 4, rng, scale=0.0)
        out = R.lstm_step(Tensor(np.zeros(3, dtype=np.float64)),
                          R.CellState(Tensor(np.zeros(4, dtype=np.float64)),
                                      Tensor(np.zeros(4, dtype=np.float64))), p)
        np.testing.assert_array_equal(out.c.data, 0.0)
        np.testing.assert_array_equal(out.h.data, 0.0)

    def test_zero_params_unit_cell(self, rng):
        # f=i=o=0.5, c~=0: c' = 0.5*1, h' = 0.5*tanh(0.5)
        p = make_params(R.LSTM, 3, 4, rng, scale=0.0)
        out = R.lstm_step(Tensor(np.zeros(3, dtype=np.float64)),
                          R.CellState(Tensor(np.zeros(4, dtype=np.float64)),
                                      Tensor(np.ones(4, dtype=np.float64))), p)
        np.testing.assert_allclose(out.c.data, 0.5, rtol=0)
        np.testing.assert_allclose(out.h.data, 0.5 * np.tanh(0.5), rtol=1e-15)
        assert abs(out.h.data[0] - 0.23105857863000487) < 1e-15

    def test_bit_exact_vs_reference_fp64(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d, hid = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = make_params(R.LSTM, d, hid, rng, scale=3.0)
            l = rng.standard_normal(d)
            h = rng.standard_normal(hid)
            c = rng.standard_normal(hid)
            out = R.lstm_step(Tensor(l), R.CellState(Tensor(h), Tensor(c)), p)
            h2, c2, gates = ref_lstm_step(l, h, c, raw_weights(p))
            assert np.array_equal(out.h.data, h2)
            assert np.array_equal(out.c.data, c2)
            f, i, o, cc = gates
            assert ((f > 0) & (f < 1)).all() and ((i > 0) & (i < 1)).all()
            assert ((o > 0) & (o < 1)).all() and ((cc > -1) & (cc < 1)).all()

    def test_wrong_cell_params(self, rng):
        p = make_params(R.GRU, 3, 4, rng)
        with pytest.raises(ContractError):
            R.lstm_step(Tensor(np.zeros(3)), R.CellState(Tensor(np.zeros(4)),
                                                         Tensor(np.zeros(4))), p)

    def test_missing_cell_state(self, rng):
        p = make_params(R.LSTM, 3, 4, rng)
        with pytest.raises(ContractError):
            R.lstm_step(Tensor(np.zeros(3)), R.CellState(Tensor(np.zeros(4))), p)


class TestGruStep:
    def test_zero_params(self, rng):
        p = make_params(R.GRU, 3, 4, rng, scale=0.0)
        out = R.gru_step(Tensor(np.zeros(3, dtype=np.float64)),
                         Tensor(np.zeros(4, dtype=np.float64)), p)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_saturated_update_gate_returns_candidate(self):
        rng = np.random.default_rng(5)
        p = make_params(R.GRU, 3, 4, rng)
        p.weights["b_update"].data[:] = 500.0  # z = 1 exactly at fp64
        l = rng.standard_normal(3)
        h = rng.standard_normal(4)
        out = R.gru_step(Tensor(l), Tensor(h), p)
        _, (_, r, _) = ref_gru_step(l, h, raw_weights(p))
        cand = np.tanh(l @ p.weights["w_candidate"].data
                       + (r * h) @ p.weights["u_candidate"].data
                       + p.weights["b_candidate"].data)
        np.testing.assert_array_equal(out.data, cand)

    def test_bit_exact_vs_reference_fp64(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d, hid = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = make_params(R.GRU, d, hid, rng, scale=3.0)
            l = rng.standard_normal(d)
            h = rng.standard_normal(hid)
            out = R.gru_step(Tensor(l), Tensor(h), p)
            h2, (z, r, hh) = ref_gru_step(l, h, raw_weights(p))
            assert np.array_equal(out.data, h2)
            assert ((z > 0) & (z < 1)).all() and ((r > 0) & (r < 1)).all()
            assert ((hh > -1) & (hh < 1)).all()


@pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
def test_step_cells_are_forward_only(cell, rng):
    p = make_params(cell, 3, 4, rng)
    l, h, c = rng.standard_normal((2, 3)), *rng.standard_normal((2, 2, 4))

    def run():
        if cell == R.LSTM:
            new = R.lstm_step(Tensor(l), R.CellState(Tensor(h), Tensor(c)), p)
            return new.h.data, new.c.data
        return R.gru_step(Tensor(l), Tensor(h), p).data, None

    with T.Tape(), pytest.raises(ContractError, match="forward-only"):
        run()
    got_h, got_c = run()
    if cell == R.LSTM:
        want_h, want_c, _ = ref_lstm_step(l, h, c, raw_weights(p))
        assert np.array_equal(got_c, want_c)
    else:
        want_h, _ = ref_gru_step(l, h, raw_weights(p))
    assert np.array_equal(got_h, want_h)


class TestBidirectionalEncode:
    def run_both(self, seq, mask, fwd, bwd):
        return R.bidirectional_encode(Tensor(seq), mask, fwd, bwd).data

    def test_output_shape_and_dtype(self):
        rng = np.random.default_rng(1)
        for cell in (R.LSTM, R.GRU):
            fwd = make_params(cell, 5, 3, rng, dtype=np.float32)
            bwd = make_params(cell, 5, 3, rng, dtype=np.float32)
            seq = rng.standard_normal((4, 5)).astype(np.float32)
            out = self.run_both(seq, np.ones(4, dtype=bool), fwd, bwd)
            assert out.shape == (4, 6) and out.dtype == np.float32
            batched = self.run_both(np.stack([seq, seq]), np.ones((2, 4), dtype=bool),
                                    fwd, bwd)
            assert batched.shape == (2, 4, 6)
            np.testing.assert_array_equal(batched[0], out)

    def test_single_token(self):
        rng = np.random.default_rng(2)
        fwd = make_params(R.GRU, 3, 2, rng)
        bwd = make_params(R.GRU, 3, 2, rng)
        x = rng.standard_normal((1, 3))
        out = self.run_both(x, np.array([True]), fwd, bwd)
        hf, _ = ref_gru_step(x[0], np.zeros(2), raw_weights(fwd))
        hb, _ = ref_gru_step(x[0], np.zeros(2), raw_weights(bwd))
        np.testing.assert_array_equal(out[0], np.concatenate([hf, hb]))

    def test_masked_rows_are_zero(self):
        rng = np.random.default_rng(3)
        fwd = make_params(R.LSTM, 3, 2, rng)
        bwd = make_params(R.LSTM, 3, 2, rng)
        mask = np.array([True, True, False, True, False])
        out = self.run_both(rng.standard_normal((5, 3)), mask, fwd, bwd)
        np.testing.assert_array_equal(out[2], 0.0)
        np.testing.assert_array_equal(out[4], 0.0)
        assert np.abs(out[mask]).max() > 0

    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    def test_truncation_oracle(self, cell):
        # padded run == truncated run at real positions, lengths 1..20
        rng = np.random.default_rng(4)
        fwd = make_params(cell, 4, 3, rng)
        bwd = make_params(cell, 4, 3, rng)
        for n_real in range(1, 21):
            pad = int(rng.integers(0, 7))
            seq = rng.standard_normal((n_real + pad, 4))
            mask = np.zeros(n_real + pad, dtype=bool)
            mask[:n_real] = True
            padded = self.run_both(seq, mask, fwd, bwd)
            truncated = self.run_both(seq[:n_real], np.ones(n_real, dtype=bool),
                                      fwd, bwd)
            np.testing.assert_allclose(padded[:n_real], truncated, rtol=0, atol=1e-6)
            np.testing.assert_array_equal(padded[n_real:], 0.0)

    def test_padding_extension_exact(self):
        rng = np.random.default_rng(6)
        fwd = make_params(R.GRU, 4, 3, rng)
        bwd = make_params(R.GRU, 4, 3, rng)
        real = rng.standard_normal((3, 4))
        base = self.run_both(real, np.ones(3, dtype=bool), fwd, bwd)
        extended = np.concatenate([real, rng.standard_normal((5, 4))])
        mask = np.array([True] * 3 + [False] * 5)
        out = self.run_both(extended, mask, fwd, bwd)
        np.testing.assert_array_equal(out[:3], base)

    def test_interior_mask_freezes_state(self):
        # a masked middle step must not alter what downstream steps see
        rng = np.random.default_rng(7)
        fwd = make_params(R.GRU, 4, 3, rng)
        bwd = make_params(R.GRU, 4, 3, rng)
        seq = rng.standard_normal((3, 4))
        masked_mid = self.run_both(seq, np.array([True, False, True]), fwd, bwd)
        two_step = self.run_both(seq[[0, 2]], np.ones(2, dtype=bool), fwd, bwd)
        np.testing.assert_array_equal(masked_mid[[0, 2]], two_step)

    def test_all_masked_raises(self):
        rng = np.random.default_rng(8)
        fwd = make_params(R.GRU, 4, 3, rng)
        bwd = make_params(R.GRU, 4, 3, rng)
        with pytest.raises(DegenerateMaskError):
            self.run_both(rng.standard_normal((3, 4)), np.zeros(3, dtype=bool),
                          fwd, bwd)

    def test_weights_that_do_not_fit_the_sizes_raise(self):
        # hidden-4 weights declared as input 99, hidden 5
        weights = T.draw(R.direction_layout(R.GRU, 6, 4), np.random.default_rng(0))
        with pytest.raises(ShapeError, match="hidden size 5"):
            R.RecurrentParams(R.GRU, 99, 5, weights)
        with pytest.raises(ShapeError):  # the right sizes, one weight short
            R.RecurrentParams(R.GRU, 6, 4, {k: w for k, w in weights.items()
                                            if k != "u_reset"})
        with pytest.raises(ShapeError):  # an LSTM's weights as a GRU's
            R.RecurrentParams(R.GRU, 6, 4, T.draw(R.direction_layout(R.LSTM, 6, 4),
                                                  np.random.default_rng(0)))

    def test_sequence_width_must_fit_the_input_size(self):
        rng = np.random.default_rng(9)
        fwd = make_params(R.GRU, 4, 3, rng)
        bwd = make_params(R.GRU, 4, 3, rng)
        with pytest.raises(ShapeError, match="width 5"):
            self.run_both(rng.standard_normal((3, 5)), np.ones(3, dtype=bool), fwd, bwd)

    def test_cell_mismatch_raises(self):
        rng = np.random.default_rng(9)
        fwd = make_params(R.GRU, 4, 3, rng)
        bwd = make_params(R.LSTM, 4, 3, rng)
        with pytest.raises(ContractError):
            self.run_both(rng.standard_normal((3, 4)), np.ones(3, dtype=bool),
                          fwd, bwd)


class TestGradients:
    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    def test_four_step_bidirectional(self, cell):
        rng = np.random.default_rng(10)
        d, hid, s = 3, 2, 4
        proto = T.draw(R.direction_layout(cell, d, hid), rng, np.float64)
        names = list(proto)
        fwd_arrays = [proto[n].data for n in names]
        proto_b = T.draw(R.direction_layout(cell, d, hid), rng, np.float64)
        bwd_arrays = [proto_b[n].data for n in names]
        seq = rng.standard_normal((s, d))
        mask = np.array([True, True, True, False])

        def build(seq_t, *weight_tensors):
            k = len(names)
            fwd = R.RecurrentParams(cell, d, hid, dict(zip(names, weight_tensors[:k])))
            bwd = R.RecurrentParams(cell, d, hid, dict(zip(names, weight_tensors[k:])))
            out = R.bidirectional_encode(seq_t, mask, fwd, bwd)
            return square_sum(out)

        check_grads(build, [seq, *fwd_arrays, *bwd_arrays])


def reference_encode(seq, mask, fwd, bwd, cell):
    """Per-step loop over ``gru_step``/``lstm_step`` with the mask-freeze
    rule: a masked step keeps the carried state and emits a zero row."""
    b, s, _ = seq.shape
    outs = []
    for p, steps in ((fwd, range(s)), (bwd, range(s - 1, -1, -1))):
        h = np.zeros((b, p.hidden_size), dtype=seq.dtype)
        c = np.zeros_like(h)
        out = np.zeros((b, s, p.hidden_size), dtype=seq.dtype)
        for t in steps:
            x_t = Tensor(np.ascontiguousarray(seq[:, t]))
            if cell == R.LSTM:
                new = R.lstm_step(x_t, R.CellState(Tensor(h), Tensor(c)), p)
                h_new, c_new = new.h.data, new.c.data
            else:
                h_new, c_new = R.gru_step(x_t, Tensor(h), p).data, c
            keep = mask[:, t, None]
            h = np.where(keep, h_new, h)
            c = np.where(keep, c_new, c)
            out[:, t] = h * keep.astype(seq.dtype)
        outs.append(out)
    return np.concatenate(outs, axis=-1)


def ragged_batch(rng, d, dtype):
    """Three rows of lengths 5, 3 and 1 padded to 6, with an interior
    masked step in the first row."""
    seq = rng.standard_normal((3, 6, d)).astype(dtype)
    mask = np.zeros((3, 6), dtype=bool)
    for row, n in enumerate((5, 3, 1)):
        mask[row, :n] = True
    mask[0, 2] = False
    return seq, mask


class TestFusedPass:
    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_step_loop_bitwise(self, cell, dtype):
        rng = np.random.default_rng(40)
        fwd = make_params(cell, 4, 5, rng, dtype=dtype, scale=2.0)
        bwd = make_params(cell, 4, 5, rng, dtype=dtype, scale=2.0)
        seq, mask = ragged_batch(rng, 4, dtype)
        got = R.bidirectional_encode(Tensor(seq), mask, fwd, bwd).data
        want = reference_encode(seq, mask, fwd, bwd, cell)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # the head's matmul rounds differently on a strided layout
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    def test_untaped_pass_equals_taped_and_keeps_no_activations(self, cell):
        rng = np.random.default_rng(45)
        fwd = make_params(cell, 4, 16, rng, dtype=np.float32)
        bwd = make_params(cell, 4, 16, rng, dtype=np.float32)
        seq, mask = ragged_batch(rng, 4, np.float32)
        # long enough that an [S, B, H] array outweighs the per-step arrays
        seq, mask = np.tile(seq, (1, 32, 1)), np.tile(mask, (1, 32))
        # the worker thread the two directions share exists before tracing:
        # starting it is once per process, not memory a pass keeps
        R.bidirectional_encode(Tensor(seq), mask, fwd, bwd)
        outs, peaks = [], []
        for taped in (False, True):
            tape = T.Tape()
            arena = tape.arena = T.Arena()
            tracemalloc.start()
            with tape if taped else contextlib.nullcontext():
                outs.append(R.bidirectional_encode(Tensor(seq), mask, fwd, bwd).data)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert bool(len(tape)) == taped
            assert bool(arena.taken_bytes) == taped
        assert np.array_equal(outs[0], outs[1])
        # the taped pass keeps, in its tape's arena, 4 (GRU) or 6 (LSTM)
        # [S, B, H] arrays per direction, each half the size of the
        # output, and its time-major input: one array more or fewer per
        # direction falls outside. The untaped pass takes nothing from the
        # arena, and its traced peak beyond its output and its time-major
        # input stays under half of one such array.
        act = outs[0].nbytes // 2
        assert arena.taken_bytes == (4 if cell == R.GRU else 6) * 2 * act + seq.nbytes
        assert act % T.Arena.ALIGN == seq.nbytes % T.Arena.ALIGN == 0
        assert peaks[0] - outs[0].nbytes - seq.nbytes < act // 2

    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    def test_ragged_gradients(self, cell):
        rng = np.random.default_rng(41)
        d, hid = 3, 2
        fwd = make_params(cell, d, hid, rng)
        bwd = make_params(cell, d, hid, rng)
        names = list(fwd.weights)
        seq, mask = ragged_batch(rng, d, np.float64)
        w_out = rng.standard_normal((3, 6, 2 * hid))

        def build(seq_t, *weights):
            k = len(names)
            f = R.RecurrentParams(cell, d, hid, dict(zip(names, weights[:k])))
            b = R.RecurrentParams(cell, d, hid, dict(zip(names, weights[k:])))
            out = R.bidirectional_encode(seq_t, mask, f, b)
            return weighted_sum(out, w_out)

        check_grads(build, [seq, *(fwd.weights[n].data for n in names),
                            *(bwd.weights[n].data for n in names)])

    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    def test_tape_length_does_not_grow_with_sequence(self, cell):
        rng = np.random.default_rng(44)
        fwd = make_params(cell, 3, 2, rng, dtype=np.float32)
        bwd = make_params(cell, 3, 2, rng, dtype=np.float32)
        lengths = []
        for s in (4, 64):
            seq = Tensor(rng.standard_normal((2, s, 3)).astype(np.float32),
                         requires_grad=True)
            with T.Tape() as tape:
                R.bidirectional_encode(seq, np.ones((2, s), dtype=bool), fwd, bwd)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    @pytest.mark.parametrize("shape", [(2, 5, 3), (5, 3)], ids=["3d", "2d"])
    def test_whole_layer_is_one_tape_op(self, cell, shape):
        rng = np.random.default_rng(47)
        fwd = make_params(cell, 3, 2, rng)
        bwd = make_params(cell, 3, 2, rng)
        seq = Tensor(rng.standard_normal(shape), requires_grad=True)
        with T.Tape() as tape:
            out = R.bidirectional_encode(seq, np.ones(shape[:-1], dtype=bool), fwd, bwd)
        assert len(tape) == 1
        assert out.shape == shape[:-1] + (4,)


def arena_loss(out, w, arena):
    """sum(out * w) as one test-side op whose gradient, like the span
    head's, comes from ``arena``, which the layer's backward gives it to."""
    w = np.asarray(w, dtype=out.dtype)
    return T._make((out,), np.asarray((out.data * w).sum(), dtype=out.dtype),
                   lambda g: (np.multiply(g, w, out=arena.take(w.shape, w.dtype)),))


def recorded_pass(cell, seq, mask, w_out, fwd, bwd, arena):
    """One forward and backward of the layer recorded on a tape lent a
    fresh ``arena``, from copies of the inputs: the output, the input
    gradient and every weight gradient, fwd's then bwd's, in layout
    order."""
    seq_t = Tensor(seq.copy(), requires_grad=True)
    params = [R.RecurrentParams(cell, p.input_size, p.hidden_size,
                                {k: Tensor(t.data.copy(), requires_grad=True)
                                 for k, t in p.weights.items()}) for p in (fwd, bwd)]
    with T.Tape() as tape:
        tape.arena = arena
        out = R.bidirectional_encode(seq_t, mask, *params)
        tape.arena = T.MALLOC
        loss = arena_loss(out, w_out, arena)
    T.backward(tape, loss)
    # only the input gradient, which the layer below gives back, is taken
    assert arena.taken_bytes == -(-seq.nbytes // T.Arena.ALIGN) * T.Arena.ALIGN
    return [out.data, seq_t.grad, *(t.grad for p in params for t in p.weights.values())]


def ragged_rows(rng, b, s, d, dtype):
    """``b`` rows padded to ``s``: random lengths from 1 to ``s`` and, in
    every row of more than two real steps, one masked interior step."""
    seq = rng.standard_normal((b, s, d)).astype(dtype)
    mask = np.zeros((b, s), dtype=bool)
    for row, n in enumerate(rng.integers(1, s + 1, size=b)):
        mask[row, :n] = True
        if n > 2:
            mask[row, rng.integers(1, n - 1)] = False
    return seq, mask


class TestTwoThreads:
    """The left-to-right direction runs on the worker thread and the
    right-to-left one on the calling thread (``threads.threaded``); the
    results are those of running both on the calling thread, bit for
    bit."""

    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 32])
    def test_threaded_equals_inline_bit_for_bit(self, monkeypatch, cell, dtype, b):
        rng = np.random.default_rng(50)
        fwd = make_params(cell, 5, 7, rng, dtype=dtype, scale=2.0)
        bwd = make_params(cell, 5, 7, rng, dtype=dtype, scale=2.0)
        seq, mask = ragged_rows(rng, b, 9, 5, dtype)
        w_out = rng.standard_normal((b, 9, 14))
        runs = []
        for threaded in (False, True):
            monkeypatch.setattr(threads, "threaded", lambda rows, on=threaded: on)
            runs.append(recorded_pass(cell, seq, mask, w_out, fwd, bwd, T.Arena()))
            # a tape-free pass, through the same sweeps
            runs[-1].append(R.bidirectional_encode(Tensor(seq), mask, fwd, bwd).data)
        assert len(runs[0]) == 3 + 2 * len(fwd.weights)
        for inline, threaded in zip(*runs):
            assert inline.dtype == threaded.dtype and inline.shape == threaded.shape
            assert inline.tobytes() == threaded.tobytes()

    @pytest.mark.parametrize("cell", [R.LSTM, R.GRU])
    def test_every_arena_call_is_on_the_calling_thread(self, monkeypatch, cell):
        rng = np.random.default_rng(51)
        fwd = make_params(cell, 4, 6, rng, dtype=np.float32)
        bwd = make_params(cell, 4, 6, rng, dtype=np.float32)
        seq, mask = ragged_rows(rng, 8, 10, 4, np.float32)
        calls, sweeps = [], []
        monkeypatch.setattr(threads, "threaded", lambda rows: True)
        for name in ("_sweep", "_bptt"):
            def spy(*args, real=getattr(R, name), name=name):
                sweeps.append((name, threading.get_ident()))
                return real(*args)
            monkeypatch.setattr(R, name, spy)
        arena = T.Arena()
        for name in ("take", "give"):
            def on_thread(*args, real=getattr(arena, name), name=name):
                calls.append((name, threading.get_ident()))
                return real(*args)
            monkeypatch.setattr(arena, name, on_thread)
        recorded_pass(cell, seq, mask, rng.standard_normal((8, 10, 12)), fwd, bwd, arena)
        here = threading.get_ident()
        # each stage ran one direction on another thread
        for name in ("_sweep", "_bptt"):
            assert sorted(t == here for n, t in sweeps if n == name) == [False, True]
        assert {n for n, _ in calls} == {"take", "give"}
        assert {t for _, t in calls} == {here}

        # a recorded encoder pass: each attention and FFN block runs its
        # per-row work on two batch halves, one on the worker thread
        cfg = E.EncoderConfig(vocab_size=11, d_model=8, n_heads=2, d_ff=16, dropout_rate=0.1,
                              activation="gelu" if cell == R.LSTM else "relu")
        params = T.draw(E.encoder_layout(cfg), rng)
        ids = rng.integers(0, 11, (8, 10))
        keys = np.arange(10) < rng.integers(1, 11, (8, 1))
        halves, calls[:] = [], []

        def run(queue, r, real=E._run):
            halves.append(threading.get_ident())
            real(queue, r)
        monkeypatch.setattr(E, "_run", run)
        with T.Tape() as tape:
            tape.arena = arena
            out = E.encode(ids, np.zeros_like(ids), keys, params, cfg,
                           rng=np.random.default_rng(0))
            tape.arena = T.MALLOC
            loss = arena_loss(out.hidden, rng.standard_normal((8, 10, 8)), arena)
        T.backward(tape, loss)
        assert sorted(set(t == here for t in halves)) == [False, True]
        assert halves.count(here) == len(halves) // 2
        assert {n for n, _ in calls} == {"take", "give"}
        assert {t for _, t in calls} == {here}

    @pytest.mark.parametrize("stage", ["_sweep", "_bptt"])
    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_surfaces_once_both_directions_have_finished(self, monkeypatch, stage,
                                                                  failing):
        rng = np.random.default_rng(52)
        fwd = make_params(R.GRU, 3, 4, rng)
        bwd = make_params(R.GRU, 3, 4, rng)
        seq, mask = ragged_rows(rng, 4, 6, 3, np.float64)
        monkeypatch.setattr(threads, "threaded", lambda rows: True)
        here, finished = threading.get_ident(), threading.Event()

        def direction(*args, real=getattr(R, stage)):
            if (threading.get_ident() == here) == (failing == "caller"):
                raise DegenerateMaskError("a direction failed")
            time.sleep(0.2)  # the other direction is still running
            real(*args)
            finished.set()
        monkeypatch.setattr(R, stage, direction)
        seq_t = Tensor(seq, requires_grad=True)
        with pytest.raises(DegenerateMaskError, match="a direction failed"):
            with T.Tape() as tape:
                loss = square_sum(R.bidirectional_encode(seq_t, mask, fwd, bwd))
            T.backward(tape, loss)
        assert finished.is_set()

    def test_one_row_or_one_cpu_runs_both_directions_here(self, monkeypatch):
        rng = np.random.default_rng(53)
        fwd = make_params(R.LSTM, 3, 4, rng)
        bwd = make_params(R.LSTM, 3, 4, rng)
        idents = []

        def sweep(*args, real=R._sweep):
            idents.append(threading.get_ident())
            real(*args)
        monkeypatch.setattr(R, "_sweep", sweep)
        R.bidirectional_encode(Tensor(rng.standard_normal((1, 5, 3))),
                               np.ones((1, 5), dtype=bool), fwd, bwd)
        R.bidirectional_encode(Tensor(rng.standard_normal((5, 3))),
                               np.ones(5, dtype=bool), fwd, bwd)
        assert idents == [threading.get_ident()] * 4
        assert not threads.threaded(1)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(threads, "blas_threads", lambda: 1)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert not threads.threaded(32)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            assert threads.threaded(32)

    def test_importing_the_package_starts_no_thread(self):
        code = ("import threading, sebertnets.cli, sebertnets.model, sebertnets.recurrent; "
                "print(threading.active_count())")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.strip() == "1"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_worker(self, monkeypatch):
        rng = np.random.default_rng(54)
        fwd = make_params(R.GRU, 3, 4, rng)
        bwd = make_params(R.GRU, 3, 4, rng)
        seq, mask = rng.standard_normal((4, 5, 3)), np.ones((4, 5), dtype=bool)
        monkeypatch.setattr(threads, "threaded", lambda rows: True)
        want = R.bidirectional_encode(Tensor(seq), mask, fwd, bwd).data  # the worker runs
        with warnings.catch_warnings():
            # Python 3.12+ warns on forking a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: a pass through the worker, then out
            code = 1
            try:
                got = R.bidirectional_encode(Tensor(seq), mask, fwd, bwd).data
                code = 0 if got.tobytes() == want.tobytes() else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
