"""Tensor core, the encoder's array kernels and the span head stage:
forward values, the chain ``backward`` runs, and gradients vs finite
differences."""

import sys
import threading
import weakref

import numpy as np
import pytest

from sebertnets import encoder as E
from sebertnets import span as S
from sebertnets import tensor as T
from sebertnets.errors import DegenerateMaskError, ShapeError
from sebertnets.recurrent import GRU, LSTM, _sigmoid, _step, direction_layout

from gradcheck import (chain_grads, check_grads, grad_close, kernel_op, numeric_grad,
                       source, square_sum, weighted_sum)

@pytest.fixture
def randn():
    """Standard normal draws from a generator of the test's own, so its
    inputs do not depend on which tests ran before it."""
    rng = np.random.default_rng(12345)
    return lambda *shape: rng.standard_normal(shape)


def key_bias(mask, dtype=np.float64):
    """The additive key mask ``encode`` builds: 0 at live, -inf at masked."""
    return np.where(mask, dtype(0), dtype(-np.inf))


def head(chain, h, w_start, w_end):
    """The span head over Tensors, recorded on ``chain`` after a source
    stage for ``h``: its [2, ..., S] output as a Tensor."""
    weights = {"w_start": w_start, "w_end": w_end}
    return S.score(source(chain, h), weights, np.ones(h.shape[:-1], dtype=bool),
                   chain=chain).scores


def encode_tiny(mask, ids_shape=(2, 4)):
    cfg = E.EncoderConfig(vocab_size=5, d_model=4, n_layers=1, n_heads=2, d_ff=4,
                          max_len=8, dropout_rate=0.0)
    params = T.draw(E.encoder_layout(cfg), np.random.default_rng(0), np.float64)
    ids = np.ones(ids_shape, dtype=np.int64)
    return E.encode(ids, np.zeros_like(ids), mask, params, cfg)


class TestForwardValues:
    """The span head is the model's one matmul: [.., S, width] states
    times each [width, 1] scorer, reshaped into a row of its output."""

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            head(None, T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 1))),
                 T.Tensor(np.zeros((2, 1))))
        assert "(2, 3)" in str(e.value) and "(2, 1)" in str(e.value)

    def test_matmul_values(self):
        h = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = head(None, h, T.Tensor([[5.0], [7.0]]), T.Tensor([[6.0], [8.0]]))
        np.testing.assert_array_equal(out.data, [[19, 43], [22, 50]])

    def test_matmul_inner_dim_check(self):
        w = T.Tensor(np.zeros((2, 1)))
        with pytest.raises(ShapeError):
            head(None, T.Tensor(np.zeros((2, 3))), w, w)
        with pytest.raises(ShapeError):  # the two scorers must match
            head(None, T.Tensor(np.zeros((2, 2))), w, T.Tensor(np.zeros((3, 1))))
        with pytest.raises(ShapeError):  # a vector input has no rule
            head(None, T.Tensor(np.zeros(2)), w, w)

    def test_dtype_preserved(self, randn):
        for dt in (np.float32, np.float64):
            x = T.Tensor(randn(3, 3).astype(dt))
            w = T.Tensor(randn(3, 1).astype(dt))
            assert head(None, x, w, w).dtype == dt
            out, back = S._head(x.data, w.data, w.data)
            assert all(d.dtype == dt for d in back(out))
            v = randn(2, 3, 3).astype(dt)
            g = np.ones(3, dtype=dt)
            for out, back in (E._relu(v), E._gelu(v), E._layer_norm(v, g, g),
                              E._masked_softmax(v, key_bias(np.arange(3) < 2, dt)),
                              E._dropout(v, 0.5, np.random.default_rng(0)),
                              E._linear(v, randn(3, 2).astype(dt), g[:2])):
                assert out.dtype == dt
                assert all(d.dtype == dt for d in back(out))

    def test_sigmoid_saturates_without_nan(self):
        # the recurrent gates' sigmoid; tier-1 turns its exp overflow
        # warning into an error unless the step silences it, once per step
        with np.errstate(over="ignore"):
            s32 = _sigmoid(np.array([-100.0, 0.0, 100.0], dtype=np.float32))
            s64 = _sigmoid(np.array([-800.0, 0.0, 800.0], dtype=np.float64))
        np.testing.assert_array_equal(s32, [0.0, 0.5, 1.0])
        assert np.isfinite(s64).all()
        np.testing.assert_allclose(s64, [0.0, 0.5, 1.0], atol=1e-300)
        # every sigmoid gate of a step, driven to -big and +big by its bias,
        # saturates to exactly 0 and 1 with no warning
        for cell, gates in ((GRU, (1, 2)), (LSTM, (2, 3, 4))):
            for dtype, big in ((np.float32, 100.0), (np.float64, 800.0)):
                w = {name: np.zeros(shape, dtype)
                     for name, shape, _ in direction_layout(cell, 1, 2)}
                for name in w:
                    if name.startswith("b_"):
                        w[name][:] = (-big, big)
                h = np.zeros((1, 2), dtype)
                acts = _step(cell, w, np.zeros((1, 1), dtype), h,
                             h.copy() if cell == LSTM else None)[2]
                for k in gates:
                    assert acts[k].tobytes() == np.array([[0.0, 1.0]], dtype).tobytes()

    def test_relu(self):
        out, back = E._relu(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(back(np.ones(3))[0], [0.0, 0.0, 1.0])

    def test_layer_norm_standardizes(self, randn):
        out, _ = E._layer_norm(randn(4, 8), np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose((out ** 2).mean(axis=-1), 1.0, atol=1e-4)


class TestMaskedSoftmax:
    """The attention kernel takes the additive key mask ``encode`` builds
    once per pass; ``encode`` checks the mask's shape and rows."""

    def test_matches_fp64_exp_normalize(self):
        p, _ = E._masked_softmax(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        e = np.exp(np.array([1.0, 2.0, 3.0]) - 3.0)
        np.testing.assert_allclose(p, e / e.sum(), rtol=1e-15)

    def test_masked_positions_exactly_zero(self):
        x = np.array([[5.0, 1e9, -2.0, 0.5]], dtype=np.float32)
        mask = np.array([[True, False, True, False]])
        p, _ = E._masked_softmax(x, key_bias(mask, np.float32))
        assert p[0, 1] == 0.0 and p[0, 3] == 0.0
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)

    def test_degenerate_row_raises(self):
        mask = np.array([[True, False, True, True], [False, False, False, False]])
        with pytest.raises(DegenerateMaskError):
            encode_tiny(mask)

    def test_masked_grad_is_zero(self, randn):
        mask = np.array([[True, False, True, True], [True, True, False, True]])
        p, back = E._masked_softmax(randn(2, 4), key_bias(mask))
        (g,) = back(2 * p)  # the gradient of sum(p * p)
        assert g[0, 1] == 0.0 and g[1, 2] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_broadcast_key_mask_equals_full_mask(self, randn, dtype):
        keys = np.array([[True, False, True, True, False],
                         [False, False, False, True, True]])
        x, w = randn(2, 3, 4, 5).astype(dtype), randn(2, 3, 4, 5).astype(dtype)
        outs = []
        for mask in (keys[:, None, None, :], np.broadcast_to(keys[:, None, None, :],
                                                             (2, 3, 4, 5)).copy()):
            p, back = E._masked_softmax(x, key_bias(mask, dtype))
            outs.append((p, back(w)[0]))
        (p1, g1), (p2, g2) = outs
        assert p1.dtype == g1.dtype == dtype
        assert np.array_equal(p1, p2) and np.array_equal(g1, g2)
        assert (p1[0, ..., 1] == 0.0).all() and (g1[1, ..., :3] == 0.0).all()

    def test_degenerate_broadcast_row_raises(self):
        # one dead row among live ones still fails the whole batch
        mask = np.array([[True, True, True], [False, False, False], [True, False, False]])
        with pytest.raises(DegenerateMaskError):
            encode_tiny(mask, ids_shape=(3, 3))

    @pytest.mark.parametrize("shape", [(2, 1, 4), (2, 3), (3, 1, 3), (1, 2, 1, 3)])
    def test_mask_that_does_not_broadcast_raises(self, shape):
        with pytest.raises(ShapeError):
            encode_tiny(np.ones(shape, dtype=bool), ids_shape=(2, 4))


class TestTapeMechanics:
    """The chain of stages that ``backward`` runs (its ``tape``)."""

    def test_sum_grad_is_ones(self):
        x = T.Tensor(np.zeros(3))
        (grad,) = chain_grads(lambda c, x: weighted_sum(c, source(c, x), np.ones(3)), [x])
        np.testing.assert_array_equal(grad, [1.0, 1.0, 1.0])

    def test_a_gradient_lives_until_its_record_has_run(self):
        """When a stage's backward runs, no input gradient that a stage run
        before it received or returned is alive but the one it is handed.
        The backward consumes the chain: once it returns, no stage's saved
        array is alive, and the chain is empty."""
        given = []  # weakrefs to every input gradient a backward got or returned
        others_alive = []
        kept = []  # weakrefs to the array each stage's backward reads
        x = T.Tensor(np.ones(4))
        ws = [T.Tensor(np.ones(4)) for _ in range(4)]
        chain = T.Chain({"x": x, **{f"w{i}": w for i, w in enumerate(ws)}})

        def stage(y, w):
            saved = y * 2.0
            kept.append(weakref.ref(saved))

            def back(g):
                others_alive.append(sum(r() is not None and r() is not g for r in given))
                dy = g * 2.0
                given.extend(weakref.ref(a) for a in (g, dy))
                return dy, g + saved
            chain.add("stage", back, [w])
            return saved

        y = source(chain, x).data
        for w in ws:
            y = stage(y, w)
        weighted_sum(chain, y, np.ones(4))
        del y
        assert len(chain) == 6
        grads = {}
        T.backward(chain, grads)
        assert others_alive == [0] * 4
        assert [r() for r in kept] == [None] * 4
        assert len(chain) == 0
        np.testing.assert_array_equal(grads["x"], np.full(4, 16.0))
        np.testing.assert_array_equal(grads["w0"], np.full(4, 8.0 + 2.0))

    def test_no_grad_for_non_requiring_leaf(self, randn):
        """A chain writes gradients only under the names of the parameters
        its stages read; the gradient of the first stage's input, which is
        no parameter, is what ``backward`` returns."""
        x = T.Tensor(randn(1, 3))
        c = T.Tensor(randn(3, 1))
        zero = T.Tensor(np.zeros((3, 1)))
        chain = T.Chain({"c": c, "zero": zero})
        logits = S.score(x, {"w_start": c, "w_end": zero}, np.ones((1,), dtype=bool),
                         chain=chain)
        weighted_sum(chain, logits.scores, np.ones((2, 1)))
        grads = {}
        dx = T.backward(chain, grads)
        assert sorted(grads) == ["c", "zero"]
        np.testing.assert_array_equal(dx, c.data.T)
        np.testing.assert_array_equal(grads["c"], x.data.T)

    def test_no_tape_means_no_recording(self, randn):
        """Without a chain a stage records nothing, and its value is the
        recorded one."""
        h, w = T.Tensor(randn(2, 3, 4)), T.Tensor(randn(4, 1))
        chain = T.Chain({"w": w})
        plain = head(None, h, w, w)
        recorded = S.score(h, {"w_start": w, "w_end": w}, np.ones((2, 3), dtype=bool),
                           chain=chain).scores
        assert [stage for stage, _, _ in chain] == ["head"]
        assert plain.data.tobytes() == recorded.data.tobytes()

    def test_tapes_on_threads_are_independent(self):
        results = {}

        def run(key, seed):
            rng = np.random.default_rng(seed)
            x = T.Tensor(rng.standard_normal(4))
            (grad,) = chain_grads(lambda c, x: square_sum(c, source(c, x)), [x])
            results[key] = np.abs(grad - 2 * x.data).max()

        threads = [threading.Thread(target=run, args=(i, i)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert results == {i: 0.0 for i in range(4)}


class TestGradientsAgainstFiniteDifferences:
    def test_add_bias(self, randn):
        # the bias of a linear map: its gradient sums over the positions
        check_grads(lambda c, x, w, b: square_sum(c, kernel_op(E._linear)(c, x, w, b)),
                    [randn(1, 4, 3), randn(3, 5), randn(5)])

    def test_add_bias_batched(self, randn):
        check_grads(lambda c, x, w, b: square_sum(c, kernel_op(E._linear)(c, x, w, b)),
                    [randn(2, 3, 4), randn(4, 4), randn(4)])

    def test_matmul_2d(self, randn):
        # the span head over one example's [S, width] states
        w = randn(2, 3)
        check_grads(lambda c, h, a, b: weighted_sum(c, head(c, h, a, b), w),
                    [randn(3, 4), randn(4, 1), randn(4, 1)])

    def test_matmul_batched(self, randn):
        w = randn(2, 2, 3)
        check_grads(lambda c, h, a, b: weighted_sum(c, head(c, h, a, b), w),
                    [randn(2, 3, 4), randn(4, 1), randn(4, 1)])

    def test_matmul_shared_weight(self, randn):
        # the scorers are shared across the batch: their gradient is the
        # sum of each example's
        h, a, b, g = randn(3, 5, 4), randn(4, 1), randn(4, 1), randn(2, 3, 5)
        _, back = S._head(h, a, b)
        whole = back(g)
        rows = [S._head(h[i], a, b)[1](g[:, i]) for i in range(3)]
        for k in (1, 2):
            np.testing.assert_allclose(whole[k], sum(r[k] for r in rows), rtol=1e-12)
        np.testing.assert_array_equal(whole[0], np.stack([r[0] for r in rows]))

    def test_sigmoid_tanh_relu_gelu(self, randn):
        x = randn(3, 4) + np.sign(randn(3, 4)) * 0.05  # keep away from relu kink
        w = randn(3, 4)
        check_grads(lambda c, t: weighted_sum(c, kernel_op(E._relu)(c, t), w), [x])
        check_grads(lambda c, t: weighted_sum(c, kernel_op(E._gelu)(c, t), w), [x])

    def test_reshape(self, randn):
        # the head reshapes each [.., S, 1] product into a row of its output
        h, a, b = randn(2, 3, 4), randn(4, 1), randn(4, 1)
        out = head(None, T.Tensor(h), T.Tensor(a), T.Tensor(b)).data
        assert out.shape == (2, 2, 3)
        assert out[0].tobytes() == (h @ a).reshape(2, 3).tobytes()
        assert out[1].tobytes() == (h @ b).reshape(2, 3).tobytes()
        check_grads(lambda c, h, a, b: square_sum(c, head(c, h, a, b)), [h, a, b])

    def test_embedding_lookup_accumulates_repeats(self, randn):
        ids, segs = np.array([[0, 2, 2, 1]]), np.zeros((1, 4), dtype=np.int64)
        w = randn(1, 4, 3)
        op = kernel_op(E._embedding, ids, segs, 0.0, None)
        check_grads(lambda c, *tables: weighted_sum(c, op(c, *tables), w),
                    [randn(4, 3), randn(5, 3), randn(2, 3), 1.0 + 0.1 * randn(3),
                     randn(3)])
        tables = [randn(4, 3), randn(5, 3), randn(2, 3)]
        _, back = E._embedding(*tables, np.ones(3), np.zeros(3), ids, segs, 0.0, None)
        d_tok, d_pos, d_seg, _, _ = back(w)
        # one example: position p's row is the gradient at p, and id 2's
        # row sums its two positions
        np.testing.assert_array_equal(d_tok[2], d_pos[1] + d_pos[2])
        np.testing.assert_array_equal(d_tok[3], 0.0)
        np.testing.assert_array_equal(d_seg[0], d_pos[:4].sum(axis=0))

    def test_embedding_out_of_range(self, randn):
        cfg = E.EncoderConfig(vocab_size=4, d_model=4, n_heads=2, max_len=8)
        params = T.draw(E.encoder_layout(cfg), np.random.default_rng(0))
        for ids, segs in (([[4]], [[0]]), ([[-1]], [[0]]), ([[1]], [[2]])):
            with pytest.raises(IndexError):
                E.embed(np.array(ids), np.array(segs), params, cfg)

    def test_layer_norm(self, randn):
        w = randn(3, 6)
        check_grads(lambda c, x, g, b: weighted_sum(c, kernel_op(E._layer_norm)(c, x, g, b), w),
                    [randn(3, 6), randn(6), randn(6)])

    def test_masked_softmax(self, randn):
        mask = np.array([[True, True, False, True], [True, True, True, False]])
        check_grads(lambda c, x: square_sum(c, kernel_op(E._masked_softmax, key_bias(mask))(c, x)),
                    [randn(2, 4)])

    def test_dropout_fixed_mask(self, randn):
        w = randn(6, 6)

        def build(c, x):
            return weighted_sum(c, kernel_op(E._dropout, 0.5, np.random.default_rng(99))(c, x), w)
        check_grads(build, [randn(6, 6)])

    def test_dropout_rate_zero_is_identity(self, randn):
        x = randn(3, 3)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for rate, gen in ((0.0, rng), (0.5, None)):
            out, back = E._dropout(x, rate, gen)
            assert out is x and back(x)[0] is x
        assert rng.bit_generator.state == state  # nothing drawn

    def test_deep_chain(self, randn):
        def build(c, x, w1, b1, w2, b2):
            h = kernel_op(E._relu)(c, kernel_op(E._linear)(c, x, w1, b1))
            return square_sum(c, kernel_op(E._gelu)(c, kernel_op(E._linear)(c, h, w2, b2)))
        check_grads(build, [randn(2, 4, 6), randn(6, 5), randn(5), randn(5, 3), randn(3)])


class TestNumericOracleHelpers:
    def test_numeric_grad_on_quadratic(self, randn):
        x = randn(3)
        num = numeric_grad(lambda v: float((v ** 2).sum()), x)
        assert grad_close(2 * x, num)


class TestArena:
    def test_take_is_an_aligned_c_contiguous_view(self):
        arena = T.Arena()
        a = arena.take((3, 5), np.float32)
        b = arena.take((7,), bool)
        for x, shape, dtype in ((a, (3, 5), np.float32), (b, (7,), bool)):
            assert x.shape == shape and x.dtype == dtype and x.flags.c_contiguous
            assert x.__array_interface__["data"][0] % T.Arena.ALIGN == 0
        a[:] = 1.0
        b[:] = False
        assert (a == 1.0).all()  # the blocks do not overlap
        assert arena.taken_bytes == 2 * T.Arena.ALIGN == arena.high_water

    def test_views_keep_their_block(self):
        arena = T.Arena()
        a = arena.take((4, 16), np.float64)
        start = a.__array_interface__["data"][0]
        view = a.T[1:]  # another view of the same block
        del a
        assert arena.taken_bytes == 4 * 16 * 8
        b = arena.take((4, 16), np.float64)
        assert b.__array_interface__["data"][0] != start
        b[...] = 1.0
        view[...] = 2.0
        assert (b == 1.0).all()  # the blocks do not overlap
        del b, view
        assert arena.taken_bytes == 0
        again = arena.take((4, 16), np.float64)
        assert again.__array_interface__["data"][0] == start

    def test_free_neighbours_merge_and_first_fit_reuses_them(self):
        arena = T.Arena()
        a, b, c = (arena.take((16,), np.float32) for _ in range(3))
        start = a.__array_interface__["data"][0]
        del b, a
        ab = arena.take((32,), np.float32)  # fits only where a and b were
        assert ab.__array_interface__["data"][0] == start
        del c, ab
        assert arena.taken_bytes == 0 and arena.reserved_bytes == T.Arena.CHUNK + T.Arena.ALIGN
        whole = arena.take((T.Arena.CHUNK,), np.uint8)
        assert whole.__array_interface__["data"][0] == start

    def test_a_take_that_fits_nowhere_adds_a_chunk(self):
        arena = T.Arena()
        small = arena.take((8,), np.float32)
        big = arena.take((T.Arena.CHUNK + 1,), np.uint8)
        # the big block rounds up to CHUNK + ALIGN; each chunk keeps ALIGN
        # bytes of slack to align its first block
        assert arena.reserved_bytes == 2 * T.Arena.CHUNK + 3 * T.Arena.ALIGN
        del small, big
        assert arena.taken_bytes == 0

    def test_a_block_dropped_on_another_thread_comes_back_at_the_next_take(self):
        arena = T.Arena()
        frees = []
        real_free = arena._free

        def free(*block):
            frees.append(threading.get_ident())
            real_free(*block)
        arena._free = free
        held = [arena.take((64,), np.float32)]
        start = held[0].__array_interface__["data"][0]
        worker = threading.Thread(target=held.clear)
        worker.start()
        worker.join()
        assert not held and frees == []  # the worker only queued the block
        again = arena.take((64,), np.float32)
        assert frees == [threading.get_ident()]
        assert again.__array_interface__["data"][0] == start

    def test_blocks_dropped_on_many_threads_all_come_back(self):
        """Four threads drop blocks while this one takes and drops its own,
        switching threads as often as the interpreter allows: no block is
        lost or freed twice."""
        arena = T.Arena()
        start = arena.take((16,), np.float32).__array_interface__["data"][0]
        handed = [[arena.take((16,), np.float32) for _ in range(200)] for _ in range(4)]
        workers = [threading.Thread(target=lambda blocks=blocks: [blocks.pop()
                                                                  for _ in range(200)])
                   for blocks in handed]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for _ in range(200):
                kept = arena.take((16,), np.float32)
        finally:
            for w in workers:
                w.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and not any(handed)
        assert arena.taken_bytes == T.Arena.ALIGN  # ``kept``
        del kept
        whole = arena.take((T.Arena.CHUNK,), np.uint8)  # every block merged back
        assert whole.__array_interface__["data"][0] == start
