"""Tensor core: forward values, tape mechanics, and gradients vs finite
differences."""

import threading

import numpy as np
import pytest

from sebertnets import tensor as T
from sebertnets.errors import ContractError, DegenerateMaskError, ShapeError
from sebertnets.recurrent import _sigmoid

from gradcheck import check_grads, grad_close, numeric_grad

@pytest.fixture
def randn():
    """Standard normal draws from a generator of the test's own, so its
    inputs do not depend on which tests ran before it."""
    rng = np.random.default_rng(12345)
    return lambda *shape: rng.standard_normal(shape)


class TestForwardValues:
    def test_add_mul_sub(self):
        a = T.Tensor([1.0, 2.0, 3.0])
        b = T.Tensor([10.0, 20.0, 30.0])
        np.testing.assert_array_equal(T.add(a, b).data, [11, 22, 33])
        np.testing.assert_array_equal(T.mul(a, b).data, [10, 40, 90])

    def test_scalar_operand(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal((a * 2.0).data, [[2, 4], [6, 8]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))
        assert "(2, 3)" in str(e.value) and "(3, 2)" in str(e.value)

    def test_matmul_values(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[19, 22], [43, 50]])

    def test_matmul_inner_dim_check(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError):  # a vector left operand has no rule
            T.matmul(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((3, 2))))

    def test_dtype_preserved(self, randn):
        for dt in (np.float32, np.float64):
            x = T.Tensor(randn(3, 3).astype(dt))
            y = T.Tensor(randn(3, 3).astype(dt))
            for out in (T.add(x, y), T.matmul(x, y), T.gelu(x), T.relu(x),
                        T.sum_all(x)):
                assert out.dtype == dt

    def test_sigmoid_saturates_without_nan(self):
        # the recurrent gates' sigmoid; tier-1 turns its exp overflow
        # warning into an error unless the kernel silences it
        s32 = _sigmoid(np.array([-100.0, 0.0, 100.0], dtype=np.float32))
        np.testing.assert_array_equal(s32, [0.0, 0.5, 1.0])
        s64 = _sigmoid(np.array([-800.0, 0.0, 800.0], dtype=np.float64))
        assert np.isfinite(s64).all()
        np.testing.assert_allclose(s64, [0.0, 0.5, 1.0], atol=1e-300)

    def test_relu(self):
        np.testing.assert_array_equal(
            T.relu(T.Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_layer_norm_standardizes(self, randn):
        x = T.Tensor(randn(4, 8).astype(np.float64))
        g = T.Tensor(np.ones(8))
        b = T.Tensor(np.zeros(8))
        out = T.layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose((out ** 2).mean(axis=-1), 1.0, atol=1e-4)


class TestMaskedSoftmax:
    def test_matches_fp64_exp_normalize(self):
        x = T.Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float64))
        p = T.masked_softmax(x, np.array([True, True, True])).data
        e = np.exp(np.array([1.0, 2.0, 3.0]) - 3.0)
        np.testing.assert_allclose(p, e / e.sum(), rtol=1e-15)

    def test_masked_positions_exactly_zero(self):
        x = T.Tensor(np.array([[5.0, 1e9, -2.0, 0.5]], dtype=np.float32))
        mask = np.array([[True, False, True, False]])
        p = T.masked_softmax(x, mask).data
        assert p[0, 1] == 0.0 and p[0, 3] == 0.0
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)

    def test_degenerate_row_raises(self):
        x = T.Tensor(np.zeros((2, 3)))
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(DegenerateMaskError):
            T.masked_softmax(x, mask)

    def test_masked_grad_is_zero(self, randn):
        x = T.Tensor(randn(2, 4).astype(np.float64), requires_grad=True)
        mask = np.array([[True, False, True, True], [True, True, False, True]])
        with T.Tape() as tape:
            p = T.masked_softmax(x, mask)
            loss = T.sum_all(T.mul(p, p))
        T.backward(tape, loss)
        assert x.grad[0, 1] == 0.0 and x.grad[1, 2] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_broadcast_key_mask_equals_full_mask(self, randn, dtype):
        keys = np.array([[True, False, True, True, False],
                         [False, False, False, True, True]])
        x0, w = randn(2, 3, 4, 5).astype(dtype), randn(2, 3, 4, 5).astype(dtype)
        outs = []
        for mask in (keys[:, None, None, :], np.broadcast_to(keys[:, None, None, :],
                                                             (2, 3, 4, 5)).copy()):
            x = T.Tensor(x0.copy(), requires_grad=True)
            with T.Tape() as tape:
                p = T.masked_softmax(x, mask)
                loss = T.sum_all(T.mul(p, T.Tensor(w)))
            T.backward(tape, loss)
            outs.append((p.data, x.grad))
        (p1, g1), (p2, g2) = outs
        assert p1.dtype == g1.dtype == dtype
        assert np.array_equal(p1, p2) and np.array_equal(g1, g2)
        assert (p1[0, ..., 1] == 0.0).all() and (g1[1, ..., :3] == 0.0).all()

    def test_degenerate_broadcast_row_raises(self):
        mask = np.array([True, False, True, False, False, False]).reshape(2, 1, 3)
        with pytest.raises(DegenerateMaskError):
            T.masked_softmax(T.Tensor(np.zeros((2, 4, 3))), mask)

    @pytest.mark.parametrize("shape", [(2, 1, 4), (2, 3), (3, 1, 3), (1, 2, 1, 3)])
    def test_mask_that_does_not_broadcast_raises(self, shape):
        with pytest.raises(ShapeError):
            T.masked_softmax(T.Tensor(np.zeros((2, 4, 3))), np.ones(shape, dtype=bool))


class TestTapeMechanics:
    def test_loss_must_be_scalar(self, randn):
        x = T.Tensor(randn(3), requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ContractError):
            T.backward(tape, y)

    def test_loss_must_be_on_tape(self, randn):
        x = T.Tensor(randn(3), requires_grad=True)
        with T.Tape() as tape:
            T.sum_all(x)
        with T.Tape():
            other = T.sum_all(x)
        with pytest.raises(ContractError):
            T.backward(tape, other)

    def test_sum_grad_is_ones(self):
        x = T.Tensor(np.zeros(3), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(x)
        T.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_grads_accumulate_until_cleared(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        T.backward(tape, loss)
        first = x.grad.copy()
        T.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, 2 * first)
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_for_non_requiring_leaf(self, randn):
        x = T.Tensor(randn(3), requires_grad=True)
        c = T.Tensor(randn(3))
        with T.Tape() as tape:
            loss = T.sum_all(T.mul(x, c))
        T.backward(tape, loss)
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_no_tape_means_no_recording(self, randn):
        x = T.Tensor(randn(3), requires_grad=True)
        y = T.sum_all(x)
        assert y.requires_grad
        with T.Tape() as tape:
            pass
        assert len(tape) == 0

    def test_reused_intermediate_fans_in(self):
        # y = x*x used twice: loss = sum(y + y) -> dloss/dx = 4x
        x = T.Tensor(np.array([1.0, 2.0], dtype=np.float64), requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, x)
            loss = T.sum_all(T.add(y, y))
        T.backward(tape, loss)
        np.testing.assert_allclose(x.grad, 4 * x.data)

    def test_tapes_on_threads_are_independent(self):
        results = {}

        def run(key, seed):
            rng = np.random.default_rng(seed)
            x = T.Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
            with T.Tape() as tape:
                loss = T.sum_all(T.mul(x, x))
            T.backward(tape, loss)
            results[key] = np.abs(x.grad - 2 * x.data).max()

        threads = [threading.Thread(target=run, args=(i, i)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(v == 0.0 for v in results.values())


class TestGradientsAgainstFiniteDifferences:
    def test_add_sub_mul(self, randn):
        a, b = randn(3, 4), randn(3, 4)
        check_grads(lambda x, y: T.sum_all(T.mul(T.add(x, y), y)), [a, b])

    def test_scalar_mul(self, randn):
        check_grads(lambda x, s: T.sum_all(T.mul(x, s)), [randn(3, 3), randn(1)])

    def test_add_bias(self, randn):
        check_grads(lambda x, b: T.sum_all(T.gelu(T.add_bias(x, b))),
                    [randn(4, 5), randn(5)])

    def test_add_bias_batched(self, randn):
        check_grads(lambda x, b: T.sum_all(T.gelu(T.add_bias(x, b))),
                    [randn(2, 3, 4), randn(4)])

    def test_matmul_2d(self, randn):
        check_grads(lambda a, b: T.sum_all(T.matmul(a, b)), [randn(3, 4), randn(4, 2)])

    def test_matmul_batched(self, randn):
        check_grads(lambda a, b: T.sum_all(T.matmul(a, b)),
                    [randn(2, 3, 4), randn(2, 4, 2)])

    def test_matmul_shared_weight(self, randn):
        check_grads(lambda a, b: T.sum_all(T.matmul(a, b)), [randn(2, 3, 4), randn(4, 2)])

    def test_sigmoid_tanh_relu_gelu(self, randn):
        x = randn(3, 4) + np.sign(randn(3, 4)) * 0.05  # keep away from relu kink
        check_grads(lambda t: T.sum_all(T.relu(t)), [x])
        check_grads(lambda t: T.sum_all(T.gelu(t)), [x])

    def test_reshape_transpose(self, randn):
        def build(x):
            y = T.transpose(T.reshape(x, (2, 3, 4)), (0, 2, 1))
            return T.sum_all(T.mul(y, y))
        check_grads(build, [randn(6, 4)])

    def test_embedding_lookup_accumulates_repeats(self, randn):
        ids = np.array([0, 2, 2, 1])
        check_grads(lambda tab: T.sum_all(T.gelu(T.embedding_lookup(tab, ids))),
                    [randn(4, 3)])
        table = T.Tensor(randn(4, 3).astype(np.float64), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(T.embedding_lookup(table, ids))
        T.backward(tape, loss)
        np.testing.assert_array_equal(table.grad[2], 2.0)
        np.testing.assert_array_equal(table.grad[3], 0.0)

    def test_embedding_out_of_range(self, randn):
        with pytest.raises(IndexError):
            T.embedding_lookup(T.Tensor(randn(4, 3)), np.array([4]))

    def test_layer_norm(self, randn):
        check_grads(lambda x, g, b: T.sum_all(T.gelu(T.layer_norm(x, g, b))),
                    [randn(3, 6), randn(6), randn(6)])

    def test_masked_softmax(self, randn):
        mask = np.array([[True, True, False, True], [True, True, True, False]])
        check_grads(lambda x: T.sum_all(T.mul(T.masked_softmax(x, mask),
                                              T.masked_softmax(x, mask))),
                    [randn(2, 4)])

    def test_dropout_fixed_mask(self, randn):
        def build(x):
            return T.sum_all(T.dropout(x, 0.5, np.random.default_rng(99)))
        check_grads(build, [randn(6, 6)])

    def test_dropout_rate_zero_is_identity(self, randn):
        x = T.Tensor(randn(3, 3))
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_deep_chain(self, randn):
        def build(x, w1, b1, w2, b2):
            h = T.relu(T.add_bias(T.matmul(x, w1), b1))
            out = T.gelu(T.add_bias(T.matmul(h, w2), b2))
            return T.sum_all(T.mul(out, out))
        check_grads(build, [randn(4, 6), randn(6, 5), randn(5), randn(5, 3), randn(3)])


class TestNumericOracleHelpers:
    def test_numeric_grad_on_quadratic(self, randn):
        x = randn(3)
        num = numeric_grad(lambda v: float((v ** 2).sum()), x)
        assert grad_close(2 * x, num)
