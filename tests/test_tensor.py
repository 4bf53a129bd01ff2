import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psrank import tensor as T
from psrank import train
from psrank.errors import ConfigurationError, DimensionError
from psrank.tensor import Parameter, Tensor

from oracles import (AttentionPairs, attention_reference, conv2d_reference, conv2d_reference_grads,
                     tape_nodes)


def bilinear_1d_oracle(values, dst):
    """Closed-form bilinear resample of a 1D signal, corners not aligned."""
    src = len(values)
    out = np.zeros(dst)
    for i in range(dst):
        pos = min(max((i + 0.5) * src / dst - 0.5, 0.0), src - 1.0)
        j0 = int(math.floor(pos))
        j1 = min(j0 + 1, src - 1)
        t = pos - j0
        out[i] = (1 - t) * values[j0] + t * values[j1]
    return out


class TestMatmul:
    def test_identity(self):
        x = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = T.matmul(Tensor(np.eye(2)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_arithmetic(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_dimension_error_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(5, 2\)"):
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(5, 2))
        out = T.matmul(Tensor(a), Tensor(b))
        for i in range(4):
            np.testing.assert_allclose(out.data[i], a[i] @ b)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_singleton(self):
        out = T.softmax(Tensor([3.7]))
        np.testing.assert_allclose(out.data, [1.0])

    def test_closed_form(self):
        out = T.softmax(Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7)) * 10
        out = T.softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-9)
        assert (out.data >= 0).all()

    def test_large_values_stable(self):
        out = T.softmax(Tensor([1000.0, 1000.0, 999.0]))
        assert np.isfinite(out.data).all()


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_kernel(self):
        x = np.random.default_rng(2).normal(size=(2, 4, 4))
        out = T.conv2d(Tensor(x), Tensor(np.zeros((3, 2, 3, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 4, 4)))

    def test_averaging_kernel_constant_image(self):
        c = 0.7
        x = np.full((1, 6, 6), c)
        w = np.full((1, 1, 3, 3), 1.0 / 9.0)
        expected = conv2d_reference(x, w, pad=1)
        out = T.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        # zero padding: interior stays c, borders fall below c
        np.testing.assert_allclose(out.data[0, 1:-1, 1:-1], c, atol=1e-12)
        assert (out.data[0, 0, :] < c).all()

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, pad=1), atol=1e-10)

    def test_strided_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w), stride=2)
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, pad=1, stride=2), atol=1e-10)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_bias(self):
        x = np.zeros((1, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(np.zeros((2, 1, 3, 3))), bias=Tensor([1.0, -2.0]))
        np.testing.assert_array_equal(out.data[0], np.ones((3, 3)))
        np.testing.assert_array_equal(out.data[1], -2 * np.ones((3, 3)))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError, match="exceeds the padded input"):
            T.conv2d(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 1, 3, 3))), padding=0)

    def test_inference_builds_only_the_plane_index(self):
        from psrank import model, train
        from psrank.config import toy_model_config
        from psrank.data_synth import GenConfig, generate_scene

        cfg = toy_model_config()
        params = model.init_model_params(cfg, 0)
        sample = generate_scene(GenConfig(), 3)
        T._plane_index.cache_clear()
        T._col2im_index.cache_clear()
        model.predict(sample.image, params, cfg)
        assert T._plane_index.cache_info().currsize > 0
        assert T._col2im_index.cache_info().currsize == 0
        loss = train.sample_loss(sample, train.build_targets(sample, cfg), params, cfg).total
        assert T._col2im_index.cache_info().currsize == 0
        loss.backward()
        assert T._col2im_index.cache_info().currsize > 0

    # The gather index is cached per shape, so every shape parameter is drawn:
    # a cache key that missed one would reuse another shape's index here.
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5]),
           st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.sampled_from([None, 0, 1, 2]),
           st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
    def test_matches_loop_reference(self, c, h, w, k, stride, padding, co, seed):
        pad = (k - 1) // 2 if padding is None else padding
        assume(h + 2 * pad >= k and w + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(c, h, w)), requires_grad=True)
        weight = Tensor(rng.normal(size=(co, c, k, k)), requires_grad=True)
        out = T.conv2d(x, weight, stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, conv2d_reference(x.data, weight.data, pad, stride),
                                   rtol=1e-12, atol=1e-12)
        g = rng.normal(size=out.shape)
        out.backward(g)
        dx, dw = conv2d_reference_grads(x.data, weight.data, g, pad, stride)
        np.testing.assert_allclose(x.grad, dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(weight.grad, dw, rtol=1e-12, atol=1e-12)


class TestGroupNorm:
    def test_constant_input_zeros(self):
        x = np.full((4, 3, 3), 2.5)
        out = T.group_norm(Tensor(x), 2, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_two_value_group(self):
        # group holding {1, 3}: mean 2, biased var 1 -> normalized {-1, +1}
        x = np.array([1.0, 3.0]).reshape(2, 1, 1)
        out = T.group_norm(Tensor(x), 1, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-5)

    def test_gamma_zero_gives_beta(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 2, 2))
        beta = np.array([1.0, -1.0, 0.5, 2.0])
        out = T.group_norm(Tensor(x), 2, Tensor(np.zeros(4)), Tensor(beta))
        np.testing.assert_allclose(out.data, np.broadcast_to(beta[:, None, None], x.shape))

    def test_normalization_statistics(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 4, 4)) * 3 + 1
        out = T.group_norm(Tensor(x), 4, Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-9)
        grouped = out.data.reshape(4, -1)
        assert np.abs(grouped.mean(axis=1)).max() < 1e-6
        np.testing.assert_allclose(grouped.var(axis=1), 1.0, atol=1e-4)

    def test_indivisible_groups(self):
        with pytest.raises(ConfigurationError):
            T.group_norm(Tensor(np.zeros((5, 2, 2))), 2, Tensor(np.ones(5)), Tensor(np.zeros(5)))

    def test_statistics_equal_numpy_mean_var(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 5, 3)) * 3 + 1
        gamma, beta = rng.normal(size=8), rng.normal(size=8)
        xg = x.reshape(4, -1)
        xhat = (xg - xg.mean(axis=1, keepdims=True)) * (1.0 / np.sqrt(xg.var(axis=1, keepdims=True) + 1e-5))
        expected = gamma[:, None, None] * xhat.reshape(x.shape) + beta[:, None, None]
        out = T.group_norm(Tensor(x), 4, Tensor(gamma), Tensor(beta))
        np.testing.assert_array_equal(out.data, expected)


class TestInterpolate:
    def test_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 5, 4))
        out = T.interpolate(Tensor(x), (5, 4))
        np.testing.assert_array_equal(out.data, x)

    def test_constant_image(self):
        x = np.full((2, 3, 3), 1.25)
        out = T.interpolate(Tensor(x), (7, 5))
        np.testing.assert_allclose(out.data, 1.25, atol=1e-12)

    def test_1x2_to_1x4_matches_oracle(self):
        a, b = 0.2, 1.4
        expected = bilinear_1d_oracle([a, b], 4)
        out = T.interpolate(Tensor(np.array([[[a, b]]])), (1, 4))
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-12)
        diffs = np.diff(out.data[0, 0])
        assert (diffs >= -1e-12).all()

    def test_round_trip_shapes(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 4, 4))
        up = T.interpolate(Tensor(x), (8, 8))
        down = T.interpolate(up, (4, 4))
        assert down.data.shape == (2, 4, 4)


class TestAttention:
    @staticmethod
    def rand_params(d, seed=0):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(d, d)) / math.sqrt(d)) for _ in range(4)]

    def test_single_token_weight_is_one(self):
        # L=1: softmax of a singleton is 1, so out = x Wv Wo exactly
        d = 8
        wq, wk, wv, wo = self.rand_params(d, seed=1)
        x = np.random.default_rng(2).normal(size=(1, d))
        out = T.multi_head_attention(Tensor(x), 2, wq, wk, wv, wo)
        np.testing.assert_allclose(out.data, x @ wv.data @ wo.data, atol=1e-12)

    def test_permutation_equivariance(self):
        d, length = 8, 5
        wq, wk, wv, wo = self.rand_params(d, seed=3)
        x = np.random.default_rng(4).normal(size=(length, d))
        perm = np.array([3, 0, 4, 1, 2])
        out = T.multi_head_attention(Tensor(x), 2, wq, wk, wv, wo)
        out_p = T.multi_head_attention(Tensor(x[perm]), 2, wq, wk, wv, wo)
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-6)

    def test_shape_contract(self):
        wq, wk, wv, wo = self.rand_params(8, seed=5)
        x = np.random.default_rng(6).normal(size=(5, 8))
        out = T.multi_head_attention(Tensor(x), 2, wq, wk, wv, wo)
        assert out.data.shape == (5, 8)

    def test_batched_matches_per_sequence(self):
        wq, wk, wv, wo = self.rand_params(8, seed=7)
        xs = np.random.default_rng(8).normal(size=(3, 4, 8))
        batched = T.multi_head_attention(Tensor(xs), 4, wq, wk, wv, wo)
        for i in range(3):
            single = T.multi_head_attention(Tensor(xs[i]), 4, wq, wk, wv, wo)
            np.testing.assert_allclose(batched.data[i], single.data, atol=1e-12)

    def test_heads_must_divide_width(self):
        wq, wk, wv, wo = self.rand_params(8, seed=9)
        with pytest.raises(ConfigurationError):
            T.multi_head_attention(Tensor(np.zeros((3, 8))), 3, wq, wk, wv, wo)

    def test_projection_shape_checked(self):
        wq, wk, wv, wo = self.rand_params(8, seed=11)
        with pytest.raises(DimensionError, match="8x8"):
            T.multi_head_attention(Tensor(np.zeros((3, 8))), 2, wq, wk, wv, Tensor(np.zeros((8, 6))))

    @pytest.mark.parametrize("shape", [(5, 8), (3, 4, 8)])
    def test_fused_matches_composed_reference(self, shape):
        rng = np.random.default_rng(12)
        x = rng.normal(size=shape)
        ws = [rng.normal(size=(8, 8)) / math.sqrt(8) for _ in range(4)]
        g = rng.normal(size=shape)
        results = []
        for attention in (T.multi_head_attention, attention_reference):
            inputs = [Tensor(a, requires_grad=True) for a in [x] + ws]
            out = attention(inputs[0], 2, *inputs[1:])
            out.backward(g)
            results.append((out.data, [t.grad for t in inputs]))
        (fused, fused_grads), (reference, reference_grads) = results
        np.testing.assert_array_equal(fused, reference)
        for got, want in zip(fused_grads, reference_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_one_call_records_one_tape_node(self):
        x = Tensor(np.random.default_rng(13).normal(size=(3, 4, 8)), requires_grad=True)
        ws = [Parameter(w.data) for w in self.rand_params(8, seed=14)]
        assert tape_nodes(T.multi_head_attention(x, 2, *ws)) == 1
        assert tape_nodes(attention_reference(x, 2, *ws)) > 1

    def test_pair_counter(self):
        # the test-side counter the DPT pair checks rely on: batch * L^2 per call
        wq, wk, wv, wo = self.rand_params(8, seed=10)
        original = T.multi_head_attention
        with AttentionPairs() as counted:
            T.multi_head_attention(Tensor(np.zeros((5, 8))), 2, wq, wk, wv, wo)
            assert counted.pairs == 25
            T.multi_head_attention(Tensor(np.zeros((3, 4, 8))), 2, wq, wk, wv, wo)
            assert counted.pairs == 25 + 3 * 16
        assert T.multi_head_attention is original


class TestAutogradBasics:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(x * x)
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_broadcast_add_gradient(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        T.tsum(a + b).backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_reused_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = x * 2.0
        assert not y.requires_grad and y._parents == ()

    def test_parameter_grad_buffer(self):
        p = Parameter(np.zeros((2, 3)))
        assert p.grad.shape == (2, 3)
        T.tsum(p * 2.0).backward()
        assert (p.grad == 2.0).all()
        train.SgdOptimizer({"p": p}, 0.0).zero_grad()
        assert p.grad.shape == (2, 3) and (p.grad == 0.0).all()

    def test_first_gradient_is_a_copy(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        T._accumulate(x, g)
        T._accumulate(x, g)
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_first_gradient_broadcasts_to_shape(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        T._accumulate(x, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(x.grad, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_take_scatter_gradient(self):
        x = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        sel = x[np.array([0, 2, 2])]
        T.tsum(sel).backward()
        np.testing.assert_array_equal(x.grad, [[1, 1], [0, 0], [2, 2]])

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 6, 6)))
        ops_out = [
            T.relu(x), T.leaky_relu(x), T.sigmoid(x),
            T.group_norm(x, 2, Tensor(np.ones(4)), Tensor(np.zeros(4))),
            T.interpolate(x, (9, 3)),
        ]
        for out in ops_out:
            assert np.isfinite(out.data).all()
