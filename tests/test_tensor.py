import math
import tracemalloc

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psrank import tensor as T
from psrank import train
from psrank.errors import ConfigurationError, DimensionError
from psrank.tensor import Parameter, Tensor

from gradcheck import grad_check
from oracles import (AttentionPairs, attention_reduce_oracle, attention_reference, conv2d_gather_oracle,
                     conv2d_reference, conv2d_reference_grads, group_norm_oracle, interpolate_oracle,
                     take_scatter_oracle, tape_nodes, transpose_oracle)


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

    @pytest.mark.usefixtures("float64")
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

    @pytest.mark.usefixtures("float64")
    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7)) * 10
        out = T.softmax(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-9)
        assert (out.data >= 0).all()

    def test_large_values_stable(self):
        out = T.softmax(Tensor([1000.0, 1000.0, 999.0]))
        assert np.isfinite(out.data).all()

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("shape", [(6,), (116, 4), (5, 7), (3, 8), (2, 3, 12)])
    def test_bytes_equal_numpy_reductions(self, shape):
        # short rows take the elementwise chains, long ones numpy's reductions
        rng = np.random.default_rng(4)
        a, g = rng.normal(size=shape) * 5, rng.normal(size=shape)
        x = Tensor(a, requires_grad=True)
        out = T.softmax(x)
        out.backward(g)
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        assert out.data.tobytes() == expected.tobytes()
        assert x.grad.tobytes() == (expected * (g - (g * expected).sum(axis=-1, keepdims=True))).tobytes()


class TestConv2d:
    @pytest.mark.usefixtures("float64")
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

    @pytest.mark.usefixtures("float64")
    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, pad=1), atol=1e-10)

    @pytest.mark.usefixtures("float64")
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
    @pytest.mark.usefixtures("float64")
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

    @pytest.mark.usefixtures("float64")
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
    @pytest.mark.usefixtures("float64")
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

    @pytest.mark.usefixtures("float64")
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

    @pytest.mark.usefixtures("float64")
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


def key_major(a):
    """A contiguous copy of ``a`` with its last axis moved to the front."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


class TestShortAxisReductions:
    """The softmax's key-axis sums, each over the leading axis of a key-major
    array, against numpy's last-axis sums of the row-major array, byte for
    byte, and the softmax they feed against numpy's row-major softmax.
    """

    # few distinct values, signed zeros among them, so rows repeat their maximum,
    # mix -0.0 with +0.0 and are sometimes all -0.0
    values = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
                       st.floats(-1e300, 1e300, allow_nan=False))

    @staticmethod
    def assert_softmax_matches_numpy(a):
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert np.moveaxis(T._softmax_keys(key_major(a)), 0, -1).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, max_side=7), elements=values))
    @example(np.full((3, 4), -0.0))
    @example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    @example(np.array([[1.0, 3.0, -0.0, 3.0, 3.0]]))
    def test_chains_equal_numpy_reductions(self, a):
        assert T._key_sum(key_major(a)).tobytes() == a.sum(axis=-1).tobytes()
        self.assert_softmax_matches_numpy(a)

    def test_all_negative_zero_row_sums_to_positive_zero(self):
        for n in (5, 12, 130):  # each branch of the pairwise order
            assert not np.signbit(T._key_sum(np.full((n, 2), -0.0))).any(), n

    @pytest.mark.parametrize("n", [8, 12, 116])
    def test_long_axis_takes_numpy_path(self, n):
        # a row whose sequential sum is 1 while numpy's pairwise sum is 0
        a = np.zeros((2, n))
        a[:, :4] = [1e16, 1.0, -1e16, 1.0]
        sequential = a[:, 0] + 0.0
        for i in range(1, n):
            sequential += a[:, i]
        keys = key_major(a)
        assert T._key_sum(keys).tobytes() == a.sum(axis=-1).tobytes()
        assert T._key_sum(keys).tobytes() != sequential.tobytes()

    # every branch of numpy's pairwise order: sequential below 8 terms, eight
    # partial sums up to 128, halves split at a multiple of 8 above that
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 300)).flatmap(
        lambda shape, elements=values: hnp.arrays(np.float64, shape, elements=elements)))
    @example(np.full((2, 200), -0.0))
    @example(np.array([[0.0] * 130 + [-0.0] * 3]))
    @example(np.array([[-0.0] * 5 + [0.0] * 4]))
    @example(np.array([[1e16, 1.0, -1e16] + [1.0] * 250]))
    def test_every_length_matches_numpy(self, a):
        assert T._key_sum(key_major(a)).tobytes() == a.sum(axis=-1).tobytes()
        self.assert_softmax_matches_numpy(a)


def outputs_and_grads(op, arrays, seed):
    """Bytes of ``op``'s output and of every input's gradient for a random seed gradient."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*inputs)
    out.backward(np.random.default_rng(seed).normal(size=out.shape))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in inputs]


@pytest.mark.usefixtures("float64")
class TestKernelsMatchPlainForms:
    """The shortcut kernels against their plain forms in ``oracles``, byte for
    byte, on the shapes the DPT and the mask branch use.
    """

    # row/column routes (side, side, E) at every grid side; cross routes (cells, S, E)
    # at full128 and toy64; the all-scale baseline's single sequence of K cells
    @pytest.mark.parametrize("shape", [(s, s, 16) for s in range(4, 13)]
                             + [(144, 5, 16), (64, 3, 16), (116, 16)]
                             # inner dimensions from 16 up, where a transposed BLAS operand
                             # rounds differently, and one-token sequences (gemv)
                             + [(2, 20, 16), (3, 16, 16), (1, 130, 16), (6, 1, 16)])
    def test_attention(self, shape):
        rng = np.random.default_rng(sum(shape))
        arrays = [rng.normal(size=shape)] + [rng.normal(size=(16, 16)) / 4.0 for _ in range(4)]
        got, want = (outputs_and_grads(lambda x, *ws: attention(x, 4, *ws), arrays, 1)
                     for attention in (T.multi_head_attention, attention_reduce_oracle))
        assert got == want

    @pytest.mark.parametrize("c, h, co, k, stride, padding", [
        (64, 32, 8, 1, 1, None),  # full128's mask-fuse conv: the input is its own columns
        (24, 16, 8, 1, 1, None),  # toy64's
        (8, 9, 4, 1, 2, None),  # 1x1 with a stride still gathers
        (8, 9, 4, 1, 1, 1),  # ...as does a padded 1x1
        (3, 64, 16, 3, 2, None),  # encoder stage 0
        (16, 12, 16, 3, 1, None),  # padded 3x3, as in cgr
        (16, 12, 16, 3, 1, 0),
    ])
    @pytest.mark.parametrize("bias", [True, False])
    def test_conv2d(self, c, h, co, k, stride, padding, bias):
        rng = np.random.default_rng(c + h + k)
        arrays = [rng.normal(size=(c, h, h)), rng.normal(size=(co, c, k, k))]
        if bias:
            arrays.append(rng.normal(size=co))
        got, want = (outputs_and_grads(lambda *ts: conv(*ts, stride=stride, padding=padding), arrays, 2)
                     for conv in (T.conv2d, conv2d_gather_oracle))
        assert got == want

    def test_pointwise_conv2d_of_a_strided_view(self):
        x = np.random.default_rng(3).normal(size=(6, 5, 8)).transpose(0, 2, 1)
        w = np.random.default_rng(4).normal(size=(3, 6, 1, 1))
        got, want = (outputs_and_grads(conv, [x, w], 5) for conv in (T.conv2d, conv2d_gather_oracle))
        assert got == want

    # the cross route's resampling at toy64 and full128, the mask branch's,
    # a kept size and non-square grids
    @pytest.mark.parametrize("shape, size", [
        ((16, 6, 6), (8, 8)), ((16, 8, 8), (4, 4)), ((16, 4, 4), (12, 12)), ((16, 12, 12), (10, 10)),
        ((8, 16, 16), (32, 32)), ((3, 5, 4), (5, 4)), ((2, 5, 3), (7, 2)),
    ])
    def test_interpolate(self, shape, size):
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        got, want = (outputs_and_grads(lambda t: resample(t, size), [x], 8)
                     for resample in (T.interpolate, interpolate_oracle))
        assert got == want

    @pytest.mark.parametrize("shape, axes", [
        ((1, 16, 12, 12), (0, 2, 3, 1)), ((144, 4, 5, 4), (0, 2, 1, 3)), ((2, 3, 4), None), ((3, 4), (1, 0)),
    ])
    def test_transpose(self, shape, axes):
        x = np.random.default_rng(6).normal(size=shape)
        got, want = (outputs_and_grads(lambda t: transpose(t, axes), [x], 7)
                     for transpose in (T.transpose, transpose_oracle))
        assert got == want


# toy64's and full128's grids, a one-grid pyramid, and non-square grids
PYRAMIDS = [((8, 8), (6, 6), (4, 4)), ((12, 12), (10, 10), (8, 8), (6, 6), (4, 4)), ((7, 7),),
            ((5, 3), (3, 4))]


def grid_blocks(x, grids):
    """Each (h, w) grid's (C, h, w) block of a (C, K) array."""
    out, lo = [], 0
    for h, w in grids:
        out.append(x[:, lo : lo + h * w].reshape(x.shape[0], h, w))
        lo += h * w
    return out


def flat(blocks):
    return np.concatenate([b.reshape(b.shape[0], -1) for b in blocks], axis=1)


class TestPyramidForms:
    """``conv2d``, ``group_norm`` and ``interpolate`` over a (C, K) pyramid
    equal one call per grid, byte for byte, in the output and in every
    gradient. The per-grid
    calls accumulate a shared weight's gradient one grid at a time, in grid
    order (the order the tape runs them in), and so must the pyramid form.
    """

    @staticmethod
    def compare(op, grids, x, params, seed):
        """Bytes of (output, dx, parameter grads) of ``op`` run once over the
        pyramid and once per grid, the grids' outputs concatenated."""
        g = None
        results = []
        for pyramid_form in (True, False):
            ps = [Tensor(p, requires_grad=True) for p in params]
            if pyramid_form:
                xs = [Tensor(x, requires_grad=True)]
                out = op(xs[0], *ps, grids=grids)
            else:
                xs = [Tensor(b, requires_grad=True) for b in grid_blocks(x, grids)]
                outs = [op(xb, *ps) for xb in xs]
                out = T.concat([T.reshape(o, (o.shape[0], -1)) for o in outs], axis=1)
            if g is None:
                g = np.random.default_rng(seed).normal(size=out.shape)
            out.backward(g)
            dx = xs[0].grad if pyramid_form else flat([t.grad for t in xs])
            results.append([out.data.tobytes(), dx.tobytes()] + [p.grad.tobytes() for p in ps])
        return results

    @pytest.mark.parametrize("grids", PYRAMIDS)
    @pytest.mark.parametrize("k, stride, padding, bias", [
        (3, 1, None, True),  # cgr, clcg and the heads
        (3, 1, None, False),
        (1, 1, None, True),  # pointwise: the input is its own columns
        (3, 2, None, True),  # strided, as the encoder runs one grid
        (3, 1, 0, False),
    ])
    def test_conv2d_equals_per_grid_calls(self, grids, k, stride, padding, bias):
        rng = np.random.default_rng(len(grids) + k + stride)
        cells = sum(h * w for h, w in grids)
        x = rng.normal(size=(5, cells))
        params = [rng.normal(size=(4, 5, k, k))] + ([rng.normal(size=4)] if bias else [])

        def op(x, w, *b, grids=None):
            return T.conv2d(x, w, bias=b[0] if b else None, stride=stride, padding=padding, grids=grids)

        pyramid_form, per_grid = self.compare(op, grids, x, params, seed=1)
        assert pyramid_form == per_grid

    @pytest.mark.parametrize("grids", PYRAMIDS + [((4, 4), (2, 1), (1, 1))])
    @pytest.mark.parametrize("groups", [1, 4])
    def test_group_norm_equals_per_grid_calls(self, grids, groups):
        rng = np.random.default_rng(len(grids) + groups)
        cells = sum(h * w for h, w in grids)
        x = rng.normal(size=(8, cells)) * 3 + 1
        params = [rng.normal(size=8), rng.normal(size=8)]

        def op(x, gamma, beta, grids=None):
            return T.group_norm(x, groups, gamma, beta, grids=grids)

        pyramid_form, per_grid = self.compare(op, grids, x, params, seed=2)
        assert pyramid_form == per_grid

    @pytest.mark.parametrize("grids", [PYRAMIDS[1], ((16, 16),) * 8])  # full128's, and 8 images' encoder stage
    def test_group_norm_tape_keeps_little_beyond_its_output(self, grids):
        # its normalized values and one statistic per (group, cell), no per-value
        # copy of a statistic and no reordered copy of the values
        x = Tensor(np.random.default_rng(3).normal(size=(16, sum(h * w for h, w in grids))), requires_grad=True)
        gamma, beta = Parameter(np.ones(16)), Parameter(np.zeros(16))
        T.group_norm(x, 4, gamma, beta, grids=grids)  # fills the shape caches
        tracemalloc.start()
        try:
            out = T.group_norm(x, 4, gamma, beta, grids=grids)
            kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert kept <= 1.5 * x.data.nbytes

    @pytest.mark.parametrize("shape, groups", [((8, 5, 3), 4), ((16, 12, 12), 4), ((4, 1, 1), 2)])
    def test_one_grid_group_norm_equals_plain_form(self, shape, groups):
        rng = np.random.default_rng(sum(shape))
        arrays = [rng.normal(size=shape), rng.normal(size=shape[0]), rng.normal(size=shape[0])]
        got, want = (outputs_and_grads(lambda *ts: norm(ts[0], groups, *ts[1:]), arrays, 3)
                     for norm in (T.group_norm, group_norm_oracle))
        assert got == want

    @pytest.mark.parametrize("grids, sizes", [
        (((5, 3), (3, 4), (4, 4)), ((8, 6), (2, 3), (4, 4))),  # up, down and same size, non-square
        (PYRAMIDS[0], ((8, 8),) * 3),  # toy64's cross route: every grid up to the largest...
        (((8, 8),) * 3, PYRAMIDS[0]),  # ...and back down
        (PYRAMIDS[1], ((12, 12),) * 5),  # full128's
        (((12, 12),) * 5, PYRAMIDS[1]),
        (((7, 7),), ((3, 5),)),
    ])
    def test_interpolate_equals_per_grid_calls(self, grids, sizes):
        rng = np.random.default_rng(len(grids) + len(sizes[0]))
        x = rng.normal(size=(6, sum(h * w for h, w in grids)))
        g = rng.normal(size=(6, sum(h * w for h, w in sizes)))
        pyr = Tensor(x, requires_grad=True)
        out = T.interpolate(pyr, sizes, grids=grids)
        out.backward(g)
        xs = [Tensor(b, requires_grad=True) for b in grid_blocks(x, grids)]
        outs = [T.interpolate(xb, size) for xb, size in zip(xs, sizes)]
        per_grid = T.concat([T.reshape(o, (o.shape[0], -1)) for o in outs], axis=1)
        per_grid.backward(g)
        assert out.data.tobytes() == per_grid.data.tobytes()
        assert pyr.grad.tobytes() == flat([t.grad for t in xs]).tobytes()

    def test_interpolate_gradcheck(self):
        grids, sizes = ((3, 3), (2, 2), (2, 3)), ((2, 4), (3, 3), (2, 3))
        x = Tensor(np.random.default_rng(22).normal(size=(2, 19)))
        assert grad_check(lambda x: T.interpolate(x, sizes, grids=grids), [x], tolerance=1e-3).passed

    def test_interpolate_needs_one_size_per_grid(self):
        with pytest.raises(DimensionError, match="2 sizes for 3 grids"):
            T.interpolate(Tensor(np.zeros((2, 21))), ((4, 4), (2, 2)), grids=((4, 4), (2, 2), (1, 1)))

    def test_conv2d_gradcheck(self):
        grids = ((3, 3), (2, 2), (1, 1))
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(2, 14)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = Tensor(rng.normal(size=3))
        assert grad_check(lambda x, w, b: T.conv2d(x, w, bias=b, grids=grids), [x, w, b], tolerance=1e-3).passed

    def test_group_norm_gradcheck(self):
        grids = ((3, 3), (2, 2))
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(4, 13)) * 2 + 1)
        gamma, beta = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
        assert grad_check(lambda x, g, b: T.group_norm(x, 2, g, b, grids=grids),
                          [x, gamma, beta], tolerance=1e-3).passed

    def test_pyramid_width_checked(self):
        with pytest.raises(DimensionError, match=r"\(C, 20\) pyramid"):
            T.conv2d(Tensor(np.zeros((2, 19))), Tensor(np.zeros((1, 2, 3, 3))), grids=((4, 4), (2, 2)))
        with pytest.raises(DimensionError, match=r"\(C, 20\) pyramid"):
            T.group_norm(Tensor(np.zeros((2, 4, 5))), 1, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         grids=((4, 4), (2, 2)))
        with pytest.raises(DimensionError, match=r"\(C, 20\) pyramid"):
            T.interpolate(Tensor(np.zeros((2, 21))), ((4, 4), (2, 2)), grids=((4, 4), (2, 2)))


class TestTakeBackward:
    # g holds -0.0 among its values: both forms must turn it into +0.0
    @pytest.mark.parametrize("shape, idx", [
        ((16, 360), (slice(None), slice(100, 244))),  # a pyramid's column block
        ((5, 16, 12, 12), 2),  # the cross route's mixed[i]
        ((6, 4), slice(1, 5, 2)),
        ((3, 4, 5), (1, slice(None), 3)),
        ((3, 4, 5), (np.int64(2), slice(-3, None))),
    ])
    def test_basic_index_equals_add_at_form(self, shape, idx):
        rng = np.random.default_rng(len(shape))
        a = rng.normal(size=shape)

        def op(take):
            # a second consumer makes the take add into an existing gradient
            return lambda t: T.concat([T.reshape(take(t, idx), (-1,)), T.reshape(t * 2.0, (-1,))], axis=0)

        got, want = (outputs_and_grads(op(take), [a], 4) for take in (T.take, take_scatter_oracle))
        assert got == want
        x = Tensor(a, requires_grad=True)
        sel = T.take(x, idx)
        sel.backward(np.where(rng.random(sel.shape) < 0.5, -0.0, 1.0))
        assert not np.signbit(x.grad).any()

    def test_repeated_fancy_index_accumulates(self):
        a = np.random.default_rng(5).normal(size=(4, 3))
        idx = np.array([0, 2, 2, 3, 2])
        got, want = (outputs_and_grads(lambda t: take(t, idx), [a], 6) for take in (T.take, take_scatter_oracle))
        assert got == want
        x = Tensor(a, requires_grad=True)
        T.tsum(x[idx]).backward()
        np.testing.assert_array_equal(x.grad, [[1, 1, 1], [0, 0, 0], [3, 3, 3], [1, 1, 1]])


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
        train.SgdOptimizer({"p": p}).zero_grad()
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

    @pytest.mark.usefixtures("float64")
    def test_first_gradient_turns_negative_zero_positive(self):
        # 0 + g, as a zeros-then-add first write gives
        x = Tensor(np.zeros(3), requires_grad=True)
        T._accumulate(x, np.array([-0.0, 1.0, -2.0]))
        assert x.grad.tobytes() == (np.zeros(3) + np.array([-0.0, 1.0, -2.0])).tobytes()

    def test_backward_frees_interior_gradients(self):
        leaf = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p = Parameter(np.array([3.0, 4.0]))
        interior = leaf * p
        loss = T.tsum(interior)
        loss.backward()
        assert interior.grad is None and loss.grad is None
        np.testing.assert_array_equal(leaf.grad, [3.0, 4.0])
        np.testing.assert_array_equal(p.grad, [1.0, 2.0])

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
