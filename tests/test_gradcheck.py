"""Gradient suite: every differentiable op against central finite differences."""

import numpy as np
import pytest

from psrank import tensor as T
from psrank.tensor import Tensor

from gradcheck import GradCheckError, grad_check

TOL = 1e-3


def away_from_kink(rng, shape, margin=1e-2):
    x = rng.normal(size=shape)
    sign = np.where(x >= 0, 1.0, -1.0)
    return x + sign * margin


def test_sum_of_squares_exact():
    report = grad_check(lambda x: T.tsum(x * x), [Tensor([1.0, 2.0])], tolerance=1e-6)
    assert report.passed, report


def test_softmax_nll():
    rng = np.random.default_rng(0)

    def op(logits):
        probs = T.softmax(logits)
        return -T.log(probs[1])

    report = grad_check(op, [Tensor(rng.normal(size=3))], tolerance=1e-4)
    assert report.passed, report


def test_constant_function_zero_gradient():
    report = grad_check(lambda x: Tensor([4.0]) * 1.0, [Tensor([1.0, -1.0])], tolerance=1e-9)
    assert report.max_rel_err == 0.0


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_nonfinite_raises():
    with pytest.raises(GradCheckError, match="log"):
        grad_check(T.log, [Tensor([0.0, 1.0])], name="log")


@pytest.mark.parametrize("seed", [0, 1])
def test_matmul(seed):
    rng = np.random.default_rng(seed)
    a, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)))
    assert grad_check(T.matmul, [a, b], tolerance=TOL).passed


def test_softmax():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 5)))
    assert grad_check(T.softmax, [x], tolerance=TOL).passed


def test_conv2d():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 5, 5)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b = Tensor(rng.normal(size=3))
    assert grad_check(lambda x, w, b: T.conv2d(x, w, bias=b), [x, w, b], tolerance=TOL).passed


def test_conv2d_strided():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 6, 6)))
    w = Tensor(rng.normal(size=(2, 2, 3, 3)))
    assert grad_check(lambda x, w: T.conv2d(x, w, stride=2), [x, w], tolerance=TOL).passed


def test_conv2d_no_padding():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 5, 5)))
    w = Tensor(rng.normal(size=(2, 2, 3, 3)))
    assert grad_check(lambda x, w: T.conv2d(x, w, padding=0), [x, w], tolerance=TOL).passed


def test_conv2d_strided_with_bias():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 7, 7)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b = Tensor(rng.normal(size=3))
    assert grad_check(lambda x, w, b: T.conv2d(x, w, bias=b, stride=2), [x, w, b], tolerance=TOL).passed


def test_conv2d_pointwise():
    # 1x1, stride-1, unpadded, as in the mask branch's fuse conv: the input is its own columns
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(4, 3, 3)))
    w = Tensor(rng.normal(size=(2, 4, 1, 1)))
    b = Tensor(rng.normal(size=2))
    assert grad_check(lambda x, w, b: T.conv2d(x, w, bias=b), [x, w, b], tolerance=TOL).passed


def test_conv2d_pointwise_padded_strided():
    # a 1x1 kernel that still gathers: padded, then strided
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    w = Tensor(rng.normal(size=(2, 3, 1, 1)))
    assert grad_check(lambda x, w: T.conv2d(x, w, padding=1, stride=2), [x, w], tolerance=TOL).passed


def test_conv2d_non_square_input():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 4, 7)))
    w = Tensor(rng.normal(size=(2, 2, 3, 3)))
    assert grad_check(lambda x, w: T.conv2d(x, w), [x, w], tolerance=TOL).passed


def test_group_norm():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 3, 3)) * 2 + 1)
    gamma = Tensor(rng.normal(size=4))
    beta = Tensor(rng.normal(size=4))
    assert grad_check(lambda x, g, b: T.group_norm(x, 2, g, b), [x, gamma, beta], tolerance=TOL).passed


def test_mhsa():
    rng = np.random.default_rng(6)
    d = 8
    x = Tensor(rng.normal(size=(4, d)))
    mats = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d)) for _ in range(4)]
    assert grad_check(lambda x, q, k, v, o: T.multi_head_attention(x, 2, q, k, v, o),
                      [x] + mats, tolerance=TOL).passed


def test_mhsa_batched():
    # [B,L,D], the shape the DPT row, column and cross routes use
    rng = np.random.default_rng(16)
    d = 8
    x = Tensor(rng.normal(size=(3, 4, d)))
    mats = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d)) for _ in range(4)]
    assert grad_check(lambda x, q, k, v, o: T.multi_head_attention(x, 2, q, k, v, o),
                      [x] + mats, tolerance=TOL).passed


def test_interpolate():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 4, 4)))
    assert grad_check(lambda t: T.interpolate(t, (7, 3)), [x], tolerance=TOL).passed


def test_sigmoid():
    rng = np.random.default_rng(8)
    assert grad_check(T.sigmoid, [Tensor(rng.normal(size=12))], tolerance=TOL).passed


def test_relu_away_from_kink():
    rng = np.random.default_rng(9)
    x = Tensor(away_from_kink(rng, 12))
    assert grad_check(T.relu, [x], tolerance=TOL).passed


def test_leaky_relu_away_from_kink():
    rng = np.random.default_rng(10)
    x = Tensor(away_from_kink(rng, 12))
    assert grad_check(T.leaky_relu, [x], tolerance=TOL).passed


def test_concat_stack_take():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(2, 3)))

    def op(a, b):
        joined = T.concat([a, b], axis=0)
        piled = T.stack([a, b], axis=0)
        return joined[np.array([0, 3])] + T.tsum(piled, axis=0)

    assert grad_check(op, [a, b], tolerance=TOL).passed
