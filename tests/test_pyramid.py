import numpy as np
import pytest

from psrank import pyramid
from psrank.config import ModelConfig
from psrank.errors import ConfigurationError
from psrank.tensor import Tensor


def small_cfg(**kw):
    base = dict(max_rank=3, channels=16, grid_sides=(8, 6, 4), attn_heads=4,
                gn_groups=4, dpt_layers=1, conv_layers=1)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def cfg():
    return small_cfg()


@pytest.fixture
def params(cfg):
    return pyramid.init_encoder_params(cfg, np.random.default_rng(0))


def blocks(x, cfg):
    """Each grid's (E, s, s) block of the (E, K) pyramid array ``x``."""
    out, lo = [], 0
    for s in cfg.grid_sides:
        out.append(x[:, lo : lo + s * s].reshape(x.shape[0], s, s))
        lo += s * s
    return out


def encode(image, params, cfg):
    return pyramid.pyramid_from_stages(pyramid.encoder_stages(image, params, cfg), cfg)


def test_encode_shapes(cfg, params):
    image = Tensor(np.random.default_rng(1).random(size=(3, 64, 64)))
    features = encode(image, params, cfg)
    assert features.shape == (16, 8 * 8 + 6 * 6 + 4 * 4)
    assert [g.shape for g in blocks(features.data, cfg)] == [(16, 8, 8), (16, 6, 6), (16, 4, 4)]


def test_encode_zero_image_zero_affine(cfg, params):
    for i in range(4):
        params[f"encoder.stage{i}.gn_gamma"].data[:] = 0.0
        params[f"encoder.stage{i}.gn_beta"].data[:] = 0.0
    features = encode(Tensor(np.zeros((3, 64, 64))), params, cfg)
    np.testing.assert_array_equal(features.data, 0.0)


def test_encode_deterministic(cfg):
    image = Tensor(np.random.default_rng(2).random(size=(3, 64, 64)))
    a = encode(image, pyramid.init_encoder_params(cfg, np.random.default_rng(7)), cfg)
    b = encode(image, pyramid.init_encoder_params(cfg, np.random.default_rng(7)), cfg)
    np.testing.assert_array_equal(a.data, b.data)


def test_encode_finite(cfg, params):
    image = Tensor(np.random.default_rng(3).normal(size=(3, 64, 64)) * 5)
    assert np.isfinite(encode(image, params, cfg).data).all()


class TestPositionalEncoding:
    def test_zero_input_yields_encoding(self, cfg):
        pe_params = pyramid.init_posenc_params(cfg)
        out = pyramid.add_positional_encoding(Tensor(np.zeros((16, 116))), pe_params, cfg)
        for g in blocks(out.data, cfg):
            side = g.shape[1]
            np.testing.assert_array_equal(g, pyramid.sinusoid_encoding(16, side, side))

    def test_bias_follows_list_position(self, cfg):
        # grid i takes posenc.scale{i}.bias: a grid's position in the pyramid is its scale index
        pe_params = pyramid.init_posenc_params(cfg)
        for i in range(3):
            pe_params[f"posenc.scale{i}.bias"].data[:] = i + 1.0
        out = pyramid.add_positional_encoding(Tensor(np.zeros((16, 116))), pe_params, cfg)
        for i, g in enumerate(blocks(out.data, cfg)):
            side = g.shape[1]
            np.testing.assert_array_equal(g, pyramid.sinusoid_encoding(16, side, side) + (i + 1.0))

    def test_distinct_cells_distinct_codes(self):
        # direct evaluation of the sinusoid over all cells
        enc = pyramid.sinusoid_encoding(16, 6, 6)
        vecs = enc.reshape(16, -1).T
        dists = np.linalg.norm(vecs[:, None, :] - vecs[None, :, :], axis=-1)
        off_diag = dists[~np.eye(36, dtype=bool)]
        assert off_diag.min() > 0

    def test_shape_preserved(self, cfg):
        pe_params = pyramid.init_posenc_params(cfg)
        rng = np.random.default_rng(4)
        out = pyramid.add_positional_encoding(Tensor(rng.normal(size=(16, 116))), pe_params, cfg)
        assert out.shape == (16, 116)

    def test_odd_channels_rejected(self):
        with pytest.raises(ConfigurationError):
            pyramid.sinusoid_encoding(7, 4, 4)

    def test_injective_up_to_side_64(self):
        # the code factors into x-only and y-only halves, so pairwise-distinct
        # x codes and y codes imply pairwise-distinct cell codes
        enc = pyramid.sinusoid_encoding(8, 64, 64)
        x_part = enc[:4, 0, :].T
        y_part = enc[4:, :, 0].T
        for part in (x_part, y_part):
            d = np.linalg.norm(part[:, None] - part[None, :], axis=-1)
            d[np.eye(64, dtype=bool)] = np.inf
            assert d.min() > 1e-9
