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


def encode(image, params, cfg):
    return pyramid.pyramid_from_stages(pyramid.encoder_stages(image, params, cfg), cfg)


def test_encode_shapes(cfg, params):
    image = Tensor(np.random.default_rng(1).random(size=(3, 64, 64)))
    grids = encode(image, params, cfg)
    assert [g.shape for g in grids] == [(16, 8, 8), (16, 6, 6), (16, 4, 4)]


def test_encode_zero_image_zero_affine(cfg, params):
    for i in range(4):
        params[f"encoder.stage{i}.gn_gamma"].data[:] = 0.0
        params[f"encoder.stage{i}.gn_beta"].data[:] = 0.0
    grids = encode(Tensor(np.zeros((3, 64, 64))), params, cfg)
    for g in grids:
        np.testing.assert_array_equal(g.data, 0.0)


def test_encode_deterministic(cfg):
    image = Tensor(np.random.default_rng(2).random(size=(3, 64, 64)))
    a = encode(image, pyramid.init_encoder_params(cfg, np.random.default_rng(7)), cfg)
    b = encode(image, pyramid.init_encoder_params(cfg, np.random.default_rng(7)), cfg)
    for ga, gb in zip(a, b):
        np.testing.assert_array_equal(ga.data, gb.data)


def test_encode_finite(cfg, params):
    image = Tensor(np.random.default_rng(3).normal(size=(3, 64, 64)) * 5)
    grids = encode(image, params, cfg)
    for g in grids:
        assert np.isfinite(g.data).all()


def test_encode_rejects_indivisible_size(cfg, params):
    with pytest.raises(ConfigurationError):
        encode(Tensor(np.zeros((3, 60, 64))), params, cfg)


class TestPositionalEncoding:
    def test_zero_input_yields_encoding(self, cfg):
        pe_params = pyramid.init_posenc_params(cfg)
        grids = [Tensor(np.zeros((16, s, s))) for s in (8, 6, 4)]
        out = pyramid.add_positional_encoding(grids, pe_params)
        for g in out:
            side = g.shape[1]
            np.testing.assert_array_equal(g.data, pyramid.sinusoid_encoding(16, side, side))

    def test_bias_follows_list_position(self, cfg):
        # grid i takes posenc.scale{i}.bias: a grid's list position is its scale index
        pe_params = pyramid.init_posenc_params(cfg)
        for i in range(3):
            pe_params[f"posenc.scale{i}.bias"].data[:] = i + 1.0
        grids = [Tensor(np.zeros((16, s, s))) for s in (8, 6, 4)]
        out = pyramid.add_positional_encoding(grids, pe_params)
        for i, g in enumerate(out):
            side = g.shape[1]
            np.testing.assert_array_equal(g.data, pyramid.sinusoid_encoding(16, side, side) + (i + 1.0))

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
        grids = [Tensor(rng.normal(size=(16, s, s))) for s in (8, 6, 4)]
        out = pyramid.add_positional_encoding(grids, pe_params)
        assert [g.shape for g in out] == [(16, 8, 8), (16, 6, 6), (16, 4, 4)]

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
