import math

import numpy as np
import pytest

from psrank import dpt, pyramid, tensor as T
from psrank.config import ModelConfig
from psrank.tensor import Tensor

from gradcheck import grad_check
from oracles import AttentionPairs, count_attention_pairs, cross_scale_reference, row_column_reference


def cfg_for(sides=(8, 6, 4), e=16, layers=1, conv_layers=1, heads=4, groups=4):
    return ModelConfig(max_rank=3, channels=e, grid_sides=tuple(sides), attn_heads=heads,
                       gn_groups=groups, dpt_layers=layers, conv_layers=conv_layers)


def random_grids(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(cfg.channels, s, s)) for s in cfg.grid_sides]


def as_pyramid(grids):
    """(E, s, s) arrays or tensors, finest first, as one (E, K) tensor."""
    arrays = [g.data if isinstance(g, Tensor) else g for g in grids]
    return Tensor(np.concatenate([a.reshape(a.shape[0], -1) for a in arrays], axis=1))


def random_pyramid(cfg, seed=0):
    return as_pyramid(random_grids(cfg, seed))


def blocks(x, sides):
    """Each grid's (E, s, s) block of an (E, K) array."""
    out, lo = [], 0
    for s in sides:
        out.append(x[:, lo : lo + s * s].reshape(x.shape[0], s, s))
        lo += s * s
    return out


def equal_grid_pyramid(scales, height, width, channels, rng):
    """``scales`` random height x width grids as one (E, K) pyramid, and its grids."""
    grids = [rng.normal(size=(channels, height, width)) for _ in range(scales)]
    return as_pyramid(grids), ((height, width),) * scales


def one_grid(x):
    """One (E, h, w) array as a one-grid pyramid, and its grids."""
    return as_pyramid([x]), (x.shape[1:],)


PAIR_CFG = ModelConfig(max_rank=1, channels=8, grid_sides=(4, 2), attn_heads=2,
                       gn_groups=1, dpt_layers=1, conv_layers=0)


def measured_dpt_pairs(scales, height, width):
    """Query-key pairs one decomposed layer forms on ``scales`` equal grids."""
    rng = np.random.default_rng(0)
    params = dpt.init_dpt_params(PAIR_CFG, rng)
    pyr, grids = equal_grid_pyramid(scales, height, width, PAIR_CFG.channels, rng)
    with T.no_grad(), AttentionPairs() as counted:
        rc = dpt.row_column_attention(pyr, grids, params, PAIR_CFG, 0)
        dpt.cross_scale_attention(rc, grids, params, PAIR_CFG, 0)
    return counted.pairs


def measured_all_scale_pairs(scales, height, width):
    rng = np.random.default_rng(0)
    params = dpt.init_all_scale_params(PAIR_CFG, rng)
    pyr, _ = equal_grid_pyramid(scales, height, width, PAIR_CFG.channels, rng)
    with T.no_grad(), AttentionPairs() as counted:
        dpt.all_scale_attention(pyr, params, PAIR_CFG)
    return counted.pairs


class TestPairCounts:
    def test_case_2_4_4(self):
        report = count_attention_pairs(2, 4, 4)
        assert report.dpt_pairs == 320
        assert report.all_scale_pairs == 1024
        assert report.ratio == pytest.approx(0.3125)

    def test_case_1_1_1(self):
        report = count_attention_pairs(1, 1, 1)
        assert report.dpt_pairs == 3
        assert report.all_scale_pairs == 1
        # the reduction claim genuinely needs S,H,W >= 2
        assert report.dpt_pairs > report.all_scale_pairs

    def test_case_5_12_12(self):
        # direct evaluation of both formulas
        s, h, w = 5, 12, 12
        expected_dpt = s * h * w * w + s * h * h * w + s * s * h * w
        assert expected_dpt == 20880
        report = count_attention_pairs(s, h, w)
        assert report.dpt_pairs == expected_dpt
        assert report.all_scale_pairs == (s * h * w) ** 2 == 518400

    def test_reduction_holds_from_two(self):
        for s in range(2, 6):
            for h in range(2, 9):
                for w in range(2, 9):
                    r = count_attention_pairs(s, h, w)
                    assert r.dpt_pairs < r.all_scale_pairs, (s, h, w)

    def test_instrumented_matches_analytic_sample(self):
        for s, h, w in [(1, 1, 1), (2, 4, 4), (3, 2, 5), (5, 8, 8), (4, 1, 3)]:
            r = count_attention_pairs(s, h, w)
            assert measured_dpt_pairs(s, h, w) == r.dpt_pairs, (s, h, w)
            assert measured_all_scale_pairs(s, h, w) == r.all_scale_pairs, (s, h, w)


class TestCgr:
    def test_shape_preserved(self):
        cfg = cfg_for(conv_layers=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(0))
        out = dpt.cgr(random_pyramid(cfg), params, cfg)
        assert out.shape == (16, 8 * 8 + 6 * 6 + 4 * 4)

    def test_zero_weights_zero_output(self):
        cfg = cfg_for(conv_layers=1)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(0))
        params["cgr.conv0.w"].data[:] = 0.0
        params["cgr.conv0.b"].data[:] = 0.0
        params["cgr.gn0.beta"].data[:] = 0.0
        out = dpt.cgr(random_pyramid(cfg), params, cfg)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_gradient(self):
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(1))

        def op(x):
            return dpt.cgr(pyramid.join([x, Tensor(np.zeros((8, 2, 2)))]), params, cfg)[:, :16]

        x = Tensor(np.random.default_rng(2).normal(size=(8, 4, 4)))
        assert grad_check(op, [x], tolerance=1e-3).passed


class TestRowColumnAttention:
    def test_shape(self):
        cfg = cfg_for(sides=(6, 4))
        params = dpt.init_dpt_params(cfg, np.random.default_rng(3))
        out = dpt.row_column_attention(*one_grid(np.random.default_rng(4).normal(size=(16, 6, 6))), params, cfg)
        assert out.shape == (16, 36)

    @pytest.mark.usefixtures("float64")
    def test_singleton_grid_oracle(self):
        # 1x1 grid: the attention weight is exactly 1, so each pass adds
        # x Wv Wo (the group norm that follows runs in dpt_layer)
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(8, 1, 1))
        out = dpt.row_column_attention(*one_grid(x), params, cfg)

        vec = x[:, 0, 0]
        y = vec + vec @ params["dpt.layer0.row.wv"].data @ params["dpt.layer0.row.wo"].data
        z = y + y @ params["dpt.layer0.col.wv"].data @ params["dpt.layer0.col.wo"].data
        np.testing.assert_allclose(out.data, z.reshape(8, 1), atol=1e-10)

    def test_transpose_symmetry_single_pass(self):
        # with the column route zeroed out, only the row pass acts; feeding
        # the transposed grid to the column slot with the same weights must
        # transpose the output exactly
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        rng = np.random.default_rng(7)
        params = dpt.init_dpt_params(cfg, rng)
        row_only = dict(params)
        col_only = dict(params)
        for name in ("wv", "wo"):
            row_only[f"dpt.layer0.col.{name}"] = Tensor(np.zeros((8, 8)))
            col_only[f"dpt.layer0.row.{name}"] = Tensor(np.zeros((8, 8)))
        for name in ("wq", "wk", "wv", "wo"):
            col_only[f"dpt.layer0.col.{name}"] = params[f"dpt.layer0.row.{name}"]
        x = rng.normal(size=(8, 3, 3))
        out = dpt.row_column_attention(*one_grid(x), row_only, cfg)
        out_t = dpt.row_column_attention(*one_grid(x.transpose(0, 2, 1)), col_only, cfg)
        np.testing.assert_allclose(out_t.data.reshape(8, 3, 3), out.data.reshape(8, 3, 3).transpose(0, 2, 1),
                                   atol=1e-9)

    @pytest.mark.usefixtures("float64")
    def test_transpose_swap_equals_reversed_composition(self):
        # the row->column passes are sequential, so transposing plus swapping
        # the parameter sets reproduces the transpose of the column-first
        # composition; the expected value is hand-rolled from the attention op
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        rng = np.random.default_rng(7)
        params = dpt.init_dpt_params(cfg, rng)
        swapped = dict(params)
        for name in ("wq", "wk", "wv", "wo"):
            swapped[f"dpt.layer0.row.{name}"] = params[f"dpt.layer0.col.{name}"]
            swapped[f"dpt.layer0.col.{name}"] = params[f"dpt.layer0.row.{name}"]
        x = rng.normal(size=(8, 3, 3))
        out_t = dpt.row_column_attention(*one_grid(x.transpose(0, 2, 1)), swapped, cfg)

        def attend(data, route, axes_in, axes_out):
            seq = T.transpose(Tensor(data), axes_in)
            mixed = T.multi_head_attention(seq, cfg.attn_heads,
                                           params[f"dpt.layer0.{route}.wq"], params[f"dpt.layer0.{route}.wk"],
                                           params[f"dpt.layer0.{route}.wv"], params[f"dpt.layer0.{route}.wo"])
            return T.transpose(mixed, axes_out).data

        # column-with-col-params first, then row-with-row-params
        y = x + attend(x, "col", (2, 1, 0), (2, 1, 0))
        z = y + attend(y, "row", (1, 2, 0), (2, 0, 1))
        np.testing.assert_allclose(out_t.data.reshape(8, 3, 3), z.transpose(0, 2, 1), atol=1e-9)


class TestCrossScaleAttention:
    @pytest.mark.usefixtures("float64")
    def test_single_scale_matches_singleton_attention(self):
        # one scale: the weight of its only key is 1, so the update is x Wv Wo
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(8))
        x = np.random.default_rng(9).normal(size=(8, 3, 3))
        out = dpt.cross_scale_attention(*one_grid(x), params, cfg)
        wv = params["dpt.layer0.cross.wv"].data
        wo = params["dpt.layer0.cross.wo"].data
        delta = np.einsum("chw,cd->dhw", x, wv @ wo)
        np.testing.assert_allclose(out.data.reshape(8, 3, 3), delta, atol=1e-10)

    def test_shape_restoration(self):
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(10))
        out = dpt.cross_scale_attention(random_pyramid(cfg, seed=11), pyramid.grid_shapes(cfg), params, cfg)
        assert out.shape == (8, 4 * 4 + 2 * 2)

    @pytest.mark.usefixtures("float64")
    def test_scale_permutation_equivariance_equal_sides(self):
        # equal grid sides make up/downsampling the identity, so permuting
        # the scale list permutes the outputs
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        datas = [rng.normal(size=(8, 3, 3)) for _ in range(3)]
        grids = ((3, 3),) * 3
        perm = [2, 0, 1]
        out = blocks(dpt.cross_scale_attention(as_pyramid(datas), grids, params, cfg).data, (3, 3, 3))
        out_p = blocks(dpt.cross_scale_attention(as_pyramid([datas[p] for p in perm]), grids, params, cfg).data,
                       (3, 3, 3))
        for i, p in enumerate(perm):
            np.testing.assert_allclose(out_p[i], out[p], atol=1e-9)


def pyramid_and_per_grid(route, reference, sides, seed):
    """Bytes of (output, dx, every parameter grad) of a route run once over
    the pyramid and once through its per-grid reference on separate grids."""
    cfg = cfg_for(sides=sides)
    grids = random_grids(cfg, seed=seed)
    g = np.random.default_rng(seed + 1).normal(size=(cfg.channels, sum(s * s for s in sides)))
    results = []
    for pyramid_form in (True, False):
        params = dpt.init_dpt_params(cfg, np.random.default_rng(seed + 2))
        if pyramid_form:
            inputs = [Tensor(as_pyramid(grids).data, requires_grad=True)]
            out = route(inputs[0], pyramid.grid_shapes(cfg), params, cfg)
        else:
            inputs = [Tensor(a, requires_grad=True) for a in grids]
            out = pyramid.join(reference(inputs, params, cfg))
        out.backward(g)
        dx = inputs[0].grad if pyramid_form else as_pyramid([t.grad for t in inputs]).data
        results.append([out.data.tobytes(), dx.tobytes()] + [params[name].grad.tobytes() for name in sorted(params)])
    return results


class TestRoutesMatchPerGridReference:
    # byte for byte, in the output and in the gradient of the input and of
    # every parameter
    @pytest.mark.parametrize("sides", [(8, 6, 4), (12, 10, 8, 6, 4)])
    def test_row_column(self, sides):
        pyramid_form, per_grid = pyramid_and_per_grid(
            dpt.row_column_attention, lambda xs, p, c: [row_column_reference(x, p, c) for x in xs], sides, 40)
        assert pyramid_form == per_grid

    @pytest.mark.parametrize("sides", [(8, 6, 4), (12, 10, 8, 6, 4)])
    def test_cross_scale(self, sides):
        pyramid_form, per_grid = pyramid_and_per_grid(dpt.cross_scale_attention, cross_scale_reference, sides, 50)
        assert pyramid_form == per_grid


class TestClcg:
    def test_zero_convs_leave_gn_of_input(self):
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(14))
        for name in ("conv1", "conv2"):
            params[f"dpt.layer0.clcg.{name}.w"].data[:] = 0.0
            params[f"dpt.layer0.clcg.{name}.b"].data[:] = 0.0
        grids = random_grids(cfg, seed=15)
        out = dpt.clcg(as_pyramid(grids), params, cfg)
        for g_in, g_out in zip(grids, blocks(out.data, cfg.grid_sides)):
            expected = T.group_norm(Tensor(g_in), cfg.gn_groups,
                                    params["dpt.layer0.clcg.gn.gamma"], params["dpt.layer0.clcg.gn.beta"])
            np.testing.assert_allclose(g_out, expected.data, atol=1e-12)

    def test_shape_preserved(self):
        cfg = cfg_for()
        params = dpt.init_dpt_params(cfg, np.random.default_rng(16))
        out = dpt.clcg(random_pyramid(cfg, seed=17), params, cfg)
        assert out.shape == (16, 8 * 8 + 6 * 6 + 4 * 4)

    def test_gradient(self):
        cfg = cfg_for(sides=(3, 2), e=4, heads=2, groups=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(18))

        def op(x):
            return dpt.clcg(pyramid.join([x, Tensor(np.zeros((4, 2, 2)))]), params, cfg)[:, :9]

        x = Tensor(np.random.default_rng(19).normal(size=(4, 3, 3)))
        assert grad_check(op, [x], tolerance=1e-3).passed


class TestDptForward:
    def test_three_layer_shapes(self):
        cfg = cfg_for(layers=3)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(20))
        out = dpt.dpt_forward(random_pyramid(cfg, seed=21), params, cfg)
        assert [g.shape for g in blocks(out.data, cfg.grid_sides)] == [(16, 8, 8), (16, 6, 6), (16, 4, 4)]

    def test_zero_layers_identity(self):
        cfg = cfg_for(layers=0, conv_layers=0)
        pyr = random_pyramid(cfg, seed=22)
        out = dpt.dpt_forward(pyr, {}, cfg)
        np.testing.assert_array_equal(pyr.data, out.data)

    def test_perturbation_reaches_far_cell(self):
        # global receptive field: poking one cell of the coarsest grid moves
        # the far corner of the finest grid
        cfg = cfg_for(sides=(8, 6, 4), e=16, layers=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(23))
        grids = random_grids(cfg, seed=24)
        base = blocks(dpt.dpt_forward(as_pyramid(grids), params, cfg).data, cfg.grid_sides)[0]

        grids[-1][0, 0, 0] += 1.0
        out = blocks(dpt.dpt_forward(as_pyramid(grids), params, cfg).data, cfg.grid_sides)[0]
        assert abs(out[0, -1, -1] - base[0, -1, -1]) > 1e-9

    def test_end_to_end_gradient_two_scale(self):
        cfg = cfg_for(sides=(3, 2), e=8, layers=1, conv_layers=0, heads=2, groups=2)
        params = dpt.init_dpt_params(cfg, np.random.default_rng(25))

        def op(a, b):
            return dpt.dpt_forward(pyramid.join([a, b]), params, cfg)

        rng = np.random.default_rng(26)
        a = Tensor(rng.normal(size=(8, 3, 3)))
        b = Tensor(rng.normal(size=(8, 2, 2)))
        assert grad_check(op, [a, b], tolerance=1e-3).passed


def per_grid_layer(grids, params, cfg, layer):
    """``dpt.dpt_layer`` written as one route, conv and group-norm call per grid."""
    base = f"dpt.layer{layer}"

    def norm(x, name):
        return T.group_norm(x, cfg.gn_groups, params[f"{base}.{name}.gamma"], params[f"{base}.{name}.beta"])

    rc = [norm(row_column_reference(g, params, cfg, layer), "gn_rc") for g in grids]
    cs = [norm(g + d, "gn_cs") for g, d in zip(rc, cross_scale_reference(rc, params, cfg, layer))]
    out = []
    for g in cs:
        hidden = T.conv2d(g, params[f"{base}.clcg.conv1.w"], bias=params[f"{base}.clcg.conv1.b"])
        inner = T.conv2d(T.leaky_relu(hidden), params[f"{base}.clcg.conv2.w"], bias=params[f"{base}.clcg.conv2.b"])
        out.append(norm(inner + g, "clcg.gn"))
    return out


class TestDptLayer:
    @pytest.mark.parametrize("sides", [(8, 6, 4), (12, 10, 8, 6, 4)])
    def test_equals_per_grid_calls(self, sides):
        # byte for byte, in the output and in the gradient of the input and of
        # every parameter: the shared weights' per-grid gradients add up in
        # grid order either way
        cfg = cfg_for(sides=sides)
        grids = random_grids(cfg, seed=31)
        g = np.random.default_rng(32).normal(size=(cfg.channels, sum(s * s for s in sides)))
        results = []
        for pyramid_form in (True, False):
            params = dpt.init_dpt_params(cfg, np.random.default_rng(30))
            if pyramid_form:
                inputs = [Tensor(as_pyramid(grids).data, requires_grad=True)]
                out = dpt.dpt_layer(inputs[0], params, cfg, 0)
            else:
                inputs = [Tensor(a, requires_grad=True) for a in grids]
                out = pyramid.join(per_grid_layer(inputs, params, cfg, 0))
            out.backward(g)
            dx = inputs[0].grad if pyramid_form else as_pyramid([t.grad for t in inputs]).data
            results.append([out.data.tobytes(), dx.tobytes()]
                           + [params[name].grad.tobytes() for name in sorted(params)])
        assert results[0] == results[1]


class TestAllScale:
    def test_token_count_and_shape_restoration(self):
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        params = dpt.init_all_scale_params(cfg, np.random.default_rng(27))
        pyr = random_pyramid(cfg, seed=28)
        assert pyr.shape == (8, 20)
        out = dpt.all_scale_attention(pyr, params, cfg)
        assert out.shape == (8, 20)

    def test_instrumented_count_is_square_of_tokens(self):
        cfg = cfg_for(sides=(4, 2), e=8, heads=2, groups=2)
        params = dpt.init_all_scale_params(cfg, np.random.default_rng(29))
        pyr = random_pyramid(cfg, seed=30)
        with AttentionPairs() as counted:
            dpt.all_scale_attention(pyr, params, cfg)
        assert counted.pairs == 20 * 20
