import numpy as np
import pytest

from psrank import heads, pyramid, tensor as T
from psrank.config import ModelConfig
from psrank.errors import DataError
from psrank.tensor import Tensor

from gradcheck import grad_check
from oracles import cell_origins


def cfg_for(sides=(4, 2), e=8, n=5):
    return ModelConfig(max_rank=n, channels=e, grid_sides=tuple(sides), attn_heads=2,
                       gn_groups=2, dpt_layers=1, conv_layers=1)


def feature_pyramid(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return pyramid.join([Tensor(rng.normal(size=(cfg.channels, s, s))) for s in cfg.grid_sides])


class TestPartitionForward:
    def test_matrix_shape(self):
        cfg = cfg_for(sides=(4, 2), n=5)
        params = heads.init_partition_head_params(cfg, np.random.default_rng(0))
        pm = heads.partition_forward(feature_pyramid(cfg), params, cfg)
        assert pm.shape == (20, 5)
        assert len(cell_origins(cfg.grid_sides)) == 20

    def test_zero_params_give_half(self):
        cfg = cfg_for()
        params = heads.init_partition_head_params(cfg, np.random.default_rng(1))
        params["partition.w"].data[:] = 0.0
        params["partition.b"].data[:] = 0.0
        pm = heads.partition_forward(feature_pyramid(cfg), params, cfg)
        np.testing.assert_allclose(pm.data, 0.5)

    def test_open_interval(self):
        cfg = cfg_for()
        params = heads.init_partition_head_params(cfg, np.random.default_rng(2))
        pm = heads.partition_forward(feature_pyramid(cfg, seed=3), params, cfg)
        assert (pm.data > 0.0).all() and (pm.data < 1.0).all()

    def test_cell_order_round_trip(self):
        # origins enumerate scales outer, rows next, columns innermost
        origins = cell_origins((2, 1))
        assert origins == [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0)]


class TestMaskBranch:
    def make(self, cfg, seed=0):
        rng = np.random.default_rng(seed)
        params = heads.init_mask_head_params(cfg, rng)
        stages = [Tensor(rng.normal(size=(c, 32 // (2 ** i), 32 // (2 ** i))))
                  for i, (_, c) in enumerate(pyramid._stage_channels(cfg))]
        return params, stages

    def test_mask_count_matches_partition_rows(self):
        cfg = cfg_for()
        params, stages = self.make(cfg)
        masks = heads.mask_branch(feature_pyramid(cfg), stages, params, cfg, canvas=32).soft_masks()
        assert masks.shape == (20, 8, 8)

    def test_zero_kernel_uniform_half(self):
        cfg = cfg_for()
        params, stages = self.make(cfg, seed=4)
        params["mask.kernel.w"].data[:] = 0.0
        params["mask.kernel.b"].data[:] = 0.0
        masks = heads.mask_branch(feature_pyramid(cfg, seed=5), stages, params, cfg, canvas=32).soft_masks()
        np.testing.assert_allclose(masks.data, 0.5)

    def test_soft_masks_row_subset(self):
        cfg = cfg_for()
        params, stages = self.make(cfg, seed=6)
        branch = heads.mask_branch(feature_pyramid(cfg, seed=7), stages, params, cfg, canvas=32)
        all_masks = branch.soft_masks()
        some = branch.soft_masks(rows=[3, 17])
        np.testing.assert_array_equal(some.data, all_masks.data[[3, 17]])

    def test_kernel_gradient(self):
        # gradient flows from the soft masks back through the kernel prediction
        cfg = cfg_for(sides=(2,), e=4)
        rng = np.random.default_rng(8)
        params = heads.init_mask_head_params(cfg, rng)
        gmap = Tensor(rng.normal(size=(heads.MASK_CHANNELS, 4, 4)))

        def op(grid):
            k = T.conv2d(grid, params["mask.kernel.w"], bias=params["mask.kernel.b"])
            kernels = T.reshape(T.transpose(k, (1, 2, 0)), (4, heads.MASK_CHANNELS))
            return heads.MaskBranch(kernels=kernels, features=gmap).soft_masks(rows=[0, 3])

        x = Tensor(rng.normal(size=(4, 2, 2)))
        assert grad_check(op, [x], tolerance=1e-3).passed


class TestAssignTargets:
    def box_mask(self, canvas, r0, c0, h, w):
        m = np.zeros((canvas, canvas), dtype=bool)
        m[r0 : r0 + h, c0 : c0 + w] = True
        return m

    def test_single_centered_instance(self):
        cfg = cfg_for(sides=(8, 6, 4), e=16, n=3)
        canvas = 64
        # sqrt(area)=13 lands in the first size range [8,16)
        mask = self.box_mask(canvas, 26, 26, 13, 13)
        assignment = heads.assign_targets([mask], cfg, canvas)
        assert (assignment >= 0).sum() == 1
        row = int(np.nonzero(assignment >= 0)[0][0])
        scale, x, y = cell_origins(cfg.grid_sides)[row]
        assert scale == 0
        assert (x, y) == (4, 4)

    def test_two_instances_distinct_cells(self):
        cfg = cfg_for(sides=(8, 6, 4), e=16, n=3)
        canvas = 64
        small = self.box_mask(canvas, 2, 2, 10, 10)     # sqrt=10 -> scale 0
        large = self.box_mask(canvas, 30, 30, 20, 20)   # sqrt=20 -> scale 1
        assignment = heads.assign_targets([small, large], cfg, canvas)
        rows = np.nonzero(assignment >= 0)[0]
        assert len(rows) == 2
        scales = {cell_origins(cfg.grid_sides)[r][0] for r in rows}
        assert scales == {0, 1}

    def test_boundary_center_goes_to_lower_cell(self):
        cfg = cfg_for(sides=(8,), e=16, n=3)
        canvas = 64
        # columns 7..8 give center of mass x = 8.0, exactly on the cell edge
        mask = self.box_mask(canvas, 3, 7, 10, 2)
        assignment = heads.assign_targets([mask], cfg, canvas)
        row = int(np.nonzero(assignment >= 0)[0][0])
        scale, x, y = cell_origins(cfg.grid_sides)[row]
        assert x == 0

    def test_empty_mask_rejected(self):
        cfg = cfg_for(sides=(4,), e=16, n=3)
        with pytest.raises(DataError):
            heads.assign_targets([np.zeros((64, 64), dtype=bool)], cfg, 64)

    def test_collision_keeps_first(self):
        cfg = cfg_for(sides=(8,), e=16, n=3)
        canvas = 64
        a = self.box_mask(canvas, 0, 0, 10, 10)
        b = self.box_mask(canvas, 1, 1, 9, 9)
        assignment = heads.assign_targets([a, b], cfg, canvas)
        rows = np.nonzero(assignment >= 0)[0]
        assert len(rows) == 1
        assert assignment[rows[0]] == 0
