"""The tape's dtype: float32 by default, float64 under ``tensor.precision``.

The float64 path is the one the gradient checks and the byte-equality checks
run. These tests check the float32 path every caller takes: that it stays
float32 throughout, that it leaves its inputs alone, and that it stays within
a stated distance of the float64 path.
"""

from dataclasses import replace

import numpy as np
import pytest

from psrank import model, pyramid, tensor as T, train
from psrank.config import ModelConfig, TrainConfig, toy_model_config
from psrank.data_synth import GenConfig, generate_dataset
from psrank.tensor import Parameter, Tensor

# Measured on 48 scenes (weight seeds 0-2, two scene seeds): at most 1.06e-6.
SCORE_BOUND = 1e-5
# Measured on the run below: 3.5e-4, the epochs' mean losses drifting apart
# as float32 rounding accumulates over 36 SGD steps.
HISTORY_BOUND = 1e-3


def test_default_dtype_is_float32():
    assert Tensor(np.zeros(2)).data.dtype == np.float32
    p = Parameter(np.zeros(2))
    assert p.data.dtype == p.grad.dtype == np.float32


class TestPrecision:
    def test_nests(self):
        with T.precision(np.float64):
            assert Tensor(1.0).data.dtype == np.float64
            with T.precision(np.float32):
                assert Tensor(1.0).data.dtype == np.float32
            assert Tensor(1.0).data.dtype == np.float64
        assert Tensor(1.0).data.dtype == np.float32

    def test_restores_after_an_exception(self):
        with pytest.raises(RuntimeError, match="inside"):
            with T.precision(np.float64):
                raise RuntimeError("inside")
        assert Tensor(1.0).data.dtype == np.float32

    def test_seed_gradient_takes_the_active_dtype(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).backward(np.array([0.1, 0.2, 0.3]))
        assert x.grad.dtype == np.float32


class TestFloat32Throughout:
    def test_training_step_and_predict(self, monkeypatch):
        """Every array handed to a ``Tensor``, returned by an op or a cached
        constant, or accumulated into a gradient is float32 already, so no
        constant promotes an op's forward or backward to float64 behind a
        cast; every tape node and gradient is float32."""
        cfg = toy_model_config()
        scene = generate_dataset(GenConfig(), 1, 0)[0]
        params = model.init_model_params(cfg, 0)
        targets = train.build_targets(scene, cfg)
        wider = []

        init = Tensor.__init__

        def checked_init(self, data, *args, **kwargs):
            if isinstance(data, np.ndarray) and data.dtype != np.float32:
                wider.append(("Tensor", data.dtype))
            init(self, data, *args, **kwargs)

        def checked(name, fn, pick):
            def wrapper(*args):
                out = fn(*args)
                if pick(out).dtype != np.float32:
                    wider.append((name, pick(out).dtype))
                return out
            return wrapper

        accumulate = T._accumulate

        def checked_accumulate(t, g):
            if np.asarray(g).dtype != np.float32:
                wider.append(("_accumulate", np.asarray(g).dtype))
            accumulate(t, g)

        monkeypatch.setattr(Tensor, "__init__", checked_init)
        monkeypatch.setattr(T, "_result", checked("_result", T._result, lambda t: t.data))
        monkeypatch.setattr(T, "_accumulate", checked_accumulate)
        monkeypatch.setattr(T, "_interp_matrix", checked("_interp_matrix", T._interp_matrix, lambda m: m))
        monkeypatch.setattr(pyramid, "_pyramid_code", checked("_pyramid_code", pyramid._pyramid_code,
                                                              lambda code: code[0]))

        loss = train.sample_loss(scene, targets, params, cfg).total
        nodes, stack = {id(loss): loss}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if parent.requires_grad and id(parent) not in nodes:
                    nodes[id(parent)] = parent
                    stack.append(parent)
        loss.backward()
        predicted = model.predict(scene.image, params, replace(cfg, partition_threshold=0.1))

        assert predicted  # the masks were fetched and upsampled too
        assert targets.pos_masks.dtype == np.float32
        assert wider == []
        assert len(nodes) > 100 and {n.data.dtype for n in nodes.values()} == {np.dtype(np.float32)}
        assert {p.grad.dtype for p in params.values()} == {np.dtype(np.float32)}

    def test_callers_image_is_not_mutated(self):
        # a float32 image is the Tensor's data itself, no longer a copy
        cfg = toy_model_config()
        scene = generate_dataset(GenConfig(), 1, 1)[0]
        before = scene.image.copy()
        params = model.init_model_params(cfg, 0)
        model.predict(scene.image, params, replace(cfg, partition_threshold=0.1))
        train.sample_loss(scene, train.build_targets(scene, cfg), params, cfg).total.backward()
        assert scene.image.dtype == np.float32 and scene.image.tobytes() == before.tobytes()


def at_each_precision(run):
    """``run()`` under float32 and then under float64."""
    results = []
    for dtype in (np.float32, np.float64):
        with T.precision(dtype):
            results.append(run())
    return results


class TestFloat32AgainstFloat64:
    def test_forward_scores_full128(self):
        cfg = ModelConfig()
        scenes = generate_dataset(GenConfig(canvas=128, min_sqrt_area=20.0, max_sqrt_area=52.0), 8, 100)

        def scores():
            params = model.init_model_params(cfg, 0)
            with T.no_grad():
                return np.stack([model.forward(Tensor(s.image), params, cfg).scores.data for s in scenes])

        narrow, wide = at_each_precision(scores)
        assert (narrow.dtype, wide.dtype) == (np.float32, np.float64)
        assert np.abs(narrow - wide).max() <= SCORE_BOUND

    def test_training_loss_history(self):
        samples = generate_dataset(GenConfig(), 24, 300)

        def history():
            _, log = train.train(toy_model_config(), TrainConfig(epochs=12, seed=2), samples)
            return np.array([(h.total, h.partition, h.mask) for h in log])

        narrow, wide = at_each_precision(history)
        assert np.all(np.abs(narrow - wide) <= HISTORY_BOUND * np.abs(wide))
