import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from psrank import heads, model, train, tensor as T
from psrank.config import ModelConfig, TrainConfig, toy_model_config
from psrank.data_synth import GenConfig, generate_dataset
from psrank.errors import DataError, DimensionError
from psrank.p2r import MASK_THRESHOLD, NMS_IOU, binarize, mask_iou, partition_to_rank
from psrank.tensor import Parameter, Tensor

from oracles import CountingMasks, eager_predict, p2r_reference

# Thresholds low enough that the untrained toy model emits instances, so
# association, alleviation, selection and NMS all do work.
LOW = dict(partition_threshold=0.1)
TOY_CELLS = 8 * 8 + 6 * 6 + 4 * 4


@pytest.fixture(scope="module")
def heldout():
    return generate_dataset(GenConfig(), 16, 5000)


def params_digest(params) -> str:
    """sha256 of each parameter's name, shape and bytes, in dict order."""
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode())
        h.update(str(p.shape).encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


@lru_cache(maxsize=None)
def toy_params(seed: int, head_type: str) -> dict:
    """Initial toy-model weights for a head; no decode setting changes them."""
    return model.init_model_params(toy_model_config(head_type=head_type), seed)


class TestInitialWeights:
    """Names, shapes, order and RNG draws of the seed-0 weights are pinned:
    names are the checkpoint format and the draws fix every trained model.
    """

    @pytest.mark.parametrize("head_type", ["partition", "sorting"])
    @pytest.mark.parametrize("config", ["toy", "default"])
    def test_match_golden_digest(self, config, head_type):
        make = {"toy": toy_model_config, "default": ModelConfig}[config]
        golden = json.loads((Path(__file__).parent / "init_digests.json").read_text())
        params = model.init_model_params(make(head_type=head_type), 0)
        assert params_digest(params) == golden[f"{config}-{head_type}"]


class TestForward:
    @pytest.mark.parametrize("head_type, columns", [("partition", 3), ("sorting", 4)])
    def test_score_shapes(self, heldout, head_type, columns):
        cfg = toy_model_config(head_type=head_type)
        params = model.init_model_params(cfg, 0)
        with T.no_grad():
            outputs = model.forward(Tensor(heldout[0].image), params, cfg)
        assert outputs.scores.shape == (TOY_CELLS, columns)
        assert outputs.mask.kernels.shape == (TOY_CELLS, heads.MASK_CHANNELS)
        assert outputs.mask.soft_masks().shape == (TOY_CELLS, 16, 16)

    def test_sorting_scores_are_distributions(self, heldout):
        cfg = toy_model_config(head_type="sorting")
        params = model.init_model_params(cfg, 0)
        with T.no_grad():
            scores = model.forward(Tensor(heldout[1].image), params, cfg).scores.data
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)


class TestPredict:
    @pytest.mark.parametrize("head_type, overrides", [("partition", LOW), ("sorting", {})])
    def test_outputs_valid(self, heldout, head_type, overrides):
        cfg = toy_model_config(head_type=head_type, **overrides)
        params = model.init_model_params(cfg, 0)
        found = 0
        for sample in heldout:
            preds = model.predict(sample.image, params, cfg)
            assert [p.rank for p in preds] == list(range(1, len(preds) + 1))
            assert len(preds) <= cfg.max_rank
            for p in preds:
                assert p.mask.dtype == bool and p.mask.shape == (64, 64)
                assert np.isfinite(p.score)
            found += len(preds)
        assert found > 0

    def test_partition_matches_naive_oracle(self, heldout):
        cfg = toy_model_config(**LOW)
        params = model.init_model_params(cfg, 0)
        found = 0
        for sample in heldout:
            with T.no_grad():
                outputs = model.forward(Tensor(sample.image), params, cfg)
                masks = T.interpolate(outputs.mask.soft_masks(), (64, 64)).data
            values = outputs.scores.data
            expected = p2r_reference(masks, values, cfg.max_rank, cfg.partition_threshold, NMS_IOU,
                                     0.0, MASK_THRESHOLD)
            for got in (model.predict(sample.image, params, cfg),
                        partition_to_rank(CountingMasks(binarize(masks, MASK_THRESHOLD)), values,
                                          cfg.max_rank, cfg.partition_threshold, NMS_IOU)):
                assert len(got) == len(expected)
                for a, b in zip(got, expected):
                    assert a.rank == b.rank and a.score == b.score
                    np.testing.assert_array_equal(a.mask, b.mask)
            found += len(expected)
        assert found == 29

    @pytest.mark.parametrize("head_type", ["partition", "sorting"])
    def test_float32_image_and_float64_copy_agree(self, heldout, head_type):
        cfg = toy_model_config(head_type=head_type, **LOW)
        params = model.init_model_params(cfg, 0)
        found = 0
        for sample in heldout[:6]:
            assert sample.image.dtype == np.float32
            a = model.predict(sample.image, params, cfg)
            b = model.predict(sample.image.astype(np.float64), params, cfg)
            assert [(p.rank, p.score) for p in a] == [(p.rank, p.score) for p in b]
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa.mask, pb.mask)
            found += len(a)
        assert found > 0

    @pytest.mark.parametrize("head_type", ["partition", "sorting"])
    def test_matches_eager_reference(self, heldout, head_type):
        cfg = toy_model_config(head_type=head_type, **LOW)
        params = model.init_model_params(cfg, 0)
        found = 0
        for sample in heldout:
            got = model.predict(sample.image, params, cfg)
            expected = eager_predict(sample.image, params, cfg)
            assert [(p.rank, p.score) for p in got] == [(p.rank, p.score) for p in expected]
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a.mask, b.mask)
            found += len(expected)
        assert found > 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0, 1]), st.sampled_from(["partition", "sorting"]),
           st.floats(0.05, 0.5))
    def test_predict_properties(self, scene_seed, weight_seed, head_type, threshold):
        cfg = toy_model_config(head_type=head_type, partition_threshold=threshold)
        params = toy_params(weight_seed, head_type)
        image = generate_dataset(GenConfig(), 1, scene_seed)[0].image
        preds = model.predict(image, params, cfg)
        event("selected at least one" if preds else "selected none")
        assert [p.rank for p in preds] == list(range(1, len(preds) + 1)) and len(preds) <= cfg.max_rank
        for p in preds:
            assert p.mask.dtype == bool and p.mask.shape == (64, 64)
            assert np.isfinite(p.score)
            assert head_type == "sorting" or p.score >= threshold
        assert all(mask_iou(a.mask, b.mask) <= NMS_IOU for i, a in enumerate(preds) for b in preds[i + 1:])
        again = model.predict(image, params, cfg)
        assert [(p.rank, p.score) for p in again] == [(p.rank, p.score) for p in preds]
        for a, b in zip(again, preds):
            np.testing.assert_array_equal(a.mask, b.mask)


class TestMaskBranchOnDemand:
    """``forward`` leaves the mask branch unbuilt, and the first read of a mask
    builds it once, through ``heads.mask_branch``.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        original = heads.mask_branch

        def counting(*args, **kwargs):
            counted.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(heads, "mask_branch", counting)
        return counted

    def test_predict_that_selects_nothing_never_builds_it(self, heldout, calls):
        cfg = toy_model_config()
        params = model.init_model_params(cfg, 0)
        for sample in heldout[:4]:
            assert model.predict(sample.image, params, cfg) == []
        assert calls == []

    def test_predict_builds_it_once_when_decode_reads_a_mask(self, heldout, calls):
        cfg = toy_model_config(**LOW)
        params = model.init_model_params(cfg, 0)
        found = 0
        for sample in heldout:
            calls.clear()
            preds = model.predict(sample.image, params, cfg)
            # rank 1's walk fetches a mask exactly when it selects a row
            assert len(calls) == (1 if preds else 0)
            found += len(preds)
        assert found > 0

    def test_sample_loss_builds_it_once(self, heldout, calls):
        cfg = toy_model_config()
        params = model.init_model_params(cfg, 0)
        targets = train.build_targets(heldout[0], cfg)
        assert len(targets.pos_rows) > 0
        train.sample_loss(heldout[0], targets, params, cfg).total.backward()
        assert len(calls) == 1


class TestCheckpoint:
    def test_round_trip(self, tmp_path, heldout):
        cfg = toy_model_config(**LOW)
        train_cfg = TrainConfig(epochs=2, seed=3)
        params = model.init_model_params(cfg, 7)
        path = tmp_path / "ckpt.npz"
        model.save_checkpoint(path, params, cfg, train_cfg, seed=7)
        loaded, cfg2, train_cfg2, meta = model.load_checkpoint(path)
        assert (cfg2, train_cfg2, meta["seed"]) == (cfg, train_cfg, 7)
        assert loaded.keys() == params.keys()
        for name, p in params.items():
            np.testing.assert_array_equal(loaded[name].data, p.data)
        for sample in heldout[:3]:
            a = model.predict(sample.image, params, cfg)
            b = model.predict(sample.image, loaded, cfg2)
            assert [(p.rank, p.score) for p in a] == [(p.rank, p.score) for p in b]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            model.load_checkpoint(tmp_path / "absent.npz")

    def test_wrong_shape_rejected(self, tmp_path):
        cfg = toy_model_config()
        params = model.init_model_params(cfg, 0)
        params["partition.b"] = Parameter(np.zeros(5))
        model.save_checkpoint(tmp_path / "bad.npz", params, cfg, TrainConfig(), seed=0)
        with pytest.raises(DataError, match="partition.b"):
            model.load_checkpoint(tmp_path / "bad.npz")

    @pytest.mark.parametrize("change", ["drop", "extra"])
    def test_parameter_set_must_match(self, tmp_path, change):
        cfg = toy_model_config()
        params = model.init_model_params(cfg, 0)
        if change == "drop":
            del params["mask.fuse.b"]
        else:
            params["sorting.w"] = Parameter(np.zeros((4, 16, 3, 3)))
        model.save_checkpoint(tmp_path / "bad.npz", params, cfg, TrainConfig(), seed=0)
        with pytest.raises(DataError):
            model.load_checkpoint(tmp_path / "bad.npz")


class TestDamagedMembers:
    """Each fails with a DataError naming the file and the member."""

    @staticmethod
    def save(path, params=None):
        cfg = toy_model_config()
        params = model.init_model_params(cfg, 0) if params is None else params
        model.save_checkpoint(path, params, cfg, TrainConfig(), seed=0)
        return params

    def test_damaged_member_rejected(self, tmp_path):
        # the member still parses as an array; its CRC-32 no longer matches
        path = tmp_path / "damaged.npz"
        params = self.save(path)
        raw = bytearray(path.read_bytes())
        at = raw.find(params["dpt.layer0.cross.wk"].data.tobytes())
        assert at > 0
        raw[at + 100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=r"damaged\.npz member param/dpt\.layer0\.cross\.wk is unreadable"):
            model.load_checkpoint(path)

    def test_unparsable_member_header_rejected(self, tmp_path):
        # an unclosed shape tuple in the .npy header: parsing fails before the CRC-32 is read
        path = tmp_path / "header.npz"
        self.save(path)
        raw = path.read_bytes()
        start = raw.find(b"param/partition.b.npy")
        at = raw.find(b"'shape': (3,)", start)
        assert start > 0 and at > start
        path.write_bytes(raw[:at] + b"'shape': (3,(" + raw[at + 13:])
        with pytest.raises(DataError, match=r"header\.npz member param/partition\.b is unreadable"):
            model.load_checkpoint(path)

    def test_damaged_directory_rejected(self, tmp_path):
        # the end record is intact, so the file still looks like a zip archive
        path = tmp_path / "directory.npz"
        self.save(path)
        raw = path.read_bytes()
        at = raw.rfind(b"PK\x01\x02")
        assert at > 0
        path.write_bytes(raw[:at] + b"XX" + raw[at + 2:])
        with pytest.raises(DataError, match=r"directory\.npz is not an \.npz archive"):
            model.load_checkpoint(path)

    def test_object_array_member_rejected(self, tmp_path):
        path = tmp_path / "objects.npz"
        self.save(path)
        with np.load(path) as blob:
            arrays = {name: blob[name] for name in blob.files}
        arrays["param/partition.b"] = np.array([1.0, None, "x"], dtype=object)
        np.savez(path, **arrays)
        with pytest.raises(DataError, match=r"objects\.npz member param/partition\.b is unreadable"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        # it loaded silently, and predict then returned no instance
        params = model.init_model_params(toy_model_config(), 0)
        params["partition.b"].data[1] = bad
        path = tmp_path / "nonfinite.npz"
        self.save(path, params)
        with pytest.raises(DataError, match=r"nonfinite\.npz member param/partition\.b holds non-finite"):
            model.load_checkpoint(path)


class TestCheckpointMetadata:
    def save_with_meta(self, path, edit):
        """A valid checkpoint whose stored metadata is then changed by ``edit``."""
        cfg = toy_model_config()
        model.save_checkpoint(path, model.init_model_params(cfg, 0), cfg, TrainConfig(), seed=0)
        with np.load(path) as blob:
            arrays = {name: blob[name] for name in blob.files}
        meta = json.loads(str(arrays.pop("__meta__")))
        edit(meta)
        np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)

    @pytest.mark.parametrize("key", ["config", "config_hash", "param_names"])
    def test_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "bad.npz"
        self.save_with_meta(path, lambda meta: meta.pop(key))
        with pytest.raises(DataError, match=f"missing {key}"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("names", [None, 3, "partition.b", ["partition.b", 1]],
                             ids=["null", "number", "string", "number-entry"])
    def test_param_names_not_a_list_of_strings_rejected(self, tmp_path, names):
        path = tmp_path / "names.npz"
        self.save_with_meta(path, lambda meta: meta.update(param_names=names))
        with pytest.raises(DataError, match=r"names\.npz param_names is not a list of strings"):
            model.load_checkpoint(path)

    def test_unknown_config_field_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        self.save_with_meta(path, lambda meta: meta["config"]["model"].update(unknown_field=1))
        with pytest.raises(DataError, match="unknown_field"):
            model.load_checkpoint(path)

    # a checkpoint saved while TrainConfig still held the schedule stores eight train fields
    def test_removed_train_field_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        self.save_with_meta(path, lambda meta: meta["config"]["train"].update(momentum=0.9))
        with pytest.raises(DataError, match=r"old\.npz has a malformed config: .*momentum"):
            model.load_checkpoint(path)

    def test_archive_without_metadata_rejected(self, tmp_path):
        np.savez(tmp_path / "nometa.npz", a=np.zeros(2))
        with pytest.raises(DataError, match=r"nometa\.npz has no readable metadata"):
            model.load_checkpoint(tmp_path / "nometa.npz")

    def test_unparsable_metadata_rejected(self, tmp_path):
        np.savez(tmp_path / "badjson.npz", __meta__=np.array("{not json"))
        with pytest.raises(DataError, match=r"badjson\.npz has no readable metadata"):
            model.load_checkpoint(tmp_path / "badjson.npz")

    @pytest.mark.parametrize("meta", ["[1, 2]", "3", '"format"', "null"])
    def test_metadata_not_an_object_rejected(self, tmp_path, meta):
        np.savez(tmp_path / "listmeta.npz", __meta__=np.array(meta))
        with pytest.raises(DataError, match=r"listmeta\.npz metadata is not a JSON object"):
            model.load_checkpoint(tmp_path / "listmeta.npz")

    @pytest.mark.parametrize("content", [b"not an archive", b"", b"PK\x03\x04truncated"],
                             ids=["text", "empty", "truncated"])
    def test_not_an_archive_rejected(self, tmp_path, content):
        (tmp_path / "bad.npz").write_bytes(content)
        with pytest.raises(DataError, match=r"bad\.npz is not an \.npz archive"):
            model.load_checkpoint(tmp_path / "bad.npz")


class TestMalformedImages:
    @pytest.fixture(scope="class")
    def params(self):
        return model.init_model_params(toy_model_config(), 0)

    def test_non_square_rejected(self, params):
        with pytest.raises(DimensionError):
            model.predict(np.zeros((3, 64, 96)), params, toy_model_config())

    def test_missing_channel_axis_rejected(self, params):
        with pytest.raises(DimensionError):
            model.predict(np.zeros((64, 64)), params, toy_model_config())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, params, bad):
        image = np.full((3, 64, 64), 0.5)
        image[1, 5, 7] = bad
        with pytest.raises(DataError):
            model.predict(image, params, toy_model_config())

    # the encoder used to raise a ConfigurationError for this property of the image
    def test_canvas_not_divisible_by_coarsest_stride_rejected(self, params):
        with pytest.raises(DimensionError, match="canvas 72 is not divisible by coarsest stride 16"):
            model.predict(np.full((3, 72, 72), 0.5), params, toy_model_config())

    # accepted, the empty image failed in the encoder's first conv: "kernel 3x3 exceeds the padded input 2x2"
    def test_canvas_below_coarsest_stride_rejected(self, params):
        with pytest.raises(DimensionError, match="canvas 0 is smaller than coarsest stride 16"):
            model.predict(np.zeros((3, 0, 0)), params, toy_model_config())

    @pytest.mark.parametrize("make", [toy_model_config, ModelConfig], ids=["toy", "default"])
    def test_coarsest_stride_canvas_runs(self, make):
        cfg = make()
        assert model.predict(np.full((3, 16, 16), 0.5), model.init_model_params(cfg, 0), cfg) == []

    # forward used to run on both of these silently; the NaN image scored 348 NaNs
    def test_forward_rejects_non_square(self, params):
        with pytest.raises(DimensionError, match=r"square \(C, H, W\) image, got shape \(3, 64, 48\)"):
            model.forward(Tensor(np.full((3, 64, 48), 0.5)), params, toy_model_config())

    def test_forward_rejects_non_finite(self, params):
        image = np.full((3, 64, 64), 0.5)
        image[2, 40, 3] = np.nan
        with pytest.raises(DataError, match="non-finite pixels"):
            model.forward(Tensor(image), params, toy_model_config())
