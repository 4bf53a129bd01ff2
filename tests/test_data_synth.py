import hashlib
import json
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrank import data_synth
from psrank.data_synth import (GenConfig, SceneSample, generate_dataset, generate_scene,
                               instance_scores, load_dataset, load_manifest, mask_to_rle,
                               rle_to_mask, save_dataset)
from psrank.errors import DataError

from oracles import disjoint_with_gap_oracle, instance_scores_oracle

# The benchmark's 128x128 scenes: shape sizes doubled with the canvas.
BENCH128 = GenConfig(canvas=128, min_sqrt_area=20.0, max_sqrt_area=52.0)
GOLDEN_CONFIGS = {"default": GenConfig(), "bench128": BENCH128}


@pytest.fixture(scope="module")
def cfg():
    return GenConfig()


def scene_digest(sample: SceneSample) -> str:
    """sha256 of the image bytes, then each mask's bytes and its rank."""
    h = hashlib.sha256(sample.image.tobytes())
    for mask, rank in sample.instances:
        h.update(mask.tobytes())
        h.update(str(rank).encode())
    return h.hexdigest()


@st.composite
def labelled_masks(draw):
    """1-3 disjoint non-empty masks and a non-empty background on an H x W
    canvas; with every pixel labelled at random, most touch the border.
    """
    h, w = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    k = draw(st.integers(1, 3))
    labels = np.array(draw(st.lists(st.integers(0, k), min_size=h * w, max_size=h * w)))
    anchors = draw(st.permutations(range(h * w)))[: k + 1]
    labels[anchors] = np.arange(k + 1)  # label 0, the background, and every mask non-empty
    labels = labels.reshape(h, w)
    return [labels == i for i in range(1, k + 1)]


@st.composite
def scored_scenes(draw):
    masks = draw(labelled_masks())
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype == np.float32 else 64
    image = draw(hnp.arrays(dtype, (3,) + masks[0].shape, elements=st.floats(0.0, 1.0, width=width)))
    return image, masks


class TestGenerateScene:
    def test_single_instance_rank_one(self, cfg):
        sample = generate_scene(GenConfig(k_min=1, k_max=1), seed=11)
        assert len(sample.instances) == 1
        assert sample.instances[0][1] == 1

    def test_deterministic(self, cfg):
        a = generate_scene(cfg, seed=5)
        b = generate_scene(cfg, seed=5)
        np.testing.assert_array_equal(a.image, b.image)
        assert len(a.instances) == len(b.instances)
        for (ma, ra), (mb, rb) in zip(a.instances, b.instances):
            np.testing.assert_array_equal(ma, mb)
            assert ra == rb

    def test_image_range_and_dtype_quantization(self, cfg):
        sample = generate_scene(cfg, seed=7)
        assert sample.image.dtype == np.float32 and sample.image.shape == (3, cfg.canvas, cfg.canvas)
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0

    def test_scores_same_for_float32_image_and_float64_copy(self, cfg):
        for seed in range(10):
            sample = generate_scene(cfg, seed=seed)
            masks = [m for m, _ in sample.instances]
            np.testing.assert_array_equal(instance_scores(sample.image, masks),
                                          instance_scores(sample.image.astype(np.float64), masks))

    def test_masks_disjoint_in_bounds(self, cfg):
        for seed in range(40):
            sample = generate_scene(cfg, seed=seed)
            union = np.zeros(sample.image.shape[1:], dtype=np.int64)
            for mask, _ in sample.instances:
                assert mask.shape == sample.image.shape[1:]
                union += mask
            assert union.max() <= 1

    def test_ranks_are_permutation_prefix(self, cfg):
        for seed in range(20):
            sample = generate_scene(cfg, seed=100 + seed)
            ranks = sorted(r for _, r in sample.instances)
            assert ranks == list(range(1, len(ranks) + 1))

    def test_rank_agrees_with_score_recomputation(self, cfg):
        for seed in range(30):
            sample = generate_scene(cfg, seed=300 + seed)
            masks = [m for m, _ in sample.instances]
            scores = instance_scores(sample.image, masks)
            recomputed = np.argsort(-scores, kind="stable")
            for position, idx in enumerate(recomputed):
                assert sample.instances[idx][1] == position + 1

    def test_larger_area_wins_when_otherwise_equal(self):
        # craft the documented formula's inputs directly: same color, mirrored
        # placement (same centering), areas 400 vs 100
        canvas = 64
        image = np.full((3, canvas, canvas), 0.5)
        big = np.zeros((canvas, canvas), dtype=bool)
        small = np.zeros((canvas, canvas), dtype=bool)
        big[22:42, 2:22] = True      # 20x20 centered at (32, 12)
        small[27:37, 47:57] = True   # 10x10 centered at (32, 52) -> same distance to center
        color = np.array([1.0, 0.9, 0.8])
        image[:, big] = color[:, None]
        image[:, small] = color[:, None]
        scores = instance_scores(image, [big, small])
        assert scores[0] > scores[1]


class TestByteIdentity:
    """Generation is vectorized; these pin it to the boolean-indexing forms."""

    @settings(max_examples=300, deadline=None)
    @given(scored_scenes())
    def test_scores_bitwise_equal_oracle(self, scene):
        image, masks = scene
        got = instance_scores(image, masks)
        want = instance_scores_oracle(image, masks)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12), st.integers(0, 3))
    def test_gap_test_matches_whole_canvas_dilation(self, seed, h, w, gap):
        # sparse masks put the nearest other pixel at every distance, on the border too
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) < 0.1
        mask.flat[rng.integers(h * w)] = True
        others = [rng.random((h, w)) < 0.05 for _ in range(rng.integers(0, 3))]
        assert data_synth._disjoint_with_gap(mask, others, gap) == disjoint_with_gap_oracle(mask, others, gap)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_scenes_match_golden_digests(self, name):
        golden = json.loads((Path(__file__).parent / "scene_digests.json").read_text())[name]
        got = [scene_digest(generate_scene(GOLDEN_CONFIGS[name], seed)) for seed in range(len(golden))]
        assert len(golden) == 50
        assert [seed for seed, (a, b) in enumerate(zip(got, golden)) if a != b] == []


class TestRle:
    @pytest.mark.parametrize("pattern", [
        np.zeros((4, 4), dtype=bool),
        np.ones((4, 4), dtype=bool),
        np.eye(4, dtype=bool),
    ])
    def test_round_trip(self, pattern):
        runs = mask_to_rle(pattern)
        assert runs[0] == 0 or not pattern.reshape(-1)[0] or runs[0] >= 0
        np.testing.assert_array_equal(rle_to_mask(runs, pattern.shape), pattern)

    def test_starts_with_zero_run(self):
        m = np.ones((2, 2), dtype=bool)
        assert mask_to_rle(m) == [0, 4]

    def test_random_round_trips(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.random((8, 8)) > 0.5
            np.testing.assert_array_equal(rle_to_mask(mask_to_rle(m), m.shape), m)

    def test_bad_total_rejected(self):
        with pytest.raises(DataError):
            rle_to_mask([3, 2], (2, 2))


class TestPersistence:
    def make_splits(self, cfg, n_train=4, n_test=2):
        return {
            "train": generate_dataset(cfg, n_train, base_seed=0),
            "test": generate_dataset(cfg, n_test, base_seed=1000),
        }

    def test_round_trip_exact(self, tmp_path, cfg):
        splits = self.make_splits(cfg)
        save_dataset(splits, tmp_path, max_rank=cfg.max_rank)
        loaded = load_dataset(tmp_path)
        assert set(loaded) == {"train", "test"}
        for split in splits:
            assert len(loaded[split]) == len(splits[split])
            for a, b in zip(splits[split], loaded[split]):
                assert b.image.dtype == np.float32 and b.image.flags.writeable
                assert b.image.min() >= 0.0 and b.image.max() <= 1.0
                np.testing.assert_array_equal(a.image, b.image)
                assert a.seed == b.seed
                assert len(a.instances) == len(b.instances)
                for (ma, ra), (mb, rb) in zip(a.instances, b.instances):
                    np.testing.assert_array_equal(ma, mb)
                    assert ra == rb

    def test_byte_stable(self, tmp_path, cfg):
        splits = self.make_splits(cfg, 2, 1)
        save_dataset(splits, tmp_path / "a", max_rank=cfg.max_rank)
        save_dataset(splits, tmp_path / "b", max_rank=cfg.max_rank)
        for rel in ["manifest.json", "samples/train_0000.json"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_truncated_sample_reports_path(self, tmp_path, cfg):
        splits = self.make_splits(cfg, 2, 1)
        save_dataset(splits, tmp_path, max_rank=cfg.max_rank)
        victim = tmp_path / "samples" / "train_0001.json"
        victim.write_bytes(victim.read_bytes()[:40])
        with pytest.raises(DataError, match="train_0001"):
            load_dataset(tmp_path)

    def test_corrupt_rle_reports_sample(self, tmp_path, cfg):
        splits = self.make_splits(cfg, 1, 1)
        save_dataset(splits, tmp_path, max_rank=cfg.max_rank)
        victim = tmp_path / "samples" / "test_0000.json"
        payload = json.loads(victim.read_text())
        payload["instances"][0]["rle"] = [1, 2, 3]
        victim.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="test_0000"):
            load_dataset(tmp_path)

    def test_array_image_payload_rejected(self, tmp_path, cfg):
        # only base64 images are read; a nested-array payload names its file
        splits = self.make_splits(cfg, 1, 1)
        save_dataset(splits, tmp_path, max_rank=cfg.max_rank)
        victim = tmp_path / "samples" / "train_0000.json"
        payload = json.loads(victim.read_text())
        assert payload["image_format"] == "base64"
        payload["image_format"] = "array"
        payload["image"] = splits["train"][0].image.transpose(1, 2, 0).tolist()
        victim.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="train_0000"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key", ["samples", "count", "version", "canvas"])
    def test_manifest_missing_key_rejected(self, tmp_path, cfg, key):
        splits = self.make_splits(cfg, 1, 1)
        save_dataset(splits, tmp_path, max_rank=cfg.max_rank)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest[key]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=f"missing {key}"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("key", ["file", "split"])
    def test_manifest_entry_missing_key_rejected(self, tmp_path, cfg, key):
        splits = self.make_splits(cfg, 1, 1)
        save_dataset(splits, tmp_path, max_rank=cfg.max_rank)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["samples"][1][key]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=r"manifest\.json entries \[1\]"):
            load_dataset(tmp_path)

    def test_manifest_not_json_rejected(self, tmp_path, cfg):
        save_dataset(self.make_splits(cfg, 1, 1), tmp_path, max_rank=cfg.max_rank)
        (tmp_path / "manifest.json").write_text('{"version": ')
        with pytest.raises(DataError, match=r"manifest\.json is not valid JSON"):
            load_manifest(tmp_path)

    def test_manifest_count_mismatch(self, tmp_path, cfg):
        splits = self.make_splits(cfg, 2, 1)
        save_dataset(splits, tmp_path, max_rank=cfg.max_rank)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["count"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="count"):
            load_dataset(tmp_path)

    def test_missing_file_rejected(self, tmp_path, cfg):
        splits = self.make_splits(cfg, 2, 1)
        save_dataset(splits, tmp_path, max_rank=cfg.max_rank)
        (tmp_path / "samples" / "train_0000.json").unlink()
        with pytest.raises(DataError, match="train_0000"):
            load_dataset(tmp_path)


def test_many_seeds_valid(cfg):
    # broad sweep: every generated scene satisfies the structural invariants
    for seed in range(0, 400, 7):
        sample = generate_scene(cfg, seed)
        assert 1 <= len(sample.instances) <= cfg.k_max
        union = np.zeros(sample.image.shape[1:], dtype=np.int64)
        for mask, _ in sample.instances:
            union += mask
        assert union.max() <= 1
