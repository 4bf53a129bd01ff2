import hashlib
import io
import json
import re
import zipfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrank import cli, data_synth
from psrank.data_synth import (GenConfig, SceneSample, generate_dataset, generate_scene,
                               instance_scores, load_dataset, save_dataset)
from psrank.errors import DataError, GenerationError

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


def npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


NPY_BYTES = npy_bytes(np.zeros(3))


def members(path) -> dict:
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def rewrite(path, **changes):
    """Save the archive at ``path`` again with members replaced, or dropped where None."""
    arrays = members(path) | changes
    np.savez(path, **{key: a for key, a in arrays.items() if a is not None})


def assert_same_scenes(want, got):
    assert len(got) == len(want)
    for a, b in zip(want, got):
        assert b.image.dtype == np.float32 and b.image.flags.writeable
        assert b.image.tobytes() == a.image.tobytes()
        assert b.seed == a.seed and type(b.seed) is int
        assert [r for _, r in b.instances] == [r for _, r in a.instances]
        for (ma, _), (mb, _) in zip(a.instances, b.instances):
            assert mb.dtype == bool
            np.testing.assert_array_equal(ma, mb)


class TestPersistence:
    def make_splits(self, cfg, n_train=4, n_test=2):
        return {
            "train": generate_dataset(cfg, n_train, base_seed=0),
            "test": generate_dataset(cfg, n_test, base_seed=1000),
        }

    def saved(self, tmp_path, cfg, n_train=2, n_test=1):
        save_dataset(self.make_splits(cfg, n_train, n_test), tmp_path)
        return tmp_path / "train.npz"

    def test_round_trip_exact(self, tmp_path, cfg):
        splits = self.make_splits(cfg)
        save_dataset(splits, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test.npz", "train.npz"]
        loaded = load_dataset(tmp_path)
        assert set(loaded) == {"train", "test"}
        for split in splits:
            assert_same_scenes(splits[split], loaded[split])
            for sample in loaded[split]:
                assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0

    def test_round_trip_exact_at_128(self, tmp_path):
        splits = {"heldout": generate_dataset(cli.gen_config(128), 6, base_seed=3)}
        save_dataset(splits, tmp_path)
        assert_same_scenes(splits["heldout"], load_dataset(tmp_path)["heldout"])

    def test_archive_layout(self, tmp_path, cfg):
        splits = self.make_splits(cfg, 3, 1)
        save_dataset(splits, tmp_path)
        arrays = members(tmp_path / "train.npz")
        assert sorted(arrays) == sorted(data_synth.LAYOUT)
        samples = splits["train"]
        m = sum(len(s.instances) for s in samples)
        assert arrays["version"].shape == () and arrays["version"] == data_synth.FORMAT_VERSION == 2
        assert arrays["images"].dtype == np.float32 and arrays["images"].shape == (3, 3, 64, 64)
        np.testing.assert_array_equal(arrays["seeds"], [s.seed for s in samples])
        np.testing.assert_array_equal(arrays["counts"], [len(s.instances) for s in samples])
        assert arrays["masks"].dtype == bool and arrays["masks"].shape == (m, 64, 64)
        np.testing.assert_array_equal(arrays["ranks"], [r for s in samples for _, r in s.instances])

    def test_scene_without_instances_round_trips(self, tmp_path, cfg):
        bare = SceneSample(image=generate_scene(cfg, 0).image, instances=[], seed=0)
        save_dataset({"train": [bare]}, tmp_path)
        assert members(tmp_path / "train.npz")["masks"].shape == (0, 64, 64)
        assert_same_scenes([bare], load_dataset(tmp_path)["train"])

    def test_byte_stable(self, tmp_path, cfg):
        splits = self.make_splits(cfg, 2, 1)
        save_dataset(splits, tmp_path / "a")
        save_dataset(splits, tmp_path / "b")
        for name in ["train.npz", "test.npz"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        with zipfile.ZipFile(tmp_path / "a" / "train.npz") as archive:
            assert {info.date_time for info in archive.infolist()} == {data_synth.ZIP_DATE}

    def test_empty_split_rejected_at_save(self, tmp_path, cfg):
        with pytest.raises(DataError, match=r"'test'.*test\.npz"):
            save_dataset({"test": []}, tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match=r"no <split>\.npz archives in .*empty$"):
            load_dataset(tmp_path / "empty")
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match=r"no <split>\.npz archives in .*empty$"):
            load_dataset(tmp_path / "empty")

    def test_format_1_manifest_named(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 1}')
        with pytest.raises(DataError, match=r"manifest\.json is format 1.*psrank gen"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("payload", [b'{"version": 2}', b"", b"PK\x03\x04 not really", NPY_BYTES],
                             ids=["text", "empty", "zip-magic", "npy"])
    def test_not_an_archive_rejected(self, tmp_path, cfg, payload):
        self.saved(tmp_path, cfg).write_bytes(payload)
        with pytest.raises(DataError, match=r"train\.npz is not an \.npz archive: .*File is not a zip file"):
            load_dataset(tmp_path)

    def test_truncated_sample_reports_path(self, tmp_path, cfg):
        victim = self.saved(tmp_path, cfg)
        data = victim.read_bytes()
        for keep in (0.3, 0.6, 0.95):
            victim.write_bytes(data[: int(len(data) * keep)])
            with pytest.raises(DataError, match=r"train\.npz is not an \.npz archive: .*File is not a zip file"):
                load_dataset(tmp_path)

    def test_corrupt_member_reports_path(self, tmp_path, cfg):
        victim = self.saved(tmp_path, cfg)
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 1  # inside the deflated images
        victim.write_bytes(bytes(data))
        with pytest.raises(DataError, match=r"train\.npz member images is unreadable: .*Bad CRC-32"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key", sorted(data_synth.LAYOUT))
    def test_missing_key_rejected(self, tmp_path, cfg, key):
        victim = self.saved(tmp_path, cfg)
        rewrite(victim, **{key: None})
        with pytest.raises(DataError, match=rf"train\.npz is missing {key}$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("version", [np.array(1), np.array(3), np.array([2]), np.array("2")],
                             ids=["1", "3", "shape-1", "str"])
    def test_unsupported_version_rejected(self, tmp_path, cfg, version):
        rewrite(self.saved(tmp_path, cfg), version=version)
        with pytest.raises(DataError, match=r"unsupported dataset version .* in .*train\.npz"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit", [
        lambda a: {"version": a["version"].astype(np.float64)},
        lambda a: {"images": a["images"].astype(np.float64)},
        lambda a: {"images": a["images"][:, :, :, 0]},
        lambda a: {"seeds": a["seeds"].astype(np.int32)},
        lambda a: {"counts": a["counts"].astype(np.float64)},
        lambda a: {"masks": a["masks"].astype(np.uint8)},
        lambda a: {"ranks": a["ranks"][:, None]},
    ], ids=["version-float", "images-float64", "images-3d", "seeds-int32", "counts-float",
            "masks-uint8", "ranks-2d"])
    def test_wrong_dtype_or_rank_rejected(self, tmp_path, cfg, edit):
        victim = self.saved(tmp_path, cfg)
        changes = edit(members(victim))
        rewrite(victim, **changes)
        (key,) = changes
        with pytest.raises(DataError, match=rf"^{key} in .*train\.npz is "):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit", [
        lambda a: {"images": np.concatenate([a["images"]] * 2, axis=1)[:, :4]},
        lambda a: {"masks": a["masks"][:, 1:]},
        lambda a: {"seeds": a["seeds"][1:]},
        lambda a: {"counts": a["counts"][1:]},
        lambda a: {"counts": a["counts"] + 1},
        lambda a: {"counts": a["counts"] + [-1 - a["counts"][0], 1 + a["counts"][0]]},  # same sum
        lambda a: {"ranks": a["ranks"][1:]},
    ], ids=["images-4-channels", "masks-height", "seeds-count", "counts-count", "counts-sum",
            "counts-negative", "ranks-count"])
    def test_disagreeing_arrays_rejected(self, tmp_path, cfg, edit):
        victim = self.saved(tmp_path, cfg)
        rewrite(victim, **edit(members(victim)))
        with pytest.raises(DataError, match=r"arrays in .*train\.npz disagree"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("ranks, scene", [([0, 0, 0, 0, 0], 0), ([1, 1, 3, 1, 2], 0), ([1, 2, 3, 1, 3], 1)],
                             ids=["all-zero", "duplicate", "above-count"])
    def test_impossible_ranks_rejected(self, tmp_path, cfg, ranks, scene):
        # a rank-0 instance would land in the last row of metrics' confusion matrix
        victim = self.saved(tmp_path, cfg)
        assert members(victim)["ranks"].tolist() == [1, 2, 3, 1, 2]  # scenes of 3 and 2 instances
        rewrite(victim, ranks=np.array(ranks, dtype=np.int64))
        with pytest.raises(DataError, match=rf"scene {scene} in .*train\.npz has ranks \["):
            load_dataset(tmp_path)

    def test_bytes_after_member_array_rejected(self, tmp_path, cfg):
        # the member's CRC-32 holds, but its header declares fewer values than it stores
        victim = self.saved(tmp_path, cfg)
        arrays = members(victim)
        with zipfile.ZipFile(victim, "w") as archive:
            for key, a in arrays.items():
                archive.writestr(f"{key}.npy", npy_bytes(a) + (b"\0" * 8 if key == "seeds" else b""))
        with pytest.raises(DataError, match=r"train\.npz member seeds is unreadable: .*bytes after the array"):
            load_dataset(tmp_path)

    def test_object_array_refused(self, tmp_path, cfg):
        # an object array would be unpickled on load; numpy refuses by default
        victim = self.saved(tmp_path, cfg)
        rewrite(victim, seeds=members(victim)["seeds"].astype(object))
        with pytest.raises(DataError, match=r"train\.npz member seeds is unreadable: .*pickle"):
            load_dataset(tmp_path)


class TestGenConfigRules:
    @pytest.mark.parametrize("overrides, rule", [
        (dict(k_min=float("nan")), "0 <= k_min <= k_max"),
        (dict(k_min=-2), "0 <= k_min <= k_max"),  # scenes without instances
        (dict(k_min=3, k_max=2), "0 <= k_min <= k_max"),
        (dict(k_max=float("nan")), "0 <= k_min <= k_max"),
        (dict(min_sqrt_area=0.0), "0 < min_sqrt_area <= max_sqrt_area < inf"),
        (dict(min_sqrt_area=30.0), "0 < min_sqrt_area <= max_sqrt_area < inf"),
        (dict(max_sqrt_area=float("nan")), "0 < min_sqrt_area <= max_sqrt_area < inf"),
        (dict(score_ratio=0.99), "1 <= score_ratio < inf"),
        (dict(score_ratio=float("nan")), "1 <= score_ratio < inf"),
        (dict(min_sqrt_area=-1.0), "0 < min_sqrt_area <= max_sqrt_area < inf"),
        (dict(max_sqrt_area=float("inf")), "0 < min_sqrt_area <= max_sqrt_area < inf"),
        (dict(score_ratio=float("inf")), "1 <= score_ratio < inf"),
        (dict(canvas=float("nan")), "canvas >= 32"),
        (dict(canvas=16), "canvas >= 32"),
    ])
    def test_broken_rule_named(self, overrides, rule):
        with pytest.raises(DataError, match=f"GenConfig needs .*{re.escape(rule)}"):
            GenConfig(**overrides)

    def test_zero_instances_allowed(self):
        assert GenConfig(k_min=0).k_min == 0

    def test_dataset_stops_after_placement_budget_failed_seeds(self, monkeypatch):
        calls = []

        def failing(cfg, seed):
            calls.append(seed)
            # fail the test, not hang it, if generate_dataset keeps going
            assert len(calls) <= data_synth.PLACEMENT_BUDGET, "generate_dataset did not stop"
            raise GenerationError(f"seed {seed}")

        monkeypatch.setattr(data_synth, "generate_scene", failing)
        last = 7 + data_synth.PLACEMENT_BUDGET - 1
        with pytest.raises(GenerationError, match=rf"seeds 7\.\.{last} all failed"):
            generate_dataset(GenConfig(), 1, 7)
        assert calls == list(range(7, last + 1))

    def test_a_built_scene_restarts_the_count(self, monkeypatch):
        budget = data_synth.PLACEMENT_BUDGET

        def one_in_budget(cfg, seed):  # budget - 1 failed seeds before each built one
            if seed % budget != budget - 1:
                raise GenerationError(f"seed {seed}")
            return seed

        monkeypatch.setattr(data_synth, "generate_scene", one_in_budget)
        assert generate_dataset(GenConfig(), 3, 0) == [budget - 1, 2 * budget - 1, 3 * budget - 1]


def test_many_seeds_valid(cfg):
    # broad sweep: every generated scene satisfies the structural invariants
    for seed in range(0, 400, 7):
        sample = generate_scene(cfg, seed)
        assert 1 <= len(sample.instances) <= cfg.k_max
        union = np.zeros(sample.image.shape[1:], dtype=np.int64)
        for mask, _ in sample.instances:
            union += mask
        assert union.max() <= 1
