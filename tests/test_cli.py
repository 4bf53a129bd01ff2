import importlib
from pathlib import Path

import numpy as np
import pytest

from psrank import cli
from psrank.data_synth import GenConfig, generate_dataset, load_dataset

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_gen_config_scales_shapes_with_canvas():
    assert cli.gen_config(64) == GenConfig()
    assert cli.gen_config(128) == GenConfig(canvas=128, min_sqrt_area=20.0, max_sqrt_area=52.0)


def test_gen_round_trips_to_generated_scenes(tmp_path, capsys):
    argv = ["gen", "--out", str(tmp_path), "--count", "3", "--heldout", "2", "--seed", "5", "--canvas", "64"]
    assert cli.main(argv) == 0
    assert "3 train and 2 heldout" in capsys.readouterr().out
    cfg = GenConfig()
    expected = {"train": generate_dataset(cfg, 3, 5),
                "heldout": generate_dataset(cfg, 2, 5 + cli.HELDOUT_SEED_OFFSET)}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["heldout.npz", "train.npz"]
    loaded = load_dataset(tmp_path)
    assert sorted(loaded) == sorted(expected)
    for split, samples in expected.items():
        assert len(loaded[split]) == len(samples)
        for want, got in zip(samples, loaded[split]):
            assert got.seed == want.seed
            assert got.image.dtype == want.image.dtype and got.image.tobytes() == want.image.tobytes()
            assert [r for _, r in got.instances] == [r for _, r in want.instances]
            for (mg, _), (mw, _) in zip(got.instances, want.instances):
                np.testing.assert_array_equal(mg, mw)


def test_gen_without_heldout_removes_an_earlier_heldout_split(tmp_path):
    assert cli.main(["gen", "--out", str(tmp_path), "--count", "2", "--heldout", "1"]) == 0
    assert cli.main(["gen", "--out", str(tmp_path), "--count", "1", "--heldout", "0", "--seed", "9"]) == 0
    loaded = load_dataset(tmp_path)
    assert list(loaded) == ["train"] and [s.seed for s in loaded["train"]] == [9]


@pytest.mark.parametrize("bad", [["--count", "0"], ["--seed", "-1"], ["--canvas", "16"]])
def test_gen_rejects_bad_arguments(tmp_path, bad):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--out", str(tmp_path)] + bad)
    assert exc.value.code == 2
