"""The benchmark's tracer wraps psrank functions by module attribute. These
tests fail when a refactor moves or renames a wrapped function, or calls it
in a way the wrapper no longer sees, which would zero a per-layer metric.
They also run the benchmark's own output checks on ``model.predict``, whose
failures the benchmark counts as failed operations, and one short benchmark
run, which reads what no other test here calls (``configs``, ``train_loop``,
``history_values``, ``environment``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer as bench_tracer  # noqa: E402

with mock.patch.dict(os.environ):  # importing run.py pins BLAS threads in the environment
    import run as bench_run  # noqa: E402
from psrank import data_synth, metrics, model, train  # noqa: E402
from psrank.config import toy_model_config  # noqa: E402


def test_every_wrapped_attribute_is_owned():
    for owner, attr, name in bench_tracer.LAYER_FUNCTIONS:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is not defined there"


@pytest.mark.parametrize("head_type", ["partition", "sorting"])
def test_spans_fire_on_model_path(head_type):
    cfg = toy_model_config(head_type=head_type, partition_threshold=0.1)
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        sample, heldout = data_synth.generate_dataset(data_synth.GenConfig(), 2, 5000)
        params = model.init_model_params(cfg, 0)
        optimizer = train.SgdOptimizer(params, 0.0)
        optimizer.zero_grad()
        tracer.phase = "train"
        train.sample_loss(sample, train.build_targets(sample, cfg), params, cfg).total.backward()
        optimizer.step(0.01)
        tracer.phase = "predict"
        preds = model.predict(heldout.image, params, cfg)
        metrics.evaluate_images([(preds, heldout.instances)], cfg.max_rank, 64)
    finally:
        tracer.uninstall()
    assert tracer.restored()

    fired = {span[0] for span in tracer.spans}
    path = {name for _, _, name in bench_tracer.LAYER_FUNCTIONS}
    if head_type == "sorting":
        path -= {"heads.partition_forward", "p2r.partition_to_rank", "p2r.associate",
                 "p2r.alleviate", "p2r.select_ranks"}
    assert path - fired == set()
    for span in ("losses.total_loss", "heads.mask_branch", "heads.soft_masks", "dpt.dpt_forward"):
        assert tracer.bwd[("train", span)] > 0, span
    if head_type == "partition":
        assert tracer.bwd[("train", "heads.partition_forward")] > 0
        funnel = [tracer.counts[("predict", f"p2r.{c}")] for c in ("associated", "alleviated", "selected")]
        assert funnel[0] >= funnel[1] >= funnel[2] > 0
    assert tracer.counts[("train", "tensor.tape_ops")] > 0


def test_repeated_predictions_pass_benchmark_checks():
    # partition head only: valid_prediction requires score >= partition_threshold
    cfg = toy_model_config(partition_threshold=0.1)
    params = model.init_model_params(cfg, 0)
    found = 0
    for sample in data_synth.generate_dataset(data_synth.GenConfig(), 8, 5000):
        first = model.predict(sample.image, params, cfg)
        assert bench_run.valid_prediction(first, cfg, 64)
        for _ in range(2):
            assert bench_run.same_prediction(model.predict(sample.image, params, cfg), first)
        found += len(first)
    assert found > 0


def test_route_pairs_match_closed_form():
    # the tracer reads each route's pairs from the shape of its attention call
    cfg = toy_model_config()
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        params = model.init_model_params(cfg, 0)
        sample = data_synth.generate_scene(data_synth.GenConfig(), 3)
        tracer.phase = "predict"
        model.predict(sample.image, params, cfg)
    finally:
        tracer.uninstall()
    expected = bench_tracer.attention_pairs_closed_form(cfg.grid_sides)
    for route in bench_tracer.ROUTES:
        assert tracer.counts[("predict", f"dpt.{route}.qk_pairs")] == expected[route] * cfg.dpt_layers, route


def test_short_benchmark_run_is_correct():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-toy64", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
