"""Print one sha256 over the model's numbers, so a change that should leave
outputs bit-identical can be checked by running this on both commits:

    PYTHONPATH=src python tests/output_digest.py [--verbose]

The digest covers, for the toy model at 64x64 and ``ModelConfig()`` at
128x128, each with the partition and the sorting head: initial parameters
for weight seeds 0 and 1, ``forward`` scores and soft masks, ``predict``
instances (at ``partition_threshold=0.1``, so that untrained weights emit
some), ``train.build_targets``' rank classes, positive rows and mask
targets for every scene used, and the loss history and parameters of a
3-epoch ``train.train`` run. ``--verbose`` also prints one
digest per part (``init``, ``forward``, ``predict``, ``targets``, ``train``)
and per setup, so a change that moves one part shows which; the last line
hashes the same bytes either way.
pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace

import numpy as np

from psrank import model, train
from psrank.config import ModelConfig, TrainConfig, toy_model_config
from psrank.data_synth import GenConfig, generate_dataset
from psrank.tensor import Tensor, no_grad

WEIGHT_SEEDS = (0, 1)
PREDICT_SCENES = 6
TRAIN_SCENES = 3


def setups():
    """(name, model config, scene config) for each covered model."""
    gen128 = GenConfig(canvas=128, min_sqrt_area=20.0, max_sqrt_area=52.0)
    for head in ("partition", "sorting"):
        yield f"toy64-{head}", toy_model_config(head_type=head), GenConfig()
        yield f"full128-{head}", ModelConfig(head_type=head), gen128


PARTS = ("init", "forward", "predict", "targets", "train")


class SetupDigest:
    """One sha256 over every array fed, in order, and one per part."""

    def __init__(self):
        self.whole = hashlib.sha256()
        self.parts = {name: hashlib.sha256() for name in PARTS}

    def feed(self, part: str, *arrays) -> None:
        for a in arrays:
            a = np.ascontiguousarray(a)
            for h in (self.whole, self.parts[part]):
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())


def digest_setup(cfg: ModelConfig, gen: GenConfig) -> tuple[SetupDigest, int]:
    h = SetupDigest()
    scenes = generate_dataset(gen, PREDICT_SCENES, 7000)
    decode_cfg = replace(cfg, partition_threshold=0.1)
    instances = 0
    for seed in WEIGHT_SEEDS:
        params = model.init_model_params(cfg, seed)
        for name in sorted(params):
            h.feed("init", params[name].data)
        for scene in scenes:
            with no_grad():
                outputs = model.forward(Tensor(scene.image), params, cfg)
                h.feed("forward", outputs.scores.data, outputs.mask.soft_masks().data)
            for inst in model.predict(scene.image, params, decode_cfg):
                h.feed("predict", np.array([inst.rank, inst.score]), inst.mask)
                instances += 1
    train_scenes = generate_dataset(gen, TRAIN_SCENES, 8000)
    for scene in scenes + train_scenes:
        targets = train.build_targets(scene, cfg)
        h.feed("targets", targets.rank_class, targets.pos_rows, targets.pos_masks)
    params, history = train.train(cfg, TrainConfig(epochs=3, seed=0), train_scenes)
    for stats in history:
        h.feed("train", np.array([stats.total, stats.partition, stats.mask]))
    for name in sorted(params):
        h.feed("train", params[name].data)
    return h, instances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="also print each part's digest")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for name, cfg, gen in setups():
        digest, instances = digest_setup(cfg, gen)
        total.update(digest.whole.hexdigest().encode())
        if args.verbose:
            print(f"{name}: {digest.whole.hexdigest()} ({instances} predicted instances)")
            for part, h in digest.parts.items():
                print(f"  {part:8s} {h.hexdigest()}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
