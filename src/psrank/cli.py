"""The ``psrank`` command line.

    psrank gen --out data/ --count 64 --heldout 32 --seed 0 --canvas 64

``gen`` writes a synthetic ranked dataset to the ``--out`` directory with
``data_synth.save_dataset``: ``train.npz`` holds ``--count`` scenes from base
seed ``--seed`` and ``heldout.npz`` holds ``--heldout`` scenes from base seed
``--seed + HELDOUT_SEED_OFFSET``, so the splits share no seed while the
training scenes use fewer than a million seeds. ``data_synth.load_dataset``
reads every ``.npz`` in the directory as a split, so ``--heldout 0`` removes
a ``heldout.npz`` left there by an earlier run. Shape sizes scale with
``--canvas``, so instances cover the same share of the canvas at every size;
``--canvas 64`` is ``GenConfig()``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import data_synth
from .errors import DataError

HELDOUT_SEED_OFFSET = 1_000_000


def gen_config(canvas: int) -> data_synth.GenConfig:
    base = data_synth.GenConfig()
    scale = canvas / base.canvas
    return replace(base, canvas=canvas, min_sqrt_area=base.min_sqrt_area * scale,
                   max_sqrt_area=base.max_sqrt_area * scale)


def _gen(args) -> None:
    cfg = gen_config(args.canvas)
    splits = {"train": data_synth.generate_dataset(cfg, args.count, args.seed)}
    if args.heldout:
        splits["heldout"] = data_synth.generate_dataset(cfg, args.heldout, args.seed + HELDOUT_SEED_OFFSET)
    data_synth.save_dataset(splits, args.out)
    if not args.heldout:
        (Path(args.out) / "heldout.npz").unlink(missing_ok=True)
    print(f"wrote {args.count} train and {args.heldout} heldout scenes "
          f"({cfg.canvas}x{cfg.canvas}) to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psrank", description="Partitioned saliency ranking at desk scale.")
    commands = parser.add_subparsers(dest="command", required=True)
    gen = commands.add_parser("gen", help="write a synthetic ranked dataset")
    gen.add_argument("--out", required=True, help="dataset directory (created if missing)")
    gen.add_argument("--count", type=int, default=64, help="training scenes (>= 1)")
    gen.add_argument("--heldout", type=int, default=32, help="held-out scenes (>= 0)")
    gen.add_argument("--seed", type=int, default=0, help="base seed of the training scenes (>= 0)")
    gen.add_argument("--canvas", type=int, default=64, help="image side in pixels (>= 32)")
    gen.set_defaults(run=_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and (args.count < 1 or args.heldout < 0 or args.seed < 0):
        parser.error("gen needs --count >= 1, --heldout >= 0 and --seed >= 0")
    try:
        args.run(args)
    except DataError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
