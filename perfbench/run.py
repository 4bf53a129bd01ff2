"""psrank benchmark: one workload per invocation, run as one closed-loop
caller in one process (the next call starts when the previous one returns).

    python3 perfbench/run.py --workload predict-full128 --seed 1 --seconds 50 --trace 0

Run it from the repository root; it imports ``psrank`` from ``src/`` and
needs no installed package or console script. ``--trace 0`` prints the
end-to-end metrics. ``--trace 1`` runs the workload untraced, then again with
per-layer tracing, checks that tracing changed no output, prints the
per-layer metrics with the tracing overhead, and writes the spans to
``perfbench/traces/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any output check failed. Workloads and metrics are described in
``perfbench/README.md``.
"""

import os

# One caller and no helper threads: pin BLAS before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
SEED_STRIDE = 1_000_000  # training scenes start at seed*stride, held-out ones half a stride later
# Weights are initialised from a fixed seed, so --seed changes the scenes, not the model under test.
MODEL_SEED = 0
# Fixed schedule per train.train call. Each epoch is one step of 8 images and is
# timed on its own: a short interval fits inside a fast moment of the machine
# more often than a whole call does.
TRAIN_EPOCHS = 8
# Share of --seconds spent training on train-toy64; the held-out predict loop
# gets the rest. Training gets more, since its fastest epoch settles slower
# than the best repeats of the few timed predict images.
TRAIN_SHARE = 0.7
FAILURES_SHOWN = 5
# Latency is timed on the first held-out images only, repeated many times each
# in a shuffled order: one image's best repeat settles only when enough repeats
# land in a fast moment, and a fixed order can lock an image to a slow one.
LATENCY_IMAGES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    canvas: int
    full_model: bool  # ModelConfig() defaults, else toy_model_config()
    train_scenes: int  # 0: predict with seeded initial weights
    heldout: int


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("train-toy64", canvas=64, full_model=False, train_scenes=8, heldout=128),
    Workload("predict-full128", canvas=128, full_model=True, train_scenes=0, heldout=128),
)}


def import_psrank():
    """Import psrank from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import psrank
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import psrank from {src}: {exc}") from exc
    if Path(psrank.__file__).resolve().parent != src / "psrank":
        raise SystemExit(f"perfbench: psrank resolved to {psrank.__file__}, not {src}")


class Checks:
    """Output checks counted as attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            if len(self.messages) < FAILURES_SHOWN:
                self.messages.append(what)


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    train_call_s: list[float] = field(default_factory=list)
    train_images_per_call: int = 0
    train_epoch_s: list[float] = field(default_factory=list)  # every epoch but each call's first
    train_images_per_epoch: int = 0
    history: list | None = None
    predictions: list = field(default_factory=list)  # first pass over the held-out set
    latency_s: list[list[float]] = field(default_factory=list)  # per held-out image, one per repeat
    report: object = None


def clear_lazy_caches() -> None:
    """Empty every functools cache in psrank, so each set-up pays for its warm-up."""
    for name, module in list(sys.modules.items()):
        if name == "psrank" or name.startswith("psrank."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def configs(wl: Workload):
    from psrank import config, data_synth

    model_cfg = config.ModelConfig() if wl.full_model else config.toy_model_config()
    scale = wl.canvas / 64  # shape sizes follow the canvas, so instances cover the same area fraction
    gen_cfg = data_synth.GenConfig(canvas=wl.canvas, min_sqrt_area=10.0 * scale, max_sqrt_area=26.0 * scale)
    train_cfg = config.toy_train_config(seed=MODEL_SEED, epochs=TRAIN_EPOCHS)
    return model_cfg, gen_cfg, train_cfg


def set_up(wl: Workload, seed: int):
    """Scenes, training targets, initial weights and one warm-up call of each
    timed function, which fills the lazy caches.
    """
    from psrank import data_synth, model, train

    model_cfg, gen_cfg, _ = configs(wl)
    clear_lazy_caches()
    train_samples = data_synth.generate_dataset(gen_cfg, wl.train_scenes, seed * SEED_STRIDE)
    heldout = data_synth.generate_dataset(gen_cfg, wl.heldout, seed * SEED_STRIDE + SEED_STRIDE // 2)
    targets = [train.build_targets(s, model_cfg) for s in train_samples]
    params = model.init_model_params(model_cfg, MODEL_SEED)
    if train_samples:
        train.sample_loss(train_samples[0], targets[0], params, model_cfg).total.backward()
    model.predict(heldout[0].image, params, model_cfg)
    return train_samples, heldout, params


def finite_params(params) -> bool:
    return all(np.isfinite(p.data).all() and np.isfinite(p.grad).all() for p in params.values())


def valid_prediction(pred, model_cfg, canvas: int) -> bool:
    return (
        [p.rank for p in pred] == list(range(1, len(pred) + 1))
        and len(pred) <= model_cfg.max_rank
        and all(p.mask.dtype == bool and p.mask.shape == (canvas, canvas) for p in pred)
        and all(math.isfinite(p.score) and p.score >= model_cfg.partition_threshold for p in pred)
    )


def same_prediction(a, b) -> bool:
    return len(a) == len(b) and all(
        x.rank == y.rank and x.score == y.score and np.array_equal(x.mask, y.mask) for x, y in zip(a, b))


def history_values(history) -> list[tuple[float, float, float]]:
    return [(float(h.total), float(h.partition), float(h.mask)) for h in history]


def train_loop(wl, samples, seconds, checks: Checks, run: Run):
    """Repeat the fixed schedule until ``seconds`` have passed (at least once).

    Every step's loss and gradients are checked through what train.train
    exposes: a non-finite loss makes its epoch mean non-finite, and a
    non-finite gradient in any step leaves non-finite parameters behind,
    since SGD with a positive learning rate never turns them finite again.
    """
    from psrank import train

    model_cfg, _, train_cfg = configs(wl)
    steps_per_epoch = math.ceil(len(samples) / train_cfg.batch_size)
    run.train_images_per_call = train_cfg.epochs * len(samples)
    run.train_images_per_epoch = len(samples)
    params = None
    deadline = perf_counter() + seconds
    while not run.train_call_s or perf_counter() < deadline:
        epoch_ends: list[float] = []
        start = perf_counter()
        params, history = train.train(model_cfg, train_cfg, samples,
                                      progress=lambda _stats: epoch_ends.append(perf_counter()))
        run.train_call_s.append(perf_counter() - start)
        # The first epoch also pays for init_model_params and build_targets.
        run.train_epoch_s.extend(np.diff(epoch_ends).tolist())
        values = history_values(history)
        params_ok = finite_params(params)
        for epoch in values:
            checks.check(params_ok and all(np.isfinite(epoch)), f"train: non-finite loss or gradient {epoch}",
                         ops=steps_per_epoch)
        if run.history is None:
            run.history = values
        else:
            checks.check(values == run.history, "train: loss history differs between identical runs")
    return params


def predict_loop(wl, model_cfg, heldout, params, seconds, seed, checks: Checks, run: Run):
    """Predict every held-out image once, then repeat the first
    ``LATENCY_IMAGES`` of them, each pass in a new seeded order, until
    ``seconds`` have passed. Repeats must match the first pass.
    """
    from psrank import model

    run.latency_s = [[] for _ in heldout]
    deadline = perf_counter() + seconds
    order_rng = np.random.default_rng(seed)
    order: list[int] = []
    i = 0
    while i < len(heldout) or perf_counter() < deadline:
        if i < len(heldout):
            k = i
        else:
            order = order or list(order_rng.permutation(LATENCY_IMAGES))
            k = order.pop()
        start = perf_counter()
        pred = model.predict(heldout[k].image, params, model_cfg)
        run.latency_s[k].append(perf_counter() - start)
        checks.check(valid_prediction(pred, model_cfg, wl.canvas), f"predict: invalid output for image {k}")
        if i < len(heldout):
            run.predictions.append(pred)
        else:
            checks.check(same_prediction(pred, run.predictions[k]), f"predict: repeat of image {k} differs")
        i += 1


def run_workload(wl: Workload, seed: int, seconds: float, checks: Checks, setups: int, tracer=None) -> Run:
    from psrank import metrics

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    run = Run()
    model_cfg = configs(wl)[0]

    def timed_set_up():
        start = perf_counter()
        state = set_up(wl, seed)
        run.setup_s.append(perf_counter() - start)
        return state

    phase("setup")
    train_samples, heldout, params = timed_set_up()
    if train_samples:
        phase("train")
        params = train_loop(wl, train_samples, seconds * TRAIN_SHARE, checks, run)
        seconds *= 1 - TRAIN_SHARE
    phase("predict")
    predict_loop(wl, model_cfg, heldout, params, seconds, seed, checks, run)
    phase("eval")
    run.report = metrics.evaluate_images(
        [(pred, sample.instances) for pred, sample in zip(run.predictions, heldout)],
        model_cfg.max_rank, wl.canvas)
    checks.check(0.0 <= run.report.mae <= 1.0, f"evaluate: MAE {run.report.mae} outside [0, 1]")
    # Repeats run after the timed work, so the median samples the machine at
    # other moments than the first set-up; only their time is kept.
    phase("setup")
    for _ in range(setups - 1):
        timed_set_up()
    return run


def best_latency_s(run: Run) -> list[float]:
    """The fastest repeat of each of the first ``LATENCY_IMAGES`` held-out
    images. The machine's speed flickers between states; the best of an
    input's repeats filters that out (as timeit advises) and keeps the
    per-input spread.
    """
    return [min(repeats) for repeats in run.latency_s[:LATENCY_IMAGES]]


def images_per_s(run: Run) -> float:
    if run.train_epoch_s:
        return run.train_images_per_epoch / min(run.train_epoch_s)
    best = best_latency_s(run)
    return len(best) / sum(best)


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    p50, p90 = np.percentile(np.array(best_latency_s(run)) * 1e3, [50, 90])
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "images_per_s": (images_per_s(run), "1/s"),
        "predict_ms_p50": (float(p50), "ms"),
        "predict_ms_p90": (float(p90), "ms"),
        "heldout_mae": (run.report.mae, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_metrics(wl, seed, seconds, checks: Checks, untraced: Run):
    """Run the workload again under the tracer and check it against ``untraced``."""
    from tracer import Tracer, attention_pairs_closed_form, per_layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_workload(wl, seed, seconds, checks, setups=1, tracer=tracer)
    finally:
        tracer.uninstall()
    checks.check(tracer.restored(), "trace: a wrapped psrank attribute was not restored")
    checks.check(traced.history == untraced.history, "trace: loss history differs from the untraced run")
    checks.check(len(traced.predictions) == len(untraced.predictions)
                 and all(map(same_prediction, traced.predictions, untraced.predictions)),
                 "trace: predictions differ from the untraced run")
    checks.check(traced.report.mae == untraced.report.mae, "trace: held-out MAE differs from the untraced run")

    primary = "train" if traced.train_call_s else "predict"
    images = {"train": len(traced.train_call_s) * traced.train_images_per_call,
              "predict": sum(map(len, traced.latency_s)), "eval": len(traced.predictions)}
    layer = per_layer_metrics(tracer, primary, images)

    model_cfg = configs(wl)[0]
    closed = attention_pairs_closed_form(model_cfg.grid_sides)
    for route, pairs in closed.items():
        measured = layer[f"dpt.{route}.qk_pairs"][0]
        checks.check(measured == pairs * model_cfg.dpt_layers,
                     f"trace: dpt.{route}.qk_pairs {measured} != closed form {pairs * model_cfg.dpt_layers}")
    for recorded, nodes in tracer.graph_checks:
        checks.check(recorded == nodes, f"trace: {recorded} tape ops recorded but backward graph has {nodes}")
    checks.check(primary == "train" or layer["tensor.tape_ops"][0] == 0, "trace: predict recorded tape ops")

    report = traced.report
    layer["metrics.matched_pairs"] = (float(report.confusion.sum()) / report.images_evaluated, "count/img")
    layer["metrics.sa_sor_defined_frac"] = (
        (report.images_evaluated - report.images_excluded_sasor) / report.images_evaluated, "ratio")
    layer["trace.overhead_pct"] = ((images_per_s(untraced) / images_per_s(traced) - 1.0) * 100.0, "%")
    return layer, tracer, traced


def environment(wl: Workload, seed: int, run: Run) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": seed,
        "samples": {
            "setup_repeats": len(run.setup_s),
            "train_calls": len(run.train_call_s),
            "train_images": len(run.train_call_s) * run.train_images_per_call,
            "train_epochs_timed": len(run.train_epoch_s),
            "predict_calls": sum(map(len, run.latency_s)),
            "heldout_images": len(run.predictions),
            "latency_images": len(best_latency_s(run)),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_psrank()

    wl = WORKLOADS[args.workload]
    checks = Checks()
    if args.trace:
        # Half the time untraced, half traced, so a traced run lasts as long as an untraced one.
        seconds = args.seconds / 2
        run = run_workload(wl, args.seed, seconds, checks, setups=1)
        metrics, tracer, traced = traced_metrics(wl, args.seed, seconds, checks, run)
        env = environment(wl, args.seed, traced)
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "metrics": metrics, **tracer.dump()}))
    else:
        run = run_workload(wl, args.seed, args.seconds, checks, setups=SETUP_REPEATS)
        metrics = end_to_end_metrics(run)
        env = environment(wl, args.seed, run)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'ops':40s} {checks.attempted:14d}")
    print(f"{'ops_failed':40s} {checks.failed:14d}")
    print(json.dumps({"env": env}))
    for message in checks.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
