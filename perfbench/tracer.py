"""Per-layer tracing for the psrank benchmark.

``Tracer.install`` wraps psrank's functions at the module and class attributes
their callers look up (``model.partition_to_rank``, not
``p2r.partition_to_rank``, because ``model`` imports the name). Each wrapped
call records one span: name, parent span, start, end and the benchmark phase
it ran in. Spans stay in memory until the run ends. ``uninstall`` puts every
original object back.

Backward time is attributed by wrapping the tape closure of every op result.
The wrapper is tagged with the spans that were open when the op ran forward,
and its time is added to each of them, so ``bwd_ms`` of a layer is inclusive
like its ``fwd_ms``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from time import perf_counter

from psrank import data_synth, dpt, heads, losses, metrics, model, p2r, pyramid, train
from psrank import tensor as T

# Primitive tensor ops; multi_head_attention is composed of matmul and softmax.
PRIMITIVE_OPS = ("conv2d", "group_norm", "interpolate", "matmul", "softmax")
TENSOR_OPS = PRIMITIVE_OPS + ("multi_head_attention",)
ROUTES = ("row", "col", "cross")
_ROUTE_WQ = re.compile(r"dpt\.layer\d+\.(row|col|cross)\.wq")
# Backward graphs walked for the tape self-test; each walk costs a graph traversal.
GRAPH_CHECKS = 8

# (owner, attribute, span name) wrapped by Tracer.install.
LAYER_FUNCTIONS = (
    (pyramid, "encoder_stages", "pyramid.encoder_stages"),
    (pyramid, "pyramid_from_stages", "pyramid.pyramid_from_stages"),
    (pyramid, "add_positional_encoding", "pyramid.add_positional_encoding"),
    (dpt, "cgr", "dpt.cgr"),
    (dpt, "dpt_forward", "dpt.dpt_forward"),
    (dpt, "clcg", "dpt.clcg"),
    (heads, "mask_branch", "heads.mask_branch"),
    (heads, "partition_forward", "heads.partition_forward"),
    (heads.MaskBranch, "soft_masks", "heads.soft_masks"),
    (losses, "total_loss", "losses.total_loss"),
    (train, "sample_loss", "train.sample_loss"),
    (train, "build_targets", "train.build_targets"),
    (train.SgdOptimizer, "step", "train.optimizer_step"),
    (train.SgdOptimizer, "zero_grad", "train.zero_grad"),
    (model, "forward", "model.forward"),
    (model, "predict", "model.predict"),
    (model, "partition_to_rank", "p2r.partition_to_rank"),
    (p2r, "associate", "p2r.associate"),
    (p2r, "alleviate", "p2r.alleviate"),
    (p2r, "select_ranks", "p2r.select_ranks"),
    (metrics, "evaluate_images", "metrics.evaluate_images"),
    (data_synth, "generate_scene", "data_synth.generate_scene"),
)

# Counters kept at span boundaries: span name -> (counter, count of a result).
RESULT_COUNTS = {
    "train.build_targets": ("train.build_targets.pos_cells", lambda r: len(r.pos_rows)),
    "p2r.associate": ("p2r.associated", len),
    "p2r.alleviate": ("p2r.alleviated", len),
    "p2r.select_ranks": ("p2r.selected", len),
    "data_synth.generate_scene": ("data_synth.accepted", lambda r: 1),
}


def graph_nodes(root) -> int:
    """Tape nodes reachable from ``root`` the way ``Tensor.backward`` walks them."""
    seen = {id(root)}
    stack = [root]
    nodes = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            nodes += 1
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def attention_pairs_closed_form(grid_sides) -> dict[str, int]:
    """Query-key pairs of one DPT layer per route: a row or a column pass on
    an s-by-s grid is s sequences of length s, and the cross route is
    s_max^2 sequences of length S.
    """
    cube = sum(s**3 for s in grid_sides)
    return {"row": cube, "col": cube, "cross": max(grid_sides) ** 2 * len(grid_sides) ** 2}


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple] = []  # (name, parent index, start, end, phase)
        self.counts = defaultdict(float)  # (phase, counter) -> total
        self.bwd = defaultdict(float)  # (phase, span name) -> backward seconds
        self.graph_checks: list[tuple[int, int]] = []  # (tape ops recorded, graph nodes)
        self._open: list[int] = []
        self._tags: tuple[str, ...] = ()
        self._tape_since_backward = 0
        self._patches: list[tuple[object, str, object]] = []
        self._routes: dict[int, tuple[object, str]] = {}  # id(wq) -> (wq, route); holds wq alive

    # recording ------------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)  # reserved, so children see their parent's index
        self._open.append(index)
        outer_tags = self._tags
        self._tags = outer_tags + (name,)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (name, parent, start, perf_counter(), self.phase)
            self._tags = outer_tags
            self._open.pop()

    def _count(self, counter, value):
        self.counts[(self.phase, counter)] += value

    # wrappers -------------------------------------------------------------------

    def _spanned(self, name, original):
        counted = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if name == "dpt.dpt_forward":
                self._register_routes(args[1])
            result = self._call(name, original, args, kwargs)
            if counted is not None:
                self._count(counted[0], counted[1](result))
            return result

        return wrapper

    def _primitive(self, name, original):
        def wrapper(*args, **kwargs):
            result = self._call(name, original, args, kwargs)
            self._count(f"{name}.out_bytes", result.data.nbytes)
            return result

        return wrapper

    def _register_routes(self, params):
        for key, value in params.items():
            match = _ROUTE_WQ.fullmatch(key)
            if match and id(value) not in self._routes:
                self._routes[id(value)] = (value, f"dpt.{match.group(1)}")

    def _attention(self, original):
        def wrapper(x, heads, wq, *args, **kwargs):
            call_args = (x, heads, wq) + args
            route = self._routes.get(id(wq))
            if route is None:
                return self._call("tensor.multi_head_attention", original, call_args, kwargs)
            shape = x.shape
            batch, length = (1, shape[0]) if len(shape) == 2 else shape[:2]
            self._count(f"{route[1]}.qk_pairs", batch * length * length)
            return self._call(route[1], self._call,
                              ("tensor.multi_head_attention", original, call_args, kwargs), {})

        return wrapper

    def _result(self, original):
        def wrapper(data, parents, backward):
            out = original(data, parents, backward)
            if out._backward is not None:
                self._count("tensor.tape_ops", 1)
                self._tape_since_backward += 1
                out._backward = self._timed_closure(out._backward)
            return out

        return wrapper

    def _timed_closure(self, closure):
        tags, phase, bwd = self._tags, self.phase, self.bwd

        def timed(grad):
            start = perf_counter()
            closure(grad)
            elapsed = perf_counter() - start
            for name in tags:
                bwd[(phase, name)] += elapsed

        return timed

    def _backward(self, original):
        def wrapper(root, grad=None):
            if len(self.graph_checks) < GRAPH_CHECKS:
                self.graph_checks.append((self._tape_since_backward, graph_nodes(root)))
            self._tape_since_backward = 0
            return self._call("tensor.backward", original, (root, grad), {})

        return wrapper

    # install --------------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for op in PRIMITIVE_OPS:
            self._patch(T, op, self._primitive(f"tensor.{op}", getattr(T, op)))
        self._patch(T, "multi_head_attention", self._attention(T.multi_head_attention))
        self._patch(T, "_result", self._result(T._result))
        self._patch(T.Tensor, "backward", self._backward(vars(T.Tensor)["backward"]))
        for owner, attr, name in LAYER_FUNCTIONS:
            self._patch(owner, attr, self._spanned(name, vars(owner)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    # aggregation ----------------------------------------------------------------

    def summarize(self) -> dict:
        """Inclusive and self seconds and call counts per (phase, span name).
        Self time is the span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, parent, start, end, phase) in enumerate(self.spans):
            inclusive[(phase, name)] += end - start
            own[(phase, name)] += end - start - child[index]
            calls[(phase, name)] += 1
            if name == "tensor.interpolate" and parent >= 0 and self.spans[parent][0] == "model.predict":
                own[(phase, "model.predict.upsample")] += end - start - child[index]
        return {"inclusive": inclusive, "self": own, "calls": calls}

    def dump(self) -> dict:
        """Spans in a compact form: a name table and [name, parent, start_us,
        duration_us, phase] rows, times relative to the first span.
        """
        names = sorted({s[0] for s in self.spans} | {s[4] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[index[n], p, round((s - origin) * 1e6, 1), round((e - s) * 1e6, 1), index[ph]]
                for n, p, s, e, ph in self.spans]
        return {"names": names, "columns": ["name", "parent", "start_us", "duration_us", "phase"],
                "spans": rows}


def per_layer_metrics(tracer: Tracer, primary: str, images: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished traced run.

    ``primary`` is the phase a workload exists to measure ("train" or
    "predict"); the tensor, pyramid, dpt and heads layers and
    ``model.forward`` are read from it. Losses and the optimizer are read from
    "train", ``model.predict`` and P2R from "predict", ``metrics`` from "eval".
    Times and counts are per image of the phase they are read from, except
    ``build_targets`` (per sample, every phase) and ``generate_scene`` (per
    scene, set-up phase). A layer that does not run in its phase reads 0.
    """
    summary = tracer.summarize()
    inclusive, calls = summary["inclusive"], summary["calls"]
    out: dict[str, tuple[float, str]] = {}

    def per_image(phase, total):
        return total / images[phase] if images.get(phase) else 0.0

    def fwd_bwd(metric, phase, span, backward=True):
        out[f"{metric}.fwd_ms"] = (per_image(phase, inclusive[(phase, span)] * 1e3), "ms/img")
        if backward:
            out[f"{metric}.bwd_ms"] = (per_image(phase, tracer.bwd[(phase, span)] * 1e3), "ms/img")

    p = primary
    out_bytes = 0.0
    for op in TENSOR_OPS:
        span = f"tensor.{op}"
        out[f"{span}.calls"] = (per_image(p, calls[(p, span)]), "count/img")
        fwd_bwd(span, p, span)
        out_bytes += tracer.counts[(p, f"{span}.out_bytes")]
    out["tensor.backward.ms"] = (per_image(p, inclusive[(p, "tensor.backward")] * 1e3), "ms/img")
    out["tensor.tape_ops"] = (per_image(p, tracer.counts[(p, "tensor.tape_ops")]), "count/img")
    out["tensor.out_mb"] = (per_image(p, out_bytes / 1e6), "MB/img")

    fwd_bwd("pyramid.encoder_stages", p, "pyramid.encoder_stages")
    fwd_bwd("pyramid.pyramid_from_stages", p, "pyramid.pyramid_from_stages")
    fwd_bwd("pyramid.add_positional_encoding", p, "pyramid.add_positional_encoding", backward=False)

    fwd_bwd("dpt.cgr", p, "dpt.cgr")
    fwd_bwd("dpt.dpt_forward", p, "dpt.dpt_forward")
    for route in ROUTES:
        span = f"dpt.{route}"
        fwd_bwd(span, p, span)
        out[f"{span}.qk_pairs"] = (per_image(p, tracer.counts[(p, f"{span}.qk_pairs")]), "count/img")
    fwd_bwd("dpt.clcg", p, "dpt.clcg")

    for span in ("heads.mask_branch", "heads.soft_masks", "heads.partition_forward"):
        fwd_bwd(span, p, span)

    fwd_bwd("losses.total_loss", "train", "losses.total_loss")
    for span in ("train.sample_loss", "train.optimizer_step", "train.zero_grad"):
        out[f"{span}.ms"] = (per_image("train", inclusive[("train", span)] * 1e3), "ms/img")
    targets = sum(n for (_, name), n in calls.items() if name == "train.build_targets")
    target_s = sum(t for (_, name), t in inclusive.items() if name == "train.build_targets")
    pos_cells = sum(v for (_, name), v in tracer.counts.items() if name == "train.build_targets.pos_cells")
    out["train.build_targets.ms"] = (target_s * 1e3 / targets if targets else 0.0, "ms/call")
    out["train.build_targets.pos_cells"] = (pos_cells / targets if targets else 0.0, "count/call")

    out["model.forward.ms"] = (per_image(p, inclusive[(p, "model.forward")] * 1e3), "ms/img")
    out["model.predict.ms"] = (per_image("predict", inclusive[("predict", "model.predict")] * 1e3), "ms/img")
    out["model.predict.upsample_ms"] = (
        per_image("predict", summary["self"][("predict", "model.predict.upsample")] * 1e3), "ms/img")

    out["p2r.partition_to_rank.ms"] = (
        per_image("predict", inclusive[("predict", "p2r.partition_to_rank")] * 1e3), "ms/img")
    for stage in ("associate", "alleviate", "select_ranks"):
        span = f"p2r.{stage}"
        out[f"{span}.ms"] = (per_image("predict", inclusive[("predict", span)] * 1e3), "ms/img")
    funnel = {c: tracer.counts[("predict", f"p2r.{c}")] for c in ("associated", "alleviated", "selected")}
    for counter, total in funnel.items():
        out[f"p2r.{counter}"] = (per_image("predict", total), "count/img")
    ratio = funnel["selected"] / funnel["associated"] if funnel["associated"] else 0.0
    out["p2r.select_ratio"] = (ratio, "ratio")

    out["metrics.evaluate_images.ms"] = (
        per_image("eval", inclusive[("eval", "metrics.evaluate_images")] * 1e3), "ms/img")

    scenes_tried = calls[("setup", "data_synth.generate_scene")]
    out["data_synth.generate_scene.ms"] = (
        inclusive[("setup", "data_synth.generate_scene")] * 1e3 / scenes_tried if scenes_tried else 0.0, "ms/call")
    accepted = tracer.counts[("setup", "data_synth.accepted")]
    out["data_synth.accept_ratio"] = (accepted / scenes_tried if scenes_tried else 0.0, "ratio")
    return out
