"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public patchmil functions from outside the package. Each
wrapped call records one span: name, start, end, parent span and step id.
A tensor op also wraps the ``_backward`` closure of the tape node it returns,
so backward time is charged to the op that made the node. Spans stay in
memory until the run ends. ``uninstall`` puts every replaced attribute back.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

SETUP_STEP = -1

# Tensor ops wrapped by the tracer. Composite ops (conv2d, reduce_mean,
# l2_normalize, swapaxes) call other ops; those nest as child spans.
TENSOR_OPS = (
    "add", "sub", "mul", "div", "power", "exp", "log", "sqrt", "relu", "gelu",
    "tanh", "sigmoid", "reduce_sum", "reduce_mean", "reduce_max", "softmax",
    "l2_normalize", "reshape", "transpose", "swapaxes", "concat", "take",
    "pad2d", "matmul", "unfold", "conv2d",
)

# Tensor ops reported one by one; the rest fold into tensor.other.
REPORTED_OPS = (
    "matmul", "conv2d", "unfold", "softmax", "transpose", "reshape", "add",
    "mul", "power", "gelu", "relu", "reduce_mean", "take", "concat",
)

# Wrapped functions of the other layers: (layer, attribute path, reported
# stats). Functions with no stats still get spans, and their self time folds
# into <layer>.other.self_s.
LAYER_FUNCTIONS = (
    ("backbone", "embed_patch", ("calls", "self_s", "items")),
    ("backbone", "multihead_attention", ("calls", "self_s")),
    ("backbone", "global_embed", ("calls", "self_s")),
    ("backbone", "part_attention", ("calls", "self_s")),
    ("backbone", "gap", ()),
    ("backbone", "init_backbone", ()),
    ("backbone", "init_heads", ()),
    ("backbone", "clone_as_teacher", ()),
    ("selfsup", "augment", ("calls", "self_s")),
    ("selfsup", "pretrain_step", ("calls", "self_s")),
    ("selfsup", "momentum_update", ("self_s",)),
    ("selfsup", "global_loss", ("self_s",)),
    ("selfsup", "parts_loss", ("self_s",)),
    ("selfsup", "variance_loss", ("self_s",)),
    ("selfsup", "covariance_loss", ("self_s",)),
    ("selfsup", "Adam.step", ("calls", "self_s")),
    ("selfsup", "pretrain", ()),
    ("selfsup", "total_loss", ()),
    ("mil", "bag_logits", ("calls", "self_s")),
    ("mil", "msa_refine", ("calls", "self_s")),
    ("mil", "pool", ("calls", "self_s")),
    ("mil", "cross_entropy", ("calls", "self_s")),
    ("mil", "evaluate_bags", ("calls", "self_s")),
    ("mil", "train_mil", ("calls", "self_s")),
    ("mil", "Adam.step", ("calls", "self_s")),
    ("mil", "init_mil", ()),
    ("pipeline", "image_patches", ("calls", "self_s")),
    ("pipeline", "embed_patches", ("calls", "self_s")),
    ("pipeline", "bags_from_corpus", ("calls", "self_s")),
    ("pipeline", "bag_normalization", ()),
    ("pipeline", "standardize_bags", ()),
    ("data", "read_tensor", ("calls", "self_s", "items")),
    ("data", "generate_corpus", ("self_s",)),
    ("data", "save_checkpoint", ("self_s",)),
    ("data", "load_checkpoint", ("self_s",)),
    ("data", "write_tensor", ()),
    ("data", "load_split", ()),
    ("data", "load_index", ()),
    ("data", "tile_image", ()),
)

LAYERS = ("tensor", "backbone", "selfsup", "mil", "pipeline", "data")


def _item_count(layer: str, func: str):
    """Work counter for the functions that report `items`."""
    if (layer, func) == ("backbone", "embed_patch"):
        # patches encoded: a (side, side, 3) input is one patch
        return lambda args, out: 1 if np.ndim(args[0]) == 3 else int(np.shape(args[0])[0])
    if (layer, func) == ("data", "read_tensor"):
        return lambda args, out: int(out[0].nbytes)  # payload bytes
    return None


def _unit(stat: str, name: str) -> str:
    if stat == "calls":
        return "count"
    if stat == "items":
        return "bytes" if name == "data.read_tensor" else "patches"
    return "s"


def per_layer_spec() -> list:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    spec = []
    for op in REPORTED_OPS:
        spec += [(f"tensor.{op}.calls", "count"), (f"tensor.{op}.fwd_s", "s"),
                 (f"tensor.{op}.bwd_s", "s")]
    spec += [
        ("tensor.other.calls", "count"), ("tensor.other.self_s", "s"),
        ("tensor.backward.calls", "count"), ("tensor.backward.self_s", "s"),
        ("tensor.backward.overhead_s", "s"), ("tensor.nodes.per_step", "nodes/step"),
    ]
    for layer in LAYERS[1:]:
        for lay, func, stats in LAYER_FUNCTIONS:
            if lay == layer:
                spec += [(f"{layer}.{func}.{s}", _unit(s, f"{layer}.{func}")) for s in stats]
        spec.append((f"{layer}.other.self_s", "s"))
    spec += [(f"{layer}.layer.self_s", "s") for layer in LAYERS]
    spec += [
        ("bench.glue.self_s", "s"), ("trace.run.wall_s", "s"),
        ("trace.run.coverage", "fraction"), ("trace.run.items_per_s", "items/s"),
        ("trace.run.steps", "count"),
    ]
    return spec


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _TimedBackward:
    """Wraps one tape node's backward closure with a span."""

    __slots__ = ("fn", "tracer", "name_id", "owners")

    def __init__(self, fn, tracer, name_id, owners):
        self.fn, self.tracer, self.name_id, self.owners = fn, tracer, name_id, owners

    def __call__(self, g):
        tracer = self.tracer
        if not tracer.active:
            return self.fn(g)
        i = tracer.open(self.name_id)
        try:
            return self.fn(g)
        finally:
            tracer.close(i)
            took = tracer.end[i] - tracer.start[i]
            for op in self.owners:
                tracer.bwd_s[op] = tracer.bwd_s.get(op, 0.0) + took


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.step = array("i")
        self._stack: list[int] = []
        self._ops: list[list] = []  # open tensor ops: [op, made a nested op call]
        self.step_id = SETUP_STEP
        self.active = False
        self.items: dict[str, int] = {}
        self.bwd_s: dict[str, float] = {}  # op -> backward time of nodes made inside it
        self.step_nodes = 0  # tape nodes made during timed steps
        self._patcher = Patcher()

    # -- span store ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.step_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "step": np.array(self.step, dtype=np.int32),
        }

    def write(self, path) -> None:
        """Write every span as arrays plus the name table (.npz)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, items=None):
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if items is not None:
                self.items[name] = self.items.get(name, 0) + items(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _op_wrapper(self, op: str, fn, tensor_cls):
        name_id = self.name_id(f"tensor.{op}")
        bwd_id = self.name_id(f"tensor.{op}.bwd")

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if self._ops:
                self._ops[-1][1] = True
            frame = [op, False]
            self._ops.append(frame)
            i = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
                self._ops.pop()
            # the innermost op made the node; enclosing ops share its backward
            if (not frame[1] and isinstance(out, tensor_cls) and out._backward is not None
                    and not isinstance(out._backward, _TimedBackward)):
                owners = tuple(f[0] for f in self._ops) + (op,)
                out._backward = _TimedBackward(out._backward, self, bwd_id, owners)
                if self.step_id != SETUP_STEP:
                    self.step_nodes += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace `original` in every patchmil module that binds it."""
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "patchmil" or mod_name.startswith("patchmil.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patcher.patch(module, attr, replacement)

    def install(self) -> None:
        """Wrap the tensor ops, Tensor.backward and the layer functions."""
        from patchmil import backbone, data, mil, pipeline, selfsup
        from patchmil import tensor as T

        modules = {"backbone": backbone, "selfsup": selfsup, "mil": mil,
                   "pipeline": pipeline, "data": data}
        for op in TENSOR_OPS:
            original = vars(T)[op]
            self._patch_everywhere(original, self._op_wrapper(op, original, T.Tensor))
        backward = vars(T.Tensor)["backward"]
        self._patcher.patch(T.Tensor, "backward", self._span_wrapper("tensor.backward", backward))
        for layer, func, _ in LAYER_FUNCTIONS:
            owner = modules[layer]
            *cls_path, attr = func.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self._span_wrapper(f"{layer}.{func}", original, _item_count(layer, func))
            if cls_path:
                self._patcher.patch(owner, attr, wrapped)
            else:
                self._patch_everywhere(original, wrapped)

    def uninstall(self) -> None:
        self.active = False
        self._patcher.restore()


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    covered = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    return dur - covered


def layer_metrics(tracer: Tracer, steps: int, items: int, setup_s: float, loop_s: float) -> dict:
    """Fold the spans into the per-layer metric table of `per_layer_spec`.

    `setup_s` and `loop_s` are the traced wall times of set-up and of the
    timed loop, both without the time spent checking outputs.
    """
    a = tracer.arrays()
    names = tracer.names
    n_names = len(names)
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    calls = np.bincount(a["name"], minlength=n_names)
    total = np.bincount(a["name"], weights=dur, minlength=n_names)
    self_s = np.bincount(a["name"], weights=own, minlength=n_names)

    def by_name(table, name):
        i = tracer._ids.get(name)
        return table[i] if i is not None else 0

    values: dict[str, float] = {}
    for op in REPORTED_OPS:
        values[f"tensor.{op}.calls"] = int(by_name(calls, f"tensor.{op}"))
        values[f"tensor.{op}.fwd_s"] = float(by_name(total, f"tensor.{op}"))
        values[f"tensor.{op}.bwd_s"] = float(tracer.bwd_s.get(op, 0.0))
    other_ops = [op for op in TENSOR_OPS if op not in REPORTED_OPS]
    values["tensor.other.calls"] = int(sum(by_name(calls, f"tensor.{op}") for op in other_ops))
    values["tensor.other.self_s"] = float(sum(
        by_name(self_s, f"tensor.{op}") + by_name(self_s, f"tensor.{op}.bwd") for op in other_ops
    ))
    values["tensor.backward.calls"] = int(by_name(calls, "tensor.backward"))
    # the op closures run inside backward and count as its own time
    values["tensor.backward.self_s"] = float(by_name(total, "tensor.backward"))
    values["tensor.backward.overhead_s"] = float(by_name(self_s, "tensor.backward"))
    values["tensor.nodes.per_step"] = tracer.step_nodes / steps if steps else 0.0

    reported = set()
    for layer, func, stats in LAYER_FUNCTIONS:
        name = f"{layer}.{func}"
        if stats:
            reported.add(name)
        for stat in stats:
            if stat == "calls":
                values[f"{name}.calls"] = int(by_name(calls, name))
            elif stat == "self_s":
                values[f"{name}.self_s"] = float(by_name(self_s, name))
            else:
                values[f"{name}.items"] = int(tracer.items.get(name, 0))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    other_self = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        if layer not in layer_self:  # the benchmark's own spans
            continue
        layer_self[layer] += float(self_s[i])
        if layer != "tensor" and name not in reported:
            other_self[layer] += float(self_s[i])
    for layer in LAYERS[1:]:
        values[f"{layer}.other.self_s"] = other_self[layer]
    for layer in LAYERS:
        values[f"{layer}.layer.self_s"] = layer_self[layer]
    in_layers = sum(layer_self.values())
    wall_s = setup_s + loop_s
    values["bench.glue.self_s"] = wall_s - in_layers
    values["trace.run.wall_s"] = wall_s
    values["trace.run.coverage"] = in_layers / wall_s if wall_s > 0 else 0.0
    values["trace.run.items_per_s"] = items / loop_s if loop_s > 0 else 0.0
    values["trace.run.steps"] = steps
    return values
