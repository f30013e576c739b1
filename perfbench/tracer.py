"""Span tracer that instruments the monopgc package from outside.

`Tracer.install()` replaces every public function of every package module
with a timing wrapper, in every module namespace that holds it (so
`from .data import load_image` in `cli` is wrapped too), plus a few methods:
`MonoPGCModel.forward/loss/decode`, `Adam.step` and `Tensor.backward`.
The numerics kernels are counted and timed per kernel group instead of
being recorded as spans, because one forward pass runs about a thousand of
them. `Tensor._result` is hooked so that every tape node's vjp is timed and
charged to the kernel group and the model stage that created the node.
`uninstall()` puts every replaced attribute back.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory,
up to `SPAN_LIMIT`, and written out by `write_spans()`. Aggregates (calls,
inclusive and self time per span name) are kept for every call, so they
stay complete when the span store is full. Self time is a span's duration
minus the time of its child spans, kernel calls and vjp calls.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from array import array
from collections import defaultdict

# kernel function name in numerics -> reported group
KERNELS = {
    "matmul": "matmul", "conv2d": "conv2d", "add": "add", "mul": "mul",
    "softmax": "softmax", "bilinear_resize": "bilinear_resize",
    "adaptive_avg_pool2d": "adaptive_avg_pool2d", "max_pool2d": "max_pool2d",
    "concat": "concat", "exp": "pointwise", "log": "pointwise", "relu": "pointwise",
    "elu": "pointwise", "sigmoid": "pointwise", "reduce_sum": "reduce",
    "reshape": "shape", "transpose": "shape",
}
KERNEL_GROUPS = tuple(dict.fromkeys(KERNELS.values()))

# tape node op tag (Tensor._op) -> reported group
OP_GROUPS = {("sum" if name == "reduce_sum" else name): group for name, group in KERNELS.items()}

# wrapped function -> model stage; tape nodes made inside carry the stage
STAGES = {
    "dcpm.extract_multiscale_features": "dcpm.backbone",
    "dcpm.pyramid_pool": "dcpm.ppm",
    "dcpm.cross_scale_attention_fuse": "dcpm.fusion",
    "dcpm.predict_depth_distribution": "dcpm.depth_head",
    "dsat.make_positional_encoding": "dsat.pe",
    "geometry.build_normalized_grid": "geometry.grid",
    "dsat.encode_space_positions": "dsat.encoder",
    "dsat.decode_depth_space_aware": "dsat.decoder",
    "head.predict_head_maps": "head.maps",
    "pipeline.MonoPGCModel.loss": "head.loss",
}

METHODS = (
    ("pipeline", "MonoPGCModel", "forward"),
    ("pipeline", "MonoPGCModel", "loss"),
    ("pipeline", "MonoPGCModel", "decode"),
    ("pipeline", "Adam", "step"),
    ("numerics", "Tensor", "backward"),
)

FORWARD = "pipeline.MonoPGCModel.forward"
UNSTAGED = "unstaged"
# spans kept in memory; later ones only count in the aggregates
SPAN_LIMIT = 1_000_000


def _bev_key(box):
    """(x, z, length, width, yaw) of a detection or an evaluation BevBox."""
    if hasattr(box, "bev_box"):
        return tuple(box.bev_box())
    return (box.cx, box.cz, box.length, box.width, box.angle)


def _calib_key(args, kwargs):
    bound = dict(zip(("width", "height", "spec", "stride", "calib", "roi"), args), **kwargs)
    calib = bound["calib"]
    return (bound["width"], bound["height"], bound["stride"], repr(bound["spec"]),
            repr(bound.get("roi")), calib.k_intrinsic.tobytes(), calib.k_extrinsic.tobytes())


class Tracer:
    """Install with `install()`, call `begin_op()` as each measured
    operation starts and `finish()` after the last, then `uninstall()`."""

    def __init__(self, package):
        self.modules = {
            info.name: importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)}
        self._patches = []
        self.installed = False
        # span store
        self.names = []
        self._name_ids = {}
        self.s_name, self.s_parent, self.s_op = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("d"), array("d")
        self.spans_dropped = 0
        # aggregates per span name id: calls, inclusive s, self s
        self.calls, self.total, self.self_time = [], [], []
        self._open = []          # [span index or -1, child seconds]
        self.stage = None
        self._forward_depth = 0
        self.op_id = -1          # spans before the first operation carry -1
        self.ops = 0
        self._op_open = False
        # numerics
        self.kernel_calls = defaultdict(int)
        self.kernel_fwd = defaultdict(float)
        self.vjp_time = defaultdict(float)       # (group, stage) -> s
        self.nodes = 0
        self.forward_nodes = 0
        self.rank1_matmuls = 0
        self.flops = defaultdict(float)
        # useful-work ratios and result counters
        self._grid_keys, self._pair_keys = set(), set()
        self.distinct_grids = self.distinct_pairs = 0
        self.detections = 0
        self.checkpoint_bytes = []

    # -- installation ----------------------------------------------------------

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        numerics = self.modules["numerics"]
        originals = {}
        for mod_name, module in self.modules.items():
            if mod_name == "numerics":
                continue
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    name = f"{mod_name}.{attr}"
                    originals[value] = self._span_wrapper(value, name, STAGES.get(name))
        for attr, group in KERNELS.items():
            fn = getattr(numerics, attr)
            originals[fn] = self._kernel_wrapper(fn, group)
        # replace each original wherever a module holds it
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patch(module, attr, originals[value])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(self.modules[mod_name], cls_name)
            name = f"{mod_name}.{cls_name}.{meth}"
            self._patch(cls, meth, self._span_wrapper(vars(cls)[meth], name, STAGES.get(name)))
        tensor = numerics.Tensor
        self._patch(tensor, "_result", classmethod(self._result_hook(vars(tensor)["_result"].__func__)))
        self.installed = True
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        self.installed = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, target, attr, replacement):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, replacement)

    # -- wrappers ----------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name, stage):
        nid = self._name_id(name)
        observe = {
            "geometry.build_normalized_grid": lambda a, k, r: self._grid_keys.add(_calib_key(a, k)),
            "evaluation.bev_intersection_area":
                lambda a, k, r: self._pair_keys.add((_bev_key(a[0]), _bev_key(a[1]))),
            "head.decode_detections": lambda a, k, r: self._count_detections(len(r)),
            "checkpoint.save_checkpoint": lambda a, k, r: self.checkpoint_bytes.append(r),
        }.get(name)
        is_forward = name == FORWARD
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            prev_stage = tracer.stage
            if stage is not None:
                tracer.stage = stage
            if is_forward:
                tracer._forward_depth += 1
            frame = [tracer._open_span(nid), 0.0]
            tracer._open.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer._open.pop()
                tracer.stage = prev_stage
                if is_forward:
                    tracer._forward_depth -= 1
                tracer._close_span(nid, frame, t0, t1)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open_span(self, nid):
        if len(self.s_name) >= SPAN_LIMIT:
            self.spans_dropped += 1
            return -1
        self.s_name.append(nid)
        self.s_parent.append(self._open[-1][0] if self._open else -1)
        self.s_op.append(self.op_id)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        return len(self.s_name) - 1

    def _close_span(self, nid, frame, t0, t1):
        index, child = frame
        dur = t1 - t0
        if index >= 0:
            self.s_start[index] = t0
            self.s_end[index] = t1
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        if self._open:
            self._open[-1][1] += dur

    def _charge(self, seconds):
        if self._open:
            self._open[-1][1] += seconds

    def _kernel_wrapper(self, fn, group):
        tracer = self
        perf = time.perf_counter

        def kernel(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            dur = perf() - t0
            tracer.kernel_calls[group] += 1
            tracer.kernel_fwd[group] += dur
            tracer._charge(dur)
            if group == "matmul":
                (m, n), inner = out.shape, args[0].shape[1]
                tracer.flops["matmul"] += 2.0 * m * inner * n
                tracer.rank1_matmuls += inner == 1
            elif group == "conv2d":
                in_channels = args[1].shape[1]
                tracer.flops["conv2d"] += 2.0 * in_channels * 9 * out.size  # out is [K, H, W]
            return out

        kernel.__wrapped__ = fn
        return kernel

    def _result_hook(self, make_result):
        tracer = self
        perf = time.perf_counter

        def _result(cls, data, parents, vjp, op):
            out = make_result(cls, data, parents, vjp, op)
            tracer.nodes += 1
            if tracer._forward_depth:
                tracer.forward_nodes += 1
            if out._vjp is not None:
                key = (OP_GROUPS[op], tracer.stage or UNSTAGED)
                inner = out._vjp

                def timed_vjp(g):
                    t0 = perf()
                    grads = inner(g)
                    dur = perf() - t0
                    tracer.vjp_time[key] += dur
                    tracer._charge(dur)
                    return grads

                out._vjp = timed_vjp
            return out

        return _result

    def _count_detections(self, n):
        self.detections += n

    # -- operations ----------------------------------------------------------------

    def begin_op(self):
        """Close the current operation, if any, and open the next one."""
        self.finish()
        self.op_id += 1
        self._op_open = True

    def finish(self):
        """Close the current operation; distinct-work sets are per operation."""
        if self._op_open:
            self.ops += 1
            self.distinct_grids += len(self._grid_keys)
            self.distinct_pairs += len(self._pair_keys)
            self._grid_keys.clear()
            self._pair_keys.clear()
            self._op_open = False

    # -- results -------------------------------------------------------------------

    def span_stats(self, name):
        """(calls, inclusive seconds, self seconds) summed over all calls."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def stage_vjp_seconds(self, stage):
        return sum(t for (_, s), t in self.vjp_time.items() if s == stage)

    def group_vjp_seconds(self, group):
        return sum(t for (g, _), t in self.vjp_time.items() if g == group)

    def write_spans(self, path, run_id):
        """Tab-separated spans, times in ms from the first span's start."""
        origin = self.s_start[0] if len(self.s_start) else 0.0
        with open(path, "w") as out:
            out.write(f"# run {run_id}\nop\tspan\tparent\tname\tstart_ms\tend_ms\n")
            for i in range(len(self.s_name)):
                out.write(f"{self.s_op[i]}\t{i}\t{self.s_parent[i]}\t"
                          f"{self.names[self.s_name[i]]}\t{(self.s_start[i] - origin) * 1e3:.4f}\t"
                          f"{(self.s_end[i] - origin) * 1e3:.4f}\n")
