"""Span recorder that wraps the library's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and op id.
Spans live in flat arrays while the run lasts and are written out at the end.
Self time is a span's duration minus the durations of its direct children;
calls are nested and single-threaded, so children never overlap.

The wrappers only call through, so the library computes exactly what it
computes unwrapped.  Names imported into other modules' namespaces (for
example ``model.conv2d``) are replaced too, or calls through them would be
missed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs wrapped by the traced run.  "ScanOrder.index_map"
# is a method; the rest are module-level functions.
TARGETS = (
    ("numerics", "conv2d"),
    ("numerics", "residual_block"),
    ("numerics", "pixel_shuffle"),
    ("numerics", "bicubic_upsample"),
    ("numerics", "layer_norm"),
    ("scanorder", "generate_scan"),
    ("scanorder", "window_tiled_order"),
    ("scanorder", "compose_scan_shift_scan"),
    ("scanorder", "ScanOrder.index_map"),
    ("discontinuity", "region_degree"),
    ("discontinuity", "enumerate_regions"),
    ("discontinuity", "elimination"),
    ("discontinuity", "search_procedures"),
    ("trajectory", "generate_tokens"),
    ("trajectory", "initial_trajectories"),
    ("trajectory", "propagate_trajectories"),
    ("trajectory", "block_matching_flow"),
    ("trajectory", "select_tokens"),
    ("ssm", "build_ss3d_sequence"),
    ("ssm", "selective_scan_forward"),
    ("ssm", "scatter_current"),
    ("ssm", "ssm_block"),
    ("model", "window_scans_for_grid"),
    ("model", "tsma_forward"),
    ("model", "untokenize"),
    ("model", "reconstruct"),
    ("model", "ts_mamba_forward"),
)

OP = "op"          # root span of one timed op; its self time is the client's own


def _dims(x):
    return tuple(getattr(x, "data", x).shape)


def _conv2d_attrs(args, kwargs):
    """Weight identity (for stage attribution) and MACs from the call's shapes."""
    cin, h, w = _dims(args[0])
    weights = args[1]
    cout, _, kh, kw = _dims(weights)
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    return id(weights), cout * cin * kh * kw * ho * wo


def _residual_attrs(args, kwargs):
    return id(args[1]), 0


def _scan_attrs(args, kwargs):
    """L * C * N state updates of one selective-scan call."""
    length, channels = _dims(args[1])
    return 0, length * channels * args[0].A.shape[1]


ATTRS = {
    "numerics.conv2d": _conv2d_attrs,
    "numerics.residual_block": _residual_attrs,
    "ssm.selective_scan_forward": _scan_attrs,
}


class SpanRecorder:
    """Flat in-memory span store; ``begin``/``finish`` pairs must nest."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.key = array("q")        # weight identity, 0 when not recorded
        self.work = array("q")       # MACs or state updates, 0 when not recorded
        self._stack = []
        self.op_id = -1

    def name_index(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name_idx, key=0, work=0):
        i = len(self.start)
        self.name_id.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.key.append(key)
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def begin_op(self, op_id):
        """Root span of one timed op; spans until its finish carry op_id."""
        self.op_id = op_id
        return self.begin(self.name_index(OP))

    def finish(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        name_idx = self.name_index(name)
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key, work = attrs(args, kwargs) if attrs else (0, 0)
            i = self.begin(name_idx, key, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        return traced

    def arrays(self):
        """Span table as numpy arrays, with duration and self time added."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {
            "name_id": names, "start": start, "end": end, "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "key": np.frombuffer(self.key, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "dur": dur, "self": dur - child,
        }

    def save(self, path):
        table = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **table)


def install(recorder):
    """Wrap every target everywhere it is bound; returns an undo function."""
    undo = []
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "tsmamba" or n.startswith("tsmamba.")) and m is not None]
    for module_name, attr in TARGETS:
        module = sys.modules[f"tsmamba.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(name, original))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        traced = recorder.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
                    undo.append((m, key, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall
