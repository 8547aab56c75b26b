"""The benchmark's own checks pass on the library as it is: each workload's
first seeded op verifies against the stored reference, and its canary matches
the stored fingerprint.  The perfbench modules are loaded by path, as the
benchmark runner loads them, so a library change that breaks the runner or
its tracer fails here too."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from tsmamba.scanorder import ScanOrder

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["stream", "keyframe", "disc_search"])
def test_workload_op_and_canary_verify(name):
    wl_module = _load("workloads")
    reference = wl_module.load_reference()
    wl = wl_module.WORKLOADS[name]()
    wl.setup()
    client = wl.client()
    inputs = wl.inputs(0)
    for _ in range(wl.warmup):
        client.ingest(next(inputs))
    inp = next(inputs)
    record = wl.verify(client, inp, client.step(inp), reference)
    assert record["error"] is None
    canary = wl.canary(reference)
    assert canary is None or canary["error"] is None


def _bindings():
    """Every name bound in the library's modules, and the one traced method."""
    modules = [m for n, m in sys.modules.items()
               if (n == "tsmamba" or n.startswith("tsmamba.")) and m is not None]
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    out["ScanOrder.index_map"] = ScanOrder.__dict__["index_map"]
    return out


def test_traced_keyframe_op_records_scans_and_changes_nothing():
    spans = _load("spans")
    wl = _load("workloads").WORKLOADS["keyframe"]()
    wl.setup()
    client = wl.client()
    frame = next(wl.inputs(0))
    untraced = client.step(frame)

    before = _bindings()
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        root = recorder.begin_op(0)
        traced = client.step(frame)
        recorder.finish(root)
    finally:
        uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    assert traced.data.tobytes() == untraced.data.tobytes()
    table = recorder.arrays()
    scans = table["name_id"] == recorder.names.index("ssm.selective_scan_forward")
    # one scan per SSM block; each steps L = 64 cells * (s + 1) = 256 positions
    # over 4 windows of 32 channels with state_dim 8
    assert scans.sum() == 6
    assert table["work"][scans].tolist() == [256 * 128 * 8] * 6


def test_traced_keyframe_convs_match_the_modelled_stages(monkeypatch):
    """Every conv of a keyframe op, the tap-plane tail and fusion included,
    runs through the public conv2d under its stage's weights: 36 calls, and
    each conv stage's observed MACs equal count_params_macs' for one pass."""
    monkeypatch.syspath_prepend(str(PERFBENCH))     # layers.py imports spans by name
    spans, layers = _load("spans"), _load("layers")
    wl = _load("workloads").WORKLOADS["keyframe"]()
    wl.setup()
    client = wl.client()
    frame = next(wl.inputs(0))
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        root = recorder.begin_op(0)
        client.step(frame)
        recorder.finish(root)
    finally:
        uninstall()
    metrics, accounting = layers.layer_metrics(recorder, [1.0], wl.stage_keys(), wl.config,
                                               wl.lr_dims)
    assert metrics["numerics.conv2d.calls"] == 36
    conv_stages = [stage for stage, (unit, _) in layers.STAGE_UNITS.items() if unit == "conv"]
    assert {"r.tail", "tsma.fusion"} <= set(conv_stages)
    for stage in conv_stages:
        row = accounting[stage]
        assert row["forward_passes_per_op"] == 1, stage
        assert row["macs_observed_per_op"] == row["macs_modelled_per_op"] > 0, stage


def _traced_call_counts(name, n_ops):
    """Calls of each traced function in each of a workload's first n_ops ops,
    as perfbench/counts.py tallies them."""
    spans = _load("spans")
    wl = _load("workloads").WORKLOADS[name]()
    wl.setup()
    client = wl.client()
    inputs = wl.inputs(0)
    for _ in range(wl.warmup):
        client.ingest(next(inputs))
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        for op in range(n_ops):
            inp = next(inputs)
            root = recorder.begin_op(op)
            client.step(inp)
            recorder.finish(root)
    finally:
        uninstall()
    table = recorder.arrays()
    return [Counter(recorder.names[i] for i in table["name_id"][table["op"] == op]
                    if recorder.names[i] != spans.OP) for op in range(n_ops)]


def test_traced_call_counts_equal_op_to_op():
    """counts.py rejects a run whose ops call the traced functions a different
    number of times; the keyframe op builds its six block scans from six
    window curves, with no scan-shift-scan composition or whole-grid tiling.
    The search op tiles one order per variant and composes no procedure: it
    scores the 4 x 24 x 4 triples from stacked, rolled rank grids."""
    counts = {name: _traced_call_counts(name, 2) for name in ("keyframe", "disc_search")}
    for name, (first, second) in counts.items():
        assert first and first == second, name
    keyframe = counts["keyframe"][0]
    assert keyframe["scanorder.generate_scan"] == 6
    assert keyframe["model.window_scans_for_grid"] == 6
    assert keyframe["scanorder.compose_scan_shift_scan"] == 0
    assert keyframe["scanorder.window_tiled_order"] == 0
    search = counts["disc_search"][0]
    assert search["scanorder.generate_scan"] == 4
    assert search["scanorder.window_tiled_order"] == 4
    assert search["scanorder.compose_scan_shift_scan"] == 0
    assert search["discontinuity.elimination"] == 0
    assert search["discontinuity.search_procedures"] == 1
