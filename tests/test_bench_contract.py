"""The benchmark's own checks pass on the library as it is: each workload's
first seeded op verifies against the stored reference, and its canary matches
the stored fingerprint.  perfbench/workloads.py is loaded by path, as the
benchmark runner loads it."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["stream", "keyframe", "disc_search"])
def test_workload_op_and_canary_verify(name):
    wl_module = _workloads()
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
