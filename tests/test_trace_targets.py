"""The traced benchmark run wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_trace_targets_resolve():
    targets = _targets()
    assert targets
    missing = []
    for module_name, attr in targets:
        obj = importlib.import_module(f"tsmamba.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"perfbench/spans.py wraps names tsmamba lacks: {missing}"
