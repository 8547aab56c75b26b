"""CLI JSON outputs validate against the schema files shipped in the repo.

A minimal JSON-Schema subset validator (type / required / properties /
items / enum / additionalProperties / minItems / maxItems) keeps the test
dependency-free.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tsmamba.cli import main
from tsmamba.numerics import write_pnm, write_tstf

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "tsmamba" / "schemas"

_TYPES = {
    "object": dict, "array": list, "string": str,
    "boolean": bool, "integer": int, "number": (int, float),
}


def validate(instance, schema, path="$"):
    t = schema.get("type")
    if t:
        want = _TYPES[t]
        if isinstance(instance, bool) and t in ("integer", "number"):
            raise AssertionError(f"{path}: bool is not {t}")
        if not isinstance(instance, want):
            raise AssertionError(f"{path}: {type(instance).__name__} is not {t}")
    if "enum" in schema and instance not in schema["enum"]:
        raise AssertionError(f"{path}: {instance!r} not in enum")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                raise AssertionError(f"{path}: missing required {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, value in instance.items():
            if key in props:
                validate(value, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                validate(value, extra, f"{path}.{key}")
    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            raise AssertionError(f"{path}: too few items")
        if "maxItems" in schema and len(instance) > schema["maxItems"]:
            raise AssertionError(f"{path}: too many items")
        item_schema = schema.get("items")
        if isinstance(item_schema, dict):
            for i, value in enumerate(instance):
                validate(value, item_schema, f"{path}[{i}]")


def _schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _check_envelope(text, payload_schema):
    env = json.loads(text)
    validate(env, _schema("envelope"))
    validate(env["payload"], _schema(payload_schema))


def test_schema_files_present():
    names = sorted(p.name for p in SCHEMA_DIR.glob("*.schema.json"))
    assert names == [
        "disc_report.schema.json", "envelope.schema.json",
        "loss_eval.schema.json", "model_count.schema.json",
        "scan_check.schema.json", "scan_order.schema.json",
        "ssm_run.schema.json", "traj_select.schema.json",
    ]


def test_scan_outputs_validate(tmp_path, capsys):
    out = tmp_path / "o.json"
    main(["scan", "gen", "--variant", "scan2", "--size", "8", "--out", str(out)])
    validate(json.loads(out.read_text()), _schema("scan_order"))
    main(["scan", "check", str(out)])
    _check_envelope(capsys.readouterr().out, "scan_check")


def test_disc_analyze_validates(capsys):
    main(["disc", "analyze", "--first", "scan1", "--shift", "UL3",
          "--second", "scan3"])
    _check_envelope(capsys.readouterr().out, "disc_report")


def test_traj_select_validates(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(0)
    for k in range(4):
        write_pnm(frames / f"f{k}.ppm",
                  rng.random((3, 16, 16)).astype(np.float32))
    main(["traj", "select", "--frames", str(frames), "--radius", "0"])
    _check_envelope(capsys.readouterr().out, "traj_select")


def test_ssm_run_validates(tmp_path, capsys):
    inp = tmp_path / "seq.tstf"
    write_tstf(inp, np.zeros((6, 3), dtype=np.float32))
    main(["ssm", "run", "--input", str(inp), "--out", str(tmp_path / "o.tstf")])
    _check_envelope(capsys.readouterr().out, "ssm_run")


def test_model_count_validates(capsys):
    main(["model", "count"])
    _check_envelope(capsys.readouterr().out, "model_count")


def test_loss_eval_validates(tmp_path, capsys):
    p = tmp_path / "a.tstf"
    write_tstf(p, np.zeros((3, 4, 4), dtype=np.float32))
    main(["loss", "eval", "--sr", str(p), "--hr", str(p)])
    _check_envelope(capsys.readouterr().out, "loss_eval")


def test_validator_rejects_bad_instances():
    with pytest.raises(AssertionError):
        validate({"size": "8"}, _schema("scan_check"))
    with pytest.raises(AssertionError):
        validate({"variant": "x", "size": 4, "order": [[0]]},
                 _schema("scan_order"))
