import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tsmamba
from tsmamba import scanorder, ssm
from tsmamba.cli import _load_weight_bundle, build_parser, main
from tsmamba.discontinuity import analyze, search_procedures
from tsmamba.model import TsMambaWeights, ts_mamba_forward, weight_table
from tsmamba.numerics import (
    MAX_SCAN_TABLE,
    ModelConfig,
    draw_weights,
    read_pnm,
    read_tstf,
    write_pnm,
    write_tstf,
)
from tsmamba.scanorder import ScanVariant
from tsmamba.trajectory import block_matching_flow, select_along_trajectories, token_centers


def test_unknown_subcommand_exit_2(capsys):
    assert main(["bogus"]) == 2


def test_scan_gen_and_check(tmp_path, capsys):
    out = tmp_path / "order.json"
    svg = tmp_path / "order.svg"
    assert main(["scan", "gen", "--variant", "scan1", "--size", "8",
                 "--out", str(out), "--svg", str(svg)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["order"]) == 64
    assert "<svg" in svg.read_text()
    assert main(["scan", "check", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["bijective"] and payload["continuous"]


def test_scan_gen_bad_variant(capsys):
    assert main(["scan", "gen", "--variant", "scan9", "--size", "8"]) == 2
    assert "error" in capsys.readouterr().err


def test_scan_check_rejects_broken_order(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"variant": "x", "size": 2,
                             "order": [[0, 0], [0, 0], [1, 0], [1, 1]]}))
    assert main(["scan", "check", str(p)]) == 1


@pytest.mark.parametrize("doc", [
    {"size": 3000, "order": []},
    {"size": 0, "order": []},
    {"size": -2, "order": [[0, 0], [0, 1], [1, 0], [1, 1]]},
], ids=["large_empty", "zero", "negative"])
def test_scan_check_short_order_allocates_by_input(tmp_path, capsys, doc):
    """A non-positive size, or an order whose length is not size*size, is
    rejected before the rank grid is built, so memory follows the document,
    not the size it claims."""
    p = tmp_path / "short.json"
    p.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = main(["scan", "check", str(p)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert not json.loads(capsys.readouterr().out)["payload"]["bijective"]
    assert peak < 1 << 20


@pytest.mark.parametrize("doc", [
    {"variant": "x", "size": 2, "order": [[0, 0], [0, 1], [1, 0], [1.5, 1]]},
    {"size": 2, "order": [1, 2]},                 # cells that are not pairs
    {"size": 1, "order": [[0, 0, 0]]},
    {"size": 1, "order": [[0, True]]},
    {"size": 1.0, "order": [[0, 0]]},
    {"order": [[0, 0]]},                          # size missing
    {"size": 1},                                  # order missing
    {"size": 1, "order": {"0": [0, 0]}},
    {"size": 1, "order": [[0, 0]], "variant": 3},
    [1, 2],                                       # not an object
    {"size": 2, "order": [[0, 0], [0, 1], [1, 0], [10**20, 1]]},   # beyond int64
], ids=["float_cell", "int_cells", "triple", "bool", "float_size", "no_size",
        "no_order", "order_object", "variant_int", "list", "huge_cell"])
def test_scan_check_rejects_non_integer_cells(tmp_path, capsys, doc):
    """A malformed scan document exits 2 with a message, never a traceback."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["scan", "check", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_disc_analyze_payload(tmp_path, capsys):
    svg = tmp_path / "disc.svg"
    assert main(["disc", "analyze", "--first", "scan1", "--shift", "U1",
                 "--second", "scan3", "--grid", "8", "--window", "4",
                 "--svg", str(svg)]) == 0
    env = json.loads(capsys.readouterr().out)
    p = env["payload"]
    assert p["delta"] == p["delta_intra"] + p["delta_inter"]
    assert len(p["regions"]) == 49
    assert "<svg" in svg.read_text()


def test_disc_analyze_envelope_deterministic(capsys):
    main(["disc", "analyze", "--first", "scan1", "--shift", "U1",
          "--second", "scan3"])
    a = capsys.readouterr().out
    main(["disc", "analyze", "--first", "scan1", "--shift", "U1",
          "--second", "scan3"])
    b = capsys.readouterr().out
    assert a == b


def test_disc_analyze_shift_beyond_int64(capsys):
    """A shift is cyclic, so U(10^20 - 1) on an 8-grid is D1, as in the search."""
    shift = "U99999999999999999999"
    assert main(["disc", "analyze", "--first", "scan1", "--shift", shift,
                 "--second", "scan3", "--grid", "8", "--window", "4"]) == 0
    regions = json.loads(capsys.readouterr().out)["payload"]["regions"]
    got = {key: np.array([g[key] for g in regions]).reshape(7, 7)
           for key in ("d_first", "d_second")}
    d1 = analyze(ScanVariant.Scan1, "D1", ScanVariant.Scan3, 8, 4)
    (row,) = [rep for first, _, second, rep
              in search_procedures(8, 4, shifts=[shift],
                                   variants=[ScanVariant.Scan1, ScanVariant.Scan3])
              if (first, second) == (ScanVariant.Scan1, ScanVariant.Scan3)]
    for rep in (d1, row):
        assert np.array_equal(got["d_first"], rep.d_first)
        assert np.array_equal(got["d_second"], rep.d_second)


def test_disc_analyze_shift_too_many_digits_exit_2(capsys):
    """A 5,000-digit shift count exits 2 with the parser's own message, not
    Python's int-conversion limit."""
    assert main(["disc", "analyze", "--first", "scan1", "--shift", "U" + "9" * 5000,
                 "--second", "scan3", "--grid", "8", "--window", "4"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized shift spec" in err and "Exceeds the limit" not in err


def test_disc_search_csv(tmp_path):
    out = tmp_path / "search.csv"
    assert main(["disc", "search", "--grid", "8", "--window", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "first,shift,second,delta_intra,delta_inter,delta"
    assert len(lines) == 1 + 4 * 24 * 4


@pytest.mark.parametrize("argv", [
    ["disc", "search", "--window", "0"],
    ["disc", "analyze", "--first", "scan1", "--shift", "U1", "--second", "scan3",
     "--window", "0"],
    ["disc", "search", "--grid", "0"],
])
def test_disc_bad_partition_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


# one model setting per config file, each far above its bound
OVERSIZED_CONFIG = {"temporal_window": 10**15, "token_size": 1024, "n2_res_blocks": 10**8,
                    "state_dim": 10**11, "window_size": 512}

# settings each inside its own bound whose S6 tables are not: 512 MiB of
# [L, C, N] float64 per table at a window of 256
OVERSIZED_TABLES = {"window256": {"window_size": 256},
                    "window256_state64": {"window_size": 256, "state_dim": 64}}

# the sizes that once reached numpy's allocator: 1 PiB in the search's intra
# mask and the analysis's tiler, 2.18 TiB in grad check's input, a Hilbert
# curve doubled until memory runs out, the model's trajectories, projection,
# residual blocks and S6 parameters (2.4 GB of them at window 512), block
# matching's padded frames, and the S6 tables.  "{tmp}" is the test's
# directory: "one" holds one 16x16 frame, "two" two, "seq.tstf" an ssm input,
# "<setting>.json" one oversized config each, and "<name>.json" each
# OVERSIZED_TABLES config
OVERSIZED = [
    ["disc", "search", "--grid", "33554432", "--window", "4"],
    ["disc", "analyze", "--first", "scan1", "--shift", "U1", "--second", "scan3",
     "--grid", "33554432", "--window", "4"],
    ["grad", "check", "--length", "100000000000"],
    ["scan", "gen", "--variant", "scan1", "--size", str(2**50)],
    *(["model", "forward", "--frames", "{tmp}/one", "--config", "{tmp}/" + f"{key}.json",
       "--out", "{tmp}/sr.tstf"] for key in OVERSIZED_CONFIG),
    ["traj", "select", "--frames", "{tmp}/two", "--radius", "3000"],
    ["ssm", "run", "--input", "{tmp}/seq.tstf", "--state-dim", "100000000000",
     "--out", "{tmp}/y.tstf"],
    *(["model", "forward", "--frames", "{tmp}/one", "--config", "{tmp}/" + f"{name}.json",
       "--out", "{tmp}/sr.tstf"] for name in OVERSIZED_TABLES),
]

# the child caps its own address space first, so a size that escapes its
# check fails here with a MemoryError instead of filling the machine
_CAPPED_MAIN = """
import resource
import sys
cap = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from tsmamba.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", OVERSIZED)
def test_oversized_sizes_exit_2_under_a_memory_cap(argv, tmp_path):
    for name, n in (("one", 1), ("two", 2)):
        (tmp_path / name).mkdir()
        _write_frames(tmp_path / name, n=n, size=16)
    for key, value in OVERSIZED_CONFIG.items():
        (tmp_path / f"{key}.json").write_text(json.dumps({key: value}))
    for name, config in OVERSIZED_TABLES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    write_tstf(tmp_path / "seq.tstf", np.ones((4, 2), dtype=np.float32))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    src = str(Path(tsmamba.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def test_grid_sizes_bounded_at_max_grid_size(tmp_path, capsys):
    top = scanorder.MAX_GRID_SIZE
    out = tmp_path / "scan.json"
    assert main(["scan", "gen", "--variant", "scan2", "--size", str(top),
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["order"]) == top * top
    assert main(["disc", "analyze", "--first", "scan1", "--shift", "U1", "--second",
                 "scan3", "--grid", str(top), "--window", "4", "--out",
                 str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    for argv in (["scan", "gen", "--variant", "scan1", "--size", str(2 * top)],
                 ["disc", "search", "--grid", str(top + 4), "--window", "4"],
                 ["disc", "analyze", "--first", "scan1", "--shift", "U1", "--second",
                  "scan3", "--grid", str(top + 4), "--window", "4"]):
        assert main(argv) == 2
        assert f"at most {top}" in capsys.readouterr().err


def test_readme_limits_equal_the_module_constants():
    """Every `module.NAME` = value limit that README.md states is that
    tsmamba module's constant, so a stated limit cannot go stale, and every
    MAX_ constant of the package is stated."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s*=\s*(\d+)", readme)
    for module, name, value in stated:
        assert getattr(importlib.import_module(f"tsmamba.{module}"), name) == int(value), name
    limits = {name for module in pkgutil.iter_modules(tsmamba.__path__)
              for name in vars(importlib.import_module(f"tsmamba.{module.name}"))
              if name.startswith("MAX_")}
    assert {name for _, name, _ in stated} == limits


def test_gradient_check_size_bound():
    # 2 * 682 * (2 + 1) + 2 * (1 + 1) is exactly the bound
    assert ssm.MAX_GRADIENT_CHECK_VALUES == 2 * 682 * 3 + 4
    ssm.check_gradient_check_size(682, 2, 1)
    with pytest.raises(ValueError, match="perturbs 4102 values"):
        ssm.check_gradient_check_size(683, 2, 1)
    rng = np.random.default_rng(0)
    params = ssm.SelectiveScanParams.init(2, 1, 683, rng)
    with pytest.raises(ValueError, match="more than"):
        ssm.gradient_check(params, np.zeros((683, 2)), rng)


def _write_frames(directory, n=3, size=16, seed=0):
    rng = np.random.default_rng(seed)
    for k in range(n):
        frame = rng.random((3, size, size)).astype(np.float32)
        write_pnm(directory / f"frame_{k:03d}.ppm", frame)


def test_traj_select(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=4)
    out = tmp_path / "sel.json"
    toks = tmp_path / "sel.tstf"
    assert main(["traj", "select", "--frames", str(frames), "--radius", "0",
                 "--out", str(out), "--tokens-out", str(toks)]) == 0
    env = json.loads(out.read_text())
    idx = np.array(env["payload"]["indices"])
    assert idx.shape == (16, 3)
    assert read_tstf(toks).shape[1:] == (3, 32)


def test_traj_select_zero_flows_match_radius_0(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=3)
    flows = tmp_path / "flows"
    flows.mkdir()
    for k in (1, 2):
        write_tstf(flows / f"flow_{k:04d}.tstf", np.zeros((2, 16, 16)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["traj", "select", "--frames", str(frames), "--radius", "0",
                 "--out", str(a)]) == 0
    assert main(["traj", "select", "--frames", str(frames), "--flows", str(flows),
                 "--out", str(b)]) == 0
    env_a, env_b = json.loads(a.read_text()), json.loads(b.read_text())
    assert env_a["payload"] == env_b["payload"]
    assert str(flows / "flow_0002.tstf") in env_b["inputs"]
    (flows / "flow_0002.tstf").unlink()
    assert main(["traj", "select", "--frames", str(frames), "--flows", str(flows),
                 "--out", str(b)]) == 2


def test_traj_select_reads_only_the_last_t_plus_1_frames(tmp_path):
    """Trajectories reach T = 15 frames back: T + 3 frames give the payload of
    their last T + 1, block matching runs T times, and the envelope lists
    only the frames and flows that were read; the two oldest frames and
    flows are not even valid files."""
    t = ModelConfig().temporal_window
    rng = np.random.default_rng(5)
    whole, last, flows, last_flows = (tmp_path / d for d in ("whole", "last", "flows", "lf"))
    for d in (whole, last, flows, last_flows):
        d.mkdir()
    for k in range(t + 3):
        frame = rng.random((3, 8, 8)).astype(np.float32)
        write_tstf(whole / f"frame_{k:03d}.tstf", frame)
        flow = np.rint(rng.uniform(-2, 2, (2, 8, 8)))
        write_tstf(flows / f"flow_{k:04d}.tstf", flow)
        if k >= 2:
            write_tstf(last / f"frame_{k:03d}.tstf", frame)
        if k >= 3:
            write_tstf(last_flows / f"flow_{k - 2:04d}.tstf", flow)
    for k in range(2):
        (whole / f"frame_{k:03d}.tstf").write_bytes(b"TSTF")
        (flows / f"flow_{k:04d}.tstf").write_bytes(b"TSTF")
    runs = {}
    for name, frames, motion in (("bm", whole, ["--radius", "1"]),
                                 ("bm_last", last, ["--radius", "1"]),
                                 ("flows", whole, ["--flows", str(flows)]),
                                 ("flows_last", last, ["--flows", str(last_flows)])):
        out = tmp_path / f"{name}.json"
        with mock.patch("tsmamba.cli.block_matching_flow", wraps=block_matching_flow) as bm:
            assert main(["traj", "select", "--frames", str(frames), "--out", str(out)]
                        + motion) == 0
        assert bm.call_count == (t if "bm" in name else 0)
        runs[name] = json.loads(out.read_text())
    assert runs["bm"]["payload"] == runs["bm_last"]["payload"]
    assert runs["flows"]["payload"] == runs["flows_last"]["payload"]
    frame_paths = [str(whole / f"frame_{k:03d}.tstf") for k in range(2, t + 3)]
    assert sorted(runs["bm"]["inputs"]) == frame_paths
    assert sorted(runs["flows"]["inputs"]) == sorted(
        frame_paths + [str(flows / f"flow_{k:04d}.tstf") for k in range(3, t + 3)])


def test_model_forward_reads_only_the_last_t_plus_1_frames(tmp_path):
    """model forward reads frames through the same loader: an unreadable
    frame older than the last T + 1 is never opened."""
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=5, size=8)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channels": 4, "state_dim": 2, "temporal_window": 3,
                               "s_selected": 1, "n1_res_blocks": 1, "n2_res_blocks": 1}))
    args = ["model", "forward", "--frames", str(frames), "--config", str(cfg), "--out"]
    assert main(args + [str(tmp_path / "a.tstf")]) == 0
    (frames / "frame_000.ppm").write_bytes(b"P6\n")
    assert main(args + [str(tmp_path / "b.tstf")]) == 0
    assert (tmp_path / "a.tstf").read_bytes() == (tmp_path / "b.tstf").read_bytes()
    (frames / "frame_001.ppm").write_bytes(b"P6\n")
    assert main(args + [str(tmp_path / "c.tstf")]) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_traj_select_non_finite_flow_exit_2(tmp_path, capsys, bad):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=2, size=8)
    flows = tmp_path / "flows"
    flows.mkdir()
    flow = np.zeros((2, 8, 8))
    flow[0, 2, 2] = bad
    write_tstf(flows / "flow_0001.tstf", flow)
    out = tmp_path / "sel.json"
    assert main(["traj", "select", "--frames", str(frames), "--flows", str(flows),
                 "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("s,code", [("-1", 2), ("0", 0), ("14", 0), ("15", 2)])
def test_traj_select_s_must_fit_config(tmp_path, capsys, s, code):
    """s_selected is checked when its ModelConfig is created: 0 <= s <= T - 1
    (T = 15)."""
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=2, size=8)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_selected": int(s)}))
    out = tmp_path / "sel.json"
    assert main(["traj", "select", "--frames", str(frames), "--radius", "0",
                 "--config", str(cfg), "--out", str(out)]) == code
    if code == 0:
        idx = np.array(json.loads(out.read_text())["payload"]["indices"])
        assert idx.shape == (4, int(s))
    else:
        assert "s_selected" in capsys.readouterr().err


def test_traj_select_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["traj", "select", "--frames", str(empty)]) == 2


def test_ssm_run_round_trip(tmp_path, capsys):
    seq = np.random.default_rng(1).normal(0, 1, (12, 4)).astype(np.float32)
    inp = tmp_path / "seq.tstf"
    out = tmp_path / "out.tstf"
    write_tstf(inp, seq)
    assert main(["ssm", "run", "--input", str(inp), "--out", str(out),
                 "--state-dim", "4", "--seed", "0"]) == 0
    y = read_tstf(out)
    assert y.shape == (12, 4)
    assert np.all(np.isfinite(y))


def _s6_bundle_case(tmp_path, L=10, C=3, N=4):
    """An [L, C] input, an S6 pack drawn at state dim N, and the
    (bundle, manifest) of its A, D, dt, B and C rows."""
    rng = np.random.default_rng(3)
    write_tstf(tmp_path / "seq.tstf", rng.normal(0, 1, (L, C)).astype(np.float32))
    params = ssm.SelectiveScanParams.init(C, N, L, rng)
    bundle = tmp_path / "s6"
    return params, bundle, _write_bundle(bundle, vars(params))


def test_ssm_run_weight_bundle(tmp_path, capsys):
    """--weights reads the rows of SelectiveScanParams.table, at L and C of
    the input and N = --state-dim, from a bundle of float32 files; it draws
    nothing, and the report lists the manifest and every row file."""
    params, bundle, manifest = _s6_bundle_case(tmp_path)
    inp, out = tmp_path / "seq.tstf", tmp_path / "out.tstf"
    with mock.patch("numpy.random.default_rng", side_effect=RuntimeError("RNG constructed")):
        assert main(["ssm", "run", "--input", str(inp), "--weights", str(bundle),
                     "--state-dim", "4", "--out", str(out)]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["payload"] == {"length": 10, "channels": 3, "state_dim": 4}
    assert set(env["inputs"]) == {str(inp), str(bundle / "manifest.json"),
                                  *(str(bundle / path) for path in manifest.values())}
    rounded = ssm.SelectiveScanParams(**{
        name: value.astype(np.float32).astype(np.float64) for name, value in vars(params).items()})
    want = ssm.selective_scan_forward(rounded, read_tstf(inp))
    assert np.array_equal(read_tstf(out), want)


@pytest.mark.parametrize("defect,named", [
    ("missing", "lacks layers: dt"), ("extra", "unknown layers: E"), ("shape", "layer B"),
    ("nan", "C.tstf holds non-finite"), ("state_dim", "layer A"),
])
def test_ssm_run_bad_weight_bundle(tmp_path, capsys, defect, named):
    """A bundle that lacks a row, holds an unknown one, has a row of the
    wrong shape (also one written at another --state-dim) or a non-finite
    value exits 2 naming the row, and writes no output."""
    _, bundle, manifest = _s6_bundle_case(tmp_path)
    state_dim = "5" if defect == "state_dim" else "4"
    if defect == "missing":
        del manifest["dt"]
    elif defect == "extra":
        manifest["E"] = manifest["D"]
    elif defect == "shape":
        write_tstf(bundle / manifest["B"], np.zeros((11, 4)))
    elif defect == "nan":
        write_tstf(bundle / manifest["C"], np.full((10, 4), np.nan))
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out.tstf"
    assert main(["ssm", "run", "--input", str(tmp_path / "seq.tstf"), "--weights", str(bundle),
                 "--state-dim", state_dim, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


def test_ssm_run_bounded_by_the_scan_table(tmp_path, capsys):
    """L * C * N is bounded as in the model's S6 blocks, before any
    parameter is drawn: a [1025, 64] input at state dim 64 exits 2."""
    inp, out = tmp_path / "seq.tstf", tmp_path / "out.tstf"
    write_tstf(inp, np.zeros((1025, 64), dtype=np.float32))
    with mock.patch("tsmamba.cli.draw_weights", side_effect=RuntimeError("drawn")):
        assert main(["ssm", "run", "--input", str(inp), "--state-dim", "64",
                     "--out", str(out)]) == 2
    assert f"must be at most {MAX_SCAN_TABLE}" in capsys.readouterr().err
    assert not out.exists()


def test_ssm_run_rejects_bad_rank(tmp_path):
    inp = tmp_path / "bad.tstf"
    for dims in ((2, 3, 4), (4, 0), (0, 3)):     # wrong rank, or an empty axis
        write_tstf(inp, np.zeros(dims, dtype=np.float32))
        assert main(["ssm", "run", "--input", str(inp),
                     "--out", str(inp) + ".o"]) == 2


def test_ssm_run_truncated_tstf_header_exits_2(tmp_path, capsys):
    inp = tmp_path / "short.tstf"
    write_tstf(inp, np.zeros((4, 2), dtype=np.float32))
    inp.write_bytes(inp.read_bytes()[:10])        # magic, version, dtype, ndim
    assert main(["ssm", "run", "--input", str(inp), "--out", str(inp) + ".o"]) == 2
    assert "truncated header" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ssm", "run", "--state-dim", "0"], ["ssm", "run", "--state-dim", "-1"],
    ["grad", "check", "--channels", "0"], ["grad", "check", "--state-dim", "0"],
    ["grad", "check", "--length", "0"],
])
def test_ssm_commands_reject_empty_sizes(argv, tmp_path, capsys):
    if argv[0] == "ssm":
        inp = tmp_path / "seq.tstf"
        write_tstf(inp, np.zeros((4, 2), dtype=np.float32))
        argv = argv + ["--input", str(inp), "--out", str(tmp_path / "out.tstf")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be positive" in captured.err


def test_grad_check_passes(capsys):
    assert main(["grad", "check", "--length", "6", "--channels", "2",
                 "--state-dim", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_model_count(tmp_path, capsys):
    """The counts at 180x320, and the report's bytes, at the default width
    and at the calibrated C = 87 of a --config file.  The default report's
    bytes are pinned as printed; the C = 87 report lists the config file's
    digest besides, so its bytes are pinned with that listing emptied."""
    assert main(["model", "count"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)["payload"]
    assert (payload["params"], payload["macs"]) == (464_675, 28_215_336_960)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "5db8a661f4d0215fc616dec3e494f0786c6ed05aedf6c7d514dd4dd9722c3cfe"
    cfg = tmp_path / "c87.json"
    cfg.write_text(json.dumps({"channels": 87}))
    assert main(["model", "count", "--config", str(cfg)]) == 0
    env = json.loads(capsys.readouterr().out)
    assert (env["payload"]["params"], env["payload"]["macs"]) == (3_025_035, 203_941_683_360)
    assert env["inputs"] == {str(cfg): hashlib.sha256(cfg.read_bytes()).hexdigest()}
    bare = json.dumps(dict(env, inputs={}), separators=(",", ":"), sort_keys=True)
    assert hashlib.sha256((bare + "\n").encode()).hexdigest() == \
        "67ed25967484b8e12b12ddb8937c3d58a723fe989c892f8a1c1ca1f6ee351167"


@pytest.mark.parametrize("argv", [
    ["--config", '{"channels": 0}'], ["--config", '{"channels": -3}'],
    ["--height", "0"], ["--height", "-8"], ["--width", "0"],
    ["--height", "10", "--width", "13"], ["--height", "1", "--width", "1"],
    ["--height", "10"],
])
def test_model_count_rejects_bad_sizes(argv, tmp_path, capsys):
    """A width below 1 in the --config file (written from the JSON given
    here) or a frame size the forward pass cannot run exits 2."""
    if argv[0] == "--config":
        (tmp_path / "cfg.json").write_text(argv[1])
        argv = ["--config", str(tmp_path / "cfg.json")]
    assert main(["model", "count", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_model_forward_toy(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=2, size=16)
    out = tmp_path / "sr.tstf"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channels": 6, "state_dim": 4}))
    assert main(["model", "forward", "--frames", str(frames),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert read_tstf(out).shape == (3, 64, 64)


def test_model_forward_frame_size_not_a_window_multiple(tmp_path):
    # 36x52 frames give a 9x13 token grid, which TSMA pads to 16x16
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(3)
    for k in range(2):
        write_pnm(frames / f"frame_{k:03d}.ppm",
                  rng.random((3, 36, 52)).astype(np.float32))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channels": 4, "state_dim": 2, "n2_res_blocks": 1}))
    out = tmp_path / "sr.tstf"
    assert main(["model", "forward", "--frames", str(frames),
                 "--config", str(cfg), "--out", str(out)]) == 0
    sr = read_tstf(out)
    assert sr.shape == (3, 144, 208)
    assert np.all(np.isfinite(sr))


def test_model_forward_bad_config_key(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=1, size=16)
    cfg = tmp_path / "cfg.json"
    for bad in ({"nope": 1}, {"channels": "8"}, {"channels": 8.0},
                {"channels": True}, {"channels": None}, {"channels": 0},
                [1, 2], "channels"):
        cfg.write_text(json.dumps(bad))
        assert main(["model", "forward", "--frames", str(frames),
                     "--config", str(cfg), "--out", str(frames / "x.tstf")]) == 2, bad


@pytest.mark.parametrize("bad,named", [
    ({"validate": 1}, "validate"),       # a method, not a setting
    ({"scale": 2}, "scale"),             # fixed at 4 by R's two x2 stages
    ({"window_size": 6}, "window_size"),
])
def test_model_forward_config_takes_only_settings(tmp_path, capsys, bad, named):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=1, size=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    assert main(["model", "forward", "--frames", str(frames),
                 "--config", str(cfg), "--out", str(tmp_path / "sr.tstf")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert not (tmp_path / "sr.tstf").exists()


def _drawn(config, seed=0):
    """The weight_table map of TsMambaWeights.random(config, seed)."""
    return draw_weights(weight_table(config), np.random.default_rng(seed))


def _write_bundle(directory, layers):
    """One TSTF file per array of a name -> array map, listed in
    manifest.json."""
    directory.mkdir()
    manifest = {}
    for name, arr in layers.items():
        manifest[name] = f"{name}.tstf"
        write_tstf(directory / manifest[name], arr)
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def test_weight_bundle_rows_stay_float32(tmp_path):
    """The loader keeps each row as the float32 array its file holds, and
    the model built over the rows holds those arrays."""
    config = ModelConfig(**FUZZ_CONFIG)
    table = weight_table(config)
    _write_bundle(tmp_path / "bundle", _drawn(config, seed=5))
    layers, _ = _load_weight_bundle(str(tmp_path / "bundle"), table.keys(), table)
    assert list(layers) == list(table)
    for name, array in layers.items():
        assert array.dtype == np.float32
        assert array.tobytes() == read_tstf(tmp_path / "bundle" / f"{name}.tstf").tobytes()
    assert TsMambaWeights.from_map(layers).r.tail_w is layers["r.tail_w"]


def test_model_forward_weight_bundle(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=2, size=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channels": 6, "state_dim": 4, "n2_res_blocks": 2}))
    config = ModelConfig(channels=6, state_dim=4, n2_res_blocks=2)
    layers = _drawn(config, seed=5)
    _write_bundle(tmp_path / "bundle", layers)
    out = tmp_path / "sr.tstf"
    # loading draws nothing: the bundle is the whole model
    with mock.patch("numpy.random.default_rng", side_effect=RuntimeError("RNG constructed")):
        assert main(["model", "forward", "--frames", str(frames), "--config", str(cfg),
                     "--weights", str(tmp_path / "bundle"), "--out", str(out)]) == 0

    # the bundle holds float32 copies, which the loader keeps as read: the SR
    # is that of the float64 model of the rounded values
    for arr in layers.values():
        arr[...] = arr.astype(np.float32)
    clip = [read_pnm(p) for p in sorted(frames.iterdir())]
    want = ts_mamba_forward(clip, [block_matching_flow(clip[1], clip[0], 2)],
                            TsMambaWeights.from_map(layers), config)
    assert np.array_equal(read_tstf(out), want.data)


@pytest.mark.parametrize("defect", ["missing", "shape", "non_string", "not_object", "nan",
                                    "inf", "extra"])
def test_model_forward_bad_weight_bundle(tmp_path, capsys, defect):
    """Exit 2, naming the layer at fault, and no SR file."""
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=1, size=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channels": 6, "state_dim": 4, "n2_res_blocks": 2}))
    config = ModelConfig(channels=6, state_dim=4, n2_res_blocks=2)
    bundle = tmp_path / "bundle"
    manifest = _write_bundle(bundle, _drawn(config, seed=5))
    if defect == "missing":
        del manifest["r.res1.b2"]
    elif defect == "shape":
        write_tstf(bundle / manifest["tsma.fusion_w"], np.zeros((6, 6, 1, 1)))
    elif defect == "non_string":
        manifest["g.conv_b"] = 3
    elif defect == "nan":
        write_tstf(bundle / manifest["r.tail_w"], np.full((3, 6, 3, 3), np.nan))
    elif defect == "inf":
        write_tstf(bundle / manifest["r.tail_b"], np.array([0.0, np.inf, 0.0]))
    elif defect == "extra":        # a layer of a bundle written at n2_res_blocks=3
        manifest["r.res2.w1"] = manifest["r.res1.w1"]
    else:
        manifest = list(manifest.values())
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    assert main(["model", "forward", "--frames", str(frames), "--config", str(cfg),
                 "--weights", str(bundle), "--out", str(tmp_path / "sr.tstf")]) == 2
    named = {"missing": "r.res1.b2", "shape": "tsma.fusion_w", "non_string": "g.conv_b",
             "not_object": "JSON object", "nan": "r.tail_w", "inf": "r.tail_b",
             "extra": "r.res2.w1"}[defect]
    assert named in capsys.readouterr().err
    assert not (tmp_path / "sr.tstf").exists()


@pytest.mark.parametrize("command", ["traj select", "model forward"])
def test_non_finite_frame_exits_2(tmp_path, capsys, command):
    frames = tmp_path / "frames"
    frames.mkdir()
    frame = np.random.default_rng(0).random((3, 16, 16)).astype(np.float32)
    write_tstf(frames / "frame_000.tstf", frame)
    frame[1, 2, 3] = np.nan
    write_tstf(frames / "frame_001.tstf", frame)
    out = tmp_path / ("sel.json" if command == "traj select" else "sr.tstf")
    assert main([*command.split(), "--frames", str(frames), "--out", str(out)]) == 2
    assert "frame_001.tstf holds non-finite values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ssm run", "loss eval"])
def test_non_finite_array_input_exits_2(tmp_path, capsys, command):
    """A NaN in the ssm run input, or in the loss eval LR trajectory stack,
    exits 2 naming the file, and no --out file is written."""
    bad = tmp_path / "bad.tstf"
    out = tmp_path / ("y.tstf" if command == "ssm run" else "loss.json")
    if command == "ssm run":
        seq = np.ones((4, 2))
        seq[1, 1] = np.nan
        write_tstf(bad, seq)
        argv = ["ssm", "run", "--input", str(bad)]
    else:
        lr_coords, hr_coords = _trajectory_stacks()
        lr_coords[0, 0, 0] = np.nan
        write_tstf(bad, lr_coords)
        write_tstf(tmp_path / "hr.tstf", hr_coords)
        write_tstf(tmp_path / "sr.tstf", np.zeros((3, 32, 128)))
        argv = ["loss", "eval", "--sr", str(tmp_path / "sr.tstf"), "--hr",
                str(tmp_path / "sr.tstf"), "--lr-traj", str(bad), "--hr-traj",
                str(tmp_path / "hr.tstf")]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad} holds non-finite values" in err
    assert not out.exists()


def _write_panned_frames(directory, n=4, size=16, step=2):
    """n frames of one random texture, each moved step pixels down and right
    from the last."""
    directory.mkdir()
    pad = n * step
    texture = np.random.default_rng(7).random((3, size + pad, size + pad)).astype(np.float32)
    for k in range(n):
        at = pad - k * step
        write_pnm(directory / f"frame_{k:03d}.ppm", texture[:, at:at + size, at:at + size])


def test_model_forward_runs_on_the_clip_motion(tmp_path):
    """model forward is ts_mamba_forward on the flows of its inputs: the
    --flows files, block matching at --radius (2 by default), and at radius
    0 zero flows, whose SR is the motion-less one (flows=None).  Motion
    found at the default radius moves the SR."""
    frames, flows = tmp_path / "frames", tmp_path / "flows"
    _write_panned_frames(frames)
    flows.mkdir()
    rng = np.random.default_rng(2)
    for k in (1, 2, 3):
        write_tstf(flows / f"flow_{k:04d}.tstf", np.rint(rng.uniform(-2, 2, (2, 16, 16))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FUZZ_CONFIG))
    config = ModelConfig(**FUZZ_CONFIG)
    weights = TsMambaWeights.random(config, seed=0)
    clip = [read_pnm(p) for p in sorted(frames.iterdir())]
    cases = {
        "flows": (["--flows", str(flows)], [read_tstf(p) for p in sorted(flows.iterdir())]),
        **{f"radius{r}": (motion, [block_matching_flow(clip[k], clip[k - 1], r)
                                   for k in (1, 2, 3)])
           for r, motion in ((1, ["--radius", "1"]), (2, []))},
        "radius0": (["--radius", "0"], None),
    }
    sr = {}
    for name, (motion, clip_flows) in cases.items():
        out = tmp_path / f"{name}.tstf"
        assert main(["model", "forward", "--frames", str(frames), "--config", str(cfg),
                     "--out", str(out)] + motion) == 0
        sr[name] = read_tstf(out)
        assert np.array_equal(sr[name], ts_mamba_forward(clip, clip_flows, weights, config).data)
    assert not np.array_equal(sr["radius2"], sr["radius0"])


def test_traj_select_weight_bundle_gives_the_selection_under_its_g(tmp_path):
    """traj select with --weights selects with the bundle's G and draws
    nothing."""
    frames = tmp_path / "frames"
    _write_panned_frames(frames)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FUZZ_CONFIG))
    config = ModelConfig(**FUZZ_CONFIG)
    layers = _drawn(config, seed=5)
    _write_bundle(tmp_path / "bundle", layers)
    out, toks = tmp_path / "sel.json", tmp_path / "sel.tstf"
    with mock.patch("numpy.random.default_rng", side_effect=RuntimeError("RNG constructed")):
        assert main(["traj", "select", "--frames", str(frames), "--config", str(cfg),
                     "--weights", str(tmp_path / "bundle"), "--radius", "1",
                     "--out", str(out), "--tokens-out", str(toks)]) == 0
    for arr in layers.values():
        arr[...] = arr.astype(np.float32)
    clip = [read_pnm(p) for p in sorted(frames.iterdir())]
    _, sel = select_along_trajectories(
        clip, [block_matching_flow(clip[k], clip[k - 1], 1) for k in (1, 2, 3)],
        TsMambaWeights.from_map(layers).g, config)
    assert json.loads(out.read_text())["payload"]["indices"] == sel.indices.tolist()
    assert np.array_equal(read_tstf(toks), sel.selected)


def test_traj_select_reads_and_draws_g_alone(tmp_path):
    """traj select draws only G's rows, which come first in the table, so
    --seed selects under the seeded model's G; from a bundle it reads only
    G's layer files, where model forward needs them all."""
    frames = tmp_path / "frames"
    _write_panned_frames(frames)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FUZZ_CONFIG))
    config = ModelConfig(**FUZZ_CONFIG)
    out = tmp_path / "sel.json"
    with mock.patch("tsmamba.cli.draw_weights", wraps=draw_weights) as draw:
        assert main(["traj", "select", "--frames", str(frames), "--config", str(cfg),
                     "--seed", "4", "--radius", "0", "--out", str(out)]) == 0
    assert all(name.startswith("g.") for name in draw.call_args.args[0])
    clip = [read_pnm(p) for p in sorted(frames.iterdir())]
    _, sel = select_along_trajectories(clip, None, TsMambaWeights.random(config, seed=4).g,
                                       config)
    assert json.loads(out.read_text())["payload"]["indices"] == sel.indices.tolist()

    manifest = _write_bundle(tmp_path / "bundle", _drawn(config, seed=5))
    (tmp_path / "bundle" / manifest["r.tail_w"]).unlink()
    clip_args = ["--frames", str(frames), "--config", str(cfg),
                 "--weights", str(tmp_path / "bundle")]
    assert main(["traj", "select", *clip_args, "--out", str(out)]) == 0
    assert not any(Path(path).name.startswith(("tsma.", "r."))
                   for path in json.loads(out.read_text())["inputs"])
    assert main(["model", "forward", *clip_args, "--out", str(tmp_path / "sr.tstf")]) == 2


def test_tstf_inputs_need_no_tstf_suffix(tmp_path, capsys):
    """Only .pgm and .ppm paths are read as PNM: a bundle layer or an ssm run
    input named .bin is read as TSTF."""
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=2, size=8)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FUZZ_CONFIG))
    bundle = tmp_path / "bundle"
    manifest = _write_bundle(bundle, _drawn(ModelConfig(**FUZZ_CONFIG), seed=2))
    srs = []
    for suffix in (".tstf", ".bin"):
        renamed = {name: path.replace(".tstf", suffix) for name, path in manifest.items()}
        for name in manifest:
            (bundle / manifest[name]).rename(bundle / renamed[name])
        (bundle / "manifest.json").write_text(json.dumps(renamed))
        manifest = renamed
        srs.append(tmp_path / f"sr{suffix}.tstf")
        assert main(["model", "forward", "--frames", str(frames), "--config", str(cfg),
                     "--weights", str(bundle), "--out", str(srs[-1])]) == 0
    assert srs[0].read_bytes() == srs[1].read_bytes()

    seq = np.random.default_rng(0).normal(size=(6, 2))
    outs = []
    for name in ("seq.tstf", "seq.bin"):
        write_tstf(tmp_path / name, seq)
        outs.append(tmp_path / f"out_{name}.tstf")
        assert main(["ssm", "run", "--input", str(tmp_path / name), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()


def test_traj_select_config_sets_the_temporal_window(tmp_path):
    """At T = 3 block matching runs 3 times and the report lists the last 4
    frames and the config file, no other."""
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=6, size=8)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"temporal_window": 3, "s_selected": 2}))
    out = tmp_path / "sel.json"
    with mock.patch("tsmamba.cli.block_matching_flow", wraps=block_matching_flow) as bm:
        assert main(["traj", "select", "--frames", str(frames), "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert bm.call_count == 3
    assert sorted(json.loads(out.read_text())["inputs"]) == sorted(
        [str(cfg), *(str(frames / f"frame_{k:03d}.ppm") for k in range(2, 6))])


def test_report_inputs_cover_the_config_and_the_weight_bundle(tmp_path, capsys):
    """traj select lists the digests of its --config file, the bundle's
    manifest and the G layer files it reads, and model count of its --config
    file: a changed weight file or config value changes its digest."""
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=2, size=8)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FUZZ_CONFIG))
    bundle = tmp_path / "bundle"
    manifest = _write_bundle(bundle, _drawn(ModelConfig(**FUZZ_CONFIG), seed=1))
    select = ["traj", "select", "--frames", str(frames), "--radius", "0", "--config", str(cfg),
              "--weights", str(bundle)]
    count = ["model", "count", "--config", str(cfg), "--height", "8", "--width", "8"]

    def inputs(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["inputs"]

    before = inputs(select)
    assert set(before) == {str(frames / "frame_000.ppm"), str(frames / "frame_001.ppm"), str(cfg),
                           str(bundle / "manifest.json"),
                           *(str(bundle / path) for name, path in manifest.items()
                             if name.startswith("g."))}
    write_tstf(bundle / manifest["g.conv_b"], np.ones(FUZZ_CONFIG["channels"]))
    after = inputs(select)
    assert {path for path in before if before[path] != after[path]} == {
        str(bundle / manifest["g.conv_b"])}
    counted = inputs(count)
    assert set(counted) == {str(cfg)}
    cfg.write_text(json.dumps(dict(FUZZ_CONFIG, channels=5)))
    assert inputs(count)[str(cfg)] != counted[str(cfg)]


def test_report_inputs_are_keyed_by_path(tmp_path, capsys):
    """Two inputs of one file name in different directories each keep their
    digest, keyed by the path given, so a change to either shows."""
    a, b = tmp_path / "a" / "x.tstf", tmp_path / "b" / "x.tstf"
    for path, value in ((a, 0.0), (b, 1.0)):
        path.parent.mkdir()
        write_tstf(path, np.full((3, 8, 8), value))

    def inputs():
        assert main(["loss", "eval", "--sr", str(a), "--hr", str(b)]) == 0
        return json.loads(capsys.readouterr().out)["inputs"]

    before = inputs()
    assert set(before) == {str(a), str(b)}
    write_tstf(a, np.full((3, 8, 8), 0.5))
    after = inputs()
    assert {path for path in before if before[path] != after[path]} == {str(a)}


def test_model_count_counts_the_model_a_bundle_holds(tmp_path, capsys):
    """model count of a --config counts every value of that config's bundle."""
    settings = {"channels": 6, "state_dim": 4, "n2_res_blocks": 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert main(["model", "count", "--config", str(cfg)]) == 0
    params = json.loads(capsys.readouterr().out)["payload"]["params"]
    assert params == sum(array.size for array in _drawn(ModelConfig(**settings)).values())


@pytest.mark.parametrize("argv,flag", [
    (["traj", "select", "--frames", "{frames}"], "--s"),
    (["traj", "select", "--frames", "{frames}"], "--se"),
    (["model", "count"], "--channels"),
    (["ssm", "run", "--input", "{tmp}/seq.tstf", "--out", "{tmp}/out.tstf"], "--params"),
    (["loss", "eval", "--sr", "{tmp}/seq.tstf", "--hr", "{tmp}/seq.tstf"], "--lr-height"),
    (["loss", "eval", "--sr", "{tmp}/seq.tstf", "--hr", "{tmp}/seq.tstf"], "--lr-width"),
])
def test_abbreviated_and_removed_flags_exit_2(tmp_path, capsys, argv, flag):
    """Flags are matched whole, so --se is not read as --seed; s_selected and
    channels are set through --config alone, so --s and --channels are no
    flags of these commands; ssm run reads its parameters as a --weights
    bundle alone, and loss eval reads the LR size from --hr."""
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=1, size=8)
    write_tstf(tmp_path / "seq.tstf", np.zeros((4, 2)))
    argv = [arg.replace("{frames}", str(frames)).replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + [flag, "3" if flag.startswith("--s") else "16"]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_loss_eval_fixed_point(tmp_path, capsys):
    arr = np.random.default_rng(2).random((3, 8, 8)).astype(np.float32)
    p = tmp_path / "a.tstf"
    write_tstf(p, arr)
    assert main(["loss", "eval", "--sr", str(p), "--hr", str(p)]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["payload"]["spatial"] == pytest.approx(1e-4, abs=1e-12)



@pytest.mark.parametrize("epsilon,sr_nan", [("nan", False), ("inf", False), ("1e-4", True)])
def test_json_output_rejects_non_finite_values(tmp_path, capsys, epsilon, sr_nan):
    """A report that would hold NaN or inf is not JSON: exit 2, no file."""
    hr = np.random.default_rng(2).random((3, 8, 8)).astype(np.float32)
    sr = hr.copy()
    if sr_nan:
        sr[1, 2, 3] = np.nan
    write_tstf(tmp_path / "sr.tstf", sr)
    write_tstf(tmp_path / "hr.tstf", hr)
    out = tmp_path / "loss.json"
    assert main(["loss", "eval", "--sr", str(tmp_path / "sr.tstf"), "--hr",
                 str(tmp_path / "hr.tstf"), "--epsilon", epsilon, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def _trajectory_stacks():
    """Matched 2-deep stacks: an LR 8x32 frame (2x8 tokens of 4x4) and its
    HR 32x128 frame (8x32 tokens) at the model's x4 upscale."""
    hr_coords = np.stack([token_centers(8, 32, 4)] * 2)
    lr_coords = hr_coords.reshape(2, 8, 32, 2)[:, ::4, ::4].reshape(2, 16, 2) / 4
    return lr_coords, hr_coords


def test_loss_eval_reads_the_lr_size_from_hr(tmp_path, capsys):
    """The LR frame is the --hr frame at 1/4 on both sides, so the stacks'
    16 LR trajectories tile the 8x32 LR frame of a 32x128 HR with 4x4
    tokens.  An HR that is not a frame, whose sides are not positive
    multiples of 4, or that holds no values, exits 2 without a traceback."""
    sr = tmp_path / "sr.tstf"
    write_tstf(sr, np.zeros((3, 32, 128), dtype=np.float32))
    lr_coords, hr_coords = _trajectory_stacks()
    lr, hr = tmp_path / "lr.tstf", tmp_path / "hr.tstf"
    write_tstf(lr, lr_coords)
    write_tstf(hr, hr_coords)
    stacks = ["--lr-traj", str(lr), "--hr-traj", str(hr)]
    args = ["loss", "eval", "--sr", str(sr), "--hr", str(sr), *stacks]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["trajectory"] == 0.0
    # the upscale is fixed at 4, not a flag
    assert main(args + ["--scale", "2"]) == 2
    assert main(args[:-2]) == 2
    assert "together" in capsys.readouterr().err
    # 16 LR trajectories do not tile the 8x24 LR frame of a 32x96 HR
    other = tmp_path / "other.tstf"
    for shape, said in (((3, 32, 96), "tile"), ((3, 30, 128), "multiples of 4"),
                        ((6, 2), "[C, H, W] frame"), ((3, 0, 128), "holds no values")):
        write_tstf(other, np.zeros(shape, dtype=np.float32))
        assert main(["loss", "eval", "--sr", str(other), "--hr", str(other), *stacks]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and said in err and "Traceback" not in err
    # malformed stacks: depth 0, three coordinates per point, no depth axis,
    # no trajectories, depths that differ
    third = [(0, 0), (0, 0), (0, 1)]
    for lr_bad, hr_bad in ((lr_coords[:0], hr_coords[:0]),
                           (np.pad(lr_coords, third), np.pad(hr_coords, third)),
                           (lr_coords[0], hr_coords[0]),
                           (lr_coords[:, :0], hr_coords[:, :0]),
                           (lr_coords, hr_coords[:1])):
        write_tstf(lr, lr_bad)
        write_tstf(hr, hr_bad)
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err


def test_loss_eval_empty_pair_exits_2(tmp_path, capsys):
    """An SR/HR pair of no values exits 2 naming it, with no numpy warning
    (warnings fail the suite) and no --out file."""
    empty, out = tmp_path / "empty.tstf", tmp_path / "loss.json"
    write_tstf(empty, np.zeros((3, 0, 128), dtype=np.float32))
    assert main(["loss", "eval", "--sr", str(empty), "--hr", str(empty), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the SR and HR pair [3, 0, 128] holds no values\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag,value", [("--epsilon", "-1"), ("--epsilon", "-1e-300"),
                                        ("--epsilon", "nan"), ("--lam", "-1"),
                                        ("--lam", "-1e-300"), ("--lam", "nan")])
def test_loss_eval_rejects_negative_weights(tmp_path, capsys, flag, value):
    """A negative or NaN epsilon or lambda exits 2 and writes no file; 0 is
    allowed."""
    sr, lr, hr = tmp_path / "sr.tstf", tmp_path / "lr.tstf", tmp_path / "hr.tstf"
    write_tstf(sr, np.zeros((3, 32, 128), dtype=np.float32))
    for path, coords in zip((lr, hr), _trajectory_stacks()):
        write_tstf(path, coords)
    out = tmp_path / "loss.json"
    args = ["loss", "eval", "--sr", str(sr), "--hr", str(sr), "--lr-traj", str(lr),
            "--hr-traj", str(hr), "--out", str(out)]
    assert main(args + [f"{flag}=0"]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["trajectory"] == 0.0 and payload["total"] == payload["spatial"]
    out.unlink()
    assert main(args + [f"{flag}={value}"]) == 2
    assert "must not be negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", ["0", "0.1", "-1"])
@pytest.mark.parametrize("stacks", ["neither", "lr", "hr"])
def test_loss_eval_lam_needs_both_trajectory_stacks(tmp_path, capsys, lam, stacks):
    """--lam weighs the trajectory loss, so without both stacks it exits 2
    and writes no file, whatever its value; with both it is read."""
    sr, lr, hr = tmp_path / "sr.tstf", tmp_path / "lr.tstf", tmp_path / "hr.tstf"
    write_tstf(sr, np.zeros((3, 32, 128), dtype=np.float32))
    for path, coords in zip((lr, hr), _trajectory_stacks()):
        write_tstf(path, coords)
    out = tmp_path / "loss.json"
    args = ["loss", "eval", "--sr", str(sr), "--hr", str(sr), "--out", str(out),
            f"--lam={lam}"]
    given = {"neither": [], "lr": ["--lr-traj", str(lr)], "hr": ["--hr-traj", str(hr)]}
    assert main(args + given[stacks]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    both = main(args + ["--lr-traj", str(lr), "--hr-traj", str(hr)])
    assert both == (2 if lam == "-1" else 0)


@pytest.mark.parametrize("argv,flag,default", [
    (["traj", "select", "--frames", "f", "--flows", "d"], "--radius", "2"),
    (["traj", "select", "--frames", "f", "--weights", "d"], "--seed", "0"),
    (["model", "forward", "--frames", "f", "--weights", "d", "--out", "o"], "--seed", "0"),
    (["ssm", "run", "--input", "i", "--weights", "d", "--out", "o"], "--seed", "0"),
], ids=["traj select", "traj select weights", "model forward", "ssm run"])
def test_input_and_the_flag_that_makes_it_up_are_exclusive(capsys, argv, flag, default):
    """--radius only feeds the block matching that --flows replaces, and
    --seed only draws the weights that --weights reads, in the model
    commands and in ssm run: both of a pair exit 2 before any file is read,
    also with the flag at its default value."""
    for value in (default, "5"):
        assert main(argv + [flag, value]) == 2
        assert "not allowed with" in capsys.readouterr().err


def _parser_flags(parser):
    """Every --flag of the parser and its subcommands, --help aside."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
        flags.update(o for o in action.option_strings if o.startswith("--") and o != "--help")
    return flags


def test_readme_cli_section_matches_the_parser():
    """Every `tsm ...` line of the README's CLI block parses, and the --flags
    the section names are exactly the parser's."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("tsm ") for line in lines)
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(line.split()[1:])
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert named == _parser_flags(parser)


# --- fuzz: every subcommand on valid, boundary and malformed arguments --------

FUZZ_CONFIG = {"channels": 4, "state_dim": 2, "n2_res_blocks": 1}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The files FUZZ_CALLS and FUZZ_WRONG name: valid inputs, and malformed
    ones (truncated TSTF and PNM, non-object JSON, tensors of the wrong
    shape or rank, frames of mixed sizes, NaN frames and flows)."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    for name in ("frames", "frames_trunc", "frames_rank", "frames_empty", "frames_mixed",
                 "frames_gray", "frames_nan", "flows", "flows_shape", "flows_rank", "flows_trunc",
                 "flows_nan", "bundle_list"):
        (d / name).mkdir()
    _write_frames(d / "frames", n=2, size=16)
    _write_frames(d / "frames_mixed", n=1, size=16)
    write_pnm(d / "frames_mixed" / "frame_001.ppm", rng.random((3, 10, 14)).astype(np.float32))
    write_pnm(d / "frames_gray" / "frame_000.pgm", rng.random((1, 16, 16)).astype(np.float32))
    write_pnm(d / "frame.ppm", rng.random((3, 16, 16)).astype(np.float32))
    (d / "trunc.ppm").write_bytes((d / "frame.ppm").read_bytes()[:40])
    (d / "frames_trunc" / "frame_000.ppm").write_bytes((d / "trunc.ppm").read_bytes())
    write_tstf(d / "frames_rank" / "frame_000.tstf", np.zeros((16, 16)))
    write_tstf(d / "frames_nan" / "frame_000.tstf", np.full((3, 16, 16), np.nan))
    write_tstf(d / "seq.tstf", rng.normal(0, 1, (6, 2)))
    (d / "trunc.tstf").write_bytes((d / "seq.tstf").read_bytes()[:30])
    write_tstf(d / "rank.tstf", np.zeros(5))
    write_tstf(d / "flows" / "flow_0001.tstf", rng.normal(0, 1, (2, 16, 16)))
    write_tstf(d / "flows_shape" / "flow_0001.tstf", np.zeros((2, 4, 4)))
    write_tstf(d / "flows_rank" / "flow_0001.tstf", np.zeros((2, 16)))
    (d / "flows_trunc" / "flow_0001.tstf").write_bytes((d / "trunc.tstf").read_bytes())
    write_tstf(d / "flows_nan" / "flow_0001.tstf", np.full((2, 16, 16), np.nan))
    # A, D, dt, B, C of a 2-channel, state-dim-2 scan over the 6 steps of seq
    _write_bundle(d / "s6", vars(ssm.SelectiveScanParams.init(2, 2, 6, rng)))
    main(["scan", "gen", "--variant", "scan3", "--size", "4", "--out", str(d / "scan.json")])
    (d / "broken.json").write_text(json.dumps({"size": 2, "order": [[0, 0], [0, 0],
                                                                    [1, 0], [1, 1]]}))
    (d / "list.json").write_text("[1, 2]")
    (d / "bundle_list" / "manifest.json").write_text("[1, 2]")
    (d / "trunc.json").write_text('{"size": 2, "ord')
    (d / "config.json").write_text(json.dumps(FUZZ_CONFIG))
    _write_bundle(d / "bundle", _drawn(ModelConfig(**FUZZ_CONFIG), seed=1))
    hr = rng.random((3, 32, 128))
    write_tstf(d / "hr.tstf", hr)
    write_tstf(d / "sr.tstf", hr + rng.normal(0, 0.01, hr.shape))
    lr_coords, hr_coords = _trajectory_stacks()
    write_tstf(d / "hr_traj.tstf", hr_coords)
    write_tstf(d / "lr_traj.tstf", lr_coords)
    return d

# valid calls of each subcommand, as (flag, kind, value) slots; the values of
# every kind but "int", "float" and "str" name entries of fuzz_dir
FUZZ_CALLS = {
    "scan gen": [[("--variant", "str", "scan4"), ("--size", "int", "8")]],
    "scan check": [[(None, "file", "scan.json")], [(None, "file", "broken.json")]],
    "disc analyze": [[("--first", "str", "scan1"), ("--shift", "str", "UL3"),
                      ("--second", "str", "scan3"), ("--grid", "int", "8"),
                      ("--window", "int", "4")]],
    "disc search": [[("--grid", "int", "8"), ("--window", "int", "4")]],
    "traj select": [[("--frames", "frames", "frames"), ("--radius", "int", "1"),
                     ("--config", "file", "config.json"), ("--seed", "int", "7")],
                    [("--frames", "frames", "frames"), ("--flows", "flows", "flows"),
                     ("--config", "file", "config.json"), ("--weights", "weights", "bundle")]],
    "ssm run": [[("--input", "file", "seq.tstf"), ("--state-dim", "int", "3"),
                 ("--seed", "int", "7")],
                [("--input", "file", "seq.tstf"), ("--weights", "weights", "s6"),
                 ("--state-dim", "int", "2")]],
    "grad check": [[("--length", "int", "3"), ("--channels", "int", "2"),
                    ("--state-dim", "int", "2"), ("--tol", "float", "1e-5"),
                    ("--seed", "int", "7")]],
    "model forward": [[("--frames", "frames", "frames"), ("--config", "file", "config.json"),
                       ("--radius", "int", "1"), ("--seed", "int", "7")],
                      [("--frames", "frames", "frames"), ("--config", "file", "config.json"),
                       ("--flows", "flows", "flows"), ("--weights", "weights", "bundle")]],
    "model count": [[("--config", "file", "config.json"), ("--height", "int", "32"),
                     ("--width", "int", "48")]],
    "loss eval": [[("--sr", "file", "sr.tstf"), ("--hr", "file", "hr.tstf"),
                   ("--epsilon", "float", "1e-4")],
                  [("--sr", "file", "sr.tstf"), ("--hr", "file", "sr.tstf"),
                   ("--lr-traj", "file", "lr_traj.tstf"), ("--hr-traj", "file", "hr_traj.tstf"),
                   ("--lam", "float", "0.1")]],
}

# the values a slot of each kind may take instead; None leaves the flag out
FUZZ_WRONG = {
    "int": [None, "0", "-1", "1", "2", "4", "8"],
    "float": [None, "0", "-1", "nan", "inf", "-inf"],
    "str": [None, "bogus"],
    "file": [None, "trunc.tstf", "trunc.ppm", "list.json", "trunc.json", "broken.json",
             "rank.tstf", "seq.tstf", "missing.tstf"],
    "frames": [None, "frames_trunc", "frames_rank", "frames_empty", "frames_mixed",
               "frames_gray", "frames_nan", "flows", "missing"],
    "flows": [None, "flows_shape", "flows_rank", "flows_trunc", "flows_nan", "frames",
              "missing"],
    "weights": [None, "bundle_list", "bundle", "s6", "frames", "missing"],
}

# the file each subcommand writes besides stdout
FUZZ_OUTPUTS = {"scan gen": "out.json", "disc analyze": "out.json", "disc search": "out.csv",
                "traj select": "out.json", "ssm run": "out.tstf", "model forward": "out.tstf",
                "model count": "out.json", "loss eval": "out.json"}


def test_fuzz_calls_name_every_flag_of_the_parser():
    """The fuzz's calls name every flag of the parser but the output paths,
    so a flag that is added or removed cannot leave it stale."""
    named = {flag for calls in FUZZ_CALLS.values() for call in calls for flag, _, _ in call}
    assert (named - {None}) | {"--out", "--svg", "--tokens-out"} == _parser_flags(build_parser())


def _fuzz_argv(fuzz_dir, command, slots):
    """argv of a subcommand's (flag, kind, value) slots; None leaves a flag out."""
    argv = command.split()
    for flag, kind, value in slots:
        if value is None:
            continue
        if kind not in ("int", "float", "str"):
            value = str(fuzz_dir / value)
        # "--flag=value", so argparse reads a value such as "-inf" as the value
        argv.append(f"{flag}={value}" if flag else value)
    return argv


@pytest.mark.parametrize("command", sorted(FUZZ_CALLS))
def test_fuzz_calls_are_valid(fuzz_dir, command, capsys):
    """Each call the fuzz starts from runs as written (a scan check of the
    broken order exits 1), so the fuzz reaches every path: a call that
    argparse rejected would exit 2, which the fuzz accepts."""
    for call in FUZZ_CALLS[command]:
        argv = _fuzz_argv(fuzz_dir, command, call)
        if command in FUZZ_OUTPUTS:
            argv += ["--out", str(fuzz_dir / f"valid_{FUZZ_OUTPUTS[command]}")]
        want = 1 if (None, "file", "broken.json") in call else 0
        assert main(argv) == want, (argv, capsys.readouterr().err)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("command", sorted(FUZZ_CALLS))
@settings(max_examples=80)
@given(data=st.data())
def test_fuzz_every_subcommand_exits_0_or_2(fuzz_dir, command, data):
    """A valid call with at most two of its arguments swapped for boundary or
    malformed values, or left out: main returns 0 or 2 and no exception
    escapes; 1 only for a grad check FAIL or a scan check of a non-bijective
    order.  Every JSON written parses with NaN and Infinity rejected."""
    call = data.draw(st.sampled_from(FUZZ_CALLS[command]))
    wrong = data.draw(st.sets(st.sampled_from(range(len(call))), max_size=2))
    argv = _fuzz_argv(fuzz_dir, command, [
        (flag, kind, data.draw(st.sampled_from(FUZZ_WRONG[kind])) if i in wrong else value)
        for i, (flag, kind, value) in enumerate(call)])
    out = fuzz_dir / FUZZ_OUTPUTS.get(command, "none")
    if command in FUZZ_OUTPUTS:
        argv += ["--out", str(out)]
        out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    text = stdout.getvalue()
    allowed = {0, 2}
    if (command == "grad check" and "FAIL" in text) or (
            command == "scan check" and '"bijective":false' in text):
        allowed.add(1)
    assert code in allowed, (argv, stderr.getvalue())
    if code == 2:
        assert stderr.getvalue().startswith("error:") or "usage:" in stderr.getvalue()
    if command in ("scan check", "ssm run") and text:
        json.loads(text, parse_constant=_reject_constant)
    if out.suffix == ".json" and out.exists():
        json.loads(out.read_text(), parse_constant=_reject_constant)
