import json
import tracemalloc

import numpy as np
import pytest

from tsmamba import ssm
from tsmamba.cli import main
from tsmamba.discontinuity import analyze, search_procedures
from tsmamba.model import TsMambaWeights, set_weight, ts_mamba_forward, weight_map
from tsmamba.numerics import ModelConfig, read_pnm, read_tstf, write_pnm, write_tstf
from tsmamba.scanorder import ScanVariant
from tsmamba.trajectory import token_centers


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
                 "--s", "3", "--out", str(out), "--tokens-out", str(toks)]) == 0
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
    assert "flow_0002.tstf" in env_b["inputs"]
    (flows / "flow_0002.tstf").unlink()
    assert main(["traj", "select", "--frames", str(frames), "--flows", str(flows),
                 "--out", str(b)]) == 2


@pytest.mark.parametrize("s,code", [("-1", 2), ("0", 0), ("14", 0), ("15", 2)])
def test_traj_select_s_must_fit_config(tmp_path, capsys, s, code):
    """--s runs through ModelConfig.validate: 0 <= s <= T - 1 (T = 15)."""
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=2, size=8)
    out = tmp_path / "sel.json"
    assert main(["traj", "select", "--frames", str(frames), "--radius", "0",
                 "--s", s, "--out", str(out)]) == code
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


def test_ssm_run_params_file(tmp_path, capsys):
    """--params holds A [C,N], D [C], dt [L,C], B [L,N], C [L,N] flattened in
    that order as float32."""
    L, C, N = 10, 3, 4
    rng = np.random.default_rng(3)
    seq = rng.normal(0, 1, (L, C)).astype(np.float32)
    params = ssm.SelectiveScanParams.init(C, N, L, rng)
    packed = np.concatenate([getattr(params, k).ravel() for k in ("A", "D", "dt", "B", "C")])
    inp, pfile, out = tmp_path / "seq.tstf", tmp_path / "p.tstf", tmp_path / "out.tstf"
    write_tstf(inp, seq)
    write_tstf(pfile, packed.astype(np.float32))
    args = ["ssm", "run", "--input", str(inp), "--state-dim", str(N), "--out", str(out)]
    assert main(args + ["--params", str(pfile)]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["state_dim"] == N
    rounded = ssm.SelectiveScanParams(**{
        k: getattr(params, k).astype(np.float32).astype(np.float64)
        for k in ("A", "D", "dt", "B", "C")})
    want = ssm.selective_scan_forward(rounded, seq)
    assert np.array_equal(read_tstf(out), want)

    write_tstf(pfile, packed[:-1].astype(np.float32))
    assert main(args + ["--params", str(pfile)]) == 2
    assert "values" in capsys.readouterr().err
    packed[C * N + 1] = np.nan
    write_tstf(pfile, packed.astype(np.float32))
    assert main(args + ["--params", str(pfile)]) == 2
    assert "non-finite" in capsys.readouterr().err


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


def test_model_count(capsys):
    assert main(["model", "count", "--channels", "32"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["payload"]["params"] > 0


@pytest.mark.parametrize("argv", [
    ["--channels", "0"], ["--channels", "-3"],
    ["--height", "0"], ["--height", "-8"], ["--width", "0"],
    ["--height", "10", "--width", "13"], ["--height", "1", "--width", "1"],
    ["--height", "10"],
])
def test_model_count_rejects_bad_sizes(argv, capsys):
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


def _write_bundle(directory, weights):
    """One TSTF file per named weight array, listed in manifest.json."""
    directory.mkdir()
    manifest = {}
    for name, arr in weight_map(weights).items():
        manifest[name] = f"{name}.tstf"
        write_tstf(directory / manifest[name], arr)
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def test_model_forward_weight_bundle(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=2, size=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channels": 6, "state_dim": 4, "n2_res_blocks": 2}))
    config = ModelConfig(channels=6, state_dim=4, n2_res_blocks=2)
    weights = TsMambaWeights.random(config, seed=5)
    _write_bundle(tmp_path / "bundle", weights)
    out = tmp_path / "sr.tstf"
    assert main(["model", "forward", "--frames", str(frames), "--config", str(cfg),
                 "--weights", str(tmp_path / "bundle"), "--out", str(out)]) == 0

    for name, arr in weight_map(weights).items():
        set_weight(weights, name, arr.astype(np.float32).astype(np.float64))
    clip = [read_pnm(p) for p in sorted(frames.iterdir())]
    want = ts_mamba_forward(clip, None, weights, config)
    assert np.array_equal(read_tstf(out), want.data)


@pytest.mark.parametrize("defect", ["missing", "shape", "non_string", "not_object"])
def test_model_forward_bad_weight_bundle(tmp_path, defect):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_frames(frames, n=1, size=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channels": 6, "state_dim": 4, "n2_res_blocks": 2}))
    config = ModelConfig(channels=6, state_dim=4, n2_res_blocks=2)
    bundle = tmp_path / "bundle"
    manifest = _write_bundle(bundle, TsMambaWeights.random(config, seed=5))
    if defect == "missing":
        del manifest["r.res1.b2"]
    elif defect == "shape":
        write_tstf(bundle / manifest["tsma.fusion_w"], np.zeros((6, 6, 1, 1)))
    elif defect == "non_string":
        manifest["g.conv_b"] = 3
    else:
        manifest = list(manifest.values())
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    assert main(["model", "forward", "--frames", str(frames), "--config", str(cfg),
                 "--weights", str(bundle), "--out", str(tmp_path / "sr.tstf")]) == 2


def test_loss_eval_fixed_point(tmp_path, capsys):
    arr = np.random.default_rng(2).random((3, 8, 8)).astype(np.float32)
    p = tmp_path / "a.tstf"
    write_tstf(p, arr)
    assert main(["loss", "eval", "--sr", str(p), "--hr", str(p)]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["payload"]["spatial"] == pytest.approx(1e-4, abs=1e-12)



def test_loss_eval_trajectories_need_lr_size(tmp_path, capsys):
    sr = tmp_path / "sr.tstf"
    write_tstf(sr, np.zeros((3, 8, 8), dtype=np.float32))
    # LR 8x32 frame (2x8 tokens); HR 16x64 (4x16 tokens) at scale 2
    hr_coords = np.stack([token_centers(4, 16, 4)] * 2)
    lr_coords = hr_coords.reshape(2, 4, 16, 2)[:, ::2, ::2].reshape(2, 16, 2) / 2
    lr, hr = tmp_path / "lr.tstf", tmp_path / "hr.tstf"
    write_tstf(lr, lr_coords)
    write_tstf(hr, hr_coords)
    args = ["loss", "eval", "--sr", str(sr), "--hr", str(sr), "--scale", "2",
            "--lr-traj", str(lr), "--hr-traj", str(hr)]
    assert main(args + ["--lr-height", "8", "--lr-width", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["trajectory"] == 0.0
    assert main(args) == 2
    assert "--lr-height" in capsys.readouterr().err
    assert main(args + ["--lr-height", "8"]) == 2
    assert main(args + ["--lr-height", "8", "--lr-width", "32", "--scale", "0"]) == 2
    assert main(args[:-2] + ["--lr-height", "8", "--lr-width", "32"]) == 2
    assert "together" in capsys.readouterr().err
    # 16 LR trajectories tile 8x32 with 4x4 tokens, but not 8x24
    assert main(args + ["--lr-height", "8", "--lr-width", "24"]) == 2
    assert "tile" in capsys.readouterr().err
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
        assert main(args + ["--lr-height", "8", "--lr-width", "32"]) == 2
        assert "error:" in capsys.readouterr().err
