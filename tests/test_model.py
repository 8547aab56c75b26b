import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsmamba import ssm
from tsmamba.numerics import ModelConfig, bicubic_upsample
from tsmamba.model import (
    TSMA_PATHS,
    TsMambaWeights,
    calibrate_channels,
    charbonnier_loss,
    count_params_macs,
    total_loss,
    trajectory_loss,
    set_weight,
    ts_mamba_forward,
    untokenize,
    weight_map,
    window_scans_for_grid,
)
from tsmamba.scanorder import ShiftSpec, WindowPartition, compose_scan_shift_scan, window_tiled_order
from tsmamba.trajectory import TrajectorySet, token_centers


@pytest.mark.parametrize("t", [2, 4])
def test_untokenize_matches_chw_formula(t):
    """Byte-equal to the channels-first reshape/transpose formula: patch
    channel c*t*t + i*t + j lands at offset (i, j) of its token's t x t block."""
    rng = np.random.default_rng(t)
    ht, wt, c_token, c = 3, 5, 6, 4
    grid = rng.normal(0, 1, (ht, wt, c_token)).astype(np.float32)
    proj_w = rng.normal(0, 1, (c_token, c * t * t))
    x = grid.reshape(ht * wt, c_token) @ proj_w.astype(np.float32)
    want = np.ascontiguousarray(
        x.reshape(ht, wt, c, t, t).transpose(2, 0, 3, 1, 4).reshape(c, ht * t, wt * t))
    got = untokenize(grid, ModelConfig(token_size=t), proj_w)
    assert got.shape == want.shape and got.dtype == np.float32
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    assert got.transpose(1, 2, 0).flags.c_contiguous


def zeroed_tail(r_weights):
    """Copy of R's weights with the final conv zeroed: isolates the bicubic skip."""
    return dataclasses.replace(r_weights, tail_w=np.zeros_like(r_weights.tail_w),
                               tail_b=np.zeros_like(r_weights.tail_b))


def charbonnier_grad(sr, hr, epsilon=1e-4):
    """d charbonnier_loss / d sr, for the finite-difference check."""
    x, y = np.asarray(sr, dtype=np.float64), np.asarray(hr, dtype=np.float64)
    d = x - y
    return d / (np.sqrt(d * d + epsilon * epsilon) * d.size)


def _toy_setup(channels=8, state_dim=4, seed=0):
    cfg = ModelConfig(channels=channels, state_dim=state_dim)
    weights = TsMambaWeights.random(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    frames = [rng.normal(0, 0.2, (3, 32, 32)).astype(np.float32)
              for _ in range(5)]
    return cfg, weights, frames


def test_forward_output_dims_and_determinism():
    cfg, weights, frames = _toy_setup()
    a = ts_mamba_forward(frames, None, weights, cfg)
    b = ts_mamba_forward(frames, None, weights, cfg)
    assert a.data.shape == (3, 128, 128)
    assert np.array_equal(a.data, b.data)


def test_forward_zero_tail_equals_bicubic_skip():
    cfg, weights, frames = _toy_setup()
    zeroed = TsMambaWeights(g=weights.g, tsma=weights.tsma,
                            r=zeroed_tail(weights.r))
    out = ts_mamba_forward(frames, None, zeroed, cfg)
    skip = bicubic_upsample(frames[-1], cfg.scale)
    assert np.array_equal(out.data, skip)


def test_forward_single_frame_cold_start():
    cfg, weights, frames = _toy_setup()
    out = ts_mamba_forward(frames[:1], None, weights, cfg)
    assert out.data.shape == (3, 128, 128)


def test_forward_rejects_mismatched_frames():
    cfg, weights, frames = _toy_setup()
    bad = frames[:2] + [np.zeros((3, 16, 16), dtype=np.float32)]
    with pytest.raises(ValueError):
        ts_mamba_forward(bad, None, weights, cfg)
    with pytest.raises(ValueError):
        ts_mamba_forward([], None, weights, cfg)


def test_window_scans_cover_token_grid():
    from tsmamba.scanorder import ScanVariant
    cfg = ModelConfig()
    scans = window_scans_for_grid(8, 8, cfg, ScanVariant.Scan1)
    flat = sorted(i for s in scans for i in s)
    assert flat == list(range(64))
    with pytest.raises(ValueError):
        window_scans_for_grid(6, 8, cfg, ScanVariant.Scan1)


def _composed_window_scans(ht, wt, w, first, shift, second):
    """Oracle: one window's order from the discontinuity analysis's objects on
    a one-window partition (the first curve, or first -> shift -> second),
    placed in every window of the grid by explicit loops."""
    part = WindowPartition(w, w)
    if shift is None:
        cells = window_tiled_order(first, part).cells.tolist()
    else:
        proc = compose_scan_shift_scan(first, ShiftSpec.parse(shift), second, part)
        cells = proc.shifted_second_order.cells.tolist()
    scans = []
    for wr in range(0, ht, w):
        for wc in range(0, wt, w):
            scans.append([(wr + r) * wt + wc + c for r, c in cells])
    return np.array(scans)


@pytest.mark.parametrize("w", [1, 2, 4, 8, 16])
def test_window_scans_equal_composed_procedure(w):
    """Every TSMA block's scans, on grids of 1-3 by 1-3 windows, are byte-equal
    to the composed procedure's, and each token appears once."""
    cfg = ModelConfig(window_size=w)
    for _, std, *shifted in TSMA_PATHS:
        # a block's first scan is its path's standard block
        for variant, shift in [(std, None)] + [(second, shift) for shift, second in shifted]:
            for nr in (1, 2, 3):
                for nc in (1, 2, 3):
                    ht, wt = nr * w, nc * w
                    got = window_scans_for_grid(ht, wt, cfg, variant, shift)
                    want = _composed_window_scans(ht, wt, w, std, shift, variant)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    assert sorted(got.ravel().tolist()) == list(range(ht * wt))


# toy width for forward passes at large frame sizes
_TOY = dict(channels=4, state_dim=2, n1_res_blocks=1, n2_res_blocks=1,
            temporal_window=3, s_selected=2)


def _clip(h, w, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random((3, h, w)).astype(np.float32) for _ in range(n)]


def test_forward_at_paper_lr_size():
    # 180x320 gives a 45x80 token grid, which TSMA pads to 48x80
    cfg = ModelConfig(**_TOY)
    out = ts_mamba_forward(_clip(180, 320, 2), None,
                           TsMambaWeights.random(cfg, seed=0), cfg)
    assert out.data.shape == (3, 720, 1280)
    assert np.all(np.isfinite(out.data))


@settings(max_examples=25)
@given(ht=st.integers(1, 20), wt=st.integers(1, 20))
@example(ht=4, wt=4)
@example(ht=9, wt=13)
@example(ht=45, wt=80)
def test_ssm_work_that_runs_is_counted(ht, wt):
    cfg = ModelConfig(**_TOY)
    t = cfg.token_size
    weights = TsMambaWeights.random(cfg, seed=0)
    with mock.patch.object(ssm, "selective_scan_forward",
                           wraps=ssm.selective_scan_forward) as spy:
        ts_mamba_forward(_clip(ht * t, wt * t, 2, seed=ht * 100 + wt), None,
                         weights, cfg)
    # a call on [L, W*C] with state_dim N steps L*W*C*N states; the count
    # models 6 MACs per state step
    ran = 6 * sum(np.size(call.args[1]) * call.args[0].A.shape[1]
                  for call in spy.call_args_list)
    counted = count_params_macs(cfg, (ht * t, wt * t))["breakdown"]["tsma.ssm_blocks"]
    assert spy.call_count == 6
    assert ran == counted["macs"]


def test_wcb_weights_change_output():
    cfg, weights, frames = _toy_setup()
    before = ts_mamba_forward(frames, None, weights, cfg)
    c = weight_map(weights)["tsma.p1_intra.C"]
    set_weight(weights, "tsma.p1_intra.C", c + 0.5)
    after = ts_mamba_forward(frames, None, weights, cfg)
    assert not np.array_equal(before.data, after.data)


def test_weight_map_names_and_setter():
    cfg = ModelConfig(channels=4, state_dim=2, n1_res_blocks=1, n2_res_blocks=2)
    weights = TsMambaWeights.random(cfg, seed=0)
    layers = weight_map(weights)
    res = ("w1", "b1", "w2", "b2")
    assert list(layers) == (
        ["g.conv_w", "g.conv_b", "g.proj_w", "g.proj_b"]
        + [f"g.res0.{p}" for p in res]
        + ["tsma.concat_proj_w", "tsma.concat_proj_b", "tsma.fusion_w", "tsma.fusion_b",
           "tsma.ln_gamma", "tsma.ln_beta"]
        + [f"tsma.{path}_{branch}.{p}" for path in ("p1", "p2")
           for branch in ("std", "intra", "inter") for p in ("A", "D", "dt", "B", "C")]
        + ["r.head_w", "r.head_b", "r.up1_w", "r.up1_b", "r.up2_w", "r.up2_b",
           "r.tail_w", "r.tail_b"]
        + [f"r.res{i}.{p}" for i in range(2) for p in res])
    new = np.ones_like(layers["r.res1.w2"])
    set_weight(weights, "r.res1.w2", new)
    assert weights.r.res[1][2] is new
    assert weight_map(weights)["r.res1.w2"] is new
    with pytest.raises(ValueError):
        set_weight(weights, "r.res1.w2", np.ones((2, 2)))
    with pytest.raises(ValueError):
        set_weight(weights, "r.res9.w2", new)


def test_set_weight_writes_in_place():
    cfg = ModelConfig(channels=4, state_dim=2, n1_res_blocks=1, n2_res_blocks=1)
    weights = TsMambaWeights.random(cfg, seed=0)
    block = weights.g.res[0]
    params = weights.tsma.block_params["p2_std"]
    layers = weight_map(weights)
    new = {name: np.full_like(layers[name], 7.0)
           for name in ("g.res0.b1", "tsma.p2_std.dt", "r.up1_w")}
    for name, array in new.items():
        set_weight(weights, name, array)
    # the residual block and the SSM pack are the same objects, written into
    assert weights.g.res[0] is block and block[1] is new["g.res0.b1"]
    assert weights.tsma.block_params["p2_std"] is params
    assert params.dt is new["tsma.p2_std.dt"]
    assert weights.r.up1_w is new["r.up1_w"]
    assert all(weight_map(weights)[name] is array for name, array in new.items())


# --- losses -----------------------------------------------------------------

def test_charbonnier_fixed_point():
    x = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
    assert charbonnier_loss(x, x, epsilon=1e-4) == pytest.approx(1e-4, abs=1e-12)


def test_charbonnier_matches_manual():
    a = np.array([[1.0, 2.0]], dtype=np.float32)
    b = np.array([[1.5, 1.0]], dtype=np.float32)
    eps = 1e-4
    want = np.sqrt(np.array([0.25, 1.0]) + eps * eps).mean()
    assert charbonnier_loss(a, b, eps) == pytest.approx(want)


def test_charbonnier_gradient_finite_difference():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, (2, 4)).astype(np.float32)
    y = rng.normal(0, 1, (2, 4)).astype(np.float32)
    g = charbonnier_grad(x, y)
    step = 1e-4   # large enough to survive the kernel's float32 storage
    worst = 0.0
    for idx in np.ndindex(x.shape):
        xp = x.astype(np.float64).copy(); xp[idx] += step
        xm = x.astype(np.float64).copy(); xm[idx] -= step
        fd = (charbonnier_loss(xp.astype(np.float32), y)
              - charbonnier_loss(xm.astype(np.float32), y)) / (2 * step)
        rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
        worst = max(worst, rel)
    assert worst < 1e-3


def _traj(ht, wt, h, w, depth, token_size, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = token_centers(ht, wt, token_size)
    coords = []
    for _ in range(depth):
        c = centers.copy()
        if jitter:
            c += rng.normal(0, jitter, c.shape)
        coords.append(c)
    return TrajectorySet(token_size, h, w, np.array(coords))


def test_trajectory_loss_zero_for_matched():
    scale = 4
    lr = _traj(4, 4, 16, 16, 3, 4)
    # HR grid: scale^2 times as many tokens; scaled coordinates
    hr = _traj(16, 16, 64, 64, 3, 4)
    for m in range(3):
        hr.coords[m] = hr.coords[m]
    # build HR coords so that the kept subsample / scale equals LR exactly
    for m in range(3):
        grid = hr.coords[m].reshape(16, 16, 2)
        for r in range(0, 16, scale):
            for c in range(0, 16, scale):
                grid[r, c] = lr.coords[m][(r // scale) * 4 + c // scale] * scale
        hr.coords[m] = grid.reshape(-1, 2)
    assert trajectory_loss(lr, hr, scale) == 0.0


def test_trajectory_loss_positive_and_composition():
    scale = 4
    lr = _traj(4, 4, 16, 16, 3, 4, jitter=0.5, seed=2)
    hr = _traj(16, 16, 64, 64, 3, 4)
    t = trajectory_loss(lr, hr, scale)
    assert t > 0
    assert total_loss(0.25, t, lam=0.1) == pytest.approx(0.25 + 0.1 * t)


def test_trajectory_loss_rejects_bad_grids():
    lr = _traj(4, 4, 16, 16, 3, 4)
    hr = _traj(8, 8, 32, 32, 3, 4)
    with pytest.raises(ValueError):
        trajectory_loss(lr, hr, 4)


def test_trajectory_loss_needs_frame_size():
    # a 4x16 HR token grid with no frame size must not be read as 8x8
    lr = _traj(2, 8, 8, 32, 2, 4)
    hr = _traj(4, 16, 16, 64, 2, 4)
    assert trajectory_loss(lr, hr, 2) > 0
    with pytest.raises(ValueError):
        trajectory_loss(lr, TrajectorySet(4, 0, 0, hr.coords), 2)


# --- counting ---------------------------------------------------------------

def test_count_params_consistent_with_breakdown():
    counts = count_params_macs(ModelConfig(), (180, 320))
    assert counts["params"] == sum(v["params"] for v in counts["breakdown"].values())
    assert counts["macs"] == sum(v["macs"] for v in counts["breakdown"].values())
    assert counts["params"] > 0 and counts["macs"] > 0


@pytest.mark.parametrize("cfg", [
    ModelConfig(),
    ModelConfig(channels=8, state_dim=4),
    ModelConfig(channels=5, token_size=2, s_selected=1, temporal_window=3,
                n1_res_blocks=1, n2_res_blocks=2),
])
def test_count_params_matches_weights(cfg):
    weights = weight_map(TsMambaWeights.random(cfg))
    assert count_params_macs(cfg, (64, 64))["params"] == sum(a.size for a in weights.values())


@pytest.mark.parametrize("dims", [(10, 13), (1, 1), (0, 8), (8, 0), (-8, 8), (18, 16)])
def test_count_rejects_frames_the_model_cannot_run(dims):
    # the forward pass raises on these sizes, so the count must too
    with pytest.raises(ValueError, match="token_size"):
        count_params_macs(ModelConfig(), dims)


def test_count_scales_with_channels():
    a = count_params_macs(ModelConfig(channels=16), (64, 64))
    b = count_params_macs(ModelConfig(channels=32), (64, 64))
    assert b["params"] > a["params"]
    assert b["macs"] > a["macs"]


def test_calibration_targets_3m():
    best = calibrate_channels()
    assert abs(best["params"] - 3_000_000) < 100_000
    assert best["channels"] == 87
