import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsmamba import ssm
from tsmamba.numerics import ModelConfig, bicubic_upsample, draw_weights
from tsmamba.model import (
    TSMA_PATHS,
    TsMambaWeights,
    charbonnier_loss,
    count_params_macs,
    total_loss,
    trajectory_loss,
    ts_mamba_forward,
    untokenize,
    weight_table,
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


def _drawn(cfg, seed=0):
    """The weight_table map of TsMambaWeights.random(cfg, seed)."""
    return draw_weights(weight_table(cfg), np.random.default_rng(seed))


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
    skip = bicubic_upsample(frames[-1])
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


def test_untokenize_work_that_runs_is_counted():
    """r.untokenize holds the MACs of the [N, C] @ [C, C*t*t] matmul that the
    forward runs with G's projection weight, and no parameters (the weight
    is counted under g.proj)."""
    cfg = ModelConfig(**_TOY)
    t = cfg.token_size
    with mock.patch("tsmamba.model.untokenize", wraps=untokenize) as spy:
        ts_mamba_forward(_clip(3 * t, 5 * t, 2), None, TsMambaWeights.random(cfg), cfg)
    grid, _, proj_w = spy.call_args.args
    counted = count_params_macs(cfg, (3 * t, 5 * t))["breakdown"]["r.untokenize"]
    assert spy.call_count == 1
    assert counted == {"params": 0, "macs": grid.size * proj_w.shape[1]}


def test_wcb_weights_change_output():
    cfg, _, frames = _toy_setup()
    layers = _drawn(cfg)
    weights = TsMambaWeights.from_map(layers)
    before = ts_mamba_forward(frames, None, weights, cfg)
    layers["tsma.p1_intra.C"][...] += 0.5
    after = ts_mamba_forward(frames, None, weights, cfg)
    assert not np.array_equal(before.data, after.data)


def test_from_map_holds_the_map_arrays():
    """The parts hold the drawn map's own arrays, which are weight_table's
    rows in its order."""
    cfg = ModelConfig(channels=4, state_dim=2, n1_res_blocks=1, n2_res_blocks=2)
    layers = _drawn(cfg)
    weights = TsMambaWeights.from_map(layers)
    assert list(layers) == list(weight_table(cfg))
    assert layers["r.res1.w2"] is weights.r.res[1][2]
    assert layers["tsma.p2_std.dt"] is weights.tsma.block_params["p2_std"].dt
    assert layers["g.conv_b"] is weights.g.conv_b


def test_map_writes_reach_the_forward_pass():
    """Writing into three arrays of the map a model was built from gives the
    SR of weights whose fields were set to those values directly."""
    cfg = ModelConfig(**_TOY)
    frames = _clip(16, 16, 3, seed=4)
    layers = _drawn(cfg)
    weights = TsMambaWeights.from_map(layers)
    before = ts_mamba_forward(frames, None, weights, cfg).data
    for name in ("g.res0.b1", "tsma.p2_std.dt", "r.up1_w"):
        layers[name][...] = 0.01
    want = TsMambaWeights.random(cfg, seed=0)
    want.g.res[0][1] = np.full_like(want.g.res[0][1], 0.01)
    want.tsma.block_params["p2_std"].dt = np.full_like(want.tsma.block_params["p2_std"].dt, 0.01)
    want.r.up1_w = np.full_like(want.r.up1_w, 0.01)
    after = ts_mamba_forward(frames, None, weights, cfg).data
    assert not np.array_equal(after, before)
    assert after.tobytes() == ts_mamba_forward(frames, None, want, cfg).data.tobytes()


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


@pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan")])
def test_loss_weights_must_not_be_negative(bad):
    """epsilon and lambda below 0, or NaN, are rejected; 0 is allowed."""
    x = np.zeros((3, 4, 4), dtype=np.float32)
    with pytest.raises(ValueError, match="epsilon"):
        charbonnier_loss(x, x, epsilon=bad)
    with pytest.raises(ValueError, match="lambda"):
        total_loss(0.5, 0.25, lam=bad)
    assert charbonnier_loss(x, x, epsilon=0.0) == 0.0
    assert total_loss(0.5, 0.25, lam=0.0) == 0.5


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


def _matched_hr(lr, scale, hr_ht, hr_wt):
    """HR set on the scale-times frame whose every scale-th token per axis
    sits at scale times the LR point, so the loss is zero."""
    hr = _traj(hr_ht, hr_wt, lr.height * scale, lr.width * scale, len(lr.coords), lr.token_size)
    ht, wt = lr.grid
    grid = hr.coords.reshape(len(lr.coords), hr_ht, hr_wt, 2)
    grid[:, ::scale, ::scale] = lr.coords.reshape(-1, ht, wt, 2) * scale
    return hr


def test_trajectory_loss_zero_for_matched():
    lr = _traj(4, 4, 16, 16, 3, 4)
    assert trajectory_loss(lr, _matched_hr(lr, 4, 16, 16)) == 0.0


@pytest.mark.parametrize("scale", [1, 2, 4])
def test_trajectory_loss_reads_scale_from_frame_sizes(scale):
    """At x1, x2 and x4 the HR set matched at that scale scores zero, and
    the loss is the mean L1 distance to its points divided by the scale."""
    lr = _traj(4, 4, 16, 16, 3, 4, jitter=0.5, seed=scale)
    hr = _matched_hr(lr, scale, 4 * scale, 4 * scale)
    assert trajectory_loss(lr, hr) == 0.0
    plain = _traj(4, 4, 16, 16, 3, 4)
    want = np.abs(plain.coords - lr.coords).mean()
    assert trajectory_loss(plain, hr) == pytest.approx(want, rel=1e-12)


def test_trajectory_loss_positive_and_composition():
    lr = _traj(4, 4, 16, 16, 3, 4, jitter=0.5, seed=2)
    hr = _traj(16, 16, 64, 64, 3, 4)
    t = trajectory_loss(lr, hr)
    assert t > 0
    assert total_loss(0.25, t, lam=0.1) == pytest.approx(0.25 + 0.1 * t)


def test_trajectory_loss_rejects_bad_grids():
    lr = _traj(4, 4, 16, 16, 3, 4)
    # an x4 frame whose 64 trajectories do not fill its 16 x 16 token grid
    with pytest.raises(ValueError, match="do not fit"):
        trajectory_loss(lr, _traj(8, 8, 64, 64, 3, 4))
    # a full x2 grid of another depth, and one of other token size
    for hr in (_traj(8, 8, 32, 32, 2, 4), _traj(4, 4, 32, 32, 3, 8)):
        with pytest.raises(ValueError, match="subsample"):
            trajectory_loss(lr, hr)


def test_trajectory_loss_needs_frame_size():
    """Unless the HR frame is k times the LR frame on both axes for an integer
    k >= 1 the loss raises ValueError, never ZeroDivisionError: a missing
    or negative size, a fraction of a scale, or two scales."""
    lr = _traj(4, 4, 16, 16, 2, 4)
    hr = _matched_hr(lr, 2, 8, 8)
    assert trajectory_loss(lr, hr) == 0.0
    for hr_h, hr_w in ((0, 0), (8, 8), (24, 32), (32, 24), (40, 40), (32, 0), (-32, -32)):
        with pytest.raises(ValueError, match="not k times"):
            trajectory_loss(lr, TrajectorySet(4, hr_h, hr_w, hr.coords))
    for lr_h, lr_w in ((0, 0), (16, 0), (-16, -16)):
        with pytest.raises(ValueError, match="not k times"):
            trajectory_loss(TrajectorySet(4, lr_h, lr_w, lr.coords), hr)


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
    layers = _drawn(cfg)
    assert count_params_macs(cfg, (64, 64))["params"] == sum(a.size for a in layers.values())
    # the model reads every row of the table: without any one of them it cannot be built
    for name in layers:
        with pytest.raises(KeyError, match=name):
            TsMambaWeights.from_map({k: a for k, a in layers.items() if k != name})


def test_random_weights_pinned():
    """The names, dtypes and bytes of a random model's map at a non-default
    config, in table order, are pinned, so a change to weight_table's rows,
    their inits or their draw order shows."""
    cfg = ModelConfig(channels=5, token_size=2, s_selected=1, temporal_window=3,
                      n1_res_blocks=1, n2_res_blocks=2)
    digest = hashlib.sha256()
    for name, array in _drawn(cfg, seed=3).items():
        digest.update(f"{name} {array.dtype} {array.shape}\n".encode())
        digest.update(array.tobytes())
    assert digest.hexdigest() == "b0b97ebeb41c52e88614cdffb4040b5ee5d80cba0807a9ecfd4fa318338512d4"


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
    """C = 87 is the width in 16..128 whose parameter count at the paper's
    180x320 LR size is closest to the reference design's 3.0M."""
    params = {c: count_params_macs(ModelConfig(channels=c), (180, 320))["params"]
              for c in range(16, 129)}
    best = min(params, key=lambda c: abs(params[c] - 3_000_000))
    assert best == 87 and abs(params[best] - 3_000_000) < 100_000
