from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsmamba.model import TsMambaWeights, ts_mamba_forward
from tsmamba.numerics import ModelConfig
from tsmamba.trajectory import (
    MAX_FLOW_RADIUS,
    TrajectorySet,
    block_matching_flow,
    generate_tokens,
    initial_trajectories,
    propagate_trajectories,
    select_along_trajectories,
    select_tokens,
    token_centers,
)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- loop oracles -------------------------------------------------------------

def _token_centers_loop(ht, wt, token_size):
    centers = np.zeros((ht * wt, 2), dtype=np.float64)
    half = (token_size + 1) / 2.0
    i = 0
    for r in range(ht):
        for c in range(wt):
            centers[i, 0] = r * token_size + half
            centers[i, 1] = c * token_size + half
            i += 1
    return centers


def _bilinear_sample_loop(grid, x, y):
    """Sample [H, W, 2] coordinate grid at 1-based (x, y) with clamping."""
    h, w, _ = grid.shape
    xf = min(max(x - 1.0, 0.0), h - 1.0)
    yf = min(max(y - 1.0, 0.0), w - 1.0)
    x0, y0 = int(np.floor(xf)), int(np.floor(yf))
    x1, y1 = min(x0 + 1, h - 1), min(y0 + 1, w - 1)
    ax, ay = xf - x0, yf - y0
    return ((1 - ax) * (1 - ay) * grid[x0, y0] + (1 - ax) * ay * grid[x0, y1]
            + ax * (1 - ay) * grid[x1, y0] + ax * ay * grid[x1, y1])


def _propagate_trajectories_loop(prev, f):
    """Oracle: dense per-pixel history grids, one bilinear sample per token;
    every layer but the oldest is carried."""
    f = np.asarray(f, dtype=np.float32)
    h, w = prev.height, prev.width
    t = prev.token_size
    ht, wt = h // t, w // t
    centers = _token_centers_loop(ht, wt, t)
    depth = len(prev.coords) - 1
    prev_grids = []
    for m in range(depth):
        grid = np.zeros((h, w, 2), dtype=np.float64)
        per_token = prev.coords[m].reshape(ht, wt, 2)
        for r in range(h):
            for c in range(w):
                grid[r, c] = per_token[min(r // t, ht - 1), min(c // t, wt - 1)]
        prev_grids.append(grid)
    coords = [centers.copy()]
    for m in range(depth):
        layer = np.zeros((centers.shape[0], 2), dtype=np.float64)
        for i in range(centers.shape[0]):
            x, y = centers[i]
            dx = float(_bilinear_sample_loop(np.dstack([f[0], f[0]]), x, y)[0])
            dy = float(_bilinear_sample_loop(np.dstack([f[1], f[1]]), x, y)[0])
            sampled = _bilinear_sample_loop(prev_grids[m], x + dx, y + dy)
            layer[i, 0] = min(max(sampled[0], 1.0), h)
            layer[i, 1] = min(max(sampled[1], 1.0), w)
        coords.append(layer)
    return coords


def _block_matching_flow_loop(xa, xb, radius, patch=8):
    """Oracle: per pixel, scan candidates in (magnitude, dy, dx) order and keep
    the first strict SAD improvement."""
    c, h, w = xa.shape
    flow = np.zeros((2, h, w), dtype=np.float32)
    if radius == 0:
        return flow
    half = patch // 2
    pad = half + radius
    pa = np.pad(xa, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    pb = np.pad(xb, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    cands = sorted(
        ((dy, dx) for dy in range(-radius, radius + 1)
         for dx in range(-radius, radius + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]),
    )
    for r in range(h):
        for cc in range(w):
            r0, c0 = r + pad, cc + pad
            ref = pa[:, r0 - half:r0 + half, c0 - half:c0 + half]
            best = None
            best_d = (0, 0)
            for (dy, dx) in cands:
                cand = pb[:, r0 + dy - half:r0 + dy + half,
                          c0 + dx - half:c0 + dx + half]
                sad = float(np.abs(ref - cand).sum(dtype=np.float64))
                if best is None or sad < best - 1e-12:
                    best = sad
                    best_d = (dy, dx)
            flow[0, r, cc] = best_d[0]
            flow[1, r, cc] = best_d[1]
    return flow


def _nearest_token_index(x, y, ht, wt, token_size):
    """Map a 1-based feature-pixel coordinate to its nearest token index."""
    r = int(min(max(round((x - (token_size + 1) / 2.0) / token_size), 0), ht - 1))
    c = int(min(max(round((y - (token_size + 1) / 2.0) / token_size), 0), wt - 1))
    return r * wt + c


def _select_tokens_loop(q_grid, pool_grids, traj, s):
    """Oracle: per token, score every offset's nearest token, sort the
    candidate list by (-score, offset), keep s, gather them oldest first."""
    pool = len(pool_grids)
    ht, wt, c = q_grid.shape
    q = q_grid.reshape(ht * wt, c)
    n = ht * wt
    indices = np.zeros((n, s), dtype=np.int64)
    scores = np.zeros((n, s), dtype=np.float64)
    selected = np.zeros((n, s, c), dtype=np.float32)
    for i in range(n):
        qv = q[i].astype(np.float64)
        qn = np.linalg.norm(qv)
        cand = []
        for off in range(1, pool + 1):
            coord = traj.coords[off][i]
            j = _nearest_token_index(coord[0], coord[1], ht, wt, traj.token_size)
            vv = pool_grids[off - 1].reshape(n, c)[j].astype(np.float64)
            vn = np.linalg.norm(vv)
            if qn == 0.0 or vn == 0.0:
                score = 0.0
            else:
                score = float(qv @ vv) / (qn * vn)
            cand.append((score, off, vv))
        cand.sort(key=lambda t: (-t[0], t[1]))
        chosen = cand[:s]
        for j, (score, off, _) in enumerate(chosen):
            indices[i, j] = off
            scores[i, j] = score
        for j, (_, _, vv) in enumerate(sorted(chosen, key=lambda t: -t[1])):
            selected[i, j] = vv.astype(np.float32)
    return indices, scores, selected


def _grid(rng, n, c, ht, wt):
    return rng.normal(0, 1, (n, c)).astype(np.float32).reshape(ht, wt, c)


def _pool(grids, ht, wt, c):
    """[P, ht, wt, C] candidate pool from a list of grids (P may be 0)."""
    return np.array(grids, dtype=np.float32).reshape(len(grids), ht, wt, c)


def test_token_centers_1_based():
    centers = token_centers(2, 2, 4)
    assert centers[0].tolist() == [2.5, 2.5]
    assert centers[1].tolist() == [2.5, 6.5]
    assert centers[3].tolist() == [6.5, 6.5]


@pytest.mark.parametrize("ht,wt,t", [(1, 1, 4), (3, 5, 4), (4, 2, 3), (2, 3, 1)])
def test_token_centers_match_loop_oracle(ht, wt, t):
    assert _same_bytes(token_centers(ht, wt, t), _token_centers_loop(ht, wt, t))


def test_generate_tokens_shapes():
    cfg = ModelConfig(channels=8)
    rng = np.random.default_rng(0)
    w = TsMambaWeights.random(cfg, seed=0).g
    frame = rng.normal(0, 0.3, (3, 16, 16)).astype(np.float32)
    grid = generate_tokens(frame, cfg, w)
    assert grid.shape == (4, 4, 8)
    assert grid.dtype == np.float32


def test_generate_tokens_rejects_bad_dims():
    cfg = ModelConfig(channels=8)
    w = TsMambaWeights.random(cfg, seed=0).g
    with pytest.raises(ValueError):
        generate_tokens(np.zeros((3, 15, 16)), cfg, w)


def test_initial_trajectories_cold_start():
    cfg = ModelConfig()
    traj = initial_trajectories(cfg, 16, 24)
    assert (traj.token_size, traj.grid) == (cfg.token_size, (4, 6))
    assert len(traj.coords) == cfg.temporal_window + 1
    assert _same_bytes(traj.coords[0], token_centers(4, 6, cfg.token_size))
    for layer in traj.coords[1:]:
        assert np.array_equal(layer, traj.coords[0])


@pytest.mark.parametrize("window", [1, 3, 7])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_propagate_zero_flow_keeps_centers(t, window):
    """Zero flow keeps the cold-start set byte for byte, for more steps than
    the history holds; a static scene needs no propagation.  Selection plays
    no part, so s = 0 is valid at every window."""
    cfg = ModelConfig(token_size=t, temporal_window=window, s_selected=0)
    h, w = 3 * t, 5 * t
    start = initial_trajectories(cfg, h, w)
    flow = np.zeros((2, h, w), dtype=np.float32)
    traj = start
    for _ in range(window + 3):
        traj = propagate_trajectories(traj, flow)
        assert (traj.token_size, traj.height, traj.width) == (t, h, w)
        assert len(traj.coords) == len(start.coords)
        for got, want in zip(traj.coords, start.coords):
            assert _same_bytes(got, want)


@pytest.mark.parametrize("n_frames", [1, 2, 3, 5])
def test_select_without_flows_equals_zero_flows(n_frames):
    cfg = ModelConfig(channels=4, temporal_window=3, s_selected=2)
    rng = np.random.default_rng(n_frames)
    g = TsMambaWeights.random(cfg, seed=n_frames).g
    frames = [rng.random((3, 16, 12)).astype(np.float32) for _ in range(n_frames)]
    zeros = [np.zeros((2, 16, 12), dtype=np.float32)] * n_frames
    grid, sel = select_along_trajectories(frames, None, g, cfg)
    zgrid, zsel = select_along_trajectories(frames, zeros[1:], g, cfg)
    assert _same_bytes(grid, zgrid)
    for name in ("indices", "scores"):
        assert _same_bytes(getattr(sel, name), getattr(zsel, name))
    assert _same_bytes(sel.selected, zsel.selected)
    with pytest.raises(ValueError):      # one flow too many
        select_along_trajectories(frames, zeros, g, cfg)
    # an empty list is a flow count like any other: one frame needs none, and
    # more frames must not fall back to the static cold start
    if n_frames > 1:
        with pytest.raises(ValueError, match=f"{n_frames} frames need {n_frames - 1} flows, got 0"):
            select_along_trajectories(frames, [], g, cfg)


def test_frames_older_than_the_temporal_window_are_not_read():
    """Trajectories reach T frames back, so 8 frames at T = 3 give the bytes
    of their last T + 1 = 4 frames and last T flows, no offset exceeds T, and
    G and propagation run on those frames and flows only."""
    cfg = ModelConfig(channels=4, temporal_window=3, s_selected=2, n1_res_blocks=1,
                      n2_res_blocks=1, state_dim=2)
    rng = np.random.default_rng(11)
    texture = rng.random((3, 64, 64)).astype(np.float32)
    frames = [np.roll(texture, (k, 2 * k), axis=(1, 2))[:, :32, :32] for k in range(8)]
    flows = [block_matching_flow(b, a, 2) for a, b in zip(frames, frames[1:])]
    weights = TsMambaWeights.random(cfg, seed=0)
    with mock.patch("tsmamba.trajectory.generate_tokens", wraps=generate_tokens) as g, \
            mock.patch("tsmamba.trajectory.propagate_trajectories",
                       wraps=propagate_trajectories) as p:
        _, sel = select_along_trajectories(frames, flows, weights.g, cfg)
    assert (g.call_count, p.call_count) == (4, 3)
    assert sel.indices.max() <= cfg.temporal_window
    whole = ts_mamba_forward(frames, flows, weights, cfg)
    window = ts_mamba_forward(frames[-4:], flows[-3:], weights, cfg)
    assert _same_bytes(whole.data, window.data)


def test_propagate_constant_flow_shifts_history():
    cfg = ModelConfig()
    traj = initial_trajectories(cfg, 32, 32)
    flow = np.zeros((2, 32, 32), dtype=np.float32)
    flow[0] = 4.0       # content came from one token-height down in t-1
    nxt = propagate_trajectories(traj, flow)
    got = nxt.coords[1].reshape(8, 8, 2)
    want = traj.coords[0].reshape(8, 8, 2)
    # each token's history lands on the previous set's token one row down
    assert np.allclose(got[:7, :, 0], want[1:, :, 0])
    assert np.allclose(got[:7, :, 1], want[1:, :, 1])


def test_propagate_clamps_to_bounds():
    cfg = ModelConfig()
    traj = initial_trajectories(cfg, 8, 8)
    flow = np.full((2, 8, 8), 100.0, dtype=np.float32)
    nxt = propagate_trajectories(traj, flow)
    assert np.all(nxt.coords[1][:, 0] >= 1.0)
    assert np.all(nxt.coords[1][:, 0] <= 8.0)


def test_propagate_rejects_bad_flow_dims():
    cfg = ModelConfig()
    traj = initial_trajectories(cfg, 8, 8)
    for dims in ((2, 4, 4), (2, 8), (2, 8, 8, 1), (2,)):
        with pytest.raises(ValueError, match="flow dims"):
            propagate_trajectories(traj, np.zeros(dims))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_flow_rejected(bad):
    """One non-finite flow value is a ValueError in propagation and in the
    forward pass.  Token size 3 puts each center on a pixel, so pixel (2, 2)
    enters the first token's flow sample with weight 0, where 0 * inf is NaN."""
    cfg = ModelConfig(channels=4, token_size=3, window_size=2, s_selected=1,
                      temporal_window=3, n1_res_blocks=1, n2_res_blocks=1, state_dim=2)
    flow = np.zeros((2, 6, 6), dtype=np.float32)
    flow[0, 2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        propagate_trajectories(initial_trajectories(cfg, 6, 6), flow)
    frames = [np.zeros((3, 6, 6), dtype=np.float32)] * 2
    with pytest.raises(ValueError, match="non-finite"):
        ts_mamba_forward(frames, [flow], TsMambaWeights.random(cfg, seed=0), cfg)


def _flow_chain(rng, h, w):
    """Integer, fractional and out-of-frame flows, alternating."""
    yield np.rint(rng.normal(0, 3, (2, h, w)))
    yield rng.normal(0, 2.5, (2, h, w))
    yield np.zeros((2, h, w))
    yield np.full((2, h, w), -40.0)                      # every point clamps
    yield rng.uniform(-h, h, (2, h, w))
    yield np.rint(rng.uniform(-3, 3, (2, h, w))) + 0.5
    yield np.full((2, h, w), 3.0)
    yield rng.normal(0, 6, (2, h, w))
    yield np.rint(rng.normal(0, 1, (2, h, w)))
    yield rng.uniform(0, 50, (2, h, w))


@pytest.mark.parametrize("h,w,window", [(16, 12, 4), (18, 14, 15), (8, 8, 1)])
def test_propagate_matches_loop_oracle_bytes(h, w, window):
    """A 10-step chain; (18, 14) leaves pixels beyond the token grid."""
    cfg = ModelConfig(temporal_window=window, s_selected=0)    # s <= T - 1 at T = 1
    rng = np.random.default_rng(h * w)
    traj = initial_trajectories(cfg, h, w)
    for flow in _flow_chain(rng, h, w):
        flow = flow.astype(np.float32)
        want = _propagate_trajectories_loop(traj, flow)
        traj = propagate_trajectories(traj, flow)
        assert len(traj.coords) == len(want)
        for got_layer, want_layer in zip(traj.coords, want):
            assert _same_bytes(got_layer, want_layer)


@pytest.mark.parametrize("depth", [1, 2, 5, 17])
def test_propagate_keeps_any_depth(depth):
    """A set keeps its depth through propagation, whatever the temporal
    window: the oldest layer drops out and the others match the oracle."""
    rng = np.random.default_rng(depth)
    h, w = 12, 16
    coords = np.repeat(token_centers(3, 4, 4)[None], depth, axis=0)
    traj = TrajectorySet(4, h, w, coords + rng.normal(0, 1, coords.shape))
    for flow in list(_flow_chain(rng, h, w))[:3]:
        flow = flow.astype(np.float32)
        want = _propagate_trajectories_loop(traj, flow)
        traj = propagate_trajectories(traj, flow)
        assert traj.coords.shape == (depth, 12, 2)
        for got_layer, want_layer in zip(traj.coords, want, strict=True):
            assert _same_bytes(got_layer, want_layer)


# --- block matching ---------------------------------------------------------

def _bm_frames(kind, rng, c=3, h=14, w=13):
    a = rng.random((c, h, w))
    if kind == "quantised":          # few levels: many tied SADs
        a = np.round(a * 3) / 3
    if kind == "constant_border":    # flat margin: ties along the border
        a[:, :4] = 0.5
        a[:, -3:] = 0.5
        a[:, :, :3] = 0.5
    b = np.roll(a, (1, -2), axis=(1, 2))
    b[:, 5:8, 5:8] = np.roll(a, (-1, 1), axis=(1, 2))[:, 5:8, 5:8]
    return a.astype(np.float32), b.astype(np.float32)


@pytest.mark.parametrize("kind", ["random", "quantised", "constant_border"])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_block_matching_matches_loop_oracle_bytes(kind, radius):
    a, b = _bm_frames(kind, np.random.default_rng(radius))
    got = block_matching_flow(a, b, radius=radius).data
    assert _same_bytes(got, _block_matching_flow_loop(a, b, radius))


def test_block_matching_recovers_translation():
    rng = np.random.default_rng(1)
    base = rng.random((1, 24, 24)).astype(np.float32)
    shifted = np.roll(base, shift=(2, 1), axis=(1, 2))
    # shifted[r, c] == base[r - 2, c - 1]: the source in the previous frame
    # sits at displacement (-2, -1)
    flow = block_matching_flow(shifted, base, radius=3)
    inner = flow.data[:, 8:-8, 8:-8]
    assert np.all(inner[0] == -2)
    assert np.all(inner[1] == -1)


def test_block_matching_zero_radius_and_identical():
    x = np.random.default_rng(2).random((1, 16, 16)).astype(np.float32)
    assert np.all(block_matching_flow(x, x, radius=0).data == 0)
    # identical frames: zero displacement wins every tie
    assert np.all(block_matching_flow(x, x, radius=2).data == 0)


def test_block_matching_rejects_mismatch():
    a = np.zeros((1, 8, 8))
    b = np.zeros((1, 8, 9))
    with pytest.raises(ValueError):
        block_matching_flow(a, b, radius=1)
    with pytest.raises(ValueError):
        block_matching_flow(a, a, radius=-1)
    assert np.all(block_matching_flow(a, a, radius=MAX_FLOW_RADIUS).data == 0)
    with pytest.raises(ValueError, match=f"radius must lie in \\[0, {MAX_FLOW_RADIUS}\\]"):
        block_matching_flow(a, a, radius=MAX_FLOW_RADIUS + 1)


# --- selection --------------------------------------------------------------

def _stationary_traj(ht, wt, h, w, depth, token_size=4):
    centers = token_centers(ht, wt, token_size)
    return TrajectorySet(token_size=token_size, height=h, width=w,
                         coords=np.repeat(centers[None], depth, axis=0))


def _brute_force_topk(q, vs, s):
    """Exhaustive oracle: cosine score per offset, sort by (-score, offset)."""
    out = []
    for i in range(q.shape[0]):
        qv = q[i].astype(np.float64)
        qn = np.linalg.norm(qv)
        cand = []
        for off, v in enumerate(vs, start=1):
            vv = v[i].astype(np.float64)
            vn = np.linalg.norm(vv)
            score = 0.0 if qn == 0 or vn == 0 else float(qv @ vv / (qn * vn))
            cand.append((score, off))
        cand.sort(key=lambda t: (-t[0], t[1]))
        out.append([off for (_, off) in cand[:s]])
    return out


def test_selection_matches_exhaustive_50_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ht = wt = int(rng.choice([2, 4, 8]))
        n = ht * wt
        c = int(rng.integers(2, 9))
        pool = int(rng.integers(3, 9))
        s = 3
        q = _grid(rng, n, c, ht, wt)
        vs = _pool([_grid(rng, n, c, ht, wt) for _ in range(pool)], ht, wt, c)
        traj = _stationary_traj(ht, wt, ht * 4, wt * 4, pool + 1)
        sel = select_tokens(q, vs, traj, s)
        want = _brute_force_topk(q.reshape(n, c), vs.reshape(pool, n, c), s)
        assert sel.indices.tolist() == want
        # scores sorted non-increasing
        assert np.all(np.diff(sel.scores, axis=1) <= 1e-12)


def test_selection_positive_scaling_invariance():
    rng = np.random.default_rng(4)
    ht = wt = 4
    n, c, pool, s = 16, 6, 6, 3
    q = _grid(rng, n, c, ht, wt)
    vs = _pool([_grid(rng, n, c, ht, wt) for _ in range(pool)], ht, wt, c)
    traj = _stationary_traj(ht, wt, 16, 16, pool + 1)
    base = select_tokens(q, vs, traj, s)
    scaled = select_tokens(q * 7.5, vs, traj, s)
    assert np.array_equal(base.indices, scaled.indices)


def test_selection_recency_tie_break():
    rng = np.random.default_rng(5)
    ht = wt = 2
    n, c = 4, 4
    q = _grid(rng, n, c, ht, wt)
    dup = _grid(rng, n, c, ht, wt)
    vs = _pool([dup] * 4, ht, wt, c)
    traj = _stationary_traj(ht, wt, 8, 8, 5)
    sel = select_tokens(q, vs, traj, 3)
    # identical candidates: most recent offsets win
    assert sel.indices.tolist() == [[1, 2, 3]] * n


def test_selection_zero_query_scores_zero():
    rng = np.random.default_rng(6)
    ht = wt = 2
    q = np.zeros((ht, wt, 4), dtype=np.float32)
    vs = _pool([_grid(rng, 4, 4, ht, wt) for _ in range(4)], ht, wt, 4)
    traj = _stationary_traj(ht, wt, 8, 8, 5)
    sel = select_tokens(q, vs, traj, 3)
    assert np.all(sel.scores == 0.0)
    assert sel.indices.tolist() == [[1, 2, 3]] * 4


def test_selection_selected_tokens_oldest_first():
    rng = np.random.default_rng(7)
    ht = wt = 2
    q = _grid(rng, 4, 3, ht, wt)
    vs = _pool([_grid(rng, 4, 3, ht, wt) for _ in range(5)], ht, wt, 3)
    traj = _stationary_traj(ht, wt, 8, 8, 6)
    sel = select_tokens(q, vs, traj, 3)
    for i in range(4):
        offs = sorted(sel.indices[i].tolist(), reverse=True)   # oldest first
        for j, off in enumerate(offs):
            assert np.array_equal(sel.selected[i, j],
                                  vs[off - 1].reshape(4, 3)[i])


def test_selection_rejects_oversized_s():
    rng = np.random.default_rng(8)
    q = _grid(rng, 4, 3, 2, 2)
    vs = _pool([_grid(rng, 4, 3, 2, 2)], 2, 2, 3)
    traj = _stationary_traj(2, 2, 8, 8, 2)
    with pytest.raises(ValueError):
        select_tokens(q, vs, traj, 3)


def _assert_matches_loop(q, vs, traj, s):
    sel = select_tokens(q, vs, traj, s)
    indices, scores, selected = _select_tokens_loop(q, vs, traj, s)
    assert _same_bytes(sel.indices, indices)
    assert _same_bytes(sel.scores, scores)
    assert _same_bytes(sel.selected, selected)
    return sel


@st.composite
def _selection_case(draw):
    """Random grids, token sizes, pools, s, trajectory depths (from exactly
    the pool's plus the current frame to two layers more), coordinates on the
    half-integer lattice and beyond the frame, and candidate fields that
    repeat so scores tie."""
    ht, wt = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    t = draw(st.sampled_from([1, 2, 4]))
    pool = draw(st.integers(0, 8))
    s = draw(st.integers(0, pool))
    depth = draw(st.integers(pool + 1, pool + 3))
    c = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, h, w = ht * wt, ht * t, wt * t
    q = rng.normal(0, 1, (n, c)).astype(np.float32)
    q[rng.random(n) < 0.1] = 0.0                    # zero queries score 0
    grids = []
    for _ in range(pool):
        if grids and rng.random() < 0.4:            # a duplicated grid: ties
            grids.append(grids[int(rng.integers(len(grids)))])
        else:
            v = rng.normal(0, 1, (n, c)).astype(np.float32)
            v[rng.random(n) < 0.1] = 0.0
            grids.append(v)
    # half-integer points round half to even; the rest fall anywhere,
    # including off the frame, where the nearest token clamps
    lo, hi = -t, max(h, w) + 2 * t
    coords = np.array([np.where(rng.random((n, 2)) < 0.5,
                                rng.integers(2 * lo, 2 * hi, (n, 2)) / 2.0,
                                rng.uniform(lo, hi, (n, 2)))
                       for _ in range(depth)])
    return (q.reshape(ht, wt, c), _pool(grids, ht, wt, c),
            TrajectorySet(t, h, w, coords), s)


@settings(max_examples=300)
@given(case=_selection_case())
def test_select_tokens_matches_loop_oracle_bytes(case):
    _assert_matches_loop(*case)


def test_select_tokens_empty_pool():
    rng = np.random.default_rng(9)
    q = _grid(rng, 6, 3, 2, 3)
    traj = _stationary_traj(2, 3, 8, 12, 1)
    sel = _assert_matches_loop(q, _pool([], 2, 3, 3), traj, 0)
    assert sel.indices.shape == sel.scores.shape == (6, 0)
    assert sel.selected.shape == (6, 0, 3)


def test_select_tokens_rejects_pool_deeper_than_trajectory():
    """Offset h reads trajectory layer h, so a pool deeper than the set's
    history raises instead of reading older frames through its oldest layer;
    a pool exactly as deep reads every layer."""
    rng = np.random.default_rng(10)
    ht, wt, pool = 3, 4, 6
    q = _grid(rng, ht * wt, 5, ht, wt)
    vs = _pool([_grid(rng, ht * wt, 5, ht, wt) for _ in range(pool)], ht, wt, 5)
    centers = token_centers(ht, wt, 2)
    oldest = centers[::-1]                        # token i points at token N-1-i
    for depth in (1, 3, pool):
        traj = TrajectorySet(2, 2 * ht, 2 * wt, np.array([centers] * (depth - 1) + [oldest]))
        with pytest.raises(ValueError, match="deeper than"):
            select_tokens(q, vs, traj, pool)
    traj = TrajectorySet(2, 2 * ht, 2 * wt, np.array([centers] * pool + [oldest]))
    sel = _assert_matches_loop(q, vs, traj, pool)
    for i in range(ht * wt):
        for off, token in zip(sorted(sel.indices[i], reverse=True), sel.selected[i]):
            src = ht * wt - 1 - i if off == pool else i
            assert np.array_equal(token, vs[off - 1].reshape(ht * wt, 5)[src])


def test_select_tokens_zero_candidates_score_zero():
    rng = np.random.default_rng(11)
    q = _grid(rng, 4, 3, 2, 2)
    vs = np.zeros((3, 2, 2, 3), dtype=np.float32)
    sel = _assert_matches_loop(q, vs, _stationary_traj(2, 2, 8, 8, 4), 2)
    assert _same_bytes(sel.scores, np.zeros((4, 2)))
    assert sel.indices.tolist() == [[1, 2]] * 4


def test_select_tokens_rejects_other_grid():
    rng = np.random.default_rng(12)
    q = _grid(rng, 4, 3, 2, 2)
    vs = _pool([_grid(rng, 4, 3, 1, 4)] * 2, 1, 4, 3)
    with pytest.raises(ValueError, match="grid"):
        select_tokens(q, vs, _stationary_traj(2, 2, 8, 8, 3), 1)


def test_select_tokens_rejects_negative_s():
    rng = np.random.default_rng(13)
    q = _grid(rng, 4, 3, 2, 2)
    with pytest.raises(ValueError, match="must lie in"):
        select_tokens(q, q[None], _stationary_traj(2, 2, 8, 8, 2), -1)
