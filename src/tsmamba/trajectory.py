"""Token grids, trajectories, block-matching flow, and top-s token selection.

A token grid is one float32 [ht, wt, C] array.  Trajectory coordinates
follow a 1-based feature-pixel convention: x is the row coordinate in [1, H],
y the column coordinate in [1, W].  A trajectory's endpoint is anchored at its
token's center in the current frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import Tensor, conv2d, residual_block

__all__ = [
    "TrajectorySet",
    "SelectionResult",
    "generate_tokens",
    "token_centers",
    "propagate_trajectories",
    "block_matching_flow",
    "select_tokens",
    "select_along_trajectories",
    "GWeights",
]


@dataclass
class TrajectorySet:
    """coords[m] is the [N, 2] (x=row, y=col) layer for frame t-m.

    m = 0 is the current frame (endpoint); m grows into the past.  The
    history is truncated to the temporal window length.  The N trajectories
    belong to the row-major grid of token_size x token_size tokens over a
    height x width frame.
    """

    token_size: int
    height: int
    width: int
    coords: np.ndarray     # [depth, N, 2], float64, 1-based

    @property
    def grid(self):
        """(ht, wt): the token grid the trajectories are anchored on."""
        return self.height // self.token_size, self.width // self.token_size


@dataclass
class SelectionResult:
    """Per-token selected temporal offsets, scores, and gathered tokens.

    indices[i, j] is the j-th chosen frame offset h_j in [1, T-1] (1 = the
    most recent previous frame); scores sorted non-increasing per token.
    """

    indices: np.ndarray       # [N, s] int
    scores: np.ndarray        # [N, s] float
    selected: np.ndarray      # [N, s, C] float32, ascending frame index (old -> new)


@dataclass
class GWeights:
    """Weights for G(.): lead conv, N1 residual blocks, patch projection."""

    conv_w: np.ndarray
    conv_b: np.ndarray
    proj_w: np.ndarray        # [C_token, token_size^2 * C_feat]
    proj_b: np.ndarray
    res: list                 # list of [w1, b1, w2, b2]

    @classmethod
    def random(cls, config, rng, c_in=3):
        c = config.channels
        t = config.token_size
        std = 0.05
        res = []
        for _ in range(config.n1_res_blocks):
            res.append([rng.normal(0, std, (c, c, 3, 3)), np.zeros(c),
                        rng.normal(0, std, (c, c, 3, 3)), np.zeros(c)])
        return cls(
            conv_w=rng.normal(0, std, (c, c_in, 3, 3)),
            conv_b=np.zeros(c),
            res=res,
            proj_w=rng.normal(0, std, (c, t * t * c)),
            proj_b=np.zeros(c),
        )


def token_centers(ht, wt, token_size):
    """[N, 2] 1-based feature-pixel centers of the token grid, row-major."""
    half = (token_size + 1) / 2.0
    rows, cols = np.meshgrid(np.arange(ht) * token_size + half,
                             np.arange(wt) * token_size + half, indexing="ij")
    return np.stack([rows.ravel(), cols.ravel()], axis=1)


def generate_tokens(frame, config, weights):
    """G(.): conv + N1 residual blocks, then patchify + linear projection.

    Returns the float32 token grid [ht, wt, C].  Patches are flattened
    channel-major before projection.
    """
    x = np.asarray(frame, dtype=np.float32)
    _, h, w = x.shape
    t = config.token_size
    if h % t or w % t:
        raise ValueError(f"frame dims {h}x{w} not divisible by token_size {t}")
    feat = conv2d(x, weights.conv_w, weights.conv_b, padding=1)
    for (w1, b1, w2, b2) in weights.res:
        feat = residual_block(feat, w1, b1, w2, b2)
    c = feat.shape[0]
    ht, wt = h // t, w // t
    patches = (
        feat.reshape(c, ht, t, wt, t)
        .transpose(1, 3, 0, 2, 4)       # [ht, wt, c, t, t]: channel-major flatten
        .reshape(ht * wt, c * t * t)
    )
    tokens = patches @ weights.proj_w.astype(np.float32).T + weights.proj_b.astype(np.float32)
    return tokens.reshape(ht, wt, c)


def initial_trajectories(config, height, width):
    """Cold start: history frames are treated as copies of the first frame."""
    t = config.token_size
    centers = token_centers(height // t, width // t, t)
    depth = config.temporal_window + 1
    return TrajectorySet(
        token_size=t,
        height=height,
        width=width,
        coords=np.repeat(centers[None], depth, axis=0),
    )


def _bilinear_taps(x, y, h, w):
    """Corner indices and weights for bilinear sampling of an [h, w] grid at
    1-based float64 positions (x, y), clamped to the grid.

    Returns ((x0, y0, x1, y1), (w00, w01, w10, w11)); a sample is
    w00*g[x0, y0] + w01*g[x0, y1] + w10*g[x1, y0] + w11*g[x1, y1], summed in
    that order.
    """
    xf = np.minimum(np.maximum(x - 1.0, 0.0), h - 1.0)
    yf = np.minimum(np.maximum(y - 1.0, 0.0), w - 1.0)
    x0 = np.floor(xf).astype(np.intp)
    y0 = np.floor(yf).astype(np.intp)
    x1, y1 = np.minimum(x0 + 1, h - 1), np.minimum(y0 + 1, w - 1)
    ax, ay = xf - x0, yf - y0
    weights = ((1 - ax) * (1 - ay), (1 - ax) * ay, ax * (1 - ay), ax * ay)
    return (x0, y0, x1, y1), weights


def propagate_trajectories(prev, flow, config):
    """Advance trajectories one frame using flow from frame t to t-1.

    flow[0] is the row displacement dx, flow[1] the column displacement dy:
    content at (x, y) in frame t came from (x + dx, y + dy) in frame t-1.
    For each token center, its frame-(t-1) position is looked up; history
    coordinates are bilinearly carried over from the previous trajectory
    field and clamped to bounds.  The previous field is piecewise constant
    over each token's pixels (edge pixels beyond the token grid take the last
    token), so each bilinear corner reads its token's coordinates directly.
    """
    f = np.asarray(flow, dtype=np.float32)
    if f.shape != (2, prev.height, prev.width):
        raise ValueError(f"flow dims {f.shape} do not match {prev.height}x{prev.width}")
    if not np.isfinite(f).all():
        raise ValueError("flow holds non-finite values")
    h, w = prev.height, prev.width
    t = prev.token_size
    ht, wt = prev.grid
    centers = token_centers(ht, wt, t)
    x, y = centers[:, 0], centers[:, 1]

    # flow at the token centers; the float64 weights promote the samples
    (x0, y0, x1, y1), (w00, w01, w10, w11) = _bilinear_taps(x, y, h, w)
    dx = w00 * f[0, x0, y0] + w01 * f[0, x0, y1] + w10 * f[0, x1, y0] + w11 * f[0, x1, y1]
    dy = w00 * f[1, x0, y0] + w01 * f[1, x0, y1] + w10 * f[1, x1, y0] + w11 * f[1, x1, y1]

    # history at the frame-(t-1) positions, all carried layers at once
    depth = min(len(prev.coords), config.temporal_window)
    hist = prev.coords[:depth]
    row_token = np.minimum(np.arange(h) // t, ht - 1) * wt
    col_token = np.minimum(np.arange(w) // t, wt - 1)
    (x0, y0, x1, y1), taps = _bilinear_taps(x + dx, y + dy, h, w)
    w00, w01, w10, w11 = (a[:, None] for a in taps)
    sampled = (w00 * hist[:, row_token[x0] + col_token[y0]]
               + w01 * hist[:, row_token[x0] + col_token[y1]]
               + w10 * hist[:, row_token[x1] + col_token[y0]]
               + w11 * hist[:, row_token[x1] + col_token[y1]])
    sampled[..., 0] = np.minimum(np.maximum(sampled[..., 0], 1.0), h)
    sampled[..., 1] = np.minimum(np.maximum(sampled[..., 1], 1.0), w)
    return TrajectorySet(t, h, w, np.concatenate([centers[None], sampled]))


# largest block-matching radius, checked before the frames are padded by it
MAX_FLOW_RADIUS = 32


def block_matching_flow(a, b, radius):
    """Per-pixel SAD block matching from a to b over (2r+1)^2 displacements
    of 8x8 patches.

    Ties break by smaller displacement magnitude, then lexicographic (dy, dx)
    where dy is the row offset; at radius 0 the zero displacement is the only
    one.  The SAD of every pixel's patch is computed for one displacement at a
    time over the whole frame, as float64 box sums.  Returns a Tensor, whose
    callers read the [2, H, W] flow at .data.
    """
    xa = np.asarray(a, dtype=np.float32)
    xb = np.asarray(b, dtype=np.float32)
    if xa.shape != xb.shape:
        raise ValueError("block_matching_flow requires equal dims")
    if not 0 <= radius <= MAX_FLOW_RADIUS:
        raise ValueError(f"radius must lie in [0, {MAX_FLOW_RADIUS}], got {radius}")
    c, h, w = xa.shape
    flow = np.zeros((2, h, w), dtype=np.float32)
    half = 4
    size = 2 * half               # pixel (r, c)'s patch spans r-half .. r+half-1
    pad = half + radius
    pa = np.pad(xa, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    pb = np.pad(xb, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    # candidate order: sorted by (magnitude, dy, dx) so the strict-improvement
    # update below keeps the first minimum, which is the tie-break
    cands = sorted(
        ((dy, dx) for dy in range(-radius, radius + 1)
         for dx in range(-radius, radius + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]),
    )
    ext_h, ext_w = h + size - 1, w + size - 1   # rows/cols every patch touches
    ref = pa[:, radius:radius + ext_h, radius:radius + ext_w]

    def sad(dy, dx):
        """[h, w] float64 SAD of every pixel's patch: summed over channels,
        then over the patch's rows, then its columns."""
        cand = pb[:, radius + dy:radius + dy + ext_h, radius + dx:radius + dx + ext_w]
        diff = np.abs(ref - cand).sum(axis=0, dtype=np.float64)
        diff = sliding_window_view(diff, size, axis=0).sum(axis=-1)
        return sliding_window_view(diff, size, axis=1).sum(axis=-1)

    best = sad(*cands[0])        # the zero displacement, which flow starts at
    for (dy, dx) in cands[1:]:
        cost = sad(dy, dx)
        better = cost < best - 1e-12
        best[better] = cost[better]
        flow[0][better] = dy
        flow[1][better] = dx
    return Tensor(flow)


def _dots(a, b):
    """Dot products over the last axis as BLAS vector dots: matmul of
    [..., 1, C] by [..., C, 1] gives the bits of np.dot on each pair."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def select_tokens(q_grid, pool, traj, s):
    """Top-s most similar previous-frame tokens along each trajectory (Eq. 7).

    q_grid is the [ht, wt, C] token grid of frame t and pool the [P, ht, wt, C]
    grids of the candidate frames, pool[0] the most recent previous frame
    (offset 1).  Offset h reads trajectory layer min(h, depth - 1) and picks
    the token nearest to that point (the rounding goes half to even).
    Scores are float64 cosine similarities, 0.0 when either token is zero;
    the dots and squared norms are BLAS vector dots through matmul, the same
    bits as np.dot and np.linalg.norm.  Ties break toward the more recent
    frame.  Returned selected tokens are ordered by ascending frame index
    (oldest first).
    """
    p = len(pool)
    if not 0 <= s <= p:
        raise ValueError(f"s={s} must lie in [0, {p}], the candidate pool")
    if pool.shape[1:] != q_grid.shape:
        raise ValueError(f"candidate pool {pool.shape} must lie on the query grid {q_grid.shape}")
    ht, wt, c = q_grid.shape
    t = traj.token_size
    # [N, P] candidate token index of every (token, offset) pair
    depth = np.minimum(np.arange(1, p + 1), len(traj.coords) - 1)
    rc = np.rint((traj.coords[depth].swapaxes(0, 1) - (t + 1) / 2.0) / t)
    cand = (np.clip(rc[..., 0], 0, ht - 1).astype(np.intp) * wt
            + np.clip(rc[..., 1], 0, wt - 1).astype(np.intp))
    v = pool.reshape(p, ht * wt, c)[np.arange(p), cand]              # [N, P, C]
    qv, vv = q_grid.reshape(ht * wt, c).astype(np.float64)[:, None], v.astype(np.float64)
    qn, vn = np.sqrt(_dots(qv, qv)), np.sqrt(_dots(vv, vv))           # [N, 1], [N, P]
    dots = _dots(qv, vv)
    score = np.divide(dots, qn * vn, out=np.zeros_like(dots), where=(qn != 0) & (vn != 0))
    # score descending, then recency (smaller offset) first
    order = np.lexsort((np.broadcast_to(np.arange(p), score.shape), -score))[:, :s]
    oldest_first = np.sort(order, axis=1)[:, ::-1]
    return SelectionResult(
        indices=(order + 1).astype(np.int64),
        scores=np.take_along_axis(score, order, axis=1),
        selected=np.take_along_axis(v, oldest_first[..., None], axis=1),
    )


def select_along_trajectories(frames, flows, g_weights, config):
    """Front end of the forward pass: G(.) on every frame, trajectory
    propagation, and top-s selection (s = config.s_selected) over the
    previous frames' tokens.

    frames : list of [C, H, W] arrays, oldest first, last entry is frame t.
    flows  : list of [2, H, W] flows from frame k to k-1 (len(frames)-1
             entries) or None for a static scene, whose trajectories stay
             the cold-start set (zero flow propagates it unchanged).
    Returns (the [ht, wt, C] token grid of frame t, SelectionResult).
    """
    if not frames:
        raise ValueError("need at least one frame")
    dims = np.shape(frames[0])
    if any(np.shape(f) != dims for f in frames):
        raise ValueError("all frames must share dims [C,H,W]")
    grids = np.stack([generate_tokens(frame, config, g_weights) for frame in frames])

    traj = initial_trajectories(config, dims[1], dims[2])
    if flows is not None:
        if len(flows) != len(frames) - 1:
            raise ValueError(f"{len(frames)} frames need {len(frames) - 1} flows, "
                             f"got {len(flows)}")
        for flow in flows:
            traj = propagate_trajectories(traj, flow, config)

    # candidate pool: offset h = 1, 2, ... reads frame F-1-h; offsets past the
    # oldest frame repeat it, which pads the cold start to s candidates
    s = config.s_selected
    last = len(frames) - 1
    offsets = np.arange(1, max(last, s, 1) + 1)
    return grids[-1], select_tokens(grids[-1], grids[np.maximum(last - offsets, 0)], traj, s)
