"""Full TS-Mamba forward pass, losses, and parameter/MAC accounting.

The TSMA module runs two scan-shift-scan paths:

  path 1: standard Scan-1 block, then IntraWCB Scan-1 -> U(1) -> Scan-3 and
          InterWCB Scan-1 -> UL(3) -> Scan-3 in parallel;
  path 2: standard Scan-2 block, then IntraWCB Scan-2 -> L(1) -> Scan-4 and
          InterWCB Scan-2 -> UL(3) -> Scan-4 (LU == UL).

A shifted block reads its path's standard-block output and scans each window
with the second curve shifted inside that window (`window_scans_for_grid`).

Branch outputs are concatenated and fused by a pointwise convolution: the
deformable attention block (DAB) of the reference design is substituted by
this pointwise fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .numerics import ModelConfig, Tensor, bicubic_upsample, conv2d, pixel_shuffle, residual_block
from .scanorder import ScanVariant, ShiftSpec, generate_scan, tile_windows
from .ssm import SelectiveScanParams, ssm_block
from .trajectory import GWeights, select_along_trajectories

__all__ = [
    "TSMA_PATHS",
    "TsmaWeights",
    "RWeights",
    "TsMambaWeights",
    "weight_map",
    "set_weight",
    "tsma_forward",
    "ts_mamba_forward",
    "charbonnier_loss",
    "trajectory_loss",
    "total_loss",
    "count_params_macs",
]


# The two branches of the reference design: (block-name prefix, standard
# scan, IntraWCB (shift, second scan), InterWCB (shift, second scan)).  A
# shifted block's first scan is its branch's standard block, whose output it
# reads.
TSMA_PATHS = (
    ("p1", ScanVariant.Scan1, ("U1", ScanVariant.Scan3), ("UL3", ScanVariant.Scan3)),
    ("p2", ScanVariant.Scan2, ("L1", ScanVariant.Scan4), ("UL3", ScanVariant.Scan4)),
)


def window_scans_for_grid(ht, wt, config, variant, shift=None):
    """Int array [W, w*w] of per-window token-index scan sequences covering
    the grid, windows in row-major order.

    Each window is scanned with the variant's w x w curve.  With a shift name
    (for example "UL3"), the curve's visit at position p reads the window's
    cell p - d, wrapped modulo w: the shift stays inside each window.
    """
    w = config.window_size
    curve = generate_scan(variant, w).cells
    if shift is not None:
        d = ShiftSpec.parse(shift)
        curve = (curve - (d.delta_row, d.delta_col)) % w
    cells = tile_windows(curve, w, ht, wt)
    return cells[..., 0] * wt + cells[..., 1]


@dataclass
class TsmaWeights:
    """Per-block SSM parameter packs plus the fusion conv."""

    concat_proj_w: np.ndarray     # [(C, (s+1)*C)] merge Q with V_s
    concat_proj_b: np.ndarray
    fusion_w: np.ndarray          # pointwise conv over concatenated branches
    fusion_b: np.ndarray
    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    block_params: dict            # name -> SelectiveScanParams, L = window_size^2*(s+1)

    @classmethod
    def random(cls, config, rng):
        c = config.channels
        s = config.s_selected
        L = config.window_size ** 2 * (s + 1)
        names = [f"{prefix}_{branch}" for prefix, *_ in TSMA_PATHS
                 for branch in ("std", "intra", "inter")]
        blocks = {n: SelectiveScanParams.init(c, config.state_dim, L, rng)
                  for n in names}
        std = 0.05
        return cls(
            concat_proj_w=rng.normal(0, std, (c, (s + 1) * c)),
            concat_proj_b=np.zeros(c),
            block_params=blocks,
            fusion_w=rng.normal(0, std, (c, 6 * c, 1, 1)),
            fusion_b=np.zeros(c),
            ln_gamma=np.ones(c),
            ln_beta=np.zeros(c),
        )


def tsma_forward(q_grid, selection, weights, config):
    """TSMA(Q, V_s): [ht, wt, C] token grid -> aggregated [ht, wt, C] grid.

    The six SSM blocks run on the ht x wt token grid zero-padded on the
    bottom and right to a multiple of config.window_size (as Swin and VMamba
    pad); their outputs are cropped back to ht x wt before the pointwise
    fusion conv, and the residual adds the unpadded merged tokens.
    """
    ht, wt, c = q_grid.shape
    n = ht * wt
    q = q_grid.reshape(n, c)
    s = config.s_selected
    # concatenate Q with V_s along channels and project back to width C
    v = selection.selected.reshape(n, s * c)
    merged = np.concatenate([q, v], axis=1) @ weights.concat_proj_w.T.astype(np.float32)
    merged = merged + weights.concat_proj_b.astype(np.float32)

    ws = config.window_size
    hp, wp = math.ceil(ht / ws) * ws, math.ceil(wt / ws) * ws

    def pad(rows):
        """[ht*wt, ...] token rows -> [hp*wp, ...], zeros bottom and right."""
        grid = rows.reshape(ht, wt, *rows.shape[1:])
        widths = [(0, hp - ht), (0, wp - wt)] + [(0, 0)] * (rows.ndim - 1)
        return np.pad(grid, widths).reshape(hp * wp, *rows.shape[1:])

    v_pad = pad(selection.selected)

    def run_block(tokens, name, shift, variant):
        scans = window_scans_for_grid(hp, wp, config, variant, shift)
        return ssm_block(tokens, scans, v_pad, s, weights.block_params[name],
                         gamma=weights.ln_gamma, beta=weights.ln_beta)

    x = pad(merged)
    outs = []
    for prefix, std_var, intra, inter in TSMA_PATHS:
        trunk = run_block(x, f"{prefix}_std", None, std_var)
        outs.append(trunk)
        outs.append(run_block(trunk, f"{prefix}_intra", *intra))
        outs.append(run_block(trunk, f"{prefix}_inter", *inter))
    cat = np.concatenate(outs, axis=1)    # [hp*wp, 6C]
    # pointwise fusion conv (the DAB substitution) with a residual skip
    fused_in = cat.reshape(hp, wp, 6 * c)[:ht, :wt].transpose(2, 0, 1)
    fused = conv2d(fused_in, weights.fusion_w, weights.fusion_b)
    out = fused.transpose(1, 2, 0).reshape(n, c) + merged   # residual
    return out.reshape(ht, wt, c)


@dataclass
class RWeights:
    """Reconstruction head R(.): conv, N2 residual blocks, conv, upsampling."""

    head_w: np.ndarray
    head_b: np.ndarray
    up1_w: np.ndarray            # conv to 4*C channels for x2 pixel shuffle
    up1_b: np.ndarray
    up2_w: np.ndarray
    up2_b: np.ndarray
    tail_w: np.ndarray           # conv to 3 channels
    tail_b: np.ndarray
    res: list                    # list of [w1, b1, w2, b2]

    @classmethod
    def random(cls, config, rng):
        c = config.channels
        std = 0.05
        res = []
        for _ in range(config.n2_res_blocks):
            res.append([rng.normal(0, std, (c, c, 3, 3)), np.zeros(c),
                        rng.normal(0, std, (c, c, 3, 3)), np.zeros(c)])
        return cls(
            head_w=rng.normal(0, std, (c, c, 3, 3)), head_b=np.zeros(c),
            res=res,
            up1_w=rng.normal(0, std, (4 * c, c, 3, 3)), up1_b=np.zeros(4 * c),
            up2_w=rng.normal(0, std, (4 * c, c, 3, 3)), up2_b=np.zeros(4 * c),
            tail_w=rng.normal(0, std, (3, c, 3, 3)), tail_b=np.zeros(3),
        )


def untokenize(grid, config, proj_w):
    """Inverse of the patch projection: [ht, wt, C] tokens -> [C, H, W].

    The result is the transposed view of an [H, W, C] buffer, built with one
    copy, so R's first conv reads it channels last.
    """
    t = config.token_size
    ht, wt, c_token = grid.shape
    x = grid.reshape(ht * wt, c_token) @ proj_w.astype(np.float32)   # [N, C*t*t]
    c = proj_w.shape[1] // (t * t)
    feature = x.reshape(ht, wt, c, t, t).transpose(0, 3, 1, 4, 2).reshape(ht * t, wt * t, c)
    return feature.transpose(2, 0, 1)


def reconstruct(feature, rw, config):
    """R(.): conv -> N2 residual blocks -> two x2 pixel-shuffle stages -> conv."""
    x = conv2d(feature, rw.head_w, rw.head_b, padding=1)
    for (w1, b1, w2, b2) in rw.res:
        x = residual_block(x, w1, b1, w2, b2)
    x = conv2d(x, rw.up1_w, rw.up1_b, padding=1)
    x = pixel_shuffle(x, 2)
    x = conv2d(x, rw.up2_w, rw.up2_b, padding=1)
    x = pixel_shuffle(x, 2)
    return conv2d(x, rw.tail_w, rw.tail_b, padding=1)


@dataclass
class TsMambaWeights:
    g: GWeights
    tsma: TsmaWeights
    r: RWeights

    @classmethod
    def random(cls, config, seed=0):
        rng = np.random.default_rng(seed)
        return cls(g=GWeights.random(config, rng),
                   tsma=TsmaWeights.random(config, rng),
                   r=RWeights.random(config, rng))


_RES_PARTS = ("w1", "b1", "w2", "b2")


def _weight_slots(weights):
    """name -> (container, key) for every weight array, in bundle order, named
    by the dataclass fields: the array is container[key], where the container
    is a part's vars() or a residual block's [w1, b1, w2, b2] list."""
    slots = {}

    def walk(prefix, part):
        for f in fields(part):
            value = getattr(part, f.name)
            if isinstance(value, dict):          # block name -> SelectiveScanParams
                for block, params in value.items():
                    walk(f"{prefix}.{block}", params)
            elif isinstance(value, list):        # residual blocks
                for i, block in enumerate(value):
                    for j, name in enumerate(_RES_PARTS):
                        slots[f"{prefix}.{f.name}{i}.{name}"] = (block, j)
            else:
                slots[f"{prefix}.{f.name}"] = (vars(part), f.name)

    for f in fields(weights):
        walk(f.name, getattr(weights, f.name))
    return slots


def weight_map(weights):
    """name -> array for every weight array of a TsMambaWeights (the names of
    a weight bundle's manifest)."""
    return {name: c[k] for name, (c, k) in _weight_slots(weights).items()}


def set_weight(weights, name, array):
    """Replace the named weight array in place; its shape must stay the same."""
    slot = _weight_slots(weights).get(name)
    if slot is None:
        raise ValueError(f"unknown layer {name!r}")
    c, k = slot
    if tuple(array.shape) != np.shape(c[k]):
        raise ValueError(f"layer {name}: shape {tuple(array.shape)} != {np.shape(c[k])}")
    c[k] = array


def ts_mamba_forward(frames, flows, weights, config):
    """Online forward over a frame list; returns the SR of the last frame.

    frames : list of [3, H, W] arrays, oldest first, last entry is frame t.
    flows  : list of [2, H, W] flows from frame k to k-1 (len(frames)-1
             entries) or None for a static scene.
    Returns a Tensor, whose callers read the [3, sH, sW] SR array at .data.
    """
    config.validate()
    if any(np.shape(f)[0] != 3 for f in frames):
        raise ValueError("frames must have 3 channels")
    q_grid, selection = select_along_trajectories(frames, flows, weights.g, config)
    agg = tsma_forward(q_grid, selection, weights.tsma, config)
    feature = untokenize(agg, config, weights.g.proj_w)
    residual = reconstruct(feature, weights.r, config)
    skip = bicubic_upsample(frames[-1], config.scale)
    return Tensor(residual + skip)


# --- losses -----------------------------------------------------------------

def charbonnier_loss(sr, hr, epsilon=1e-4):
    """Mean over elements of sqrt(diff^2 + eps^2); equals eps at sr == hr."""
    # float64 throughout, so finite-difference checks stay exact
    x, y = np.asarray(sr, dtype=np.float64), np.asarray(hr, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dim mismatch {x.shape} vs {y.shape}")
    d = x - y
    return float(np.sqrt(d * d + epsilon * epsilon).mean())


def trajectory_loss(lr, hr, scale):
    """Mean L1 distance between LR trajectories and (HR down-sampled)/scale.

    HR trajectories are sub-sampled by keeping every scale-th token
    trajectory per axis of the HR set's grid; coordinates divide by scale.
    The absolute differences are summed one history layer at a time.
    """
    if len(lr.coords) != len(hr.coords):
        raise ValueError("temporal ranges differ")
    lr_n = lr.coords[0].shape[0]
    hr_n = hr.coords[0].shape[0]
    if hr_n % (scale * scale) or hr_n // (scale * scale) != lr_n:
        raise ValueError(
            f"HR token count {hr_n} does not subsample to LR count {lr_n} at scale {scale}")
    hr_ht, hr_wt = hr.grid
    if hr_ht * hr_wt != hr_n:
        raise ValueError(f"{hr_n} HR trajectories do not fit the {hr_ht}x{hr_wt} token grid")
    keep = np.arange(hr_n).reshape(hr_ht, hr_wt)[::scale, ::scale].ravel()
    targets = hr.coords[:, keep] / float(scale)
    total = sum(float(np.abs(layer - target).sum()) for layer, target in zip(lr.coords, targets))
    return total / lr.coords.size


def total_loss(spa, trj, lam=0.1):
    return float(spa + lam * trj)


# --- parameter / MAC accounting --------------------------------------------

def _conv_cost(cin, cout, k, h, w):
    params = cout * (cin * k * k + 1)
    macs = cout * cin * k * k * h * w
    return params, macs


def count_params_macs(config, lr_dims):
    """Closed-form parameter and MAC counts for one forward pass."""
    h, w = lr_dims
    c = config.channels
    t = config.token_size
    if h < t or w < t or h % t or w % t:
        raise ValueError(f"frame {h}x{w} is not a positive multiple of token_size {t}")
    s = config.s_selected
    n = config.state_dim
    ht, wt = h // t, w // t
    ntok = ht * wt
    L = config.window_size ** 2 * (s + 1)
    # TSMA pads the token grid to a window multiple
    n_windows = math.ceil(ht / config.window_size) * math.ceil(wt / config.window_size)

    breakdown = {}

    def add(name, params, macs):
        breakdown[name] = {"params": int(params), "macs": int(macs)}

    # G(.)
    p, m = _conv_cost(3, c, 3, h, w)
    add("g.conv", p, m)
    # a residual block is two C -> C 3x3 convs at the LR size
    res_p, res_m = _conv_cost(c, c, 3, h, w)
    add("g.res_blocks", 2 * config.n1_res_blocks * res_p, 2 * config.n1_res_blocks * res_m)
    add("g.proj", c * (t * t * c + 1), ntok * c * t * t * c)

    # TSMA
    add("tsma.concat_proj", c * ((s + 1) * c + 1), ntok * c * (s + 1) * c)
    # six SSM blocks, each with A[C,N], D[C], dt[L,C], B[L,N], C[L,N], and
    # the layer-norm gamma/beta they share
    ssm_params_per_block = c * n + c + L * c + 2 * L * n
    ssm_macs_per_block = n_windows * L * (c * n * 6)
    add("tsma.ssm_blocks", 6 * ssm_params_per_block + 2 * c, 6 * ssm_macs_per_block)
    p, m = _conv_cost(6 * c, c, 1, ht, wt)
    add("tsma.fusion", p, m)

    # R(.)
    p, m = _conv_cost(c, c, 3, h, w)
    add("r.head", p, m)
    add("r.res_blocks", 2 * config.n2_res_blocks * res_p, 2 * config.n2_res_blocks * res_m)
    p1, m1 = _conv_cost(c, 4 * c, 3, h, w)
    p2, m2 = _conv_cost(c, 4 * c, 3, 2 * h, 2 * w)
    add("r.upsample", p1 + p2, m1 + m2)
    p, m = _conv_cost(c, 3, 3, 4 * h, 4 * w)
    add("r.tail", p, m)

    params = sum(v["params"] for v in breakdown.values())
    macs = sum(v["macs"] for v in breakdown.values())
    return {"params": params, "macs": macs, "breakdown": breakdown}


def calibrate_channels():
    """Sweep C = 16..128 for the width whose params are closest to the reference
    design's 3.0M; report its counts at the paper's 180x320 LR size."""
    best = None
    for c in range(16, 129):
        counts = count_params_macs(ModelConfig(channels=c), (180, 320))
        gap = abs(counts["params"] - 3_000_000)
        if best is None or gap < best["gap"]:
            best = {"channels": c, "gap": gap, **counts}
    best.pop("breakdown", None)
    return best
