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

from .numerics import Tensor, bicubic_upsample, conv2d, draw_weights, pixel_shuffle, residual_block
from .scanorder import ScanVariant, ShiftSpec, generate_scan, tile_windows
from .ssm import SelectiveScanParams, ssm_block
from .trajectory import GWeights, select_along_trajectories

__all__ = [
    "TSMA_PATHS",
    "TsmaWeights",
    "RWeights",
    "TsMambaWeights",
    "weight_table",
    "part_from_map",
    "weight_map",
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
# the six S6 blocks in draw order: each path's standard, IntraWCB, InterWCB
SSM_BLOCKS = tuple(f"{prefix}_{branch}" for prefix, *_ in TSMA_PATHS
                   for branch in ("std", "intra", "inter"))


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
    # concatenate Q with V_s along channels and project back to width C
    v = selection.selected.reshape(n, -1)
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
        return ssm_block(tokens, scans, v_pad, weights.block_params[name],
                         weights.ln_gamma, weights.ln_beta)

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


def reconstruct(feature, rw):
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
        """The model at config, each weight_table row drawn in order from seed."""
        return cls.from_map(draw_weights(weight_table(config), np.random.default_rng(seed)))

    @classmethod
    def from_map(cls, layers):
        """weight_map's inverse: the model over a flat map, holding its arrays."""
        return cls(g=part_from_map(GWeights, layers, "g"),
                   tsma=part_from_map(TsmaWeights, layers, "tsma"),
                   r=part_from_map(RWeights, layers, "r"))


def weight_table(config, c_in=3):
    """weight_map name -> (shape, init) of each weight of the model at config
    (see numerics.draw_weights), in the order a random model draws them;
    c_in is the channel count of the frames G reads."""
    c, t, s = config.channels, config.token_size, config.s_selected

    def layer(w, b, *shape):
        return {w: (shape, ("normal", 0.05)), b: (shape[:1], ("fill", 0.0))}

    def res_blocks(prefix, blocks):
        return {name: row for i in range(blocks) for j in (1, 2) for name, row in
                layer(f"{prefix}.res{i}.w{j}", f"{prefix}.res{i}.b{j}", c, c, 3, 3).items()}

    ssm = SelectiveScanParams.table(c, config.state_dim, config.window_size ** 2 * (s + 1))
    return {
        **res_blocks("g", config.n1_res_blocks),
        **layer("g.conv_w", "g.conv_b", c, c_in, 3, 3),
        **layer("g.proj_w", "g.proj_b", c, t * t * c),
        **{f"tsma.{block}.{name}": row for block in SSM_BLOCKS for name, row in ssm.items()},
        **layer("tsma.concat_proj_w", "tsma.concat_proj_b", c, (s + 1) * c),
        **layer("tsma.fusion_w", "tsma.fusion_b", c, 6 * c, 1, 1),
        "tsma.ln_gamma": ((c,), ("fill", 1.0)), "tsma.ln_beta": ((c,), ("fill", 0.0)),
        **res_blocks("r", config.n2_res_blocks),
        **layer("r.head_w", "r.head_b", c, c, 3, 3),
        **layer("r.up1_w", "r.up1_b", 4 * c, c, 3, 3),
        **layer("r.up2_w", "r.up2_b", 4 * c, c, 3, 3),
        **layer("r.tail_w", "r.tail_b", 3, c, 3, 3),
    }


def part_from_map(cls, layers, prefix):
    """Part cls (GWeights, TsmaWeights or RWeights) over a flat map's prefix.* arrays."""
    values = {}
    for f in fields(cls):
        if f.name == "res":
            blocks = {name.split(".")[1] for name in layers if name.startswith(f"{prefix}.res")}
            values["res"] = [[layers[f"{prefix}.res{i}.{p}"] for p in ("w1", "b1", "w2", "b2")]
                             for i in range(len(blocks))]
        elif f.name == "block_params":
            values["block_params"] = {
                block: SelectiveScanParams(**{p.name: layers[f"{prefix}.{block}.{p.name}"]
                                              for p in fields(SelectiveScanParams)})
                for block in SSM_BLOCKS}
        else:
            values[f.name] = layers[f"{prefix}.{f.name}"]
    return cls(**values)


def weight_map(weights):
    """name -> array for every weight array of a TsMambaWeights, in bundle
    order, named by the dataclass fields (the names of a weight bundle's
    manifest).  The arrays are the live ones: a write into one is a write
    into the model."""
    layers = {}

    def walk(prefix, part):
        for f in fields(part):
            value = getattr(part, f.name)
            if isinstance(value, dict):          # block name -> SelectiveScanParams
                for block, params in value.items():
                    walk(f"{prefix}.{block}", params)
            elif isinstance(value, list):        # residual blocks
                for i, block in enumerate(value):
                    for name, array in zip(("w1", "b1", "w2", "b2"), block):
                        layers[f"{prefix}.{f.name}{i}.{name}"] = array
            else:
                layers[f"{prefix}.{f.name}"] = value

    for f in fields(weights):
        walk(f.name, getattr(weights, f.name))
    return layers


def ts_mamba_forward(frames, flows, weights, config):
    """Online forward over a frame list; returns the SR of the last frame.

    frames : list of [3, H, W] arrays, oldest first, last entry is frame t.
    flows  : list of [2, H, W] flows from frame k to k-1 (len(frames)-1
             entries) or None for a static scene.
    Returns a Tensor, whose callers read the [3, sH, sW] SR array at .data.
    """
    if any(np.shape(f)[0] != 3 for f in frames):
        raise ValueError("frames must have 3 channels")
    q_grid, selection = select_along_trajectories(frames, flows, weights.g, config)
    agg = tsma_forward(q_grid, selection, weights.tsma, config)
    feature = untokenize(agg, config, weights.g.proj_w)
    residual = reconstruct(feature, weights.r)
    skip = bicubic_upsample(frames[-1])
    return Tensor(residual + skip)


# --- losses -----------------------------------------------------------------

def charbonnier_loss(sr, hr, epsilon=1e-4):
    """Mean over elements of sqrt(diff^2 + eps^2); equals eps at sr == hr."""
    if not epsilon >= 0:                  # written so that NaN fails too
        raise ValueError(f"epsilon must not be negative, got {epsilon}")
    # float64 throughout, so finite-difference checks stay exact
    x, y = np.asarray(sr, dtype=np.float64), np.asarray(hr, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dim mismatch {x.shape} vs {y.shape}")
    d = x - y
    return float(np.sqrt(d * d + epsilon * epsilon).mean())


def trajectory_loss(lr, hr):
    """Mean L1 distance between LR trajectories and (HR down-sampled)/k.

    The scale k is read from the two sets' frame sizes: the HR frame must be
    k times the LR frame on both axes, for an integer k >= 1.  HR
    trajectories are sub-sampled by keeping every k-th token trajectory per
    axis of the HR set's grid, which must give the LR set's [depth, N]
    points; coordinates divide by k.  The absolute differences are summed
    one history layer at a time.
    """
    scale = hr.height // max(lr.height, 1)
    if min(lr.height, lr.width, scale) < 1 or \
            (hr.height, hr.width) != (scale * lr.height, scale * lr.width):
        raise ValueError(f"HR frame {hr.height}x{hr.width} is not k times the LR frame "
                         f"{lr.height}x{lr.width} for an integer k >= 1")
    hr_ht, hr_wt = hr.grid
    if hr.coords.shape[1] != hr_ht * hr_wt:
        raise ValueError(f"{hr.coords.shape[1]} HR trajectories do not fit a {hr_ht}x{hr_wt} grid")
    keep = np.arange(hr_ht * hr_wt).reshape(hr_ht, hr_wt)[::scale, ::scale].ravel()
    targets = hr.coords[:, keep] / float(scale)
    if targets.shape != lr.coords.shape or lr.coords.size == 0:
        raise ValueError(f"HR trajectories {list(hr.coords.shape)} do not subsample to the "
                         f"LR set's {list(lr.coords.shape)} at scale {scale}")
    total = sum(float(np.abs(layer - target).sum()) for layer, target in zip(lr.coords, targets))
    return total / lr.coords.size


def total_loss(spa, trj, lam=0.1):
    if not lam >= 0:                      # written so that NaN fails too
        raise ValueError(f"lambda must not be negative, got {lam}")
    return float(spa + lam * trj)


# --- parameter / MAC accounting --------------------------------------------

def count_params_macs(config, lr_dims):
    """Parameter and MAC counts for one forward pass, per stage.

    A stage's parameters are the sizes of its weight_table rows.  A weight's
    MACs are its size times the output pixels of its layer, and a bias (a
    1-D row) takes none; the S6 blocks' MACs are the closed form of their
    scans, as TSMA runs them.
    """
    h, w = lr_dims
    t, ws = config.token_size, config.window_size
    if h < t or w < t or h % t or w % t:
        raise ValueError(f"frame {h}x{w} is not a positive multiple of token_size {t}")
    ntok = (h // t) * (w // t)
    # weight-name prefix -> (stage, output pixels of its layer)
    prefixes = {"g.conv_": ("g.conv", h * w), "g.res": ("g.res_blocks", h * w),
               "g.proj_": ("g.proj", ntok), "tsma.concat_proj_": ("tsma.concat_proj", ntok),
               **{f"tsma.{block}.": ("tsma.ssm_blocks", 0) for block in SSM_BLOCKS},
               "tsma.ln_": ("tsma.ssm_blocks", 0), "tsma.fusion_": ("tsma.fusion", ntok),
               "r.head_": ("r.head", h * w), "r.res": ("r.res_blocks", h * w),
               "r.up1_": ("r.upsample", h * w), "r.up2_": ("r.upsample", 4 * h * w),
               "r.tail_": ("r.tail", 16 * h * w)}
    breakdown = {stage: {"params": 0, "macs": 0} for stage, _ in prefixes.values()}
    for name, (shape, _) in weight_table(config).items():
        stage, pixels = next(prefixes[p] for p in prefixes if name.startswith(p))
        size = math.prod(shape)
        breakdown[stage]["params"] += size
        breakdown[stage]["macs"] += size * pixels if len(shape) > 1 else 0
    # S6: 6 MACs per update of C*N states, L steps per window of the padded grid
    steps = ws ** 2 * (config.s_selected + 1) * math.ceil(h // t / ws) * math.ceil(w // t / ws)
    ssm = breakdown["tsma.ssm_blocks"]
    ssm["macs"] = 6 * len(SSM_BLOCKS) * steps * config.channels * config.state_dim
    params = sum(v["params"] for v in breakdown.values())
    macs = sum(v["macs"] for v in breakdown.values())
    return {"params": params, "macs": macs, "breakdown": breakdown}
