"""Array kernels and neural building blocks for the forward pipeline.

Arrays are float32 numpy ndarrays, taken as array-likes and returned as
ndarrays.  A feature map is [C, H, W] by shape, but the convolutions compute
channels last and return the [C, H', W'] transposed view of an [H', W', C]
result.  `conv2d` takes one of two decompositions, chosen from the layer's
shape.  By default it gathers each block of output rows' rows + kh - 1 rows
of a zero-padded [H+2p, W+2p, C] copy once, as runs of kw*C contiguous
floats, and sums kh GEMMs of K = kw*C over consecutive gathered rows.  When
kh*kw*Cout <= Cin it instead takes one GEMM of all tap weights with the
[C, H*W] view of the channels-last input and adds the shifted tap planes.
`pixel_shuffle` and `model.untokenize` build channels-last outputs too, so G,
the TSMA fusion conv and R pass channels-last buffers from conv to conv with
no added copies, and these three return views that are not C-contiguous.

Only `ts_mamba_forward` and `block_matching_flow` return a `Tensor`, whose
`.data` is C-contiguous, because the benchmark's workloads read those two
results there.  Outputs are byte-identical for the same inputs on the same numpy/BLAS build: every
reduction is either a fixed-order numpy expression or a float32 GEMM whose
result does not depend on the BLAS thread count.  A different numpy or BLAS
build may round the GEMM differently in the last bits.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .scanorder import MAX_GRID_SIZE

__all__ = [
    "Tensor",
    "ModelConfig",
    "conv2d",
    "residual_block",
    "pixel_shuffle",
    "bicubic_upsample",
    "layer_norm",
    "psnr",
    "ssim",
    "write_tstf",
    "read_tstf",
    "write_pnm",
    "read_pnm",
]

PSNR_CAP_DB = 100.0
# float32 elements that conv2d gathers (kernel rows) or multiplies out (tap
# planes) per block of output rows, 1 MiB: large enough for BLAS to run at
# speed, small enough that a conv never holds more than a sliver of either.
_CONV_CHUNK = 1 << 18

# largest value of each ModelConfig setting (window_size: MAX_GRID_SIZE); with
# the others at their defaults a setting at its bound draws at most 0.2 GB of
# weights, and MAX_SCAN_TABLE stops the window there before 64 cells
MAX_CHANNELS = 256
MAX_RES_BLOCKS = 64
MAX_TOKEN_SIZE = 32
MAX_TEMPORAL_WINDOW = 256
MAX_STATE_DIM = 64
# largest L*C*N, the size of each of an S6 block's [L, C, N] tables with
# L = window_size^2 * (s_selected + 1): 32 MiB of float64 at the bound
MAX_SCAN_TABLE = 1 << 22


class Tensor:
    """The row-major float32 array at `.data` that `ts_mamba_forward` and
    `block_matching_flow` return.  `np.asarray` reads a Tensor as that array,
    so one passed back in (a frame, a flow, an SR to write) needs no
    unwrapping."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float32)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)


@dataclass
class ModelConfig:
    """Architecture constants; defaults follow the experimental setup."""

    n1_res_blocks: int = 2
    n2_res_blocks: int = 13
    channels: int = 32
    token_size: int = 4
    window_size: int = 8           # in tokens
    s_selected: int = 3
    temporal_window: int = 15
    state_dim: int = 8
    # not a setting: R's two x2 pixel-shuffle stages fix the upscale at 4
    scale: ClassVar[int] = 4

    def validate(self):
        if self.s_selected < 0:
            raise ValueError(f"s_selected must not be negative (got s={self.s_selected})")
        if self.s_selected > self.temporal_window - 1:
            raise ValueError(
                "s_selected must not exceed temporal_window - 1 "
                f"(got s={self.s_selected}, T={self.temporal_window})"
            )
        for name, top in (("n1_res_blocks", MAX_RES_BLOCKS), ("n2_res_blocks", MAX_RES_BLOCKS),
                          ("channels", MAX_CHANNELS), ("token_size", MAX_TOKEN_SIZE),
                          ("window_size", MAX_GRID_SIZE),
                          ("temporal_window", MAX_TEMPORAL_WINDOW), ("state_dim", MAX_STATE_DIM)):
            if not 1 <= getattr(self, name) <= top:
                raise ValueError(f"{name} must lie in [1, {top}], got {getattr(self, name)}")
        if self.window_size & (self.window_size - 1):
            raise ValueError(f"window_size must be a power of two (got {self.window_size})")
        table = self.window_size ** 2 * (self.s_selected + 1) * self.channels * self.state_dim
        if table > MAX_SCAN_TABLE:
            raise ValueError(f"window_size^2 * (s_selected + 1) * channels * state_dim = {table}, "
                             f"the size of an S6 block's tables, must be at most {MAX_SCAN_TABLE}")
        return self


def conv2d(inp, weights, bias=None, *, padding=0):
    """Cross-correlation of [Cin,H,W] with [Cout,Cin,kh,kw] -> [Cout,H',W'].

    The conv computes channels last, by one of two decompositions chosen
    from the layer's shape.  Both take output rows in blocks sized from
    _CONV_CHUNK, so memory stays chunked, and both write an [H', W', Cout]
    buffer whose [Cout,H',W'] transposed view is the result (not
    C-contiguous; the next conv reads it back with one contiguous copy).

    Per kernel row (the default): the input is assigned into the interior of
    one zero-filled [H+2p, W+2p, Cin] buffer, and a block of output rows
    gathers its rows + kh - 1 padded rows once, as [rows+kh-1, W', kw*Cin]
    (3x the input, where a whole-field gather writes kh*kw x).  Kernel row i
    is then one float32 GEMM of the [rows*W', kw*Cin] slice that starts at
    gathered row i with that row's [kw*Cin, Cout] weights; the kh products
    are summed into the block in kernel-row order, then the bias is added.

    Tap planes, when kh*kw*Cout <= Cin (the per-pixel tap planes are no
    larger than the input, as in a C->3 tail or a pointwise fusion): one
    GEMM [kh*kw*Cout, Cin] @ [Cin, rows_in*W] over the [Cin, H*W] view of a
    channels-last copy of the input (no padding, no gather) gives every
    tap's channels-first plane, and the kh*kw planes, shifted and clipped at
    the border, are added in tap order to a bias-filled [Cout, rows, W']
    block that is then written out channels last.

    The bytes do not depend on the input's memory layout or the BLAS thread
    count on the same numpy/BLAS build, and differ from a tap-by-tap float32
    sum only by reordering (about 1e-6).
    """
    x = np.asarray(inp, dtype=np.float32)
    w = np.asarray(weights, dtype=np.float32)
    if x.ndim != 3 or w.ndim != 4:
        raise ValueError("conv2d expects input [Cin,H,W] and weights [Cout,Cin,kh,kw]")
    cin, h, wdt = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"channel mismatch: input {cin} vs weights {cin_w}")
    if h + 2 * padding < kh or wdt + 2 * padding < kw:
        raise ValueError("kernel does not fit inside the padded input")
    b = None if bias is None else np.asarray(bias, dtype=np.float32)
    conv = _conv2d_tap_planes if kh * kw * cout <= cin else _conv2d_kernel_rows
    return conv(x, w, b, padding).transpose(2, 0, 1)


def _conv2d_kernel_rows(x, w, b, padding):
    """[H', W', Cout] conv as kh GEMMs of K = kw*Cin per block of output rows."""
    cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wdt + 2 * padding
    xp = np.zeros((hp, wp, cin), dtype=np.float32)
    xp[padding:padding + h, padding:padding + wdt] = x.transpose(1, 2, 0)
    ho, wo = hp - kh + 1, wp - kw + 1
    k = kw * cin
    # [H+2p, W', kw*Cin] read-only view: the kw*Cin contiguous floats of xp
    # that each kernel row reads at each output column; nothing is copied yet
    row, item = xp.strides[:2]
    runs = as_strided(xp, (hp, wo, k), (row, item, xp.itemsize), writeable=False)
    wrows = w.transpose(2, 3, 1, 0).reshape(kh, k, cout)
    out = np.empty((ho, wo, cout), dtype=np.float32)
    rows = min(ho, max(1, _CONV_CHUNK // (wo * k)))
    # one gather buffer and one product buffer for every row block
    gathered = np.empty((rows + kh - 1, wo, k), dtype=np.float32)
    part = np.empty((rows * wo, cout), dtype=np.float32)
    for r0 in range(0, ho, rows):
        n = min(rows, ho - r0)
        g = gathered[:n + kh - 1]
        np.copyto(g, runs[r0:r0 + n + kh - 1])
        blk = out[r0:r0 + n].reshape(n * wo, cout)
        np.matmul(g[:n].reshape(n * wo, k), wrows[0], out=blk)
        for i in range(1, kh):
            np.matmul(g[i:i + n].reshape(n * wo, k), wrows[i], out=part[:n * wo])
            blk += part[:n * wo]
        if b is not None:
            blk += b
    return out


def _conv2d_tap_planes(x, w, b, padding):
    """[H', W', Cout] conv as one [kh*kw*Cout, Cin] GEMM per block of output
    rows, then kh*kw shifted plane adds."""
    cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    ho, wo = h + 2 * padding - kh + 1, wdt + 2 * padding - kw + 1
    # the [Cin, H*W] view of a channels-last copy, so BLAS reads one layout
    # whatever the input's; a channels-last input is not copied
    xcl = np.ascontiguousarray(x.transpose(1, 2, 0)).reshape(h * wdt, cin).T
    taps = w.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    out = np.empty((ho, wo, cout), dtype=np.float32)
    rows = min(ho, max(1, _CONV_CHUNK // (kh * kw * cout * wdt)))
    block = np.empty((cout, rows, wo), dtype=np.float32)
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        # the input rows that the block's taps read
        in0, in1 = (min(max(r - padding, 0), h) for r in (r0, r1 + kh - 1))
        planes = np.matmul(taps, xcl[:, in0 * wdt:in1 * wdt]).reshape(kh, kw, cout, in1 - in0, wdt)
        blk = block[:, :r1 - r0]
        blk[...] = 0.0 if b is None else b[:, None, None]
        for i in range(kh):
            y0, y1 = max(r0, padding - i), min(r1, h + padding - i)
            for j in range(kw):
                x0, x1 = max(0, padding - j), min(wo, wdt + padding - j)
                if y0 < y1 and x0 < x1:
                    blk[:, y0 - r0:y1 - r0, x0:x1] += planes[
                        i, j, :, y0 + i - padding - in0:y1 + i - padding - in0,
                        x0 + j - padding:x1 + j - padding]
        out[r0:r1] = blk.transpose(1, 2, 0)
    return out


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float32), 0.0)


def residual_block(inp, w1, b1, w2, b2):
    """conv3x3 -> relu -> conv3x3, plus identity skip; shape preserving."""
    x = np.asarray(inp, dtype=np.float32)
    y = conv2d(x, w1, b1, padding=1)
    y = relu(y)
    y = conv2d(y, w2, b2, padding=1)
    return x + y


def pixel_shuffle(inp, r):
    """Depth-to-space: [C*r*r, H, W] -> [C, r*H, r*W].

    Input channel c*r*r + i*r + j lands at offset (i, j) of each r x r block.
    The result is the transposed view of an [r*H, r*W, C] buffer, as conv2d's
    is, so it is not C-contiguous.
    """
    x = np.asarray(inp, dtype=np.float32)
    if x.ndim != 3:
        raise ValueError("pixel_shuffle expects [C*r*r, H, W]")
    crr, h, w = x.shape
    if r < 1 or crr % (r * r) != 0:
        raise ValueError(f"channel count {crr} not divisible by r^2={r * r}")
    c = crr // (r * r)
    # built channels last with one copy: [H, W, C, r, r] -> [H, r, W, r, C]
    y = x.transpose(1, 2, 0).reshape(h, w, c, r, r).transpose(0, 3, 1, 4, 2)
    return y.reshape(h * r, w * r, c).transpose(2, 0, 1)


def _cubic_kernel(t, a=-0.5):
    t = abs(float(t))
    if t <= 1.0:
        return (a + 2.0) * t ** 3 - (a + 3.0) * t ** 2 + 1.0
    if t < 2.0:
        return a * t ** 3 - 5.0 * a * t ** 2 + 8.0 * a * t - 4.0 * a
    return 0.0


@functools.lru_cache(maxsize=64)
def _bicubic_axis_weights(n_in, scale):
    """4-tap weights per output row, [n_in*scale, 4] (align_corners=false).

    Output row i samples src = (i + 0.5)/scale - 0.5, and its tap k weights
    input row floor(src) + k - 1, edge replicated, for k = 0..3.  The table
    is built once per (n_in, scale) and shared read-only.
    """
    wts = []
    for i_out in range(n_in * scale):
        src = (i_out + 0.5) / scale - 0.5
        taps = [_cubic_kernel(src - math.floor(src) - k) for k in range(-1, 3)]
        s = sum(taps)
        wts.append([t / s for t in taps])
    table = np.array(wts, dtype=np.float64)
    table.flags.writeable = False
    return table


def bicubic_upsample(inp, scale):
    """Separable cubic-convolution upsampling, a=-0.5, edge replicate.

    Tap positions are periodic: output row q*scale + p reads input rows
    q + o_p - 1 .. q + o_p + 2, with o_p = floor((p + 0.5)/scale - 0.5), so
    each tap of each output phase p is one slice of a copy edge-padded by 2.
    The weights are read per output row from `_bicubic_axis_weights`, since
    their rounding is not periodic at every scale.  Rows first, then
    columns, in float64, each pass adding its four taps to zeros in tap
    order; phases are kept on leading axes and interleaved once, by the
    float32 rounding at the end.
    """
    if int(scale) != scale or scale < 1:
        raise ValueError("scale must be a positive integer")
    scale = int(scale)
    x = np.asarray(inp, dtype=np.float32)
    if x.ndim != 3:
        raise ValueError("bicubic_upsample expects [C,H,W]")
    if scale == 1:
        return x.copy()
    c, h, w = x.shape
    rwts = _bicubic_axis_weights(h, scale)
    cwts = _bicubic_axis_weights(w, scale)
    starts = [math.floor((p + 0.5) / scale - 0.5) + 1 for p in range(scale)]
    xp = np.pad(x.astype(np.float64), ((0, 0), (2, 2), (2, 2)), mode="edge")
    # rows: [scale, C, H, W+4], still edge-padded along W for the column pass
    tmp = np.zeros((scale, c, h, w + 4), dtype=np.float64)
    for p, o in enumerate(starts):
        for k in range(4):
            tmp[p] += rwts[p::scale, k, None] * xp[:, o + k:o + k + h]
    # columns: [row phase, column phase, C, H, W]
    out = np.zeros((scale, scale, c, h, w), dtype=np.float64)
    for p, o in enumerate(starts):
        for k in range(4):
            out[:, p] += cwts[p::scale, k] * tmp[..., o + k:o + k + w]
    sr = np.ascontiguousarray(out.transpose(2, 3, 0, 4, 1), dtype=np.float32)
    return sr.reshape(c, h * scale, w * scale)


def layer_norm(inp, gamma=None, beta=None):
    """Normalize over the trailing channel axis per site, then affine."""
    x = np.asarray(inp, dtype=np.float32)
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = ((x.astype(np.float64) - mean) ** 2).mean(axis=-1, keepdims=True)
    y = (x - mean) / np.sqrt(var + 1e-5)
    y = y.astype(np.float32)
    if gamma is not None:
        y = y * np.asarray(gamma, dtype=np.float32)
    if beta is not None:
        y = y + np.asarray(beta, dtype=np.float32)
    return y


def psnr(a, b, peak=1.0):
    """10*log10(peak^2/MSE); identical inputs report the 100 dB cap."""
    x, y = np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)
    if x.shape != y.shape:
        raise ValueError(f"dim mismatch: {x.shape} vs {y.shape}")
    mse = float(np.mean((x.astype(np.float64) - y.astype(np.float64)) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(peak * peak / mse), PSNR_CAP_DB)


def _gaussian_window(size=11, sigma=1.5):
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    g /= g.sum()
    return np.outer(g, g)


def _filter2_valid(img, win):
    """2-D 'valid' correlation of a 2-D image with an 11x11 window."""
    k = win.shape[0]
    h, w = img.shape
    out = np.zeros((h - k + 1, w - k + 1), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            out += win[i, j] * img[i:i + h - k + 1, j:j + w - k + 1]
    return out


def ssim(a, b, peak=1.0):
    """Mean SSIM with the 11x11 sigma-1.5 Gaussian window, K1=.01, K2=.03.

    Multi-channel inputs are averaged channel-by-channel.
    """
    x, y = (np.asarray(v, dtype=np.float32).astype(np.float64) for v in (a, b))
    if x.shape != y.shape:
        raise ValueError(f"dim mismatch: {x.shape} vs {y.shape}")
    if x.ndim == 2:
        x, y = x[None], y[None]
    if x.ndim != 3:
        raise ValueError("ssim expects [H,W] or [C,H,W]")
    if x.shape[1] < 11 or x.shape[2] < 11:
        raise ValueError("ssim needs images at least 11x11")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    win = _gaussian_window()
    vals = []
    for ch in range(x.shape[0]):
        mu_x = _filter2_valid(x[ch], win)
        mu_y = _filter2_valid(y[ch], win)
        xx = _filter2_valid(x[ch] * x[ch], win) - mu_x * mu_x
        yy = _filter2_valid(y[ch] * y[ch], win) - mu_y * mu_y
        xy = _filter2_valid(x[ch] * y[ch], win) - mu_x * mu_y
        num = (2 * mu_x * mu_y + c1) * (2 * xy + c2)
        den = (mu_x ** 2 + mu_y ** 2 + c1) * (xx + yy + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


# --- TSTF file format -------------------------------------------------------

TSTF_MAGIC = b"TSTF"
TSTF_VERSION = 1


def write_tstf(path, array):
    """Magic 'TSTF', u32 version=1, u8 dtype=0, u8 ndim, ndim*u64 dims, LE f32."""
    arr = np.asarray(array, dtype=np.float32)
    with open(path, "wb") as f:
        f.write(TSTF_MAGIC)
        f.write(struct.pack("<I", TSTF_VERSION))
        f.write(struct.pack("<BB", 0, arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<Q", d))
        f.write(arr.astype("<f4").tobytes(order="C"))


def read_tstf(path):
    """Any malformed file raises ValueError; the payload must hold exactly the
    bytes the dims declare, counted in Python ints before numpy sees them."""
    with open(path, "rb") as f:

        def take(fmt):
            raw = f.read(struct.calcsize(fmt))
            if len(raw) != struct.calcsize(fmt):
                raise ValueError(f"{path}: truncated header")
            return struct.unpack(fmt, raw)

        magic = f.read(4)
        if magic != TSTF_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        version, dtype, ndim = take("<IBB")
        if version != TSTF_VERSION:
            raise ValueError(f"{path}: unsupported TSTF version {version}")
        if dtype != 0:
            raise ValueError(f"{path}: unsupported dtype {dtype}")
        dims = take(f"<{ndim}Q")
        need = 4 * math.prod(dims)
        payload = f.read()
        if len(payload) != need:
            raise ValueError(f"{path}: dims {list(dims)} need {need} payload bytes, "
                             f"the file holds {len(payload)}")
        # numpy rejects dims it cannot represent with ValueError
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
    return arr.copy()


# --- PGM / PPM --------------------------------------------------------------

def write_pnm(path, array):
    """Write [1,H,W] as binary PGM (P5) or [3,H,W] as PPM (P6), 8-bit."""
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise ValueError("write_pnm expects [1,H,W] or [3,H,W]")
    chans, h, w = arr.shape
    pix = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    header = (b"P5" if chans == 1 else b"P6") + f"\n{w} {h}\n255\n".encode()
    with open(path, "wb") as f:
        f.write(header)
        if chans == 1:
            f.write(pix[0].tobytes())
        else:
            f.write(pix.transpose(1, 2, 0).tobytes())


def read_pnm(path):
    """Read binary PGM/PPM into a [C,H,W] float32 array in [0,1]."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] not in (b"P5", b"P6"):
        raise ValueError(f"{path}: not a binary PGM/PPM")
    chans = 1 if blob[:2] == b"P5" else 3
    # parse header tokens (magic, width, height, maxval), skipping comments
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(blob) and blob[i:i + 1].isspace():
            i += 1
        if blob[i:i + 1] == b"#":
            while i < len(blob) and blob[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(blob) and not blob[j:j + 1].isspace():
            j += 1
        tokens.append(blob[i:j])
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = int(tokens[0]), int(tokens[1]), int(tokens[2])
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PNM supported")
    count = w * h * chans
    pix = np.frombuffer(blob[i:i + count], dtype=np.uint8)
    if pix.size != count:
        raise ValueError(f"{path}: truncated pixel data")
    if chans == 1:
        arr = pix.reshape(1, h, w)
    else:
        arr = pix.reshape(h, w, 3).transpose(2, 0, 1)
    return arr.astype(np.float32, order="C") / 255.0
