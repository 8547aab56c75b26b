import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tsmamba
from tsmamba import numerics
from tsmamba.numerics import (
    ModelConfig,
    PSNR_CAP_DB,
    Tensor,
    bicubic_upsample,
    conv2d,
    layer_norm,
    pixel_shuffle,
    psnr,
    read_pnm,
    read_tstf,
    relu,
    residual_block,
    ssim,
    write_pnm,
    write_tstf,
)


def test_tensor_basics():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.data.shape == (2, 3)
    assert t.data.dtype == np.float32 and t.data.flags.c_contiguous
    # np.asarray reads a Tensor as its array, honouring numpy's copy argument
    assert np.asarray(t) is t.data
    c = np.array(t, copy=True)
    c[0, 0] = 99
    assert t.data[0, 0] == 0
    assert np.asarray(t, dtype=np.float64).dtype == np.float64
    with pytest.raises(ValueError):
        np.array(t, dtype=np.float64, copy=False)


def test_model_config_validation():
    ModelConfig().validate()
    with pytest.raises(ValueError):
        ModelConfig(s_selected=15, temporal_window=15).validate()
    with pytest.raises(ValueError):
        ModelConfig(channels=0).validate()
    ModelConfig(s_selected=0).validate()
    with pytest.raises(ValueError, match="negative"):
        ModelConfig(s_selected=-1).validate()
    ModelConfig(window_size=16).validate()
    for size in (3, 6, 12):
        with pytest.raises(ValueError, match="window_size"):
            ModelConfig(window_size=size).validate()


def test_model_config_settings_bounded_by_named_constants():
    ModelConfig(channels=87, n2_res_blocks=13, temporal_window=15).validate()
    for name, top in (("n1_res_blocks", numerics.MAX_RES_BLOCKS),
                      ("n2_res_blocks", numerics.MAX_RES_BLOCKS),
                      ("channels", numerics.MAX_CHANNELS),
                      ("token_size", numerics.MAX_TOKEN_SIZE),
                      ("window_size", tsmamba.scanorder.MAX_GRID_SIZE),
                      ("temporal_window", numerics.MAX_TEMPORAL_WINDOW),
                      ("state_dim", numerics.MAX_STATE_DIM)):
        # the window's top is inside the S6 table bound only with small tables
        others = dict(channels=1, state_dim=1, s_selected=0) if name == "window_size" else {}
        ModelConfig(**others, **{name: top}).validate()
        with pytest.raises(ValueError, match=rf"{name} must lie in \[1, {top}\], got {top + 1}"):
            ModelConfig(**others, **{name: top + 1}).validate()


def test_model_config_bounds_the_s6_tables():
    """L*C*N with L = w^2 (s+1) is bounded before any weight is drawn: at the
    defaults the bound admits a 64-token window exactly, and every config the
    tests, workloads and README run lies inside it."""
    assert 64 ** 2 * 4 * 32 * 8 == numerics.MAX_SCAN_TABLE
    for config in (dict(window_size=64), dict(), dict(channels=87), dict(window_size=16),
                   dict(channels=numerics.MAX_CHANNELS), dict(state_dim=numerics.MAX_STATE_DIM),
                   dict(window_size=32, state_dim=16)):
        ModelConfig(**config).validate()
    for config in (dict(window_size=128), dict(window_size=256),
                   dict(window_size=256, state_dim=64), dict(window_size=64, s_selected=4),
                   dict(window_size=64, channels=33)):
        with pytest.raises(ValueError, match="S6 block's tables, must be at most 4194304"):
            ModelConfig(**config).validate()


def test_model_config_scale_is_fixed():
    # R's two x2 pixel-shuffle stages fix the upscale; it is not a setting
    assert ModelConfig().scale == 4
    assert len(dataclasses.fields(ModelConfig)) == 8
    with pytest.raises(TypeError):
        ModelConfig(scale=2)


# --- conv2d -----------------------------------------------------------------

def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (2, 5, 5)).astype(np.float32)
    w = np.zeros((2, 2, 3, 3))
    w[0, 0, 1, 1] = 1.0
    w[1, 1, 1, 1] = 1.0
    y = conv2d(x, w, padding=1)
    assert np.allclose(y, x, atol=1e-6)


def test_conv2d_matches_naive():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, (3, 6, 7))
    w = rng.normal(0, 1, (4, 3, 3, 3))
    b = rng.normal(0, 1, 4)
    y = conv2d(x.astype(np.float32), w, b, padding=1)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    ho, wo = 6, 7
    ref = np.zeros((4, ho, wo))
    for o in range(4):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i:i + 3, j:j + 3]
                ref[o, i, j] = (patch * w[o]).sum() + b[o]
    assert y.shape == (4, ho, wo)
    assert np.allclose(y, ref, atol=1e-4)


def _conv2d_loop(x, w, bias=None, stride=1, padding=0):
    """Oracle: the tap-by-tap float32 conv2d, one (cin, kh, kw) tap at a time."""
    x = np.asarray(x, dtype=np.float32)
    w = np.asarray(w, dtype=np.float32)
    cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (x.shape[1] - kh) // stride + 1
    wo = (x.shape[2] - kw) // stride + 1
    out = np.zeros((cout, ho, wo), dtype=np.float32)
    for ci in range(cin):
        for i in range(kh):
            for j in range(kw):
                patch = x[ci, i:i + stride * ho:stride, j:j + stride * wo:stride]
                for co in range(cout):
                    out[co] += w[co, ci, i, j] * patch
    if bias is not None:
        out += np.asarray(bias, dtype=np.float32).reshape(cout, 1, 1)
    return out


# (cin, cout, kernel, stride, padding, height, width); conv2d has no stride,
# so a strided case samples its output every stride-th row and column
CONV_CASES = [
    (3, 4, 3, 1, 1, 9, 11),
    (3, 4, 3, 2, 1, 9, 11),
    (3, 4, 3, 1, 0, 9, 11),
    (3, 4, 3, 2, 0, 10, 9),
    (3, 5, 1, 1, 0, 7, 6),
    (3, 5, 1, 2, 1, 7, 6),
    (192, 4, 3, 1, 1, 12, 10),
    (192, 3, 1, 1, 0, 8, 8),
    (3, 2, 3, 1, 1, 200, 40),
    (192, 4, 3, 1, 1, 40, 10),     # deep reduction
    (3, 2, 3, 1, 1, 600, 40),      # tall frame
    (3, 4, 3, 1, 2, 9, 11),        # padding wider than the kernel's reach
    (4, 5, 1, 1, 1, 7, 6),         # a 1x1 kernel over a zero border
    (3, 2, 5, 1, 1, 3, 4),         # the kernel as tall as the padded input: H' = 1
    # kh*kw*Cout <= Cin takes the tap-plane path; the rows above with Cin 192 do too
    (40, 4, 3, 1, 2, 9, 11),       # tap planes, padding wider than the kernel's reach
    (12, 5, 1, 1, 1, 7, 6),        # tap planes of a 1x1 kernel over a zero border
    (64, 3, 3, 1, 1, 200, 300),    # tap planes over several row blocks
    (16, 16, 1, 1, 3, 3, 16400),   # one-row tap-plane blocks, six wholly in the border
    (16, 16, 3, 1, 1, 120, 200),   # kernel rows over several row blocks
    (100, 12, 3, 1, 1, 6, 900),    # one-row kernel-row blocks
]


def _conv_path_rows(cin, cout, k, padding, w):
    """conv2d's path for a shape (True: tap planes) and its output rows per block."""
    if k * k * cout <= cin:
        return True, max(1, numerics._CONV_CHUNK // (k * k * cout * w))
    wo = w + 2 * padding - k + 1
    return False, max(1, numerics._CONV_CHUNK // (wo * k * cin))


def _channels_last(x):
    """The same [C, H, W] values, backed by an [H, W, C] buffer."""
    return np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)


@pytest.mark.parametrize("cin,cout,k,stride,padding,h,w", CONV_CASES)
def test_conv2d_matches_loop_oracle(cin, cout, k, stride, padding, h, w):
    rng = np.random.default_rng(cin * 1000 + h)
    x = rng.random((cin, h, w), dtype=np.float32)
    # weights scaled so outputs are O(1): float32 reordering then moves them
    # by ~1e-6, which atol 1e-5 bounds
    wts = rng.normal(0, 1 / math.sqrt(cin * k * k), (cout, cin, k, k)).astype(np.float32)
    b = rng.normal(0, 1, cout).astype(np.float32)
    # a C-contiguous input and a channels-last-backed view of the same values
    # give the same bytes, returned as the [Cout, H', W'] view of an
    # [H', W', Cout] buffer
    x_cl = _channels_last(x)
    assert x.flags.c_contiguous and not x_cl.flags.c_contiguous
    out, out_cl = (conv2d(inp, wts, b, padding=padding) for inp in (x, x_cl))
    assert out.tobytes() == out_cl.tobytes()
    assert out.transpose(1, 2, 0).flags.c_contiguous
    got = out[:, ::stride, ::stride]
    want = _conv2d_loop(x, wts, b, stride=stride, padding=padding)
    assert got.shape == want.shape and got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def test_conv2d_leaves_input_unchanged_and_reads_a_read_only_view(monkeypatch):
    """The kernel-row runs are a view of conv2d's own padded copy, never of
    the input, and that view cannot be written through."""
    views = []
    as_strided = numerics.as_strided

    def spy(*args, **kwargs):
        views.append(as_strided(*args, **kwargs))
        return views[-1]

    monkeypatch.setattr(numerics, "as_strided", spy)
    rng = np.random.default_rng(5)
    x = rng.random((4, 7, 9), dtype=np.float32)
    wts = rng.normal(0, 0.3, (3, 4, 3, 3)).astype(np.float32)
    for inp in (x, _channels_last(x)):
        before = inp.copy()
        conv2d(inp, wts, np.ones(3), padding=2)
        assert inp.tobytes() == before.tobytes()
    assert len(views) == 2
    assert all(not v.flags.writeable for v in views)
    with pytest.raises(ValueError):
        views[0][0, 0, 0, 0] = 1.0


def test_conv2d_chain_bytes_independent_of_input_layout():
    """A conv reading another conv's channels-last result gives the bytes it
    gives on a C-contiguous copy of the same values."""
    rng = np.random.default_rng(11)
    x = rng.random((3, 20, 18), dtype=np.float32)
    w1 = rng.normal(0, 0.2, (8, 3, 3, 3)).astype(np.float32)
    w2 = rng.normal(0, 0.2, (5, 8, 3, 3)).astype(np.float32)
    outs = []
    for inp in (x, _channels_last(x)):
        y = conv2d(inp, w1, np.ones(8), padding=1)
        outs.append(conv2d(y, w2, padding=1))
        outs.append(conv2d(np.ascontiguousarray(y), w2, padding=1))
    assert len({o.tobytes() for o in outs}) == 1


def test_conv2d_cases_cross_row_blocks():
    """Each path has oracle cases over three or more of its own row blocks,
    one of them with single-row blocks."""
    crossing = {True: [], False: []}
    for cin, cout, k, _, padding, h, w in CONV_CASES:
        planes, rows = _conv_path_rows(cin, cout, k, padding, w)
        if h + 2 * padding - k + 1 > 2 * rows:
            crossing[planes].append(rows)
    for rows in crossing.values():
        assert len(rows) >= 2 and 1 in rows


def test_conv2d_peak_memory_is_chunked():
    """Gathered rows and tap planes are held a block at a time, never whole:
    beyond the padded input and the output, a conv holds under 4 MiB.  Whole,
    the C->3 tail's 27 tap planes would take 7 MiB, and the C->C conv's
    kernel-row gather at the paper's 180x320, C = 87, 58 MiB."""
    rng = np.random.default_rng(3)
    for cin, cout, h, w in ((32, 3, 256, 256), (87, 87, 180, 320), (32, 128, 128, 128)):
        x = rng.random((cin, h, w), dtype=np.float32)
        wts = rng.normal(0, 0.05, (cout, cin, 3, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            out = conv2d(x, wts, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded = cin * (h + 2) * (w + 2) * 4
        assert peak < padded + out.nbytes + 4 * 2**20, (cin, cout, h, w)


_CONV_DIGEST = """
import hashlib
import numpy as np
from tsmamba.numerics import conv2d
rng = np.random.default_rng(0)
h = hashlib.sha256()
for cin, cout, k, size in ((3, 32, 3, 64), (32, 32, 3, 64), (96, 32, 1, 64), (32, 48, 3, 32),
                           (32, 3, 3, 64)):
    x = rng.random((cin, size, size), dtype=np.float32)
    w = rng.normal(0, 0.05, (cout, cin, k, k)).astype(np.float32)
    h.update(conv2d(x, w, padding=k // 2).tobytes())
    # the same values backed by an [H, W, C] buffer, as a conv's result is
    x_cl = np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
    h.update(conv2d(x_cl, w, padding=k // 2).tobytes())
print(h.hexdigest())
"""


def test_conv2d_bytes_independent_of_blas_threads():
    src = str(Path(tsmamba.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _CONV_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_conv2d_shape_errors():
    x = np.zeros((3, 4, 4))
    with pytest.raises(ValueError):
        conv2d(x, np.zeros((2, 4, 3, 3)))      # channel mismatch


def test_residual_block_zero_weights_is_identity():
    x = np.random.default_rng(2).normal(0, 1, (2, 4, 4)).astype(np.float32)
    z = np.zeros((2, 2, 3, 3))
    b = np.zeros(2)
    y = residual_block(x, z, b, z, b)
    assert np.array_equal(y, x)


def test_relu():
    y = relu(np.array([[-1.0, 0.0, 2.0]]))
    assert y.tolist() == [[0.0, 0.0, 2.0]]


# --- pixel shuffle ----------------------------------------------------------

def test_pixel_shuffle_layout():
    c, r, h, w = 1, 2, 2, 2
    x = np.arange(c * r * r * h * w, dtype=np.float32).reshape(c * r * r, h, w)
    y = pixel_shuffle(x, r)
    assert y.shape == (1, 4, 4)
    # channel k of the input lands at offset (k // r, k % r) in each block
    assert y[0, 0, 0] == x[0, 0, 0]
    assert y[0, 0, 1] == x[1, 0, 0]
    assert y[0, 1, 0] == x[2, 0, 0]
    assert y[0, 1, 1] == x[3, 0, 0]


@pytest.mark.parametrize("r", [2, 3])
def test_pixel_shuffle_matches_chw_formula(r):
    """Byte-equal to the channels-first reshape/transpose formula, on a
    C-contiguous and on a channels-last-backed input."""
    c, h, w = 5, 4, 6
    x = np.random.default_rng(r).normal(0, 1, (c * r * r, h, w)).astype(np.float32)
    want = np.ascontiguousarray(
        x.reshape(c, r, r, h, w).transpose(0, 3, 1, 4, 2).reshape(c, h * r, w * r))
    for inp in (x, _channels_last(x)):
        got = pixel_shuffle(inp, r)
        assert got.shape == want.shape and got.dtype == np.float32
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert got.transpose(1, 2, 0).flags.c_contiguous


def test_pixel_shuffle_rejects_bad_channels():
    with pytest.raises(ValueError):
        pixel_shuffle(np.zeros((3, 2, 2)), 2)


# --- bicubic ----------------------------------------------------------------

def _bicubic_upsample_loop(x, scale):
    """Oracle: row by row, then column by column, adding taps in k order."""
    c, h, w = x.shape
    (ridx, _), rwts = _cubic_taps_loop(h, scale), numerics._bicubic_axis_weights(h, scale)
    (cidx, _), cwts = _cubic_taps_loop(w, scale), numerics._bicubic_axis_weights(w, scale)
    xd = x.astype(np.float64)
    tmp = np.zeros((c, h * scale, w), dtype=np.float64)
    for i_out in range(h * scale):
        for j, wt in zip(ridx[i_out], rwts[i_out].tolist()):
            tmp[:, i_out, :] += wt * xd[:, j, :]
    out = np.zeros((c, h * scale, w * scale), dtype=np.float64)
    for j_out in range(w * scale):
        for j, wt in zip(cidx[j_out], cwts[j_out].tolist()):
            out[:, :, j_out] += wt * tmp[:, :, j]
    return out.astype(np.float32)


def _cubic_taps_loop(n_in, scale):
    """Oracle of the tap table: positions and normalised weights per output."""
    idx, wts = [], []
    for i_out in range(n_in * scale):
        src = (i_out + 0.5) / scale - 0.5
        base = math.floor(src)
        frac = src - base
        row_idx, row_w = [], []
        for k in range(-1, 3):
            row_idx.append(min(max(base + k, 0), n_in - 1))
            row_w.append(numerics._cubic_kernel(frac - k))
        s = sum(row_w)
        idx.append(row_idx)
        wts.append([v / s for v in row_w])
    return idx, wts


@pytest.mark.parametrize("scale", [2, 3, 4])
def test_bicubic_matches_loop_oracle_bytes(scale):
    rng = np.random.default_rng(scale)
    x = rng.normal(0, 1, (3, 7, 9)).astype(np.float32)
    x[0, :, :3] = -0.0          # signed zeros: the sum starts from +0.0, as in the loop
    got = bicubic_upsample(x, scale)
    want = _bicubic_upsample_loop(x, scale)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for n in (7, 9):
        assert numerics._bicubic_axis_weights(n, scale).tolist() == _cubic_taps_loop(n, scale)[1]


def test_bicubic_rejects_bad_shape_and_scale():
    for x, scale in [(np.zeros((4, 4)), 1), (np.zeros((4, 4)), 2),
                     (np.zeros((1, 4, 4)), 0), (np.zeros((1, 4, 4)), 1.5)]:
        with pytest.raises(ValueError):
            bicubic_upsample(x, scale)


def test_bicubic_axis_weights_cached_read_only():
    wts = numerics._bicubic_axis_weights(13, 4)
    assert numerics._bicubic_axis_weights(13, 4) is wts     # built once per (n_in, scale)
    with pytest.raises(ValueError):
        wts[0, 0] = 1


def test_bicubic_constant_preserved():
    x = np.full((3, 6, 6), 0.37, dtype=np.float32)
    y = bicubic_upsample(x, 4)
    assert y.shape == (3, 24, 24)
    assert np.allclose(y, 0.37, atol=1e-5)


def test_bicubic_linear_ramp_preserved_in_interior():
    h = 16
    ramp = np.tile(np.arange(h, dtype=np.float64), (h, 1))
    x = ramp[None].astype(np.float32)
    y = bicubic_upsample(x, 2)[0]
    # interior columns follow the ramp with slope 1/2 (align_corners=False)
    interior = y[8, 8:-8]
    diffs = np.diff(interior)
    assert np.allclose(diffs, 0.5, atol=1e-3)


# --- layer norm -------------------------------------------------------------

def test_layer_norm_zero_mean_unit_var():
    x = np.random.default_rng(3).normal(2.0, 3.0, (5, 16)).astype(np.float32)
    y = layer_norm(x)
    assert np.allclose(y.mean(axis=-1), 0, atol=1e-5)
    assert np.allclose(y.std(axis=-1), 1, atol=1e-2)


def test_layer_norm_affine():
    x = np.random.default_rng(4).normal(0, 1, (3, 8)).astype(np.float32)
    g = np.full(8, 2.0, dtype=np.float32)
    b = np.full(8, 1.0, dtype=np.float32)
    base = layer_norm(x)
    aff = layer_norm(x, g, b)
    assert np.allclose(aff, base * 2 + 1, atol=1e-6)


# --- metrics ----------------------------------------------------------------

def test_psnr_identical_capped():
    x = np.random.default_rng(5).random((3, 8, 8)).astype(np.float32)
    assert psnr(x, x) == PSNR_CAP_DB


def test_psnr_known_value():
    a = np.zeros((1, 4, 4), dtype=np.float32)
    b = np.full((1, 4, 4), 0.1, dtype=np.float32)
    expect = 10 * np.log10(1.0 / 0.01)
    assert abs(psnr(a, b) - expect) < 1e-4


def test_ssim_identical_is_one():
    x = np.random.default_rng(6).random((1, 16, 16)).astype(np.float32)
    assert abs(ssim(x, x) - 1.0) < 1e-6


def test_ssim_decreases_with_noise():
    rng = np.random.default_rng(7)
    x = rng.random((1, 32, 32)).astype(np.float32)
    y = np.clip(x + rng.normal(0, 0.2, x.shape), 0, 1).astype(np.float32)
    assert ssim(x, y) < 0.95


# --- file formats -----------------------------------------------------------

def test_tstf_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    arr = rng.normal(0, 1, (2, 3, 4)).astype(np.float32)
    p = tmp_path / "t.tstf"
    write_tstf(p, arr)
    back = read_tstf(p)
    assert back.shape == (2, 3, 4)
    assert np.array_equal(back, arr)
    raw = p.read_bytes()
    assert raw[:4] == b"TSTF"
    assert raw[4:8] == b"\x01\x00\x00\x00"
    assert raw[8] == 0 and raw[9] == 3


def test_tstf_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.tstf"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_tstf(p)


def test_tstf_rejects_short_header_and_wrong_payload_size(tmp_path):
    p = tmp_path / "t.tstf"
    write_tstf(p, np.zeros((2, 3), dtype=np.float32))
    raw = p.read_bytes()
    for blob in (raw[:6], raw[:10], raw[:21],
                 raw[:10] + b"\xff" * 8 + raw[18:],         # dims[0] = 2^64 - 1
                 raw[:10] + (2 ** 40).to_bytes(8, "little") + raw[18:],
                 raw + b"\0"):                              # a trailing byte
        p.write_bytes(blob)
        with pytest.raises(ValueError):
            read_tstf(p)


def _valid_file(fmt, path):
    rng = np.random.default_rng(10)
    if fmt == "tstf":
        write_tstf(path, rng.normal(0, 1, (2, 3)).astype(np.float32))
    else:
        write_pnm(path, rng.random((3, 2, 2)).astype(np.float32))
    return path.read_bytes()


@settings(max_examples=400)
@given(fmt=st.sampled_from(["tstf", "ppm"]), cut=st.integers(0, 64),
       flips=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), max_size=3),
       tail=st.binary(max_size=16))
@example(fmt="tstf", cut=10, flips=[], tail=b"")
@example(fmt="tstf", cut=64, flips=[(17, 127)], tail=b"")
@example(fmt="tstf", cut=64, flips=[(9, 200)], tail=b"")
@example(fmt="ppm", cut=64, flips=[(3, ord("9"))], tail=b"")
def test_malformed_files_read_or_raise_value_error(tmp_path_factory, fmt, cut, flips, tail):
    """A truncated, byte-flipped or extended TSTF/PPM file either reads or
    raises ValueError, never another exception."""
    path = tmp_path_factory.getbasetemp() / f"fuzz.{fmt}"
    blob = bytearray(_valid_file(fmt, path))
    for at, value in flips:
        blob[at % len(blob)] = value
    path.write_bytes(bytes(blob[:cut]) + tail)
    read = read_tstf if fmt == "tstf" else read_pnm
    try:
        out = read(path)
        assert type(out) is np.ndarray and out.dtype == np.float32
    except ValueError:
        pass


def test_pnm_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    arr = (rng.integers(0, 256, (3, 5, 7)) / 255.0).astype(np.float32)
    p = tmp_path / "img.ppm"
    write_pnm(p, arr)
    back = read_pnm(p)
    assert back.shape == (3, 5, 7)
    assert np.allclose(back, arr, atol=1e-7)


def test_pgm_gray_round_trip(tmp_path):
    arr = (np.arange(12).reshape(1, 3, 4) / 255.0).astype(np.float32)
    p = tmp_path / "img.pgm"
    write_pnm(p, arr)
    back = read_pnm(p)
    assert back.shape == (1, 3, 4)
    assert np.allclose(back, arr, atol=1e-7)
