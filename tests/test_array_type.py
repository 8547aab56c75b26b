"""One array type: the library's functions return float32 ndarrays, and only
ts_mamba_forward and block_matching_flow wrap their result in a Tensor."""

import numpy as np
import pytest

from tsmamba.model import (
    TsMambaWeights,
    reconstruct,
    ts_mamba_forward,
    tsma_forward,
    untokenize,
)
from tsmamba.numerics import (
    ModelConfig,
    Tensor,
    bicubic_upsample,
    conv2d,
    layer_norm,
    pixel_shuffle,
    read_pnm,
    read_tstf,
    relu,
    residual_block,
    write_pnm,
    write_tstf,
)
from tsmamba.ssm import (
    SelectiveScanParams,
    build_ss3d_sequence,
    scatter_current,
    selective_scan_forward,
    ssm_block,
)
from tsmamba.trajectory import block_matching_flow, generate_tokens, select_along_trajectories

CFG = ModelConfig(channels=4, state_dim=2, n1_res_blocks=1, n2_res_blocks=1,
                  temporal_window=3, s_selected=2)
RNG = np.random.default_rng(0)
W = TsMambaWeights.random(CFG, seed=0)
# float64 inputs: every function must hand back float32
FRAMES = [RNG.random((3, 32, 32)) for _ in range(3)]
X = RNG.normal(0, 1, (4, 8, 8))
K = RNG.normal(0, 0.1, (4, 4, 3, 3))
Q = RNG.normal(0, 1, (64, 4))
V = RNG.normal(0, 1, (64, 2, 4))
CELLS = np.arange(64).reshape(4, 16)
GRID, SELECTION = select_along_trajectories(FRAMES, None, W.g, CFG)


def _read_tstf(tmp_path):
    write_tstf(tmp_path / "x.tstf", X)
    return read_tstf(tmp_path / "x.tstf")


def _read_pnm(tmp_path):
    write_pnm(tmp_path / "x.ppm", FRAMES[0])
    return read_pnm(tmp_path / "x.ppm")


CASES = {
    "conv2d": lambda _: conv2d(X, K, np.zeros(4), padding=1),
    "relu": lambda _: relu(X),
    "residual_block": lambda _: residual_block(X, K, np.zeros(4), K, np.zeros(4)),
    "pixel_shuffle": lambda _: pixel_shuffle(X, 2),
    "bicubic_upsample": lambda _: bicubic_upsample(X, 2),
    "layer_norm": lambda _: layer_norm(Q, np.ones(4), np.zeros(4)),
    "read_tstf": _read_tstf,
    "read_pnm": _read_pnm,
    "build_ss3d_sequence": lambda _: build_ss3d_sequence(CELLS, Q, V, 2),
    "scatter_current": lambda _: scatter_current(
        CELLS, build_ss3d_sequence(CELLS, Q, V, 2), 2, 64),
    "ssm_block": lambda _: ssm_block(Q, CELLS, V, 2, SelectiveScanParams.init(4, 2, 48)),
    "selective_scan_forward": lambda _: selective_scan_forward(
        SelectiveScanParams.init(4, 2, 48), Q[:48]),
    "generate_tokens": lambda _: generate_tokens(FRAMES[0], CFG, W.g),
    "SelectionResult.selected": lambda _: SELECTION.selected,
    "untokenize": lambda _: untokenize(GRID, CFG, W.g.proj_w),
    "reconstruct": lambda _: reconstruct(X, W.r, CFG),
    "tsma_forward": lambda _: tsma_forward(GRID, SELECTION, W.tsma, CFG),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_returns_float32_ndarray(name, tmp_path):
    out = CASES[name](tmp_path)
    assert type(out) is np.ndarray and out.dtype == np.float32


def test_forward_and_flow_return_tensor_whatever_the_input():
    arrays = [f.astype(np.float32) for f in FRAMES]
    tensors = [Tensor(f) for f in FRAMES]
    flows = [block_matching_flow(arrays[k], arrays[k - 1], 1) for k in (1, 2)]
    flows_t = [block_matching_flow(tensors[k], tensors[k - 1], 1) for k in (1, 2)]
    assert all(type(f) is Tensor for f in flows + flows_t)
    assert all(a.data.tobytes() == b.data.tobytes() for a, b in zip(flows, flows_t))
    sr = ts_mamba_forward(arrays, [f.data for f in flows], W, CFG)
    sr_t = ts_mamba_forward(tensors, flows_t, W, CFG)
    assert type(sr) is Tensor and type(sr_t) is Tensor
    assert sr.data.dtype == np.float32 and sr.data.shape == (3, 128, 128)
    assert sr.data.tobytes() == sr_t.data.tobytes()
