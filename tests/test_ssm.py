import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsmamba.model import window_scans_for_grid
from tsmamba.numerics import MAX_STATE_DIM, ModelConfig, layer_norm
from tsmamba.scanorder import ScanVariant
from tsmamba.ssm import (
    SelectiveScanParams,
    _recurrence,
    build_ss3d_sequence,
    gradient_check,
    scatter_current,
    selective_scan_backward,
    selective_scan_forward,
    sigmoid,
    ssm_block,
)


def selective_scan_reference(params, u):
    """Naive per-channel scalar-loop recurrence; the oracle for the kernel."""
    u = np.asarray(u, dtype=np.float64)
    L, C = u.shape
    N = params.A.shape[1]
    delta = np.logaddexp(0.0, params.dt)          # softplus
    y = np.zeros((L, C), dtype=np.float64)
    for c in range(C):
        h = [0.0] * N
        for l in range(L):
            d = delta[l, c]
            acc = 0.0
            for n in range(N):
                h[n] = np.exp(d * params.A[c, n]) * h[n] + d * params.B[l, n] * u[l, c]
                acc += params.C[l, n] * h[n]
            y[l, c] = acc + params.D[c] * u[l, c]
    return y.astype(np.float32)


def _random_instance(rng, L=None, C=None, N=None):
    L = L or int(rng.integers(1, 65))
    C = C or int(rng.integers(1, 9))
    N = N or int(rng.integers(1, 17))
    params = SelectiveScanParams.init(C, N, L, rng)
    u = rng.normal(0, 1, (L, C))
    return params, u


def test_forward_matches_reference_100_instances():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        params, u = _random_instance(rng)
        y = selective_scan_forward(params, u)
        ref = selective_scan_reference(params, u)
        worst = max(worst, float(np.abs(y - ref).max()))
    assert worst < 1e-6


def test_forward_single_step_closed_form():
    params = SelectiveScanParams(
        A=np.array([[-1.0]]), D=np.array([0.5]),
        dt=np.array([[0.0]]), B=np.array([[2.0]]), C=np.array([[3.0]]),
    )
    u = np.array([[1.0]])
    y = selective_scan_forward(params, u)
    d = np.log(2.0)  # softplus(0)
    expect = 3.0 * (d * 2.0 * 1.0) + 0.5 * 1.0
    assert abs(float(y[0, 0]) - expect) < 1e-6


@settings(max_examples=40)
@given(L=st.integers(1, 40), C=st.integers(1, 8), N=st.integers(1, 9),
       windows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_windows_equal_separate_scans(L, C, N, windows, seed):
    """W windows in one call, window-major along the width, give the bytes
    of W single-window calls with the same parameters."""
    rng = np.random.default_rng(seed)
    params = SelectiveScanParams.init(C, N, L, rng)
    params.A = -rng.uniform(0.5, 4.0, params.A.shape)      # distinct per channel
    params.D = rng.normal(1.0, 0.5, C)
    u = rng.normal(0, 1, (L, windows, C))
    y = selective_scan_forward(params, u.reshape(L, windows * C), windows)
    want = np.stack([selective_scan_forward(params, u[:, w]) for w in range(windows)],
                    axis=1)
    assert y.tobytes() == want.reshape(L, windows * C).tobytes()


def _recurrence_three_op(params, u, windows):
    """Oracle: the step loop that takes three ufuncs per step, h_l =
    Abar_l * h_{l-1} written into hs[l], then h_l += (delta_l * B_l) * u_l
    with the input term made inside the loop."""
    L, width = u.shape
    C, N = params.A.shape
    delta = np.logaddexp(0.0, params.dt)
    abar = np.exp(delta[:, :, None] * params.A[None])
    binp = delta[:, :, None] * params.B[:, None, :]
    uw = u.reshape(L, windows, C)
    hs = np.empty((L, width, N))
    hw = hs.reshape(L, windows, C, N)
    h = np.zeros((windows, C, N))
    for l in range(L):
        h = np.multiply(abar[l], h, out=hw[l])
        h += binp[l] * uw[l][..., None]
    y = np.matmul(hs, params.C[:, :, None])[..., 0] + (params.D * uw).reshape(L, width)
    return y, hs


@pytest.mark.parametrize("L", [1, 2, 256])
@pytest.mark.parametrize("windows", [1, 4])
@pytest.mark.parametrize("signed_zeros", [False, True])
def test_recurrence_bytes_equal_three_op_loop(L, windows, signed_zeros):
    """y and the cached states hs are byte-equal to the three-op step loop.
    With zero-padded tokens (u = +-0.0) and negative B the input term is -0.0
    at some sites; the first step still gives +0.0 there, as 0.0 + -0.0 does."""
    rng = np.random.default_rng(L * 10 + windows)
    C, N = 3, 5
    params = SelectiveScanParams.init(C, N, L, rng)
    u = rng.normal(0, 1, (L, windows * C))
    if signed_zeros:
        params.B = -np.abs(params.B)
        u[: max(1, L // 2)] = 0.0
        u[: max(1, L // 2), ::2] = -0.0
        terms = (np.logaddexp(0.0, params.dt)[:, :, None] * params.B[:, None]
                 )[:, None] * u.reshape(L, windows, C, 1)
        assert np.signbit(terms[0]).any() and (terms[0] == 0).all()
    y, (_, _, hs) = _recurrence(params, u, windows)
    want_y, want_hs = _recurrence_three_op(params, u, windows)
    assert hs.tobytes() == want_hs.tobytes()
    assert y.tobytes() == want_y.tobytes()
    if signed_zeros:
        assert not np.signbit(hs[0]).any()


@pytest.mark.parametrize("width,windows", [(6, 1), (6, 2), (8, 3), (0, 0), (4, 0)])
def test_windows_must_divide_width(width, windows):
    params = SelectiveScanParams.init(4, 2, 5)
    with pytest.raises(ValueError):
        selective_scan_forward(params, np.zeros((5, width)), windows)


def test_param_shape_checks():
    params = SelectiveScanParams.init(2, 4, 8)
    with pytest.raises(ValueError):
        params.check(7, 2)
    with pytest.raises(ValueError):
        params.check(8, 3)
    bad = SelectiveScanParams.init(2, 4, 8)
    bad.B[0, 0] = np.nan
    with pytest.raises(ValueError):
        bad.check(8, 2)


def test_gradient_check_20_instances():
    rng = np.random.default_rng(1)
    for _ in range(20):
        L = int(rng.integers(2, 10))
        C = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        params = SelectiveScanParams.init(C, N, L, rng)
        u = rng.normal(0, 1, (L, C))
        assert gradient_check(params, u, rng=rng) < 1e-4


def test_gradient_check_float32_params():
    # weights read from TSTF are float32; the check must still step them
    params = SelectiveScanParams.init(2, 3, 5)
    f32 = SelectiveScanParams(**{k: a.astype(np.float32) for k, a in vars(params).items()})
    u = np.random.default_rng(1).normal(0, 1, (5, 2))
    assert gradient_check(f32, u) < 1e-5


def _selective_scan_backward_loop(params, sequence, upstream):
    """Oracle: the per-step reverse loop, each gradient accumulated step by
    step from d loss / d h_l.  Returns the same dict as the kernel."""
    u = np.asarray(sequence, dtype=np.float64)
    _, (delta, abar, hs) = _recurrence(params, u)
    g = np.asarray(upstream, dtype=np.float64)
    L, C = u.shape
    N = params.A.shape[1]
    if g.shape != (L, C):
        raise ValueError("upstream gradient shape mismatch")

    gu = np.zeros((L, C))
    gA = np.zeros((C, N))
    gD = np.zeros(C)
    gdelta = np.zeros((L, C))
    gB = np.zeros((L, N))
    gC = np.zeros((L, N))

    gh = np.zeros((C, N))          # d loss / d h_l, accumulated backwards
    for l in range(L - 1, -1, -1):
        # y_l = hs[l] @ C_l + D * u_l
        gC[l] = (g[l][:, None] * hs[l]).sum(axis=0)
        gD += g[l] * u[l]
        gu[l] += g[l] * params.D
        gh += g[l][:, None] * params.C[l][None, :]
        # h_l = abar_l * h_{l-1} + delta_l * B_l * u_l
        hprev = hs[l - 1] if l > 0 else np.zeros((C, N))
        gabar = gh * hprev
        gdelta[l] += (gabar * params.A * abar[l]).sum(axis=1)   # via abar = exp(delta*A)
        gA += gabar * delta[l][:, None] * abar[l]
        gbin = gh                                               # d h / d (delta*B*u)
        gdelta[l] += (gbin * params.B[l][None, :] * u[l][:, None]).sum(axis=1)
        gB[l] += (gbin * delta[l][:, None] * u[l][:, None]).sum(axis=0)
        gu[l] += (gbin * delta[l][:, None] * params.B[l][None, :]).sum(axis=1)
        gh = gh * abar[l]
    gdt = gdelta * sigmoid(params.dt)               # softplus' = sigmoid
    return {"u": gu, "A": gA, "D": gD, "dt": gdt, "B": gB, "C": gC}


@settings(max_examples=60)
@given(L=st.integers(1, 64), C=st.integers(1, 6), N=st.integers(1, 8),
       f32=st.booleans(), zero_upstream=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_backward_matches_per_step_loop(L, C, N, f32, zero_upstream, seed):
    """Same keys, shapes and dtypes as the per-step loop; values agree to
    1e-10 relative to each gradient's largest magnitude (the two sum the
    same terms in different orders, so a sum near cancellation differs by
    more than 1e-10 of itself)."""
    rng = np.random.default_rng(seed)
    params, u = _random_instance(rng, L, C, N)
    params.A = -rng.uniform(0.5, 4.0, params.A.shape)
    params.D = rng.normal(1.0, 0.5, C)
    if f32:
        params = SelectiveScanParams(**{k: a.astype(np.float32) for k, a in vars(params).items()})
    g = np.zeros((L, C)) if zero_upstream else rng.normal(0, 1, (L, C))
    got = selective_scan_backward(params, u, g)
    want = _selective_scan_backward_loop(params, u, g)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key].shape == w.shape and got[key].dtype == w.dtype, key
        np.testing.assert_allclose(got[key], w, rtol=1e-10,
                                   atol=1e-10 * np.abs(w).max(initial=0.0), err_msg=key)


def test_backward_rejects_bad_upstream():
    params, u = _random_instance(np.random.default_rng(2), L=4, C=2, N=3)
    with pytest.raises(ValueError):
        selective_scan_backward(params, u, np.zeros((5, 2)))


# --- SS3D -------------------------------------------------------------------

def _ssm_block_loop(tokens_in, window_scans, v_selected, s, params, gamma, beta):
    """Oracle: one window at a time, a (token, slot) ordering, stacked rows,
    one scan per window, and a scatter of the current slots."""
    x = tokens_in
    n, c = x.shape
    normed = layer_norm(tokens_in, gamma, beta)
    normed_v = layer_norm(v_selected, gamma, beta) if s > 0 else None
    out = np.zeros_like(x)
    for cells in window_scans:
        ordering = [(int(idx), j) for idx in cells for j in range(s + 1)]
        rows = [normed[idx] if j == s else normed_v[idx, j] for idx, j in ordering]
        y = selective_scan_forward(params, np.stack(rows))
        for k, (idx, slot) in enumerate(ordering):
            if slot == s:
                out[idx] = y[k]
    return x + out


@pytest.mark.parametrize("ht,wt", [(8, 8), (16, 16), (8, 16)])
@pytest.mark.parametrize("s", [3, 0])
@pytest.mark.parametrize("scan", [
    (ScanVariant.Scan1, None),
    (ScanVariant.Scan3, "U1"),
    (ScanVariant.Scan4, "UL3"),
])
def test_ssm_block_matches_per_window_loop(ht, wt, s, scan):
    rng = np.random.default_rng(ht * 100 + wt * 10 + s)
    n, c = ht * wt, 4
    scans = window_scans_for_grid(ht, wt, ModelConfig(), *scan)
    assert scans.shape == ((ht // 8) * (wt // 8), 64)
    tokens = rng.normal(0, 1, (n, c)).astype(np.float32)
    v = rng.normal(0, 1, (n, s, c)).astype(np.float32)
    params = SelectiveScanParams.init(c, 4, 64 * (s + 1), rng)
    params.A = -rng.uniform(0.5, 4.0, params.A.shape)      # distinct per channel
    params.D = rng.normal(1.0, 0.5, c)
    gamma, beta = rng.normal(1, 0.1, c), rng.normal(0, 0.1, c)
    out = ssm_block(tokens, scans, v, s, params, gamma, beta)
    ref = _ssm_block_loop(tokens, scans, v, s, params, gamma, beta)
    assert out.tobytes() == ref.tobytes()


def test_ss3d_sequence_length_and_interleave():
    rng = np.random.default_rng(3)
    n, s, c = 64, 3, 4
    q = rng.normal(0, 1, (n, c)).astype(np.float32)
    v = rng.normal(0, 1, (n, s, c)).astype(np.float32)
    cells = np.arange(n)
    gathered = build_ss3d_sequence(cells, q, v, s)
    assert gathered.shape == (64 * (s + 1), c) == (256, c)
    # slot pattern per cell: v0, v1, v2, q
    for cell in (0, 17, 63):
        k = cell * (s + 1)
        for j in range(s):
            assert np.array_equal(gathered[k + j], v[cell, j])
        assert np.array_equal(gathered[k + s], q[cell])
    # several windows gather along a leading axis
    batched = build_ss3d_sequence(cells.reshape(4, 16), q, v, s)
    assert batched.shape == (4, 64, c)
    assert np.array_equal(batched.reshape(256, c), gathered)


def test_ss3d_gather_scatter_round_trip_100_fields():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(4, 65))
        s = 3
        c = int(rng.integers(1, 6))
        q = rng.normal(0, 1, (n, c)).astype(np.float32)
        v = rng.normal(0, 1, (n, s, c)).astype(np.float32)
        cells = rng.permutation(n)
        gathered = build_ss3d_sequence(cells, q, v, s)
        back = scatter_current(cells, gathered, s, n)
        assert np.array_equal(back, q)


def test_ss3d_without_selection_is_the_current_tokens():
    """s = 0 gathers an [N, 0, C] selection through the same path: each
    scan position is its current token."""
    q = np.random.default_rng(6).normal(0, 1, (16, 3)).astype(np.float32)
    cells = np.random.default_rng(7).permutation(16).reshape(2, 8)
    gathered = build_ss3d_sequence(cells, q, np.zeros((16, 0, 3)), 0)
    assert gathered.tobytes() == q[cells].tobytes()
    with pytest.raises(ValueError):
        build_ss3d_sequence(cells, q, np.zeros((16, 1, 3)), 0)


def test_state_dim_bounded_before_drawing():
    assert SelectiveScanParams.init(2, MAX_STATE_DIM, 3).A.shape == (2, MAX_STATE_DIM)
    with pytest.raises(ValueError, match=f"at most {MAX_STATE_DIM}"):
        SelectiveScanParams.init(2, 10**11, 3)


def test_ss3d_rejects_out_of_range_cell():
    q = np.zeros((4, 2))
    v = np.zeros((4, 3, 2))
    with pytest.raises(ValueError):
        build_ss3d_sequence([0, 1, 9], q, v, 3)
    with pytest.raises(ValueError):      # fancy indexing would wrap -1 silently
        build_ss3d_sequence([0, 1, -1], q, v, 3)


def test_ssm_block_residual_structure():
    rng = np.random.default_rng(5)
    n, c, s = 16, 4, 3
    tokens = rng.normal(0, 1, (n, c)).astype(np.float32)
    v = rng.normal(0, 1, (n, s, c)).astype(np.float32)
    L = n * (s + 1)
    params = SelectiveScanParams.init(c, 4, L, rng)
    out = ssm_block(tokens, np.arange(n)[None], v, s, params)
    assert out.shape == (n, c)
    # residual: output differs from input but stays finite
    assert np.all(np.isfinite(out))
    assert not np.array_equal(out, tokens)
