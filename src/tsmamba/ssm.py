"""Selective-scan (S6) recurrence, analytic backward pass, and SS3D sequences.

The forward recurrence, per channel c and step l (h_0 = 0):

    delta_l = softplus(dt_l)            (positive step size)
    Abar_l  = exp(delta_l * A[c])       (zero-order hold on A)
    Bbar_l  = delta_l * B_l             (Euler on B)
    h_l     = Abar_l * h_{l-1} + Bbar_l * u_l
    y_l     = <C_l, h_l> + D[c] * u_l

A is diagonal per channel (state_dim entries); B_l and C_l are per-step
state_dim vectors shared across channels; dt is per (step, channel).  Several
windows of C channels can share one parameter set: they are a broadcast axis
of the state, so each (step, channel) is discretised once.

The input terms Bbar_l * u_l of all steps are formed in one broadcast
multiply, straight into the state cache; the loop then takes two ufuncs per
step, Abar_l * h_{l-1} into a step-sized temporary and that added in place to
the cached input term.  The first step adds its input term to the zero
state's 0.0, so a -0.0 term is kept as +0.0, as a zero-state step gives it.

The backward runs the same recurrence in reverse over the recomputed states:
one loop of two ufuncs per step fills d loss / d h_l, and each gradient is
then one array expression over it and the forward's cache (the per-step loop
that accumulated them is the tests' oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import MAX_SCAN_TABLE, MAX_STATE_DIM, draw_weights, layer_norm

__all__ = [
    "SelectiveScanParams",
    "selective_scan_forward",
    "selective_scan_backward",
    "gradient_check",
    "check_gradient_check_size",
    "build_ss3d_sequence",
    "ssm_block",
]


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class SelectiveScanParams:
    """Parameter pack for one selective-scan invocation.

    A  : [C, N]  diagonal state matrix entries (negative at init)
    D  : [C]     skip coefficient
    dt : [L, C]  raw step sizes (softplus applied inside the kernel)
    B  : [L, N]  input projection per step
    C  : [L, N]  output projection per step
    """

    A: np.ndarray
    D: np.ndarray
    dt: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @staticmethod
    def table(channels, state_dim, length):
        """field -> (shape, init) of a pack, in field order (see
        numerics.draw_weights); A = -(1..N) per channel is the stable S4D-real init."""
        if state_dim > MAX_STATE_DIM:
            raise ValueError(f"state_dim must be at most {MAX_STATE_DIM}, got {state_dim}")
        if length * channels * state_dim > MAX_SCAN_TABLE:
            raise ValueError(f"length * channels * state_dim = {length * channels * state_dim}, "
                             f"the size of an S6 table, must be at most {MAX_SCAN_TABLE}")
        return {
            "A": ((channels, state_dim), ("fill", -np.arange(1.0, state_dim + 1))),
            "D": ((channels,), ("fill", 1.0)),
            "dt": ((length, channels), ("normal", 0.1)),
            "B": ((length, state_dim), ("normal", 0.5)),
            "C": ((length, state_dim), ("normal", 0.5)),
        }

    @classmethod
    def init(cls, channels, state_dim, length, rng):
        """A pack drawn from its table with rng."""
        return cls(**draw_weights(cls.table(channels, state_dim, length), rng))

    def check(self, length, channels):
        """The pack in float64, the one precision of every S6 computation
        whatever the pack's dtype (a float64 field is not copied); raise
        ValueError unless each field has its table shape and is finite."""
        pack = SelectiveScanParams(**{name: np.asarray(value, dtype=np.float64)
                                      for name, value in vars(self).items()})
        for name, (shape, _) in self.table(channels, pack.A.shape[-1], length).items():
            value = getattr(pack, name)
            if value.shape != shape:
                raise ValueError(f"{name} shape {value.shape} != {shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"non-finite values in parameter {name}")
        return pack


def _recurrence(params, u):
    """The float64 recurrence over u [L, W*C] (W = width / C windows of the
    C channels of params.A, window-major): returns y [L, W*C] and the
    (delta, abar, hs) cache that the backward pass reads.  The windows are a
    broadcast axis: delta, Abar and delta*B are computed once on the
    [L, C, N] parameters and every window's state reads them."""
    if u.ndim != 2 or u.shape[0] < 1:
        raise ValueError("sequence must be [L, W*C] with L >= 1")
    L, width = u.shape
    C, N = params.A.shape
    windows = width // C
    if windows < 1 or width != windows * C:
        raise ValueError(f"sequence width {width} is not W >= 1 windows of {C} channels")
    params = params.check(L, C)
    delta = softplus(params.dt)                      # [L, C]
    abar = np.exp(delta[:, :, None] * params.A[None])  # [L, C, N]
    binp = delta[:, :, None] * params.B[:, None, :]    # [L, C, N]
    uw = u.reshape(L, windows, C)
    hs = np.empty((L, width, N), dtype=np.float64)
    hw = hs.reshape(L, windows, C, N)
    # all input terms first; step 1 still adds its term to the zero state's
    # 0.0, which keeps a -0.0 term as the +0.0 a zero-state step gives
    np.multiply(binp[:, None], uw[..., None], out=hw)
    h = np.zeros((windows, C, N), dtype=np.float64)
    decayed = np.empty_like(h)
    for a, hl in zip(abar, hw):
        np.multiply(a, h, out=decayed)
        h = np.add(decayed, hl, out=hl)
    # one gemv per step, as hs[l] @ C[l] would take it
    y = np.matmul(hs, params.C[:, :, None])[..., 0] + (params.D * uw).reshape(L, width)
    return y, (delta, abar, hs)


def selective_scan_forward(params, sequence):
    """Run the recurrence over sequence [L, W*C], W = width / C windows of the
    C channels of params.A in window-major order that share every parameter;
    returns the float32 [L, W*C] output.  All math is float64 internally for
    gradient-check fidelity."""
    y, _ = _recurrence(params, np.asarray(sequence, dtype=np.float64))
    return y.astype(np.float32)


def selective_scan_backward(params, sequence, upstream):
    """Exact reverse-mode gradients of the recurrence (reruns the forward pass),
    from gh[l] = d loss / d h_l = g_l * C_l + Abar_{l+1} * gh[l+1].

    Returns a dict with gradients for 'u', 'A', 'D', 'dt', 'B', 'C'.
    """
    u = np.asarray(sequence, dtype=np.float64)
    if u.shape[1:] != params.A.shape[:1]:
        raise ValueError(f"the backward runs one window: sequence must be [L, {len(params.A)}]")
    params = params.check(*u.shape)
    _, (delta, abar, hs) = _recurrence(params, u)
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != u.shape:
        raise ValueError("upstream gradient shape mismatch")
    gh = g[:, :, None] * params.C[:, None, :]        # [L, C, N]
    for l in range(len(gh) - 2, -1, -1):
        gh[l] += abar[l + 1] * gh[l + 1]
    hprev = np.concatenate([np.zeros_like(hs[:1]), hs[:-1]])    # h_{l-1}, h_{-1} = 0
    gexp = gh * hprev * abar                         # d loss / d (delta * A)
    ghb = np.matmul(gh, params.B[:, :, None])[..., 0]   # d loss / d (delta * u)
    return {
        "u": g * params.D + delta * ghb,
        "A": np.einsum("lcn,lc->cn", gexp, delta),
        "D": (g * u).sum(axis=0),
        "dt": ((gexp * params.A).sum(axis=2) + u * ghb) * sigmoid(params.dt),
        "B": np.einsum("lcn,lc->ln", gh, delta * u),
        "C": np.einsum("lc,lcn->ln", g, hs),
    }


# values gradient_check perturbs, two forward passes each: the check's time
# grows with their count times L, so it is bounded before anything is built
MAX_GRADIENT_CHECK_VALUES = 1 << 12


def check_gradient_check_size(length, channels, state_dim):
    """Raise ValueError when a check over a [length, channels] input and its
    parameters would perturb more than MAX_GRADIENT_CHECK_VALUES values."""
    # u and dt are [L, C], B and C [L, N], A [C, N] and D [C]
    n = 2 * length * (channels + state_dim) + channels * (state_dim + 1)
    if n > MAX_GRADIENT_CHECK_VALUES:
        raise ValueError(f"a gradient check over L={length}, C={channels}, N={state_dim} "
                         f"perturbs {n} values, more than {MAX_GRADIENT_CHECK_VALUES}")


def gradient_check(params, sequence, rng):
    """Central finite differences vs analytic backward; returns max rel error."""
    step = 1e-4
    u = np.array(sequence, dtype=np.float64)
    L, C = u.shape
    check_gradient_check_size(L, C, params.A.shape[1])
    g = rng.normal(0.0, 1.0, (L, C))
    # copies that the loss reads, so an in-place step reaches it
    p = SelectiveScanParams(**{k: a.copy() for k, a in vars(params.check(L, C)).items()})

    def loss():
        y, _ = _recurrence(p, u)
        return float((y * g).sum())

    analytic = selective_scan_backward(p, u, g)
    max_rel = 0.0
    targets = {"u": u, "A": p.A, "D": p.D, "dt": p.dt, "B": p.B, "C": p.C}
    for name, arr in targets.items():
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            lp = loss()
            arr[idx] = orig - step
            lm = loss()
            arr[idx] = orig
            fd = (lp - lm) / (2 * step)
            an = analytic[name][idx]
            denom = max(abs(fd), abs(an), 1e-6)
            max_rel = max(max_rel, abs(fd - an) / denom)
    return max_rel


# --- SS3D sequence building -------------------------------------------------

def build_ss3d_sequence(scan_cells, q, v):
    """Gather the interleaved SS3D sequences of one or more windows.

    scan_cells : int array [..., K] of token indices (into the token grid) in
                 each window's scan order.
    q          : [N, C] current-frame tokens.
    v          : [N, s, C] the s selected tokens per site (ascending frame
                 index); [N, 0, C] when s == 0.

    Returns a float32 [..., K*(s+1), C] array: position k is slot k % (s+1) of cell
    k // (s+1), where slots 0..s-1 are the selected tokens and slot s is the
    current token.
    """
    q = np.asarray(q, dtype=np.float32)
    cells = np.asarray(scan_cells, dtype=np.intp)
    bad = (cells < 0) | (cells >= q.shape[0])
    if bad.any():
        raise ValueError(f"token index {int(cells[bad][0])} outside grid")
    v = np.asarray(v, dtype=np.float32)
    if v.ndim != 3 or v.shape[::2] != q.shape:
        raise ValueError(f"v_selected {v.shape} must be [N, s, C] over the {q.shape} tokens")
    gathered = np.concatenate([v, q[:, None]], axis=1)[cells]    # [..., K, s+1, C]
    return gathered.reshape(*cells.shape[:-1], -1, q.shape[1])


def scatter_current(scan_cells, outputs, n_tokens):
    """Scatter the current-token slots of [..., K*(s+1), C] outputs back to
    [N, C]; tokens in no window stay zero."""
    y = np.asarray(outputs, dtype=np.float32)
    cells = np.asarray(scan_cells, dtype=np.intp)
    slots = y.shape[-2] // cells.shape[-1]           # s + 1 per scanned cell
    out = np.zeros((n_tokens, y.shape[-1]), dtype=np.float32)
    out[cells] = y[..., slots - 1::slots, :]
    return out


def ssm_block(tokens_in, window_scans, v_selected, params, gamma, beta):
    """LN -> SS3D gather -> one selective scan -> scatter -> residual.

    window_scans : int array [W, K] of per-window token indices in scan order.
    params       : SelectiveScanParams for one window's sequence length
                   L = K*(s+1), shared by all windows.
    The windows run as one recurrence over [L, W*C]: they are a broadcast
    axis of the state, with no tiled copies of A, D or dt, and share B and C.
    Selected-token slots are context only; outputs come from current slots.
    """
    x = np.asarray(tokens_in, dtype=np.float32)
    n, c = x.shape
    normed = layer_norm(x, gamma, beta)
    normed_v = layer_norm(v_selected, gamma, beta)
    gathered = build_ss3d_sequence(window_scans, normed, normed_v)   # [W, L, C]
    w, length, _ = gathered.shape
    y = selective_scan_forward(params, gathered.transpose(1, 0, 2).reshape(length, w * c))
    y = y.reshape(length, w, c).transpose(1, 0, 2)
    return x + scatter_current(window_scans, y, n)
