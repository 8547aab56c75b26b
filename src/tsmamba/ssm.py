"""Selective-scan (S6) recurrence, analytic backward pass, and SS3D sequences.

The forward recurrence, per channel c and step l (h_0 = 0):

    delta_l = softplus(dt_l)            (positive step size)
    Abar_l  = exp(delta_l * A[c])       (zero-order hold on A)
    Bbar_l  = delta_l * B_l             (Euler on B)
    h_l     = Abar_l * h_{l-1} + Bbar_l * u_l
    y_l     = <C_l, h_l> + D[c] * u_l

A is diagonal per channel (state_dim entries); B_l and C_l are per-step
state_dim vectors shared across channels; dt is per (step, channel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import layer_norm

__all__ = [
    "SelectiveScanParams",
    "selective_scan_forward",
    "selective_scan_backward",
    "gradient_check",
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

    @classmethod
    def init(cls, channels, state_dim, length, rng=None):
        """Stable initialization: A = -(1..N) per channel (S4D-real)."""
        rng = rng or np.random.default_rng(0)
        a = -np.tile(np.arange(1, state_dim + 1, dtype=np.float64), (channels, 1))
        return cls(
            A=a,
            D=np.ones(channels, dtype=np.float64),
            dt=rng.normal(0.0, 0.1, (length, channels)),
            B=rng.normal(0.0, 0.5, (length, state_dim)),
            C=rng.normal(0.0, 0.5, (length, state_dim)),
        )

    def check(self, length, channels):
        c, n = self.A.shape
        if c != channels:
            raise ValueError(f"A has {c} channels, expected {channels}")
        if self.dt.shape != (length, channels):
            raise ValueError(f"dt shape {self.dt.shape} != ({length},{channels})")
        if self.B.shape != (length, n) or self.C.shape != (length, n):
            raise ValueError("B/C shapes inconsistent with (L, state_dim)")
        for name in ("A", "D", "dt", "B", "C"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in parameter {name}")
        return self


def _recurrence(params, u):
    """The float64 recurrence over u [L, C]: returns y [L, C] and the
    (delta, abar, hs) cache that the backward pass reads."""
    if u.ndim != 2 or u.shape[0] < 1:
        raise ValueError("sequence must be [L, C] with L >= 1")
    L, C = u.shape
    params.check(L, C)
    N = params.A.shape[1]
    delta = softplus(params.dt)                      # [L, C]
    abar = np.exp(delta[:, :, None] * params.A[None])  # [L, C, N]
    binp = delta[:, :, None] * params.B[:, None, :]    # [L, C, N]
    h = np.zeros((C, N), dtype=np.float64)
    hs = np.zeros((L, C, N), dtype=np.float64)
    y = np.zeros((L, C), dtype=np.float64)
    for l in range(L):
        h = abar[l] * h + binp[l] * u[l][:, None]
        hs[l] = h
        y[l] = hs[l] @ params.C[l] + params.D * u[l]
    return y, (delta, abar, hs)


def selective_scan_forward(params, sequence):
    """Run the recurrence over sequence [L, C]; returns the float32 [L, C]
    output.  All math is float64 internally for gradient-check fidelity."""
    y, _ = _recurrence(params, np.asarray(sequence, dtype=np.float64))
    return y.astype(np.float32)


def selective_scan_backward(params, sequence, upstream):
    """Exact reverse-mode gradients of the recurrence (reruns the forward pass).

    Returns a dict with gradients for 'u', 'A', 'D', 'dt', 'B', 'C'.
    """
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


def gradient_check(params, sequence, rng=None):
    """Central finite differences vs analytic backward; returns max rel error."""
    step = 1e-4
    rng = rng or np.random.default_rng(0)
    u = np.array(sequence, dtype=np.float64)
    L, C = u.shape
    g = rng.normal(0.0, 1.0, (L, C))
    # float64 copies that the loss reads, so an in-place step reaches it
    p = SelectiveScanParams(**{k: np.array(a, dtype=np.float64)
                               for k, a in vars(params).items()})

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

def build_ss3d_sequence(scan_cells, q, v, s):
    """Gather the interleaved SS3D sequences of one or more windows.

    scan_cells : int array [..., K] of token indices (into the token grid) in
                 each window's scan order.
    q          : [N, C] current-frame tokens.
    v          : [N, s, C] selected tokens (ascending frame index);
                 unused when s == 0.
    s          : number of selected tokens per site.

    Returns a float32 [..., K*(s+1), C] array: position k is slot k % (s+1) of cell
    k // (s+1), where slots 0..s-1 are the selected tokens and slot s is the
    current token.
    """
    q = np.asarray(q, dtype=np.float32)
    cells = np.asarray(scan_cells, dtype=np.intp)
    bad = (cells < 0) | (cells >= q.shape[0])
    if bad.any():
        raise ValueError(f"token index {int(cells[bad][0])} outside grid")
    rows = q[:, None]
    if s > 0:
        v = np.asarray(v, dtype=np.float32)
        if v.ndim != 3 or v.shape[1] != s:
            raise ValueError(f"v_selected must be [N, {s}, C]")
        rows = np.concatenate([v, rows], axis=1)
    gathered = rows[cells]                          # [..., K, s+1, C]
    return gathered.reshape(*cells.shape[:-1], -1, q.shape[1])


def scatter_current(scan_cells, outputs, s, n_tokens):
    """Scatter the current-token slots of [..., K*(s+1), C] outputs back to
    [N, C]; tokens in no window stay zero."""
    y = np.asarray(outputs, dtype=np.float32)
    out = np.zeros((n_tokens, y.shape[-1]), dtype=np.float32)
    out[np.asarray(scan_cells, dtype=np.intp)] = y[..., s::s + 1, :]
    return out


def ssm_block(tokens_in, window_scans, v_selected, s, params, gamma=None, beta=None):
    """LN -> SS3D gather -> one selective scan -> scatter -> residual.

    window_scans : int array [W, K] of per-window token indices in scan order.
    params       : SelectiveScanParams for one window's sequence length
                   L = K*(s+1), shared by all windows.
    The windows run as one recurrence over [L, W*C]: they become extra
    channels (A, D and dt tiled W times) that share B and C.  Selected-token
    slots are context only; outputs come from current slots.
    """
    x = np.asarray(tokens_in, dtype=np.float32)
    n, c = x.shape
    normed = layer_norm(x, gamma, beta)
    normed_v = layer_norm(v_selected, gamma, beta) if s > 0 else None
    gathered = build_ss3d_sequence(window_scans, normed, normed_v, s)   # [W, L, C]
    w, length, _ = gathered.shape
    tiled = SelectiveScanParams(A=np.tile(params.A, (w, 1)), D=np.tile(params.D, w),
                                dt=np.tile(params.dt, (1, w)), B=params.B, C=params.C)
    y = selective_scan_forward(tiled, gathered.transpose(1, 0, 2).reshape(length, w * c))
    y = y.reshape(length, w, c).transpose(1, 0, 2)
    return x + scatter_current(window_scans, y, s, n)
