"""Acceptance criteria 1-12, one printed pass/fail line per criterion.

Lines are written to the real stdout (bypassing capture) so every criterion
shows up in the test log regardless of pass/fail.  Criteria 1-3 check the
program's per-region elimination records against an independent oracle of
the contracted definition.  The published values (delta = 18, delta_inter = 6)
are kept as constants, and the oracle shows that no orientation of the two
curves reaches them; see the README "Acceptance status" section.
"""

import dataclasses
import json
import random
import sys
import time

import numpy as np
import pytest

from tsmamba.discontinuity import (
    DEFAULT_SHIFTS,
    analyze,
    enumerate_regions,
    region_degree,
    report_to_json,
    search_procedures,
)
from tsmamba.model import (
    TsMambaWeights,
    charbonnier_loss,
    count_params_macs,
    total_loss,
    trajectory_loss,
    ts_mamba_forward,
)
from tsmamba.numerics import ModelConfig, bicubic_upsample
from tsmamba.scanorder import ScanOrder, ScanVariant, WindowPartition, generate_scan
from tsmamba.ssm import (
    SelectiveScanParams,
    build_ss3d_sequence,
    gradient_check,
    scatter_current,
    selective_scan_forward,
)
from tsmamba.trajectory import TrajectorySet, select_tokens, token_centers


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


def charbonnier_grad(sr, hr, epsilon=1e-4):
    """d charbonnier_loss / d sr, for the finite-difference check."""
    x, y = np.asarray(sr, dtype=np.float64), np.asarray(hr, dtype=np.float64)
    d = x - y
    return d / (np.sqrt(d * d + epsilon * epsilon) * d.size)


def zeroed_tail(r_weights):
    """Copy of R's weights with the final conv zeroed: isolates the bicubic skip."""
    return dataclasses.replace(r_weights, tail_w=np.zeros_like(r_weights.tail_w),
                               tail_b=np.zeros_like(r_weights.tail_b))


def _report(capfd, num, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capfd.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    assert ok, line


# --- criteria 1-3: the contracted elimination against an independent oracle --
#
# The contract (README "Acceptance status", `tsmamba.discontinuity`):
#   * a 2x2 region's degree is the number of gaps among the sorted scan
#     indices of its four cells;
#   * a region eliminates max(0, d_first - d_second) degrees;
#   * a region is intra-window when its four cells lie in one window of the
#     first partition;
#   * the second order is the window-tiled second curve read on the grid
#     cyclically shifted by the shift's step d: content at cell x moves to
#     x + d, so cell x takes the scan index of position x + d.
# The oracle takes only the window curves from `generate_scan` and builds its
# own tiling, shift and degrees; it shares no code with
# `tsmamba.discontinuity` or `compose_scan_shift_scan`.

GRID, WINDOW = 8, 4

# Values published for the named procedures.  The oracle reaches none of them
# under any of the 64 (first, second) orientations of the base curve, so the
# criteria check the program against the oracle and assert these unreachable.
PUBLISHED_U1 = (18, 18, 0)        # (delta, intra, inter) of Scan1->U1->Scan3
PUBLISHED_DIAGONAL_INTER = 6      # delta_inter of Scan1->UL3/UR3->Scan3
PUBLISHED_BEST_INTRA = 18         # delta_intra of the best symmetric chains

_STEPS = {"U": (-1, 0), "D": (1, 0), "L": (0, -1), "R": (0, 1),
          "UL": (-1, -1), "UR": (-1, 1), "DL": (1, -1), "DR": (1, 1)}


def _window_ranks(variant):
    """WINDOW x WINDOW array of each cell's index along the variant curve."""
    ranks = np.empty((WINDOW, WINDOW), dtype=int)
    for i, (r, c) in enumerate(generate_scan(variant, WINDOW).cells.tolist()):
        ranks[r, c] = i
    return ranks


# The eight dihedral images of the base curve, whichever image Scan1 pins.
_BASE = _window_ranks(ScanVariant.Scan1)
_ORIENTATIONS = [np.rot90(g, k) for g in (_BASE, _BASE.T) for k in range(4)]


def _oracle(first, shift, second):
    """Per-region records and (delta, delta_intra, delta_inter).

    `first` and `second` are window rank arrays; `shift` is a name like
    'UL3'.  Records are (anchor, kind, d_first, d_second, eliminated) in
    row-major anchor order.
    """
    name = shift.rstrip("0123456789")
    k = int(shift[len(name):])
    dr, dc = (k * step for step in _STEPS[name])
    n = GRID // WINDOW
    window_base = np.kron(np.arange(n * n).reshape(n, n) * WINDOW * WINDOW,
                          np.ones((WINDOW, WINDOW), dtype=int))

    def degrees(ranks):
        blocks = np.lib.stride_tricks.sliding_window_view(ranks, (2, 2))
        idx = np.sort(blocks.reshape(-1, 4), axis=1)
        return (np.diff(idx, axis=1) > 1).sum(axis=1).tolist()

    first_ranks = window_base + np.tile(first, (n, n))
    second_tiled = window_base + np.tile(second, (n, n))
    # np.roll(a, -d)[x] == a[x + d]
    second_ranks = np.roll(second_tiled, (-dr, -dc), axis=(0, 1))
    anchors = [(r, c) for r in range(GRID - 1) for c in range(GRID - 1)]
    records = []
    for (r, c), d1, d2 in zip(anchors, degrees(first_ranks),
                              degrees(second_ranks)):
        one_window = (r // WINDOW == (r + 1) // WINDOW
                      and c // WINDOW == (c + 1) // WINDOW)
        records.append(((r, c), "intra" if one_window else "inter",
                        d1, d2, max(0, d1 - d2)))
    intra = sum(rec[4] for rec in records if rec[1] == "intra")
    inter = sum(rec[4] for rec in records if rec[1] == "inter")
    return records, (intra + inter, intra, inter)


def _oracle_named(first, shift, second):
    return _oracle(_window_ranks(first), shift, _window_ranks(second))


def _reachable(shift):
    """Oracle totals of `shift` over all 64 (first, second) orientations."""
    return {_oracle(a, shift, b)[1] for a in _ORIENTATIONS for b in _ORIENTATIONS}


def _records(report):
    """The report's JSON regions as (anchor, kind, d_first, d_second,
    eliminated) tuples, the oracle's record layout."""
    return [(tuple(g["anchor"]), g["kind"], g["d_first"], g["d_second"], g["eliminated"])
            for g in json.loads(report_to_json(report))["regions"]]


def _totals(report):
    return report.delta, report.delta_intra, report.delta_inter


def _matches_oracle(report, first, shift, second):
    """Program records and totals equal the oracle's, region by region."""
    want_records, want_totals = _oracle_named(first, shift, second)
    return _records(report) == want_records and _totals(report) == want_totals


def test_criterion_1_delta_reproduction(capfd):
    named = (ScanVariant.Scan1, "U1", ScanVariant.Scan3)
    t0 = time.monotonic()
    rep = analyze(*named, GRID, WINDOW)
    got = _totals(rep)
    elapsed = time.monotonic() - t0
    match = _matches_oracle(rep, *named)
    published_reachable = PUBLISHED_U1 in _reachable("U1")
    ok = match and not published_reachable and elapsed < 1.0
    _report(capfd, 1, ok, f"got {got}, oracle match {match}, published "
                   f"{PUBLISHED_U1} reachable {published_reachable}, {elapsed:.2f}s")


def test_criterion_2_inter_window_optimum(capfd):
    ul_named = (ScanVariant.Scan1, "UL3", ScanVariant.Scan3)
    ur_named = (ScanVariant.Scan1, "UR3", ScanVariant.Scan3)
    t0 = time.monotonic()
    ul = analyze(*ul_named, GRID, WINDOW)
    ur = analyze(*ur_named, GRID, WINDOW)
    elapsed = time.monotonic() - t0

    def mirrored(rep):
        return sorted(((r, GRID - 2 - c), kind, elim)
                      for (r, c), kind, _, _, elim in _records(rep))

    sym = mirrored(ul) == sorted(
        (anchor, kind, elim) for anchor, kind, _, _, elim in _records(ur))
    ul_inter, ur_inter = ul.delta_inter, ur.delta_inter
    best_inter = max(_oracle_named(ScanVariant.Scan1, s, ScanVariant.Scan3)[1][2]
                     for s in DEFAULT_SHIFTS)
    match = _matches_oracle(ul, *ul_named) and _matches_oracle(ur, *ur_named)
    published_reachable = any(totals[2] == PUBLISHED_DIAGONAL_INTER
                              for s in ("UL3", "UR3") for totals in _reachable(s))
    ok = (ul_inter == ur_inter == best_inter and sym and match
          and not published_reachable and elapsed < 1.0)
    _report(capfd, 2, ok, f"delta_inter UL3={ul_inter} UR3={ur_inter} want the "
                   f"maximum {best_inter}, mirror-symmetric={sym}, oracle match "
                   f"{match}, published {PUBLISHED_DIAGONAL_INTER} reachable "
                   f"{published_reachable}")


def test_criterion_3_symmetric_best_procedures(capfd):
    chains = [
        (ScanVariant.Scan1, "U1", ScanVariant.Scan3),
        (ScanVariant.Scan2, "L1", ScanVariant.Scan4),
        (ScanVariant.Scan3, "D1", ScanVariant.Scan1),
        (ScanVariant.Scan4, "R1", ScanVariant.Scan2),
    ]
    t0 = time.monotonic()
    reports = [analyze(*chain, GRID, WINDOW) for chain in chains]
    results = search_procedures(GRID, WINDOW)
    elapsed = time.monotonic() - t0
    totals = [_totals(rep) for rep in reports]
    max_intra = max(r[3].delta_intra for r in results)
    equal = len(set(totals)) == 1
    match = all(_matches_oracle(rep, *chain) for rep, chain in zip(reports, chains))
    published_reachable = any(tot[1] == PUBLISHED_BEST_INTRA
                              for s in DEFAULT_SHIFTS for tot in _reachable(s))
    ok = (equal and totals[0][1] == max_intra and match
          and not published_reachable and elapsed < 10.0)
    _report(capfd, 3, ok, f"chain deltas {[t[0] for t in totals]} want equal, "
                   f"delta_intra {[t[1] for t in totals]} want the maximum "
                   f"{max_intra}, oracle match {match}, published "
                   f"{PUBLISHED_BEST_INTRA} reachable {published_reachable}")


def test_criterion_4_hilbert_properties(capfd):
    t0 = time.monotonic()
    ok = True
    for variant in ScanVariant:
        for size in (2, 4, 8, 16, 32):
            scan = generate_scan(variant, size)
            ok &= scan.is_bijective() and scan.is_continuous()
            part = WindowPartition(size, size)
            for (r, c), _ in enumerate_regions(part):
                if r % 2 == 0 and c % 2 == 0:
                    ok &= region_degree(scan, (r, c)) == 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(capfd, 4, ok, f"{elapsed:.2f}s")


def test_criterion_5_degree_range(capfd):
    t0 = time.monotonic()
    size = 8
    cells = [(r, c) for r in range(size) for c in range(size)]
    anchors = [anchor for anchor, _ in enumerate_regions(WindowPartition(size, 4))]
    rng = random.Random(0)
    ok = True
    for _ in range(1000):
        shuffled = cells[:]
        rng.shuffle(shuffled)
        order = ScanOrder(size=size, cells=shuffled)
        ok &= all(region_degree(order, anchor) in {0, 1, 2, 3} for anchor in anchors)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(capfd, 5, ok, f"1000 random orders, {elapsed:.2f}s")


def test_criterion_6_selective_scan_oracle(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 65))
        C = int(rng.integers(1, 9))
        N = int(rng.integers(1, 17))
        params = SelectiveScanParams.init(C, N, L, rng)
        u = rng.normal(0, 1, (L, C))
        y = selective_scan_forward(params, u)
        ref = selective_scan_reference(params, u)
        worst = max(worst, float(np.abs(y - ref).max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _report(capfd, 6, ok, f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_7_gradient_checks(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(2, 10))
        C = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        params = SelectiveScanParams.init(C, N, L, rng)
        u = rng.normal(0, 1, (L, C))
        worst = max(worst, gradient_check(params, u, rng=rng))
    # Charbonnier loss gradient (float64 path)
    x = rng.normal(0, 1, (3, 5))
    y = rng.normal(0, 1, (3, 5))
    g = charbonnier_grad(x, y)
    step = 1e-6
    worst_ch = 0.0
    for idx in np.ndindex(x.shape):
        xp = x.copy(); xp[idx] += step
        xm = x.copy(); xm[idx] -= step
        fd = (charbonnier_loss(xp, y) - charbonnier_loss(xm, y)) / (2 * step)
        worst_ch = max(worst_ch,
                       abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-12))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and worst_ch < 1e-5 and elapsed < 30.0
    _report(capfd, 7, ok, f"ssm rel err {worst:.2e}, charbonnier {worst_ch:.2e}")


def test_criterion_8_token_selection_oracle(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        ht = wt = int(rng.choice([2, 4, 8]))
        n = ht * wt
        c = int(rng.integers(2, 9))
        pool = int(rng.integers(3, 9))
        s = 3
        q = rng.normal(0, 1, (n, c)).astype(np.float32)
        vs = [rng.normal(0, 1, (n, c)).astype(np.float32) for _ in range(pool)]
        centers = token_centers(ht, wt, 4)
        traj = TrajectorySet(4, ht * 4, wt * 4,
                             np.repeat(centers[None], pool + 1, axis=0))
        sel = select_tokens(q.reshape(ht, wt, c), np.array(vs).reshape(pool, ht, wt, c),
                            traj, s)
        # exhaustive oracle with the documented (-score, recency) tie-break
        for i in range(n):
            qv = q[i].astype(np.float64)
            qn = np.linalg.norm(qv)
            cand = []
            for off, v in enumerate(vs, start=1):
                vv = v[i].astype(np.float64)
                vn = np.linalg.norm(vv)
                score = 0.0 if qn == 0 or vn == 0 else float(qv @ vv / (qn * vn))
                cand.append((score, off))
            cand.sort(key=lambda tpl: (-tpl[0], tpl[1]))
            ok &= sel.indices[i].tolist() == [off for _, off in cand[:s]]
        scaled = (q * 3.25).reshape(ht, wt, c)
        ok &= np.array_equal(select_tokens(scaled, np.array(vs).reshape(pool, ht, wt, c),
                                           traj, s).indices,
                             sel.indices)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(capfd, 8, ok, f"50 instances, {elapsed:.2f}s")


def test_criterion_9_loss_fixed_points(capfd):
    t0 = time.monotonic()
    x = np.random.default_rng(3).random((3, 8, 8)).astype(np.float32)
    spa = charbonnier_loss(x, x, epsilon=1e-4)
    centers = token_centers(4, 4, 4)
    lr = TrajectorySet(4, 16, 16, np.repeat(centers[None], 3, axis=0))
    hr = TrajectorySet(4, 64, 64, np.zeros((3, 16 * 16, 2)))
    for m in range(3):
        grid = hr.coords[m].reshape(16, 16, 2)
        for r in range(16):
            for c in range(16):
                grid[r, c] = lr.coords[m][(r // 4) * 4 + c // 4] * 4
        hr.coords[m] = grid.reshape(-1, 2)
    trj = trajectory_loss(lr, hr)
    comp = total_loss(spa, trj, lam=0.1)
    elapsed = time.monotonic() - t0
    ok = (spa == pytest.approx(1e-4, abs=1e-15) and trj == 0.0
          and comp == spa + 0.1 * trj and elapsed < 1.0)
    _report(capfd, 9, ok, f"spa={spa:.2e} trj={trj} total={comp:.2e}")


def test_criterion_10_end_to_end_toy_forward(capfd):
    t0 = time.monotonic()
    cfg = ModelConfig(channels=8, state_dim=4)
    weights = TsMambaWeights.random(cfg, seed=0)
    rng = np.random.default_rng(4)
    base = rng.random((3, 32, 32)).astype(np.float32)
    frames = [np.roll(base, k, axis=2) for k in range(5)]
    a = ts_mamba_forward(frames, None, weights, cfg)
    b = ts_mamba_forward(frames, None, weights, cfg)   # thread-count invariant
    zeroed = TsMambaWeights(g=weights.g, tsma=weights.tsma,
                            r=zeroed_tail(weights.r))
    z = ts_mamba_forward(frames, None, zeroed, cfg)
    skip = bicubic_upsample(frames[-1])
    elapsed = time.monotonic() - t0
    ok = (a.data.shape == (3, 128, 128) and np.array_equal(a.data, b.data)
          and np.array_equal(z.data, skip) and elapsed < 60.0)
    _report(capfd, 10, ok, f"dims {a.data.shape}, {elapsed:.2f}s")


def test_criterion_11_ss3d_structure(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    n, s, c = 64, 3, 4
    q = rng.normal(0, 1, (n, c)).astype(np.float32)
    v = rng.normal(0, 1, (n, s, c)).astype(np.float32)
    gathered = build_ss3d_sequence(np.arange(n), q, v)
    ok = gathered.shape == (256, c)
    ok &= all(np.array_equal(gathered[k * (s + 1) + j],
                             v[k, j] if j < s else q[k])
              for k in range(n) for j in range(s + 1))
    for _ in range(100):
        nn = int(rng.integers(4, 65))
        cc = int(rng.integers(1, 6))
        qq = rng.normal(0, 1, (nn, cc)).astype(np.float32)
        vv = rng.normal(0, 1, (nn, s, cc)).astype(np.float32)
        cells = rng.permutation(nn)
        g = build_ss3d_sequence(cells, qq, vv)
        ok &= np.array_equal(scatter_current(cells, g, nn), qq)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(capfd, 11, ok, f"L=256, 100 round-trips, {elapsed:.2f}s")


def test_criterion_12_non_reproducibility_statement(capfd):
    # Table 1 PSNR/SSIM (e.g., 30.73 dB on REDS4), runtime/FPS, and the
    # ablation deltas require full training on REDS/Vimeo-90K and are NOT
    # reproduced here; criteria 1-11 substitute property-based acceptance.
    # calibration: the width in 16..128 whose params at 180x320 are closest to 3.0M
    counts = {c: count_params_macs(ModelConfig(channels=c), (180, 320))
              for c in range(16, 129)}
    best = min(counts, key=lambda c: abs(counts[c]["params"] - 3_000_000))
    params, macs = counts[best]["params"], counts[best]["macs"]
    ok = abs(params - 3_000_000) < 100_000
    _report(capfd, 12, ok,
            f"calibration C={best} -> {params/1e6:.3f}M params, "
            f"{macs/1e9:.0f} GMACs at 180x320 (reference: 3.0M / 112G, "
            "diagnostic only)")
