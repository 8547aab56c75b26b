"""Unified command-line interface.

Subcommands: scan gen|check, disc analyze|search, traj select, ssm run,
grad check, model forward|count, loss eval.  All JSON outputs are wrapped in
a ReportEnvelope carrying the tool version, the command, and content digests
of every input file, so identical inputs give byte-identical reports.

Exit codes: 0 success, 1 internal invariant violation, 2 invalid arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .discontinuity import (
    analyze,
    report_to_json,
    report_to_svg,
    search_procedures,
    search_to_csv,
)
from .model import (
    TsMambaWeights,
    charbonnier_loss,
    count_params_macs,
    total_loss,
    trajectory_loss,
    ts_mamba_forward,
    weight_map,
)
from .numerics import (
    ModelConfig,
    read_pnm,
    read_tstf,
    write_pnm,
    write_tstf,
)
from .scanorder import (
    ScanVariant,
    ShiftSpec,
    generate_scan,
    scan_from_json,
    scan_to_json,
    scan_to_svg,
)
from .ssm import (
    SelectiveScanParams,
    check_gradient_check_size,
    gradient_check,
    selective_scan_forward,
)
from .trajectory import GWeights, TrajectorySet, block_matching_flow, select_along_trajectories


class CliError(Exception):
    """Invalid arguments or inputs; maps to exit code 2."""


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _envelope(command, inputs, payload):
    return {
        "version": __version__,
        "command": command,
        "inputs": {os.path.basename(p): _digest(p) for p in inputs},
        "payload": payload,
    }


def _write_text(text, path=None):
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj, out_path=None):
    # strict JSON: a NaN or inf raises ValueError (exit 2) before the file opens
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True, allow_nan=False)
    _write_text(text + "\n", out_path)


# --- scan -------------------------------------------------------------------

def cmd_scan_gen(args):
    try:
        variant = ScanVariant(args.variant)
    except ValueError:
        raise CliError(f"unknown variant {args.variant!r}")
    scan = generate_scan(variant, args.size)
    _write_text(scan_to_json(scan) + "\n", args.out)
    if args.svg:
        _write_text(scan_to_svg(scan) + "\n", args.svg)
    return 0


def cmd_scan_check(args):
    with open(args.path) as f:
        scan = scan_from_json(f.read())
    payload = {
        "size": scan.size,
        "bijective": scan.is_bijective(),
        "continuous": scan.is_continuous(),
    }
    _emit(_envelope("scan check", [args.path], payload))
    return 0 if payload["bijective"] else 1


# --- disc -------------------------------------------------------------------

def cmd_disc_analyze(args):
    # main reports a ValueError as an invalid argument, exit 2
    first, second = ScanVariant(args.first), ScanVariant(args.second)
    report = analyze(first, ShiftSpec.parse(args.shift), second, args.grid, args.window)
    payload = json.loads(report_to_json(report))
    _emit(_envelope("disc analyze", [], payload), args.out)
    if args.svg:
        _write_text(report_to_svg(report) + "\n", args.svg)
    return 0


def cmd_disc_search(args):
    _write_text(search_to_csv(search_procedures(args.grid, args.window)), args.out)
    return 0


# --- traj -------------------------------------------------------------------

def _load_frames(directory):
    paths = sorted(
        os.path.join(directory, p) for p in os.listdir(directory)
        if p.endswith((".pgm", ".ppm", ".tstf"))
    )
    if not paths:
        raise CliError(f"no frames in {directory}")
    frames = []
    for p in paths:
        if p.endswith(".tstf"):
            frames.append(read_tstf(p))
        else:
            frames.append(read_pnm(p))
    return paths, frames


def cmd_traj_select(args):
    paths, frames = _load_frames(args.frames)
    config = ModelConfig(s_selected=args.s).validate()
    rng = np.random.default_rng(args.seed)
    weights = GWeights.random(config, rng, c_in=frames[0].shape[0])
    flow_paths = []
    if args.flows:
        flow_paths = [os.path.join(args.flows, f"flow_{k:04d}.tstf")
                      for k in range(1, len(frames))]
        flows = [read_tstf(fp) for fp in flow_paths]
    else:
        flows = [block_matching_flow(frames[k], frames[k - 1], args.radius)
                 for k in range(1, len(frames))]
    _, sel = select_along_trajectories(frames, flows, weights, config)
    payload = {
        "indices": sel.indices.tolist(),
        "scores": [[round(v, 8) for v in row] for row in sel.scores.tolist()],
    }
    _emit(_envelope("traj select", paths + flow_paths, payload), args.out)
    if args.tokens_out:
        write_tstf(args.tokens_out, sel.selected)
    return 0


# --- ssm --------------------------------------------------------------------

def _params_from_file(path, length, channels, state_dim, seed):
    if path:
        flat = read_tstf(path).reshape(-1).astype(np.float64)
        c, n, L = channels, state_dim, length
        # SelectiveScanParams field order: A, D, dt, B, C
        shapes = [(c, n), (c,), (L, c), (L, n), (L, n)]
        sizes = [math.prod(shape) for shape in shapes]
        if flat.size != sum(sizes):
            raise CliError(f"parameter file holds {flat.size} values, need {sum(sizes)}")
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        return SelectiveScanParams(*(p.reshape(shape) for p, shape in zip(parts, shapes)))
    return SelectiveScanParams.init(channels, state_dim, length,
                                    np.random.default_rng(seed))


def cmd_ssm_run(args):
    seq = read_tstf(args.input)
    if seq.ndim != 2 or 0 in seq.shape:
        raise CliError(f"ssm input must be a [L >= 1, C >= 1] TSTF tensor, got {list(seq.shape)}")
    L, C = seq.shape
    params = _params_from_file(args.params, L, C, args.state_dim, args.seed)
    out = selective_scan_forward(params, seq)
    write_tstf(args.out, out)
    payload = {"length": L, "channels": C, "state_dim": int(params.A.shape[1])}
    _emit(_envelope("ssm run", [args.input] + ([args.params] if args.params else []),
                    payload))
    return 0


def cmd_grad_check(args):
    check_gradient_check_size(args.length, args.channels, args.state_dim)
    rng = np.random.default_rng(args.seed)
    params = SelectiveScanParams.init(args.channels, args.state_dim, args.length, rng)
    u = rng.normal(0.0, 1.0, (args.length, args.channels))
    err = gradient_check(params, u, rng=rng)
    ok = err < args.tol
    print(f"max relative error {err:.3e} tol {args.tol:.1e} -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# --- model ------------------------------------------------------------------

def cmd_model_forward(args):
    paths, frames = _load_frames(args.frames)
    config = ModelConfig()
    if args.config:
        with open(args.config) as f:
            overrides = json.load(f)
        if not isinstance(overrides, dict):
            raise CliError("--config must hold a JSON object")
        known = {f.name for f in dataclasses.fields(ModelConfig)}
        for k, v in overrides.items():
            if k not in known:
                raise CliError(f"unknown config key {k!r}")
            if type(v) is not int:
                raise CliError(f"config key {k!r} must be an integer, got {v!r}")
            setattr(config, k, v)
        config.validate()
    if args.weights:
        weights = _load_weight_bundle(args.weights, config)
    else:
        weights = TsMambaWeights.random(config, seed=args.seed)
    out = ts_mamba_forward(frames, None, weights, config)
    if args.out.endswith(".tstf"):
        write_tstf(args.out, out)
    else:
        write_pnm(args.out, out)
    return 0


def _load_weight_bundle(directory, config):
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise CliError(f"weight bundle missing manifest.json in {directory}")
    with open(manifest_path) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise CliError("manifest.json must hold a JSON object")
    weights = TsMambaWeights.random(config, seed=0)
    layers = weight_map(weights)
    missing = [name for name in layers if name not in manifest]
    if missing:
        raise CliError("weight bundle missing layers: " + ", ".join(sorted(missing)))
    for name, array in layers.items():
        if not isinstance(manifest[name], str):
            raise CliError(f"manifest entry for {name} must be a file name")
        t = read_tstf(os.path.join(directory, manifest[name]))
        if t.shape != array.shape:
            raise CliError(f"layer {name}: shape {t.shape} != {array.shape}")
        array[...] = t
    return weights


def cmd_model_count(args):
    config = ModelConfig(channels=args.channels).validate()
    counts = count_params_macs(config, (args.height, args.width))
    _emit(_envelope("model count", [], counts), args.out)
    return 0


# --- loss -------------------------------------------------------------------

def cmd_loss_eval(args):
    sr = read_tstf(args.sr)
    hr = read_tstf(args.hr)
    spa = charbonnier_loss(sr, hr, epsilon=args.epsilon)
    payload = {"spatial": spa}
    if bool(args.lr_traj) != bool(args.hr_traj):
        raise CliError("--lr-traj and --hr-traj must be given together")
    if args.lr_traj:
        h, w = args.lr_height, args.lr_width
        if h < 1 or w < 1 or args.scale < 1:
            raise CliError("--lr-traj/--hr-traj need positive --lr-height, --lr-width and --scale")
        lt, ht = (read_tstf(p).astype(np.float64) for p in (args.lr_traj, args.hr_traj))
        if any(a.ndim != 3 or 0 in a.shape or a.shape[2] != 2 for a in (lt, ht)):
            raise CliError(f"trajectory stacks must be [depth >= 1, N >= 1, 2], got "
                           f"{list(lt.shape)} and {list(ht.shape)}")
        # the LR stack holds one trajectory per t x t token of the LR frame
        n = lt.shape[1]
        t = math.isqrt(h * w // n)
        if t * t * n != h * w or h % t or w % t:
            raise CliError(f"{n} LR trajectories do not tile a {h}x{w} frame with square tokens")
        lr_set = TrajectorySet(t, h, w, lt)
        hr_set = TrajectorySet(t, h * args.scale, w * args.scale, ht)
        trj = trajectory_loss(lr_set, hr_set, args.scale)
        payload["trajectory"] = trj
        payload["total"] = total_loss(spa, trj, lam=args.lam)
    inputs = [args.sr, args.hr] + [p for p in (args.lr_traj, args.hr_traj) if p]
    _emit(_envelope("loss eval", inputs, payload), args.out)
    return 0


# --- parser -----------------------------------------------------------------

def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="tsm", description=__doc__)
    sub = p.add_subparsers(dest="group", required=True)

    scan = sub.add_parser("scan").add_subparsers(dest="cmd", required=True)
    g = scan.add_parser("gen")
    g.add_argument("--variant", required=True)
    g.add_argument("--size", type=int, required=True)
    g.add_argument("--out")
    g.add_argument("--svg")
    g.set_defaults(func=cmd_scan_gen)
    c = scan.add_parser("check")
    c.add_argument("path")
    c.set_defaults(func=cmd_scan_check)

    disc = sub.add_parser("disc").add_subparsers(dest="cmd", required=True)
    a = disc.add_parser("analyze")
    a.add_argument("--first", required=True)
    a.add_argument("--shift", required=True)
    a.add_argument("--second", required=True)
    a.add_argument("--grid", type=int, default=8)
    a.add_argument("--window", type=int, default=4)
    a.add_argument("--out")
    a.add_argument("--svg")
    a.set_defaults(func=cmd_disc_analyze)
    s = disc.add_parser("search")
    s.add_argument("--grid", type=int, default=8)
    s.add_argument("--window", type=int, default=4)
    s.add_argument("--out")
    s.set_defaults(func=cmd_disc_search)

    traj = sub.add_parser("traj").add_subparsers(dest="cmd", required=True)
    t = traj.add_parser("select")
    t.add_argument("--frames", required=True)
    t.add_argument("--flows")
    t.add_argument("--radius", type=int, default=2)
    t.add_argument("--s", type=int, default=3)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out")
    t.add_argument("--tokens-out")
    t.set_defaults(func=cmd_traj_select)

    ssm = sub.add_parser("ssm").add_subparsers(dest="cmd", required=True)
    r = ssm.add_parser("run")
    r.add_argument("--input", required=True)
    r.add_argument("--params")
    r.add_argument("--state-dim", type=positive_int, default=8)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_ssm_run)

    grad = sub.add_parser("grad").add_subparsers(dest="cmd", required=True)
    gc = grad.add_parser("check")
    gc.add_argument("--length", type=positive_int, default=12)
    gc.add_argument("--channels", type=positive_int, default=3)
    gc.add_argument("--state-dim", type=positive_int, default=4)
    gc.add_argument("--tol", type=float, default=1e-5)
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_grad_check)

    model = sub.add_parser("model").add_subparsers(dest="cmd", required=True)
    f = model.add_parser("forward")
    f.add_argument("--frames", required=True)
    f.add_argument("--weights")
    f.add_argument("--config")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_model_forward)
    mc = model.add_parser("count")
    mc.add_argument("--channels", type=int, default=32)
    mc.add_argument("--height", type=int, default=180)
    mc.add_argument("--width", type=int, default=320)
    mc.add_argument("--out")
    mc.set_defaults(func=cmd_model_count)

    loss = sub.add_parser("loss").add_subparsers(dest="cmd", required=True)
    le = loss.add_parser("eval")
    le.add_argument("--sr", required=True)
    le.add_argument("--hr", required=True)
    le.add_argument("--lr-traj")
    le.add_argument("--hr-traj")
    le.add_argument("--lr-height", type=int, default=0)
    le.add_argument("--lr-width", type=int, default=0)
    le.add_argument("--scale", type=int, default=4)
    le.add_argument("--epsilon", type=float, default=1e-4)
    le.add_argument("--lam", type=float, default=0.1)
    le.add_argument("--out")
    le.set_defaults(func=cmd_loss_eval)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
