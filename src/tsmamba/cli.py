"""Unified command-line interface.

Subcommands: scan gen|check, disc analyze|search, traj select, ssm run,
grad check, model forward|count, loss eval.  All JSON outputs are wrapped in
a ReportEnvelope carrying the tool version, the command, and content digests
of every input file keyed by its path as opened, so identical invocations give
byte-identical reports.

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
    part_from_map,
    total_loss,
    trajectory_loss,
    ts_mamba_forward,
    weight_table,
)
from .numerics import (
    ModelConfig,
    draw_weights,
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
    """The report of payload; inputs lists the paths read, None for a flag
    not given, and each is keyed as given, so no two collide."""
    return {
        "version": __version__,
        "command": command,
        "inputs": {p: _digest(p) for p in inputs if p},
        "payload": payload,
    }


def _read_array(path):
    """The PNM array at a .pgm or .ppm path, else the TSTF one; a NaN or inf
    in it is an invalid input."""
    array = read_pnm(path) if path.endswith((".pgm", ".ppm")) else read_tstf(path)
    if not np.isfinite(array).all():
        raise CliError(f"{path} holds non-finite values")
    return array


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
    # main reports a ValueError as an invalid argument, exit 2
    scan = generate_scan(ScanVariant(args.variant), args.size)
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

def _load_config(path):
    """The ModelConfig of a JSON object of integer setting overrides, or the
    defaults without a path."""
    if not path:
        return ModelConfig()
    with open(path) as f:
        overrides = json.load(f)
    if not isinstance(overrides, dict):
        raise CliError("--config must hold a JSON object")
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    for k, v in overrides.items():
        if k not in known:
            raise CliError(f"unknown config key {k!r}")
        if type(v) is not int:
            raise CliError(f"config key {k!r} must be an integer, got {v!r}")
    return ModelConfig(**overrides)


def _load_weight_bundle(directory, names, table):
    """(name -> array of each table row as its file holds it, paths of the
    files read) of the bundle whose manifest.json names one TSTF file per
    layer, for each of names and no other."""
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as f:       # a missing manifest is an OSError: exit 2
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise CliError("manifest.json must hold a JSON object")
    for problem, extra in (("lacks", names - manifest.keys()),
                           ("holds unknown", manifest.keys() - names)):
        if extra:
            raise CliError(f"weight bundle {problem} layers: " + ", ".join(sorted(extra)))
    layers, paths = {}, [manifest_path]
    for name, (shape, _) in table.items():
        if not isinstance(manifest[name], str):
            raise CliError(f"manifest entry for {name} must be a file name")
        paths.append(os.path.join(directory, manifest[name]))
        t = _read_array(paths[-1])
        if t.shape != shape:
            raise CliError(f"layer {name}: shape {t.shape} != {shape}")
        layers[name] = t
    return layers, paths


def _load_weights(args, names, rows):
    """(name -> array of each row, paths of the files read) from the
    --weights bundle, whose manifest names exactly names, or drawn from
    --seed in row order."""
    if args.weights:
        return _load_weight_bundle(args.weights, names, rows)
    return draw_weights(rows, np.random.default_rng(args.seed)), []


def _load_clip(args, prefix=""):
    """(config, layers, frames, flows, paths) of the model commands: the
    --config model; the directory's last T + 1 frames in name order
    (trajectories reach T = temporal_window back) and the T flows between
    them, read from --flows or block-matched at --radius; the weight_table
    rows whose names start with prefix (all of them, or "g." for G alone),
    from the --weights bundle or drawn from --seed; and every file read."""
    config = _load_config(args.config)
    names = sorted(p for p in os.listdir(args.frames) if p.endswith((".pgm", ".ppm", ".tstf")))
    if not names:
        raise CliError(f"no frames in {args.frames}")
    first = max(len(names) - config.temporal_window - 1, 0)
    paths = [os.path.join(args.frames, p) for p in names[first:]]
    frames = [_read_array(p) for p in paths]
    if args.flows:
        # flow_k.tstf is the flow from directory frame k to frame k - 1
        flow_paths = [os.path.join(args.flows, f"flow_{first + k:04d}.tstf")
                      for k in range(1, len(frames))]
        flows = [_read_array(p) for p in flow_paths]
        paths += flow_paths
    else:
        flows = [block_matching_flow(frames[k], frames[k - 1], args.radius)
                 for k in range(1, len(frames))]
    table = weight_table(config, c_in=frames[0].shape[0])
    # G's rows come first in the table, so G alone draws the model's G
    rows = {name: row for name, row in table.items() if name.startswith(prefix)}
    layers, weight_paths = _load_weights(args, table.keys(), rows)
    return config, layers, frames, flows, paths + weight_paths + [args.config]


def cmd_traj_select(args):
    config, layers, frames, flows, paths = _load_clip(args, "g.")
    g = part_from_map(GWeights, layers, "g")
    _, sel = select_along_trajectories(frames, flows, g, config)
    payload = {
        "indices": sel.indices.tolist(),
        "scores": [[round(v, 8) for v in row] for row in sel.scores.tolist()],
    }
    _emit(_envelope("traj select", paths, payload), args.out)
    if args.tokens_out:
        write_tstf(args.tokens_out, sel.selected)
    return 0


# --- ssm --------------------------------------------------------------------

def cmd_ssm_run(args):
    seq = _read_array(args.input)
    if seq.ndim != 2 or 0 in seq.shape:
        raise CliError(f"ssm input must be a [L >= 1, C >= 1] TSTF tensor, got {list(seq.shape)}")
    L, C = seq.shape
    table = SelectiveScanParams.table(C, args.state_dim, L)
    fields, paths = _load_weights(args, table.keys(), table)
    write_tstf(args.out, selective_scan_forward(SelectiveScanParams(**fields), seq))
    payload = {"length": L, "channels": C, "state_dim": args.state_dim}
    _emit(_envelope("ssm run", [args.input, *paths], payload))
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
    config, layers, frames, flows, _ = _load_clip(args)
    out = ts_mamba_forward(frames, flows, TsMambaWeights.from_map(layers), config)
    if args.out.endswith(".tstf"):
        write_tstf(args.out, out)
    else:
        write_pnm(args.out, out)
    return 0


def cmd_model_count(args):
    config = _load_config(args.config)
    counts = count_params_macs(config, (args.height, args.width))
    _emit(_envelope("model count", [args.config], counts), args.out)
    return 0


# --- loss -------------------------------------------------------------------

def cmd_loss_eval(args):
    sr = _read_array(args.sr)
    hr = _read_array(args.hr)
    spa = charbonnier_loss(sr, hr, epsilon=args.epsilon)
    payload = {"spatial": spa}
    if bool(args.lr_traj) != bool(args.hr_traj):
        raise CliError("--lr-traj and --hr-traj must be given together")
    if args.lam is not None and not args.lr_traj:
        raise CliError("--lam weighs the trajectory loss: it needs --lr-traj and --hr-traj")
    if args.lr_traj:
        # the LR frame is the --hr frame at 1/scale on both sides
        scale = ModelConfig.scale
        if hr.ndim != 3 or any(side < scale or side % scale for side in hr.shape[1:]):
            raise CliError(f"--hr must be a [C, H, W] frame whose H and W are positive multiples "
                           f"of {scale}, got {list(hr.shape)}")
        h, w = hr.shape[1] // scale, hr.shape[2] // scale
        lt, ht = (_read_array(p).astype(np.float64) for p in (args.lr_traj, args.hr_traj))
        if any(a.ndim != 3 or 0 in a.shape or a.shape[2] != 2 for a in (lt, ht)):
            raise CliError(f"trajectory stacks must be [depth >= 1, N >= 1, 2], got "
                           f"{list(lt.shape)} and {list(ht.shape)}")
        # the LR stack holds one trajectory per t x t token of the LR frame
        n = lt.shape[1]
        t = math.isqrt(h * w // n)
        if t * t * n != h * w or h % t or w % t:
            raise CliError(f"{n} LR trajectories do not tile a {h}x{w} frame with square tokens")
        trj = trajectory_loss(TrajectorySet(t, h, w, lt),
                              TrajectorySet(t, h * scale, w * scale, ht))
        payload["trajectory"] = trj
        weight = {} if args.lam is None else {"lam": args.lam}   # else total_loss's default
        payload["total"] = total_loss(spa, trj, **weight)
    _emit(_envelope("loss eval", [args.sr, args.hr, args.lr_traj, args.hr_traj], payload),
          args.out)
    return 0


# --- parser -----------------------------------------------------------------

def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """A parser whose subparsers are _Parsers too, taking only whole flags:
    `--se` is not read as `--seed`."""
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser():
    # Each exclusive pair is an input and the flag that makes one up when it
    # is absent.  Their defaults are strings, which argparse converts, so an
    # explicit value equal to the default still counts as given.
    weights = _Parser(add_help=False)
    source = weights.add_mutually_exclusive_group()
    source.add_argument("--weights")
    source.add_argument("--seed", type=int, default="0")
    clip = _Parser(add_help=False, parents=[weights])
    clip.add_argument("--frames", required=True)
    motion = clip.add_mutually_exclusive_group()
    motion.add_argument("--flows")
    motion.add_argument("--radius", type=int, default="2")
    clip.add_argument("--config")

    p = _Parser(prog="tsm", description=__doc__)
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
    t = traj.add_parser("select", parents=[clip])
    t.add_argument("--out")
    t.add_argument("--tokens-out")
    t.set_defaults(func=cmd_traj_select)

    ssm = sub.add_parser("ssm").add_subparsers(dest="cmd", required=True)
    r = ssm.add_parser("run", parents=[weights])
    r.add_argument("--input", required=True)
    r.add_argument("--state-dim", type=positive_int, default=8)
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
    f = model.add_parser("forward", parents=[clip])
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_model_forward)
    mc = model.add_parser("count")
    mc.add_argument("--config")
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
    le.add_argument("--epsilon", type=float, default=1e-4)
    le.add_argument("--lam", type=float)
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
