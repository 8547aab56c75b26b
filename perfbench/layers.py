"""Per-layer metrics from a span table.

Every metric is per timed op.  ``<module>.<function>.ms`` is inclusive time,
``.self_ms`` excludes wrapped callees, ``.calls`` counts calls.  Model
stages use the names of ``count_params_macs``; their GMAC/s is *computed*:
the modelled MACs of the stage, scaled by the calls the trace observed,
over the stage's measured time.
"""

from __future__ import annotations

import numpy as np

from spans import OP, TARGETS

MODULES = ("scanorder", "discontinuity", "numerics", "trajectory", "ssm", "model")

# stage -> (the call that is one unit of the stage, units per forward pass);
# "conv" means a conv2d call whose weights belong to the stage
STAGE_UNITS = {
    "g.conv": ("conv", lambda cfg: 1),
    "g.res_blocks": ("conv", lambda cfg: 2 * cfg.n1_res_blocks),
    "g.proj": ("trajectory.generate_tokens", lambda cfg: 1),
    "tsma.concat_proj": ("model.tsma_forward", lambda cfg: 1),
    "tsma.ssm_blocks": ("ssm.ssm_block", lambda cfg: 6),
    "tsma.fusion": ("conv", lambda cfg: 1),
    "r.head": ("conv", lambda cfg: 1),
    "r.res_blocks": ("conv", lambda cfg: 2 * cfg.n2_res_blocks),
    "r.upsample": ("conv", lambda cfg: 2),
    "r.tail": ("conv", lambda cfg: 1),
}


def layer_metrics(recorder, op_times, stage_keys, config=None, lr_dims=None):
    """Returns (metrics, accounting).  ``op_times`` are the run loop's own
    timings of the traced ops, which the spans do not produce.
    ``accounting`` joins modelled and observed conv MACs per stage; it is
    empty for workloads without a model."""
    n_ops = len(op_times)
    t = recorder.arrays()
    names = recorder.names
    n_names = len(names)
    calls = np.bincount(t["name_id"], minlength=n_names)
    dur = np.bincount(t["name_id"], weights=t["dur"], minlength=n_names)
    self_t = np.bincount(t["name_id"], weights=t["self"], minlength=n_names)
    idx = {n: i for i, n in enumerate(names)}

    def get(arr, name):
        i = idx.get(name)
        return float(arr[i]) if i is not None else 0.0

    m = {}
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        m[f"{name}.ms"] = get(dur, name) * 1e3 / n_ops
        m[f"{name}.self_ms"] = get(self_t, name) * 1e3 / n_ops
        m[f"{name}.calls"] = get(calls, name) / n_ops
    for module in MODULES:
        m[f"{module}.self_ms"] = sum(m[f"{module}.{a}.self_ms"]
                                     for mod, a in TARGETS if mod == module)
    # coverage: the share of the loop-timed op spent inside wrapped functions;
    # a hole in the wrapping (an unwrapped public function) lowers it
    layer_ms = sum(m[f"{mod}.self_ms"] for mod in MODULES)
    m["trace.op_ms"] = sum(op_times) * 1e3 / n_ops
    m["trace.untraced_remainder_ms"] = m["trace.op_ms"] - layer_ms
    m["trace.layer_share"] = layer_ms / m["trace.op_ms"]

    conv = t["name_id"] == idx.get("numerics.conv2d", -1)
    conv_s = float(t["dur"][conv].sum())
    m["numerics.conv2d.gmac_per_s"] = float(t["work"][conv].sum()) / conv_s / 1e9 if conv_s else 0.0

    fwd = t["name_id"] == idx.get("ssm.selective_scan_forward", -1)
    fwd_s = float(t["dur"][fwd].sum())
    m["ssm.state_updates_per_s"] = float(t["work"][fwd].sum()) / fwd_s if fwd_s else 0.0

    m["trajectory.generate_tokens.calls_per_frame"] = m["trajectory.generate_tokens.calls"]
    m["trajectory.propagate_trajectories.calls_per_frame"] = \
        m["trajectory.propagate_trajectories.calls"]

    # --- model stages -------------------------------------------------------
    stage_s = dict.fromkeys(STAGE_UNITS, 0.0)
    stage_convs = dict.fromkeys(STAGE_UNITS, 0)
    stage_obs = dict.fromkeys(STAGE_UNITS, 0)
    for key, d, work in zip(t["key"][conv], t["dur"][conv], t["work"][conv]):
        stage = stage_keys.get(int(key))
        if stage is not None:
            stage_s[stage] += float(d)
            stage_convs[stage] += 1
            stage_obs[stage] += int(work)
    res = t["name_id"] == idx.get("numerics.residual_block", -1)
    for key, s in zip(t["key"][res], t["self"][res]):
        stage = stage_keys.get(int(key))
        if stage is not None:             # relu and skip add of the block
            stage_s[stage] += float(s)
    stage_s["r.upsample"] += get(self_t, "numerics.pixel_shuffle")
    stage_s["g.proj"] += get(self_t, "trajectory.generate_tokens")
    stage_s["tsma.concat_proj"] += get(self_t, "model.tsma_forward")
    stage_s["tsma.ssm_blocks"] += get(dur, "ssm.ssm_block")

    accounting = {}
    breakdown = None
    if lr_dims is not None:
        from tsmamba.model import count_params_macs
        breakdown = count_params_macs(config, lr_dims)["breakdown"]
    for stage, (unit, per_forward) in STAGE_UNITS.items():
        m[f"model.stage.{stage}.ms"] = stage_s[stage] * 1e3 / n_ops
        gmac = 0.0
        if breakdown is not None:
            observed = stage_convs[stage] if unit == "conv" else get(calls, unit)
            passes = observed / per_forward(config)
            modelled = breakdown[stage]["macs"] * passes
            if stage_s[stage]:
                gmac = modelled / stage_s[stage] / 1e9
            row = {"forward_passes_per_op": passes / n_ops,
                   "macs_modelled_per_op": modelled / n_ops}
            if unit == "conv":
                row["macs_observed_per_op"] = stage_obs[stage] / n_ops
                row["observed_over_modelled"] = stage_obs[stage] / modelled if modelled else 0.0
            accounting[stage] = row
        m[f"model.stage.{stage}.gmac_per_s"] = gmac
    return m, accounting


def counts_by_op(recorder):
    """Calls of each wrapped function in each timed op (exact, repeatable)."""
    t = recorder.arrays()
    names = recorder.names
    out = []
    for op in range(int(t["op"].max()) + 1):
        counts = np.bincount(t["name_id"][t["op"] == op], minlength=len(names))
        out.append({names[i]: int(c) for i, c in enumerate(counts) if c and names[i] != OP})
    return out
