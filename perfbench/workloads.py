"""The three benchmark workloads, written against the library's public API.

Each workload has a ``setup`` (weights and any lazy set-up, timed as
``setup_s``), an input generator driven only by the seed, a client whose
``step`` is one timed op, and a ``verify`` of each op's output, run right
after the op and left out of the timed phase.  A stateful client first takes
in ``warmup`` inputs, untimed.  ``canary`` runs fixed inputs whose output
fingerprint is stored in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from tsmamba import discontinuity, model, trajectory
from tsmamba.model import TsMambaWeights
from tsmamba.numerics import ModelConfig, Tensor
from tsmamba.scanorder import ScanVariant

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
WEIGHT_SEED = 0          # weights are fixed; --seed only drives the inputs
CANARY_SEED = 20250814   # fixed inputs of the fingerprinted canary op
FINGERPRINT_GRID = 16    # SR output is pooled to 16 x 16 per channel
FINGERPRINT_ATOL = 1e-4  # on pooled means; float32 reorderings move them ~1e-6


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def fingerprint(sr):
    """Block means of the SR output on a FINGERPRINT_GRID x FINGERPRINT_GRID grid."""
    c, h, w = sr.shape
    g = FINGERPRINT_GRID
    pooled = sr.astype(np.float64).reshape(c, g, h // g, g, w // g).mean(axis=(2, 4))
    return pooled.ravel()


def check_fingerprint(sr, stored):
    """None if the pooled output matches the stored one, else the reason."""
    got = fingerprint(sr)
    ref = np.asarray(stored, dtype=np.float64)
    if got.shape != ref.shape:
        return f"fingerprint has {got.size} values, reference {ref.size}"
    err = float(np.max(np.abs(got - ref)))
    if err > FINGERPRINT_ATOL:
        return f"fingerprint differs by {err:.3g} > {FINGERPRINT_ATOL}"
    return None


def check_sr(sr, lr_dims, scale):
    h, w = lr_dims
    if sr.shape != (3, scale * h, scale * w):
        return f"SR shape {sr.shape} != (3, {scale * h}, {scale * w})"
    if not np.all(np.isfinite(sr)):
        return "SR output is not finite"
    return None


class _Stateless:
    """Client for workloads whose op has no state between calls."""

    def __init__(self, op):
        self.step = op


class Workload:
    """Defaults: stateless ops, no warm-up, no model stages, no canary."""

    warmup = 0         # inputs a client takes in before the timed phase
    lr_dims = None     # LR frame size of model workloads
    config = None

    def client(self):
        return _Stateless(self._op)

    def stage_keys(self):
        return {}

    def canary_output(self):
        """SR output of the fixed canary inputs, or None if there is no canary."""
        return None

    def canary(self, reference):
        """Runs the canary op: None if there is none, else a record whose
        error is None when the output matches its stored fingerprint."""
        sr = self.canary_output()
        if sr is None:
            return None
        return {"error": check_sr(sr, self.lr_dims, self.config.scale)
                or check_fingerprint(sr, reference[self.name]["fingerprint"])}


class Stream(Workload):
    name = "stream"
    lr_dims = (32, 32)
    radius = 2
    texture = 256        # side of the periodic texture the clip pans over

    def setup(self):
        self.config = ModelConfig(temporal_window=7)
        self.weights = TsMambaWeights.random(self.config, seed=WEIGHT_SEED)

    @property
    def warmup(self):
        """The first `temporal_window` frames only fill the history, so every
        timed frame is a running stream's frame with a full history."""
        return self.config.temporal_window

    def _clip(self, rng):
        """Frames of a random texture panned by a fixed integer step."""
        tex = rng.random((3, self.texture, self.texture)).astype(np.float32)
        step = tuple(int(v) for v in rng.choice([-2, -1, 1, 2], size=2))
        y0, x0 = (int(v) for v in rng.integers(0, self.texture, size=2))
        h, w = self.lr_dims
        k = 0
        while True:
            rows = (np.arange(h) + y0 - k * step[0]) % self.texture
            cols = (np.arange(w) + x0 - k * step[1]) % self.texture
            yield {"frame": Tensor(tex[:, rows][:, :, cols]), "step": step}
            k += 1

    def inputs(self, seed):
        """One endless clip with a seeded texture, offset and step."""
        return self._clip(np.random.default_rng(seed))

    def client(self):
        return StreamClient(self)

    def stage_keys(self):
        return weight_stages(self.weights)

    def verify(self, client, inp, out, reference):
        sr = out.data
        # block matching (8x8 patches) is exact once the patch and search
        # range stay off the border: content at p came from p - step
        m = self.radius + 4
        inner = client.flows[-1].data[:, m:-m, m:-m]
        want = np.array([-inp["step"][0], -inp["step"][1]], dtype=np.float32)
        hits = int(np.all(inner == want[:, None, None], axis=0).sum())
        return {"error": check_sr(sr, self.lr_dims, self.config.scale),
                "digest": self.output_digest(out), "flow_hits": hits,
                "flow_attempts": inner.shape[1] * inner.shape[2]}

    def output_digest(self, out):
        return digest(out.data)

    def canary_output(self):
        """First full-history frame of a fixed clip, as the client computes it."""
        client = self.client()
        clip = self._clip(np.random.default_rng(CANARY_SEED))
        for _ in range(self.warmup):
            client.ingest(next(clip))
        return client.step(next(clip)).data


class StreamClient:
    """Online client: flow once per arriving frame, then the forward pass on
    the last `temporal_window + 1` frames and the flows between them."""

    def __init__(self, owner):
        self.owner = owner
        self.frames = []
        self.flows = []

    def ingest(self, inp):
        """Take in an arriving frame: its flow to the previous one, and the
        history trimmed to the temporal window."""
        frame = inp["frame"]
        if self.frames:
            self.flows.append(trajectory.block_matching_flow(
                frame, self.frames[-1], radius=self.owner.radius))
        self.frames.append(frame)
        if len(self.frames) > self.owner.config.temporal_window + 1:
            del self.frames[0], self.flows[0]

    def step(self, inp):
        self.ingest(inp)
        return model.ts_mamba_forward(self.frames, self.flows or None,
                                      self.owner.weights, self.owner.config)


class Keyframe(Workload):
    name = "keyframe"
    lr_dims = (64, 64)

    def setup(self):
        self.config = ModelConfig()
        self.weights = TsMambaWeights.random(self.config, seed=WEIGHT_SEED)

    def _frames(self, rng):
        while True:
            yield Tensor(rng.random((3, *self.lr_dims)).astype(np.float32))

    def inputs(self, seed):
        return self._frames(np.random.default_rng(seed))

    def _op(self, frame):
        return model.ts_mamba_forward([frame], None, self.weights, self.config)

    def stage_keys(self):
        return weight_stages(self.weights)

    def verify(self, client, inp, out, reference):
        return {"error": check_sr(out.data, self.lr_dims, self.config.scale),
                "digest": self.output_digest(out)}

    def output_digest(self, out):
        return digest(out.data)

    def canary_output(self):
        return self._op(next(self._frames(np.random.default_rng(CANARY_SEED)))).data


class DiscSearch(Workload):
    name = "disc_search"
    grid_size = 8
    window_size = 4

    def setup(self):
        pass

    def _orders(self, rng):
        # the ranked table does not depend on the order the triples are
        # tried in, so each op gets its own shuffled shift and variant lists
        while True:
            shifts = list(discontinuity.DEFAULT_SHIFTS)
            variants = list(ScanVariant)
            rng.shuffle(shifts)
            rng.shuffle(variants)
            yield {"shifts": shifts, "variants": variants}

    def inputs(self, seed):
        return self._orders(np.random.default_rng(seed))

    def _op(self, inp):
        return discontinuity.search_procedures(self.grid_size, self.window_size,
                                               shifts=inp["shifts"],
                                               variants=inp["variants"])

    def verify(self, client, inp, out, reference):
        got = self.output_digest(out)
        error = None
        if got != reference["disc_search"]["csv_sha256"]:
            error = f"search CSV digest {got} differs from the reference"
        return {"error": error, "digest": got}

    def output_digest(self, out):
        return hashlib.sha256(discontinuity.search_to_csv(out).encode()).hexdigest()


def weight_stages(weights):
    """id(weight array) -> count_params_macs stage, for conv attribution."""
    g, t, r = weights.g, weights.tsma, weights.r
    stages = {id(g.conv_w): "g.conv", id(t.fusion_w): "tsma.fusion",
              id(r.head_w): "r.head", id(r.up1_w): "r.upsample",
              id(r.up2_w): "r.upsample", id(r.tail_w): "r.tail"}
    for prefix, blocks in (("g", g.res), ("r", r.res)):
        for w1, _, w2, _ in blocks:
            stages[id(w1)] = stages[id(w2)] = f"{prefix}.res_blocks"
    return stages


WORKLOADS = {w.name: w for w in (Stream, Keyframe, DiscSearch)}
