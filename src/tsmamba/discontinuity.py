"""Discontinuity degree of 2x2 regions and elimination values of procedures.

A region's degree under a scan order counts the gaps between the sorted scan
indices of its four cells (0 = fully consecutive, 3 = maximal).  A
scan-shift-scan procedure eliminates max(0, d_first - d_second) degrees per
region; the intra/inter split follows the window partition.

An order is scored in one array pass: its rank grid `ScanOrder.rank` holds each
cell's scan index, and the degrees of all (S-1)^2 regions come from sorting
the stacked four corners of every region and counting the gaps wider than 1.
A report holds the two [S-1, S-1] degree grids and the intra-window mask; its
totals and the JSON and SVG writers read those arrays in row-major anchor
order, and a region's kind is "intra" or "inter" by its mask bit.
`region_degree(order, anchor)` scores one region by its top-left cell, and
`enumerate_regions(partition)` lists the (anchor, kind) pairs.

The search, and `analyze` as its one-triple case, stacks one rank grid per
variant as [V, S, S] and rolls the stack once per shift, [K, V, S, S]; one
degree pass over each stack gives the read-only grids all reports view.
`elimination` of a composed `Procedure` is the tests' reference for both.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .scanorder import (
    ScanVariant,
    ShiftSpec,
    WindowPartition,
    window_tiled_order,
)

__all__ = [
    "DiscontinuityReport",
    "region_degree",
    "enumerate_regions",
    "elimination",
    "search_procedures",
    "report_to_json",
    "report_to_svg",
    "search_to_csv",
]


# a region's kind, indexed by its intra-window mask bit
_KINDS = ("inter", "intra")


@dataclass(frozen=True, eq=False)
class DiscontinuityReport:
    """Elimination of one procedure: the [S-1, S-1] degrees of every 2x2
    region under the first and the shifted second order, indexed by anchor,
    and the bool mask of the regions inside one window."""

    procedure: str
    d_first: np.ndarray
    d_second: np.ndarray
    intra: np.ndarray

    @property
    def eliminated(self):
        return np.maximum(self.d_first - self.d_second, 0)

    @property
    def delta_intra(self):
        return int(self.eliminated[self.intra].sum())

    @property
    def delta_inter(self):
        return int(self.eliminated[~self.intra].sum())

    @property
    def delta(self):
        return int(self.eliminated.sum())


def _degrees(corners):
    """Gaps wider than 1 among the sorted scan indices along axis 0."""
    corners = np.sort(corners, axis=0)
    return np.count_nonzero(corners[1:] - corners[:-1] > 1, axis=0)


def _degree_grid(rank):
    """[..., S-1, S-1] degrees of all 2x2 regions, indexed by anchor, of the
    [..., S, S] rank grids."""
    return _degrees(np.stack((rank[..., :-1, :-1], rank[..., :-1, 1:],
                              rank[..., 1:, :-1], rank[..., 1:, 1:])))


def _intra_mask(grid_size, window_size):
    """[S-1, S-1] bool mask, indexed by anchor, of the 2x2 regions inside one
    window: their two rows share a window row and their two columns a window
    column."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    window = np.arange(grid_size) // window_size
    inside = window[:-1] == window[1:]
    return inside[:, None] & inside


def region_degree(order, anchor):
    """Number of gaps among the sorted scan indices of the four cells of the
    2x2 region whose top-left cell is `anchor`."""
    r, c = anchor
    if not (0 <= r <= order.size - 2 and 0 <= c <= order.size - 2):
        raise ValueError(f"region anchor {anchor} outside [0, {order.size - 2}]^2")
    return int(_degrees(order.rank[r:r + 2, c:c + 2].ravel()))


def enumerate_regions(partition):
    """(anchor, kind) of all (S-1)^2 overlapping 2x2 regions of the
    partition's grid, in row-major anchor order; kind is "intra" or "inter"."""
    intra = _intra_mask(partition.grid_size, partition.window_size)
    return [(anchor, _KINDS[bit])
            for anchor, bit in zip(np.ndindex(intra.shape), intra.ravel().tolist())]


def elimination(procedure, partition):
    """Degree grids and intra-window mask of a composed procedure (a test reference)."""
    first = procedure.first
    second = procedure.shifted_second_order
    if first.size != partition.grid_size or second.size != partition.grid_size:
        raise ValueError("procedure grid size does not match partition")
    return DiscontinuityReport(
        procedure=procedure.label(),
        d_first=_degree_grid(first.rank),
        d_second=_degree_grid(second.rank),
        intra=_intra_mask(partition.grid_size, partition.window_size),
    )


DEFAULT_SHIFTS = tuple(
    f"{name}{k}" for name in ("U", "D", "L", "R", "UL", "UR", "DL", "DR")
    for k in (1, 2, 3)
)


def _read_only(a):
    a.flags.writeable = False
    return a


def _score(firsts, shifts, seconds, part):
    """Rows (first, shift, second, report) of every triple, in loop order;
    each distinct variant is tiled and ranked once."""
    intra = _read_only(_intra_mask(part.grid_size, part.window_size))
    variants = list(dict.fromkeys(firsts + seconds))
    orders = [window_tiled_order(v, part) for v in variants]
    ranks = np.stack([order.rank for order in orders])                  # [V, S, S]
    # the shifted order visits p where it reads cell p - d: its rank at p is rank[p + d]
    shifted = np.stack([np.roll(ranks, (-s.delta_row, -s.delta_col), axis=(1, 2))
                        for s in shifts])                               # [K, V, S, S]
    d_first = _read_only(_degree_grid(ranks))
    d_second = _read_only(_degree_grid(shifted))
    js = [variants.index(v) for v in seconds]
    return [(variants[i], shift, variants[j],
             DiscontinuityReport(f"{orders[i].label}->{shift.name()}->{orders[j].label}",
                                 d_first[i], d_second[k, j], intra))
            for i in map(variants.index, firsts)
            for k, shift in enumerate(shifts)
            for j in js]


def analyze(first, shift, second, grid_size, window_size):
    """The one-triple search: the report of first -> shift -> second."""
    part = WindowPartition(grid_size=grid_size, window_size=window_size)
    if not isinstance(shift, ShiftSpec):
        shift = ShiftSpec.parse(shift)
    return _score([first], [shift], [second], part)[0][3]


def search_procedures(grid_size, window_size, shifts=None, variants=None):
    """Evaluate all (first, shift, second) triples; ranked report table.

    Sorted by delta descending, ties by delta_inter descending then
    lexicographic procedure label.  Rows are (first, shift, second, report),
    each report as `elimination` gives it for the composed procedure; their
    degree grids are read-only views of arrays shared by all rows.
    """
    if shifts is None:
        shifts = DEFAULT_SHIFTS
    if not shifts:
        raise ValueError("shift list must be non-empty")
    shifts = [s if isinstance(s, ShiftSpec) else ShiftSpec.parse(s) for s in shifts]
    variants = list(ScanVariant) if variants is None else list(variants)
    if not variants:
        raise ValueError("variant list must be non-empty")
    part = WindowPartition(grid_size=grid_size, window_size=window_size)
    return sorted(_score(variants, shifts, variants, part),
                  key=lambda t: (-t[3].delta, -t[3].delta_inter, t[3].procedure))


# --- serialization ----------------------------------------------------------

def report_to_json(report):
    columns = (a.ravel().tolist() for a in
               (report.intra, report.d_first, report.d_second, report.eliminated))
    return json.dumps({
        "procedure": report.procedure,
        "delta": report.delta,
        "delta_intra": report.delta_intra,
        "delta_inter": report.delta_inter,
        "regions": [
            {"anchor": list(anchor), "kind": _KINDS[bit],
             "d_first": d1, "d_second": d2, "eliminated": e}
            for anchor, bit, d1, d2, e in zip(np.ndindex(report.intra.shape), *columns)
        ],
    }, separators=(",", ":"))


_ELIM_COLORS = {1: "#2ca02c", 2: "#d62728", 3: "#7f7f7f"}   # green/red/gray


def report_to_svg(report):
    """Grid with eliminated regions marked by degree-colored circles, dashed
    for inter-window regions."""
    cell_px = 24
    grid_size = report.intra.shape[0] + 1
    s = grid_size * cell_px
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 {s} {s}">',
        f'<rect width="{s}" height="{s}" fill="white"/>',
    ]
    for i in range(grid_size + 1):
        p = i * cell_px
        lines.append(f'<line x1="0" y1="{p}" x2="{s}" y2="{p}" stroke="#ccc"/>')
        lines.append(f'<line x1="{p}" y1="0" x2="{p}" y2="{s}" stroke="#ccc"/>')
    eliminated = report.eliminated
    for r, c in np.argwhere(eliminated > 0).tolist():
        color = _ELIM_COLORS.get(int(eliminated[r, c]), "#000")
        dash = "" if report.intra[r, c] else ' stroke-dasharray="3,2"'
        lines.append(
            f'<circle cx="{(c + 1) * cell_px}" cy="{(r + 1) * cell_px}" r="{cell_px // 2}" '
            f'fill="none" stroke="{color}" stroke-width="2"{dash}/>')
    lines.append("</svg>")
    return "\n".join(lines)


def search_to_csv(results):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["first", "shift", "second", "delta_intra", "delta_inter", "delta"])
    for first, shift, second, rep in results:
        writer.writerow([first.value, shift.name(), second.value,
                         rep.delta_intra, rep.delta_inter, rep.delta])
    return buf.getvalue()

