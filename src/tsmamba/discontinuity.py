"""Discontinuity degree of 2x2 regions and elimination values of procedures.

A region's degree under a scan order counts the gaps between the sorted scan
indices of its four cells (0 = fully consecutive, 3 = maximal).  A
scan-shift-scan procedure eliminates max(0, d_first - d_second) degrees per
region; the intra/inter split follows the window partition.

An order is scored in one array pass: its rank grid `ScanOrder.rank` holds each
cell's scan index, and the degrees of all (S-1)^2 regions come from sorting
the stacked four corners of every region and counting the gaps wider than 1.
A report holds the two [S-1, S-1] degree grids and the intra-window mask; its
totals and its per-region `RegionRecord`s are both read from those arrays.

The search scores each distinct degree grid once.  It tiles one order per
variant and stacks their rank grids as [V, S, S]; the shifted second orders
are one cyclic roll of that stack per shift, [K, V, S, S].  One degree pass
over each stack gives the read-only grids that all V x K x V reports view.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scanorder import (
    Procedure,
    ScanOrder,
    ScanVariant,
    ShiftSpec,
    WindowPartition,
    compose_scan_shift_scan,
    window_tiled_order,
)

__all__ = [
    "RegionKind",
    "Region",
    "RegionRecord",
    "DiscontinuityReport",
    "region_degree",
    "enumerate_regions",
    "elimination",
    "search_procedures",
    "report_to_json",
    "report_to_svg",
    "search_to_csv",
    "pin_report",
]


class RegionKind(Enum):
    IntraWindow = "intra"
    InterWindow = "inter"


@dataclass(frozen=True)
class Region:
    """Axis-aligned 2x2 region anchored at its top-left cell."""

    anchor: tuple
    kind: RegionKind

    @property
    def cells(self):
        r, c = self.anchor
        return ((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1))


@dataclass(frozen=True)
class RegionRecord:
    anchor: tuple
    kind: RegionKind
    d_first: int
    d_second: int
    eliminated: int


# a region's kind, indexed by its intra-window mask bit
_KINDS = (RegionKind.InterWindow, RegionKind.IntraWindow)


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

    @property
    def records(self):
        """One RegionRecord per region, in row-major anchor order."""
        columns = (a.ravel().tolist() for a in
                   (self.intra, self.d_first, self.d_second, self.eliminated))
        return tuple(
            RegionRecord(anchor=anchor, kind=_KINDS[intra], d_first=d1, d_second=d2,
                         eliminated=e)
            for anchor, intra, d1, d2, e in zip(np.ndindex(self.intra.shape), *columns))


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


def region_degree(order, region):
    """Number of gaps among the sorted scan indices of the region's cells."""
    for cell in region.cells:
        if not all(0 <= x < order.size for x in cell):
            raise ValueError(f"region cell {cell} outside grid")
    rows, cols = zip(*region.cells)
    return int(_degrees(order.rank[rows, cols]))


def enumerate_regions(grid_size, partition):
    """All (grid_size - 1)^2 overlapping 2x2 regions, kind-tagged."""
    intra = _intra_mask(grid_size, partition.window_size)
    return [Region(anchor=anchor, kind=_KINDS[bit])
            for anchor, bit in zip(np.ndindex(intra.shape), intra.ravel().tolist())]


def elimination(procedure, partition):
    """Degree grids of the procedure's two orders, and its intra-window mask."""
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


def analyze(first, shift, second, grid_size, window_size):
    """Convenience wrapper: build the tiled procedure and run elimination."""
    part = WindowPartition(grid_size=grid_size, window_size=window_size)
    if not isinstance(shift, ShiftSpec):
        shift = ShiftSpec.parse(shift)
    proc = compose_scan_shift_scan(first, shift, second, part)
    return elimination(proc, part)


DEFAULT_SHIFTS = tuple(
    f"{name}{k}" for name in ("U", "D", "L", "R", "UL", "UR", "DL", "DR")
    for k in (1, 2, 3)
)


def _read_only(a):
    a.flags.writeable = False
    return a


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
    intra = _read_only(_intra_mask(grid_size, window_size))
    orders = [window_tiled_order(v, part) for v in variants]
    ranks = np.stack([order.rank for order in orders])                  # [V, S, S]
    # the shifted order visits p where it reads cell p - d: its rank at p is rank[p + d]
    shifted = np.stack([np.roll(ranks, (-s.delta_row, -s.delta_col), axis=(1, 2))
                        for s in shifts])                               # [K, V, S, S]
    d_first = _read_only(_degree_grid(ranks))
    d_second = _read_only(_degree_grid(shifted))
    reports = [(first, shift, second,
                DiscontinuityReport(f"{orders[i].label}->{shift.name()}->{orders[j].label}",
                                    d_first[i], d_second[k, j], intra))
               for i, first in enumerate(variants)
               for k, shift in enumerate(shifts)
               for j, second in enumerate(variants)]
    reports.sort(key=lambda t: (-t[3].delta, -t[3].delta_inter, t[3].procedure))
    return reports


# --- serialization ----------------------------------------------------------

def report_to_json(report):
    return json.dumps({
        "procedure": report.procedure,
        "delta": report.delta,
        "delta_intra": report.delta_intra,
        "delta_inter": report.delta_inter,
        "regions": [
            {"anchor": list(r.anchor), "kind": r.kind.value,
             "d_first": r.d_first, "d_second": r.d_second,
             "eliminated": r.eliminated}
            for r in report.records
        ],
    }, separators=(",", ":"))


_ELIM_COLORS = {1: "#2ca02c", 2: "#d62728", 3: "#7f7f7f"}   # green/red/gray


def report_to_svg(report, grid_size):
    """Grid with eliminated regions marked by degree-colored circles."""
    cell_px = 24
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
    for rec in report.records:
        if rec.eliminated == 0:
            continue
        color = _ELIM_COLORS.get(rec.eliminated, "#000")
        cx = (rec.anchor[1] + 1) * cell_px
        cy = (rec.anchor[0] + 1) * cell_px
        dash = ' stroke-dasharray="3,2"' if rec.kind is RegionKind.InterWindow else ""
        lines.append(
            f'<circle cx="{cx}" cy="{cy}" r="{cell_px // 2}" fill="none" '
            f'stroke="{color}" stroke-width="2"{dash}/>')
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


def pin_report(grid_size=8, window_size=4):
    """(delta, delta_intra, delta_inter) of the named reference procedures
    under the pinned orientations, keyed 'scan1->U1->scan3'; acceptance
    criteria 1-3 read their totals from it."""
    named = [
        (ScanVariant.Scan1, "U1", ScanVariant.Scan3),
        (ScanVariant.Scan2, "L1", ScanVariant.Scan4),
        (ScanVariant.Scan3, "D1", ScanVariant.Scan1),
        (ScanVariant.Scan4, "R1", ScanVariant.Scan2),
        (ScanVariant.Scan1, "UL3", ScanVariant.Scan3),
        (ScanVariant.Scan1, "UR3", ScanVariant.Scan3),
    ]
    out = {}
    for first, shift, second in named:
        rep = analyze(first, shift, second, grid_size, window_size)
        out[f"{first.value}->{shift}->{second.value}"] = (
            rep.delta, rep.delta_intra, rep.delta_inter)
    return out
