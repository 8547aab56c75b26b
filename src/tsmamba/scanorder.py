"""Hilbert scan variants, cyclic shifts, and scan-shift-scan composition.

The four scan variants are dihedral transforms of one base Hilbert curve,
pinned in `VARIANT_DIHEDRAL`.  Under the contracted elimination definition no
orientation reproduces the published elimination values: the oracle in
`tests/test_acceptance.py` enumerates all 64 (first, second) orientations,
and the README "Acceptance status" section records what they reach.

A variant's order on an S x S grid is the plain Hilbert curve (4-neighbor
continuous).  Window-partitioned orders place the window-size curve in every
window, windows in raster order; `tile_windows` is the one tiler, and
`window_tiled_order` wraps it for the discontinuity analysis.

An order is one read-only `[n, 2]` integer array of (row, col) cells,
`ScanOrder.cells`, from `generate_scan` through the shift composition to the
JSON and SVG writers; `ScanOrder` converts its input once, on construction.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "ScanVariant",
    "ScanOrder",
    "ShiftSpec",
    "WindowPartition",
    "Procedure",
    "generate_scan",
    "tile_windows",
    "window_tiled_order",
    "compose_scan_shift_scan",
    "scan_to_json",
    "scan_from_json",
    "scan_to_svg",
]


class ScanVariant(Enum):
    Scan1 = "scan1"
    Scan2 = "scan2"
    Scan3 = "scan3"
    Scan4 = "scan4"


# The eight dihedral transforms of the base curve, as (row, col) -> (row', col')
# with S the grid size.
_DIHEDRAL = (
    lambda r, c, S: (r, c),
    lambda r, c, S: (c, r),
    lambda r, c, S: (r, S - 1 - c),
    lambda r, c, S: (S - 1 - r, c),
    lambda r, c, S: (S - 1 - r, S - 1 - c),
    lambda r, c, S: (c, S - 1 - r),
    lambda r, c, S: (S - 1 - c, r),
    lambda r, c, S: (S - 1 - c, S - 1 - r),
)

# Orientation pinning (dihedral index per variant).  Scan2 and Scan4 are not
# the images of Scan1 and Scan3 under the symmetry that maps U to L and R, so
# the four U1/L1/D1/R1 chains score unequally; see the README "Acceptance
# status" section and the oracle enumeration in tests/test_acceptance.py.
VARIANT_DIHEDRAL = {
    ScanVariant.Scan1: 0,
    ScanVariant.Scan2: 2,
    ScanVariant.Scan3: 3,
    ScanVariant.Scan4: 1,
}


@dataclass(frozen=True, eq=False)
class ScanOrder:
    """Bijective visit order over an S x S grid: cells[k] is the (row, col)
    visited k-th, as a read-only [n, 2] np.intp array.  Any [n, 2] integer
    array-like is accepted; a cell beyond the index range or of a non-integer
    dtype raises ValueError."""

    size: int
    cells: np.ndarray
    label: str = ""

    def __post_init__(self):
        try:
            cells = np.array(self.cells, dtype=np.intp)
        except OverflowError as exc:
            raise ValueError("a scan cell is outside the 64-bit index range") from exc
        # the intp cast truncates floats, so 0.5 would pass as cell 0
        dtype = np.asarray(self.cells).dtype
        if cells.size and dtype.kind not in "iu":
            raise ValueError(f"scan cells must be integers, got dtype {dtype}")
        if cells.size and (cells.ndim != 2 or cells.shape[1] != 2):
            raise ValueError(f"scan cells must be [n, 2], got shape {cells.shape}")
        cells = cells.reshape(-1, 2)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    def index_map(self):
        """dict (row, col) -> scan index."""
        return {(r, c): i for i, (r, c) in enumerate(self.cells.tolist())}

    @functools.cached_property
    def rank(self):
        """Read-only [S, S] int array: rank[r, c] is the scan index of cell
        (r, c), built once per order.  Raises ValueError when the order is
        not a bijection of the grid."""
        size = self.size
        n = size * size
        message = f"scan order is not a bijection of the {size}x{size} grid"
        # checked first, so the allocation below is bounded by the order's length
        if size < 1 or len(self.cells) != n:
            raise ValueError(message)
        rank = np.full(n, -1, dtype=np.intp)
        # raises on a cell outside the grid, which a plain index would wrap
        rank[np.ravel_multi_index(self.cells.T, (size, size))] = np.arange(n)
        # an order that repeats a cell misses another, which keeps its -1
        if (rank < 0).any():
            raise ValueError(message)
        rank = rank.reshape(size, size)
        rank.flags.writeable = False
        return rank

    def is_bijective(self):
        try:
            return self.rank is not None
        except ValueError:
            return False

    def is_continuous(self):
        # Python-int steps: an intp step between far-apart cells could wrap to 1
        steps = np.diff(self.cells.astype(object), axis=0)
        return bool((np.abs(steps).sum(axis=1) == 1).all())


# longest shift count ShiftSpec.parse reads: 640 is the lowest limit that
# Python's int() can be configured to (sys.int_info.str_digits_check_threshold),
# so a longer count is rejected here, never by int()
MAX_SHIFT_DIGITS = 640

# largest grid side a scan or a window partition is built on, checked before
# anything is allocated: every array grows with the square of the side, and a
# discontinuity search over the default 24 shifts and 4 variants peaks near
# 0.5 GB at this size
MAX_GRID_SIZE = 256


@dataclass(frozen=True)
class ShiftSpec:
    """Cyclic content shift by (delta_row, delta_col)."""

    delta_row: int
    delta_col: int
    label: str = field(default="", compare=False)

    _DIRS = {
        "U": (-1, 0), "D": (1, 0), "L": (0, -1), "R": (0, 1),
        "UL": (-1, -1), "UR": (-1, 1), "DL": (1, -1), "DR": (1, 1),
        # naming order is immaterial: LU == UL etc.
        "LU": (-1, -1), "RU": (-1, 1), "LD": (1, -1), "RD": (1, 1),
    }

    @classmethod
    def parse(cls, text):
        """Parse canonical names like 'U1', 'U(1)', 'UL3', 'ul(3)'."""
        t = text.strip().upper().replace("(", "").replace(")", "")
        for name in sorted(cls._DIRS, key=len, reverse=True):
            digits = t[len(name):]
            # str.isdigit also accepts '²' and '٣', which int() rejects or reads as 3
            if (t.startswith(name) and len(digits) <= MAX_SHIFT_DIGITS
                    and digits.isascii() and digits.isdigit()):
                k = int(digits)
                dr, dc = cls._DIRS[name]
                return cls(dr * k, dc * k, label=f"{name}({k})")
        raise ValueError(f"unrecognized shift spec: {text!r}")

    def name(self):
        return self.label or f"({self.delta_row},{self.delta_col})"


@dataclass(frozen=True)
class WindowPartition:
    """Aligned window tiling of a grid."""

    grid_size: int
    window_size: int

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if self.grid_size > MAX_GRID_SIZE:
            raise ValueError(f"grid_size must be at most {MAX_GRID_SIZE}, got {self.grid_size}")
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if self.grid_size % self.window_size:
            raise ValueError(
                f"window_size {self.window_size} does not divide grid {self.grid_size}")


@dataclass(frozen=True)
class Procedure:
    """A scan-shift-scan procedure with its composed second order (a test reference)."""

    first: ScanOrder
    shift: ShiftSpec
    second: ScanOrder
    shifted_second_order: ScanOrder

    def label(self):
        return f"{self.first.label}->{self.shift.name()}->{self.second.label}"


def _hilbert_base(size):
    """(rows, cols) arrays of the d -> (row, col) Hilbert curve on a
    power-of-two grid, built level by level: the curve on a 2s grid visits
    its top-left, bottom-left, bottom-right and top-right quadrants in turn,
    each holding the s-grid curve, transposed in the first quadrant and
    anti-transposed in the last."""
    x = y = np.zeros(1, dtype=np.intp)       # x is the column, y the row
    s = 1
    while s < size:
        x, y = (np.concatenate((y, x, x + s, 2 * s - 1 - y)),
                np.concatenate((x, y + s, y + s, s - 1 - x)))
        s *= 2
    return y, x


def _check_size(size):
    if size < 1 or (size & (size - 1)) != 0:
        raise ValueError(f"size must be a positive power of two, got {size}")
    if size > MAX_GRID_SIZE:
        raise ValueError(f"size must be at most {MAX_GRID_SIZE}, got {size}")


def generate_scan(variant, size):
    """One of the four Hilbert variants on a size x size grid."""
    _check_size(size)
    f = _DIHEDRAL[VARIANT_DIHEDRAL[variant]]
    cells = np.stack(f(*_hilbert_base(size), size), axis=1)
    return ScanOrder(size=size, cells=cells, label=variant.value)


def tile_windows(curve, window, rows, cols):
    """Int array [W, w*w, 2] of (row, col) cells: the [w*w, 2] window curve
    placed in every window of a rows x cols grid, windows in row-major order.
    Raises ValueError when the window does not divide the grid."""
    if rows % window or cols % window:
        raise ValueError(f"grid {rows}x{cols} not divisible by window {window}")
    origins = np.indices((rows // window, cols // window)).reshape(2, -1).T * window
    return origins[:, None, :] + np.asarray(curve)


def window_tiled_order(variant, partition):
    """Tile the window-size variant curve over windows in raster order.

    This is the whole-grid order the discontinuity analysis uses as "the
    first scan": each window is scanned with the same variant curve, windows
    are visited row-major.
    """
    w, size = partition.window_size, partition.grid_size
    curve = generate_scan(variant, w)
    cells = tile_windows(curve.cells, w, size, size).reshape(-1, 2)
    return ScanOrder(size=size, cells=cells, label=f"{curve.label}@tiled")


def compose_scan_shift_scan(first, shift, second, partition):
    """Compose: shift the grid, re-partition, scan shifted windows with
    `second`, then map visited positions back to original cells.

    `first` and `second` are ScanVariants; each window-size curve is tiled
    over the windows of `partition`.  Only the tests call it, as the
    reference for the discontinuity scorer.
    """
    first_order = window_tiled_order(first, partition)
    second_order = window_tiled_order(second, partition)
    size = partition.grid_size
    # The curve visits shifted position p; the original cell there is p - d.
    # d is reduced first, so a shift beyond the int64 range stays an int array.
    composed = (second_order.cells - (shift.delta_row % size, shift.delta_col % size)) % size
    shifted = ScanOrder(size=size, cells=composed,
                        label=f"{second_order.label}+{shift.name()}")
    return Procedure(first=first_order, shift=shift, second=second_order,
                     shifted_second_order=shifted)


# --- serialization ----------------------------------------------------------

def scan_to_json(scan):
    return json.dumps(
        {"variant": scan.label, "size": scan.size,
         "order": scan.cells.tolist()},
        separators=(",", ":"),
    )


def scan_from_json(text):
    obj = json.loads(text)
    if not (isinstance(obj, dict) and type(obj.get("size")) is int
            and isinstance(obj.get("order"), list) and isinstance(obj.get("variant", ""), str)
            and all(isinstance(cell, list) and len(cell) == 2
                    and all(type(x) is int for x in cell) for cell in obj["order"])):
        raise ValueError("a scan is an object with an integer size, [int, int] cells "
                         "in order and an optional string variant")
    return ScanOrder(size=obj["size"], cells=obj["order"], label=obj.get("variant", ""))


def svg_grid(cells, cell_px, stroke):
    """The opening lines of an SVG of a cells x cells grid, cell_px pixels a
    cell: the header, a white background and the grid lines in stroke."""
    s = cells * cell_px
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 {s} {s}">',
        f'<rect width="{s}" height="{s}" fill="white"/>',
    ]
    for i in range(cells + 1):
        p = i * cell_px
        lines.append(f'<line x1="0" y1="{p}" x2="{s}" y2="{p}" stroke="{stroke}"/>')
        lines.append(f'<line x1="{p}" y1="0" x2="{p}" y2="{s}" stroke="{stroke}"/>')
    return lines


def scan_to_svg(scan):
    """Deterministic SVG polyline through cell centers."""
    cell_px = 24
    pts = " ".join(
        f"{c * cell_px + cell_px // 2},{r * cell_px + cell_px // 2}"
        for r, c in scan.cells.tolist()
    )
    lines = svg_grid(scan.size, cell_px, "#ddd")
    lines.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>')
    lines.append("</svg>")
    return "\n".join(lines)
