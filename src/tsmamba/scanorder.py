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
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

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


@dataclass(frozen=True)
class ScanOrder:
    """Bijective visit order over an S x S grid."""

    size: int
    order: tuple                 # tuple of (row, col)
    label: str = ""

    def index_map(self):
        """dict cell -> scan index."""
        return {cell: i for i, cell in enumerate(self.order)}

    @functools.cached_property
    def rank(self):
        """Read-only [S, S] int array: rank[r, c] is the scan index of cell
        (r, c), built once per order.  Raises ValueError when the order is
        not a bijection of the grid."""
        size = self.size
        n = size * size
        message = f"scan order is not a bijection of the {size}x{size} grid"
        # checked first, so the allocation below is bounded by the order's length
        if size < 1 or len(self.order) != n:
            raise ValueError(message)
        rank = np.full(n, -1, dtype=np.intp)
        cells = np.fromiter(chain.from_iterable(self.order), dtype=np.intp, count=2 * n)
        # raises on a cell outside the grid, which a plain index would wrap
        rank[np.ravel_multi_index((cells[0::2], cells[1::2]), (size, size))] = np.arange(n)
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
        return all(
            abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            for a, b in zip(self.order, self.order[1:])
        )


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
            if t.startswith(name) and t[len(name):].isdigit():
                k = int(t[len(name):])
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
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if self.grid_size % self.window_size:
            raise ValueError(
                f"window_size {self.window_size} does not divide grid {self.grid_size}")

    def window_id(self, cell):
        r, c = cell
        return (r // self.window_size, c // self.window_size)


@dataclass(frozen=True)
class Procedure:
    """A scan-shift-scan procedure with its composed second order."""

    first: ScanOrder
    shift: ShiftSpec
    second: ScanOrder
    shifted_second_order: ScanOrder

    def label(self):
        return f"{self.first.label}->{self.shift.name()}->{self.second.label}"


def _hilbert_base(size):
    """Iterative d -> (row, col) Hilbert curve on a power-of-two grid."""
    order = []
    for d in range(size * size):
        x = y = 0
        t = d
        s = 1
        while s < size:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            if ry == 0:
                if rx == 1:
                    x = s - 1 - x
                    y = s - 1 - y
                x, y = y, x
            x += s * rx
            y += s * ry
            t //= 4
            s *= 2
        order.append((y, x))       # (row, col)
    return order


def _check_size(size):
    if size < 1 or (size & (size - 1)) != 0:
        raise ValueError(f"size must be a positive power of two, got {size}")


def generate_scan(variant, size):
    """One of the four Hilbert variants on a size x size grid."""
    _check_size(size)
    f = _DIHEDRAL[VARIANT_DIHEDRAL[variant]]
    base = _hilbert_base(size)
    order = tuple(f(r, c, size) for (r, c) in base)
    return ScanOrder(size=size, order=order, label=variant.value)


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
    cells = tile_windows(curve.order, w, size, size).reshape(-1, 2).tolist()
    return ScanOrder(size=size, order=tuple(map(tuple, cells)),
                     label=f"{curve.label}@tiled")


def compose_scan_shift_scan(first, shift, second, partition):
    """Compose: shift the grid, re-partition, scan shifted windows with
    `second`, then map visited positions back to original cells.

    `first` and `second` are ScanVariants; each window-size curve is tiled
    over the windows of `partition`.
    """
    first_order = window_tiled_order(first, partition)
    second_order = window_tiled_order(second, partition)
    size = partition.grid_size
    dr, dc = shift.delta_row, shift.delta_col
    # The curve visits shifted position p; the original cell there is p - d.
    composed = tuple(
        ((r - dr) % size, (c - dc) % size) for (r, c) in second_order.order
    )
    shifted = ScanOrder(size=size, order=composed,
                        label=f"{second_order.label}+{shift.name()}")
    return Procedure(first=first_order, shift=shift, second=second_order,
                     shifted_second_order=shifted)


# --- serialization ----------------------------------------------------------

def scan_to_json(scan):
    return json.dumps(
        {"variant": scan.label, "size": scan.size,
         "order": [[r, c] for (r, c) in scan.order]},
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
    return ScanOrder(size=obj["size"], order=tuple(map(tuple, obj["order"])),
                     label=obj.get("variant", ""))


def scan_to_svg(scan):
    """Deterministic SVG polyline through cell centers."""
    cell_px = 24
    s = scan.size * cell_px
    pts = " ".join(
        f"{c * cell_px + cell_px // 2},{r * cell_px + cell_px // 2}"
        for (r, c) in scan.order
    )
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 {s} {s}">',
        f'<rect width="{s}" height="{s}" fill="white"/>',
    ]
    for i in range(scan.size + 1):
        p = i * cell_px
        lines.append(f'<line x1="0" y1="{p}" x2="{s}" y2="{p}" stroke="#ddd"/>')
        lines.append(f'<line x1="{p}" y1="0" x2="{p}" y2="{s}" stroke="#ddd"/>')
    lines.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>')
    lines.append("</svg>")
    return "\n".join(lines)
