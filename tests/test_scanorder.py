import numpy as np
import pytest

from tsmamba.scanorder import (
    _DIHEDRAL,
    VARIANT_DIHEDRAL,
    ScanOrder,
    ScanVariant,
    ShiftSpec,
    WindowPartition,
    compose_scan_shift_scan,
    generate_scan,
    scan_from_json,
    scan_to_json,
    scan_to_svg,
    tile_windows,
    window_tiled_order,
)


@pytest.mark.parametrize("variant", list(ScanVariant))
@pytest.mark.parametrize("size", [2, 4, 8, 16, 32])
def test_bijective_and_continuous(variant, size):
    scan = generate_scan(variant, size)
    assert scan.is_bijective()
    assert scan.is_continuous()


def test_variants_distinct():
    orders = {generate_scan(v, 8).cells.tobytes() for v in ScanVariant}
    assert len(orders) == 4


def _hilbert_loop(size):
    """Oracle: the d -> (row, col) Hilbert curve, one visit at a time."""
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


@pytest.mark.parametrize("variant", list(ScanVariant))
@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32, 64])
def test_generate_scan_matches_per_visit_loop(variant, size):
    f = _DIHEDRAL[VARIANT_DIHEDRAL[variant]]
    want = [f(r, c, size) for r, c in _hilbert_loop(size)]
    scan = generate_scan(variant, size)
    assert scan.cells.dtype == np.intp and scan.cells.shape == (size * size, 2)
    assert np.array_equal(scan.cells, want)


def test_rank_matches_index_map_and_is_shared_read_only():
    scan = generate_scan(ScanVariant.Scan2, 8)
    rank = scan.rank
    assert rank is scan.rank                     # built once per order
    assert rank.shape == (8, 8)
    assert all(rank[cell] == i for cell, i in scan.index_map().items())
    with pytest.raises(ValueError):
        rank[0, 0] = 1
    assert np.array_equal(np.sort(rank, axis=None), np.arange(64))


@pytest.mark.parametrize("order", [
    ((0, 0), (0, 1), (1, 0)),                    # a cell missing
    ((0, 0), (0, 0), (1, 0), (1, 1)),            # a cell twice
    ((0, 0), (0, 1), (1, 0), (1, 2)),            # a cell outside the grid
    ((0, 0), (0, 1), (1, 0), (-1, 1)),           # a negative cell
    (),                                          # no cells
])
def test_rank_rejects_non_bijection(order):
    scan = ScanOrder(size=2, cells=order)
    with pytest.raises(ValueError):
        scan.rank
    assert not scan.is_bijective()


@pytest.mark.parametrize("cells", [
    [[0, 0], [0, 1], [1, 0], [10**20, 1]],       # beyond the index range
    [[0, 0, 0]],                                 # not (row, col) pairs
    [0, 1],
    ((0.5, 0), (0, 1), (1, 0), (1, 1)),          # the intp cast would make it a bijection
    np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float),
    ((True, False), (False, True), (True, True), (False, False)),
])
def test_cells_rejected_on_construction(cells):
    with pytest.raises(ValueError):
        ScanOrder(size=2, cells=cells)


def test_continuity_steps_do_not_wrap():
    big = np.iinfo(np.intp)
    assert not ScanOrder(size=2, cells=[[big.max, 0], [big.min, 0]]).is_continuous()
    assert ScanOrder(size=2, cells=[[big.max - 1, big.min], [big.max, big.min]]).is_continuous()


def test_cells_are_a_read_only_copy():
    source = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int32)
    scan = ScanOrder(size=2, cells=source)
    source[0] = (1, 1)
    assert scan.cells.dtype == np.intp and scan.cells[0].tolist() == [0, 0]
    with pytest.raises(ValueError):
        scan.cells[0, 0] = 1


@pytest.mark.parametrize("size", [0, 3, 6, 12, -4])
def test_bad_sizes_rejected(size):
    with pytest.raises(ValueError):
        generate_scan(ScanVariant.Scan1, size)


def test_shift_parse():
    assert (ShiftSpec.parse("U1").delta_row, ShiftSpec.parse("U1").delta_col) == (-1, 0)
    assert ShiftSpec.parse("UL(3)") == ShiftSpec.parse("LU3")
    assert ShiftSpec.parse("dr2").delta_row == 2
    with pytest.raises(ValueError):
        ShiftSpec.parse("Q1")
    with pytest.raises(ValueError):
        ShiftSpec.parse("U")
    # digits outside ASCII: int() rejects the first and reads the second as 3
    for text in ("U\u00b2", "U\u0663"):
        with pytest.raises(ValueError, match="unrecognized shift spec"):
            ShiftSpec.parse(text)


def test_window_tiled_order_covers_grid():
    part = WindowPartition(grid_size=8, window_size=4)
    order = window_tiled_order(ScanVariant.Scan1, part)
    assert order.is_bijective()
    # first 16 cells stay inside the top-left window
    assert (order.cells[:16] < 4).all()
    # the tiler on rectangular grids: every cell once, and window k (row-major)
    # holds the curve moved to that window's corner, so its cells stay inside it
    for rows, cols, w in [(8, 24, 8), (24, 8, 8), (4, 12, 2), (3, 5, 1), (16, 16, 16)]:
        curve = generate_scan(ScanVariant.Scan2, w).cells
        cells = tile_windows(curve, w, rows, cols)
        assert cells.shape == ((rows // w) * (cols // w), w * w, 2)
        flat = (cells[..., 0] * cols + cells[..., 1]).ravel()
        assert sorted(flat.tolist()) == list(range(rows * cols))
        for k, window in enumerate(cells):
            corner = np.array(divmod(k, cols // w)) * w
            assert ((window // w) * w == corner).all()
            assert np.array_equal(window, curve + corner)
    with pytest.raises(ValueError, match="not divisible by window 8"):
        tile_windows(generate_scan(ScanVariant.Scan1, 8).cells, 8, 8, 12)


def test_compose_is_bijective_and_inverts_shift():
    part = WindowPartition(grid_size=8, window_size=4)
    shift = ShiftSpec.parse("U1")
    proc = compose_scan_shift_scan(ScanVariant.Scan1, shift, ScanVariant.Scan3, part)
    composed = proc.shifted_second_order
    assert composed.is_bijective()
    # the k-th visited original cell is the k-th visited shifted position minus d
    for k, (r, c) in enumerate(proc.second.cells.tolist()):
        assert composed.cells[k].tolist() == [(r + 1) % 8, c % 8]


def test_zero_shift_composition_is_second_scan():
    part = WindowPartition(grid_size=8, window_size=4)
    proc = compose_scan_shift_scan(ScanVariant.Scan2, ShiftSpec(0, 0, "Z0"),
                                   ScanVariant.Scan2, part)
    assert np.array_equal(proc.shifted_second_order.cells, proc.second.cells)


def test_json_round_trip():
    scan = generate_scan(ScanVariant.Scan3, 8)
    again = scan_from_json(scan_to_json(scan))
    assert np.array_equal(again.cells, scan.cells)
    assert again.size == scan.size


def test_svg_deterministic():
    scan = generate_scan(ScanVariant.Scan1, 4)
    assert scan_to_svg(scan) == scan_to_svg(scan)
    assert "<polyline" in scan_to_svg(scan)


def test_window_partition_validates():
    with pytest.raises(ValueError):
        WindowPartition(grid_size=8, window_size=3)
    with pytest.raises(ValueError, match="window_size must be >= 1, got 0"):
        WindowPartition(grid_size=8, window_size=0)
    with pytest.raises(ValueError, match="grid_size must be >= 1, got 0"):
        WindowPartition(grid_size=0, window_size=4)
