import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsmamba.discontinuity import (
    DEFAULT_SHIFTS,
    analyze,
    elimination,
    enumerate_regions,
    region_degree,
    report_to_json,
    report_to_svg,
    search_procedures,
    search_to_csv,
)
from tsmamba.scanorder import (
    Procedure,
    ScanOrder,
    ScanVariant,
    ShiftSpec,
    WindowPartition,
    compose_scan_shift_scan,
    generate_scan,
    scan_to_json,
    scan_to_svg,
)


def _order_from_indices(indices, size=8):
    return ScanOrder(size=size, cells=[divmod(i, size) for i in indices])


def _cells(anchor):
    r, c = anchor
    return ((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1))


# --- oracle: the contracted degree from one index_map dict per region -----

def _oracle_degree(order, anchor):
    imap = order.index_map()
    try:
        idx = sorted(imap[cell] for cell in _cells(anchor))
    except KeyError as exc:
        raise ValueError(f"region cell {exc.args[0]} outside grid") from exc
    return sum(1 for a, b in zip(idx, idx[1:]) if b - a > 1)


def _oracle_elimination(procedure, partition):
    """Per-region (anchor, kind, d_first, d_second, eliminated) tuples in
    row-major anchor order, and (delta_intra, delta_inter)."""
    first = procedure.first
    second = procedure.shifted_second_order
    w = partition.window_size
    records = []
    delta_intra = delta_inter = 0
    for r in range(partition.grid_size - 1):
        for c in range(partition.grid_size - 1):
            wids = {(row // w, col // w) for row, col in _cells((r, c))}
            kind = "intra" if len(wids) == 1 else "inter"
            d1 = _oracle_degree(first, (r, c))
            d2 = _oracle_degree(second, (r, c))
            elim = max(0, d1 - d2)
            records.append(((r, c), kind, d1, d2, elim))
            if kind == "intra":
                delta_intra += elim
            else:
                delta_inter += elim
    return tuple(records), (delta_intra, delta_inter)


def _records(report):
    """The report's JSON regions as (anchor, kind, d_first, d_second,
    eliminated) tuples."""
    return tuple((tuple(g["anchor"]), g["kind"], g["d_first"], g["d_second"], g["eliminated"])
                 for g in json.loads(report_to_json(report))["regions"])


def _matches_oracle(procedure, partition):
    rep = elimination(procedure, partition)
    records, totals = _oracle_elimination(procedure, partition)
    return (rep.procedure == procedure.label() and _records(rep) == records
            and (rep.delta_intra, rep.delta_inter) == totals
            and rep.delta == sum(totals))


@st.composite
def _random_procedures(draw):
    """Two random bijective orders on one grid of size 2-16, and a partition."""
    size = draw(st.integers(2, 16))
    first, second = (_order_from_indices(draw(st.permutations(range(size * size))), size)
                     for _ in range(2))
    window = draw(st.sampled_from([w for w in range(1, size + 1) if size % w == 0]))
    proc = Procedure(first=first, shift=ShiftSpec(0, 0, "Z0"), second=second,
                     shifted_second_order=second)
    return proc, WindowPartition(size, window)


@settings(max_examples=60)
@given(_random_procedures())
def test_degrees_match_dict_oracle(case):
    proc, part = case
    assert _matches_oracle(proc, part)
    records, _ = _oracle_elimination(proc, part)
    assert enumerate_regions(part) == [(anchor, kind) for anchor, kind, *_ in records]
    for anchor, _, d_first, _, _ in records:
        assert region_degree(proc.first, anchor) == d_first


def test_elimination_matches_dict_oracle_all_procedures():
    part = WindowPartition(8, 4)
    n = 0
    for first in ScanVariant:
        for shift in DEFAULT_SHIFTS:
            for second in ScanVariant:
                proc = compose_scan_shift_scan(first, ShiftSpec.parse(shift), second, part)
                assert _matches_oracle(proc, part)
                n += 1
    assert n == 384


def test_degree_examples_from_contract():
    # build orders whose region indices match the contract examples
    size = 8
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rest = [(r, c) for r in range(size) for c in range(size) if (r, c) not in cells]

    def order_with(region_indices):
        order = [None] * (size * size)
        for cell, idx in zip(cells, region_indices):
            order[idx] = cell
        it = iter(rest)
        for i in range(size * size):
            if order[i] is None:
                order[i] = next(it)
        return ScanOrder(size=size, cells=order)

    assert region_degree(order_with([5, 6, 7, 8]), (0, 0)) == 0
    assert region_degree(order_with([0, 1, 4, 5]), (0, 0)) == 1
    assert region_degree(order_with([0, 9, 20, 63]), (0, 0)) == 3


def test_degree_out_of_bounds():
    scan = generate_scan(ScanVariant.Scan1, 8)
    assert region_degree(scan, (6, 6)) in {0, 1, 2, 3}
    for anchor in [(7, 7), (-1, 0), (0, 7), (6, -1)]:
        with pytest.raises(ValueError):
            region_degree(scan, anchor)


def test_enumerate_regions_counts():
    assert len(enumerate_regions(WindowPartition(4, 4))) == 9
    regions = enumerate_regions(WindowPartition(8, 4))
    assert [anchor for anchor, _ in regions] == [(r, c) for r in range(7) for c in range(7)]
    kinds = [kind for _, kind in regions]
    assert (kinds.count("intra"), kinds.count("inter")) == (36, 13)
    assert enumerate_regions(WindowPartition(2, 2)) == [((0, 0), "intra")]


def test_degree_range_random_orders():
    size = 8
    all_cells = [(r, c) for r in range(size) for c in range(size)]
    regions = enumerate_regions(WindowPartition(size, 4))
    rng = random.Random(0)
    for _ in range(200):
        cells = all_cells[:]
        rng.shuffle(cells)
        order = ScanOrder(size=size, cells=cells)
        for anchor, _ in regions:
            assert region_degree(order, anchor) in {0, 1, 2, 3}


def test_aligned_quadrants_degree_zero():
    for variant in ScanVariant:
        for size in (4, 8, 16):
            scan = generate_scan(variant, size)
            for r in range(0, size, 2):
                for c in range(0, size, 2):
                    assert region_degree(scan, (r, c)) == 0


def test_identity_procedure_zero_delta():
    part = WindowPartition(8, 4)
    proc = compose_scan_shift_scan(ScanVariant.Scan1, ShiftSpec(0, 0, "Z0"),
                                   ScanVariant.Scan1, part)
    rep = elimination(proc, part)
    assert rep.delta == 0


def test_eliminated_bounded_by_d_first():
    rep = analyze(ScanVariant.Scan1, "U1", ScanVariant.Scan3, 8, 4)
    for _, _, d_first, d_second, eliminated in _records(rep):
        assert eliminated == max(0, d_first - d_second)
        assert 0 <= eliminated <= d_first
        assert d_first in {0, 1, 2, 3} and d_second in {0, 1, 2, 3}
    assert rep.delta == rep.delta_intra + rep.delta_inter


def test_report_consistency_and_json():
    rep = analyze(ScanVariant.Scan2, "L1", ScanVariant.Scan4, 8, 4)
    doc = json.loads(report_to_json(rep))
    regions = doc["regions"]
    assert len(regions) == 49 and {g["kind"] for g in regions} == {"intra", "inter"}
    for key, kind in [("delta_intra", "intra"), ("delta_inter", "inter")]:
        total = sum(g["eliminated"] for g in regions if g["kind"] == kind)
        assert doc[key] == getattr(rep, key) == total, key
    assert doc["delta"] == rep.delta == rep.delta_intra + rep.delta_inter


def test_svg_marks_only_eliminations():
    rep = analyze(ScanVariant.Scan1, "U1", ScanVariant.Scan3, 8, 4)
    svg = report_to_svg(rep)
    assert 'width="192"' in svg
    marked = [rec for rec in _records(rep) if rec[4] > 0]
    assert svg.count("<circle") == len(marked)
    assert svg.count("stroke-dasharray") == sum(1 for rec in marked if rec[1] == "inter")


def test_search_table_sorted_and_csv():
    results = search_procedures(8, 4)
    deltas = [r[3].delta for r in results]
    assert deltas == sorted(deltas, reverse=True)
    assert len(results) == 4 * 24 * 4
    csv_text = search_to_csv(results)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "first,shift,second,delta_intra,delta_inter,delta"
    assert len(lines) == len(results) + 1


def test_search_zero_shift_rows_zero():
    results = search_procedures(8, 4, shifts=[ShiftSpec(0, 0, "Z0")])
    same = [r for r in results if r[0] is r[2]]
    assert all(r[3].delta == 0 for r in same)


# SHA-256 of the search CSV, recorded before degrees were scored from rank grids
@pytest.mark.parametrize("grid,window,sha256", [
    (8, 4, "fbfdd0ea810b851e50a3ac529fd2921d3a694cdd7a947267d6c76a81232d440f"),
    (16, 4, "515ab8e9cabbbf36ec59850b02a0c1b397c8ec9b11b0d5c8539d4c4142686dd3"),
    (16, 8, "fda5c7b71a56d7369df39934fe4c67db7d8fecdcb58131f8a541c8e6d7659699"),
])
def test_search_csv_pinned(grid, window, sha256):
    csv_text = search_to_csv(search_procedures(grid, window))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == sha256


# SHA-256 of each output document, recorded while orders were tuples of (row,
# col) tuples and reports held one record object per region
@pytest.mark.parametrize("variant,json_sha256,svg_sha256", [
    (ScanVariant.Scan1, "7c8583a92baf67a46ec2497ac1a35f3e6583567b103143ee8119a552d4a8f56f",
     "3bea6c01c633d4dd467d63c443414ca0e32b38dc2f773acb4bf6beccda7bb545"),
    (ScanVariant.Scan2, "0223181d5ccd265b0e4cd0576e0ebd892458a5664c0ea2793124ab6a755a3388",
     "f89251a2fcc885d9b0b8c121595bd57cea8df0a40c0fbb75b9e05f6cb71f57a1"),
    (ScanVariant.Scan3, "1cbe1fbab77684c6c8187247c72871eb944539fca121d461f15c90b9a42c0248",
     "c0accf20f8d331229749f9b60910362787d84918e4ad886dd286b826e9cda0e7"),
    (ScanVariant.Scan4, "235b801efae939f3c8cadb0c1555a10db8e4fd3a8886235126ea1cbeb2e32712",
     "67f8fd2bb81cee2291cc64e43419f74d6be3751f2426cf52b183c777523e734c"),
])
def test_scan_documents_pinned(variant, json_sha256, svg_sha256):
    scan = generate_scan(variant, 8)
    assert hashlib.sha256(scan_to_json(scan).encode()).hexdigest() == json_sha256
    assert hashlib.sha256(scan_to_svg(scan).encode()).hexdigest() == svg_sha256


@pytest.mark.parametrize("first,shift,second,json_sha256,svg_sha256", [
    (ScanVariant.Scan1, "U1", ScanVariant.Scan3,
     "da63598d32e8c9192c663ab0439c0beecf65da278ab2ca650209acebcf3af525",
     "a14cdc38e3f0d5788bbdab9823defc51eac60180a40b567fd3cfa7b4ccb4c734"),
    (ScanVariant.Scan2, "L1", ScanVariant.Scan4,
     "5d35aba25bdf073f0d4dcad6bb9c3a6274033f98a894de640a27bf7141361978",
     "bf8a26e54369e982fc24ce9d4770260e4b5c0117390f22152590aa35f6a12680"),
])
def test_report_documents_pinned(first, shift, second, json_sha256, svg_sha256):
    rep = analyze(first, shift, second, 8, 4)
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == json_sha256
    assert hashlib.sha256(report_to_svg(rep).encode()).hexdigest() == svg_sha256


def test_search_deterministic():
    a = search_to_csv(search_procedures(8, 4))
    b = search_to_csv(search_procedures(8, 4))
    assert a == b


def test_empty_shift_list_rejected():
    with pytest.raises(ValueError):
        search_procedures(8, 4, shifts=[])


def test_empty_variant_list_rejected():
    with pytest.raises(ValueError):
        search_procedures(8, 4, variants=[])
    rows = search_procedures(8, 4, variants=None)
    assert len(rows) == 4 * 24 * 4
    assert {row[0] for row in rows} == {row[2] for row in rows} == set(ScanVariant)


@pytest.mark.parametrize("grid,window", [
    (1, 1),      # no 2x2 region
    (8, 3),      # the window does not divide the grid
    (12, 6),     # the window curve needs a power-of-two side
])
def test_search_rejects_bad_partition(grid, window):
    with pytest.raises(ValueError):
        search_procedures(grid, window)


def test_search_grids_read_only():
    """All rows view the same degree stacks and intra mask, so a write
    through one row's report raises instead of changing the others."""
    rows = search_procedures(8, 4)
    report = rows[0][3]
    for grid in (report.d_first, report.d_second, report.intra):
        with pytest.raises(ValueError):
            grid[0, 0] = 0


_SEARCH_SHIFTS = st.one_of(
    st.sampled_from(DEFAULT_SHIFTS),
    st.just(ShiftSpec(0, 0)),
    st.builds(ShiftSpec, st.integers(-40, 40), st.integers(-40, 40)),
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(4, 2), (8, 4), (16, 4), (16, 8)]),
       st.lists(_SEARCH_SHIFTS, min_size=1, max_size=6),
       st.lists(st.sampled_from(list(ScanVariant)), min_size=1, max_size=4))
def test_search_matches_composed_elimination(partition, shifts, variants):
    """Each row, and `analyze` of each triple, equals elimination of its
    composed procedure, and the rows come in the order of a stable sort of
    the triples built in loop order."""
    grid, window = partition
    part = WindowPartition(grid, window)
    parsed = [s if isinstance(s, ShiftSpec) else ShiftSpec.parse(s) for s in shifts]
    expected = [(first, shift, second,
                 elimination(compose_scan_shift_scan(first, shift, second, part), part))
                for first in variants for shift in parsed for second in variants]

    def check(got, want):
        assert got.procedure == want.procedure
        for name in ("d_first", "d_second", "intra"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.delta_intra, got.delta_inter, got.delta) == (
            want.delta_intra, want.delta_inter, want.delta)

    for first, shift, second, want in expected:
        check(analyze(first, shift, second, grid, window), want)
    expected.sort(key=lambda t: (-t[3].delta, -t[3].delta_inter, t[3].procedure))
    rows = search_procedures(grid, window, shifts=shifts, variants=variants)
    assert len(rows) == len(expected)
    for (*triple, got), (*want_triple, want) in zip(rows, expected):
        assert triple == want_triple and triple[1].name() == want_triple[1].name()
        check(got, want)
