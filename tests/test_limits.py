import numpy as np
import pytest

from congforge import limits


@pytest.mark.parametrize("limit, dtype", [
    (0, np.uint8), (1, np.uint8), (256, np.uint8), (257, np.uint16),
    (65536, np.uint16), (65537, np.uint32), (1 << 32, np.uint32), ((1 << 32) + 1, np.uint64),
])
def test_narrow_dtype_holds_every_value_below_the_limit(limit, dtype):
    assert limits.narrow_dtype(limit) == dtype
    if limit:
        assert np.iinfo(dtype).max >= limit - 1


@pytest.mark.parametrize("limit, dtype", [
    (0, np.int32), (256, np.int32), (1 << 31, np.int32), ((1 << 31) + 1, np.int64),
])
def test_index_dtype_is_int32_while_every_index_fits(limit, dtype):
    assert limits.index_dtype(limit) == dtype
    assert np.iinfo(dtype).max >= limit - 1


def test_check_cap_reads_the_environment_unless_a_fixed_cap_is_given(monkeypatch):
    monkeypatch.setenv("CONGFORGE_CAP", "5")
    assert limits.check_cap(5, "x") == 5
    with pytest.raises(limits.SizeLimitError, match="x has 6 elements, over the cap of 5 "
                                                   r"\(set CONGFORGE_CAP"):
        limits.check_cap(6, "x")
    assert limits.check_cap(6, "x", 6) == 6
    with pytest.raises(limits.SizeLimitError, match="x has 7 elements, over the cap of 6$"):
        limits.check_cap(7, "x", 6)


def _assert_cover(ranges, start, stop):
    assert ranges[0][0] == start and ranges[-1][1] == stop
    assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))  # in order, no gaps
    assert all(lo < hi for lo, hi in ranges)


@pytest.mark.parametrize("start, stop, row_bytes, cells", [
    (0, 1, 1, None), (0, 1000, 1 << 16, None), (17, 1000, 1 << 16, None), (3, 5, 1, None),
    (0, 1000, 1 << 16, 8), (17, 1000, 1 << 16, 100), (0, 10 ** 6, 64, 1),
])
def test_chunks_cover_the_rows_in_order(start, stop, row_bytes, cells):
    ranges = list(limits.chunks(stop, row_bytes, start=start, cells=cells))
    _assert_cover(ranges, start, stop)
    assert list(limits.chunks(start, row_bytes, start=start, cells=cells)) == []


def test_chunks_keep_every_range_within_the_budget(monkeypatch):
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1000)
    for cells in (None, 1, 7):
        ranges = list(limits.chunks(500, 30, cells=cells))
        _assert_cover(ranges, 0, 500)
        assert max(hi - lo for lo, hi in ranges) == 1000 // 30
        # fixed bytes held whatever the rows leave less room for rows
        ranges = list(limits.chunks(500, 30, cells=cells, fixed=400))
        _assert_cover(ranges, 0, 500)
        assert max(hi - lo for lo, hi in ranges) == 600 // 30


def test_chunks_grow_from_about_first_cells_and_double(monkeypatch):
    monkeypatch.setattr(limits, "FIRST_CELLS", 8)
    monkeypatch.setattr(limits, "CHUNK_BYTES", 6 * 10)  # 6 rows of 10 bytes
    assert list(limits.chunks(20, 10, cells=4)) == [(0, 2), (2, 6), (6, 12), (12, 18), (18, 20)]
    assert list(limits.chunks(3, 10, cells=100)) == [(0, 1), (1, 3)]
    assert list(limits.chunks(25, 10, start=5, cells=1)) == [(5, 11), (11, 17), (17, 23),
                                                             (23, 25)]
    monkeypatch.setattr(limits, "FIRST_CELLS", 1 << 14)
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1 << 24)
    sizes = [hi - lo for lo, hi in limits.chunks(1 << 20, 64, cells=16)]
    assert sizes[:4] == [1 << 10, 1 << 11, 1 << 12, 1 << 13]  # 2^14 cells first
    assert max(sizes) == (1 << 24) // 64
    # without cells every range but the last has the full budget's rows
    assert list(limits.chunks(20, 10)) == [(0, 20)]


def test_chunks_are_single_rows_at_a_one_byte_budget(monkeypatch):
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for cells in (None, 1, 1000):
        assert list(limits.chunks(5, 8, start=1, cells=cells)) == [(i, i + 1) for i in range(1, 5)]
        assert list(limits.chunks(3, 8, cells=cells, fixed=64)) == [(0, 1), (1, 2), (2, 3)]
    assert not limits.fits(2) and limits.fits(1)


def test_chunks_grow_from_a_given_first_range(monkeypatch):
    monkeypatch.setattr(limits, "CHUNK_BYTES", 6 * 10)  # 6 rows of 10 bytes
    assert list(limits.chunks(20, 10, first=1)) == [(0, 1), (1, 3), (3, 7), (7, 13), (13, 19),
                                                     (19, 20)]
    # first wins over cells, and is held within the budget's rows
    assert list(limits.chunks(9, 10, cells=1, first=2)) == [(0, 2), (2, 6), (6, 9)]
    assert list(limits.chunks(9, 10, first=100)) == [(0, 6), (6, 9)]


def test_first_steps_come_nearest_first_cells(monkeypatch):
    monkeypatch.setattr(limits, "FIRST_CELLS", 100)
    assert limits.first_steps(100, 10) == 0 and limits.first_steps(7, 10) == 0
    assert limits.first_steps(10 ** 5, 10) == 3
    assert limits.first_steps(3 ** 6, 3) == 2  # 81, ratio 1.23, against 2.43 at 243
    assert limits.first_steps(4 ** 5, 4) == 2  # 64 at 1.56 against 256 at 2.56
    monkeypatch.setattr(limits, "FIRST_CELLS", 128)
    assert limits.first_steps(4 ** 5, 4) == 1  # 256 and 64 tie at 2: the fewer steps
