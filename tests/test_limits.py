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


def test_doubling_chunks_cover_the_rows_in_order(monkeypatch):
    monkeypatch.setattr(limits, "FIRST_CELLS", 8)
    assert list(limits.doubling_chunks(20, 4, 6)) == [(0, 2), (2, 6), (6, 12), (12, 18), (18, 20)]
    assert list(limits.doubling_chunks(3, 100, 6)) == [(0, 1), (1, 3)]
    assert list(limits.doubling_chunks(5, 1, 3)) == [(0, 3), (3, 5)]
