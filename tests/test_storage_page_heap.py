"""Heap pages and heap files."""

import pytest

from repro.errors import PageFullError, StorageError, UnknownPageError
from repro.storage.heap import HeapFile
from repro.storage.page import HeapPage
from repro.storage.types import TID_SHIFT, Schema, TID


def test_page_insert_and_get():
    page = HeapPage(page_id=0, capacity=3)
    assert page.insert((1,)) == 0
    assert page.insert((2,)) == 1
    assert page.get(1) == (2,)
    assert len(page) == 2
    assert not page.is_full


def test_page_full_raises():
    page = HeapPage(page_id=0, capacity=1)
    page.insert((1,))
    assert page.is_full
    with pytest.raises(PageFullError):
        page.insert((2,))


def test_page_bad_slot():
    page = HeapPage(page_id=0, capacity=2)
    page.insert((1,))
    with pytest.raises(StorageError):
        page.get(1)


def test_page_rejects_zero_capacity():
    with pytest.raises(StorageError):
        HeapPage(page_id=0, capacity=0)


@pytest.fixture()
def heap():
    return HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=4)


def test_heap_append_assigns_sequential_tids(heap):
    tids = [heap.append((i,)) for i in range(10)]
    assert tids[0] == TID(0, 0)
    assert tids[4] == TID(1, 0)
    assert tids[9] == TID(2, 1)
    assert heap.num_pages == 3
    assert heap.row_count == 10


def test_heap_fetch_roundtrip(heap):
    tid = heap.append((42,))
    assert heap.fetch(tid) == (42,)


def test_heap_page_bounds(heap):
    heap.append((1,))
    with pytest.raises(UnknownPageError):
        heap.page(5)


def test_heap_validates_arity(heap):
    with pytest.raises(StorageError):
        heap.append((1, 2))


def test_heap_iter_rows_in_physical_order(heap):
    for i in range(9):
        heap.append((i,))
    rows = list(heap.iter_rows())
    assert [r for _t, r in rows] == [(i,) for i in range(9)]
    assert rows[0][0] == TID(0, 0)
    assert rows[-1][0] == TID(2, 0)


def test_heap_iter_pages_order(heap):
    for i in range(6):
        heap.append((i,))
    assert [p.page_id for p in heap.iter_pages()] == [0, 1]


def test_page_extend_respects_capacity():
    page = HeapPage(page_id=0, capacity=3)
    page.extend([(1,), (2,)])
    assert page.all_rows() == [(1,), (2,)]
    with pytest.raises(PageFullError):
        page.extend([(3,), (4,)])
    assert len(page) == 2


@pytest.mark.parametrize("n", [0, 1, 3, 4, 10])
@pytest.mark.parametrize("preload", [0, 2])
def test_heap_extend_matches_row_appends(n, preload):
    by_row = HeapFile(file_id=1, schema=Schema.of_ints(["a"]),
                      tuples_per_page=4)
    by_page = HeapFile(file_id=2, schema=Schema.of_ints(["a"]),
                       tuples_per_page=4)
    for i in range(preload):
        by_row.append((i,))
        by_page.append((i,))
    rows = [(100 + i,) for i in range(n)]
    for row in rows:
        by_row.append(row)
    assert by_page.extend(iter(rows)) == n
    assert list(by_page.iter_rows()) == list(by_row.iter_rows())
    assert by_page.row_count == by_row.row_count
    assert by_page.num_pages == by_row.num_pages


def test_heap_extend_keeps_rows_before_a_malformed_one(heap):
    with pytest.raises(StorageError, match="arity"):
        heap.extend([(0,), (1,), (2,), (3,), (4, 5), (6,)])
    assert [r for _t, r in heap.iter_rows()] == [(0,), (1,), (2,), (3,)]
    assert heap.row_count == 4
    assert heap.num_pages == 1  # no empty page for the malformed row


def test_heap_columns_and_tid_codes_follow_heap_order(heap):
    heap.extend([(i * 1.5,) for i in range(7)])
    pairs = list(heap.iter_rows())
    assert heap.column_values(0) == [r[0] for _t, r in pairs]
    column = heap.column(0)
    assert list(column) == heap.column_values(0)
    codes = heap.tid_codes()
    assert list(codes) == [(t.page_id << TID_SHIFT) | t.slot
                           for t, _r in pairs]
    # Offline column reads leave the scans' chunk caches cold.
    assert all(page._chunk is None for page in heap.iter_pages())
    assert not heap._run_chunks
