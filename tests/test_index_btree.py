"""B+-tree behaviour: ordering, ranges, charging, and invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less environment
    np = None

from repro.errors import BTreeError
from repro.index.btree import TID_SHIFT, BTreeIndex
from repro.storage.types import Schema, TID


def pack(tid):
    return (tid.page_id << TID_SHIFT) | tid.slot


def make_index(pairs, key_size=4):
    """An index over ``(key, TID)`` pairs listed in heap (TID) order."""
    index = BTreeIndex("idx", file_id=9, key_size=key_size)
    index.bulk_load([k for k, _t in pairs], [pack(t) for _k, t in pairs])
    return index


@pytest.fixture()
def ctx_and_index(db):
    table = db.load_table(
        "t", Schema.of_ints(["a", "b"]),
        ((i, (i * 37) % 100) for i in range(2_000)),
    )
    index = db.create_index("t", "b")
    return db, db.context(), table, index


def test_bulk_load_sorts(ctx_and_index):
    _db, ctx, _table, index = ctx_and_index
    keys = [k for k, _t in index.scan(ctx)]
    assert keys == sorted(keys)
    assert len(keys) == 2_000


def test_strict_key_tid_order(ctx_and_index):
    _db, ctx, _table, index = ctx_and_index
    entries = list(index.scan(ctx))
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))


def test_range_scan_bounds(ctx_and_index):
    _db, ctx, _table, index = ctx_and_index
    keys = [k for k, _t in index.scan(ctx, lo=10, hi=20)]
    assert keys and all(10 <= k < 20 for k in keys)
    keys_inc = [k for k, _t in index.scan(ctx, lo=10, hi=20,
                                          hi_inclusive=True)]
    assert max(keys_inc) == 20
    keys_exc = [k for k, _t in index.scan(ctx, lo=10, hi=20,
                                          lo_inclusive=False)]
    assert min(keys_exc) > 10


def test_empty_range_yields_nothing(ctx_and_index):
    _db, ctx, _table, index = ctx_and_index
    assert list(index.scan(ctx, lo=500, hi=600)) == []


def test_lookup_point(ctx_and_index):
    db, ctx, table, index = ctx_and_index
    tids = list(index.lookup(ctx, 0))
    rows = [table.heap.fetch(t) for t in tids]
    assert rows and all(r[1] == 0 for r in rows)


def test_scan_charges_descent_and_leaf_io(ctx_and_index):
    db, ctx, _table, index = ctx_and_index
    db.cold_run()
    ctx = db.context()
    list(index.scan(ctx))
    # At least the root-to-leaf path plus every leaf page was read.
    assert db.disk.stats.pages_read >= index.num_leaves


def test_insert_preserves_order():
    index = make_index([])
    rng = random.Random(5)
    values = [rng.randrange(100) for _ in range(300)]
    for i, v in enumerate(values):
        index.insert(v, TID(i // 10, i % 10))
    keys = [index.entry_at(i)[0] for i in range(len(index))]
    assert keys == sorted(keys)
    assert len(index) == 300


def test_insert_equal_keys_ordered_by_tid():
    index = make_index([])
    index.insert(5, TID(3, 0))
    index.insert(5, TID(1, 0))
    index.insert(5, TID(2, 0))
    tids = [index.entry_at(i)[1] for i in range(3)]
    assert tids == [TID(1, 0), TID(2, 0), TID(3, 0)]


def test_min_max_key():
    index = make_index([(5, TID(0, 0)), (2, TID(0, 1)), (9, TID(0, 2))])
    assert index.min_key() == 2
    assert index.max_key() == 9
    empty = make_index([])
    with pytest.raises(BTreeError):
        empty.min_key()


def test_geometry_consistency():
    index = make_index([(i, TID(i // 100, i % 100)) for i in range(20_000)])
    sizes = index.level_sizes
    assert sizes[0] == index.num_leaves
    assert sizes[-1] == 1
    assert index.num_pages == sum(sizes)
    assert index.height == len(sizes)


def test_page_bounds():
    index = make_index([(i, TID(0, i)) for i in range(10)])
    index.page(0)
    with pytest.raises(BTreeError):
        index.page(index.num_pages)


def test_path_page_ids_root_first():
    index = make_index([(i, TID(i, 0)) for i in range(20_000)])
    path = index._path_page_ids(0)
    assert len(path) == index.height
    assert path[-1] == 0  # leaf 0 last
    assert path[0] == index.num_pages - 1  # root is the last page id


def test_root_key_separators_sorted_unique():
    index = make_index([(i % 50, TID(i // 10, i % 10)) for i in range(500)])
    seps = index.root_key_separators(8)
    assert seps == sorted(seps)
    assert len(seps) == len(set(seps))
    assert len(seps) <= 7


def test_root_key_separators_empty_cases():
    assert make_index([]).root_key_separators(8) == []
    index = make_index([(1, TID(0, 0))])
    assert index.root_key_separators(1) == []


# Typed-column keys (int64, float64 with signed zeros and infinities)
# take the NumPy argsort; big ints and strings the Python sort.
_BULK_KEYS = st.one_of(
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=300),
    st.lists(st.floats(allow_nan=False), max_size=300),
    st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5]), max_size=100),
    st.lists(st.integers(-2**70, 2**70), max_size=100),
    st.lists(st.text(max_size=4), max_size=300),
)


@settings(max_examples=50, deadline=None)
@given(_BULK_KEYS)
def test_property_bulk_load_matches_sorted(keys):
    pairs = [(k, TID(i // 8, i % 8)) for i, k in enumerate(keys)]
    index = make_index(pairs)
    stored = [index.entry_at(i) for i in range(len(index))]
    expected = sorted(pairs, key=lambda p: (p[0], p[1]))
    assert stored == expected
    # The index keeps the callers' own key objects (0.0 vs -0.0 too).
    assert all(k is e for (k, _t), (e, _u) in zip(stored, expected,
                                                  strict=True))
    if np is not None:
        assert index._code_array().tolist() == [pack(t)
                                                for t in index._tids]


def test_bulk_load_rejects_codes_out_of_heap_order():
    with pytest.raises(BTreeError):
        make_index([(1, TID(0, 1)), (2, TID(0, 0))])
    index = BTreeIndex("idx", file_id=9, key_size=4)
    with pytest.raises(BTreeError):
        index.bulk_load([1, 2], [0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), max_size=200),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
)
def test_property_range_positions_match_filter(keys, lo, hi):
    pairs = [(k, TID(i // 8, i % 8)) for i, k in enumerate(keys)]
    index = make_index(pairs)
    start, end = index.range_positions(lo, hi)
    via_positions = [index.entry_at(i)[0] for i in range(start, end)]
    expected = sorted(k for k in keys if lo <= k < hi)
    assert via_positions == expected
