"""Property-based tests of the Chunk row/column round-trip contract.

The contract (see :mod:`repro.storage.chunk`):
``Chunk.from_rows(names, rows).to_rows() == rows`` for any well-typed
rows — including CHAR strings, NULLs, booleans, floats and integers
beyond the ``int64`` range — and every derived view (columnar rebuild,
``take``, slicing, ``concat``) exposes exactly the rows plain-Python
indexing would.  Values must come back as built-in Python types, never
NumPy scalars.
"""

import functools
import random
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.config import EngineConfig
from repro.core.smooth_scan import SmoothScan
from repro.exec.expressions import KeyRange
from repro.exec.iterator import DEFAULT_BATCH_SIZE
from repro.storage.chunk import Chunk, mask_from_bools
from repro.storage.types import Schema

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# One strategy per column "shape": typed-array candidates (pure int,
# pure float) and object-fallback ones (CHAR, NULL-bearing, mixed,
# big-int, bool — bools must *not* be coerced into int64 columns).
_COLUMN_VALUE = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.none(),
    st.booleans(),
)

_COLUMN_STRATEGIES = st.sampled_from([
    st.integers(-2**62, 2**62),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.one_of(st.none(), st.integers(-100, 100)),
    st.booleans(),
    _COLUMN_VALUE,
])


@st.composite
def row_batches(draw):
    """A (names, rows) pair with a per-column value strategy."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(0, 50))
    col_strats = [draw(_COLUMN_STRATEGIES) for _ in range(width)]
    rows = [
        tuple(draw(s) for s in col_strats)
        for _ in range(height)
    ]
    names = tuple(f"c{i}" for i in range(width))
    return names, rows


def _assert_plain_python(rows):
    for row in rows:
        for v in row:
            assert v is None or type(v) in (int, float, str, bool), type(v)


@SETTINGS
@given(batch=row_batches())
def test_from_rows_to_rows_round_trips(batch):
    names, rows = batch
    chunk = Chunk.from_rows(names, rows)
    assert len(chunk) == len(rows)
    assert chunk.to_rows() == rows

    # The same rows reconstructed purely from the column payloads — no
    # cached row list to fall back on — must round-trip bitwise too.
    rebuilt = Chunk.from_columns(names, chunk.columns)
    assert rebuilt.to_rows() == rows
    _assert_plain_python(rebuilt.to_rows())


def _either_layout(names, rows, data):
    """A row-built (lazily transposed) chunk, or a column-built one."""
    if data.draw(st.booleans(), label="row-built"):
        return Chunk.from_rows(names, rows)
    return Chunk.from_columns(names, Chunk.from_rows(names, rows).columns)


@SETTINGS
@given(batch=row_batches(), data=st.data())
def test_take_and_slice_match_row_indexing(batch, data):
    names, rows = batch
    chunk = _either_layout(names, rows, data)

    indices = data.draw(st.lists(
        st.integers(0, max(0, len(rows) - 1)),
        max_size=len(rows), unique=True,
    ).map(sorted)) if rows else []
    taken = chunk.take(indices)
    assert taken.to_rows() == [rows[i] for i in indices]

    lo = data.draw(st.integers(0, len(rows)))
    hi = data.draw(st.integers(lo, len(rows)))
    assert chunk[lo:hi].to_rows() == rows[lo:hi]

    # A second narrowing composes selection vectors.
    if indices:
        sub = data.draw(st.lists(
            st.integers(0, len(indices) - 1),
            max_size=len(indices), unique=True,
        ).map(sorted))
        assert taken.take(sub).to_rows() == [rows[indices[j]] for j in sub]


@SETTINGS
@given(batch=row_batches(), data=st.data())
def test_filter_and_concat_match_python(batch, data):
    names, rows = batch
    chunk = _either_layout(names, rows, data)

    bools = [data.draw(st.booleans()) for _ in rows]
    kept = chunk.filter(mask_from_bools(iter(bools), len(rows)))
    expected = [r for r, b in zip(rows, bools, strict=False) if b]
    assert (kept.to_rows() if kept is not None else []) == expected

    if rows:
        cut = data.draw(st.integers(0, len(rows)))
        left = Chunk.from_rows(names, rows[:cut])
        right = Chunk.from_rows(names, rows[cut:])
        assert Chunk.concat([left, right]).to_rows() == rows


@SETTINGS
@given(batch=row_batches(), data=st.data())
def test_row_built_chunk_transposes_only_what_is_read(batch, data):
    """``from_rows`` keeps the rows: rowifying, slicing and taking never
    build columns, and a column read builds exactly that column's
    values (the same payload a full transpose would)."""
    names, rows = batch
    chunk = Chunk.from_rows(names, rows)
    assert chunk.to_rows() is rows or chunk.to_rows() == rows
    lo = data.draw(st.integers(0, len(rows)))
    assert chunk[lo:].to_rows() == rows[lo:]
    assert chunk.take(list(range(lo, len(rows)))).to_rows() == rows[lo:]
    assert chunk._columns is None  # nothing was transposed
    i = data.draw(st.integers(0, len(names) - 1))
    assert chunk.column_values(i) == [row[i] for row in rows]
    projected = chunk.project([i], (names[i],))
    assert projected.to_rows() == [(row[i],) for row in rows]
    eager = Chunk.from_columns(names, Chunk.from_rows(names, rows).columns)
    assert chunk.columns[i] is chunk.data_column(i)
    assert [chunk.column_values(j) for j in range(len(names))] == \
        [eager.column_values(j) for j in range(len(names))]


# -- many tiny parts: Smooth Scan's columnar flush bookkeeping ------------

_SPARSE_ROWS = 12_000
_SPARSE_DOMAIN = 100_000


@functools.cache
def _sparse_table():
    """30-row pages of uniform ``c2`` keys: a narrow key range leaves
    about one qualifying row per fetched page."""
    db = Database(EngineConfig(page_size=1024, page_header=64))
    rng = random.Random(5)
    rows = [(i, rng.randrange(_SPARSE_DOMAIN)) for i in range(_SPARSE_ROWS)]
    table = db.load_table("t", Schema.of_ints(["c1", "c2"]), rows)
    db.create_index("t", "c2")
    return db, table, rows


@settings(max_examples=25, deadline=None)
@given(lo=st.integers(0, _SPARSE_DOMAIN - 3_000),
       width=st.integers(1, 3_000))
def test_low_selectivity_many_tiny_parts_flush_linearly(lo, width):
    """At low selectivity the columnar Smooth Scan collects one tiny
    chunk part per page.  Its flush check must keep a running row count:
    re-summing every pending part per check is quadratic, which shows
    here as a ``len()`` count far above the rows produced."""
    db, table, rows = _sparse_table()
    hi = lo + width
    expected = sorted(r for r in rows if lo <= r[1] < hi)

    calls = 0
    chunk_len = Chunk.__len__

    def counting_len(chunk):
        nonlocal calls
        calls += 1
        return chunk_len(chunk)

    with mock.patch.object(Chunk, "__len__", counting_len):
        batches = list(SmoothScan(table, "c2", KeyRange(lo, hi)).batches(
            db.cold_run()))
    flat = [row for batch in batches for row in batch]
    assert sorted(flat) == expected
    # Output order: whole pages, each page's tuples in slot order (c1 is
    # the load position, so c1 // tuples_per_page is the page).
    per_page = table.heap.tuples_per_page
    pages = [r[0] // per_page for r in flat]
    firsts = [p for i, p in enumerate(pages) if not i or p != pages[i - 1]]
    assert len(firsts) == len(set(firsts))
    assert all(a[0] < b[0] for a, b in zip(flat, flat[1:], strict=False)
               if a[0] // per_page == b[0] // per_page)
    # Flush points: every batch but the last is full.
    assert all(len(b) >= DEFAULT_BATCH_SIZE for b in batches[:-1])
    # Every part holds at least one row, so linear bookkeeping stays
    # within a few ``len()`` calls per produced row.
    assert calls <= 4 * len(expected) + 16, (calls, len(expected))
