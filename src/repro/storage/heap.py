"""Heap files: page-ordered row storage.

A :class:`HeapFile` is the physical body of a table — an append-only list
of :class:`~repro.storage.page.HeapPage`.  It never charges I/O itself;
all timed access flows through the :class:`~repro.storage.buffer.BufferPool`
so that repeated-page effects (the index scan's downfall) are modeled
faithfully.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from repro.errors import StorageError, UnknownPageError
from repro.storage.chunk import Chunk, ColumnData, _typed_column
from repro.storage.page import HeapPage
from repro.storage.types import TID_SHIFT, Row, Schema, TID

try:  # pragma: no cover - exercised implicitly when numpy is present
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less fallback environment
    _np = None

#: Run-chunk cache bound, in total cached rows, as a multiple of the
#: heap's row count (distinct scan extents tile the heap once; morphing
#: regions can overlap — evict wholesale past this).
_RUN_CHUNK_ROW_FACTOR = 4


class HeapFile:
    """Append-only paged storage for rows of one schema."""

    def __init__(self, file_id: int, schema: Schema, tuples_per_page: int):
        if tuples_per_page < 1:
            raise StorageError("tuples_per_page must be >= 1")
        self.file_id = file_id
        self.schema = schema
        self.tuples_per_page = tuples_per_page
        self._pages: list[HeapPage] = []
        self._row_count = 0
        #: Cache of concatenated page chunks keyed by ``(start, n)``.
        self._run_chunks: dict[tuple[int, int], Chunk] = {}
        self._run_chunk_rows = 0

    @property
    def num_pages(self) -> int:
        """Number of allocated pages (``#P`` in the cost model)."""
        return len(self._pages)

    @property
    def row_count(self) -> int:
        """Number of stored rows (``#T`` in the cost model)."""
        return self._row_count

    def append(self, row: Row) -> TID:
        """Store ``row`` at the end of the heap; returns its TID."""
        self.schema.validate_row(row)
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(
                HeapPage(page_id=len(self._pages), capacity=self.tuples_per_page)
            )
        page = self._pages[-1]
        slot = page.insert(row)
        self._row_count += 1
        if self._run_chunks:
            self._run_chunks.clear()
            self._run_chunk_rows = 0
        return TID(page.page_id, slot)

    def extend(self, rows: Iterable[Row]) -> int:
        """Append many rows page-at-a-time; returns how many were stored.

        Stores exactly what :meth:`append` would row by row — the same
        pages and slots, the same arity check, and the rows before a
        malformed one are kept — without building a TID per row.
        """
        arity = len(self.schema)
        it = iter(rows)
        count = 0
        while True:
            page = self._pages[-1] if self._pages else None
            if page is None or page.is_full:
                page, room = None, self.tuples_per_page
            else:
                room = page.capacity - len(page)
            batch = list(islice(it, room))
            malformed = None
            if set(map(len, batch)) - {arity}:
                bad = next(i for i, row in enumerate(batch)
                           if len(row) != arity)
                batch, malformed = batch[:bad], batch[bad]
            if batch:
                if page is None:
                    page = HeapPage(page_id=len(self._pages),
                                    capacity=self.tuples_per_page)
                    self._pages.append(page)
                page.extend(batch)
                count += len(batch)
                self._row_count += len(batch)
                if self._run_chunks:
                    self._run_chunks.clear()
                    self._run_chunk_rows = 0
            if malformed is not None:
                self.schema.validate_row(malformed)  # raises
            if len(batch) < room:
                return count

    def run_chunk(self, start: int, n: int, names: tuple[str, ...]) -> Chunk:
        """One chunk spanning pages ``[start, start + n)``, cached.

        Scans fetch the same extents on every execution; concatenating the
        per-page chunks once and reusing the result removes the dominant
        per-drain cost of columnar full scans.  Callers still charge I/O
        and CPU through the execution context — this is pure payload
        access, like :meth:`page`.
        """
        key = (start, n)
        cached = self._run_chunks.get(key)
        if cached is not None and cached.names == names:
            return cached
        if self._run_chunk_rows > _RUN_CHUNK_ROW_FACTOR * self._row_count:
            self._run_chunks.clear()
            self._run_chunk_rows = 0
        merged = Chunk.concat(
            [self._pages[i].chunk(names) for i in range(start, start + n)]
        )
        self._run_chunks[key] = merged
        self._run_chunk_rows += len(merged)
        return merged

    def page(self, page_id: int) -> HeapPage:
        """Return page ``page_id`` without charging I/O."""
        if not 0 <= page_id < len(self._pages):
            raise UnknownPageError(
                f"page {page_id} outside heap of {len(self._pages)} pages"
            )
        return self._pages[page_id]

    def fetch(self, tid: TID) -> Row:
        """Return the row named by ``tid`` without charging I/O."""
        return self.page(tid.page_id).get(tid.slot)

    def iter_pages(self) -> Iterator[HeapPage]:
        """Yield pages in physical order (full-scan order)."""
        return iter(self._pages)

    def iter_run(self, start: int, n: int) -> Iterator[HeapPage]:
        """Yield pages ``[start, start + n)`` without charging I/O."""
        return iter(self._pages[start:start + n])

    def column_values(self, pos: int) -> list:
        """Column ``pos`` of every stored row, in heap order, as the
        rows' own value objects (no TIDs built, no I/O charged)."""
        return [row[pos] for page in self._pages for row in page.all_rows()]

    def column(self, pos: int) -> ColumnData:
        """Column ``pos`` of every stored row, in heap order, typed like a
        :class:`Chunk` column: an int64/float64 array when exact, else an
        object list.

        Offline access for statistics collection: it reads the page row
        lists directly and leaves the scan caches (page and run chunks)
        untouched, so scans pay what they paid before.
        """
        return _typed_column(self.column_values(pos))

    def tid_codes(self):
        """Packed TID codes (``page_id << TID_SHIFT | slot``) of every
        stored row, in heap order, so ascending.

        Computed from page lengths alone: an int64 array, or a list of
        ints without numpy.
        """
        lengths = [len(page) for page in self._pages]
        if _np is None:
            return [(page_id << TID_SHIFT) | slot
                    for page_id, n in enumerate(lengths)
                    for slot in range(n)]
        counts = _np.array(lengths, dtype=_np.int64)
        page_ids = _np.repeat(_np.arange(len(lengths), dtype=_np.int64),
                              counts)
        page_starts = _np.repeat(_np.cumsum(counts) - counts, counts)
        slots = _np.arange(len(page_ids), dtype=_np.int64) - page_starts
        return (page_ids << TID_SHIFT) | slots

    def iter_rows(self) -> Iterator[tuple[TID, Row]]:
        """Yield ``(TID, row)`` in physical order, charging no I/O."""
        for page in self._pages:
            for slot, row in page.rows_with_slots():
                yield TID(page.page_id, slot), row
