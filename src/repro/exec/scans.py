"""The three traditional access paths of Section II.

* :class:`FullTableScan` — stream every heap page sequentially in extents.
* :class:`IndexScan` — classical non-clustered index scan: one random heap
  page fetch per qualifying TID, repeated pages re-fetched; emits in key
  order (the path that collapses when selectivity is underestimated).
* :class:`SortScan` — PostgreSQL's bitmap heap scan: collect qualifying
  TIDs from the index, sort by page, then fetch pages in near-sequential
  order; blocking, emits in physical order.

Smooth Scan and Switch Scan live in :mod:`repro.core` — they are the
paper's contribution, these are its baselines.
"""

from __future__ import annotations

from typing import Iterator

from repro.context import ExecutionContext
from repro.exec.expressions import (
    KeyRange,
    Predicate,
    TruePredicate,
    require_columns,
)
from repro.exec.iterator import Chunk, DEFAULT_BATCH_SIZE, Operator
from repro.storage.table import Table
from repro.storage.types import SLOT_MASK, TID_SHIFT, Row, TID

try:  # pragma: no cover - exercised implicitly when numpy is present
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def _sort_array(codes):
    """Ascending sort (numpy present by construction at the call site)."""
    return _np.sort(codes)


#: Below this many candidate slots per page (on average, per run), the
#: bitmap heap scan gathers rows directly instead of slicing columns.
_SPARSE_SLOTS_PER_PAGE = 16


class FullTableScan(Operator):
    """Sequential scan of every heap page, extent by extent (Eq. (10))."""

    def __init__(self, table: Table, predicate: Predicate | None = None):
        self.table = table
        self.predicate = predicate or TruePredicate()
        require_columns(table.schema, self.predicate)
        self.schema = table.schema

    def name(self) -> str:
        return f"FullTableScan({self.table.name})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Columnar scan: one chunk per extent run of heap pages.

        The extent's page payloads are concatenated into a single chunk
        and filtered with one mask evaluation, so predicate work runs on
        extent-sized arrays instead of page-sized ones.  Charges: inspect
        per page, emit per qualifying tuple (in bulk per batch).
        """
        heap = self.table.heap
        names = self.schema.column_names
        filter_chunk = self.predicate.bind_chunk(self.schema)
        extent = ctx.config.extent_pages
        for start in range(0, heap.num_pages, extent):
            n = min(extent, heap.num_pages - start)
            for page in ctx.get_run(heap, start, n):
                ctx.charge_inspect(len(page))
            kept = filter_chunk(heap.run_chunk(start, n, names))
            if kept is not None:
                ctx.charge_emit(len(kept))
                yield kept


class IndexScan(Operator):
    """Classical non-clustered index scan (Eq. (11)).

    Traverses the B+-tree once to the first qualifying entry, then follows
    the leaf chain; each TID triggers a heap page fetch — random, and
    possibly repeated, which is precisely the behaviour Smooth Scan's Page
    ID Cache eliminates.  Output is in index-key order.
    """

    def __init__(self, table: Table, column: str,
                 key_range: KeyRange | None = None,
                 residual: Predicate | None = None):
        self.table = table
        self.column = column
        self.index = table.index_on(column)
        self.key_range = key_range or KeyRange.all()
        self.residual = residual or TruePredicate()
        require_columns(table.schema, self.residual)
        self.schema = table.schema

    def name(self) -> str:
        return f"IndexScan({self.table.name}.{self.column})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """One random heap fetch per TID, rows flushed per
        :data:`~repro.exec.iterator.DEFAULT_BATCH_SIZE`."""
        heap = self.table.heap
        matches = self.residual.bind(self.schema)
        names = self.schema.column_names
        rng = self.key_range
        out: list[Row] = []
        for _key, tid in self.index.scan(
            ctx, lo=rng.lo, hi=rng.hi,
            lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
        ):
            page = ctx.get_page(heap, tid.page_id)
            ctx.charge_inspect()
            row = page.get(tid.slot)
            if matches(row):
                ctx.charge_emit()
                out.append(row)
                if len(out) == DEFAULT_BATCH_SIZE:
                    yield Chunk.from_rows(names, out)
                    out = []
        if out:
            yield Chunk.from_rows(names, out)


class SortScan(Operator):
    """Bitmap heap scan: sort qualifying TIDs by page, then fetch (§II).

    Phase 1 (blocking): drain the index range, collecting TIDs, and sort
    them in heap-page order.  Phase 2: fetch each page containing results
    at most once, in ascending page order — a pattern disk prefetchers
    serve nearly sequentially.  Emits in physical (TID) order, so an
    ``ORDER BY`` on the key needs an explicit sort on top.
    """

    def __init__(self, table: Table, column: str,
                 key_range: KeyRange | None = None,
                 residual: Predicate | None = None):
        self.table = table
        self.column = column
        self.index = table.index_on(column)
        self.key_range = key_range or KeyRange.all()
        self.residual = residual or TruePredicate()
        require_columns(table.schema, self.residual)
        self.schema = table.schema

    def name(self) -> str:
        return f"SortScan({self.table.name}.{self.column})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Columnar bitmap heap scan: one chunk per near-sequential run.

        Phase 1 pulls the range as *packed TID codes* (one int64 per
        entry) so collecting, sorting and page-grouping the bitmap are
        all array operations; the code order equals TID tuple order, so
        rows come out in TID order.  Phase 2 fetches each page holding
        candidates once, contiguous page spans as one run (read-ahead
        batching), charging an inspection per candidate slot.
        """
        codes = self.index.scan_codes(
            ctx, lo=self.key_range.lo, hi=self.key_range.hi,
            lo_inclusive=self.key_range.lo_inclusive,
            hi_inclusive=self.key_range.hi_inclusive,
        )
        if codes is None:  # no numpy: charge-identical list-based fallback
            yield from self._batches_from_tids(ctx)
            return
        if not len(codes):
            return
        heap = self.table.heap
        names = self.schema.column_names
        filter_chunk = self.residual.bind_chunk(self.schema)
        codes = _sort_array(codes)
        ctx.charge_compare(_nlogn(len(codes)))

        # Phase 2: group the sorted codes by page with one diff pass.
        pages_arr = codes >> TID_SHIFT
        slots_arr = codes & SLOT_MASK
        bounds = _np.flatnonzero(pages_arr[1:] != pages_arr[:-1]) + 1
        starts = _np.concatenate(([0], bounds))
        ends = _np.concatenate((bounds, [len(codes)]))
        page_ids = pages_arr[starts].tolist()
        spans = dict(zip(page_ids,
                         zip(starts.tolist(), ends.tolist(), strict=False),
                         strict=False))
        matches = self.residual.bind(self.schema)
        for run_start, run_len in _contiguous_runs(page_ids):
            # Candidates per run: spans are contiguous in code space.
            total = spans[run_start + run_len - 1][1] - spans[run_start][0]
            if total < run_len * _SPARSE_SLOTS_PER_PAGE:
                # Sparse run (few slots per page): gathering whole-page
                # columns to select a handful of rows costs more than
                # fetching the rows directly.  Same charges.
                out: list[Row] = []
                for page in ctx.get_run(heap, run_start, run_len):
                    lo, hi = spans[page.page_id]
                    ctx.charge_inspect(hi - lo)
                    get = page.get
                    for slot in slots_arr[lo:hi].tolist():
                        row = get(slot)
                        if matches(row):
                            out.append(row)
                if out:
                    ctx.charge_emit(len(out))
                    yield Chunk.from_rows(names, out)
                continue
            parts: list[Chunk] = []
            for page in ctx.get_run(heap, run_start, run_len):
                lo, hi = spans[page.page_id]
                ctx.charge_inspect(hi - lo)
                chunk = page.chunk(names)
                if hi - lo != len(chunk):
                    chunk = chunk.take(slots_arr[lo:hi])  # sel vector
                kept = filter_chunk(chunk)
                if kept is not None:
                    parts.append(kept)
            if parts:
                batch = Chunk.concat(parts)
                ctx.charge_emit(len(batch))
                yield batch

    def _batches_from_tids(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Batch path without numpy: per-leaf TID lists, Python sort."""
        heap = self.table.heap
        names = self.schema.column_names
        filter_chunk = self.residual.bind_chunk(self.schema)
        rng = self.key_range

        # Phase 1: collect qualifying TIDs leaf-batch-wise, sort by page.
        tids: list[TID] = []
        for _keys, tid_chunk in self.index.scan_batches(
            ctx, lo=rng.lo, hi=rng.hi,
            lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
        ):
            tids += tid_chunk
        if not tids:
            return
        tids.sort()
        ctx.charge_compare(_nlogn(len(tids)))

        # Phase 2: per fetched page, filter the slotted candidates in bulk.
        pages: dict[int, list[int]] = {}
        for tid in tids:
            pages.setdefault(tid.page_id, []).append(tid.slot)
        page_ids = sorted(pages)
        for run_start, run_len in _contiguous_runs(page_ids):
            parts: list[Chunk] = []
            for page in ctx.get_run(heap, run_start, run_len):
                slots = pages[page.page_id]
                ctx.charge_inspect(len(slots))
                chunk = page.chunk(names)
                if len(slots) != len(chunk):
                    chunk = chunk.take(slots)  # gather-free: sel vector
                kept = filter_chunk(chunk)
                if kept is not None:
                    parts.append(kept)
            if parts:
                batch = Chunk.concat(parts)
                ctx.charge_emit(len(batch))
                yield batch


def _contiguous_runs(page_ids: list[int]) -> Iterator[tuple[int, int]]:
    """Group a sorted page-id list into maximal (start, length) runs."""
    if not page_ids:
        return
    start = prev = page_ids[0]
    for pid in page_ids[1:]:
        if pid == prev + 1:
            prev = pid
            continue
        yield start, prev - start + 1
        start = prev = pid
    yield start, prev - start + 1


def _nlogn(n: int) -> int:
    """Comparison count estimate for sorting ``n`` items."""
    if n < 2:
        return n
    return n * max(1, (n - 1).bit_length())
