"""The Smooth Scan operator — the paper's core contribution (Sections III-IV).

Smooth Scan is driven by the secondary index like a classical index scan,
but morphs its heap-access strategy as the observed selectivity evolves:

* **Mode 0** (only under non-eager triggers): a true index scan — one
  random heap fetch per probe, produced TIDs recorded in the Tuple ID
  cache.
* **Mode 1 — Entire Page Probe**: each fetched heap page is processed
  completely; all qualifying tuples on it are produced (or parked in the
  Result Cache when an interesting order must be preserved), and the page
  is recorded in the Page ID cache so it is never fetched again.
* **Mode 2+ — Flattening Access**: each probe fetches a *morphing region*
  of adjacent pages in one near-sequential run; the region size evolves
  under a :class:`~repro.core.policy.MorphPolicy` (doubling on selectivity
  increase, with Elastic also halving on decrease), capped at the
  configured maximum (2K pages ≈ 16MB, the paper's sweet spot).

The operator never consults optimizer statistics — its only inputs are an
index, a key range and a residual predicate.  With ``ordered=True`` it
emits in strict index-key order (usable under ORDER BY / merge joins),
otherwise tuples stream out as pages are processed.

Execution is batch-vectorized (:meth:`SmoothScan.batches`): index
entries arrive one leaf at a time
(:meth:`~repro.index.btree.BTreeIndex.scan_batches`), morphing-region runs
are probed whole and their output accumulated into chunks flushed at the
batch-size threshold, and page probing compiles the key range and residual
predicate into masks or selection lists instead of calling a closure per
tuple.  Charges follow the paper's per-tuple model exactly — one probe,
inspection, cache operation or emission per tuple, paid in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.context import ExecutionContext
from repro.core.caches import PageIdCache, ResultCache, TupleIdCache
from repro.core.morph_stats import SmoothScanStats
from repro.core.policy import ElasticPolicy, MorphPolicy
from repro.core.trigger import EagerTrigger, Trigger
from repro.errors import PlanningError
from repro.exec.expressions import (
    KeyRange,
    Predicate,
    TruePredicate,
    range_chunk_filter,
    range_mask,
    range_selector,
    require_columns,
)
from repro.storage.chunk import mask_and
from repro.exec.iterator import Chunk, DEFAULT_BATCH_SIZE, Operator
from repro.storage.table import Table
from repro.storage.types import SLOT_MASK, TID_SHIFT, Row, TID

try:  # pragma: no cover - exercised implicitly when numpy is present
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_DEFAULT_RESULT_CACHE_PARTITIONS = 16


@dataclass
class _RunState:
    """Per-execution caches, statistics and policy state."""

    stats: SmoothScanStats
    page_cache: PageIdCache
    tuple_cache: TupleIdCache | None
    result_cache: ResultCache | None
    policy: MorphPolicy
    max_region: int
    col_pos: int
    names: tuple[str, ...]


class SmoothScan(Operator):
    """Statistics-oblivious access path morphing between index and full scan.

    Args:
        table: the table to scan.
        column: indexed column driving the probes.
        key_range: key interval to scan (default: the whole index).
        residual: extra predicate applied to every candidate tuple.
        policy: morphing policy (default Elastic, the paper's choice).
        trigger: when smooth behaviour starts (default Eager).
        ordered: preserve index-key output order via the Result Cache.
        max_mode: 1 caps the operator at Entire Page Probe (the Fig. 6
            sensitivity curve); 2 enables Flattening Access.
        max_region_pages: overrides the engine's region cap.
        result_cache_partitions: key-range partitions for bulk eviction.
        result_cache_memory_limit: bytes before far partitions spill.
    """

    def __init__(self, table: Table, column: str,
                 key_range: KeyRange | None = None,
                 residual: Predicate | None = None,
                 policy: MorphPolicy | None = None,
                 trigger: Trigger | None = None,
                 ordered: bool = False,
                 max_mode: int = 2,
                 max_region_pages: int | None = None,
                 result_cache_partitions: int = _DEFAULT_RESULT_CACHE_PARTITIONS,
                 result_cache_memory_limit: int | None = None):
        if max_mode not in (1, 2):
            raise PlanningError(f"max_mode must be 1 or 2, got {max_mode}")
        self.table = table
        self.column = column
        self.index = table.index_on(column)
        self.key_range = key_range or KeyRange.all()
        self.residual = residual or TruePredicate()
        require_columns(table.schema, self.residual)
        self.policy = policy or ElasticPolicy()
        self.trigger = trigger or EagerTrigger()
        self.ordered = ordered
        self.max_mode = max_mode
        self.max_region_pages = max_region_pages
        self.result_cache_partitions = result_cache_partitions
        self.result_cache_memory_limit = result_cache_memory_limit
        self.schema = table.schema
        #: Statistics of the most recent execution.
        self.last_stats: SmoothScanStats | None = None

    def name(self) -> str:
        return (
            f"SmoothScan({self.table.name}.{self.column}, "
            f"policy={self.policy.name}, trigger={self.trigger.name}, "
            f"{'ordered' if self.ordered else 'unordered'})"
        )

    # -- shared setup ------------------------------------------------------

    def _prepare(self, ctx: ExecutionContext) -> _RunState:
        """Build the caches, stats and policy state for one execution."""
        heap = self.table.heap
        stats = SmoothScanStats()
        self.last_stats = stats

        col_pos = self.schema.index_of(self.column)

        page_cache = PageIdCache(heap.num_pages)
        stats.page_cache_bytes = page_cache.memory_bytes

        tuple_cache: TupleIdCache | None = None
        if not self.trigger.eager:
            tuple_cache = TupleIdCache(heap.num_pages, heap.tuples_per_page)
            stats.tuple_cache_bytes = tuple_cache.memory_bytes

        result_cache: ResultCache | None = None
        if self.ordered:
            key_size = self.schema.columns[col_pos].byte_size
            entry_bytes = (
                self.schema.tuple_size(ctx.config.tuple_header) + key_size
            )
            result_cache = ResultCache(
                separators=self.index.root_key_separators(
                    self.result_cache_partitions
                ),
                bytes_per_entry=entry_bytes,
                memory_limit_bytes=self.result_cache_memory_limit,
                page_bytes=ctx.config.page_size,
            )
            stats.result_cache = result_cache.stats

        max_region = self.max_region_pages or ctx.config.max_region_pages
        if self.max_mode == 1:
            max_region = 1
        tracer = ctx.runtime.tracer
        tracer.emit(
            "morph.start", query_id=tracer.current_query_id,
            policy=self.policy.name, trigger=self.trigger.name,
            ordered=self.ordered, max_mode=self.max_mode,
            heap_pages=heap.num_pages,
        )
        return _RunState(
            stats=stats,
            page_cache=page_cache,
            tuple_cache=tuple_cache,
            result_cache=result_cache,
            policy=self.policy,
            max_region=max_region,
            col_pos=col_pos,
            names=self.schema.column_names,
        )

    # -- execution ---------------------------------------------------------

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        heap = self.table.heap
        state = self._prepare(ctx)
        stats = state.stats
        page_cache = state.page_cache
        tuple_cache = state.tuple_cache
        result_cache = state.result_cache
        policy = state.policy
        max_region = state.max_region
        col_pos = state.col_pos

        residual_fn = self.residual.bind(self.schema)
        qualify = range_selector(self.key_range, col_pos)
        residual_sel = (
            None if isinstance(self.residual, TruePredicate)
            else self.residual.bind_batch(self.schema)
        )
        # With no auxiliary cache consuming TIDs (eager + unordered, the
        # common case) page probing needs no slot positions — run fully
        # columnar: one key-range mask plus one residual mask per page
        # chunk, narrowing by selection vector without touching a row.
        fast_filter = None
        fast_mask = None
        if state.tuple_cache is None and state.result_cache is None:
            qualify_chunk = range_chunk_filter(self.key_range, col_pos)
            qualify_mask = range_mask(self.key_range, col_pos)
            if isinstance(self.residual, TruePredicate):
                fast_filter = qualify_chunk
                fast_mask = qualify_mask
            else:
                residual_chunk = self.residual.bind_chunk(self.schema)
                residual_mask = self.residual.bind_mask(self.schema)

                def fast_filter(chunk, _q=qualify_chunk, _r=residual_chunk):
                    kept = _q(chunk)
                    return None if kept is None else _r(kept)

                def fast_mask(chunk, _q=qualify_mask, _r=residual_mask):
                    return mask_and(_q(chunk), _r(chunk))

        tracer = ctx.runtime.tracer
        region = policy.initial_region()
        mode0_active = not self.trigger.eager
        flattened = False
        pages_res_global = 0
        pages_seen_smooth = 0
        num_pages = heap.num_pages
        is_seen = page_cache.is_seen

        # In the columnar config ``pending`` accumulates chunk parts (one
        # per qualifying page run), concatenated at flush; otherwise it
        # accumulates rows, wrapped as one chunk at flush.
        columnar = fast_filter is not None
        names = state.names
        pending: list = []
        # Rows held in ``pending`` as a running count, maintained where
        # ``_emit_run`` fills it: at low selectivity one tiny chunk part
        # lands per page, and re-summing the parts on every flush check
        # would go quadratic.  Only the columnar config reads it — there
        # ``_emit_run`` is the sole writer of ``pending``.
        pending_rows = 0

        def pending_size() -> int:
            return pending_rows if columnar else len(pending)

        def as_batch(parts: list) -> Chunk:
            return Chunk.concat(parts) if columnar \
                else Chunk.from_rows(names, parts)

        # Hot-loop bookkeeping kept in locals: the probe ordinal and the
        # per-batch count of Page-ID-cache probes (charged in bulk per
        # leaf batch).  Invariant: ``stats.probes = probes`` must run
        # immediately before every yield — a generator can only be
        # abandoned while suspended at a yield, so this keeps reported
        # internals current even under early termination (e.g. Limit).
        probes = 0
        rng = self.key_range

        def probe_region(tid: TID) -> Iterator[Chunk]:
            """Fetch/process the morphing region at ``tid``, yield flushes.

            Shared by the scalar and vectorized probe loops; updates the
            enclosing execution state (pending output, region size and
            the selectivity accounting) in place.
            """
            nonlocal pending, pending_rows, region, pages_res_global
            nonlocal pages_seen_smooth
            nonlocal flattened
            start = tid.page_id
            end = min(num_pages, start + region)
            region_pages = 0
            run_start: int | None = None
            for pid in range(start, end):
                if is_seen(pid):
                    if run_start is not None:
                        pending_rows += self._emit_run(
                            ctx, heap, run_start, pid - run_start,
                            state, qualify, residual_sel,
                            fast_filter, fast_mask, tid, pending,
                        )
                        if pending_size() >= DEFAULT_BATCH_SIZE:
                            stats.probes = probes
                            yield as_batch(pending)
                            pending = []
                            pending_rows = 0
                        region_pages += pid - run_start
                        run_start = None
                    continue
                if run_start is None:
                    run_start = pid
            if run_start is not None:
                pending_rows += self._emit_run(
                    ctx, heap, run_start, end - run_start,
                    state, qualify, residual_sel,
                    fast_filter, fast_mask, tid, pending,
                )
                region_pages += end - run_start
            if pending_size() >= DEFAULT_BATCH_SIZE:
                stats.probes = probes
                yield as_batch(pending)
                pending = []
                pending_rows = 0

            region_pages_res = stats.pages_with_results - pages_res_global
            pages_res_global = stats.pages_with_results
            pages_seen_smooth += region_pages

            # ---- Policy update (Eqs. (1) and (2)).
            if region_pages > 0 and pages_seen_smooth > 0:
                local_sel = region_pages_res / region_pages
                global_sel = pages_res_global / pages_seen_smooth
                region = min(
                    max_region,
                    max(1, policy.next_region(
                        region, local_sel, global_sel)),
                )
                stats.probes = probes
                stats.region_trace.append((probes, region))
                if region > stats.max_region_used:
                    stats.max_region_used = region
                if region > 1 and not flattened:
                    # Mode 1 → Mode 2: the region first grew past one
                    # page, with the selectivities that drove it.
                    flattened = True
                    tracer.emit(
                        "morph.flatten",
                        query_id=tracer.current_query_id,
                        value=float(region),
                        local_selectivity=local_sel,
                        global_selectivity=global_sel,
                    )

        # ---- Vectorized probe loop: with no auxiliary cache (and hence
        # no Mode 0 — non-eager triggers always build a Tuple ID cache),
        # each index entry reduces to one Page-ID-cache check.  Test a
        # whole leaf of packed codes against a live view of the cache
        # bitmap and jump straight to the next unseen page, recomputing
        # the seen mask only after each region fetch flips bits.
        seen_bits = page_cache.seen_view() if columnar else None
        code_batches = None
        if seen_bits is not None:
            code_batches = self.index.scan_code_batches(
                ctx, lo=rng.lo, hi=rng.hi,
                lo_inclusive=rng.lo_inclusive,
                hi_inclusive=rng.hi_inclusive,
            )
        if code_batches is not None:
            for codes in code_batches:
                n = len(codes)
                pages = codes >> TID_SHIFT
                page_checks = 0
                j = 0
                while j < n:
                    sub = pages[j:]
                    seen = (seen_bits[sub >> 3] >> (sub & 7)) & 1
                    hits = _np.flatnonzero(seen == 0)
                    if not hits.size:
                        probes += n - j
                        page_checks += n - j
                        break
                    k = j + int(hits[0])
                    probes += k - j + 1
                    page_checks += k - j + 1
                    code = int(codes[k])
                    yield from probe_region(
                        TID(code >> TID_SHIFT, code & SLOT_MASK)
                    )
                    j = k + 1
                if page_checks:
                    ctx.charge_cache_probe(page_checks)
        else:
            for keys, tids in self.index.scan_batches(
                ctx, lo=rng.lo, hi=rng.hi,
                lo_inclusive=rng.lo_inclusive,
                hi_inclusive=rng.hi_inclusive,
            ):
                page_checks = 0
                for j in range(len(keys)):
                    tid = tids[j]
                    probes += 1

                    # ---- Mode 0: per-probe random fetches until the
                    # trigger fires; inherently tuple-at-a-time.
                    if mode0_active:
                        page = ctx.get_page(heap, tid.page_id)
                        stats.mode0_page_fetches += 1
                        ctx.charge_inspect()
                        row = page.get(tid.slot)
                        if residual_fn(row):
                            stats.mode0_tuples += 1
                            stats.produced += 1
                            assert tuple_cache is not None
                            tuple_cache.add(tid)
                            ctx.charge_cache_insert()
                            ctx.charge_emit()
                            pending.append(row)
                            if len(pending) >= DEFAULT_BATCH_SIZE:
                                stats.probes = probes
                                yield as_batch(pending)
                                pending = []
                        if self.trigger.should_morph(stats.produced):
                            mode0_active = False
                            stats.morphed_at = stats.produced
                            tracer.emit(
                                "morph.trigger",
                                query_id=tracer.current_query_id,
                                value=float(stats.produced),
                                probes=probes, trigger=self.trigger.name,
                            )
                            override = self.trigger.post_morph_policy()
                            if override is not None:
                                policy = override
                        continue

                    # ---- Smooth modes: Result Cache first (ordered
                    # only) ...
                    if result_cache is not None:
                        key = keys[j]
                        result_cache.advance(key)
                        ctx.charge_cache_probe()
                        cached = result_cache.take(key, tid, disk=ctx.disk)
                        if cached is not None:
                            stats.produced += 1
                            ctx.charge_emit()
                            pending.append(cached)
                            if len(pending) >= DEFAULT_BATCH_SIZE:
                                stats.probes = probes
                                yield as_batch(pending)
                                pending = []
                            continue

                    # ---- ... then the Page ID cache check.
                    page_checks += 1
                    if is_seen(tid.page_id):
                        continue

                    # ---- Fetch and process the morphing region, emitting
                    # each contiguous run of unseen pages as one batch.
                    yield from probe_region(tid)
                if page_checks:
                    ctx.charge_cache_probe(page_checks)

        # Both probe loops end here.  An abandoned scan (e.g. under a
        # Limit) never gets this far, so it emits no morph.finish.
        stats.probes = probes
        if pending:
            yield as_batch(pending)
        tracer.emit(
            "morph.finish", query_id=tracer.current_query_id,
            value=float(stats.pages_fetched),
            pages_fetched=stats.pages_fetched, produced=stats.produced,
            probes=stats.probes, max_region=stats.max_region_used,
            morphed_at=stats.morphed_at,
        )

    def _emit_run(self, ctx: ExecutionContext, heap, run_start: int,
                  run_len: int, state: _RunState, qualify, residual_sel,
                  fast_filter, fast_mask, probe_tid: TID,
                  out: list[Row]) -> int:
        """Vectorized run probe: append the run's output to ``out``.

        Fetches one contiguous run of unseen pages, filters each whole
        page through the compiled key-range/residual selectors, and
        appends produced rows (parking the rest in the Result Cache when
        an order must be preserved).  With ``fast_filter`` set (no
        auxiliary cache consumes TIDs) the page's cached columnar chunk
        is narrowed by mask instead — ``out`` then accumulates chunk
        parts, not rows — and multi-page runs evaluate ``fast_mask``
        once over the heap's cached run chunk, recovering the per-page
        statistics with one segmented reduction.  Charges, per fetched
        page, one Page-ID-cache insert and an inspection per tuple; per
        qualifying tuple, a Tuple-ID-cache probe (non-eager triggers) and
        an emission or a Result Cache insert.  Returns the number of
        rows appended (every appended row is also counted as produced).
        """
        stats = state.stats
        produced_before = stats.produced
        page_cache = state.page_cache
        tuple_cache = state.tuple_cache
        result_cache = state.result_cache
        col_pos = state.col_pos
        probe_page, probe_slot = probe_tid

        if fast_filter is not None:
            mark = page_cache.mark
            names = state.names
            if fast_mask is not None and _np is not None and run_len > 1:
                lens = []
                for page in ctx.get_run(heap, run_start, run_len):
                    mark(page.page_id)
                    ctx.charge_cache_insert()
                    stats.pages_fetched += 1
                    ctx.charge_inspect(len(page))
                    lens.append(len(page))
                merged = heap.run_chunk(run_start, run_len, names)
                mask = fast_mask(merged)
                if mask is None:
                    # Every row in the run qualifies.
                    stats.pages_with_results += run_len
                    stats.produced += len(merged)
                    ctx.charge_emit(len(merged))
                    out.append(merged)
                    return stats.produced - produced_before
                if isinstance(mask, _np.ndarray):
                    offsets = [0]
                    for n in lens[:-1]:
                        offsets.append(offsets[-1] + n)
                    counts = _np.add.reduceat(
                        mask.astype(_np.int64), offsets
                    )
                    total = int(counts.sum())
                    if total:
                        stats.pages_with_results += int((counts > 0).sum())
                        stats.produced += total
                        ctx.charge_emit(total)
                        out.append(merged.filter(mask))
                    return stats.produced - produced_before
                # Object-column mask (list): per-page fallback below,
                # minus the charges already paid for the fetched run.
                for page in heap.iter_run(run_start, run_len):
                    matched = fast_filter(page.chunk(names))
                    if matched is not None:
                        stats.pages_with_results += 1
                        stats.produced += len(matched)
                        ctx.charge_emit(len(matched))
                        out.append(matched)
                return stats.produced - produced_before
            for page in ctx.get_run(heap, run_start, run_len):
                mark(page.page_id)
                ctx.charge_cache_insert()
                stats.pages_fetched += 1
                chunk = page.chunk(names)
                ctx.charge_inspect(len(chunk))
                matched = fast_filter(chunk)
                if matched is not None:
                    stats.pages_with_results += 1
                    stats.produced += len(matched)
                    ctx.charge_emit(len(matched))
                    out.append(matched)
            return stats.produced - produced_before

        for page in ctx.get_run(heap, run_start, run_len):
            pid = page.page_id
            page_cache.mark(pid)
            ctx.charge_cache_insert()
            stats.pages_fetched += 1
            rows = page.all_rows()
            ctx.charge_inspect(len(rows))
            sel = qualify(rows)
            if sel and residual_sel is not None:
                sel = residual_sel(rows, sel)
            if not sel:
                continue
            stats.pages_with_results += 1
            if tuple_cache is not None:
                # Fig. 7b's post-morph overhead: a produced-tuple check
                # for every qualifying tuple found by Smooth Scan.
                ctx.charge_cache_probe(len(sel))
                contains = tuple_cache.contains
                sel = [i for i in sel if not contains(TID(pid, i))]
                if not sel:
                    continue
            if result_cache is None:
                stats.produced += len(sel)
                ctx.charge_emit(len(sel))
                out += [rows[i] for i in sel]
            else:
                insert = result_cache.insert
                for i in sel:
                    if pid == probe_page and i == probe_slot:
                        stats.produced += 1
                        ctx.charge_emit()
                        out.append(rows[i])
                    else:
                        row = rows[i]
                        ctx.charge_cache_insert()
                        insert(row[col_pos], (pid, i), row, disk=ctx.disk)
        return stats.produced - produced_before
