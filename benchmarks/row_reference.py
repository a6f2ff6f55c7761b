"""Tuple-at-a-time reference drain for the batch-throughput guardrail.

The engine executes one protocol, ``batches()`` over chunks.  The
guardrail in ``test_batch_throughput.py`` asserts that this protocol beats
classic Volcano row-at-a-time execution by at least 5x over the fig5
sweep, so the comparator lives here: a copy of the row generators the
engine's Full Scan, Sort Scan and Smooth Scan used to implement, limited
to the plans :func:`~repro.experiments.common.access_path_plan` builds for
the sweep (no ORDER BY: Full and Sort Scan without a posterior sort, and
an eager, unordered Smooth Scan).  The copies charge every simulated cost
exactly as the engine's batch path does, and the guardrail asserts it, so
the two drains differ only in Python-side overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.bench.reporting import format_table
from repro.context import ExecutionContext
from repro.core.smooth_scan import SmoothScan
from repro.exec.iterator import Operator
from repro.exec.scans import FullTableScan, SortScan, _contiguous_runs, _nlogn
from repro.exec.stats import count_rows
from repro.experiments.batch_bench import BatchBenchResult, timed_drain
from repro.experiments.common import MicroSetup, access_path_plan
from repro.storage.types import Row, TID


def _full_scan_rows(scan: FullTableScan,
                    ctx: ExecutionContext) -> Iterator[Row]:
    heap = scan.table.heap
    matches = scan.predicate.bind(scan.schema)
    extent = ctx.config.extent_pages
    for start in range(0, heap.num_pages, extent):
        n = min(extent, heap.num_pages - start)
        for page in ctx.get_run(heap, start, n):
            ctx.charge_inspect(len(page))
            for row in page:
                if matches(row):
                    ctx.charge_emit()
                    yield row


def _sort_scan_rows(scan: SortScan, ctx: ExecutionContext) -> Iterator[Row]:
    heap = scan.table.heap
    matches = scan.residual.bind(scan.schema)
    rng = scan.key_range

    # Phase 1: collect qualifying TIDs from the index, then pre-sort
    # them by heap placement (page, slot).
    tids: list[TID] = [
        tid for _key, tid in scan.index.scan(
            ctx, lo=rng.lo, hi=rng.hi,
            lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
        )
    ]
    if not tids:
        return
    tids.sort()
    ctx.charge_compare(_nlogn(len(tids)))

    # Phase 2: walk pages in ascending order, fetching each once.
    # Contiguous page spans are fetched as runs (read-ahead batching).
    pages: dict[int, list[int]] = {}
    for tid in tids:
        pages.setdefault(tid.page_id, []).append(tid.slot)
    page_ids = sorted(pages)
    for run_start, run_len in _contiguous_runs(page_ids):
        for page in ctx.get_run(heap, run_start, run_len):
            for slot in pages[page.page_id]:
                ctx.charge_inspect()
                row = page.get(slot)
                if matches(row):
                    ctx.charge_emit()
                    yield row


def _smooth_scan_rows(scan: SmoothScan,
                      ctx: ExecutionContext) -> Iterator[Row]:
    """The eager, unordered subset: no Mode 0, no Tuple ID / Result Cache."""
    if not scan.trigger.eager or scan.ordered:
        raise ValueError("the reference drain covers eager, unordered "
                         "Smooth Scans only")
    heap = scan.table.heap
    state = scan._prepare(ctx)
    stats = state.stats
    page_cache = state.page_cache
    policy = state.policy
    max_region = state.max_region
    col_pos = state.col_pos
    residual_fn = scan.residual.bind(scan.schema)
    in_range = scan.key_range.contains
    tracer = ctx.runtime.tracer

    region = policy.initial_region()
    flattened = False
    pages_res_global = 0
    pages_seen_smooth = 0

    def process_run(run_start: int, run_len: int) -> Iterator[Row]:
        """Fetch one contiguous run of unseen pages and probe them fully."""
        for page in ctx.get_run(heap, run_start, run_len):
            page_cache.mark(page.page_id)
            ctx.charge_cache_insert()
            stats.pages_fetched += 1
            ctx.charge_inspect(len(page))
            page_has_result = False
            for slot, row in page.rows_with_slots():
                key = row[col_pos]
                if not in_range(key) or not residual_fn(row):
                    continue
                page_has_result = True
                # The full operator keyed its caches by this TID; the
                # subset keeps building it so the per-tuple work matches.
                TID(page.page_id, slot)
                stats.produced += 1
                ctx.charge_emit()
                yield row
            if page_has_result:
                stats.pages_with_results += 1

    rng = scan.key_range
    for _key, tid in scan.index.scan(
        ctx, lo=rng.lo, hi=rng.hi,
        lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
    ):
        stats.probes += 1
        ctx.charge_cache_probe()
        if page_cache.is_seen(tid.page_id):
            continue

        # Fetch and process the morphing region.
        start = tid.page_id
        end = min(heap.num_pages, start + region)
        region_pages = 0
        run_start: int | None = None
        for pid in range(start, end):
            if page_cache.is_seen(pid):
                if run_start is not None:
                    yield from process_run(run_start, pid - run_start)
                    region_pages += pid - run_start
                    run_start = None
                continue
            if run_start is None:
                run_start = pid
        if run_start is not None:
            yield from process_run(run_start, end - run_start)
            region_pages += end - run_start

        region_pages_res = stats.pages_with_results - pages_res_global
        pages_res_global = stats.pages_with_results
        pages_seen_smooth += region_pages

        # Policy update (Eqs. (1) and (2)).
        if region_pages > 0 and pages_seen_smooth > 0:
            local_sel = region_pages_res / region_pages
            global_sel = pages_res_global / pages_seen_smooth
            region = min(
                max_region,
                max(1, policy.next_region(region, local_sel, global_sel)),
            )
            stats.region_trace.append((stats.probes, region))
            if region > stats.max_region_used:
                stats.max_region_used = region
            if region > 1 and not flattened:
                flattened = True
                tracer.emit(
                    "morph.flatten", query_id=tracer.current_query_id,
                    value=float(region), local_selectivity=local_sel,
                    global_selectivity=global_sel,
                )
    tracer.emit(
        "morph.finish", query_id=tracer.current_query_id,
        value=float(stats.pages_fetched),
        pages_fetched=stats.pages_fetched, produced=stats.produced,
        probes=stats.probes, max_region=stats.max_region_used,
        morphed_at=stats.morphed_at,
    )


_REFERENCE = {
    FullTableScan: _full_scan_rows,
    SortScan: _sort_scan_rows,
    SmoothScan: _smooth_scan_rows,
}


def reference_rows(plan: Operator, ctx: ExecutionContext) -> Iterator[Row]:
    """Execute ``plan`` tuple-at-a-time with the reference generators."""
    return _REFERENCE[type(plan)](plan, ctx)


@dataclass
class RowVsBatchResult:
    """Reference row drain vs. engine batch drain, per fig5 plan."""

    batch: BatchBenchResult
    row_tuples: list[int] = field(default_factory=list)
    row_seconds: list[float] = field(default_factory=list)
    row_io_ms: list[float] = field(default_factory=list)
    row_cpu_ms: list[float] = field(default_factory=list)

    @property
    def overall_speedup(self) -> float:
        """Total-tuples-over-total-time ratio of the two drains."""
        row_total = sum(self.row_seconds)
        batch_total = sum(self.batch.batch_seconds)
        if batch_total <= 0:
            return float("inf")
        return row_total / batch_total

    def wallclock_report(self) -> str:
        """The noisy table: wall-clock throughput of both drains."""
        headers = ["plan", "tuples", "row_s", "batch_s",
                   "row_ktps", "batch_ktps", "speedup"]
        table = []
        batch = self.batch
        for i, label in enumerate(batch.labels):
            row_s, batch_s = self.row_seconds[i], batch.batch_seconds[i]
            n = batch.tuples[i]
            table.append([
                label, n, row_s, batch_s,
                n / row_s / 1e3 if row_s > 0 else None,
                n / batch_s / 1e3 if batch_s > 0 else None,
                row_s / batch_s if batch_s > 0 else None,
            ])
        row_total = sum(self.row_seconds)
        batch_total = sum(batch.batch_seconds)
        n = batch.total_tuples
        table.append([
            "OVERALL", n, row_total, batch_total,
            n / row_total / 1e3 if row_total > 0 else None,
            n / batch_total / 1e3 if batch_total > 0 else None,
            self.overall_speedup,
        ])
        return format_table(
            headers, table,
            title=("Batch vs. row execution — wall-clock throughput, "
                   "fig5 selectivity sweep (row = reference drain)"),
        )


def run_row_reference(setup: MicroSetup, batch: BatchBenchResult,
                      repeats: int = 2) -> RowVsBatchResult:
    """Drain every plan of ``batch`` through the reference generators."""
    result = RowVsBatchResult(batch=batch)
    for path, sel in batch.plans:
        best = float("inf")
        count = 0
        io_ms = cpu_ms = 0.0
        for _ in range(max(1, repeats)):
            plan = access_path_plan(path, setup.table, sel)
            count, secs, io_ms, cpu_ms = timed_drain(
                setup.db,
                lambda ctx, plan=plan: count_rows(reference_rows(plan, ctx)),
            )
            best = min(best, secs)
        result.row_tuples.append(count)
        result.row_seconds.append(best)
        result.row_io_ms.append(io_ms)
        result.row_cpu_ms.append(cpu_ms)
    return result
