"""Join operators: hash, merge, (block) nested-loop, and index nested-loop.

The index nested-loop join supports two inner access modes: ``classic``
(one random heap fetch per matching TID — PostgreSQL's parameterized index
path) and ``smooth`` (Section IV-B: morphing per join key — deduplicate
heap pages per key, fetch each page once, probe it entirely, and batch
adjacent pages into runs).  With single-match keys the two coincide, which
is exactly what the paper observes for the PK look-ups of Q4/Q14.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.context import ExecutionContext
from repro.errors import PlanningError
from repro.exec.expressions import Predicate, TruePredicate
from repro.exec.iterator import Chunk, DEFAULT_BATCH_SIZE, Operator
from repro.storage.table import Table
from repro.storage.types import Row, Schema


def _joined_schema(left: Schema, right: Schema) -> Schema:
    """Concatenate schemas; column names must stay unique."""
    columns = list(left.columns) + list(right.columns)
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise PlanningError(
            f"joined schema would duplicate column names: {names}"
        )
    return Schema(columns)


class HashJoin(Operator):
    """Equi-join; builds a hash table on the right child, streams the left.

    ``join_type`` selects the SQL semantics:

    * ``"inner"`` — emit ``left + right`` per match (the default);
    * ``"left"`` — unmatched left rows are emitted padded with ``None``;
    * ``"semi"`` — emit each left row at most once if any match exists;
    * ``"anti"`` — emit each left row only if *no* match exists.

    Semi/anti joins output the left schema only (they implement EXISTS /
    NOT EXISTS subqueries, e.g. TPC-H Q4 and Q22).
    """

    def __init__(self, left: Operator, right: Operator,
                 left_keys: Sequence[str], right_keys: Sequence[str],
                 join_type: str = "inner"):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanningError("HashJoin needs matching non-empty key lists")
        if join_type not in ("inner", "left", "semi", "anti"):
            raise PlanningError(f"unknown join_type {join_type!r}")
        self.left = left
        self.right = right
        self.join_type = join_type
        self.left_positions = [left.schema.index_of(k) for k in left_keys]
        self.right_positions = [right.schema.index_of(k) for k in right_keys]
        if join_type in ("semi", "anti"):
            self.schema = left.schema
        else:
            self.schema = _joined_schema(left.schema, right.schema)

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def name(self) -> str:
        return f"HashJoin({self.join_type})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Probe the hash table one left batch at a time.

        Single-key probes read the key column once (``column_values``)
        instead of building a key tuple per row, and semi/anti joins
        narrow the chunk by selection vector — their output stays
        columnar with zero row materialization.
        """
        table = self._build(ctx)
        lpos = self.left_positions
        pad = (None,) * len(self.right.schema)
        join_type = self.join_type
        names = self.schema.column_names
        get = table.get
        single = len(lpos) == 1
        lp0 = lpos[0]
        for batch in self.left.batches(ctx):
            ctx.charge_hash(len(batch))
            if single:
                found = [get((k,)) for k in batch.column_values(lp0)]
            else:
                found = [get(tuple(row[p] for p in lpos))
                         for row in batch.to_rows()]
            if join_type in ("semi", "anti"):
                want = join_type == "semi"
                sel = [i for i, m in enumerate(found) if bool(m) == want]
                if sel:
                    kept = batch if len(sel) == len(batch) \
                        else batch.take(sel)
                    ctx.charge_emit(len(kept))
                    yield kept
                continue
            out = []
            for row, matches in zip(batch.to_rows(), found, strict=False):
                if matches:
                    out += [row + match for match in matches]
                elif join_type == "left":
                    out.append(row + pad)
            if out:
                ctx.charge_emit(len(out))
                yield Chunk.from_rows(names, out)

    def _build(self, ctx: ExecutionContext) -> dict[tuple, list[Row]]:
        """Materialize the right child into the join hash table."""
        table: dict[tuple, list[Row]] = {}
        rpos = self.right_positions
        single = len(rpos) == 1
        rp0 = rpos[0]
        for batch in self.right.batches(ctx):
            ctx.charge_hash(len(batch))
            if single:
                for k, row in zip(batch.column_values(rp0),
                                  batch.to_rows(), strict=False):
                    table.setdefault((k,), []).append(row)
            else:
                for row in batch.to_rows():
                    table.setdefault(
                        tuple(row[p] for p in rpos), []
                    ).append(row)
        return table


class MergeJoin(Operator):
    """Equi-join of two inputs already sorted on their join keys.

    The operator trusts its inputs' ordering — the planner is responsible
    for placing sorts (or key-ordered access paths such as an index scan
    or an ordered Smooth Scan) underneath.
    """

    def __init__(self, left: Operator, right: Operator,
                 left_key: str, right_key: str):
        self.left = left
        self.right = right
        self.left_pos = left.schema.index_of(left_key)
        self.right_pos = right.schema.index_of(right_key)
        self.schema = _joined_schema(left.schema, right.schema)

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def name(self) -> str:
        return "MergeJoin"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Merge the two row streams, flushing output rows per
        :data:`~repro.exec.iterator.DEFAULT_BATCH_SIZE`."""
        lpos, rpos = self.left_pos, self.right_pos
        names = self.schema.column_names
        out: list[Row] = []
        left_iter = self.left.rows(ctx)
        right_iter = self.right.rows(ctx)
        lrow = next(left_iter, None)
        rrow = next(right_iter, None)
        while lrow is not None and rrow is not None:
            ctx.charge_compare()
            lkey, rkey = lrow[lpos], rrow[rpos]
            if lkey < rkey:
                lrow = next(left_iter, None)
            elif lkey > rkey:
                rrow = next(right_iter, None)
            else:
                # Gather the full duplicate group on the right.
                group = [rrow]
                rrow = next(right_iter, None)
                while rrow is not None and rrow[rpos] == lkey:
                    group.append(rrow)
                    rrow = next(right_iter, None)
                while lrow is not None and lrow[lpos] == lkey:
                    for match in group:
                        ctx.charge_emit()
                        out.append(lrow + match)
                        if len(out) == DEFAULT_BATCH_SIZE:
                            yield Chunk.from_rows(names, out)
                            out = []
                    lrow = next(left_iter, None)
        if out:
            yield Chunk.from_rows(names, out)


class NestedLoopJoin(Operator):
    """Block nested-loop join with an arbitrary predicate (small inputs)."""

    def __init__(self, left: Operator, right: Operator,
                 predicate: Predicate | None = None):
        self.left = left
        self.right = right
        self.schema = _joined_schema(left.schema, right.schema)
        self.predicate = predicate or TruePredicate()

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def name(self) -> str:
        return "NestedLoopJoin"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Join one left batch against the materialized inner per step.

        Pairs are tested left-row-at-a-time so memory stays proportional
        to the *matching* output, never the raw cross product.
        """
        inner = self.right.collect(ctx)
        matches = self.predicate.bind(self.schema)
        names = self.schema.column_names
        for batch in self.left.batches(ctx):
            ctx.charge_inspect(len(batch) * len(inner))
            out = [
                joined
                for lrow in batch.to_rows()
                for rrow in inner
                if matches(joined := lrow + rrow)
            ]
            if out:
                ctx.charge_emit(len(out))
                yield Chunk.from_rows(names, out)


class IndexNestedLoopJoin(Operator):
    """INLJ: probe an index on the inner table for each outer row.

    ``inner_access='classic'`` fetches one heap page per matching TID —
    random I/O, repeated pages re-fetched.  ``inner_access='smooth'``
    applies Smooth Scan's per-key morphing (Section IV-B): TIDs of one key
    are grouped by page, each page is fetched once and probed entirely,
    and adjacent pages are batched into sequential runs.
    """

    def __init__(self, outer: Operator, inner_table: Table,
                 inner_column: str, outer_key: str,
                 residual: Predicate | None = None,
                 inner_access: str = "classic"):
        if inner_access not in ("classic", "smooth"):
            raise PlanningError(
                f"unknown inner_access {inner_access!r}; "
                "use 'classic' or 'smooth'"
            )
        self.outer = outer
        self.inner_table = inner_table
        self.inner_column = inner_column
        self.index = inner_table.index_on(inner_column)
        self.outer_pos = outer.schema.index_of(outer_key)
        self.inner_access = inner_access
        self.schema = _joined_schema(outer.schema, inner_table.schema)
        self.residual = residual or TruePredicate()

    def children(self) -> tuple[Operator, ...]:
        return (self.outer,)

    def name(self) -> str:
        return f"IndexNestedLoopJoin({self.inner_table.name}, {self.inner_access})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Probe the inner index one outer batch at a time."""
        matches = self.residual.bind(self.schema)
        names = self.schema.column_names
        heap = self.inner_table.heap
        opos = self.outer_pos
        inner_key_pos = self.inner_table.schema.index_of(self.inner_column)
        smooth = self.inner_access == "smooth"
        for batch in self.outer.batches(ctx):
            out: list[Row] = []
            for orow in batch.to_rows():
                key = orow[opos]
                tids = list(self.index.lookup(ctx, key))
                if not tids:
                    continue
                if smooth and len(tids) > 1:
                    out.extend(self._probe_smooth(
                        ctx, heap, orow, key, tids, inner_key_pos, matches
                    ))
                else:
                    for tid in tids:
                        page = ctx.get_page(heap, tid.page_id)
                        ctx.charge_inspect()
                        irow = page.get(tid.slot)
                        joined = orow + irow
                        if matches(joined):
                            ctx.charge_emit()
                            out.append(joined)
            if out:
                yield Chunk.from_rows(names, out)

    def _probe_smooth(self, ctx: ExecutionContext, heap, orow: Row,
                      key: object, tids, inner_key_pos: int,
                      matches) -> Iterator[Row]:
        """Per-key morphing: fetch each page once, probe it entirely."""
        page_ids = sorted({tid.page_id for tid in tids})
        from repro.exec.scans import _contiguous_runs  # shared helper
        for run_start, run_len in _contiguous_runs(page_ids):
            for page in ctx.get_run(heap, run_start, run_len):
                ctx.charge_inspect(len(page))
                for irow in page:
                    if irow[inner_key_pos] != key:
                        continue
                    joined = orow + irow
                    if matches(joined):
                        ctx.charge_emit()
                        yield joined
