"""The morphable join sketched in Section IV-B (extension).

"By performing caching of additional (qualifying) tuples from the inner
input found along the way (i.e., for each page we fetch, we put the
remaining tuples in the cache), INLJ morphs into a variant of Hash Join
over time, with the index used only when a tuple is not found in the
cache."

:class:`MorphingIndexJoin` implements exactly that: every inner heap page
it fetches is probed entirely and *all* its tuples are parked in an
in-memory Tuple Cache keyed by join key; each outer row probes the cache
first and falls back to the index only on a miss (and only for keys whose
pages have not all been seen — tracked with the same Page ID cache Smooth
Scan uses).  With enough key repetition in the outer input the operator
converges to hash-join behaviour: index descents stop, heap pages are
read at most once.

The paper leaves this operator as future work and does not evaluate it;
it is provided as an extension, exercised by its own tests and an
ablation benchmark, and is not used by the reproduction experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.context import ExecutionContext
from repro.core.caches import PageIdCache
from repro.exec.expressions import Predicate, TruePredicate
from repro.exec.iterator import Chunk, Operator
from repro.exec.joins import _joined_schema
from repro.storage.table import Table
from repro.storage.types import Row


@dataclass
class MorphJoinStats:
    """Instrumentation of one MorphingIndexJoin execution."""

    outer_rows: int = 0
    cache_hits: int = 0
    index_probes: int = 0
    pages_fetched: int = 0
    emitted: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Probes served from the Tuple Cache / all outer probes."""
        total = self.cache_hits + self.index_probes
        return self.cache_hits / total if total else 0.0


class MorphingIndexJoin(Operator):
    """INLJ that morphs toward a hash join via inner-tuple caching.

    Args:
        outer: outer input operator.
        inner_table: inner table with an index on ``inner_column``.
        inner_column: the join column on the inner side.
        outer_key: the join column on the outer side.
        residual: optional predicate over the joined schema.
    """

    def __init__(self, outer: Operator, inner_table: Table,
                 inner_column: str, outer_key: str,
                 residual: Predicate | None = None):
        self.outer = outer
        self.inner_table = inner_table
        self.inner_column = inner_column
        self.index = inner_table.index_on(inner_column)
        self.outer_pos = outer.schema.index_of(outer_key)
        self.inner_key_pos = inner_table.schema.index_of(inner_column)
        self.schema = _joined_schema(outer.schema, inner_table.schema)
        self.residual = residual or TruePredicate()
        #: Statistics of the most recent execution.
        self.last_stats: MorphJoinStats | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.outer,)

    def name(self) -> str:
        return f"MorphingIndexJoin({self.inner_table.name})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Probe the morphing cache one outer batch at a time."""
        heap = self.inner_table.heap
        stats = MorphJoinStats()
        self.last_stats = stats
        matches = self.residual.bind(self.schema)
        key_pos = self.inner_key_pos
        opos = self.outer_pos
        names = self.schema.column_names

        tuple_cache: dict[object, list[Row]] = {}
        page_cache = PageIdCache(heap.num_pages)
        #: Keys for which every pointing page has been processed — their
        #: cache entry is complete and the index never needs consulting.
        complete_keys: set[object] = set()
        cache_get = tuple_cache.get
        is_seen = page_cache.is_seen

        for obatch in self.outer.batches(ctx):
            stats.outer_rows += len(obatch)
            ctx.charge_cache_probe(len(obatch))
            out: list[Row] = []
            for orow in obatch.to_rows():
                key = orow[opos]
                if key in complete_keys:
                    stats.cache_hits += 1
                    inner_rows = cache_get(key, ())
                else:
                    # Index consulted only for not-yet-complete keys.
                    stats.index_probes += 1
                    for tid in self.index.lookup(ctx, key):
                        if not is_seen(tid.page_id):
                            self._absorb_page(
                                ctx, ctx.get_page(heap, tid.page_id),
                                tuple_cache, page_cache, key_pos, stats,
                            )
                    complete_keys.add(key)
                    inner_rows = cache_get(key, ())
                if not inner_rows:
                    continue
                ctx.charge_inspect(len(inner_rows))
                for irow in inner_rows:
                    joined = orow + irow
                    if matches(joined):
                        stats.emitted += 1
                        ctx.charge_emit()
                        out.append(joined)
            if out:
                yield Chunk.from_rows(names, out)

    @staticmethod
    def _absorb_page(ctx: ExecutionContext, page, tuple_cache: dict,
                     page_cache: PageIdCache, key_pos: int,
                     stats: MorphJoinStats) -> None:
        """Cache every tuple of a fetched inner page (the morph)."""
        page_cache.mark(page.page_id)
        stats.pages_fetched += 1
        rows = page.all_rows()
        ctx.charge_inspect(len(rows))
        ctx.charge_cache_insert(len(rows))
        setdefault = tuple_cache.setdefault
        for row in rows:
            setdefault(row[key_pos], []).append(row)
