"""The engine facade: tables, indexes, buffer pool and measured runs.

A :class:`Database` is the single entry point applications use: create
tables, load rows, build indexes, then run queries cold (the paper clears
all caches before each measured query).  One database owns one shared
:class:`~repro.runtime.EngineRuntime` — simulated clock, disk and buffer
pool plus the physical catalog — shared by every query it executes,
while each execution accounts its own costs in a private
:class:`~repro.runtime.CostLedger` (so concurrent cursors report
isolated measurements over the one contended substrate).

Queries come in two flavors:

* declarative — :meth:`Database.query` starts a fluent
  :class:`~repro.api.query.Query`; :meth:`Database.execute` lowers it
  through the cost-based planner (or "always Smooth Scan", §IV-B) and
  measures it.  This is the path applications should use.
* physical — hand-built operator trees executed via
  :func:`~repro.exec.stats.measure`, kept for experiments that pin exact
  plan shapes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.context import ExecutionContext
from repro.errors import StorageError
from repro.index.btree import BTreeIndex
from repro.runtime import EngineRuntime
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskProfile, SimClock, SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.table import Table
from repro.storage.types import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.query import Query
    from repro.api.result import QueryResult
    from repro.api.session import Connection
    from repro.optimizer.logical import QuerySpec
    from repro.optimizer.plan_cache import PlanCache
    from repro.optimizer.planner import PlannedQuery, PlannerOptions
    from repro.optimizer.statistics import StatisticsCatalog
    from repro.storage.sharding import ShardSet
    from repro.telemetry.tracer import Tracer

class Database:
    """An engine instance: configuration + shared runtime + accounting."""

    def __init__(self, config: EngineConfig | None = None,
                 profile: DiskProfile | None = None):
        self.config = config or DEFAULT_CONFIG
        self.profile = profile or DiskProfile.hdd()
        #: The shared physical substrate every query of this database
        #: contends on (clock, disk head, buffer pool, tables).
        self.runtime = EngineRuntime(self.config, self.profile)
        self._catalog: "StatisticsCatalog | None" = None
        self._catalog_version = 0
        self._plan_cache: "PlanCache | None" = None
        #: Shard catalog: logical table name -> its registered
        #: partitioning.  Shard tables live in ``_shard_tables``, NOT in
        #: ``runtime.tables`` — they are execution artifacts of their
        #: parent, invisible to FROM clauses and buffer auto-sizing.
        self._shard_sets: dict[str, "ShardSet"] = {}
        self._shard_tables: dict[str, Table] = {}
        #: Statements compiled (lexed+parsed+bound) against this
        #: database — the counter prepared-statement tests assert on.
        self.sql_compile_count = 0

    # -- shared-runtime delegation ------------------------------------------

    @property
    def clock(self) -> SimClock:
        """The shared simulated clock (owned by the runtime)."""
        return self.runtime.clock

    @property
    def disk(self) -> SimulatedDisk:
        """The shared simulated disk (owned by the runtime)."""
        return self.runtime.disk

    @property
    def buffer(self) -> BufferPool:
        """The shared buffer pool (owned by the runtime)."""
        return self.runtime.buffer

    @property
    def tables(self) -> dict[str, Table]:
        """The physical catalog of tables (owned by the runtime)."""
        return self.runtime.tables

    @property
    def tracer(self) -> "Tracer":
        """The structured trace layer (owned by the runtime, off by
        default; ``db.tracer.enable()`` starts buffering events)."""
        return self.runtime.tracer

    # -- schema operations --------------------------------------------------

    def _allocate_file_id(self) -> int:
        return self.runtime.allocate_file_id()

    def _register_table(self, name: str, schema: Schema) -> Table:
        """Create and register an empty table (no buffer autosizing)."""
        if name in self.tables:
            raise StorageError(f"table {name!r} already exists")
        tuple_size = schema.tuple_size(self.config.tuple_header)
        heap = HeapFile(
            file_id=self._allocate_file_id(),
            schema=schema,
            tuples_per_page=self.config.tuples_per_page(tuple_size),
        )
        table = Table(name, schema, heap)
        self.tables[name] = table
        return table

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create an empty table; raises StorageError on duplicates."""
        table = self._register_table(name, schema)
        self._autosize_buffer()
        self._bump_catalog_version()
        return table

    def load_table(self, name: str, schema: Schema,
                   rows: Iterable[Row]) -> Table:
        """Create a table and bulk-append ``rows`` (no I/O is charged).

        The buffer pool is autosized once, after the load, when the
        table's final page count is known.
        """
        table = self._register_table(name, schema)
        table.insert_many(rows)
        self._autosize_buffer()
        self._bump_catalog_version()
        return table

    def append_rows(self, name: str, rows: Iterable[Row]) -> int:
        """Append rows to an existing table (offline, no I/O charged).

        Indexes are maintained incrementally and the catalog version is
        bumped (statistics may now be stale), but the buffer pool is
        *not* re-autosized: a growing table must not silently change
        the cache geometry of runs in flight.  The telemetry warehouse
        syncs events through this path.
        """
        count = self.table(name).insert_many(rows)
        self._bump_catalog_version()
        return count

    def table(self, name: str) -> Table:
        """Look up a table by name.

        Falls back to the shard catalog (``{table}#{i}`` names), so the
        planner and operators resolve shard tables through the same
        call — shard names cannot reach here from SQL text (``#`` is
        not an identifier character).  The error names the missing
        table *and* lists the known ones — the difference between a
        typo hunt and a one-glance fix when the lookup comes from SQL
        text or the fluent API.
        """
        try:
            return self.tables[name]
        except KeyError:
            shard = self._shard_tables.get(name)
            if shard is not None:
                return shard
            known = ", ".join(sorted(self.tables)) or "(no tables loaded)"
            raise StorageError(
                f"no table named {name!r}; known tables: {known}"
            ) from None

    def shard_set(self, name: str) -> "ShardSet | None":
        """The registered partitioning of ``name``, or None."""
        return self._shard_sets.get(name)

    def shard_table(self, table_name: str, num_shards: int,
                    scheme: str = "round_robin",
                    column: str | None = None) -> "ShardSet":
        """Partition a table into ``num_shards`` physical shards.

        Offline DDL, like index builds: each shard gets its own heap
        file, secondary indexes on the same columns as the parent, and
        *fresh* statistics (shards are analyzed at partition time, so
        per-shard access-path decisions start accurate even when the
        parent's statistics are stale).  Re-sharding an already
        partitioned table replaces its shard set.  The parent table is
        untouched — serial plans keep running against it — and the
        buffer pool is not re-sized (shard-parallel runs contend on the
        unsharded cache geometry, keeping measurements comparable).

        ``scheme`` is ``"round_robin"`` (default) or ``"range"``; range
        partitioning splits on ``column`` (defaulting to the parent's
        first indexed column) at row-count-balanced boundaries.
        """
        from repro.storage.sharding import ShardSet, partition_rows, \
            shard_table_name
        table = self.table(table_name)
        if table_name in self._shard_tables:
            raise StorageError(
                f"cannot shard {table_name!r}: it is itself a shard"
            )
        if scheme == "range" and column is None:
            indexed = sorted(table.indexes)
            column = indexed[0] if indexed \
                else table.schema.column_names[0]
        buckets, bounds = partition_rows(table, num_shards, scheme,
                                         column if scheme == "range"
                                         else None)
        if table_name in self._shard_sets:
            self.unshard_table(table_name)
        shards = []
        tuple_size = table.schema.tuple_size(self.config.tuple_header)
        for i, rows in enumerate(buckets):
            heap = HeapFile(
                file_id=self._allocate_file_id(),
                schema=table.schema,
                tuples_per_page=self.config.tuples_per_page(tuple_size),
            )
            shard = Table(shard_table_name(table_name, i),
                          table.schema, heap)
            shard.insert_many(rows)
            for idx_column in sorted(table.indexes):
                shard.indexes[idx_column] = self._build_index(
                    shard, idx_column, f"{shard.name}_{idx_column}_idx")
            self._shard_tables[shard.name] = shard
            self.catalog.analyze(shard)
            shards.append(shard)
        shard_set = ShardSet(table_name=table_name, scheme=scheme,
                             column=column if scheme == "range" else None,
                             shards=tuple(shards), bounds=bounds)
        self._shard_sets[table_name] = shard_set
        self._bump_catalog_version()
        return shard_set

    def unshard_table(self, table_name: str) -> None:
        """Drop a table's shard set (and its shard tables).

        Raises StorageError when the table is not partitioned,
        symmetric with :meth:`drop_index`.
        """
        shard_set = self._shard_sets.pop(table_name, None)
        if shard_set is None:
            raise StorageError(
                f"table {table_name!r} is not partitioned"
            )
        for shard in shard_set.shards:
            self._shard_tables.pop(shard.name, None)
        self._bump_catalog_version()

    def create_index(self, table_name: str, column: str,
                     name: str | None = None) -> BTreeIndex:
        """Build a secondary B+-tree on ``column`` (offline, not timed).

        Raises StorageError when the column is already indexed — silently
        replacing would orphan the old index's file id in the buffer
        pool; drop it first to rebuild.
        """
        table = self.table(table_name)
        if table.has_index(column):
            raise StorageError(
                f"table {table_name!r} already has an index on "
                f"{column!r}; drop_index() it first to rebuild"
            )
        index = self._build_index(table, column,
                                  name or f"{table_name}_{column}_idx")
        table.indexes[column] = index
        self._bump_catalog_version()
        return index

    def _build_index(self, table: Table, column: str,
                     name: str) -> BTreeIndex:
        """Build, but do not register, a B+-tree on ``column`` of
        ``table``, bulk-loaded from the heap's column values and TID
        codes."""
        col_pos = table.schema.index_of(column)
        index = BTreeIndex(
            name=name,
            file_id=self._allocate_file_id(),
            key_size=table.schema.columns[col_pos].byte_size,
            page_size=self.config.page_size,
        )
        index.bulk_load(table.heap.column_values(col_pos),
                        table.heap.tid_codes())
        return index

    def drop_index(self, table_name: str, column: str) -> None:
        """Remove the secondary index on ``column``.

        Raises StorageError when no such index exists, symmetric with
        :meth:`table` and :meth:`create_index`.
        """
        table = self.table(table_name)
        if table.indexes.pop(column, None) is None:
            raise StorageError(
                f"table {table_name!r} has no index on {column!r}"
            )
        self._bump_catalog_version()

    # -- catalog versioning and the plan cache --------------------------

    @property
    def catalog_version(self) -> int:
        """A counter that moves whenever cached plans may be stale.

        Bumped by ``create_table`` / ``load_table`` / ``create_index`` /
        ``drop_index`` (what plans are *buildable* changed) and by
        ``analyze`` / ``use_catalog`` (what the optimizer would *choose*
        changed).  The plan cache invalidates entries planned under an
        older version, so a cache hit is always a plan the current
        catalog would still admit.
        """
        return self._catalog_version

    def _bump_catalog_version(self) -> None:
        self._catalog_version += 1

    @property
    def plan_cache(self) -> "PlanCache":
        """This database's plan cache (one, shared by every connection)."""
        if self._plan_cache is None:
            from repro.optimizer.plan_cache import PlanCache
            self._plan_cache = PlanCache(
                on_event=self.tracer.plan_cache_event
            )
        return self._plan_cache

    # -- sessions -------------------------------------------------------

    def connect(self, options: "PlannerOptions | None" = None,
                cold: bool = True) -> "Connection":
        """Open a PEP-249-flavored session on this database.

        The session layer is the serving surface: ``conn.cursor()``
        streams results; ``conn.prepare(sql)`` compiles once and
        re-executes with bind parameters through the plan cache.
        """
        from repro.api.session import Connection
        return Connection(self, options=options, cold=cold)

    # -- statistics -----------------------------------------------------

    @property
    def catalog(self) -> "StatisticsCatalog":
        """The database's statistics catalog (lazily created, may be
        empty — the planner falls back to the textbook magic defaults,
        exactly the statistics-oblivious regime the paper studies)."""
        if self._catalog is None:
            from repro.optimizer.statistics import StatisticsCatalog
            self._catalog = StatisticsCatalog()
        return self._catalog

    def use_catalog(self, catalog: "StatisticsCatalog") -> None:
        """Install an externally-built statistics catalog as this
        database's own.

        Experiment setups deliberately build *stale* catalogs (analyzed
        before late data arrived); installing one here makes every
        facade entry point (``query``, connections, ``plan``) plan against
        those wrong numbers — the regime the paper studies — without
        callers having to thread the catalog through each call.
        """
        self._catalog = catalog
        self._bump_catalog_version()

    def analyze(self, table_name: str | None = None,
                **kwargs) -> "StatisticsCatalog":
        """Collect statistics for one table (or all) into the catalog.

        Keyword arguments pass through to
        :meth:`~repro.optimizer.statistics.StatisticsCatalog.analyze`
        (sampling, prefix fractions — every way stats go stale).
        """
        tables = ([self.table(table_name)] if table_name is not None
                  else list(self.tables.values()))
        for table in tables:
            self.catalog.analyze(table, **kwargs)
        self._bump_catalog_version()
        return self.catalog

    # -- declarative execution ------------------------------------------

    def query(self, table_name: str) -> "Query":
        """Start a fluent declarative query on ``table_name``."""
        from repro.api.query import Query
        from repro.optimizer.logical import QuerySpec
        self.table(table_name)  # fail fast on unknown tables
        return Query(self, QuerySpec(table=table_name))

    def plan(self, query: "Query | QuerySpec",
             options: "PlannerOptions | None" = None,
             catalog: "StatisticsCatalog | None" = None) -> "PlannedQuery":
        """Lower a declarative query into an instrumented physical plan."""
        from repro.api.query import Query
        from repro.optimizer.planner import Planner
        spec = query.spec if isinstance(query, Query) else query
        if options is None and isinstance(query, Query):
            options = query.options
        planner = Planner(self, catalog or self.catalog, options)
        return planner.plan_query(spec)

    def execute(self, query: "Query | QuerySpec", *, cold: bool = True,
                keep_rows: bool = True,
                options: "PlannerOptions | None" = None,
                catalog: "StatisticsCatalog | None" = None
                ) -> "QueryResult":
        """Plan, execute and measure a declarative query in one call.

        ``cold=True`` reproduces the paper's measurement discipline
        (all caches dropped first); ``keep_rows=False`` counts output
        rows without materializing them, for large sweeps.
        """
        from repro.api.result import QueryResult
        from repro.exec.stats import measure
        planned = self.plan(query, options=options, catalog=catalog)
        planned.reset_counters()
        run = measure(self, planned.root, cold=cold, keep_rows=keep_rows)
        return QueryResult(planned, run)

    # -- physical execution ---------------------------------------------

    def context(self) -> ExecutionContext:
        """A fresh charging context (with its own private cost ledger)."""
        return ExecutionContext(config=self.config, runtime=self.runtime)

    def cold_run(self) -> ExecutionContext:
        """Reset caches, clock and I/O stats; returns a fresh context.

        Reproduces the paper's measurement discipline: "we clear database
        buffer caches as well as OS file system caches before each query".
        Delegates to :meth:`~repro.runtime.EngineRuntime.cold_start`,
        which raises :class:`~repro.errors.ExecutionError` while any
        streaming run is still live — resetting shared caches under a
        draining cursor would silently corrupt its execution.
        """
        self.runtime.cold_start()
        return self.context()

    # -- internals -------------------------------------------------------

    def _autosize_buffer(self) -> None:
        """Size an auto buffer pool to 1/8 of total heap pages."""
        self.runtime.autosize_buffer()
