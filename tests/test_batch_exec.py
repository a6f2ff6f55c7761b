"""The batch execution protocol, pinned by a golden capture.

``batches()`` over :class:`~repro.storage.chunk.Chunk` is the engine's
only execution protocol.  ``tests/golden/batch_charges.json`` holds, for
every point of :data:`GRID` (SmoothScan policy × trigger × ordered, the
scans, a pipeline, limits, joins, an aggregate, a Materialize replay and
the morphing join), a digest of the ordered output rows, the simulated
``io_ms``/``cpu_ms``, the integer disk and buffer counters and, for
Smooth Scans, the operator's internal statistics.  It was captured on
commit e9d1bfa from the tuple-at-a-time ``rows()`` path that engine still
had, with row == batch asserted for every point while capturing (rows
only at the Limit points, whose charges were never tied).  The batch
path must reproduce it: floats to 1e-9 relative, everything else exactly.

The capture command is ``PYTHONPATH=src python tests/test_batch_exec.py
--capture``.  On a single-protocol tree it re-derives the file from
``batches()``, so only run it for an intended cost-model change.  The
plain-Python oracle properties for the same operators live in
``tests/test_exec_oracles.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import pytest

from repro.core.morph_join import MorphingIndexJoin
from repro.core.policy import (
    ElasticPolicy,
    GreedyPolicy,
    SelectivityIncreasePolicy,
)
from repro.core.smooth_scan import SmoothScan
from repro.core.switch_scan import SwitchScan
from repro.core.trigger import (
    EagerTrigger,
    OptimizerDrivenTrigger,
    SLADrivenTrigger,
)
from repro.database import Database
from repro.exec.aggregates import AggSpec, HashAggregate
from repro.exec.expressions import (
    And,
    Between,
    Comparison,
    CompareOp,
    InList,
    KeyRange,
    Not,
    Or,
    StringMatch,
    TruePredicate,
    range_filter,
    range_selector,
)
from repro.exec.iterator import Operator
from repro.exec.joins import HashJoin, MergeJoin, NestedLoopJoin
from repro.exec.misc import Filter, Limit, Materialize, Project, Rename
from repro.exec.scans import FullTableScan, IndexScan, SortScan
from repro.exec.sort import Sort
from repro.storage.chunk import Chunk
from repro.storage.types import Schema

GOLDEN = Path(__file__).resolve().parent / "golden" / "batch_charges.json"

POLICIES = {
    "greedy": GreedyPolicy,
    "si": SelectivityIncreasePolicy,
    "elastic": ElasticPolicy,
}
TRIGGERS = {
    "eager": EagerTrigger,
    "optimizer": lambda: OptimizerDrivenTrigger(10),
    "sla": lambda: SLADrivenTrigger(25),
}


def build_small_table() -> tuple[Database, object]:
    """The grid's table: 5,000 rows of (id, key 0-999, 0-9), c2 indexed.

    The same data as conftest's ``small_table``, built here so the
    standalone capture needs no pytest and a fixture edit cannot move
    the golden.
    """
    db = Database()
    rng = random.Random(123)
    rows = [
        (i, rng.randrange(0, 1000), rng.randrange(0, 10))
        for i in range(5_000)
    ]
    table = db.load_table("t", Schema.of_ints(["c1", "c2", "c3"]), rows)
    db.create_index("t", "c2")
    return db, table


# -- the golden grid --------------------------------------------------------


def _smooth_point(policy: str, trigger: str, ordered: bool):
    def build(table):
        return SmoothScan(
            table, "c2", KeyRange(0, 400), residual=Between("c3", 0, 5),
            policy=POLICIES[policy](), trigger=TRIGGERS[trigger](),
            ordered=ordered,
        )
    return build


def _hash_join(join_type: str):
    def build(table):
        left = Project(FullTableScan(table, Between("c2", 0, 90)),
                       ["c1", "c2"])
        right = Rename(
            Project(FullTableScan(table, Between("c2", 0, 60)), ["c2"]),
            {"c2": "d2"},
        )
        return HashJoin(left, right, ["c2"], ["d2"], join_type=join_type)
    return build


def _nested_loop_join(table):
    return NestedLoopJoin(
        Project(FullTableScan(table, Between("c2", 0, 25)), ["c1"]),
        Project(Filter(FullTableScan(table), InList("c3", (1, 2))), ["c3"]),
        predicate=Comparison("c3", CompareOp.GT, 1),
    )


def _merge_join(table):
    lhs = Sort(Project(FullTableScan(table, Between("c2", 0, 80)), ["c2"]),
               ["c2"])
    rhs = Sort(
        Rename(Project(FullTableScan(table, Between("c2", 40, 120)), ["c2"]),
               {"c2": "d2"}),
        ["d2"],
    )
    return MergeJoin(lhs, rhs, "c2", "d2")


def _pipeline(table):
    scanned = FullTableScan(table, Between("c2", 0, 800))
    filtered = Filter(scanned, InList("c3", (0, 1, 2, 3, 4)))
    return Sort(Project(filtered, ["c2", "c3"]), ["c2", "c3"])


def _aggregate(table):
    return HashAggregate(
        FullTableScan(table, Between("c2", 0, 900)),
        group_by=["c3"],
        aggs=[AggSpec("count", "n", column=None),
              AggSpec("sum", "total", column="c2"),
              AggSpec("max", "hi", column="c2",
                      ctype=table.schema.columns[1].ctype)],
    )


def _morphing_join(table):
    outer = Rename(Project(FullTableScan(table, Between("c1", 0, 300)),
                           ["c1"]), {"c1": "o_key"})
    return MorphingIndexJoin(outer, table, "c2", "o_key")


#: Grid point name -> (plan builder, drains in one cold run, charges
#: tied).  "Tied" points charged identically on the row and batch paths
#: and the capture asserted it; a Limit stops its child at a chunk
#: boundary rather than a row, so there only the rows were tied and the
#: golden charges are the batch path's.
GRID: dict = {}
for _ordered in (False, True):
    for _trigger in TRIGGERS:
        for _policy in POLICIES:
            GRID[f"smooth/{_policy}/{_trigger}/"
                 f"{'ord' if _ordered else 'unord'}"] = (
                _smooth_point(_policy, _trigger, _ordered), 1, True)
GRID.update({
    "smooth/stats/optimizer15/ord": (
        lambda t: SmoothScan(t, "c2", KeyRange(0, 700), ordered=True,
                             trigger=OptimizerDrivenTrigger(15)), 1, True),
    "smooth/spill/ord": (
        lambda t: SmoothScan(t, "c2", KeyRange(0, 1000), ordered=True,
                             result_cache_memory_limit=2_000), 1, True),
    "scan/full": (lambda t: FullTableScan(t, Between("c2", 0, 650)), 1,
                  True),
    "scan/index": (lambda t: IndexScan(t, "c2", KeyRange(0, 650)), 1,
                   True),
    "scan/sort": (lambda t: SortScan(t, "c2", KeyRange(0, 650),
                                     residual=InList("c3", (1, 2, 3))), 1, True),
    "scan/switch": (lambda t: SwitchScan(t, "c2", KeyRange(0, 650),
                                         threshold=40), 1, True),
    "pipeline": (_pipeline, 1, True),
    "join/nested_loop": (_nested_loop_join, 1, True),
    "join/merge": (_merge_join, 1, True),
    "aggregate": (_aggregate, 1, True),
    "materialize/replay": (
        lambda t: Materialize(FullTableScan(t, Between("c2", 0, 300))), 3, True),
    "join/morphing": (_morphing_join, 1, True),
})
for _n in (0, 1, 37, 10_000):
    GRID[f"limit/{_n}"] = (lambda t, n=_n: Limit(FullTableScan(t), n), 1,
                         False)
for _join_type in ("inner", "left", "semi", "anti"):
    GRID[f"join/hash/{_join_type}"] = (_hash_join(_join_type), 1, True)


def _smooth_stats(plan) -> dict | None:
    stats = getattr(plan, "last_stats", None)
    if not isinstance(plan, SmoothScan) or stats is None:
        return None
    rc = stats.result_cache
    return {
        "probes": stats.probes,
        "produced": stats.produced,
        "mode0_tuples": stats.mode0_tuples,
        "mode0_page_fetches": stats.mode0_page_fetches,
        "morphed_at": stats.morphed_at,
        "pages_fetched": stats.pages_fetched,
        "pages_with_results": stats.pages_with_results,
        "max_region_used": stats.max_region_used,
        "region_trace": [list(p) for p in stats.region_trace],
        "result_cache": None if rc is None else {
            "inserts": rc.inserts, "probes": rc.probes, "hits": rc.hits,
            "spills": rc.spills, "unspills": rc.unspills,
        },
    }


def measure_point(db: Database, table, name: str, drain) -> dict:
    """Run one grid point cold through ``drain(plan, ctx) -> rows``."""
    build, drains, _tied = GRID[name]
    plan = build(table)
    ctx = db.cold_run()
    rows: list = []
    for _ in range(drains):
        rows += drain(plan, ctx)
    disk = db.disk.stats
    return {
        "rows": len(rows),
        "digest": hashlib.sha256(repr(rows).encode()).hexdigest(),
        "io_ms": db.clock.io_ms,
        "cpu_ms": db.clock.cpu_ms,
        "disk": {
            "requests": disk.requests,
            "pages_read": disk.pages_read,
            "seq_pages": disk.seq_pages,
            "rand_pages": disk.rand_pages,
            "bytes_read": disk.bytes_read,
            "pages_written": disk.pages_written,
            "bytes_written": disk.bytes_written,
        },
        "buffer": {"hits": db.buffer.stats.hits,
                   "misses": db.buffer.stats.misses},
        "smooth": _smooth_stats(plan),
    }


def _drain_chunks(plan, ctx) -> list:
    """The batch protocol, checking the batch contract on the way."""
    out: list = []
    for batch in plan.batches(ctx):
        assert isinstance(batch, Chunk), type(batch)
        assert len(batch), "operators must not yield empty batches"
        out += batch.to_rows()
    return out


def assert_matches_golden(got: dict, want: dict, name: str) -> None:
    for key in ("io_ms", "cpu_ms"):
        assert math.isclose(got[key], want[key], rel_tol=1e-9,
                            abs_tol=1e-12), (name, key, got[key], want[key])
    exact = {k: v for k, v in got.items() if k not in ("io_ms", "cpu_ms")}
    assert exact == {k: want[k] for k in exact}, name


@pytest.fixture(scope="module")
def grid_table():
    return build_small_table()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_golden(grid_table, golden, name: str) -> dict:
    """Drain grid point ``name`` as chunks; it must match the capture."""
    db, table = grid_table
    got = measure_point(db, table, name, _drain_chunks)
    assert_matches_golden(got, golden[name], name)
    return got


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(GRID)


# -- the operator protocol ------------------------------------------------


class _BatchesOnly(Operator):
    def __init__(self, data):
        self.schema = Schema.of_ints(["a"])
        self._data = data

    def batches(self, ctx):
        if self._data:
            yield Chunk.from_rows(self.schema, list(self._data))


# repro: allow[RPL106] -- negative fixture: proves the base class raises
# for an operator without batches()
class _Neither(Operator):
    schema = Schema.of_ints(["a"])


def test_batches_only_operator_gets_rows_shim(db):
    data = [(i,) for i in range(10)]
    op = _BatchesOnly(data)
    assert list(op.rows(db.context())) == data
    assert op.collect(db.context()) == data
    assert list(_BatchesOnly([]).rows(db.context())) == []


def test_operator_with_neither_protocol_raises(db):
    op = _Neither()
    with pytest.raises(NotImplementedError):
        next(op.rows(db.context()))
    with pytest.raises(NotImplementedError):
        next(op.batches(db.context()))


def test_flatten_equals_chunk_drain(grid_table, golden):
    """``Operator.rows()`` is only a flatten of ``batches()``."""
    db, table = grid_table
    for name in ("smooth/elastic/sla/ord", "scan/index", "join/merge"):
        got = measure_point(db, table, name,
                            lambda plan, ctx: list(plan.rows(ctx)))
        assert_matches_golden(got, golden[name], name)


# -- vectorized predicates ----------------------------------------------


PREDICATES = [
    TruePredicate(),
    Comparison("c2", CompareOp.LT, 300),
    Comparison("c2", CompareOp.EQ, 42),
    Comparison("c2", CompareOp.NE, 42),
    Between("c2", 100, 500),
    Between("c2", 100, 500, lo_inclusive=False, hi_inclusive=True),
    InList("c3", (1, 3, 5)),
    And([Between("c2", 0, 700), InList("c3", (0, 2, 4, 6, 8))]),
    Or([Comparison("c2", CompareOp.LT, 50),
        Comparison("c2", CompareOp.GE, 900)]),
    Not(Between("c2", 200, 800)),
    And([]),
    Or([]),
]


@pytest.mark.parametrize("predicate", PREDICATES, ids=repr)
def test_bind_batch_and_filter_match_bind(small_table, predicate):
    _db, table = small_table
    rows = [row for _tid, row in table.heap.iter_rows()][:600]
    schema = table.schema
    fn = predicate.bind(schema)
    expected_idx = [i for i, row in enumerate(rows) if fn(row)]
    expected_rows = [row for row in rows if fn(row)]

    assert predicate.bind_batch(schema)(rows) == expected_idx
    assert list(predicate.bind_filter(schema)(rows)) == expected_rows

    # Candidate-restricted selection: only even indices offered.
    candidates = list(range(0, len(rows), 2))
    want = [i for i in candidates if fn(rows[i])]
    assert predicate.bind_batch(schema)(rows, candidates) == want


def test_string_match_batch_falls_back_to_default(db):
    from repro.storage.types import Column, ColumnType
    schema = Schema([Column("s", ColumnType.CHAR, 16)])
    rows = [("apple",), ("banana",), ("apricot",), ("cherry",)]
    pred = StringMatch("s", "prefix", "ap")
    assert pred.bind_batch(schema)(rows) == [0, 2]
    assert pred.bind_filter(schema)(rows) == [("apple",), ("apricot",)]


@pytest.mark.parametrize("rng", [
    KeyRange.all(),
    KeyRange(100, None),
    KeyRange(None, 500),
    KeyRange(100, 500),
    KeyRange(100, 500, lo_inclusive=False, hi_inclusive=True),
    KeyRange.equal(250),
], ids=lambda r: f"[{r.lo},{r.hi},{r.lo_inclusive},{r.hi_inclusive}]")
def test_range_selector_and_filter_match_contains(small_table, rng):
    _db, table = small_table
    rows = [row for _tid, row in table.heap.iter_rows()][:600]
    col = 1
    expected_idx = [i for i, row in enumerate(rows) if rng.contains(row[col])]
    expected_rows = [row for row in rows if rng.contains(row[col])]
    assert range_selector(rng, col)(rows) == expected_idx
    assert list(range_filter(rng, col)(rows)) == expected_rows
    candidates = list(range(1, len(rows), 3))
    want = [i for i in candidates if rng.contains(rows[i][col])]
    assert range_selector(rng, col)(rows, candidates) == want


# -- SmoothScan: the full configuration grid -----------------------------


@pytest.mark.parametrize("policy", list(POLICIES.values()),
                         ids=lambda p: p().name)
@pytest.mark.parametrize("trigger_name", list(TRIGGERS))
@pytest.mark.parametrize("ordered", [False, True], ids=["unord", "ord"])
def test_smooth_scan_batch_equals_rows(grid_table, golden, policy,
                                       trigger_name, ordered):
    key = next(k for k, v in POLICIES.items() if v is policy)
    got = assert_golden(grid_table, golden,
                        f"smooth/{key}/{trigger_name}/"
                        f"{'ord' if ordered else 'unord'}")
    assert got["rows"]  # the grid point actually produces data


def test_smooth_scan_batch_stats_match_row_stats(grid_table, golden):
    got = assert_golden(grid_table, golden, "smooth/stats/optimizer15/ord")
    assert got["smooth"]["morphed_at"] is not None
    assert got["smooth"]["result_cache"]["hits"] > 0

@pytest.mark.parametrize("trigger_name", ["optimizer", "sla"])
@pytest.mark.parametrize("use_batches", [False, True], ids=["rows", "batches"])
def test_ordered_non_eager_no_duplicates(small_table, trigger_name,
                                         use_batches):
    """Tuple ID cache × Result Cache across the morph boundary.

    Under a non-eager trigger an ordered Smooth Scan produces tuples in
    mode 0 (recorded in the Tuple ID cache), then morphs; post-morph page
    probes must both skip already-produced tuples and keep parking future
    ones in the Result Cache — no tuple may come out twice.
    """
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 500),
                      trigger=TRIGGERS[trigger_name](), ordered=True)
    ctx = db.cold_run()
    if use_batches:
        rows = [r for b in scan.batches(ctx) for r in b]
    else:
        rows = list(scan.rows(ctx))
    assert scan.last_stats.morphed_at is not None  # it did morph
    # No duplicates: row identity is the unique c1 primary key.
    c1s = [r[0] for r in rows]
    assert len(c1s) == len(set(c1s))
    # Exactly the qualifying tuples, in key order after the morph point.
    expected = sorted(
        (row for _tid, row in table.heap.iter_rows() if 0 <= row[1] < 500),
        key=lambda r: r[0],
    )
    assert sorted(rows, key=lambda r: r[0]) == expected
    keys = [r[1] for r in rows[scan.last_stats.morphed_at:]]
    assert keys == sorted(keys)


def test_smooth_scan_stats_current_when_batch_run_abandoned(small_table):
    """Early termination (e.g. Limit) must not leave stale internals.

    A generator can only be abandoned while suspended at a yield, and
    every yield site syncs the local probe ordinal back to the stats.
    """
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 1000))
    plan = Limit(scan, 5)
    rows = [r for b in plan.batches(db.cold_run()) for r in b]
    assert len(rows) == 5
    # The probes that produced the emitted batch are recorded, not a
    # stale zero from before the first policy update.
    assert scan.last_stats.probes > 0
    assert scan.last_stats.produced >= 5


def test_smooth_scan_spill_parity(grid_table, golden):
    got = assert_golden(grid_table, golden, "smooth/spill/ord")
    assert got["smooth"]["result_cache"]["spills"] > 0


# -- the rest of the operator zoo ----------------------------------------


def test_scans_batch_equals_rows(grid_table, golden):
    for name in ("scan/full", "scan/index", "scan/sort", "scan/switch"):
        assert assert_golden(grid_table, golden, name)["rows"]


def test_scan_fast_paths_yield_chunks(small_table):
    """The columnar fast paths hand out Chunk batches, not row lists.

    Full scans always; SortScan on dense runs (its sparse runs gather
    rows directly by design); SmoothScan whenever no auxiliary cache
    consumes TIDs (eager trigger, unordered).  This pins the tentpole:
    batches stay columnar from the heap pages to the operator boundary
    instead of being rowified in the scan.
    """
    from repro.storage.chunk import Chunk

    db, table = small_table
    dense = KeyRange(0, 1000)  # every tuple qualifies: dense page runs
    for plan in (
        FullTableScan(table, Between("c2", 0, 650)),
        SortScan(table, "c2", dense),
        SmoothScan(table, "c2", dense),  # eager + unordered
    ):
        batches = list(plan.batches(db.cold_run()))
        assert batches, plan.name()
        assert all(isinstance(b, Chunk) for b in batches), plan.name()


def test_pipeline_batch_equals_rows(grid_table, golden):
    assert assert_golden(grid_table, golden, "pipeline")["rows"]


def test_limit_batch_equals_rows(grid_table, golden):
    for n in (0, 1, 37, 10_000):
        got = assert_golden(grid_table, golden, f"limit/{n}")
        assert got["rows"] == min(n, 5_000)


def test_joins_batch_equals_rows(grid_table, golden):
    for join_type in ("inner", "left", "semi", "anti"):
        assert_golden(grid_table, golden, f"join/hash/{join_type}")
    assert_golden(grid_table, golden, "join/nested_loop")
    assert_golden(grid_table, golden, "join/merge")


def test_aggregate_batch_equals_rows(grid_table, golden):
    assert assert_golden(grid_table, golden, "aggregate")["rows"]


def test_materialize_batch_replay(grid_table, golden):
    """Three drains in one cold run: the first pays the scan, the
    replays charge emission only — all pinned by the capture."""
    assert assert_golden(grid_table, golden, "materialize/replay")["rows"]


def test_materialize_caches_fully_under_partial_batch_drain(small_table):
    """A Limit above a Materialize must not poison the cache.

    The first (partial) drain materializes the child completely — like
    rows() — so the second execution replays instead of re-running the
    child and re-paying its simulated I/O.
    """
    db, table = small_table
    mat = Materialize(FullTableScan(table, Between("c2", 0, 300)))
    plan = Limit(mat, 10)
    ctx = db.cold_run()
    first = [r for b in plan.batches(ctx) for r in b]
    assert len(first) == 10
    io_after_first = db.clock.io_ms
    again = [r for b in plan.batches(ctx) for r in b]
    assert again == first
    assert db.clock.io_ms == io_after_first  # replay: no new disk I/O


def test_buffer_get_run_keeps_strict_lru_capacity(db):
    """A run larger than the pool must not transiently over-hold pages.

    With capacity 4 and page 8 resident but oldest, fetching pages 0-9
    evicts 8 before the run reaches it: 10 honest misses, one read run.
    """
    from repro.storage.heap import HeapFile
    heap = HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=2)
    for i in range(40):
        heap.append((i,))
    pool = db.buffer
    pool.capacity_pages = 4
    pool.get_page(heap, 8)
    pool.stats.reset()
    db.disk.reset()
    pool.get_run(heap, 0, 10)
    assert pool.stats.misses == 10
    assert pool.stats.hits == 0
    assert db.disk.stats.pages_read == 10
    assert len(pool) <= 4


def test_morphing_join_batch_equals_rows(grid_table, golden):
    assert assert_golden(grid_table, golden, "join/morphing")["rows"]


# -- capture ----------------------------------------------------------------


def capture() -> dict:
    """Measure every grid point on both protocols; they must agree."""
    db, table = build_small_table()
    out = {}
    for name in sorted(GRID):
        rows_rec = measure_point(db, table, name,
                                 lambda plan, ctx: list(plan.rows(ctx)))
        batch_rec = measure_point(
            db, table, name,
            lambda plan, ctx: [r for b in plan.batches(ctx) for r in b])
        if GRID[name][2]:
            assert_matches_golden(batch_rec, rows_rec, name)
            out[name] = rows_rec
        else:
            assert batch_rec["digest"] == rows_rec["digest"], name
            out[name] = batch_rec
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_batch_exec.py --capture")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(GRID)} grid points to {GOLDEN}")
