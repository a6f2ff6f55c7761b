"""Connection / Cursor / PreparedStatement — the PEP-249 session layer.

Covers the acceptance bar of the API redesign: prepared statements
compile and plan exactly once across re-executions (counters), results
are measurement-identical to the legacy literal-SQL facade, cursors
stream without materializing, and EXPLAIN is a structured result set.
"""


import pytest

from repro.database import Database
from repro.errors import InterfaceError
from repro.exec.expressions import Between
from repro.optimizer.planner import PlannerOptions
from repro.storage.types import ColumnType
from repro.workloads.micro import build_micro_table


@pytest.fixture(scope="module")
def micro_db():
    db = Database()
    build_micro_table(db, num_tuples=24_000, seed=11)
    db.analyze()
    return db


@pytest.fixture()
def conn(micro_db):
    return micro_db.connect()


# -- cursors: execute + fetch -------------------------------------------------

def test_fetchall_matches_database_execute(micro_db, conn):
    cur = conn.execute("SELECT c1, c2 FROM micro WHERE c2 < 5000 "
                       "ORDER BY c2")
    rows = cur.fetchall()
    one_shot = micro_db.connect().run("SELECT c1, c2 FROM micro "
                                      "WHERE c2 < 5000 ORDER BY c2")
    assert rows == one_shot.rows
    assert cur.rowcount == len(rows)


def test_description_names_and_types(conn):
    cur = conn.execute("SELECT c1, c2 FROM micro WHERE c2 < 100")
    assert [d[0] for d in cur.description] == ["c1", "c2"]
    assert all(d[1] is ColumnType.INT for d in cur.description)
    assert all(len(d) == 7 for d in cur.description)


def test_fetchone_and_iteration(conn):
    cur = conn.execute("SELECT c1 FROM micro WHERE c2 < 300 ORDER BY c1")
    first = cur.fetchone()
    rest = list(cur)
    assert first is not None
    total = conn.run("SELECT c1 FROM micro WHERE c2 < 300").row_count
    assert 1 + len(rest) == total
    assert cur.fetchone() is None  # exhausted


def test_fetchmany_streams_incrementally(conn):
    cur = conn.cursor()
    cur.arraysize = 16
    cur.execute("SELECT * FROM micro")  # 24K-row full scan
    first = cur.fetchmany()
    assert len(first) == 16
    partial = cur.result()
    # Only the batches needed so far were pulled — nowhere near the
    # whole table (one heap page is 120 tuples; the buffered tail stays
    # far below the 24K total).
    assert partial.run.extras["partial"] is True
    assert 16 <= partial.row_count < 2_000
    assert cur.rowcount == -1  # unknown until drained
    cur.close()


def test_partial_measurement_grows_to_full(conn):
    cur = conn.execute("SELECT * FROM micro WHERE c2 < 50000")
    cur.fetchmany(10)
    early = cur.result()
    cur.fetchall()
    done = cur.result()
    assert early.run.extras["partial"] and not done.run.extras["partial"]
    assert early.total_ms <= done.total_ms
    assert early.disk.requests <= done.disk.requests
    # A fully-drained streaming run costs exactly what measure() charges.
    fresh = conn.run("SELECT * FROM micro WHERE c2 < 50000",
                     keep_rows=False)
    assert done.total_ms == fresh.total_ms
    assert done.disk.requests == fresh.disk.requests


def test_fetch_before_execute_raises(conn):
    cur = conn.cursor()
    with pytest.raises(InterfaceError, match="no statement"):
        cur.fetchall()


def test_closed_handles_refuse(micro_db):
    session = micro_db.connect()
    cur = session.cursor()
    cur.close()
    with pytest.raises(InterfaceError, match="cursor is closed"):
        cur.execute("SELECT * FROM micro")
    session.close()
    with pytest.raises(InterfaceError, match="connection is closed"):
        session.cursor()


def test_connection_context_manager_and_noop_txn(micro_db):
    with micro_db.connect() as session:
        session.commit()
        session.rollback()
    with pytest.raises(InterfaceError):
        session.commit()


# -- prepared statements ------------------------------------------------------

def test_prepared_compiles_and_plans_exactly_once(micro_db):
    session = micro_db.connect()
    compiles0 = micro_db.sql_compile_count
    stats = micro_db.plan_cache.stats
    hits0, misses0 = stats.hits, stats.misses

    st = session.prepare("SELECT * FROM micro WHERE c2 >= ? AND c2 < ?")
    assert micro_db.sql_compile_count == compiles0 + 1

    r1 = st.run((0, 120))
    r2 = st.run((0, 60_000))
    r3 = st.run((40_000, 90_000))
    assert micro_db.sql_compile_count == compiles0 + 1  # still one
    assert stats.misses == misses0 + 1                  # planned once
    assert stats.hits == hits0 + 2                      # replayed twice
    assert r1.row_count < r2.row_count
    assert r3.row_count > 0


def _assert_measurement_identical(prepared, literal):
    assert prepared.rows == literal.rows
    assert prepared.total_ms == literal.total_ms
    assert prepared.io_ms == literal.io_ms
    assert prepared.cpu_ms == literal.cpu_ms
    assert prepared.disk.requests == literal.disk.requests
    assert prepared.disk.bytes_read == literal.disk.bytes_read
    assert [d.path for d in prepared.decisions] \
        == [d.path for d in literal.decisions]


def test_prepared_results_measurement_identical_to_literal_sql(micro_db):
    # At the plan-caching execution the prepared path charges exactly
    # what literal SQL does: parameter plumbing is free.
    session = micro_db.connect()
    st = session.prepare("SELECT c1, c2 FROM micro "
                         "WHERE c2 >= ? AND c2 < ? ORDER BY c2")
    prepared = st.run((0, 120))
    literal = micro_db.connect().run("SELECT c1, c2 FROM micro "
                                     "WHERE c2 >= 0 AND c2 < 120 "
                                     "ORDER BY c2")
    _assert_measurement_identical(prepared, literal)


def test_prepared_smooth_measurement_identical_across_drift(micro_db):
    # Under enable_smooth the cached plan IS what a fresh plan would be
    # at every parameter value, so prepared re-execution stays
    # measurement-identical to literal SQL across the whole drift —
    # the statistics-oblivious property, visible through the API.
    session = micro_db.connect(
        options=PlannerOptions(enable_smooth=True)
    )
    st = session.prepare("SELECT c1, c2 FROM micro "
                         "WHERE c2 >= ? AND c2 < ? ORDER BY c2")
    for lo, hi in ((0, 120), (0, 60_000), (20_000, 20_500)):
        prepared = st.run((lo, hi))
        literal = session.run(
            f"SELECT c1, c2 FROM micro WHERE c2 >= {lo} "
            f"AND c2 < {hi} ORDER BY c2"
        )
        _assert_measurement_identical(prepared, literal)


def test_prepared_drifted_params_same_rows_cached_plan(micro_db):
    # At drifted parameter values the cached classic plan may legally
    # differ from what a fresh plan would pick — that divergence is the
    # paper's motivating scenario — but the *results* never differ.
    session = micro_db.connect()
    st = session.prepare("SELECT c1, c2 FROM micro "
                         "WHERE c2 >= ? AND c2 < ? ORDER BY c2")
    first = st.run((0, 120))
    drifted = st.run((0, 60_000))
    fresh = micro_db.execute(
        micro_db.query("micro")
        .where(Between("c2", 0, 60_000, True, False))
        .order_by("c2").select("c1", "c2")
    )
    assert drifted.rows == fresh.rows
    # The cached plan kept the first execution's access path.
    assert drifted.decisions[0].path == first.decisions[0].path


def test_prepared_named_params_via_cursor(conn):
    st = conn.prepare("SELECT count(*) AS n FROM micro "
                      "WHERE c2 >= :lo AND c2 < :hi")
    assert st.param_names == ("lo", "hi")
    [(n1,)] = st.execute({"lo": 0, "hi": 1000}).fetchall()
    [(n2,)] = st.execute({"lo": 0, "hi": 50_000}).fetchall()
    assert 0 < n1 < n2


def test_cache_hit_measurement_identical_to_miss(micro_db):
    # Same text + same catalog: the replayed plan must cost exactly what
    # the originally-planned one did.
    session = micro_db.connect()
    sql = "SELECT * FROM micro WHERE c2 BETWEEN 100 AND 4000"
    miss = session.run(sql, keep_rows=False)
    hit = session.run(sql, keep_rows=False)
    assert miss.total_ms == hit.total_ms
    assert miss.disk.requests == hit.disk.requests
    assert miss.row_count == hit.row_count
    assert [d.path for d in miss.decisions] == \
        [d.path for d in hit.decisions]
    # explain() output (estimates included) is also identical.
    assert miss.plan.render() == hit.plan.render()


def test_prepared_statement_rejects_foreign_database(micro_db):
    other = Database()
    build_micro_table(other, num_tuples=1_200)
    st = other.connect().prepare("SELECT * FROM micro")
    with pytest.raises(InterfaceError, match="different database"):
        micro_db.connect().cursor().execute(st)
    # Connection.run enforces the same boundary as Cursor.execute.
    with pytest.raises(InterfaceError, match="different database"):
        micro_db.connect().run(st)
    # Sharing across connections of the SAME database is allowed.
    assert micro_db.connect().run(
        micro_db.connect().prepare("SELECT count(*) AS n FROM micro")
    ).row_count == 1


# -- executemany --------------------------------------------------------------

def test_executemany_counts_all_rows(micro_db, conn):
    compiles0 = micro_db.sql_compile_count
    cur = conn.cursor()
    cur.executemany("SELECT * FROM micro WHERE c2 < ?",
                    [(100,), (200,), (400,)])
    assert micro_db.sql_compile_count == compiles0 + 1
    expected = sum(
        conn.run("SELECT * FROM micro WHERE c2 < ?", (hi,),
                 keep_rows=False).row_count
        for hi in (100, 200, 400)
    )
    assert cur.rowcount == expected


# -- EXPLAIN as a result set --------------------------------------------------

def test_explain_is_a_structured_result(conn):
    cur = conn.execute("EXPLAIN SELECT * FROM micro WHERE c2 < 2000")
    rows = cur.fetchall()
    assert cur.description[0][0] == "plan"
    assert cur.rowcount == len(rows)
    assert all(len(r) == 1 for r in rows)
    assert rows[0][0].startswith("-> ")
    assert rows[-1][0].startswith("plan cache: ")
    assert cur.result() is None  # nothing executed


def test_explain_surfaces_cache_status(conn):
    sql = "EXPLAIN SELECT * FROM micro WHERE c2 < 3333"
    first = conn.execute(sql).fetchall()[-1][0]
    second = conn.execute(sql).fetchall()[-1][0]
    assert first.startswith("plan cache: miss")
    assert second.startswith("plan cache: hit")


# -- options and hints --------------------------------------------------------

def test_session_options_and_hints_compose(micro_db):
    session = micro_db.connect(
        options=PlannerOptions(enable_smooth=True)
    )
    smooth = session.run("SELECT * FROM micro WHERE c2 < 2000",
                         keep_rows=False)
    assert smooth.decisions[0].path == "smooth"
    forced = session.run(
        "SELECT /*+ force_path(full) */ * FROM micro WHERE c2 < 2000",
        keep_rows=False,
    )
    assert forced.decisions[0].path == "full"


def test_different_options_do_not_share_cache_entries(micro_db):
    sql = "SELECT * FROM micro WHERE c2 < 777"
    plain = micro_db.connect().run(sql, keep_rows=False)
    smooth = micro_db.connect(
        options=PlannerOptions(enable_smooth=True)
    ).run(sql, keep_rows=False)
    assert plain.decisions[0].path != "smooth"
    assert smooth.decisions[0].path == "smooth"


# -- explicit statistics catalogs --------------------------------------------

def test_database_sql_explicit_catalog_bypasses_cache(micro_db):
    from repro.optimizer.statistics import StatisticsCatalog
    from repro.sql import compile_statement
    stale = StatisticsCatalog()
    entries0 = len(micro_db.plan_cache)
    spec = compile_statement(micro_db,
                             "SELECT * FROM micro WHERE c2 < 999").spec
    result = micro_db.execute(spec, keep_rows=False, catalog=stale)
    assert result.row_count > 0
    assert len(micro_db.plan_cache) == entries0  # nothing cached


# -- connection lifecycle: cursors close with the session ---------------------

def _fresh_db(num_tuples=12_000):
    db = Database()
    build_micro_table(db, num_tuples=num_tuples, seed=11)
    db.analyze()
    return db


def test_cursor_context_manager_closes(conn):
    with conn.cursor() as cur:
        cur.execute("SELECT c1 FROM micro WHERE c2 < 200")
        assert cur.fetchone() is not None
    with pytest.raises(InterfaceError, match="cursor is closed"):
        cur.fetchall()


def test_connection_close_closes_live_streaming_cursors():
    db = _fresh_db()
    session = db.connect(cold=False)
    first = session.execute("SELECT * FROM micro WHERE c2 < 50000")
    second = session.execute("SELECT * FROM micro WHERE c2 >= 50000")
    first.fetchmany(100)
    assert len(session.open_cursors) == 2
    session.close()
    # Both runs were abandoned mid-stream, not leaked: the engine
    # accepts a cold start again (which refuses while streams live).
    assert first.stream.closed and second.stream.closed
    assert not first.stream.exhausted
    db.cold_run()
    with pytest.raises(InterfaceError, match="cursor is closed"):
        first.fetchall()


def test_connection_close_finalizes_ledgers_exactly():
    from repro.runtime import CostLedger

    db = _fresh_db()
    session = db.connect(cold=False)
    cursors = [session.execute("SELECT * FROM micro WHERE c2 < 50000"),
               session.execute("SELECT * FROM micro WHERE c2 >= 50000")]
    for cur in cursors:
        cur.fetchmany(100)
    ledgers = [cur.stream.ledger for cur in cursors]
    session.close()
    # Even for half-drained streams, every charge the session caused
    # is attributed to exactly one cursor ledger: their sum reproduces
    # the runtime totals (exact integer counters, 1e-9 ms).
    summed = CostLedger()
    for ledger in ledgers:
        summed.add(ledger)
    assert summed.matches(db.runtime.totals())


def test_open_cursors_prunes_closed_and_dropped_handles():
    import gc

    db = _fresh_db()
    session = db.connect(cold=False)
    keep = session.cursor()
    done = session.cursor()
    session.cursor()  # dropped without ever being closed
    gc.collect()
    done.close()
    assert session.open_cursors == (keep,)
    session.close()
    assert session.open_cursors == ()


def test_connection_close_is_idempotent_with_cursors():
    db = _fresh_db()
    session = db.connect(cold=False)
    cur = session.execute("SELECT c1 FROM micro WHERE c2 < 1000")
    session.close()
    session.close()  # second close is a no-op, not an error
    assert cur.stream.closed
