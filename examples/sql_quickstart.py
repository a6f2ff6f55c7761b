"""Quickstart, SQL edition: the same tour as quickstart.py, typed as SQL.

Run:  python examples/sql_quickstart.py

Every statement goes through a Connection — the PEP-249-flavored session
layer: lexer → parser → binder → QuerySpec → the cost-based planner,
with a plan cache between them.  (For an interactive version of this
script, run ``python -m repro.sql``.)
"""

from repro import Database, PlannerOptions
from repro.workloads import build_micro_table


def main() -> None:
    db = Database()
    table = build_micro_table(db, num_tuples=120_000)
    db.analyze()
    conn = db.connect()
    print(f"loaded {table.row_count} rows over {table.num_pages} pages\n")

    # ~20% selectivity, stated as SQL; the planner picks the access path.
    query = """
        SELECT * FROM micro
        WHERE c2 >= 0 AND c2 < 20000
        ORDER BY c2
    """

    print("cost-based planner's choice:")
    # EXPLAIN through a cursor: a one-column result set of plan lines.
    for (line,) in conn.execute("EXPLAIN " + query):
        print(line)
    result = conn.run(query)  # cold run: caches dropped first
    print(f"= {result.row_count} rows in {result.total_seconds:.3f}s "
          f"({result.disk.requests} I/O requests)\n")

    # Force each access path with a hint comment — Figure 5 in miniature.
    print(f"{'access path':22} {'rows':>7} {'sim time':>10} {'I/O reqs':>9}")
    for path in ("full", "index", "sort", "smooth"):
        res = conn.run(
            f"SELECT /*+ force_path({path}) */ * FROM micro "
            "WHERE c2 >= 0 AND c2 < 20000 ORDER BY c2",
            keep_rows=False,
        )
        print(f"{path:22} {res.row_count:7} "
              f"{res.total_seconds:9.3f}s {res.disk.requests:9}")

    # Bind parameters: prepare once, execute with different values — the
    # second execution is a pure plan-cache hit (examples/prepared_drift.py
    # tells the full drift story).
    st = conn.prepare("SELECT count(*) AS n FROM micro WHERE c2 < ?")
    print()
    for hi in (5_000, 50_000):
        [(n,)] = st.execute((hi,)).fetchall()
        print(f"count(c2 < {hi}) = {n}  "
              f"[plan cache: {db.plan_cache.stats.describe()}]")

    # IN-lists ride index/smooth paths too: the binder extracts the
    # [min, max] key range and keeps membership as a residual check.
    picky = "EXPLAIN SELECT c1, c2 FROM micro WHERE c2 IN (5, 250, 90000)"
    print("\nIN-list through an index range:")
    for (line,) in conn.execute(picky):
        print(line)

    # "The optimizer can always choose a Smooth Scan" (§IV-B) — per
    # statement via a hint, or engine-wide via PlannerOptions.
    smoothed = conn.run(
        "SELECT /*+ smooth */ * FROM micro WHERE c2 < 20000"
    )
    decision = smoothed.decisions[0]
    print(f"\nsmooth hint: path={decision.path!r} "
          f"column={decision.column!r}")

    # Cursors stream rows through the batch engine; fetchmany never
    # materializes the rest of the result.
    cur = conn.execute("SELECT c1, c2 FROM micro WHERE c2 < 20000")
    page = cur.fetchmany(5)
    print(f"\nfirst {len(page)} rows, streamed: {page}")
    cur.close()

    # Planner options still compose with hints, per statement.
    print("\nEXPLAIN under original-style options (no secondary paths):")
    print(conn.run(
        "EXPLAIN SELECT count(*) AS n FROM micro WHERE c2 < 20000",
        options=PlannerOptions(enable_index=False, enable_sort_scan=False),
    ))


if __name__ == "__main__":
    main()
