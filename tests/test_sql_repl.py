"""The SQL shell: scripted sessions over a loaded workload.

Drives :class:`repro.sql.repl.Repl` with the same piped-transcript shape
the CI smoke step uses — statements, EXPLAIN, meta commands, errors —
and asserts on the captured output.
"""

import io

import pytest

from repro.database import Database
from repro.sql.repl import Repl, load_database, main
from repro.storage.types import Schema


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.load_table(
        "nums", Schema.of_ints(["a", "b"]),
        [(i, (i * 13) % 50) for i in range(3_000)],
    )
    database.create_index("nums", "b")
    database.analyze()
    return database


def run_session(db, script, mode="tuned"):
    out = io.StringIO()
    Repl(db, out=out, mode=mode).run(io.StringIO(script).readlines())
    return out.getvalue()


def test_select_prints_table_and_summary(db):
    output = run_session(db, "SELECT count(*) AS n FROM nums WHERE b < 10;\n")
    assert "n" in output
    assert "600" in output
    assert "(1 row," in output
    assert "simulated" in output and "I/O requests" in output


def test_explain_prints_plan_tree(db):
    output = run_session(db, "EXPLAIN SELECT * FROM nums WHERE b < 10;\n")
    assert "rows est=" in output and "act=?" in output


def test_multiline_statement_and_display_cap(db):
    output = run_session(
        db, "SELECT a, b FROM nums\nWHERE b < 40\nLIMIT 30;\n"
    )
    assert "(30 rows," in output
    assert "... (10 more)" in output  # 20 displayed of 30


def test_meta_commands(db):
    output = run_session(
        db, "\\tables\n\\schema nums\n\\mode smooth\n\\help\n"
    )
    assert "nums" in output and "indexes: b" in output
    assert "[indexed]" in output
    assert "planner mode: smooth" in output
    assert "\\quit" in output


def test_mode_switch_changes_plan(db):
    output = run_session(
        db, "\\mode smooth\nEXPLAIN SELECT * FROM nums WHERE b < 10;\n"
    )
    assert "SmoothScan" in output


def test_errors_are_reported_not_raised(db):
    output = run_session(
        db,
        "SELECT * FROM nope;\nSELECT zzz FROM nums;\nSELCT;\n\\bogus\n",
    )
    assert "unknown table 'nope'" in output
    assert "unknown column 'zzz'" in output
    assert "expected keyword SELECT" in output
    assert "unknown command" in output


def test_quit_stops_processing(db):
    output = run_session(db, "\\q\nSELECT count(*) AS n FROM nums;\n")
    assert "row" not in output


def test_blank_lines_do_not_swallow_meta_commands(db):
    output = run_session(
        db, "\n\n\\q\nSELECT count(*) AS n FROM nums;\n"
    )
    assert "row" not in output          # \q still quit
    assert "error" not in output


def test_mixed_type_in_list_reports_not_crashes(db):
    output = run_session(
        db, "SELECT count(*) AS n FROM nums WHERE b IN (5, 'x');\n"
    )
    # Unorderable IN values stay off index paths but still execute.
    assert "(1 row," in output


def test_semicolon_inside_multiline_string_does_not_split(db):
    output = run_session(
        db,
        "SELECT count(*) AS n FROM nums WHERE b IN (5, 'x;\ny');\n",
    )
    assert "unterminated" not in output
    assert "(1 row," in output  # one statement, executed once


def test_multiline_error_positions_use_user_line_numbers(db):
    output = run_session(
        db, "SELECT\n  bogus_col\nFROM nums;\n"
    )
    assert "at line 2" in output  # where the user actually typed it


def test_runtime_type_errors_do_not_kill_the_shell(db, monkeypatch):
    # A mistyped literal is a typed SqlError at bind time ...
    output = run_session(
        db,
        "SELECT count(*) AS n FROM nums WHERE a < 'zz';\n"
        "SELECT count(*) AS n FROM nums;\n",
    )
    assert "error: int column 'a' cannot be compared with 'zz'" in output
    assert "3000" in output  # the next statement still ran
    # ... and a raw exception from execution still leaves the shell up.
    from repro.api.session import Connection

    real_run = Connection.run

    def run(self, sql, *args, **kwargs):
        if "WHERE" in sql:
            raise TypeError("'<' not supported")
        return real_run(self, sql, *args, **kwargs)

    monkeypatch.setattr(Connection, "run", run)
    output = run_session(
        db,
        "SELECT count(*) AS n FROM nums WHERE a < 5;\n"
        "SELECT count(*) AS n FROM nums;\n",
    )
    assert "error: TypeError" in output
    assert "3000" in output


def test_main_entry_point_with_piped_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO("SELECT count(*) AS n FROM micro;\n\\q\n"),
    )
    assert main(["--rows", "2000"]) == 0
    captured = capsys.readouterr().out
    assert "2000" in captured
    assert "sql>" not in captured  # no prompt when stdin is not a TTY


def test_load_database_micro_defaults():
    import argparse
    args = argparse.Namespace(rows=1_000, tpch=None)
    database, mode = load_database(args)
    assert mode == "tuned"
    assert database.table("micro").row_count == 1_000


def test_analyze_prints_per_query_ledger(db):
    output = run_session(
        db,
        "SELECT count(*) AS n FROM nums WHERE b < 10;\n\\analyze\n",
    )
    assert "statistics refreshed" in output
    assert "last query ledger:" in output
    assert "pages read" in output and "buffer" in output
    # Before any statement has run there is no ledger to print.
    fresh = run_session(db, "\\analyze\n")
    assert "last query ledger:" not in fresh


def test_clients_meta_replays_last_statement_interleaved(db):
    output = run_session(
        db,
        "SELECT count(*) AS n FROM nums WHERE b < 25;\n\\clients 3\n",
    )
    assert "3 interleaved clients" in output
    assert "ledgers sum to runtime totals: ok" in output
    for client in ("c1", "c2", "c3"):
        assert client in output
    # Every client produced the same single aggregate row.
    assert output.count("1 rows") == 3


def test_clients_meta_rejects_bad_input(db):
    output = run_session(
        db,
        "\\clients 2\n"                     # nothing to replay yet
        "SELECT a FROM nums LIMIT 1;\n"
        "\\clients zero\n\\clients 0\n",    # not a count / out of range
    )
    assert "no statement to replay" in output
    assert "takes a client count" in output
    assert "between 1 and 32" in output


def test_metrics_meta_prints_deterministic_exposition():
    # A private database: the module fixture's tracer state is shared
    # across tests, this assertion wants exact counter values.
    database = Database()
    database.load_table(
        "nums", Schema.of_ints(["a", "b"]),
        [(i, (i * 13) % 50) for i in range(3_000)],
    )
    database.create_index("nums", "b")
    database.analyze()
    script = ("SELECT count(*) AS n FROM nums WHERE b < 10;\n"
              "SELECT count(*) AS n FROM nums WHERE b < 10;\n"
              "\\metrics\n")
    output = run_session(database, script)
    assert "# repro telemetry metrics v1" in output
    assert "counter queries_total 2" in output
    assert "counter plan_cache_hits_total 1" in output
    assert "counter plan_cache_misses_total 1" in output
    # Plan-cache gauges fold in from the same structured stats dict.
    assert "gauge plan_cache_entries 1" in output
    assert "histogram query_io_ms count=2" in output


def test_metrics_meta_listed_in_help(db):
    output = run_session(db, "\\help\n")
    assert "\\metrics" in output
