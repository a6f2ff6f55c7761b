"""Golden tests for SQL error reporting.

Error messages are part of the front end's contract: every failure names
what went wrong, where (line, column, caret), and — for unknown names —
what *would* have been accepted.  These tests pin exact message text, so
format changes are deliberate.
"""

import pytest

from repro.database import Database
from repro.errors import SqlError, StorageError
from repro.sql import compile_statement, parse
from repro.storage.types import Column, ColumnType, Schema


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.load_table(
        "micro",
        Schema([Column("c1"), Column("c2"),
                Column("tag", ColumnType.CHAR, 4)]),
        [(i, i * 2, f"t{i:03d}") for i in range(100)],
    )
    return database


def message_of(callable_, *args):
    with pytest.raises(SqlError) as excinfo:
        callable_(*args)
    return str(excinfo.value)


# -- lexer -------------------------------------------------------------------

def test_unterminated_string_golden(db):
    # The caret points at end of input — where the closing quote is
    # missing — and the message names where the literal opened.
    message = message_of(parse, "SELECT * FROM micro WHERE c1 = 'abc")
    assert message == (
        "unterminated string literal (opened at line 1, column 32) "
        "at line 1, column 36\n"
        "  SELECT * FROM micro WHERE c1 = 'abc\n"
        "                                     ^"
    )


def test_unterminated_string_multiline_caret_at_eof(db):
    message = message_of(parse, "SELECT *\nFROM micro\nWHERE tag = 'ab")
    assert message == (
        "unterminated string literal (opened at line 3, column 13) "
        "at line 3, column 16\n"
        "  WHERE tag = 'ab\n"
        "                 ^"
    )


def test_unterminated_comment(db):
    message = message_of(parse, "SELECT * /* oops FROM micro")
    assert ("unterminated comment (opened at line 1, column 10) "
            "at line 1, column 28") in message


def test_unterminated_hint_golden(db):
    message = message_of(parse, "SELECT /*+ smooth * FROM micro")
    assert message == (
        "unterminated hint comment (opened at line 1, column 8) "
        "at line 1, column 31\n"
        "  SELECT /*+ smooth * FROM micro\n"
        "                                ^"
    )


def test_bare_colon_is_not_a_parameter(db):
    message = message_of(parse, "SELECT * FROM micro WHERE c1 = :")
    assert message == (
        "expected a parameter name after ':' at line 1, column 32\n"
        "  SELECT * FROM micro WHERE c1 = :\n"
        "                                 ^"
    )


# -- parser ------------------------------------------------------------------

def test_misspelled_select_golden(db):
    message = message_of(parse, "SELCT * FROM micro")
    assert message == (
        "expected keyword SELECT, got identifier 'SELCT' "
        "at line 1, column 1\n"
        "  SELCT * FROM micro\n"
        "  ^"
    )


def test_misspelled_from_golden(db):
    message = message_of(parse, "SELECT * FORM micro")
    assert message == (
        "expected keyword FROM, got identifier 'FORM' "
        "at line 1, column 10\n"
        "  SELECT * FORM micro\n"
        "           ^"
    )


def test_position_tracks_multiline_statements(db):
    message = message_of(parse, "SELECT *\nFROM micro\nWHERE c1 == 1")
    assert "at line 3, column 11" in message
    assert message.endswith("  WHERE c1 == 1\n            ^")


def test_mixed_parameter_styles_golden(db):
    message = message_of(
        parse, "SELECT * FROM micro WHERE c1 = ? AND c2 = :hi"
    )
    assert ("cannot mix '?' and ':name' parameter styles in one "
            "statement at line 1, column 43") in message


# -- binder ------------------------------------------------------------------

def test_unknown_table_lists_known(db):
    message = message_of(compile_statement, db, "SELECT * FROM macro")
    assert "unknown table 'macro'; known tables: micro" in message
    assert "at line 1, column 1" in message


def test_unknown_column_golden(db):
    message = message_of(compile_statement, db,
                         "SELECT * FROM micro WHERE c9 = 1")
    assert message == (
        "unknown column 'c9'; known columns: micro(c1, c2, tag) "
        "at line 1, column 27\n"
        "  SELECT * FROM micro WHERE c9 = 1\n"
        "                            ^"
    )


def test_unknown_select_column_lists_known(db):
    message = message_of(compile_statement, db, "SELECT nope FROM micro")
    assert "unknown column 'nope'; known columns: micro(c1, c2, tag)" in message


def test_bad_hint_name_golden(db):
    message = message_of(compile_statement, db,
                         "SELECT /*+ no_such_hint */ * FROM micro")
    assert ("unknown hint 'no_such_hint'; valid hints: force_path, "
            "no_inlj, no_index, no_sort_scan, smooth") in message
    assert "at line 1, column 8" in message


def test_bad_force_path_argument(db):
    message = message_of(compile_statement, db,
                         "SELECT /*+ force_path(warp) */ * FROM micro")
    assert "force_path takes one of ('full', 'index', 'sort', 'smooth')" \
        in message


def test_malformed_hint_missing_paren(db):
    message = message_of(compile_statement, db,
                         "SELECT /*+ force_path(smooth */ * FROM micro")
    assert "malformed hint" in message


def test_unsupported_like_pattern(db):
    message = message_of(
        compile_statement, db,
        "SELECT * FROM micro WHERE tag LIKE 'a%b%c'",
    )
    assert "unsupported LIKE pattern 'a%b%c'" in message


# -- Database.table (non-SQL path shares the listing behaviour) --------------

def test_database_table_error_lists_known(db):
    with pytest.raises(StorageError) as excinfo:
        db.table("macro")
    assert str(excinfo.value) == \
        "no table named 'macro'; known tables: micro"


def test_database_table_error_when_empty():
    with pytest.raises(StorageError) as excinfo:
        Database().table("anything")
    assert "known tables: (no tables loaded)" in str(excinfo.value)


# -- typed literals and parameters -------------------------------------------

@pytest.fixture(scope="module")
def indexed():
    """A micro table whose c2 index the planner uses for range probes."""
    from repro.workloads.micro import build_micro_table
    database = Database()
    build_micro_table(database, num_tuples=6_000, seed=3)
    database.analyze()
    return database


MISTYPED = [
    ("SELECT c1 FROM micro WHERE c2 < 'x'", None),
    ("SELECT c1 FROM micro WHERE c2 BETWEEN 'x' AND 20", None),
    ("SELECT c1 FROM micro WHERE c2 < ?", ("x",)),
]


def test_mistyped_literal_golden(indexed):
    message = message_of(compile_statement, indexed,
                         "SELECT c1 FROM micro WHERE c2 < 'x'")
    assert message == (
        "int column 'c2' cannot be compared with 'x'; the value must be "
        "numeric at line 1, column 33\n"
        "  SELECT c1 FROM micro WHERE c2 < 'x'\n"
        "                                  ^"
    )


def test_mistyped_between_bound_points_at_the_bound(indexed):
    message = message_of(compile_statement, indexed,
                         "SELECT c1 FROM micro WHERE c2 BETWEEN 'x' AND 20")
    assert "int column 'c2' cannot be compared with 'x'" in message
    assert "column 39" in message


def test_char_column_rejects_a_number(db):
    message = message_of(compile_statement, db,
                         "SELECT c1 FROM micro WHERE 5 <= tag")
    assert "char column 'tag' cannot be compared with 5" in message
    assert "must be a string" in message


@pytest.mark.parametrize("sql,params", MISTYPED)
def test_mistyped_values_raise_sql_error_from_the_cursor(indexed, sql,
                                                          params):
    cursor = indexed.connect().cursor()
    with pytest.raises(SqlError):
        cursor.execute(sql, params)
        cursor.fetchall()


def test_mistyped_parameter_names_the_parameter(indexed):
    conn = indexed.connect()
    positional = conn.prepare("SELECT c1 FROM micro WHERE c2 >= ? AND c2 < ?")
    message = message_of(positional.run, (0, "x"))
    assert message == ("parameter 2 is compared with int column 'c2' and "
                       "must be numeric, got 'x'")
    named = conn.prepare("SELECT c1 FROM micro WHERE c2 BETWEEN :lo AND 9")
    message = message_of(named.run, {"lo": None})
    assert message == (":lo is compared with int column 'c2' and must be "
                       "numeric, got None")
    # Well-typed values still run through the same prepared statement.
    assert positional.run((0, 50)).row_count >= 0
