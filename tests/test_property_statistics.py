"""Differential property tests: columnar ANALYZE vs. a row-at-a-time oracle.

``StatisticsCatalog.analyze`` summarizes typed (int64/float64) columns
with vectorized NumPy reductions.  Statistics feed plan choices, so they
must be bit-identical to the plain-Python definitions kept here as the
reference: one pass over ``(TID, row)`` pairs, Python ``min``/``max``/
``set``, and per-value float bucket arithmetic.  Identity is checked with
``==`` *and* ``repr`` (which tells ``0.0`` from ``-0.0``, ``1`` from
``1.0`` and NumPy scalars from built-ins); inputs the reference rejects
must raise the same exception type.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.optimizer.statistics import (
    ColumnStats,
    Histogram,
    StatisticsCatalog,
    TableStats,
)
from repro.storage.types import Column, ColumnType, Schema

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


# -- the row-at-a-time reference ------------------------------------------


def reference_analyze(rng, table, sample_rate=1.0, buckets=100,
                      prefix_fraction=None):
    """Row-at-a-time ANALYZE over ``table.heap.iter_rows()``."""
    seen_rows = table.row_count
    if prefix_fraction is not None:
        seen_rows = max(1, int(table.row_count * prefix_fraction))
    stats = TableStats(
        table=table.name,
        row_count=seen_rows,
        num_pages=max(1, int(
            table.num_pages
            * (prefix_fraction if prefix_fraction is not None else 1.0)
        )),
    )
    for name in table.schema.column_names:
        pos = table.schema.index_of(name)
        values = []
        for i, (_tid, row) in enumerate(table.heap.iter_rows()):
            if i >= seen_rows:
                break
            if sample_rate >= 1.0 or rng.random() < sample_rate:
                values.append(row[pos])
        stats.columns[name] = reference_column_stats(name, values,
                                                     seen_rows, buckets)
    return stats


def reference_column_stats(name, values, row_count, buckets):
    if not values:
        return ColumnStats(column=name, row_count=row_count,
                           min_value=None, max_value=None, ndv=0)
    numeric = all(isinstance(v, (int, float)) for v in values)
    lo, hi = min(values), max(values)
    ndv = len(set(values))
    histogram = None
    if numeric:
        counts = [0] * buckets
        span = float(hi) - float(lo)
        for v in values:
            if span <= 0:
                counts[0] += 1
            else:
                b = min(buckets - 1,
                        int((float(v) - float(lo)) / span * buckets))
                counts[b] += 1
        histogram = Histogram(lo=float(lo), hi=float(hi), counts=counts)
    return ColumnStats(column=name, row_count=row_count,
                       min_value=lo, max_value=hi, ndv=ndv,
                       histogram=histogram)


# -- harness ---------------------------------------------------------------


def make_table(columns):
    """A table whose column ``c{i}`` holds ``columns[i]`` (equal lengths)."""
    schema = Schema([Column(f"c{i}", ColumnType.INT)
                     for i in range(len(columns))])
    db = Database()
    return db.load_table("t", schema, list(zip(*columns, strict=True)))


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # the exception type is the outcome
        return "raised", type(exc)


def assert_same_stats(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] is want[1]
        return
    got, want = got[1], want[1]
    assert got == want
    assert repr(got) == repr(want)
    for name, col in want.columns.items():
        mine = got.columns[name]
        assert type(mine.min_value) is type(col.min_value)
        assert type(mine.max_value) is type(col.max_value)
        if col.histogram is not None:
            assert all(type(c) is int for c in mine.histogram.counts)


def check(columns, sample_rate=1.0, buckets=100, prefix_fraction=None,
          seed=0):
    table = make_table(columns)
    catalog = StatisticsCatalog(seed=seed)
    rng = random.Random(seed)
    # Twice in a row: sampling must leave both generators in step.
    for _ in range(2):
        got = outcome(lambda: catalog.analyze(
            table, sample_rate=sample_rate, buckets=buckets,
            prefix_fraction=prefix_fraction))
        want = outcome(lambda: reference_analyze(
            rng, table, sample_rate=sample_rate, buckets=buckets,
            prefix_fraction=prefix_fraction))
        assert_same_stats(got, want)


# -- value strategies ------------------------------------------------------

_INTS = st.one_of(
    st.lists(st.integers(-5, 5), min_size=1, max_size=200),
    st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=100),
    st.lists(st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1,
                              INT64_MAX - 1, INT64_MAX]),
             min_size=1, max_size=100),
    st.tuples(st.integers(INT64_MIN, INT64_MAX),
              st.integers(1, 200)).map(lambda p: [p[0]] * p[1]),
)

_FLOATS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=1, max_size=200),
    st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300]),
             min_size=1, max_size=100),
    st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]),
             min_size=1, max_size=200),
)

# Columns the vectorized path must hand to the object path, or that the
# reference itself rejects: CHAR, NULL-bearing, mixed int/float, bools,
# big ints, non-finite floats and float spans that overflow.
_OBJECTS = st.one_of(
    st.lists(st.text(max_size=6), min_size=1, max_size=100),
    st.lists(st.none() | st.integers(-3, 3), min_size=1, max_size=20),
    st.lists(st.none(), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3) | st.floats(-3, 3), min_size=1,
             max_size=50),
    st.lists(st.booleans(), min_size=1, max_size=50),
    st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=50),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=50),
    st.lists(st.sampled_from([-1.7e308, 1.7e308, 0.0]), min_size=1,
             max_size=10),
)


# -- properties --------------------------------------------------------------


@SETTINGS
@given(values=_INTS, buckets=st.integers(1, 120))
def test_int_columns_match_reference(values, buckets):
    check([values], buckets=buckets)


@SETTINGS
@given(values=_FLOATS, buckets=st.integers(1, 120))
def test_float_columns_match_reference(values, buckets):
    check([values], buckets=buckets)


@SETTINGS
@given(values=_OBJECTS)
def test_object_columns_match_reference(values):
    check([values])


def test_empty_and_zero_bucket_columns_match_reference():
    check([[]])
    check([[1, 2, 3]], buckets=0)
    check([[1.5, -0.0, 0.0]], buckets=0)


@SETTINGS
@given(
    data=st.data(),
    rate=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32),
)
def test_sampled_analyze_draws_in_reference_order(data, rate, seed):
    n = data.draw(st.integers(0, 150))
    columns = [
        data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
        data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)),
        data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)),
    ]
    check(columns, sample_rate=rate, seed=seed)


@SETTINGS
@given(
    data=st.data(),
    prefix=st.floats(0.01, 1.0),
    rate=st.sampled_from([1.0, 0.5]),
)
def test_prefix_fraction_matches_reference(data, prefix, rate):
    n = data.draw(st.integers(1, 400))
    columns = [
        list(range(n)),
        data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)),
        data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)),
    ]
    check(columns, sample_rate=rate, prefix_fraction=prefix)
