"""Seeded inputs and the plain-Python oracles that check every answer.

Everything the engine receives is generated here from the benchmark's
``--seed``; the oracles are computed from the same generated inputs,
never from the engine's own answers.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

#: The micro table's value domain (c2..c10 are uniform in [0, DOMAIN)).
DOMAIN = 100_000

#: Rows handed to the engine per generated slab (keeps generation lazy).
_SLAB = 8_192

#: Relative tolerance for floating-point aggregates (summation order
#: differs between access paths and the oracle).
FLOAT_REL_TOL = 1e-9


def micro_columns(num_rows: int, seed: int) -> np.ndarray:
    """The micro table as an ``(n, 10)`` int64 array: ``c1`` is the row
    number, ``c2``..``c10`` uniform in ``[0, DOMAIN)``."""
    rng = np.random.default_rng(seed)
    data = np.empty((num_rows, 10), dtype=np.int64)
    data[:, 0] = np.arange(num_rows, dtype=np.int64)
    data[:, 1:] = rng.integers(0, DOMAIN, size=(num_rows, 9),
                               dtype=np.int64)
    return data


def micro_rows(data: np.ndarray) -> Iterator[tuple]:
    """Lazy engine rows (tuples of Python ints) over ``data``."""
    for start in range(0, len(data), _SLAB):
        yield from map(tuple, data[start:start + _SLAB].tolist())


def load_micro(db, num_rows: int, seed: int) -> None:
    """Generate, load, index (``c1``, ``c2``) and analyze the micro table."""
    from repro.workloads.micro import micro_schema
    db.load_table("micro", micro_schema(),
                  micro_rows(micro_columns(num_rows, seed)))
    db.create_index("micro", "c1")
    db.create_index("micro", "c2")
    db.analyze("micro")


class MicroOracle:
    """Answers for ``c2`` ranges and ``c1`` lookups on the micro table."""

    def __init__(self, data: np.ndarray):
        self.data = data
        order = np.argsort(data[:, 1], kind="stable")
        self._order = order
        self._c2 = data[order, 1]
        self._c3_prefix = np.concatenate(
            ([0], np.cumsum(data[order, 2], dtype=np.int64)))

    def _bounds(self, lo: int, hi: int) -> tuple[int, int]:
        c2 = self._c2
        return (int(np.searchsorted(c2, lo, "left")),
                int(np.searchsorted(c2, hi, "left")))

    def count(self, lo: int, hi: int) -> int:
        a, b = self._bounds(lo, hi)
        return b - a

    def count_sum(self, lo: int, hi: int) -> tuple[int, int]:
        """``(count(*), sum(c3))`` over ``lo <= c2 < hi``.

        A sum over no rows is 0, not SQL's NULL: the engine's scalar
        aggregates pin that (tests/test_operators_aggregates.py,
        ``test_scalar_aggregate_on_empty_input``).
        """
        a, b = self._bounds(lo, hi)
        return b - a, int(self._c3_prefix[b] - self._c3_prefix[a])

    def row(self, c1: int) -> tuple:
        return tuple(self.data[c1].tolist())

    def check_range(self, rows: Sequence[Sequence[int]], lo: int, hi: int,
                    ordered: bool) -> str | None:
        """None when ``rows`` are exactly the rows with ``lo <= c2 < hi``
        (as a multiset, and in ``c2`` order when ``ordered``); else why
        not.  ``c1`` is unique, so count + genuine + distinct + in range
        is multiset equality."""
        expected = self.count(lo, hi)
        if len(rows) != expected:
            return f"{len(rows)} rows, expected {expected}"
        if not rows:
            return None
        got = np.asarray(rows, dtype=np.int64)
        if got.shape != (expected, self.data.shape[1]):
            return f"result shape {got.shape}"
        ids = got[:, 0]
        if ids.min() < 0 or ids.max() >= len(self.data):
            return "row id out of range"
        if not np.array_equal(got, self.data[ids]):
            return "a row differs from the generated row"
        if np.unique(ids).size != expected:
            return "duplicate rows"
        c2 = got[:, 1]
        if c2.min() < lo or c2.max() >= hi:
            return "a row outside the range"
        if ordered and np.any(np.diff(c2) < 0):
            return "rows not sorted by c2"
        return None


def floats_match(got: object, want: object) -> bool:
    """Equality with :data:`FLOAT_REL_TOL` for floats, exact otherwise."""
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return got is want
        return math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
    return got == want


def rows_match(got: Sequence[Sequence], want: Sequence[Sequence]) -> bool:
    """Row-by-row, value-by-value :func:`floats_match`."""
    return len(got) == len(want) and all(
        len(g) == len(w) and all(map(floats_match, g, w))
        for g, w in zip(got, want))


# -- TPC-H -----------------------------------------------------------------


def _column_rows(table, names: Sequence[str]) -> Iterator[tuple]:
    positions = [table.schema.index_of(n) for n in names]
    for _tid, row in table.heap.iter_rows():
        yield tuple(row[p] for p in positions)


def tpch_oracle(db) -> dict[str, list[tuple]]:
    """Q1, Q6 and Q14 (the ``SQL_QUERIES`` texts) evaluated in plain
    Python over the loaded rows."""
    from repro.workloads.tpch.schema import date

    lineitem = db.table("lineitem")
    cols = ("l_quantity", "l_extendedprice", "l_discount", "l_tax",
            "l_returnflag", "l_linestatus", "l_shipdate", "l_partkey")
    q1_cut = date(1998, 9, 2)
    q6_lo, q6_hi = date(1994, 1, 1), date(1995, 1, 1)
    q14_lo, q14_hi = date(1995, 9, 1), date(1995, 10, 1)
    promo = {key for key, ptype in _column_rows(db.table("part"),
                                               ("p_partkey", "p_type"))
             if ptype.startswith("PROMO")}
    groups: dict[tuple, list] = {}
    q6 = 0.0
    q14_promo = q14_all = 0.0
    for qty, price, disc, tax, flag, status, ship, partkey in \
            _column_rows(lineitem, cols):
        if ship <= q1_cut:
            acc = groups.setdefault((flag, status), [0.0] * 5 + [0])
            acc[0] += qty
            acc[1] += price
            acc[2] += price * (1 - disc)
            acc[3] += price * (1 - disc) * (1 + tax)
            acc[4] += disc
            acc[5] += 1
        if q6_lo <= ship < q6_hi and 0.05 <= disc <= 0.07 and qty < 24:
            q6 += price * disc
        if q14_lo <= ship < q14_hi:
            revenue = price * (1 - disc)
            q14_all += revenue
            if partkey in promo:
                q14_promo += revenue
    q1 = []
    for (flag, status), acc in sorted(groups.items()):
        n = acc[5]
        q1.append((flag, status, acc[0], acc[1], acc[2], acc[3],
                   acc[0] / n, acc[1] / n, acc[4] / n, n))
    return {
        "Q1": q1,
        "Q6": [(q6,)],   # 0 over no rows, as count_sum explains
        "Q14": [(100.0 * q14_promo / q14_all if q14_all else None,)],
    }
