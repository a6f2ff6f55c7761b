"""Batch execution checked against plain-Python oracles.

Hypothesis drives every access path and a small pipeline over random
data and compares what ``batches()`` produces with ground truth computed
in plain Python: the row multiset for every path, key order for ordered
Smooth Scans and the Index Scan, TID order for the Full and Sort Scans,
page-at-a-time slot order for the eager, unordered Smooth Scan, and
exact rows for a filter/project/limit pipeline.
Every batch must be a non-empty :class:`~repro.storage.chunk.Chunk`.
The golden capture of the same operators' charges lives in
``tests/test_batch_exec.py``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

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
from repro.exec.expressions import Between, InList, KeyRange
from repro.exec.misc import Filter, Limit, Project
from repro.exec.scans import FullTableScan, IndexScan, SortScan
from repro.storage.chunk import Chunk
from repro.storage.types import Schema

POLICIES = (GreedyPolicy, SelectivityIncreasePolicy, ElasticPolicy)


def _drain_chunks(plan, ctx) -> list:
    """The batch protocol, checking the batch contract on the way."""
    out: list = []
    for batch in plan.batches(ctx):
        assert isinstance(batch, Chunk), type(batch)
        assert len(batch), "operators must not yield empty batches"
        out += batch.to_rows()
    return out


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

def _build(values: list[tuple[int, int]]):
    db = Database()
    rows = [(i, k, r) for i, (k, r) in enumerate(values)]
    table = db.load_table("t", Schema.of_ints(["c1", "c2", "c3"]), rows)
    db.create_index("t", "c2")
    return db, table, rows


def _drain(db, plan) -> list:
    return _drain_chunks(plan, db.cold_run())


_values = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 9)),
    min_size=1, max_size=1_500,
)


@SETTINGS
@given(values=_values, lo=st.integers(0, 60), span=st.integers(0, 60),
       rmax=st.integers(0, 10))
def test_access_paths_against_python_oracle(values, lo, span, rmax):
    db, table, rows = _build(values)
    hi = lo + span
    key_range = KeyRange(lo, hi)
    residual = Between("c3", 0, rmax)
    # Ground truth in TID order (rows load in c1 order); key ranges and
    # Between are half-open.
    expected = [r for r in rows if lo <= r[1] < hi and r[2] < rmax]
    by_key = sorted(expected, key=lambda r: (r[1], r[0]))

    predicate = Between("c2", lo, hi)
    assert _drain(db, Filter(FullTableScan(table, predicate),
                             residual)) == expected
    assert _drain(db, SortScan(table, "c2", key_range,
                               residual=residual)) == expected
    assert _drain(db, IndexScan(table, "c2", key_range,
                                residual=residual)) == by_key
    switched = _drain(db, SwitchScan(table, "c2", key_range,
                                     residual=residual,
                                     threshold=len(expected) // 3))
    assert sorted(switched) == expected

    per_page = table.heap.tuples_per_page
    for policy in POLICIES:
        for trigger in (EagerTrigger(), OptimizerDrivenTrigger(7),
                        SLADrivenTrigger(11)):
            for ordered in (False, True):
                out = _drain(db, SmoothScan(
                    table, "c2", key_range, residual=residual,
                    policy=policy(), trigger=trigger, ordered=ordered,
                ))
                label = (policy.__name__, trigger.name, ordered)
                assert sorted(out) == expected, label
                if ordered:
                    keys = [r[1] for r in out]
                    assert keys == sorted(keys), label
                elif trigger.eager:
                    # Unordered, eager: whole pages at a time, each
                    # page's qualifying tuples together in slot order.
                    pages = [r[0] // per_page for r in out]
                    seen: set = set()
                    for i, page in enumerate(pages):
                        if i and page == pages[i - 1]:
                            assert out[i][0] > out[i - 1][0], label
                            continue
                        assert page not in seen, label
                        seen.add(page)


@SETTINGS
@given(values=_values, lo=st.integers(0, 60), span=st.integers(0, 60),
       limit=st.integers(0, 400))
def test_pipeline_against_python_oracle(values, lo, span, limit):
    db, table, rows = _build(values)
    hi = lo + span
    plan = Limit(
        Project(Filter(FullTableScan(table, Between("c2", lo, hi)),
                       InList("c3", (0, 2, 4, 6, 8))), ["c3", "c1"]),
        limit,
    )
    expected = [(r[2], r[0]) for r in rows
                if lo <= r[1] < hi and r[2] % 2 == 0][:limit]
    assert _drain(db, plan) == expected
