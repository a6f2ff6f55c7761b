"""Group-by and scalar aggregation.

A :class:`HashAggregate` with an empty group-by acts as a scalar aggregate
that always emits exactly one row — the shape of TPC-H Q6.  Aggregate
inputs can be plain columns or computed expressions (``value`` callables,
optionally paired with a ``vector`` chunk implementation), covering forms
like ``sum(l_extendedprice * (1 - l_discount))``.

The columnar path accumulates into per-spec NumPy state arrays indexed by
group ordinal, using the *unbuffered* ufunc methods (``np.add.at``,
``np.minimum.at``, ``np.maximum.at``), which apply element-wise in index
order — bitwise identical to the row loop's sequential ``total += value``
(unlike ``np.sum``'s pairwise reduction, which is not).  Whenever a batch
cannot be handled exactly (an object column, a NULL, a NaN under min/max),
the array state is demoted *losslessly* into the row accumulators and
execution continues tuple-at-a-time — values, not just results, stay
byte-for-byte equal to accumulating every row tuple-at-a-time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.context import ExecutionContext
from repro.errors import PlanningError
from repro.exec.iterator import Chunk, DEFAULT_BATCH_SIZE, Operator
from repro.storage.types import Column, ColumnType, Row, Schema

try:  # pragma: no cover - exercised implicitly when numpy is present
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_SUPPORTED = ("sum", "count", "avg", "min", "max")

#: Schema types whose chunk columns are int64 arrays.
_INT_TYPES = (ColumnType.INT, ColumnType.BIGINT, ColumnType.DATE)


def aggregate_output_columns(schema: "Schema", group_by: Sequence[str],
                             aggs: Sequence["AggSpec"]) -> list[Column]:
    """The output layout of an aggregation: group keys, then aggregates.

    The single source of truth for the schema rule — shared by
    :class:`HashAggregate` and by planners/binders that must predict the
    aggregate's output before building it.  Counts are INT; min/max of a
    plain column keep that column's type (and CHAR width); everything
    else uses the spec's declared ``ctype``.
    """
    columns = [schema.columns[schema.index_of(c)] for c in group_by]
    for spec in aggs:
        if spec.func == "count":
            columns.append(Column(spec.output, ColumnType.INT))
        elif spec.func in ("min", "max") and spec.column is not None:
            src = schema.columns[schema.index_of(spec.column)]
            columns.append(Column(spec.output, src.ctype, src.length))
        else:
            columns.append(Column(spec.output, spec.ctype))
    return columns


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output.

    Attributes:
        func: one of ``sum, count, avg, min, max``.
        output: output column name.
        column: input column name, or ``None`` for ``count(*)``.
        value: optional ``row -> value`` callable overriding ``column``.
        ctype: output column type (FLOAT by default for sum/avg).
        vector: optional ``chunk -> ndarray`` columnar counterpart of
            ``value``; must be value-equivalent row-for-row.  Returning
            ``None`` at runtime falls back to ``value``.
    """

    func: str
    output: str
    column: str | None = None
    value: Callable[[Row], object] | None = None
    ctype: ColumnType = ColumnType.FLOAT
    vector: Optional[Callable[[Chunk], object]] = None

    def __post_init__(self) -> None:
        if self.func not in _SUPPORTED:
            raise PlanningError(
                f"unsupported aggregate {self.func!r}; pick from {_SUPPORTED}"
            )
        if self.func != "count" and self.column is None and self.value is None:
            raise PlanningError(f"{self.func} needs a column or value callable")


class _Accumulator:
    """Mutable per-group state for one AggSpec."""

    __slots__ = ("func", "count", "total", "best")

    def __init__(self, func: str):
        self.func = func
        self.count = 0
        self.total = 0.0
        self.best = None

    def add(self, value: object) -> None:
        if value is None:
            return  # SQL semantics: aggregates skip NULLs
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total += value  # type: ignore[operator]
        elif self.func == "min":
            if self.best is None or value < self.best:  # type: ignore[operator]
                self.best = value
        elif self.func == "max":
            if self.best is None or value > self.best:  # type: ignore[operator]
                self.best = value

    def result(self) -> object:
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count if self.count else None
        return self.best


_FAIL = object()


class _SpecArrays:
    """Array-backed accumulator state for one vector-eligible AggSpec.

    One growable array per aggregate, indexed by group ordinal; updates
    go through the unbuffered ufunc ``.at`` methods, whose element-wise,
    in-order application makes the state bitwise equal to the row
    accumulators at every point — which is what makes mid-stream
    demotion (``demote_into``) lossless.
    """

    __slots__ = ("func", "source", "pos", "vector", "want_int",
                 "totals", "counts", "best")

    def __init__(self, func: str, source: str, pos: int | None,
                 vector, want_int: bool):
        self.func = func
        self.source = source  # "star" | "col" | "vector"
        self.pos = pos
        self.vector = vector
        self.want_int = want_int
        self.totals = None
        self.counts = None
        self.best = None

    def ensure(self, capacity: int) -> None:
        """Grow state arrays to hold at least ``capacity`` groups."""
        f = self.func
        if f in ("sum", "avg"):
            self.totals = self._grow(self.totals, capacity, 0.0, _np.float64)
        if f in ("count", "avg"):
            self.counts = self._grow(self.counts, capacity, 0, _np.int64)
        if f in ("min", "max"):
            if self.want_int:
                info = _np.iinfo(_np.int64)
                fill = info.max if f == "min" else info.min
                self.best = self._grow(self.best, capacity, fill, _np.int64)
            else:
                fill = _np.inf if f == "min" else -_np.inf
                self.best = self._grow(self.best, capacity, fill, _np.float64)

    @staticmethod
    def _grow(arr, capacity: int, fill, dtype):
        if arr is not None and len(arr) >= capacity:
            return arr
        new_cap = max(capacity, 16, 0 if arr is None else 2 * len(arr))
        new = _np.full(new_cap, fill, dtype=dtype)
        if arr is not None:
            new[:len(arr)] = arr
        return new

    def fetch(self, chunk: Chunk):
        """This batch's value array, or ``_FAIL`` when not exactly usable."""
        if self.source == "star":
            return None
        if self.source == "col":
            arr = chunk.array(self.pos)
            if arr is None:
                return _FAIL  # object column: NULLs / CHAR / big ints
        else:
            arr = self.vector(chunk)
            if arr is None or not isinstance(arr, _np.ndarray):
                return _FAIL
        f = self.func
        if f == "count":
            return None  # presence of the array proves no NULLs
        if f in ("sum", "avg"):
            return arr if arr.dtype == _np.float64 \
                else arr.astype(_np.float64)
        if self.want_int:
            return arr if arr.dtype == _np.int64 else _FAIL
        if arr.dtype != _np.float64:
            return _FAIL
        if _np.isnan(arr).any():
            return _FAIL  # NaN min/max ordering differs from Python's
        return arr

    def apply(self, ords, values) -> None:
        f = self.func
        if f == "count":
            _np.add.at(self.counts, ords, 1)
        elif f == "sum":
            _np.add.at(self.totals, ords, values)
        elif f == "avg":
            _np.add.at(self.totals, ords, values)
            _np.add.at(self.counts, ords, 1)
        elif f == "min":
            _np.minimum.at(self.best, ords, values)
        else:
            _np.maximum.at(self.best, ords, values)

    def result(self, g: int) -> object:
        f = self.func
        if f == "count":
            return int(self.counts[g])
        if f == "sum":
            return float(self.totals[g])
        if f == "avg":
            count = int(self.counts[g])
            return float(self.totals[g]) / count if count else None
        return int(self.best[g]) if self.want_int else float(self.best[g])

    def demote_into(self, acc: "_Accumulator", g: int) -> None:
        """Copy group ``g``'s state into a row accumulator, losslessly."""
        f = self.func
        if f == "count":
            acc.count = int(self.counts[g])
        elif f == "sum":
            acc.total = float(self.totals[g])
        elif f == "avg":
            acc.total = float(self.totals[g])
            acc.count = int(self.counts[g])
        else:
            # Every existing group saw at least one value (array columns
            # carry no NULLs), so the sentinel never leaks out.
            acc.best = int(self.best[g]) if self.want_int \
                else float(self.best[g])


class _VectorState:
    """Whole-operator columnar aggregation state: ordinals + spec arrays."""

    __slots__ = ("gpos", "specs", "index")

    def __init__(self, gpos: list[int], specs: list[_SpecArrays]):
        self.gpos = gpos
        self.specs = specs
        self.index: dict[tuple, int] = {}

    def update(self, chunk: Chunk) -> bool:
        """Fold one chunk into the state; False ⇒ caller must demote.

        Fetches are validated for every spec *before* any state mutation,
        so a failed batch leaves the state untouched for demotion.
        """
        fetched = []
        for st in self.specs:
            values = st.fetch(chunk)
            if values is _FAIL:
                return False
            fetched.append(values)
        n = len(chunk)
        index = self.index
        if not self.gpos:
            if not index:
                index[()] = 0
            ords = _np.zeros(n, dtype=_np.intp)
        else:
            ords_list = []
            if len(self.gpos) == 1:
                for k in chunk.column_values(self.gpos[0]):
                    key = (k,)
                    g = index.get(key)
                    if g is None:
                        g = len(index)
                        index[key] = g
                    ords_list.append(g)
            else:
                cols = [chunk.column_values(p) for p in self.gpos]
                for key in zip(*cols, strict=False):
                    g = index.get(key)
                    if g is None:
                        g = len(index)
                        index[key] = g
                    ords_list.append(g)
            ords = _np.asarray(ords_list, dtype=_np.intp)
        capacity = len(index)
        for st in self.specs:
            st.ensure(capacity)
        for st, values in zip(self.specs, fetched, strict=False):
            st.apply(ords, values)
        return True

    def demote(self) -> dict[tuple, list["_Accumulator"]]:
        """Convert to row-accumulator groups, byte-for-byte equal."""
        groups: dict[tuple, list[_Accumulator]] = {}
        for key, g in self.index.items():
            accs = []
            for st in self.specs:
                acc = _Accumulator(st.func)
                st.demote_into(acc, g)
                accs.append(acc)
            groups[key] = accs
        return groups


class HashAggregate(Operator):
    """Hash-based grouping; with ``group_by=[]`` it is a scalar aggregate."""

    def __init__(self, child: Operator, group_by: Sequence[str],
                 aggs: Sequence[AggSpec]):
        if not aggs and not group_by:
            raise PlanningError("aggregate needs group keys or aggregates")
        self.child = child
        self.group_by = list(group_by)
        self.aggs = list(aggs)
        self._group_positions = [
            child.schema.index_of(c) for c in self.group_by
        ]
        self._getters: list[Callable[[Row], object] | None] = []
        for spec in self.aggs:
            if spec.value is not None:
                self._getters.append(spec.value)
            elif spec.column is not None:
                pos = child.schema.index_of(spec.column)
                self._getters.append(lambda row, _p=pos: row[_p])
            else:
                self._getters.append(None)  # count(*)
        self.schema = Schema(
            aggregate_output_columns(child.schema, self.group_by, self.aggs)
        )
        self._vector_plan = self._build_vector_plan(child.schema)

    def _build_vector_plan(self, schema: Schema) -> list[tuple] | None:
        """Per-spec ``_SpecArrays`` constructor args, or None if any spec
        cannot be aggregated columnarly with exact row-path semantics."""
        if _np is None:
            return None
        plan: list[tuple] = []
        for spec in self.aggs:
            if spec.value is not None:
                if spec.vector is None:
                    return None
                if spec.func in ("min", "max") \
                        and spec.ctype is not ColumnType.FLOAT:
                    return None
                plan.append((spec.func, "vector", None, spec.vector, False))
            elif spec.column is not None:
                pos = schema.index_of(spec.column)
                ctype = schema.columns[pos].ctype
                if ctype is ColumnType.CHAR:
                    return None
                plan.append((spec.func, "col", pos, None,
                             ctype in _INT_TYPES))
            else:
                plan.append((spec.func, "star", None, None, False))
        return plan

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def name(self) -> str:
        keys = ", ".join(self.group_by) or "<scalar>"
        funcs = ", ".join(f"{s.func}({s.column or '*'})" for s in self.aggs)
        return f"HashAggregate([{keys}] {funcs})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        groups: dict[tuple, list[_Accumulator]] = {}
        gpos = self._group_positions
        getters = self._getters
        vstate: _VectorState | None = None
        if self._vector_plan is not None:
            vstate = _VectorState(
                gpos, [_SpecArrays(*args) for args in self._vector_plan]
            )
        for batch in self.child.batches(ctx):
            ctx.charge_hash(len(batch))
            if vstate is not None:
                if vstate.update(batch):
                    continue
                # Inexact batch (object column, NaN …): demote the array
                # state and finish tuple-at-a-time.
                groups = vstate.demote()
                vstate = None
            for row in batch.to_rows():
                key = tuple(row[p] for p in gpos)
                accs = groups.get(key)
                if accs is None:
                    accs = [_Accumulator(s.func) for s in self.aggs]
                    groups[key] = accs
                for acc, getter in zip(accs, getters, strict=False):
                    acc.add(getter(row) if getter is not None else 1)
        if vstate is not None:
            out = list(self._vector_results(ctx, vstate))
        else:
            out = list(self._results(ctx, groups))
        names = self.schema.column_names
        for start in range(0, len(out), DEFAULT_BATCH_SIZE):
            yield Chunk.from_rows(names, out[start:start + DEFAULT_BATCH_SIZE])

    def _vector_results(self, ctx: ExecutionContext,
                        vstate: _VectorState) -> Iterator[Row]:
        """Finalize array state into output rows, in first-seen order —
        the same order the row-path dict would have produced."""
        if not vstate.index:
            yield from self._results(ctx, {})
            return
        for key, g in vstate.index.items():
            ctx.charge_emit()
            yield key + tuple(st.result(g) for st in vstate.specs)

    def _results(self, ctx: ExecutionContext,
                 groups: dict[tuple, list[_Accumulator]]) -> Iterator[Row]:
        """Finalize accumulators into output rows, charging emission."""
        if not groups and not self.group_by:
            # Scalar aggregates emit one row even on empty input.
            groups[()] = [_Accumulator(s.func) for s in self.aggs]
        for key, accs in groups.items():
            ctx.charge_emit()
            yield key + tuple(acc.result() for acc in accs)


def scalar_aggregate(child: Operator, aggs: Sequence[AggSpec]) -> HashAggregate:
    """Convenience wrapper: an aggregate with no grouping keys."""
    return HashAggregate(child, group_by=[], aggs=aggs)
