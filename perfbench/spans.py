"""Layer spans recorded from outside the engine.

The benchmark never edits the engine.  A :class:`SpanTracer` replaces
public functions and methods of each layer with thin wrappers that
record one span per call: layer name, start, end, parent span and the
statement it served.  Spans stay in memory; a layer's *self* time is its
span's duration minus the time its child spans cover.  :meth:`uninstall`
restores every original, so one process can run traced and untraced
phases back to back.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from typing import Callable

#: The span clock.  CLOCK_MONOTONIC is system-wide on Linux, so spans a
#: server subprocess records can be cut by windows its client measured.
clock = time.monotonic


@dataclass
class Span:
    """One finished call into a layer."""

    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 at top level
    stmt: object         # the statement the call served (-1: none)
    self_s: float = 0.0  # duration minus child spans
    value: float = 0.0   # per-call count taken from the result

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent,
                self.stmt, self.self_s, self.value]


@dataclass
class _Open:
    index: int
    name: str
    start: float
    parent: int
    child_s: float = 0.0


@dataclass
class SpanTracer:
    """Installs span wrappers and keeps the spans they record."""

    spans: list[Span] = field(default_factory=list)
    #: (start, end) of every garbage collection while installed.
    gc_pauses: list[tuple[float, float]] = field(default_factory=list)
    stmt: object = -1
    _stack: list[_Open] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)
    _gc_start: float = 0.0

    def wrap(self, owner: object, attr: str, name: str,
             value: Callable[[tuple, object], float] | None = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``value(args, result)`` optionally extracts a count from each
        call (rows in a batch, bytes in a frame) into ``Span.value``.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1].index if stack else -1
            index = len(spans)
            spans.append(None)  # reserve the slot: children come after
            frame = _Open(index, name, clock(), parent)
            stack.append(frame)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child_s += duration
                spans[index] = Span(
                    name, frame.start, end, parent, self.stmt,
                    duration - frame.child_s,
                    value(args, result) if value is not None else 0.0,
                )

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_pauses.append((self._gc_start, clock()))

    def install_gc(self) -> None:
        """Time every collection through ``gc.callbacks``."""
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped original (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def dump(self, path: str) -> None:
        """Write the finished spans and collections as JSON."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": [s.to_list() for s in self.spans
                                 if s is not None],
                       "gc_pauses": self.gc_pauses}, out)

    def window(self, start: float, end: float) -> list[Span]:
        """Finished spans that started inside ``[start, end)``."""
        return [s for s in self.spans
                if s is not None and start <= s.start < end]


def install_engine_spans(tracer: SpanTracer) -> None:
    """Wrap the public entry point of every engine layer.

    The names are the layer metrics' prefixes: ``setup.*`` for the
    set-up path, then one per stage of the statement path.
    """
    import repro.experiments.fig1 as fig1
    import repro.sql as sql
    from repro.api.session import Cursor
    from repro.database import Database
    from repro.exec.stats import StreamingRun
    from repro.optimizer.advisor import IndexAdvisor
    from repro.optimizer.plan_cache import PlanCache
    from repro.optimizer.planner import Planner
    from repro.optimizer.statistics import StatisticsCatalog
    from repro.server import protocol
    from repro.server.admission import AdmissionController
    from repro.server.session import ServerSession

    wrap = tracer.wrap
    wrap(Database, "load_table", "setup.generate_load")
    wrap(fig1, "generate_tpch", "setup.generate_load")
    wrap(Database, "create_index", "setup.index_build")
    wrap(Database, "analyze", "setup.analyze")
    wrap(StatisticsCatalog, "analyze", "setup.analyze")
    wrap(IndexAdvisor, "recommend", "setup.advisor")
    wrap(IndexAdvisor, "apply", "setup.advisor")
    wrap(Database, "shard_table", "setup.shard")
    wrap(sql, "compile_statement", "sql.compile")
    wrap(Planner, "plan_query", "optimizer.plan")
    wrap(PlanCache, "lookup", "optimizer.cache_lookup",
         value=lambda _args, recipe: 0.0 if recipe is None else 1.0)
    wrap(AdmissionController, "decide", "server.admission")
    wrap(ServerSession, "handle", "server.handle")
    wrap(ServerSession, "drain_step", "server.drain_step")
    wrap(protocol, "encode_frame", "server.encode",
         value=lambda _args, data: float(len(data)))
    wrap(protocol, "decode_frame", "server.decode")
    wrap(StreamingRun, "next_batch", "exec.drain",
         value=lambda _args, batch: float(len(batch or ())))
    for method in ("fetchone", "fetchmany", "fetchall"):
        wrap(Cursor, method, "api.fetch")
    tracer.install_gc()


@dataclass
class LayerTotals:
    """Per-layer sums over a set of spans."""

    calls: int = 0
    self_s: float = 0.0
    value: float = 0.0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Sum calls, self time and counted values per span name."""
    totals: dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.self_s += span.self_s
        entry.value += span.value
    return totals


def top_level_s(spans: list[Span]) -> float:
    """Wall time covered by top-level spans (children lie inside)."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
