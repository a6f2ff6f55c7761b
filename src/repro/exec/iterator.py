"""Volcano-style physical operators with columnar batch execution.

Every operator exposes its output :class:`~repro.storage.types.Schema` and
one execution protocol, :meth:`Operator.batches`: a generator of
:class:`~repro.storage.chunk.Chunk` batches (named, array-backed columns
plus an optional selection vector), charging simulated costs through the
:class:`~repro.context.ExecutionContext` as it goes.  Generators keep the
pipelined execution model whose preservation is one of Smooth Scan's
selling points over the blocking Sort Scan; batching amortizes per-tuple
Python overhead (generator resumption, closure calls, scalar boxing)
over whole heap pages or morphing-region runs.  Operators on the hot
path run columnar — predicates compile to boolean masks over whole
columns (:meth:`~repro.exec.expressions.Predicate.bind_mask`), filters
narrow chunks by selection vector instead of copying rows, and simulated
costs are charged in bulk.  Operators whose work is inherently
tuple-at-a-time (index probes, joins that concatenate rows) collect rows
and wrap them with :meth:`Chunk.from_rows`, which transposes only if a
consumer reads a column.

:meth:`Operator.rows` is not a second protocol: it flattens
``batches()`` for callers at the API and test boundaries, and no
operator overrides it (``repro-lint`` rule RPL106 enforces both halves).

Batch contract:

* a batch is a non-empty :class:`Chunk` — it supports ``len()``,
  iteration yielding row tuples, indexing and slicing; an empty producer
  yields *zero* batches, never an empty one;
* ``Chunk.to_rows()`` round-trips exactly, including NULLs and CHAR
  values, and always yields built-in Python scalars;
* batch sizes are bounded but not fixed — natural producer units (a heap
  page, an extent run, a morphing region) are preferred over re-chunking,
  and row-collecting operators flush at :data:`DEFAULT_BATCH_SIZE`;
* charges key off page/run/tuple counts, which the chunk carries, so the
  columnar representation is invisible to the cost model.  Draining
  children in whole batches clusters each subtree's page accesses, and
  the simulated disk (head position) and buffer pool (LRU locality)
  reward that, exactly as real hardware rewards vectorized execution.
  Cold-run figures are measured on this protocol (see
  :func:`~repro.exec.stats.measure`).
"""

from __future__ import annotations

from abc import ABC
from typing import Iterator

from repro.context import ExecutionContext
from repro.storage.chunk import Chunk
from repro.storage.types import Row, Schema

#: Rows per batch for operators that collect rows before flushing.
DEFAULT_BATCH_SIZE = 1024

__all__ = [
    "Chunk",
    "DEFAULT_BATCH_SIZE",
    "Operator",
    "explain",
]


class Operator(ABC):
    """Base class of all physical operators."""

    #: Output schema; set by each concrete operator's ``__init__``.
    schema: Schema

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Yield output batches (non-empty chunks), charging costs.

        The one method a concrete operator must implement.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batches()"
        )

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        """Yield output rows: :meth:`batches`, flattened."""
        for batch in self.batches(ctx):
            yield from batch.to_rows()

    def children(self) -> tuple["Operator", ...]:
        """Child operators, for plan display; leaves return ()."""
        return ()

    def name(self) -> str:
        """Short display name used by :func:`explain`."""
        return type(self).__name__

    def collect(self, ctx: ExecutionContext) -> list[Row]:
        """Run to completion and materialize all output rows."""
        out: list[Row] = []
        for batch in self.batches(ctx):
            out.extend(batch.to_rows())
        return out


def explain(op: Operator, depth: int = 0) -> str:
    """Render an operator tree as an indented single-string plan."""
    lines = ["  " * depth + f"-> {op.name()}"]
    for child in op.children():
        lines.append(explain(child, depth + 1))
    return "\n".join(lines)
