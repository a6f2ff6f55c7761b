"""The Sort operator.

A blocking in-memory sort that falls back to a simulated external merge
sort (write runs + read back, both sequential) when the input exceeds
``work_mem``.  This is the "posterior sorting" cost that Full Scan and
Sort Scan pay under an ``ORDER BY`` in Figure 5a while Smooth Scan, which
already emits in key order, does not.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.context import ExecutionContext
from repro.errors import PlanningError
from repro.exec.iterator import Chunk, DEFAULT_BATCH_SIZE, Operator
from repro.storage.types import Row

try:  # pragma: no cover - exercised implicitly when numpy is present
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class Sort(Operator):
    """Sort child rows by one or more ``(column, ascending)`` keys."""

    def __init__(self, child: Operator,
                 keys: Sequence[tuple[str, bool]] | Sequence[str]):
        if not keys:
            raise PlanningError("Sort needs at least one key")
        self.child = child
        self.schema = child.schema
        self.keys: list[tuple[str, bool]] = [
            (k, True) if isinstance(k, str) else (k[0], bool(k[1]))
            for k in keys
        ]
        for column, _asc in self.keys:
            self.schema.index_of(column)  # validate eagerly

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def name(self) -> str:
        order = ", ".join(
            f"{c}{'' if asc else ' DESC'}" for c, asc in self.keys
        )
        return f"Sort({order})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        batches = list(self.child.batches(ctx))
        if not batches:
            return
        merged = Chunk.concat(batches)
        perm = self._columnar_perm(merged)
        if perm is not None:
            n = len(merged)
            if n > 1:
                ctx.charge_compare(n * max(1, (n - 1).bit_length()))
                self._charge_spill(ctx, n)
                merged = merged.take(perm)
            for start in range(0, n, DEFAULT_BATCH_SIZE):
                yield merged[start:start + DEFAULT_BATCH_SIZE]
            return
        data = self._sorted(ctx, list(merged.to_rows()))
        names = self.schema.column_names
        for start in range(0, len(data), DEFAULT_BATCH_SIZE):
            yield Chunk.from_rows(names, data[start:start + DEFAULT_BATCH_SIZE])

    def _columnar_perm(self, chunk: Chunk):
        """Stable multi-key sort permutation via successive argsorts.

        Returns ``None`` when ineligible — a descending key, or a key
        column that is not array-backed — in which case the caller falls
        back to the row sort.  Successive stable argsort passes applied
        last-key-first produce exactly the permutation of the equivalent
        chain of stable ``list.sort`` calls.
        """
        if _np is None:
            return None
        positions = []
        for column, ascending in self.keys:
            if not ascending:
                return None
            pos = self.schema.index_of(column)
            if chunk.array(pos) is None:
                return None
            positions.append(pos)
        perm = _np.arange(len(chunk))
        for pos in reversed(positions):
            col = chunk.array(pos)
            perm = perm[_np.argsort(col[perm], kind="stable")]
        return perm

    def _sorted(self, ctx: ExecutionContext, data: list[Row]) -> list[Row]:
        """Sort the materialized input in place, charging compare + spill."""
        n = len(data)
        if n > 1:
            # Stable multi-key sort: apply keys last-to-first.
            for column, ascending in reversed(self.keys):
                idx = self.schema.index_of(column)
                data.sort(key=lambda row: row[idx], reverse=not ascending)
            ctx.charge_compare(n * max(1, (n - 1).bit_length()))
            self._charge_spill(ctx, n)
        return data

    def _charge_spill(self, ctx: ExecutionContext, n_rows: int) -> None:
        """Charge external-sort I/O when the input exceeds work_mem."""
        tuple_size = self.schema.tuple_size(ctx.config.tuple_header)
        data_pages = math.ceil(
            n_rows * tuple_size / ctx.config.usable_page_bytes
        )
        if data_pages > ctx.config.work_mem_pages:
            ctx.disk.spill(data_pages)
