"""Slotted heap pages.

A :class:`HeapPage` stores up to ``capacity`` fixed-size rows.  Slots are
append-only (this reproduction never deletes), so slot numbers are stable
and a :class:`~repro.storage.types.TID` uniquely names a row forever.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import PageFullError, StorageError
from repro.storage.chunk import Chunk
from repro.storage.types import Row


class HeapPage:
    """One fixed-capacity page of rows."""

    __slots__ = ("page_id", "capacity", "_rows", "_chunk")

    def __init__(self, page_id: int, capacity: int):
        if capacity < 1:
            raise StorageError("page capacity must be >= 1")
        self.page_id = page_id
        self.capacity = capacity
        self._rows: list[Row] = []
        self._chunk: Chunk | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    @property
    def is_full(self) -> bool:
        """True when no slot is free."""
        return len(self._rows) >= self.capacity

    def insert(self, row: Row) -> int:
        """Append ``row``; returns its slot number."""
        if self.is_full:
            raise PageFullError(
                f"page {self.page_id} is full ({self.capacity} slots)"
            )
        self._rows.append(row)
        self._chunk = None
        return len(self._rows) - 1

    def extend(self, rows: list[Row]) -> None:
        """Append ``rows`` in slot order; raises PageFullError if they
        do not all fit."""
        if len(self._rows) + len(rows) > self.capacity:
            raise PageFullError(
                f"page {self.page_id} has {self.capacity - len(self._rows)}"
                f" free slots, not {len(rows)}"
            )
        self._rows.extend(rows)
        self._chunk = None

    def get(self, slot: int) -> Row:
        """Return the row in ``slot``; raises StorageError if unused."""
        if not 0 <= slot < len(self._rows):
            raise StorageError(
                f"slot {slot} not in use on page {self.page_id} "
                f"({len(self._rows)} rows)"
            )
        return self._rows[slot]

    def rows_with_slots(self) -> Iterator[tuple[int, Row]]:
        """Yield ``(slot, row)`` pairs in slot order."""
        return iter(enumerate(self._rows))

    def all_rows(self) -> list[Row]:
        """The page's row list in slot order (``rows[slot]`` is slot's row).

        Batch-vectorized operators read this directly instead of paying a
        per-row iterator; callers must treat the list as read-only.
        """
        return self._rows

    def chunk(self, names: tuple[str, ...]) -> Chunk:
        """The page payload as a columnar :class:`Chunk`, cached per page.

        The cache is invalidated by :meth:`insert`, so in the steady state
        (bulk load, then scan-heavy workloads) each page pays the
        row→column transposition once per lifetime.  Callers must treat
        the chunk as read-only.
        """
        chunk = self._chunk
        if chunk is None or chunk.names != names:
            chunk = Chunk.from_rows(names, self._rows).columnar()
            self._chunk = chunk
        return chunk
