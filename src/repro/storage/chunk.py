"""Columnar batch chunks: the unit of vectorized execution.

A :class:`Chunk` is a batch of rows stored column-wise: each column is
either a NumPy array (INT/BIGINT/DATE columns become ``int64``, FLOAT
columns ``float64``) or a plain Python list (the *object* fallback used
for CHAR columns, NULL-bearing columns, computed values, and anything
whose values do not round-trip through a fixed-width array — e.g.
integers outside the ``int64`` range).  An optional *selection vector*
names the positions that are logically present, so a filter can narrow a
chunk without copying column data.

Chunks are row-compatible by construction: they implement the read-only
sequence protocol over rows (``len``, iteration, indexing, slicing), and
:meth:`Chunk.from_rows` / :meth:`Chunk.to_rows` round-trip exactly —
``Chunk.from_rows(names, rows).to_rows() == rows`` for any well-typed
rows, including ``None`` values and CHAR strings of any width.  Row
materialization converts array scalars back to built-in Python values
(``tolist``), so consumers never observe NumPy scalar types.

A chunk built from rows keeps them and transposes lazily: the typed
columns are built the first time a column is read (``columns``,
:meth:`Chunk.data_column`, :meth:`Chunk.project`), so row-producing
operators wrap their output for free and a consumer that only rowifies
never pays for a transpose.  Slicing and :meth:`Chunk.take` on such a
chunk select rows and stay lazy.

NumPy is optional: without it every column is an object column and the
vectorized mask helpers degrade to list comprehensions.  Simulated costs
never flow through this module — a chunk is pure representation, which
is what keeps the columnar engine's charges on the paper's per-tuple
cost model.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, Union

from repro.storage.types import Row, Schema

try:  # pragma: no cover - exercised implicitly by every chunk test
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less fallback environment
    _np = None

#: A column payload: an array (numeric) or a plain list (object fallback).
ColumnData = Union["_np.ndarray", list]

#: A boolean mask over a chunk's rows: ndarray of bool, or list of bool.
Mask = Union["_np.ndarray", list]


def _typed_column(values: Sequence) -> ColumnData:
    """Build one column: a typed array when exact, else an object list.

    Only values that round-trip bitwise take the array path: ``int``
    (not ``bool``, and within ``int64``) and ``float``.  Everything else
    — strings, ``None``, mixed types, big ints — stays an object list.
    """
    values = list(values)
    if _np is None or not values:
        return values
    kind = type(values[0])
    if kind is int or kind is float:
        if set(map(type, values)) == {kind}:
            try:
                return _np.array(values, dtype=_np.int64 if kind is int
                                 else _np.float64)
            except OverflowError:
                return values
    return values


def _is_array(col) -> bool:
    """True when ``col`` is a NumPy array column."""
    return _np is not None and isinstance(col, _np.ndarray)


class Chunk:
    """A columnar batch: named columns plus an optional selection vector.

    ``columns`` holds one entry per schema column over the chunk's
    *physical* rows; ``sel`` (ascending positions into the physical rows,
    or ``None`` for "all") defines the logical view every sequence-
    protocol method exposes.  Construction never copies column data —
    :meth:`take`, :meth:`project` and slicing share the backing arrays.
    """

    __slots__ = ("names", "_columns", "sel", "_length", "_rows", "_compact")

    def __init__(self, names: Sequence[str], columns: Sequence[ColumnData],
                 sel=None):
        self.names = tuple(names)
        self._columns: list[ColumnData] | None = list(columns)
        self.sel = sel
        if sel is not None:
            self._length = len(sel)
        else:
            self._length = len(columns[0]) if columns else 0
        self._rows: list[Row] | None = None
        #: Per-column cache of sel-compacted payloads.
        self._compact: dict[int, ColumnData] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, names: "Sequence[str] | Schema",
                  rows: Sequence[Row]) -> "Chunk":
        """Wrap rows as a chunk; typed columns are built on first read."""
        if isinstance(names, Schema):
            names = names.column_names
        chunk = cls.__new__(cls)
        chunk.names = tuple(names)
        chunk._columns = None  # transposed on first column read
        chunk.sel = None
        chunk._rows = rows if isinstance(rows, list) else list(rows)
        chunk._length = len(chunk._rows)
        chunk._compact = {}
        return chunk

    @classmethod
    def from_columns(cls, names: Sequence[str],
                     columns: Sequence[ColumnData]) -> "Chunk":
        """Wrap pre-built column payloads (no copying, no type sniffing)."""
        return cls(names, columns)

    @property
    def columns(self) -> list[ColumnData]:
        """Per-column payloads over the physical rows (built on demand)."""
        cols = self._columns
        if cols is None:
            cols = [self.data_column(i) for i in range(len(self.names))]
            self._columns = cols
        return cols

    def columnar(self) -> "Chunk":
        """This chunk with every column built; returns ``self``.

        For chunks that are cached and read column-wise many times (a
        heap page's payload): their :meth:`take` and slices then share
        the built columns instead of re-gathering rows.
        """
        self.columns
        return self

    @staticmethod
    def concat(chunks: "Sequence[Chunk]") -> "Chunk":
        """Concatenate chunks (same layout) into one compacted chunk."""
        if len(chunks) == 1:
            return chunks[0]
        first = chunks[0]
        columns: list[ColumnData] = []
        for i in range(len(first.names)):
            parts = [c.data_column(i) for c in chunks]
            if all(_is_array(p) for p in parts):
                columns.append(_np.concatenate(parts))
            else:
                merged: list = []
                for p in parts:
                    merged.extend(p.tolist() if _is_array(p) else p)
                columns.append(merged)
        return Chunk(first.names, columns)

    # -- the row-compat sequence protocol ----------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.to_rows())

    def __getitem__(self, item):
        if isinstance(item, slice):
            if self._columns is None:
                return Chunk.from_rows(self.names, self._rows[item])
            sel = self.sel
            if sel is None:
                start, stop, step = item.indices(self._length)
                if step == 1 and _np is not None:
                    return Chunk(
                        self.names,
                        [col[start:stop] if _is_array(col)
                         else col[start:stop] for col in self.columns],
                    )
                indices = list(range(start, stop, step))
                return self.take(indices)
            sliced = sel[item] if _is_array(sel) else sel[item]
            return Chunk(self.names, self.columns, sel=sliced)
        return self.to_rows()[item]

    def to_rows(self) -> list[Row]:
        """Materialize (and cache) the logical rows as plain tuples."""
        if self._rows is None:
            cols = []
            for i in range(len(self.columns)):
                col = self.data_column(i)
                cols.append(col.tolist() if _is_array(col) else col)
            self._rows = list(zip(*cols, strict=False)) if cols else []
        return self._rows

    # -- columnar access ---------------------------------------------------

    def data_column(self, i: int) -> ColumnData:
        """Column ``i`` of the logical view (selection applied), cached."""
        if self._columns is None:
            # Row-built chunk: build just this column.
            cached = self._compact.get(i)
            if cached is None:
                cached = _typed_column([row[i] for row in self._rows])
                self._compact[i] = cached
            return cached
        col = self._columns[i]
        sel = self.sel
        if sel is None:
            return col
        cached = self._compact.get(i)
        if cached is None:
            if _is_array(col):
                cached = col[sel] if _is_array(sel) else col[
                    _np.asarray(sel, dtype=_np.intp)]
            else:
                cached = [col[j] for j in sel]
            self._compact[i] = cached
        return cached

    def array(self, i: int):
        """Column ``i`` as an ndarray, or ``None`` for object columns."""
        col = self.data_column(i)
        return col if _is_array(col) else None

    def column_values(self, i: int) -> list:
        """Column ``i`` of the logical view as a plain Python list."""
        if self._columns is None and i not in self._compact:
            return [row[i] for row in self._rows]
        col = self.data_column(i)
        return col.tolist() if _is_array(col) else col

    # -- derivation (no data copies) ---------------------------------------

    def take(self, indices) -> "Chunk":
        """A chunk narrowed to ``indices`` (positions in the logical view)."""
        if self._columns is None:
            rows = self._rows
            return Chunk.from_rows(self.names, [rows[j] for j in indices])
        sel = self.sel
        if sel is None:
            new_sel = indices
        elif _is_array(sel):
            new_sel = sel[_np.asarray(indices, dtype=_np.intp)] \
                if not _is_array(indices) else sel[indices]
        else:
            new_sel = [sel[j] for j in indices]
        return Chunk(self.names, self.columns, sel=new_sel)

    def filter(self, mask: Mask) -> "Chunk | None":
        """Narrow by a boolean mask over the logical view; None if empty.

        Returns ``self`` unchanged when every row passes, so the common
        all-pass case (e.g. a 100%-selectivity sweep point) stays free.
        """
        idx = mask_nonzero(mask)
        n = len(idx)
        if n == 0:
            return None
        if n == self._length:
            return self
        return self.take(idx)

    def project(self, positions: Sequence[int],
                names: Sequence[str]) -> "Chunk":
        """A chunk of the given columns, sharing payloads and selection."""
        if self._columns is None:
            return Chunk(names, [self.data_column(p) for p in positions])
        chunk = Chunk(names, [self.columns[p] for p in positions],
                      sel=self.sel)
        for out_i, p in enumerate(positions):
            cached = self._compact.get(p)
            if cached is not None:
                chunk._compact[out_i] = cached
        return chunk

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = "".join(
            "a" if _is_array(c) else "o" for c in self.columns
        )
        return (f"Chunk({len(self)} rows x {len(self.columns)} cols "
                f"[{kinds}]{'' if self.sel is None else ', sel'})")


# -- mask helpers (array- and list-compatible) ----------------------------


def mask_and(a: Mask | None, b: Mask | None) -> Mask | None:
    """Conjunction of two masks; ``None`` means all-true."""
    if a is None:
        return b
    if b is None:
        return a
    if _is_array(a) and _is_array(b):
        return a & b
    a_list = a.tolist() if _is_array(a) else a
    b_list = b.tolist() if _is_array(b) else b
    return [x and y for x, y in zip(a_list, b_list, strict=False)]


def mask_or(a: Mask | None, b: Mask | None) -> Mask | None:
    """Disjunction of two masks; ``None`` means all-true."""
    if a is None or b is None:
        return None
    if _is_array(a) and _is_array(b):
        return a | b
    a_list = a.tolist() if _is_array(a) else a
    b_list = b.tolist() if _is_array(b) else b
    return [x or y for x, y in zip(a_list, b_list, strict=False)]


def mask_not(m: Mask | None, n: int) -> Mask:
    """Negation of a mask over ``n`` rows (``None`` means all-true)."""
    if m is None:
        if _np is not None:
            return _np.zeros(n, dtype=bool)
        return [False] * n
    if _is_array(m):
        return ~m
    return [not x for x in m]


def mask_any(m: Mask | None) -> bool:
    """True when at least one row passes (``None`` means all-true)."""
    if m is None:
        return True
    if _is_array(m):
        return bool(m.any())
    return any(m)


def mask_all(m: Mask | None) -> bool:
    """True when every row passes (``None`` means all-true)."""
    if m is None:
        return True
    if _is_array(m):
        return bool(m.all())
    return all(m)


def mask_count(m: Mask) -> int:
    """Number of rows a mask passes."""
    if _is_array(m):
        return int(m.sum())
    return sum(1 for x in m if x)


def mask_nonzero(m: Mask) -> "Sequence[int]":
    """Ascending positions a mask passes (ndarray or list)."""
    if _is_array(m):
        return _np.nonzero(m)[0]
    return [i for i, x in enumerate(m) if x]


def mask_from_bools(values: Iterable[bool], n: int) -> Mask:
    """Materialize an iterable of booleans as a mask of length ``n``."""
    if _np is not None:
        return _np.fromiter(values, dtype=bool, count=n)
    return list(values)


def object_mask(col: Sequence, test: Callable[[object], bool]) -> Mask:
    """Row-wise mask over an object column (the non-array fallback)."""
    return mask_from_bools((test(v) for v in col), len(col))


def mask_isin(col: ColumnData, values: Sequence) -> Mask:
    """Membership mask: ``col[i] in values`` per row."""
    if _is_array(col) and values and all(
            type(v) in (int, float) for v in values):
        return _np.isin(col, _np.asarray(list(values)))
    vset = frozenset(values)
    return object_mask(col.tolist() if _is_array(col) else col,
                       lambda v: v in vset)
