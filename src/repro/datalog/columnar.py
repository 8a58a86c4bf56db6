"""Columnar relation storage with sorted secondary projections.

The reference :class:`repro.datalog.state.Store` answers every
equality query with a filtered scan of its sorted table view and
rebuilds that view from scratch whenever a tuple's liveness changes.
At join-heavy scales (the full Stanford backbone: 757k forwarding
entries) those scans dominate evaluation.

:class:`ColumnarStore` keeps each relation *column-wise* — an
append-only row arena plus one Python list per argument position — and
maintains two kinds of sorted secondary projections incrementally:

- a **sorted live view** per table (the deterministic scan order the
  reference evaluator produces by sorting), updated by bisection on
  every liveness change instead of re-sorted per query;
- **equality projections** per ``(table, positions)`` spec, whose
  buckets are lists kept sorted by ``sort_key`` — a probe returns the
  bucket directly, no per-probe sort.

Projections are registered by the join planner and bulk-built from the
column arrays.
Everything here is a pure cache over the inherited record tables:
``__getstate__`` drops it all, so replay-cache snapshots and journal
resume payloads stay small and rebuild lazily after a restore —
byte-identically, because bucket membership and ordering are functions
of the live tuple set alone.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple as PyTuple

from ..errors import SchemaError
from .state import Store, sort_key
from .tuples import TableSchema, Tuple

__all__ = ["ColumnarStore"]

_EMPTY: Dict = {}

# Compact the row arena when tombstones outnumber live rows by this
# factor (and there are enough of them to matter).
_COMPACT_DEAD_MIN = 1024


class _ColumnarTable:
    """One relation stored column-wise: a row arena + per-position columns."""

    __slots__ = ("arity", "rows", "columns", "row_of", "dead")

    def __init__(self, arity: int):
        self.arity = arity
        self.rows: List[Optional[Tuple]] = []
        self.columns: List[List] = [[] for _ in range(arity)]
        self.row_of: Dict[Tuple, int] = {}
        self.dead = 0

    def add(self, tup: Tuple) -> None:
        if tup in self.row_of:
            return
        self.row_of[tup] = len(self.rows)
        self.rows.append(tup)
        for position, column in enumerate(self.columns):
            column.append(tup.args[position])

    def discard(self, tup: Tuple) -> None:
        row = self.row_of.pop(tup, None)
        if row is None:
            return
        self.rows[row] = None
        self.dead += 1
        if self.dead > _COMPACT_DEAD_MIN and self.dead > len(self.row_of):
            self._compact()

    def _compact(self) -> None:
        live = [tup for tup in self.rows if tup is not None]
        self.rows = live
        self.columns = [
            [tup.args[position] for tup in live]
            for position in range(self.arity)
        ]
        self.row_of = {tup: row for row, tup in enumerate(live)}
        self.dead = 0

    def project(
        self, positions: PyTuple[int, ...]
    ) -> Dict[PyTuple, List[Tuple]]:
        """Group live rows by their values at ``positions``.

        Reads the column arrays directly — no per-row attribute
        chasing — and emits buckets in arena order; the caller sorts
        each bucket once at build time.
        """
        rows = self.rows
        buckets: Dict[PyTuple, List[Tuple]] = {}
        if len(positions) == 1:
            column = self.columns[positions[0]]
            for row, tup in enumerate(rows):
                if tup is not None:
                    buckets.setdefault((column[row],), []).append(tup)
        else:
            columns = [self.columns[p] for p in positions]
            for row, tup in enumerate(rows):
                if tup is not None:
                    key = tuple(column[row] for column in columns)
                    buckets.setdefault(key, []).append(tup)
        return buckets


class ColumnarStore(Store):
    """A :class:`Store` with columnar arenas and sorted projections.

    Drop-in compatible: every query returns exactly what the base
    store returns (same tuples, same deterministic order), so the
    compiled and interpreted evaluators can run on either store and
    produce byte-identical results.  Only the cost model changes.
    """

    def __init__(self, schemas: Dict[str, TableSchema]):
        super().__init__(schemas)
        # table -> columnar arena (lazily built per table on first use,
        # and rebuilt after unpickling).
        self._columnar: Dict[str, _ColumnarTable] = {}
        # table -> live tuples sorted by sort_key, maintained by
        # bisection.  Replaces the base class's invalidate-and-resort
        # _sorted_cache strategy.
        self._sorted_live: Dict[str, List[Tuple]] = {}
        # Equality projections keyed on one *or more* argument
        # positions, registered up front by the join planner and also
        # built lazily on first use; either way they are maintained
        # incrementally on every liveness change.  Layout:
        #   table -> positions tuple -> value vector -> sorted live tuples
        self._indexes: Dict[
            str, Dict[PyTuple[int, ...], Dict[PyTuple, List[Tuple]]]
        ] = {}

    def __getstate__(self):
        state = super().__getstate__()
        # Arenas, sorted views and projections are caches over _tables,
        # like the base class's sorted views: drop them from snapshots
        # and rebuild lazily after restore.
        state["_columnar"] = {}
        state["_sorted_live"] = {}
        state["_indexes"] = {}
        return state

    # -- lazily-built projections --------------------------------------------

    def _arena(self, table: str) -> _ColumnarTable:
        arena = self._columnar.get(table)
        if arena is None:
            schema = self.schemas.get(table)
            if schema is None:
                raise SchemaError(f"unknown table {table!r}")
            arena = _ColumnarTable(schema.arity)
            for record in self._tables[table].values():
                if record.alive:
                    arena.add(record.tuple)
            self._columnar[table] = arena
        return arena

    def _live_sorted(self, table: str) -> List[Tuple]:
        live = self._sorted_live.get(table)
        if live is None:
            records = self._tables.get(table)
            if records is None:
                raise SchemaError(f"unknown table {table!r}")
            live = [rec.tuple for rec in records.values() if rec.alive]
            live.sort(key=sort_key)
            self._sorted_live[table] = live
        return live

    # -- queries --------------------------------------------------------------

    def tuples(self, table: str) -> List[Tuple]:
        # Callers may mutate their view; hand out a copy (base-class
        # contract).
        return list(self._live_sorted(table))

    def tuples_matching(self, table: str, position: int, value) -> List[Tuple]:
        return self.tuples_matching_at(table, (position,), (value,))

    def tuples_matching_at(
        self, table: str, positions: PyTuple[int, ...], values: PyTuple
    ) -> List[Tuple]:
        """Live tuples with ``args[p] == v`` for each (p, v) pair.

        The multi-position form serves body atoms with several bound
        arguments from one composite projection instead of filtering
        the largest single-position bucket.
        """
        index = self._indexes.get(table, _EMPTY).get(positions)
        if index is None:
            index = self.register_index(table, positions)
        bucket = index.get(tuple(values))
        if not bucket:
            return []
        # Buckets are kept sorted by sort_key; no per-probe sort.
        return list(bucket)

    def register_index(
        self, table: str, positions: PyTuple[int, ...]
    ) -> Dict[PyTuple, List[Tuple]]:
        """Ensure a projection on ``positions`` exists for ``table``.

        Called by the join planner at rule-registration time, so the
        projection is maintained incrementally from the first insert
        instead of being rebuilt from a table scan mid-join.
        """
        positions = tuple(positions)
        per_table = self._indexes.setdefault(table, {})
        index = per_table.get(positions)
        if index is None:
            if table not in self._tables:
                raise SchemaError(f"unknown table {table!r}")
            arena = self._arena(table)
            if all(p < arena.arity for p in positions):
                index = arena.project(positions)
                for bucket in index.values():
                    bucket.sort(key=sort_key)
            else:
                index = {}
            per_table[positions] = index
        return index

    # -- incremental maintenance ----------------------------------------------

    def _note_liveness_change(self, tup: Tuple, alive: bool) -> None:
        table = tup.table
        live = self._sorted_live.get(table)
        if live is not None:
            if alive:
                insort(live, tup, key=sort_key)
            else:
                _sorted_remove(live, tup)
        arena = self._columnar.get(table)
        if arena is not None:
            if alive:
                arena.add(tup)
            else:
                arena.discard(tup)
        for positions, index in self._indexes.get(table, _EMPTY).items():
            if any(p >= tup.arity for p in positions):
                continue
            key = tuple(tup.args[p] for p in positions)
            bucket = index.get(key)
            if alive:
                if bucket is None:
                    index[key] = [tup]
                else:
                    insort(bucket, tup, key=sort_key)
            elif bucket:
                _sorted_remove(bucket, tup)


def _sorted_remove(bucket: List[Tuple], tup: Tuple) -> None:
    """Remove ``tup`` from a sort_key-ordered list, by identity of value.

    Bisects to the key's slice, then scans it for the exact tuple —
    equal keys are vanishingly rare (the whole engine already relies on
    sort_key being effectively injective per table), so the scan is
    O(1) in practice.
    """
    key = sort_key(tup)
    lo, hi = 0, len(bucket)
    while lo < hi:
        mid = (lo + hi) // 2
        if sort_key(bucket[mid]) < key:
            lo = mid + 1
        else:
            hi = mid
    for i in range(lo, len(bucket)):
        if bucket[i] == tup:
            del bucket[i]
            return
        if sort_key(bucket[i]) != key:
            break
