"""The in-memory tree component C0.

C0 is a small update-in-place tree that absorbs application writes
(Section 2.3.1).  It keeps at most one record per key: a newer write
supersedes, and a delta written over a resident version folds immediately
(C0 is update-in-place, unlike the append-only on-disk components), so
reads of hot keys stay cheap.

The ordered structure underneath is swappable
(:mod:`repro.memtable.backends`): the paper-faithful default is a skip
list, with sorted-array and hash-map alternatives for the Szanto-style
data-structure ablation (``repro profile --memtable all``).

The memtable tracks its approximate byte footprint; the merge scheduler
uses the fill fraction of C0 as its primary progress signal
(Section 4.3).
"""

from __future__ import annotations

from typing import Iterator

from repro.memtable.backends import make_backend
from repro.records import Record, RecordKind, fold


class MemTable:
    """Bounded-memory ordered map of key -> newest :class:`Record`."""

    def __init__(
        self, capacity_bytes: int, seed: int = 0, kind: str = "skiplist"
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.kind = kind
        self._tree = make_backend(kind, seed=seed)
        self._nbytes = 0

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def nbytes(self) -> int:
        """Approximate bytes of record payload currently held."""
        return self._nbytes

    @property
    def fill_fraction(self) -> float:
        """How full C0 is; the spring-and-gear scheduler's input signal."""
        return self._nbytes / self.capacity_bytes

    @property
    def is_empty(self) -> bool:
        return len(self._tree) == 0

    def put(self, record: Record) -> None:
        """Insert a record, folding onto any resident version of the key.

        The common case — a base record or tombstone over an older (or
        absent) version — folds to the new record unchanged, so it takes
        a single tree traversal: insert, and account using the displaced
        value.  Only deltas (whose fold *combines* the two versions) and
        replayed duplicates (older seqno resident wins) pay a second
        traversal to restore the correct fold result.
        """
        tree = self._tree
        if record.kind is not RecordKind.DELTA:
            existing = tree.insert(record.key, record)
            if existing is None:
                self._nbytes += record.nbytes
            elif record.seqno > existing.seqno:
                self._nbytes += record.nbytes - existing.nbytes
            else:
                # Crash-replay duplicate: fold() keeps the older record.
                tree.insert(record.key, existing)
            return
        existing = tree.get(record.key)
        if existing is not None:
            merged = fold(record, existing)
            tree.insert(record.key, merged)
            self._nbytes += merged.nbytes - existing.nbytes
        else:
            tree.insert(record.key, record)
            self._nbytes += record.nbytes

    def get(self, key: bytes) -> Record | None:
        """Return the resident record for ``key``, or ``None``."""
        return self._tree.get(key)

    def remove(self, key: bytes) -> Record | None:
        """Physically remove a key (used as records drain into C1)."""
        record = self._tree.remove(key)
        if record is not None:
            self._nbytes -= record.nbytes
        return record

    def first_key(self) -> bytes | None:
        """Smallest resident key, or ``None`` when empty."""
        pair = self._tree.first()
        return pair[0] if pair else None

    def ceiling_key(self, key: bytes) -> bytes | None:
        """Smallest resident key >= ``key``, or ``None``."""
        pair = self._tree.ceiling(key)
        return pair[0] if pair else None

    def ceiling(self, key: bytes) -> Record | None:
        """Resident record with the smallest key >= ``key``, or ``None``.

        One search where ``ceiling_key`` plus ``get`` costs two; the
        snowshovel merge peeks C0 through it once per record.
        """
        pair = self._tree.ceiling(key)
        return pair[1] if pair else None

    def __iter__(self) -> Iterator[Record]:
        for _, record in self._tree:
            yield record

    def iter_from(self, key: bytes) -> Iterator[Record]:
        """Records with key >= ``key``, in key order."""
        for _, record in self._tree.iter_from(key):
            yield record

    def scan(self, lo: bytes, hi: bytes | None) -> Iterator[Record]:
        """Records with lo <= key < hi (hi=None means unbounded)."""
        for key, record in self._tree.iter_from(lo):
            if hi is not None and key >= hi:
                break
            yield record
