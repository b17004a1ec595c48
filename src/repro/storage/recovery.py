"""Crash recovery helpers.

Recovery proceeds in two phases, per Section 4.4.2:

1. The physical WAL yields the newest committed manifest
   (``Stasis.recover_manifest``, one charged WAL read), giving a
   physically consistent set of on-disk tree components (merges commit
   atomically, so a torn merge simply never appears in the manifest).
   Extents a torn merge allocated but never committed are freed by
   :func:`free_orphan_extents`.
2. The logical log is replayed to rebuild the in-memory component (C0)
   from the writes that had not yet reached a durable tree
   (:func:`replay_logical_log`).  In the degraded ``NONE`` durability
   mode this phase is empty and those writes are lost — "older (up to a
   well-defined point in time) updates are available, but recent
   updates may be lost".

Every engine on the Stasis substrate — the bLSM tree family and the
LevelDB baseline — recovers through these two helpers.
"""

from __future__ import annotations

from typing import Any

from repro.records import Record
from repro.storage.region import Extent
from repro.storage.stasis import Stasis


def free_orphan_extents(stasis: Stasis, live: set[Extent]) -> None:
    """Free every allocated extent no live component pins."""
    for extent in stasis.regions.allocated_extents:
        if extent not in live:
            for page_id in range(extent.start, extent.end):
                stasis.pagefile.free_page(page_id)
            stasis.regions.free(extent)


def replay_logical_log(stasis: Stasis, memtable: Any) -> int:
    """Re-insert every durable logical record into ``memtable``.

    Returns one past the highest replayed seqno (0 when the log is
    empty), the floor for the recovered tree's next seqno.
    """
    next_seqno = 0
    for record in stasis.logical_log.replay():
        if record.op == "delete":
            memtable.put(Record.tombstone(record.key, record.seqno))
        elif record.op == "delta":
            memtable.put(Record.delta(record.key, record.value, record.seqno))
        else:
            memtable.put(Record.base(record.key, record.value, record.seqno))
        next_seqno = max(next_seqno, record.seqno + 1)
    return next_seqno
