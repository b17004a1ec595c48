"""Incremental tree merges (Sections 2.3.1, 4.2, 4.4.1).

A :class:`MergeProcess` merges a newer source with an older source into a
new on-disk component, a bounded number of bytes at a time, so the
scheduler can interleave merge work with application writes.  In the
paper these are threads rate-limited by the scheduler; on the virtual
clock the same rate coupling is expressed by calling ``step`` with a byte
budget.

The newer source is either a :class:`SnowshovelSource` draining the live
memtable (Section 4.2) or a :class:`FrozenSource` over a frozen C0'/C1'
snapshot; the older source is the downstream component being rewritten.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.memtable.memtable import MemTable
from repro.records import Record, RecordKind, fold
from repro.sstable.builder import SSTableBuilder
from repro.sstable.reader import SSTable
from repro.storage.stasis import Stasis


class RecordSource(Protocol):
    """A peekable stream of records in increasing key order."""

    def peek(self) -> Record | None:
        """Next record without consuming it; ``None`` when exhausted."""
        ...

    def pop(self) -> Record:
        """Consume and return the next record."""
        ...


class EmptySource:
    """A source with no records (first merge into an empty level)."""

    def peek(self) -> Record | None:
        return None

    def pop(self) -> Record:
        raise StopIteration("empty source")


class FrozenSource:
    """Drains an immutable snapshot: a frozen memtable or an SSTable."""

    def __init__(self, records) -> None:
        self._iterator = iter(records)
        self._head: Record | None = next(self._iterator, None)

    def peek(self) -> Record | None:
        return self._head

    def pop(self) -> Record:
        record = self._head
        if record is None:
            raise StopIteration("source exhausted")
        self._head = next(self._iterator, None)
        return record


class RangeSnowshovelSource:
    """Drains the *live* memtable's keys in ``[lo, hi)`` (Section 4.2).

    ``peek`` reflects the memtable's current contents, so records inserted
    ahead of the cursor while the merge runs join the current pass —
    that is snowshoveling.  The pass ends when nothing at or after the
    cursor remains in range.  Partitioned merges (Section 4.2.2) consume
    only the C0 records of the partition being merged; records outside
    the range stay in C0 for other partitions' merges.

    Each record costs two memtable searches: ``peek`` finds it (one
    ceiling search) and ``pop`` removes the key that peek found.  ``pop``
    therefore relies on the memtable not changing between the two calls,
    which :meth:`MergeProcess.step` guarantees; a ``pop`` with no
    preceding ``peek`` searches for itself.
    """

    def __init__(self, memtable: MemTable, lo: bytes, hi: bytes | None) -> None:
        self._memtable = memtable
        self._hi = hi
        self._cursor: bytes = lo
        self._peeked: Record | None = None

    def peek(self) -> Record | None:
        record = self._memtable.ceiling(self._cursor)
        if record is not None and self._hi is not None and record.key >= self._hi:
            record = None
        self._peeked = record
        return record

    def pop(self) -> Record:
        head = self._peeked if self._peeked is not None else self.peek()
        if head is None:
            raise StopIteration("snowshovel run exhausted")
        self._peeked = None
        key = head.key
        record = self._memtable.remove(key)
        assert record is not None
        self._cursor = key + b"\x00"  # strictly-greater successor key
        return record

    def advance_past(self, key: bytes) -> None:
        """Keep the run cursor at the merge's output position.

        The run cursor tracks the *last value written* by the merge
        (Section 4.2), which may come from the downstream tree rather
        than C0; keys arriving behind it must wait for the next run or
        the merge output would go out of order.
        """
        successor = key + b"\x00"
        if successor > self._cursor:
            self._cursor = successor


class SnowshovelSource(RangeSnowshovelSource):
    """Snowshovel source over the whole keyspace (the C0:C1 merge)."""

    def __init__(self, memtable: MemTable) -> None:
        super().__init__(memtable, b"", None)


class MergeProcess:
    """One merge between adjacent tree levels, executed incrementally."""

    def __init__(
        self,
        stasis: Stasis,
        newer: RecordSource,
        older: SSTable | None,
        tree_id: int,
        input_bytes: int,
        expected_keys: int,
        drop_tombstones: bool,
        with_bloom: bool = True,
        bloom_false_positive_rate: float = 0.01,
        merge_chunk_bytes: int = 256 * 1024,
        split_output_bytes: int | None = None,
        tree_id_source: "Callable[[], int] | None" = None,
        compression_ratio: float = 1.0,
    ) -> None:
        self._stasis = stasis
        self._newer = newer
        chunk_pages = max(1, merge_chunk_bytes // stasis.page_size)
        self._chunk_pages = chunk_pages
        if older is not None:
            self._older: RecordSource = FrozenSource(
                older.iter_records(chunk_pages=chunk_pages)
            )
        else:
            self._older = EmptySource()
        self._with_bloom = with_bloom
        self._bloom_fpr = bloom_false_positive_rate
        self._expected_keys = expected_keys
        self._compression_ratio = compression_ratio
        # Partitioned trees split oversized outputs into multiple
        # components, each becoming its own partition (Section 4.2.2).
        if split_output_bytes is not None and tree_id_source is None:
            raise ValueError("split_output_bytes requires tree_id_source")
        self._split_output_bytes = split_output_bytes
        self._tree_id_source = tree_id_source
        self._builder = self._new_builder(tree_id, input_bytes)
        self._drop_tombstones = drop_tombstones
        self.input_bytes = max(1, input_bytes)
        self.bytes_read = 0
        self.newer_bytes_read = 0  # consumed from the newer source only
        self.output: SSTable | None = None
        self.outputs: list[SSTable] = []
        self.done = False
        self.min_seqno_consumed: int | None = None
        self.max_seqno_consumed: int | None = None
        # Snowshoveling physically removes records from the live memtable
        # as they are consumed, but the half-built output component is not
        # yet visible to readers.  The overlay keeps those records
        # readable until the merge commits (in the real system they are
        # served from the in-progress tree, Figure 1).  Sources that
        # expose ``advance_past`` drain a live memtable and need it.
        self._track_overlay = hasattr(newer, "advance_past")
        self.overlay: dict[bytes, Record] = {}

    @property
    def inprogress(self) -> float:
        """Fraction of input consumed (the paper's smooth estimator)."""
        if self.done:
            return 1.0
        return min(1.0, self.bytes_read / self.input_bytes)

    def step(self, budget_bytes: int) -> int:
        """Consume up to ``budget_bytes`` of input; return bytes consumed.

        Completing the merge (building the output component) happens
        automatically when both sources drain.

        The two source heads are peeked once on entry and then cached:
        a source is re-peeked only after it was popped.  That is sound
        because nothing mutates C0 inside a step — application writes
        land between steps, never during one — so a snowshovel head
        found on entry stays the smallest key at or after the cursor
        until it is popped (``advance_past`` only moves the cursor up to
        a key below that head).  Device calls keep their order: newer
        pop, older pop (which may read the older source's next chunk),
        then the builder add (which may flush output pages).
        """
        if self.done:
            return 0
        newer = self._newer
        older = self._older
        newer_head = newer.peek()
        older_head = older.peek()
        track_overlay = self._track_overlay
        overlay = self.overlay
        drop_tombstones = self._drop_tombstones
        split_bytes = self._split_output_bytes
        builder = self._builder
        low = self.min_seqno_consumed
        high = self.max_seqno_consumed
        consumed = 0
        newer_consumed = 0
        try:
            while consumed < budget_bytes:
                if newer_head is not None and (
                    older_head is None or newer_head.key <= older_head.key
                ):
                    record = newer.pop()
                    nbytes = record.nbytes
                    consumed += nbytes
                    newer_consumed += nbytes
                    seqno = record.seqno
                    if low is None or seqno < low:
                        low = seqno
                    if high is None or seqno > high:
                        high = seqno
                    if track_overlay:
                        overlay[record.key] = record
                    if older_head is not None and older_head.key == record.key:
                        shadowed = older.pop()
                        consumed += shadowed.nbytes
                        record = fold(record, shadowed)
                        older_head = older.peek()
                    newer_head = newer.peek()
                elif older_head is not None:
                    record = older.pop()
                    consumed += record.nbytes
                    if track_overlay:
                        # The snowshovel cursor must not fall behind the
                        # merge's output position; the cached newer head is
                        # above this key, so it stays valid.
                        newer.advance_past(record.key)  # type: ignore[attr-defined]
                    older_head = older.peek()
                else:
                    self._complete()
                    break
                if drop_tombstones and record.kind is RecordKind.TOMBSTONE:
                    continue
                builder.add(record)
                if split_bytes is not None and builder.nbytes >= split_bytes:
                    self._rotate_builder()
                    builder = self._builder
        finally:
            # Written back even if a device error escapes mid-step:
            # the records popped so far have left their sources.
            self.min_seqno_consumed = low
            self.max_seqno_consumed = high
            self.newer_bytes_read += newer_consumed
        self.bytes_read += consumed
        return consumed

    def run_to_completion(self) -> int:
        """Consume all remaining input (the naive scheduler's behaviour)."""
        total = 0
        while not self.done:
            total += self.step(budget_bytes=1 << 30)
        return total

    def abort(self) -> None:
        """Tear the merge down, freeing the partially built output."""
        if not self.done:
            self.done = True
            self._builder.abandon()

    def _new_builder(self, tree_id: int, expected_bytes: int) -> SSTableBuilder:
        return SSTableBuilder(
            self._stasis,
            tree_id=tree_id,
            expected_bytes=expected_bytes,
            expected_keys=self._expected_keys,
            with_bloom=self._with_bloom,
            bloom_false_positive_rate=self._bloom_fpr,
            flush_chunk_pages=self._chunk_pages,
            compression_ratio=self._compression_ratio,
        )

    def _rotate_builder(self) -> None:
        table = self._builder.finish()
        if table is not None:
            self.outputs.append(table)
        assert self._tree_id_source is not None
        assert self._split_output_bytes is not None
        self._builder = self._new_builder(
            self._tree_id_source(), self._split_output_bytes
        )

    def overlay_get(self, key: bytes) -> Record | None:
        """Look up a consumed-but-uncommitted record (reads mid-merge)."""
        return self.overlay.get(key)

    def overlay_scan(self, lo: bytes, hi: bytes | None):
        """Overlay records with lo <= key < hi, in key order."""
        for key in sorted(self.overlay):
            if key < lo:
                continue
            if hi is not None and key >= hi:
                break
            yield self.overlay[key]

    def _complete(self) -> None:
        table = self._builder.finish()
        if table is not None:
            self.outputs.append(table)
        if self._split_output_bytes is None:
            self.output = table
        self.done = True
