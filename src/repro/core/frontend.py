"""The front end every tree of the bLSM family shares.

The paper's three-level tree (:class:`repro.core.tree.BLSM`, Sections
3-4), its range-partitioned variant
(:class:`repro.core.partitioned.PartitionedBLSM`, Section 4.2.2) and the
policy-owned N-level layouts
(:class:`repro.core.compaction.tree.CompactionTree`) differ only in
*layout and merge policy*.  Everything they do identically lives here,
once:

* building the Stasis substrate from :class:`BLSMOptions` and binding
  the tree's metrics and trace instrumentation;
* the write API (``put``/``delete``/``apply_delta``/
  ``insert_if_not_exists``/``read_modify_write``) over one logged
  memtable write path, and group-commit ``write_batch``;
* ``flush_log``/``close`` and seqno/tree-id allocation;
* merge-step dispatch onto the background merge workers' timelines
  (gate on a busy worker, catch up, step, finish, count) and the stall
  bracket the write path blocks in;
* two-phase recovery: one manifest read, one orphan-extent sweep over
  the live components, one logical-log replay into a fresh memtable.

A tree supplies only its layout: ``_init_state``/``_init_layout``/
``_restore_layout``/``_manifest`` (its component slots and their durable
shape), the ``get``/``scan``/``snapshot`` walk over those slots,
``_merge_job``/``_finish_job`` (which merge runs next and how its output
installs) and ``_on_c0_full`` (what a full memtable triggers).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.components import live_extents, rebuild_component
from repro.core.options import BLSMOptions
from repro.core.scheduler import MergeScheduler, make_scheduler
from repro.core.versions import VersionSet
from repro.errors import EngineClosedError
from repro.memtable.memtable import MemTable
from repro.records import Record
from repro.sim.clock import Timeline
from repro.sstable.builder import SSTableBuilder
from repro.sstable.reader import SSTable
from repro.storage.group_commit import CommitTicket
from repro.storage.recovery import free_orphan_extents, replay_logical_log
from repro.storage.stasis import Stasis

OP_PUT = "put"
OP_DELETE = "delete"
OP_DELTA = "delta"

__all__ = ["LSMFrontEnd"]


class LSMFrontEnd:
    """Write path, commit, merge dispatch and recovery for one LSM tree."""

    def __init__(
        self,
        options: BLSMOptions | None = None,
        stasis: Stasis | None = None,
        **layout: Any,
    ) -> None:
        self._open(options, stasis, **layout)
        self._init_layout()
        self.stasis.commit_manifest(self._manifest())

    @staticmethod
    def _default_options() -> BLSMOptions:
        return BLSMOptions()

    def _open(
        self, options: BLSMOptions | None, stasis: Stasis | None, **layout: Any
    ) -> None:
        """Everything but the layout: substrate, instrumentation, C0."""
        self.options = options if options is not None else self._default_options()
        opts = self.options
        if stasis is None:
            stasis = Stasis(
                disk_model=opts.disk_model,
                page_size=opts.page_size,
                buffer_pool_pages=opts.buffer_pool_pages,
                eviction_policy=opts.eviction_policy,
                durability=opts.durability,
                fault_plan=opts.fault_plan,
                retry=opts.retry,
                capacity_bytes=opts.capacity_bytes,
                log_disk_model=opts.log_disk_model,
                data_stripes=opts.data_stripes,
                stripe_chunk_bytes=opts.stripe_chunk_bytes,
                observability=opts.observability,
            )
        self.stasis = stasis
        self.runtime = stasis.runtime
        self.versions = VersionSet(self.runtime)
        metrics = self.runtime.metrics
        self._ctr_rotations = metrics.counter("memtable.rotations")
        self._ctr_memtable_full = metrics.counter("memtable.full_events")
        self._gauge_fill = metrics.gauge("memtable.fill")
        self._ctr_stalls = metrics.counter("writes.stalls")
        self._hist_stall = metrics.histogram("writes.stall_seconds")
        self._merge_obs = {
            level: (
                metrics.counter(f"merge.{level}.passes"),
                metrics.counter(f"merge.{level}.bytes"),
                metrics.counter(f"merge.{level}.seconds"),
            )
            for level in ("c0c1", "c1c2")
        }
        self._next_seqno = 0
        self._next_tree_id = 1
        self._closed = False
        #: merge gear -> the background worker timeline it runs on
        #: (empty when merges run synchronously on the writer's clock)
        self._workers: dict[str, Timeline] = {}
        self._init_state(**layout)
        self._memtable = self._new_memtable()
        self.scheduler = self._make_scheduler()
        self.scheduler.attach(self)

    # ------------------------------------------------------------------
    # Layout hooks (each tree overrides these)
    # ------------------------------------------------------------------

    def _init_state(self) -> None:
        """Volatile per-tree state: merge slots, workers, policy."""

    def _init_layout(self) -> None:
        """An empty component layout (construction only)."""
        raise NotImplementedError

    def _restore_layout(self, manifest: dict[str, Any]) -> list[SSTable | None]:
        """Rebuild the layout from a manifest; return its components."""
        raise NotImplementedError

    def _manifest(self) -> dict[str, Any]:
        raise NotImplementedError

    def _merge_job(self, gear: str) -> tuple[str, Any] | None:
        """The ``(level, process)`` to step for ``gear``: the running
        merge, else a newly started one, else ``None``."""
        raise NotImplementedError

    def _finish_job(self, level: str, process: Any) -> None:
        """Install a completed merge's output."""
        raise NotImplementedError

    def _on_c0_full(self) -> None:
        """React to a write that filled the memtable."""

    def _make_scheduler(self) -> MergeScheduler:
        opts = self.options
        return make_scheduler(
            opts.scheduler, opts.low_water, opts.high_water, opts.max_tick_bytes
        )

    @property
    def _c0_capacity(self) -> int:
        """Usable active-C0 bytes."""
        return self.options.c0_bytes

    # ------------------------------------------------------------------
    # Public write API
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Blind write of a full base record: zero seeks (Table 1)."""
        self._write(Record.base(key, value, self._take_seqno()), OP_PUT)

    def delete(self, key: bytes) -> None:
        """Write a tombstone; physical space is reclaimed by merges."""
        self._write(Record.tombstone(key, self._take_seqno()), OP_DELETE)

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        """Zero-seek partial update; folded onto the base record by reads
        and merges (Section 3.1.1)."""
        self._write(Record.delta(key, delta, self._take_seqno()), OP_DELTA)

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        """Insert ``key`` only if absent; returns whether it inserted.

        The existence check consults C0 and then the components' Bloom
        filters; for a genuinely new key it usually costs zero seeks
        (Section 3.1.2).
        """
        if self.get(key) is not None:
            return False
        self.put(key, value)
        return True

    def read_modify_write(
        self, key: bytes, update: Callable[[bytes | None], bytes]
    ) -> bytes:
        """Read the current value, apply ``update``, write the result.

        One seek for the read; the write is blind (Table 1: one seek
        total vs. a B-Tree's two).
        """
        new_value = update(self.get(key))
        self.put(key, new_value)
        return new_value

    def write_batch(
        self,
        ops: Iterable[tuple[str, bytes, bytes | None]],
        session: int = 0,
        wait: bool = True,
    ) -> CommitTicket:
        """Apply a batch of mutations and commit them as one ticket.

        The batch's records are applied to C0 and staged in the logical
        log, then committed through the Stasis group-commit queue: under
        :class:`~repro.storage.logical_log.DurabilityMode.GROUP` the
        ticket resolves when a leader's force covers the batch (several
        sessions' batches share one force); under SYNC/ASYNC each write
        forced per its mode already, so the ticket is trivially durable.
        With ``wait=False`` the ticket is returned unresolved and the
        caller acknowledges the commit at ``ticket.durable_at`` once a
        later force (or a drain) resolves it.
        """
        self._check_open()
        first = self._next_seqno
        count = 0
        for op, key, value in ops:
            if op == OP_PUT:
                assert value is not None
                self.put(key, value)
            elif op == OP_DELETE:
                self.delete(key)
            elif op == OP_DELTA:
                assert value is not None
                self.apply_delta(key, value)
            else:
                raise ValueError(f"unknown batch op {op!r}")
            count += 1
        if count == 0:
            now = self.stasis.clock.now
            return CommitTicket(
                session=session,
                first_seqno=first,
                last_seqno=first - 1,
                ops=0,
                enqueued_at=now,
                leader=True,
                group_size=1,
                durable_at=now,
                durable_lsn=self.stasis.logical_log.durable_seqno,
            )
        return self.stasis.group_commit.commit(
            first, self._next_seqno - 1, count, session=session, wait=wait
        )

    def _write(self, record: Record, op: str) -> None:
        self._check_open()
        value = record.value if op != OP_DELETE else None
        self.stasis.logical_log.log(record.seqno, op, record.key, value)
        self._memtable.put(record)
        fill = self._memtable.fill_fraction
        self._gauge_fill.set(fill)
        if fill >= 1.0:
            self._on_c0_full()
        self.scheduler.on_write(record.nbytes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def c0_fill_fraction(self) -> float:
        """Fill of the active memtable; the spring's displacement."""
        return self._memtable.fill_fraction

    def flush_log(self) -> None:
        """Force the logical log (durability barrier).

        Pending group-commit tickets resolve first — a flush must not
        leave a session's acknowledged-later batch behind its barrier.
        """
        self.stasis.group_commit.drain()
        self.stasis.logical_log.force()

    def close(self) -> None:
        """Force logs and mark the tree closed."""
        if self._closed:
            return
        self.flush_log()
        self.stasis.wal.force()
        self._closed = True

    def stats(self) -> dict[str, Any]:
        """Operational counters for benchmarks and examples."""
        summary = self.stasis.io_summary()
        summary.update(self._layout_stats())
        summary["next_seqno"] = self._next_seqno
        summary["clock_seconds"] = self.stasis.clock.now
        return summary

    def _layout_stats(self) -> dict[str, Any]:
        return {}

    # ------------------------------------------------------------------
    # Merge dispatch
    # ------------------------------------------------------------------

    def _merge_step(self, gear: str, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of ``gear``'s merge work.

        With background merges the work is dispatched to the gear's
        worker timeline; if that worker is still servicing previously
        dispatched I/O (its timeline is ahead of the clock), nothing is
        dispatched and 0 is returned — the scheduler's deficit carries
        over, exactly as when a synchronous step runs out of budget.
        """
        if budget_bytes <= 0:
            return 0
        clock = self.stasis.clock
        # Most trees have no workers; skip the lookup on that hot path.
        timeline = self._workers.get(gear) if self._workers else None
        if timeline is not None and timeline.busy(clock):
            return 0
        job = self._merge_job(gear)
        if job is None:
            return 0
        level, process = job
        if timeline is None:
            started = clock.now
            worked = process.step(budget_bytes)
            elapsed = clock.now - started
        else:
            timeline.catch_up(clock)
            started = timeline.now
            with clock.running_on(timeline):
                worked = process.step(budget_bytes)
                if process.done:
                    self._finish_job(level, process)
            elapsed = timeline.now - started
        if worked:
            self._note_merge_progress(level, worked, elapsed, process.inprogress)
        if timeline is None and process.done:
            self._finish_job(level, process)
        return worked

    def _note_merge_progress(
        self, level: str, worked: int, seconds: float, inprogress: float
    ) -> None:
        _passes, ctr_bytes, ctr_seconds = self._merge_obs[level]
        ctr_bytes.inc(worked)
        ctr_seconds.inc(seconds)
        trace = self.runtime.trace
        if trace.enabled:  # skip the kwargs build when tracing is off
            trace.emit(
                "merge_progress",
                level=level,
                worked=worked,
                seconds=seconds,
                inprogress=inprogress,
            )

    def _wait_for_background(self) -> bool:
        """Advance the clock to the next background completion, if any.

        This is the stall path's genuine *waiting*: the foreground has
        nothing it can do until a merge worker frees up, so virtual time
        passes without any foreground service being charged.  Returns
        whether there was anything to wait for.
        """
        clock = self.stasis.clock
        horizons = [
            timeline.now
            for timeline in self._workers.values()
            if timeline.busy(clock)
        ]
        if not horizons:
            return False
        clock.advance_to(min(horizons))
        return True

    def _stall(
        self, cause: str, blocked: Callable[[], bool], relieve: Callable[[], bool]
    ) -> None:
        """Block the writer while ``blocked()``: run ``relieve()`` (merge
        work charged to the writer), wait for busy workers, and give up
        once nothing can make progress."""
        started = self.stasis.clock.now
        with self.runtime.trace.span("stall", cause=cause):
            while blocked():
                if relieve():
                    continue
                if self._wait_for_background():
                    continue
                break
        self._ctr_stalls.inc()
        self._hist_stall.observe(self.stasis.clock.now - started)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls, stasis: Stasis, options: BLSMOptions | None = None, **layout: Any
    ) -> Any:
        """Rebuild a tree from durable state after ``stasis.crash()``.

        Phase 1 restores the component layout from the newest committed
        manifest (one WAL read) and frees extents orphaned by torn
        merges.  Phase 2 replays the logical log into a fresh C0.  Bloom
        filters that were not persisted are rebuilt by scanning each
        component — a real, charged recovery cost (Section 4.4.3).
        """
        tree = cls.__new__(cls)
        tree._open(options, stasis, **layout)
        manifest = stasis.recover_manifest()
        tree._next_seqno = manifest["next_seqno"]
        tree._next_tree_id = manifest["next_tree_id"]
        free_orphan_extents(stasis, live_extents(tree._restore_layout(manifest)))
        tree._next_seqno = max(
            tree._next_seqno, replay_logical_log(stasis, tree._memtable)
        )
        return tree

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError()

    @staticmethod
    def _collect(record: Record | None, versions: list[Record]) -> bool:
        """Append a found version; return True to terminate the walk."""
        if record is None:
            return False
        versions.append(record)
        return not record.is_delta

    def _take_seqno(self) -> int:
        seqno = self._next_seqno
        self._next_seqno += 1
        return seqno

    def _take_tree_id(self) -> int:
        tree_id = self._next_tree_id
        self._next_tree_id += 1
        return tree_id

    def _new_memtable(self) -> MemTable:
        return MemTable(
            self._c0_capacity, seed=self.options.seed, kind=self.options.memtable
        )

    def _rotate_memtable(self, kind: str) -> MemTable:
        """Swap in an empty memtable; return the one swapped out."""
        old = self._memtable
        self._memtable = self._new_memtable()
        self._ctr_rotations.inc()
        self.runtime.trace.emit("memtable_rotate", kind=kind, frozen_bytes=old.nbytes)
        return old

    def _build_memtable_run(self) -> SSTable | None:
        """Write the whole active memtable out as one sorted run."""
        builder = SSTableBuilder(
            self.stasis,
            tree_id=self._take_tree_id(),
            expected_bytes=self._memtable.nbytes,
            expected_keys=len(self._memtable),
            with_bloom=self.options.with_bloom_filters,
            bloom_false_positive_rate=self.options.bloom_false_positive_rate,
            compression_ratio=self.options.compression_ratio,
        )
        for record in self._memtable:
            builder.add(record)
        return builder.finish()

    def _retain_log(self, *memtables: MemTable | None) -> None:
        """Checkpoint the log down to the writes still resident in memory.

        Everything a completed merge consumed is durable; what remains
        replayable is exactly the listed memtables' contents.  Retention
        is exact, not a seqno prefix: replaying a record a component
        already contains would double-apply deltas.
        """
        coverage: dict[bytes, tuple[int, int]] = {}
        for table in memtables:
            if table is None:
                continue
            for record in table:
                bounds = coverage.get(record.key)
                start, end = record.coverage_start, record.seqno
                if bounds is not None:
                    start = min(start, bounds[0])
                    end = max(end, bounds[1])
                coverage[record.key] = (start, end)
        self.stasis.logical_log.retain_ranges(coverage)

    def _maybe_persist_bloom(self, component: SSTable | None) -> None:
        if component is not None and self.options.persist_bloom_filters:
            from repro.sstable.bloom_store import persist_bloom

            persist_bloom(self.stasis, component)

    def _rebuild(self, desc: dict[str, Any] | None) -> SSTable | None:
        return rebuild_component(self.stasis, desc, self.options)
