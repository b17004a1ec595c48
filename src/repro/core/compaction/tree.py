"""An LSM tree whose on-disk layout is owned by a pluggable policy.

Where :class:`repro.core.tree.BLSM` hardcodes the paper's three on-disk
slots, a :class:`CompactionTree` pairs one memtable with a
:class:`~repro.core.compaction.manager.LevelManager` and delegates every
layout decision — how many runs a level may hold, what merges are due —
to a :class:`~repro.core.compaction.policy.CompactionPolicy`.  The tree
shares bLSM's *mechanisms* through
:class:`~repro.core.frontend.LSMFrontEnd` (logical logging, group
commit, budget-stepped merges paced by the write path,
manifest-committed installs, log-replay recovery) and swaps only the
*policy*, which is exactly the factoring the compaction design-space
literature argues for (Sarkar et al.; Luo & Carey, PAPERS.md).

Differences from the bLSM tree, all policy-neutral:

* C0 is flushed whole to a level-0 run when full (the LevelDB shape)
  instead of being consumed incrementally by snowshovel merges, so the
  logical log truncates to a simple seqno prefix at each flush.
* Backpressure is level-0 run count, not C0 fill: once L0 accumulates
  ``options.level0_stop_trigger`` runs the writer stalls and drives
  merge work inline until L0 drains below the policy's trigger.
* At most two merge jobs run at a time — one with source level 0
  (driven by :meth:`step_m01`) and one deeper (driven by
  :meth:`step_m12`) — which is how the existing merge schedulers'
  two-gear surface maps onto N levels without modification.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.compaction.manager import LevelManager
from repro.core.compaction.merge import PolicyMergeJob
from repro.core.compaction.policy import CompactionPolicy, MergePlan, make_policy
from repro.core.frontend import LSMFrontEnd
from repro.core.options import BLSMOptions
from repro.core.progress import outprogress
from repro.core.versions import TreeSnapshot, ram_source
from repro.records import Record, resolve
from repro.sstable.reader import SSTable

__all__ = ["CompactionTree"]


class CompactionTree(LSMFrontEnd):
    """A policy-parameterized LSM tree over the generalized level manager."""

    @staticmethod
    def _default_options() -> BLSMOptions:
        return BLSMOptions(compaction_policy="leveled")

    def _init_state(self) -> None:
        opts = self.options
        self._policy: CompactionPolicy = make_policy(
            opts.compaction_policy,
            level0_trigger=opts.level0_trigger,
            fanout=opts.tier_fanout,
        )
        #: the running merge per gear: level-0-sourced and deeper
        self._jobs: dict[str, PolicyMergeJob | None] = {"c0c1": None, "c1c2": None}

    def _base_bytes(self) -> int:
        """Level-1 byte budget: L0's worth of whole-memtable flushes."""
        opts = self.options
        if opts.level_base_bytes is not None:
            return opts.level_base_bytes
        return max(1, opts.level0_trigger * opts.c0_bytes)

    def _init_layout(self) -> None:
        self._manager = LevelManager(self._base_bytes(), self.options.level_ratio)

    def _restore_layout(self, manifest: dict[str, Any]) -> list[SSTable | None]:
        self._manager = LevelManager.rebuild(
            self.stasis,
            manifest["levels"],
            self._base_bytes(),
            self.options.level_ratio,
            self.options,
        )
        return list(self._manager.iter_tables())

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Point lookup: probe runs newest-to-oldest, stop at a base.

        Recency is a total order over the structure (data only flows
        downward), so the memtable followed by
        :meth:`LevelManager.iter_tables` *is* the correct probe order
        for every policy; Bloom filters skip most absent probes.
        """
        self._check_open()
        versions: list[Record] = []
        if self._collect(self._memtable.get(key), versions):
            return resolve(versions)
        for table in self._manager.iter_tables():
            if self._collect(table.get(key), versions):
                break
        return resolve(versions)

    def scan(
        self,
        lo: bytes,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan across every run, against a pinned snapshot.

        A merge installing (or the memtable flushing) underneath a
        paused scan is invisible: the snapshot pinned the run set at
        scan start, so there is no restart and no row is observed twice
        — same semantics as :meth:`repro.core.tree.BLSM.scan`.
        """
        self._check_open()
        with self.snapshot() as snap:
            yield from snap.scan(lo, hi, limit)

    def snapshot(self) -> TreeSnapshot:
        """Pin a consistent point-in-time read view of the tree.

        The memtable is copied; every on-disk run is pinned in the
        :class:`VersionSet` so merge installs defer their frees past
        the snapshot's lifetime.
        """
        self._check_open()
        return TreeSnapshot(
            self.versions,
            [ram_source(self._memtable)],
            list(self._manager.iter_tables()),
            engine=self._policy.name,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Flush C0 and run every due merge to completion."""
        self._check_open()
        if not self._memtable.is_empty:
            self._flush_memtable()
        while self.step_m01(1 << 30) or self.step_m12(1 << 30):
            pass

    def compact(self) -> None:
        """Merge everything into a single bottom-level run."""
        self.drain()
        tables = list(self._manager.iter_tables())
        if len(tables) <= 1:
            return
        bottom = self._manager.deepest_nonempty()
        assert bottom is not None
        plan = MergePlan(
            bottom, bottom, include_target=True, label="compact"
        )
        job = PolicyMergeJob(
            self.stasis,
            plan,
            tables,
            self._take_tree_id(),
            drop_tombstones=True,
            options=self.options,
        )
        while not job.done:
            job.step(1 << 30)
        self._install_job(job, gear="c1c2")

    # ------------------------------------------------------------------
    # Scheduler interface (the two-gear surface over N levels)
    # ------------------------------------------------------------------

    @property
    def m01_inprogress(self) -> float:
        """Progress of the level-0 merge job (1.0 when none is due)."""
        job = self._jobs["c0c1"]
        if job is not None:
            return job.inprogress
        return 0.0 if self._next_plan(shallow=True) is not None else 1.0

    @property
    def m01_outprogress(self) -> float:
        """Level 1's standing within its geometric budget."""
        return outprogress(
            self.m01_inprogress,
            self._manager.level_bytes(1),
            self.options.c0_bytes,
            self._manager.ratio,
        )

    @property
    def m12_inprogress(self) -> float:
        """Progress of the deep merge job (1.0 when none is due)."""
        job = self._jobs["c1c2"]
        if job is not None:
            return job.inprogress
        return 0.0 if self._next_plan(shallow=False) is not None else 1.0

    @property
    def m01_input_bytes(self) -> int:
        """Input size of the active (or next) level-0 merge."""
        job = self._jobs["c0c1"]
        if job is not None:
            return job.input_bytes
        return max(
            1, self._manager.level_bytes(0) + self._manager.level_bytes(1)
        )

    @property
    def m12_input_bytes(self) -> int:
        """Input size of the active (or next) deep merge."""
        job = self._jobs["c1c2"]
        if job is not None:
            return job.input_bytes
        deep = self._manager.total_bytes() - self._manager.level_bytes(0)
        return max(1, deep)

    def write_amplification_estimate(self) -> float:
        """Analytic bytes of merge I/O per written byte (policy-owned)."""
        levels = self._manager.deepest_nonempty()
        depth = max(1, (levels if levels is not None else 0) + 1)
        return max(
            2.0,
            self._policy.estimated_write_amplification(
                depth, self._manager.ratio
            ),
        )

    def step_m01(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of level-0-sourced merge work."""
        return self._merge_step("c0c1", budget_bytes)

    def step_m12(self, budget_bytes: int) -> int:
        """Run up to ``budget_bytes`` of deeper merge work."""
        return self._merge_step("c1c2", budget_bytes)

    def force_drain(self, target_fill: float, chunk: int) -> None:
        """Scheduler stall hook: flush a full C0, then drain L0 overflow."""
        self._check_open()
        if (
            self._memtable.fill_fraction >= 1.0
            and self._memtable.fill_fraction > target_fill
        ):
            self._flush_memtable()
        chunk = max(1, chunk)
        while self._manager.run_count(0) >= self._policy.max_runs(0):
            if self.step_m01(chunk) == 0 and self.step_m12(chunk) == 0:
                break

    # ------------------------------------------------------------------
    # Merge machinery
    # ------------------------------------------------------------------

    def _busy_levels(self) -> set[int]:
        busy: set[int] = set()
        for job in self._jobs.values():
            if job is not None:
                busy.add(job.plan.source_level)
                busy.add(job.plan.target_level)
        return busy

    def _next_plan(self, shallow: bool) -> MergePlan | None:
        """The most urgent due plan for one gear (L0-sourced or deeper)."""
        for plan in self._policy.plan_merges(self._manager, self._busy_levels()):
            if (plan.source_level == 0) == shallow:
                return plan
        return None

    def _start_job(self, plan: MergePlan) -> PolicyMergeJob:
        inputs = list(self._manager.runs(plan.source_level))
        if plan.include_target and plan.target_level != plan.source_level:
            inputs.extend(self._manager.runs(plan.target_level))
        job = PolicyMergeJob(
            self.stasis,
            plan,
            inputs,
            self._take_tree_id(),
            drop_tombstones=self._policy.drop_tombstones(self._manager, plan),
            options=self.options,
        )
        gear = "c0c1" if plan.source_level == 0 else "c1c2"
        self._merge_obs[gear][0].inc()
        self.runtime.trace.emit(
            "merge_start",
            level=gear,
            plan=plan.label,
            input_bytes=job.input_bytes,
        )
        return job

    def _merge_job(self, gear: str) -> tuple[str, PolicyMergeJob] | None:
        job = self._jobs[gear]
        if job is None:
            plan = self._next_plan(shallow=gear == "c0c1")
            if plan is None:
                return None
            job = self._jobs[gear] = self._start_job(plan)
        return gear, job

    def _finish_job(self, level: str, process: PolicyMergeJob) -> None:
        self._jobs[level] = None
        self._install_job(process, level)

    def _install_job(self, job: PolicyMergeJob, gear: str) -> None:
        """Swap a finished job's inputs for its output, durably.

        Ordering mirrors the bLSM tree: install in memory, commit the
        manifest (the durability point), then retire the inputs (their
        extents are freed once no snapshot pins them).
        """
        self._manager.install(job.inputs, job.plan.target_level, job.output)
        self.runtime.trace.emit(
            "merge_finish",
            level=gear,
            plan=job.plan.label,
            output_bytes=job.output.nbytes if job.output is not None else 0,
        )
        self.stasis.commit_manifest(self._manifest())
        for table in job.inputs:
            self.versions.retire(table)

    # ------------------------------------------------------------------
    # Write internals
    # ------------------------------------------------------------------

    def _on_c0_full(self) -> None:
        self._stall_for_level0()
        self._flush_memtable()

    def _stall_for_level0(self) -> None:
        """Hard backpressure: too many L0 runs blocks the writer.

        The writer drives merge work inline (charged to its own clock —
        the latency spike the paper's schedulers exist to avoid) until
        L0 drops below the policy's trigger.
        """
        if self._manager.run_count(0) < self.options.level0_stop_trigger:
            return
        self._ctr_memtable_full.inc()
        self.runtime.trace.emit(
            "level0_full", runs=self._manager.run_count(0)
        )
        self._stall(
            "level0_backpressure",
            lambda: self._manager.run_count(0) >= self._policy.max_runs(0),
            lambda: self.step_m01(1 << 30) > 0 or self.step_m12(1 << 30) > 0,
        )

    def _flush_memtable(self) -> None:
        """Flush the whole memtable as level 0's newest run.

        The manifest commits before the log truncates, so a crash
        between the two replays onto state that already contains the
        run — idempotent because replay rebuilds C0 from scratch.
        """
        if self._memtable.is_empty:
            return
        table = self._build_memtable_run()
        if table is not None:
            self._manager.add_run(0, table)
        self._rotate_memtable("flush")
        self.stasis.commit_manifest(self._manifest())
        self.stasis.logical_log.truncate(self._next_seqno)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def policy(self) -> CompactionPolicy:
        """The layout-owning policy object."""
        return self._policy

    @property
    def manager(self) -> LevelManager:
        """The level structure (read-only use outside the tree)."""
        return self._manager

    def level_view(self) -> dict[str, Any]:
        """Layout snapshot: per-level runs, budgets, memtable fill."""
        return {
            "policy": self._policy.name,
            "memtable_bytes": self._memtable.nbytes,
            "levels": self._manager.level_view(),
            "max_bytes": [
                self._manager.max_bytes(level)
                for level in range(self._manager.level_count)
            ],
        }

    def _layout_stats(self) -> dict[str, Any]:
        return {
            "policy": self._policy.name,
            "level_runs": [
                self._manager.run_count(level)
                for level in range(self._manager.level_count)
            ],
        }

    def __repr__(self) -> str:
        runs = "/".join(
            str(self._manager.run_count(level))
            for level in range(self._manager.level_count)
        )
        return (
            f"CompactionTree(policy={self._policy.name}, "
            f"c0={self._memtable.nbytes}, runs={runs or '-'}, "
            f"t={self.stasis.clock.now:.3f}s)"
        )

    def _manifest(self) -> dict[str, Any]:
        return {
            "policy": self._policy.name,
            "next_seqno": self._next_seqno,
            "next_tree_id": self._next_tree_id,
            "levels": self._manager.describe(),
        }
