"""One engine adapter for every tree of the bLSM family.

:class:`LSMEngine` forwards the :class:`KVEngine` surface to a tree built
on :class:`repro.core.frontend.LSMFrontEnd`.  The per-tree subclasses
only name the engine, build the tree and add their ``io_summary``
extras:

* :class:`BLSMEngine` — the paper's three-level :class:`repro.core.BLSM`;
* :class:`CompactionEngine` — any ``BLSMOptions.compaction_policy``
  through :func:`repro.core.compaction.make_tree`, named after the
  policy so benchmark sweeps and the differential fuzzer iterate the
  design space with the loop they use for every other engine;
* :class:`PartitionedBLSMEngine` — the range-partitioned
  :class:`repro.core.PartitionedBLSM`.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.baselines.interface import KVEngine, WriteBatch
from repro.core.compaction import make_tree
from repro.core.options import BLSMOptions
from repro.core.partitioned import PartitionedBLSM
from repro.core.tree import BLSM
from repro.core.versions import TreeSnapshot
from repro.sim.clock import VirtualClock
from repro.storage.group_commit import CommitTicket
from repro.storage.logical_log import DurabilityMode

__all__ = ["BLSMEngine", "CompactionEngine", "LSMEngine", "PartitionedBLSMEngine"]


class LSMEngine(KVEngine):
    """A bLSM-family tree behind the common engine interface."""

    tree: Any

    @classmethod
    def from_tree(cls, tree: Any) -> "LSMEngine":
        """Wrap an already-built tree (e.g. one produced by crash
        recovery) without constructing a fresh substrate."""
        engine = cls.__new__(cls)
        engine.tree = tree
        return engine

    @property
    def clock(self) -> VirtualClock:
        return self.tree.stasis.clock

    def get(self, key: bytes) -> bytes | None:
        return self.tree.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self.tree.put(key, value)

    def delete(self, key: bytes) -> None:
        self.tree.delete(key)

    def scan(
        self, lo: bytes, hi: bytes | None = None, limit: int | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        return self.tree.scan(lo, hi, limit)

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        return self.tree.insert_if_not_exists(key, value)

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        self.tree.apply_delta(key, delta)

    def apply_batch(self, batch: "WriteBatch | Any") -> None:
        # Under GROUP durability a batch is a commit unit: route it
        # through the group-commit queue so batched drivers (the
        # differential fuzzer's batched configs) exercise the shared
        # force path rather than bypassing it.
        if self.tree.stasis.logical_log.mode is DurabilityMode.GROUP:
            self.tree.write_batch(batch)
        else:
            super().apply_batch(batch)

    def commit_batch(
        self, batch: "WriteBatch", session: int = 0, wait: bool = True
    ) -> CommitTicket:
        return self.tree.write_batch(batch, session=session, wait=wait)

    def snapshot(self) -> TreeSnapshot:
        return self.tree.snapshot()

    def flush(self) -> None:
        self.tree.flush_log()

    def close(self) -> None:
        self.tree.close()

    def io_summary(self) -> dict[str, Any]:
        return self.tree.stasis.io_summary()


class BLSMEngine(LSMEngine):
    """bLSM behind the common engine interface."""

    name = "bLSM"

    def __init__(self, options: BLSMOptions | None = None) -> None:
        self.tree = BLSM(options)


class CompactionEngine(LSMEngine):
    """A policy-parameterized compaction tree behind the engine interface."""

    name = "compaction"

    def __init__(self, options: BLSMOptions | None = None) -> None:
        if options is None:
            options = BLSMOptions(compaction_policy="leveled")
        self.tree = make_tree(options)
        self.name = options.compaction_policy

    def io_summary(self) -> dict[str, Any]:
        summary = super().io_summary()
        summary["level_runs"] = [len(level) for level in self.level_view()["levels"]]
        return summary

    def level_view(self) -> dict[str, Any]:
        """Layout snapshot (policy, per-level runs and budgets)."""
        return self.tree.level_view()


class PartitionedBLSMEngine(LSMEngine):
    """Partitioned bLSM behind the common engine interface.

    Batches, commits and snapshots take the :class:`KVEngine` defaults:
    sequential applies, one flush per commit, a materialized snapshot.
    """

    name = "bLSM-part"

    apply_batch = KVEngine.apply_batch
    commit_batch = KVEngine.commit_batch
    snapshot = KVEngine.snapshot

    def __init__(
        self,
        options: BLSMOptions | None = None,
        max_partition_bytes: int | None = None,
    ) -> None:
        self.tree = PartitionedBLSM(options, max_partition_bytes=max_partition_bytes)

    def io_summary(self) -> dict[str, Any]:
        summary = super().io_summary()
        summary["partitions"] = self.tree.partition_count
        return summary
