"""The shared front end of the bLSM tree family (repro.core.frontend)."""

from dataclasses import replace

import pytest

from repro.baselines import LevelDBEngine
from repro.core import BLSM, BLSMOptions, CompactionTree, LSMFrontEnd, PartitionedBLSM
from repro.core.compaction import make_tree, recover_tree
from repro.storage import DurabilityMode
from repro.storage.logical_log import LogicalLog
from repro.storage.wal import WriteAheadLog

OPTIONS = BLSMOptions(
    c0_bytes=8 * 1024, buffer_pool_pages=16, durability=DurabilityMode.SYNC
)

TREES = {
    "blsm": ({}, {}),
    "partitioned": ({}, {"partitioned": True, "max_partition_bytes": 16 * 1024}),
    "leveled": ({"compaction_policy": "leveled"}, {}),
    "tiered": ({"compaction_policy": "tiered"}, {}),
}


def _options(name):
    return replace(OPTIONS, **TREES[name][0])


def _load(tree, n=1500):
    for i in range(n):
        tree.put(b"k%05d" % ((i * 37) % 900), b"v%05d" % i + bytes(40))
    tree.delete(b"k00037")
    tree.apply_delta(b"k00074", b"+d")


class _ReadCounter:
    """Count calls to a log's full-read method during recovery."""

    def __init__(self, monkeypatch, cls, attr):
        self.calls = 0
        original = getattr(cls, attr)

        def counted(log, *args, **kwargs):
            self.calls += 1
            return original(log, *args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)


@pytest.mark.parametrize("name", sorted(TREES))
def test_recovery_reads_each_log_once(name, monkeypatch):
    options = _options(name)
    layout = TREES[name][1]
    tree = make_tree(options, **layout)
    _load(tree)
    expected = dict(tree.scan(b""))
    tree.stasis.crash()
    wal_reads = _ReadCounter(monkeypatch, WriteAheadLog, "records")
    log_reads = _ReadCounter(monkeypatch, LogicalLog, "replay")
    recovered = recover_tree(tree.stasis, options, **layout)
    assert (wal_reads.calls, log_reads.calls) == (1, 1)
    assert type(recovered) is type(tree)
    assert dict(recovered.scan(b"")) == expected


def test_leveldb_recovery_reads_each_log_once(monkeypatch):
    engine = LevelDBEngine(memtable_bytes=4096, file_bytes=16 * 1024)
    for i in range(1500):
        engine.put(b"k%05d" % ((i * 37) % 900), b"v%05d" % i)
    engine.flush()
    expected = dict(engine.scan(b""))
    engine.stasis.crash()
    wal_reads = _ReadCounter(monkeypatch, WriteAheadLog, "records")
    log_reads = _ReadCounter(monkeypatch, LogicalLog, "replay")
    recovered = LevelDBEngine.recover(
        engine.stasis, memtable_bytes=4096, file_bytes=16 * 1024
    )
    assert (wal_reads.calls, log_reads.calls) == (1, 1)
    assert dict(recovered.scan(b"")) == expected


def test_every_tree_shares_one_front_end():
    for cls in (BLSM, PartitionedBLSM, CompactionTree):
        assert issubclass(cls, LSMFrontEnd)
        for attr in ("delete", "write_batch", "flush_log", "close", "recover"):
            assert attr not in cls.__dict__, (cls.__name__, attr)
    # BLSM re-binds its hot entry point into its own class body (per-class
    # instrumentation patches BLSM.__dict__) without a second copy.
    assert BLSM.__dict__["put"] is LSMFrontEnd.put


def test_partitioned_tree_commits_batches_through_group_commit():
    tree = PartitionedBLSM(replace(OPTIONS, durability=DurabilityMode.GROUP))
    ticket = tree.write_batch(
        [("put", b"a", b"1"), ("put", b"b", b"2"), ("delete", b"a", None)]
    )
    assert ticket.ops == 3 and ticket.durable_at is not None
    assert list(tree.scan(b"")) == [(b"b", b"2")]


def test_partitioning_requires_the_blsm3_policy():
    with pytest.raises(ValueError, match="blsm3"):
        make_tree(replace(OPTIONS, compaction_policy="leveled"), partitioned=True)
