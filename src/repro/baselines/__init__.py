"""Comparison systems from the paper's evaluation (Section 5).

* :class:`BTreeEngine` — an update-in-place B-Tree with a buffer pool;
  the InnoDB stand-in.  One seek per uncached read, two per update
  (Section 2.2), fragmentation that degrades long scans (Section 5.6).
* :class:`LevelDBEngine` — a multi-level leveled LSM with a small
  memtable, no Bloom filters, and a partition (file-granularity)
  compaction scheduler; the LevelDB stand-in.  O(levels) seeks per read
  and unbounded write pauses under sustained load (Sections 3.2, 5.2).
* :class:`BLSMEngine`, :class:`PartitionedBLSMEngine` and
  :class:`CompactionEngine` — one adapter (:class:`LSMEngine`) exposing
  the bLSM tree family through the common engine interface used by the
  YCSB runner.
"""

from repro.baselines.bitcask_engine import BitCaskEngine
from repro.baselines.btree_engine import BTreeEngine
from repro.baselines.interface import (
    IO_SUMMARY_KEYS,
    KVEngine,
    WriteBatch,
    build_io_summary,
    validate_io_summary,
)
from repro.baselines.leveldb_engine import LevelDBEngine
from repro.baselines.lsm_engine import (
    BLSMEngine,
    CompactionEngine,
    LSMEngine,
    PartitionedBLSMEngine,
)

__all__ = [
    "BitCaskEngine",
    "BLSMEngine",
    "BTreeEngine",
    "CompactionEngine",
    "IO_SUMMARY_KEYS",
    "KVEngine",
    "LevelDBEngine",
    "LSMEngine",
    "PartitionedBLSMEngine",
    "WriteBatch",
    "build_io_summary",
    "validate_io_summary",
]
