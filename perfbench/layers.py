"""Per-layer spans recorded from outside the engine.

The benchmark never edits ``src/``.  For the traced run it replaces the
public methods of each layer's class with thin wrappers that open a span
on entry and close it on exit.  A span is one row in four parallel
arrays: bucket id, parent span id, start and end (``time.perf_counter``).
The parent is whichever span was open when the call started, so the
spans of one operation form a tree rooted at the benchmark's own
``bench.op`` span.  A bucket's *self time* is its spans' duration minus
the time their child spans cover; self times of all buckets add up to
the time the root spans cover.

Wrappers patch classes, so they must be installed before the engine is
built (no pre-bound method escapes them) and removed afterwards.  Some
wrappers also count what their layer did at its own boundary: Bloom
probe outcomes, buffer hits, pages moved, device bytes and seeks, merge
bytes and completed passes.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Any, Callable, Iterator

perf_counter = time.perf_counter

#: Span buckets, in report order.  ``<bucket>_self_us`` is the bucket's
#: self time per measured operation.
BUCKETS: tuple[str, ...] = (
    "bench.op",
    "core.tree.put",
    "core.tree.get",
    "core.tree.scan",
    "core.scheduler.on_write",
    "core.merge.step",
    "core.versions.snapshot",
    "memtable.put",
    "memtable.get",
    "memtable.iter",
    "bloom.add",
    "bloom.probe",
    "sstable.get",
    "sstable.scan",
    "sstable.build",
    "storage.buffer.get",
    "storage.pagefile.io",
    "storage.logical_log.log",
    "storage.wal.append",
    "storage.group_commit.commit",
    "sim.disk.access",
)
BUCKET_ID = {name: index for index, name in enumerate(BUCKETS)}

#: Methods that only need a span: (module, class, method, bucket,
#: returns-a-generator).  Methods that also count are wrapped in
#: :meth:`Tracer._install_counting`.
PLAIN_WRAPS: tuple[tuple[str, str, str, str, bool], ...] = (
    ("repro.core.tree", "BLSM", "put", "core.tree.put", False),
    ("repro.core.scheduler", "NaiveScheduler", "on_write", "core.scheduler.on_write", False),
    ("repro.core.scheduler", "GearScheduler", "on_write", "core.scheduler.on_write", False),
    ("repro.core.scheduler", "SpringGearScheduler", "on_write", "core.scheduler.on_write", False),
    ("repro.memtable.memtable", "MemTable", "put", "memtable.put", False),
    ("repro.memtable.memtable", "MemTable", "remove", "memtable.put", False),
    ("repro.memtable.memtable", "MemTable", "get", "memtable.get", False),
    ("repro.memtable.memtable", "MemTable", "ceiling_key", "memtable.get", False),
    ("repro.memtable.memtable", "MemTable", "iter_from", "memtable.iter", True),
    ("repro.memtable.memtable", "MemTable", "scan", "memtable.iter", True),
    ("repro.sstable.reader", "SSTable", "scan", "sstable.scan", True),
    ("repro.sstable.builder", "SSTableBuilder", "add", "sstable.build", False),
    ("repro.sstable.builder", "SSTableBuilder", "finish", "sstable.build", False),
    ("repro.storage.buffer", "BufferManager", "put", "storage.buffer.get", False),
    ("repro.storage.logical_log", "LogicalLog", "log", "storage.logical_log.log", False),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal.append", False),
    ("repro.storage.wal", "WriteAheadLog", "force", "storage.wal.append", False),
    ("repro.storage.group_commit", "GroupCommitQueue", "commit", "storage.group_commit.commit", False),
    ("repro.storage.group_commit", "GroupCommitQueue", "wait", "storage.group_commit.commit", False),
)


def resolve_class(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


class Tracer:
    """Span recorder plus the boundary counters of one traced run."""

    def __init__(self) -> None:
        self.bucket = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[type, str, Any]] = []
        # Context the counting wrappers consult.
        self.read_depth = 0  # inside BLSM.get / BLSM.scan
        self.sst_get_depth = 0  # inside SSTable.get
        self.log_depth = 0  # inside LogicalLog.force
        self.manifest_depth = 0  # inside Stasis.commit_manifest
        self.merge_level = ""  # "c0c1" / "c1c2" inside BLSM.step_m0x
        self.last_probe = False

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        """Drop spans and counts (the measured phase starts now)."""
        self.bucket = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack.clear()
        self.counts = {}

    def bump(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def open(self, bucket_id: int) -> int:
        """Start a span; return its id (pair with :meth:`close`)."""
        stack = self.stack
        sid = len(self.start)
        self.bucket.append(bucket_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def span(self, bucket: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call is one span of ``bucket``."""
        bucket_id = BUCKET_ID[bucket]
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            # open()/close() inlined: this runs on every wrapped call.
            stack = tracer.stack
            sid = len(tracer.start)
            tracer.bucket.append(bucket_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()

        return traced

    def span_iter(
        self, bucket: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """Wrap a generator method: each ``next()`` is one span.

        Generator resumption is a nested call, so per-``next`` spans
        nest correctly even when several generators interleave.
        """
        bucket_id = BUCKET_ID[bucket]
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                sid = tracer.open(bucket_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                yield item

        return traced

    # -- installation --------------------------------------------------

    def _patch(self, cls: type, attr: str, replacement: Any) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public methods (before the engine exists)."""
        for module, cls_name, attr, bucket, is_gen in PLAIN_WRAPS:
            cls = resolve_class(module, cls_name)
            wrap = self.span_iter if is_gen else self.span
            self._patch(cls, attr, wrap(bucket, cls.__dict__[attr]))
        self._install_counting()

    def uninstall(self) -> None:
        """Restore every patched method, newest patch first."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def _install_counting(self) -> None:
        tracer = self
        blsm = resolve_class("repro.core.tree", "BLSM")
        merge = resolve_class("repro.core.merge", "MergeProcess")
        bloom = resolve_class("repro.bloom.filter", "BloomFilter")
        sstable = resolve_class("repro.sstable.reader", "SSTable")
        buffer = resolve_class("repro.storage.buffer", "BufferManager")
        pagefile = resolve_class("repro.storage.pagefile", "PageFile")
        logical = resolve_class("repro.storage.logical_log", "LogicalLog")
        stasis = resolve_class("repro.storage.stasis", "Stasis")
        disk = resolve_class("repro.sim.disk", "SimDisk")

        # core.tree reads: mark the read context so device seeks beneath
        # can be attributed to reads.  A scan is drained inside one span
        # (the benchmark drains every scan at once anyway), which keeps
        # per-row generator hand-offs out of the unattributed root time.
        tree_get_fn = blsm.__dict__["get"]

        def tree_get(self: Any, key: bytes) -> Any:
            tracer.read_depth += 1
            try:
                return tree_get_fn(self, key)
            finally:
                tracer.read_depth -= 1

        self._patch(blsm, "get", self.span("core.tree.get", tree_get))
        tree_scan_fn = blsm.__dict__["scan"]
        scan_id = BUCKET_ID["core.tree.scan"]

        def tree_scan(self: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
            sid = tracer.open(scan_id)
            tracer.read_depth += 1
            try:
                rows = list(tree_scan_fn(self, *args, **kwargs))
            finally:
                tracer.read_depth -= 1
                tracer.close(sid)
            return iter(rows)

        self._patch(blsm, "scan", tree_scan)

        self._patch(
            blsm, "snapshot", self.span("core.versions.snapshot", blsm.__dict__["snapshot"])
        )

        # core.merge: bytes per level, merge virtual seconds, passes.
        for attr, level in (("step_m01", "c0c1"), ("step_m12", "c1c2")):
            step_level = blsm.__dict__[attr]

            def step(
                self: Any, budget: int, _step: Any = step_level, _level: str = level
            ) -> int:
                clock = self.stasis.clock
                before = clock.now
                outer = tracer.merge_level
                tracer.merge_level = _level
                try:
                    worked = _step(self, budget)
                finally:
                    tracer.merge_level = outer
                tracer.bump(f"merge.{_level}_bytes", worked)
                tracer.bump("merge.virt_s", clock.now - before)
                return worked

            self._patch(blsm, attr, self.span("core.merge.step", step))
        merge_step = merge.__dict__["step"]

        def process_step(self: Any, budget: int) -> int:
            was_done = self.done
            worked = merge_step(self, budget)
            if self.done and not was_done:
                tracer.bump(f"merge.{tracer.merge_level or 'other'}_passes")
            return worked

        self._patch(merge, "step", self.span("core.merge.step", process_step))

        # bloom: the probe outcome SSTable.get consults.
        contains = bloom.__dict__["__contains__"]

        def probe(self: Any, key: bytes) -> bool:
            tracer.last_probe = passed = contains(self, key)
            return passed

        self._patch(bloom, "__contains__", self.span("bloom.probe", probe))
        self._patch(bloom, "add", self.span("bloom.add", bloom.__dict__["add"]))

        # sstable.get: filter passes that found nothing are false positives.
        table_get = sstable.__dict__["get"]

        def sst_get(self: Any, key: bytes) -> Any:
            tracer.last_probe = False
            tracer.sst_get_depth += 1
            try:
                record = table_get(self, key)
            finally:
                tracer.sst_get_depth -= 1
            if self.bloom is not None and tracer.last_probe:
                tracer.bump("bloom.passed")
                if record is None:
                    tracer.bump("bloom.false_positives")
            return record

        self._patch(sstable, "get", self.span("sstable.get", sst_get))

        # storage.buffer: hits, and pages requested on behalf of SSTable.get.
        pool_get = buffer.__dict__["get"]

        def buffer_get(self: Any, page_id: int) -> Any:
            tracer.bump("buffer.hits" if page_id in self else "buffer.misses")
            if tracer.sst_get_depth:
                tracer.bump("sstable.get_pages")
            return pool_get(self, page_id)

        self._patch(buffer, "get", self.span("storage.buffer.get", buffer_get))

        # storage.pagefile: pages moved.
        read_page = pagefile.__dict__["read_page"]
        read_run = pagefile.__dict__["read_run"]
        write_page = pagefile.__dict__["write_page"]
        write_run = pagefile.__dict__["write_run"]

        def pf_read_page(self: Any, page_id: int) -> Any:
            tracer.bump("pagefile.pages_read")
            return read_page(self, page_id)

        def pf_read_run(self: Any, first: int, count: int) -> Any:
            tracer.bump("pagefile.pages_read", max(0, count))
            return read_run(self, first, count)

        def pf_write_page(self: Any, page_id: int, payload: Any) -> None:
            tracer.bump("pagefile.pages_written")
            return write_page(self, page_id, payload)

        def pf_write_run(self: Any, first: int, payloads: Any) -> None:
            tracer.bump("pagefile.pages_written", len(payloads))
            return write_run(self, first, payloads)

        for attr, fn in (
            ("read_page", pf_read_page),
            ("read_run", pf_read_run),
            ("write_page", pf_write_page),
            ("write_run", pf_write_run),
        ):
            self._patch(pagefile, attr, self.span("storage.pagefile.io", fn))

        # storage.logical_log: forces that wrote (bytes counted at the disk).
        log_force = logical.__dict__["force"]

        def force(self: Any) -> float:
            before = self.forces
            tracer.log_depth += 1
            try:
                return log_force(self)
            finally:
                tracer.log_depth -= 1
                tracer.bump("log.forces", self.forces - before)

        self._patch(logical, "force", self.span("storage.logical_log.log", force))

        # storage.wal: manifest commits (bytes counted at the disk).
        commit = stasis.__dict__["commit_manifest"]

        def commit_manifest(self: Any, manifest: Any) -> None:
            tracer.bump("wal.manifest_commits")
            tracer.manifest_depth += 1
            try:
                return commit(self, manifest)
            finally:
                tracer.manifest_depth -= 1

        self._patch(
            stasis, "commit_manifest", self.span("storage.wal.append", commit_manifest)
        )

        # sim.disk: seeks under reads, write bytes by caller, foreground wait.
        for attr in ("read", "write"):
            access_fn = disk.__dict__[attr]

            def access(
                self: Any,
                offset: int,
                nbytes: int,
                _access: Any = access_fn,
                _write: bool = attr == "write",
            ) -> float:
                stats = self.stats
                seeks = stats.seeks
                waited = stats.queue_wait_seconds
                latency = _access(self, offset, nbytes)
                if tracer.read_depth and stats.seeks != seeks:
                    tracer.bump("disk.read_seeks", stats.seeks - seeks)
                if self.clock.active_timeline is None:
                    tracer.bump("disk.fg_wait_s", stats.queue_wait_seconds - waited)
                if _write:
                    if tracer.log_depth:
                        tracer.bump("log.bytes", nbytes)
                    if tracer.manifest_depth:
                        tracer.bump("wal.manifest_bytes", nbytes)
                return latency

            self._patch(disk, attr, self.span("sim.disk.access", access))

    # -- reduction -----------------------------------------------------

    def self_seconds(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-bucket self seconds and per-bucket span counts."""
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += durations[sid]
        seconds = [0.0] * len(BUCKETS)
        spans = [0] * len(BUCKETS)
        for sid, bucket in enumerate(self.bucket):
            seconds[bucket] += durations[sid] - child[sid]
            spans[bucket] += 1
        return dict(zip(BUCKETS, seconds)), dict(zip(BUCKETS, spans))


def install_spin(
    target: tuple[str, str, str], micros: float
) -> Callable[[], None]:
    """Plant a CPU spin of ``micros`` µs around one method; return undo.

    The planted-regression self-check uses this to stand in for a slower
    implementation of exactly one layer.
    """
    module, cls_name, attr = target
    cls = resolve_class(module, cls_name)
    original = cls.__dict__[attr]
    seconds = micros / 1e6

    def spun(*args: Any, **kwargs: Any) -> Any:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            pass
        return original(*args, **kwargs)

    setattr(cls, attr, spun)

    def undo() -> None:
        setattr(cls, attr, original)

    return undo
