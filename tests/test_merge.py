"""Unit tests for the incremental merge process."""

import random

import pytest

from repro.core.merge import (
    EmptySource,
    FrozenSource,
    MergeProcess,
    RangeSnowshovelSource,
    SnowshovelSource,
)
from repro.engines import EngineConfig, build_engine
from repro.memtable import MEMTABLE_NAMES, MemTable, SnowshovelCursor
from repro.records import Record
from repro.sstable import SSTableBuilder, merge_records
from repro.storage import Stasis
from repro.testing import generate_trace, run_trace


@pytest.fixture
def stasis():
    return Stasis(buffer_pool_pages=64)


def make_table(stasis, keys, tree_id=1, seqno=0):
    builder = SSTableBuilder(stasis, tree_id=tree_id, expected_keys=len(keys))
    for i, key in enumerate(sorted(keys)):
        builder.add(Record.base(key, b"old", seqno + i))
    return builder.finish()


def make_memtable(keys, seqno=100):
    table = MemTable(1 << 20)
    for i, key in enumerate(keys):
        table.put(Record.base(key, b"new", seqno + i))
    return table


class TestSources:
    def test_empty_source(self):
        source = EmptySource()
        assert source.peek() is None
        with pytest.raises(StopIteration):
            source.pop()

    def test_frozen_source_orders(self):
        records = [Record.base(b"a", b"", 0), Record.base(b"b", b"", 1)]
        source = FrozenSource(iter(records))
        assert source.peek().key == b"a"
        assert source.pop().key == b"a"
        assert source.pop().key == b"b"
        assert source.peek() is None

    def test_snowshovel_source_sees_live_inserts(self):
        table = make_memtable([b"b"])
        source = SnowshovelSource(table)
        assert source.pop().key == b"b"
        table.put(Record.base(b"c", b"", 200))
        assert source.peek().key == b"c"


class TestMergeProcess:
    def test_merge_into_empty_level(self, stasis):
        memtable = make_memtable([b"a", b"b", b"c"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=7,
            input_bytes=memtable.nbytes,
            expected_keys=3,
            drop_tombstones=False,
        )
        process.run_to_completion()
        assert process.done
        assert process.output.key_count == 3
        assert memtable.is_empty

    def test_merge_combines_and_prefers_newer(self, stasis):
        old = make_table(stasis, [b"a", b"b"])
        memtable = make_memtable([b"b", b"c"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=old,
            tree_id=8,
            input_bytes=memtable.nbytes + old.nbytes,
            expected_keys=4,
            drop_tombstones=False,
        )
        process.run_to_completion()
        out = process.output
        assert out.key_count == 3
        assert out.get(b"b").value == b"new"
        assert out.get(b"a").value == b"old"

    def test_step_respects_budget(self, stasis):
        memtable = make_memtable([b"k%03d" % i for i in range(100)])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=9,
            input_bytes=memtable.nbytes,
            expected_keys=100,
            drop_tombstones=False,
        )
        worked = process.step(100)
        assert 0 < worked <= 200  # may overshoot by at most one record
        assert not process.done
        assert 0 < process.inprogress < 1

    def test_inprogress_reaches_one(self, stasis):
        memtable = make_memtable([b"a"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=10,
            input_bytes=memtable.nbytes,
            expected_keys=1,
            drop_tombstones=False,
        )
        process.run_to_completion()
        assert process.inprogress == 1.0
        assert process.step(1000) == 0  # completed merges do nothing

    def test_tombstones_dropped_at_bottom(self, stasis):
        old = make_table(stasis, [b"a"])
        memtable = MemTable(1 << 20)
        memtable.put(Record.tombstone(b"a", 50))
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=old,
            tree_id=11,
            input_bytes=old.nbytes + memtable.nbytes,
            expected_keys=2,
            drop_tombstones=True,
        )
        process.run_to_completion()
        assert process.output is None  # everything merged away

    def test_tombstones_kept_mid_tree(self, stasis):
        old = make_table(stasis, [b"a"])
        memtable = MemTable(1 << 20)
        memtable.put(Record.tombstone(b"a", 50))
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=old,
            tree_id=12,
            input_bytes=old.nbytes + memtable.nbytes,
            expected_keys=2,
            drop_tombstones=False,
        )
        process.run_to_completion()
        assert process.output.get(b"a").is_tombstone

    def test_overlay_keeps_consumed_records_readable(self, stasis):
        memtable = make_memtable([b"a", b"b"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=13,
            input_bytes=memtable.nbytes,
            expected_keys=2,
            drop_tombstones=False,
        )
        process.step(1)  # consumes at least record a
        assert memtable.get(b"a") is None
        assert process.overlay_get(b"a") is not None
        assert [r.key for r in process.overlay_scan(b"a", None)] == [b"a"]

    def test_seqno_tracking(self, stasis):
        memtable = make_memtable([b"a", b"b"], seqno=40)
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=14,
            input_bytes=memtable.nbytes,
            expected_keys=2,
            drop_tombstones=False,
        )
        process.run_to_completion()
        assert process.min_seqno_consumed == 40
        assert process.max_seqno_consumed == 41

    def test_abort_frees_partial_output(self, stasis):
        memtable = make_memtable([b"k%03d" % i for i in range(200)])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=15,
            input_bytes=memtable.nbytes,
            expected_keys=200,
            drop_tombstones=False,
        )
        process.step(1000)
        process.abort()
        assert process.done
        assert stasis.regions.allocated_extents == []

    def test_live_insert_ahead_of_cursor_joins_pass(self, stasis):
        memtable = make_memtable([b"b", b"y"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=None,
            tree_id=16,
            input_bytes=memtable.nbytes,
            expected_keys=4,
            drop_tombstones=False,
        )
        process.step(1)  # emits b
        memtable.put(Record.base(b"m", b"mid", 500))
        process.run_to_completion()
        keys = [r.key for r in process.output.iter_records()]
        assert keys == [b"b", b"m", b"y"]

    def test_cursor_tracks_older_source_output(self, stasis):
        # A fresh insert between the snowshovel cursor and a key already
        # emitted from C1 must wait for the next pass (ordering).
        old = make_table(stasis, [b"m", b"z"])
        memtable = make_memtable([b"a"])
        process = MergeProcess(
            stasis,
            newer=SnowshovelSource(memtable),
            older=old,
            tree_id=17,
            input_bytes=old.nbytes + memtable.nbytes,
            expected_keys=4,
            drop_tombstones=False,
        )
        # Consume 'a' and 'm' (two records); then insert 'c' < 'm'.
        process.step(2 * 30)
        memtable.put(Record.base(b"c", b"late", 600))
        process.run_to_completion()
        keys = [r.key for r in process.output.iter_records()]
        assert keys == [b"a", b"m", b"z"]
        assert memtable.get(b"c") is not None  # waits for the next pass


# ---------------------------------------------------------------------------
# Merge-kernel equivalence: MergeProcess.step against a reference merge.
#
# The reference is the merge kernel as it was before source heads were
# cached: every output record re-peeks both sources, every C0 peek is a
# ``ceiling_key`` + ``get`` and every C0 pop a ``ceiling`` + ``remove``,
# and each record is folded through ``merge_records``.
# ---------------------------------------------------------------------------


class RefSnowshovelSource:
    def __init__(self, memtable):
        self._cursor = SnowshovelCursor(memtable)
        self._memtable = memtable

    def peek(self):
        cursor = self._cursor.cursor
        if cursor is None:
            key = self._memtable.first_key()
        else:
            key = self._memtable.ceiling_key(cursor)
        return self._memtable.get(key) if key is not None else None

    def pop(self):
        record = self._cursor.next_record()
        if record is None:
            raise StopIteration("snowshovel run exhausted")
        return record

    def advance_past(self, key):
        self._cursor.advance_past(key)


class RefRangeSnowshovelSource:
    def __init__(self, memtable, lo, hi):
        self._memtable = memtable
        self._lo = lo
        self._hi = hi
        self._cursor = lo

    def _next_key(self):
        key = self._memtable.ceiling_key(self._cursor)
        if key is None:
            return None
        if self._hi is not None and key >= self._hi:
            return None
        return key

    def peek(self):
        key = self._next_key()
        return self._memtable.get(key) if key is not None else None

    def pop(self):
        key = self._next_key()
        if key is None:
            raise StopIteration("range snowshovel exhausted")
        record = self._memtable.remove(key)
        assert record is not None
        self._cursor = key + b"\x00"
        return record

    def advance_past(self, key):
        successor = key + b"\x00"
        if successor > self._cursor:
            self._cursor = successor


class ReferenceMerge(MergeProcess):
    def step(self, budget_bytes):
        if self.done:
            return 0
        consumed = 0
        while consumed < budget_bytes:
            newer_head = self._newer.peek()
            older_head = self._older.peek()
            if newer_head is None and older_head is None:
                self._complete()
                break
            consumed += self._emit_next(newer_head, older_head)
        self.bytes_read += consumed
        return consumed

    def _emit_next(self, newer_head, older_head):
        consumed = 0
        group = []
        take_newer = newer_head is not None and (
            older_head is None or newer_head.key <= older_head.key
        )
        take_older = older_head is not None and (
            newer_head is None or older_head.key <= newer_head.key
        )
        if take_newer:
            record = self._newer.pop()
            group.append(record)
            nbytes = record.nbytes
            consumed += nbytes
            self.newer_bytes_read += nbytes
            self._note_seqno(record.seqno)
            if self._track_overlay:
                self.overlay[record.key] = record
        if take_older:
            record = self._older.pop()
            group.append(record)
            consumed += record.nbytes
            if self._track_overlay:
                self._newer.advance_past(record.key)
        merged = merge_records(group, drop_tombstones=self._drop_tombstones)
        if merged is not None:
            self._builder.add(merged)
            if (
                self._split_output_bytes is not None
                and self._builder.nbytes >= self._split_output_bytes
            ):
                self._rotate_builder()
        return consumed

    def _note_seqno(self, seqno):
        if self.min_seqno_consumed is None or seqno < self.min_seqno_consumed:
            self.min_seqno_consumed = seqno
        if self.max_seqno_consumed is None or seqno > self.max_seqno_consumed:
            self.max_seqno_consumed = seqno


_KEYSPACE = [b"k%03d" % i for i in range(160)]
_RANGE = (b"k040", b"k120")


def _random_record(rng, key, seqno):
    roll = rng.random()
    if roll < 0.2:
        return Record.tombstone(key, seqno)
    if roll < 0.45:
        return Record.delta(key, b"+%d" % seqno, seqno)
    return Record.base(key, b"v%d" % seqno * rng.randint(1, 40), seqno)


def _merge_inputs(seed):
    """Older run, newer records, and per-step live inserts (by seqno)."""
    rng = random.Random(seed)
    older = [
        _random_record(rng, key, seqno)
        for seqno, key in enumerate(sorted(rng.sample(_KEYSPACE, 90)))
    ]
    seqno = 1000
    newer = []
    for key in rng.sample(_KEYSPACE, 80):  # many keys also in ``older``
        newer.append(_random_record(rng, key, seqno))
        seqno += 1
    inserts = []
    for _ in range(12):
        batch = []
        for key in rng.sample(_KEYSPACE, 3):
            batch.append(_random_record(rng, key, seqno))
            seqno += 1
        inserts.append(batch)
    return older, newer, inserts


def _build_run(stasis, records, tree_id, compression_ratio):
    builder = SSTableBuilder(
        stasis,
        tree_id=tree_id,
        expected_keys=len(records),
        flush_chunk_pages=4,
        compression_ratio=compression_ratio,
    )
    for record in records:
        builder.add(record)
    return builder.finish()


def _merge_world(merge_cls, source, backend, variant, drop, inputs):
    """One stasis with one merge set up; the reference and the kernel
    under test each get an identical world."""
    older_records, newer_records, _ = inputs
    stasis = Stasis(page_size=512, buffer_pool_pages=16)
    compression = 0.5 if variant == "compressed" else 1.0
    older = _build_run(stasis, older_records, 1, compression)
    memtable = MemTable(1 << 20, seed=3, kind=backend)
    reference = merge_cls is ReferenceMerge
    if source == "snowshovel":
        for record in newer_records:
            memtable.put(record)
        newer = (RefSnowshovelSource if reference else SnowshovelSource)(memtable)
    elif source == "range":
        for record in newer_records:
            memtable.put(record)
        range_cls = RefRangeSnowshovelSource if reference else RangeSnowshovelSource
        newer = range_cls(memtable, *_RANGE)
    elif source.startswith("frozen"):
        frozen = MemTable(1 << 20, kind=backend)
        for record in newer_records:
            frozen.put(record)
        run = _build_run(stasis, list(frozen), 2, compression)
        newer = FrozenSource(run.iter_records(chunk_pages=2))
    else:
        newer = EmptySource()
    next_tree_id = iter(range(100, 1000))
    process = merge_cls(
        stasis,
        newer=newer,
        older=older if source != "frozen-over-empty" else None,
        tree_id=3,
        input_bytes=sum(r.nbytes for r in older_records + newer_records),
        expected_keys=len(older_records) + len(newer_records),
        drop_tombstones=drop,
        merge_chunk_bytes=1024,
        split_output_bytes=700 if variant == "split" else None,
        tree_id_source=(lambda: next(next_tree_id)) if variant == "split" else None,
        compression_ratio=compression,
    )
    return stasis, memtable, process


def _merge_state(process):
    return (
        process.bytes_read,
        process.newer_bytes_read,
        process.min_seqno_consumed,
        process.max_seqno_consumed,
        dict(process.overlay),
        process.done,
    )


def _devices(stasis):
    return (stasis.clock.now, vars(stasis.data_disk.stats), vars(stasis.log_disk.stats))


def _table_state(table):
    return (
        table.tree_id,
        table.blocks,
        table.extents,
        table.key_count,
        table.nbytes,
        table.max_key,
        table.bloom.to_bytes() if table.bloom is not None else None,
        list(table.iter_records()),
    )


_SOURCES = [("snowshovel", b) for b in MEMTABLE_NAMES] + [
    ("range", b) for b in MEMTABLE_NAMES
] + [("frozen", "skiplist"), ("frozen-over-empty", "array"), ("empty", "skiplist")]


@pytest.mark.parametrize("source,backend", _SOURCES)
@pytest.mark.parametrize("variant", ["plain", "split", "compressed"])
@pytest.mark.parametrize("drop", [False, True])
def test_step_matches_reference_merge(source, backend, variant, drop):
    inputs = _merge_inputs(seed=len(source) * 7 + len(backend) + drop)
    live = source in ("snowshovel", "range")
    whole = sum(r.nbytes for r in inputs[0] + inputs[1])
    for budget in (1, 97, 1500, whole // 3, 1 << 30):
        worlds = [
            _merge_world(cls, source, backend, variant, drop, inputs)
            for cls in (ReferenceMerge, MergeProcess)
        ]
        (ref_stasis, ref_c0, ref), (new_stasis, new_c0, new) = worlds
        steps = 0
        while not ref.done:
            assert new.step(budget) == ref.step(budget)
            assert _merge_state(new) == _merge_state(ref)
            assert _devices(new_stasis) == _devices(ref_stasis)
            if live and steps < len(inputs[2]):
                # Application writes land between steps: some ahead of
                # the snowshovel cursor (they join the pass), some behind.
                for record in inputs[2][steps]:
                    ref_c0.put(record)
                    new_c0.put(record)
            steps += 1
        assert new.done
        assert list(new_c0) == list(ref_c0)
        assert (new.output is None) == (ref.output is None)
        assert [_table_state(t) for t in new.outputs] == [
            _table_state(t) for t in ref.outputs
        ]
        assert _devices(new_stasis) == _devices(ref_stasis)


@pytest.mark.parametrize(
    "engine,overrides",
    [
        ("blsm", {}),
        ("blsm", {"background_merges": True, "durability": "group"}),
        ("blsm-part", {}),
        ("blsm-part", {"background_merges": True}),
    ],
)
def test_c0_is_not_mutated_inside_a_step(monkeypatch, engine, overrides):
    """The invariant the cached source heads rest on: while a merge step
    runs, C0 changes only by the step's own snowshovel pops."""
    in_step = [0]
    popped: list[bytes] = []
    removed: list[bytes] = []
    step, put = MergeProcess.step, MemTable.put
    remove, pop = MemTable.remove, RangeSnowshovelSource.pop

    def traced_step(self, budget_bytes):
        in_step[0] += 1
        try:
            return step(self, budget_bytes)
        finally:
            in_step[0] -= 1

    def traced_put(self, record):
        assert not in_step[0], "C0 written inside a merge step"
        put(self, record)

    def traced_remove(self, key):
        if in_step[0]:
            removed.append(key)
        return remove(self, key)

    def traced_pop(self):
        record = pop(self)
        popped.append(record.key)
        return record

    monkeypatch.setattr(MergeProcess, "step", traced_step)
    monkeypatch.setattr(MemTable, "put", traced_put)
    monkeypatch.setattr(MemTable, "remove", traced_remove)
    monkeypatch.setattr(RangeSnowshovelSource, "pop", traced_pop)
    tree = build_engine(
        engine, EngineConfig(c0_bytes=16 * 1024, cache_pages=16), **overrides
    )
    trace = generate_trace(3000, seed=11, keyspace=1500, value_bytes=96)
    divergence = run_trace(tree, trace, config=engine)
    assert divergence is None, divergence.describe()
    assert popped, "no snowshovel merge ran"
    assert removed == popped
