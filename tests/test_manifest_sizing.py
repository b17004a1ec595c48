"""Manifest records: exact simulated size, rendered once per component.

A manifest WAL record is charged ``32 + len(repr(manifest))`` bytes of
log (Section 4.4.2's physical log).  Component descriptors memoize their
rendering, so these tests pin both halves of that contract: the size is
exactly that of a plain rendering, and a commit renders only the
components installed since the previous one.
"""

from __future__ import annotations

import pytest

import repro.storage.wal as wal_module
from repro.core import BLSM, BLSMOptions
from repro.core.components import ComponentDescriptor, describe_component
from repro.engines import build_engine
from repro.sstable import SSTableBuilder
from repro.sstable.bloom_store import persist_bloom
from repro.sstable.reader import Block
from repro.records import Record
from repro.storage import Stasis
from repro.testing import run_trace
from tests.test_family_parity import BASE, CASES, TRACE

ENGINES = ["blsm", "blsm-part", "leveled", "leveldb"]


def _plain(value):
    """``value`` with every dict subclass turned back into a plain dict."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _descriptors(value):
    """Every component descriptor a manifest payload holds."""
    if isinstance(value, ComponentDescriptor):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _descriptors(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _descriptors(item)


def _run_case(case: str) -> None:
    name, overrides = CASES[case]
    engine = build_engine(name, BASE, **overrides)
    divergence = run_trace(engine, TRACE, config=case)
    assert divergence is None, divergence.describe()


@pytest.mark.parametrize("case", ENGINES)
def test_manifest_records_are_sized_by_plain_repr(monkeypatch, case):
    real_record = wal_module.WALRecord
    sizes: list[tuple[int, int]] = []

    def recording_record(lsn, kind, payload, nbytes, checksum=0):
        if kind == "manifest":
            sizes.append((nbytes, 32 + len(repr(_plain(payload)))))
        return real_record(lsn, kind, payload, nbytes, checksum)

    monkeypatch.setattr(wal_module, "WALRecord", recording_record)
    _run_case(case)
    assert len(sizes) > 5
    assert all(nbytes == expected for nbytes, expected in sizes)


@pytest.mark.parametrize("case", ENGINES)
def test_commit_renders_only_new_components(monkeypatch, case):
    rendered = [0]
    block_repr = Block.__repr__

    def counting_repr(self):
        rendered[0] += 1
        return block_repr(self)

    monkeypatch.setattr(Block, "__repr__", counting_repr)
    append = wal_module.WriteAheadLog.append
    seen: list[ComponentDescriptor] = []  # held so ids stay unique
    seen_ids: set[int] = set()
    carried_blocks = [0]

    def checked_append(self, kind, payload, nbytes=None):
        if kind != "manifest":
            return append(self, kind, payload, nbytes)
        descriptors = list(_descriptors(payload))
        new = [d for d in descriptors if id(d) not in seen_ids]
        before = rendered[0]
        lsn = append(self, kind, payload, nbytes)
        assert rendered[0] - before == sum(len(d["blocks"]) for d in new)
        carried_blocks[0] += sum(
            len(d["blocks"]) for d in descriptors if id(d) in seen_ids
        )
        for desc in new:
            seen.append(desc)
            seen_ids.add(id(desc))
        return lsn

    monkeypatch.setattr(wal_module.WriteAheadLog, "append", checked_append)
    _run_case(case)
    assert seen, "no component was ever committed"
    # Some commit carried components over, so memoization was exercised.
    assert carried_blocks[0] > 0


def test_descriptor_cache_invalidates_when_filter_is_persisted():
    stasis = Stasis(buffer_pool_pages=16)
    builder = SSTableBuilder(stasis, tree_id=1, expected_keys=50)
    for i in range(50):
        builder.add(Record.base(b"k%03d" % i, b"v" * 40, i))
    table = builder.finish()
    before = describe_component(table)
    assert describe_component(table) is before  # cached
    assert before["bloom"] is None
    persist_bloom(stasis, table)
    after = describe_component(table)
    assert after is not before
    assert after["bloom"]["extent"] == table.bloom_extent
    assert repr(after) == repr(_plain(after))


def test_persisted_filters_reach_the_committed_manifest():
    tree = BLSM(
        BLSMOptions(c0_bytes=32 * 1024, buffer_pool_pages=64,
                    persist_bloom_filters=True)
    )
    for i in range(2000):
        tree.put(b"key%05d" % i, bytes(32))
    tree.drain()
    manifest = tree.stasis.recover_manifest()
    live = {"c1": tree._c1, "c1_prime": tree._c1_prime, "c2": tree._c2}
    assert any(live.values())
    for slot, component in live.items():
        if component is None:
            assert manifest[slot] is None
        else:
            assert manifest[slot]["bloom"]["extent"] == component.bloom_extent
