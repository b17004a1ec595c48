"""Exact behaviour pins for the LSM tree family.

One seeded differential trace runs through each bLSM-family engine (and
the LevelDB baseline) and the test pins what a refactor of the shared
tree front end must leave untouched: the final ``state_digest``, the
exact virtual time, the device counters ``io_summary`` reports, and the
number of trace events of each type.  Floats are compared exactly — the
simulation is deterministic, so any drift is a code-path change.

The fixture was recorded before the front-end consolidation; regenerate
it only for a deliberate behaviour change, and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.test_family_parity > tests/data/family_parity.json
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.engines import EngineConfig, build_engine
from repro.testing import generate_trace, run_trace

FIXTURE = Path(__file__).parent / "data" / "family_parity.json"

TRACE = generate_trace(3000, seed=11, keyspace=1500, value_bytes=96)

BASE = EngineConfig(c0_bytes=16 * 1024, cache_pages=16)

#: case name -> (registry engine, config overrides)
CASES: dict[str, tuple[str, dict]] = {
    "blsm": ("blsm", {}),
    "blsm-naive": ("blsm", {"scheduler": "naive"}),
    "blsm-bg-group": ("blsm", {"background_merges": True, "durability": "group"}),
    "blsm-part": ("blsm-part", {}),
    "blsm-part-bg": ("blsm-part", {"background_merges": True}),
    "leveled": ("leveled", {}),
    "tiered": ("tiered", {"durability": "group"}),
    "lazy-leveled": ("lazy-leveled", {}),
    "leveldb": ("leveldb", {}),
}

#: the device counters of the shared ``io_summary`` schema
DEVICE_KEYS = (
    "data_seeks",
    "data_bytes_read",
    "data_bytes_written",
    "log_bytes_written",
    "busy_seconds",
    "fg_busy_seconds",
    "bg_busy_seconds",
    "fg_wait_seconds",
)


def observe(case: str) -> dict:
    """Run the trace through one case and collect its pinned outputs."""
    name, overrides = CASES[case]
    engine = build_engine(name, BASE, **overrides)
    divergence = run_trace(engine, TRACE, config=case, close=False)
    assert divergence is None, divergence.describe()
    trace = engine.runtime.trace
    assert trace.dropped == 0, "trace ring overflowed; shrink the trace"
    summary = engine.io_summary()
    observed = {
        "clock": engine.clock.now,
        "io": {key: summary[key] for key in DEVICE_KEYS},
        "events": dict(sorted(Counter(e.etype for e in trace).items())),
        "digest": engine.state_digest(),
    }
    engine.close()
    return observed


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_family_matches_pinned_behaviour(case, pinned):
    assert observe(case) == pinned[case]


if __name__ == "__main__":
    print(json.dumps({case: observe(case) for case in sorted(CASES)}, indent=1))
