"""Crash-point sweeps through the one crash driver (docs/fault-injection.md).

Every crash scenario is a trace swept by
:func:`~repro.testing.composer.enumerate_trace_crash_points`.  The fast
tests sweep a thinned boundary set and pin the crash-point count of each
feature's scenario (counting runs only); the slow tests are the full
acceptance runs — a crash at *every* boundary of the 500-op script on
the bLSM and partitioned trees, of the 60-batch group-commit script and of the
120-op migration scenario — exercised by the scheduled ``crash-matrix``
CI job.
"""

import pytest

from repro.engines import CRASH_ENGINE_NAMES
from repro.testing.composer import (
    enumerate_trace_crash_points,
    format_crash_report,
    trace_access_count,
)
from repro.testing.scenarios import (
    group_commit_trace,
    migration_trace,
    scripted_trace,
)


def test_scripted_workload_is_deterministic():
    assert scripted_trace(50, seed=4).ops == scripted_trace(50, seed=4).ops
    assert scripted_trace(50, seed=4).ops != scripted_trace(50, seed=5).ops
    kinds = {op.kind for op in scripted_trace(200, seed=0)}
    assert kinds == {"put", "delete"}


def test_workload_access_count_is_stable():
    trace = scripted_trace(80, seed=0)
    first = trace_access_count(trace, "blsm")
    second = trace_access_count(trace, "blsm")
    assert first == second > 0


@pytest.mark.parametrize("engine", ["blsm", "partitioned"])
def test_every_seventh_boundary_recovers(engine):
    report = enumerate_trace_crash_points(
        scripted_trace(150, seed=0), engine=engine, every=7, seed=0
    )
    assert report.ok, format_crash_report(report)
    assert report.crashes_triggered > 0
    assert report.recoveries_verified == report.crashes_triggered
    assert report.boundaries_tested >= report.total_accesses // 7


def test_report_formatting_mentions_verdict():
    report = enumerate_trace_crash_points(
        scripted_trace(40, seed=1), engine="blsm", every=13, seed=1
    )
    text = format_crash_report(report)
    assert "verdict" in text
    assert ("PASS" in text) == report.ok


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_trace_crash_points(scripted_trace(10), engine="innodb")
    with pytest.raises(ValueError):
        scripted_trace(0)
    with pytest.raises(ValueError):
        enumerate_trace_crash_points(scripted_trace(10), every=0)


#: Crash candidates per feature, counted at seed 0 before the crash
#: drivers were folded into one.  A count that falls means a scenario
#: silently lost crash coverage.  (150-op scripts are no pin: no merge
#: runs at that size, so every engine gives exactly 150.)
SCRIPT_500_ACCESSES = {
    "blsm": 508,
    "partitioned": 512,
    "leveled": 502,
    "tiered": 502,
    "lazy-leveled": 502,
}


@pytest.mark.parametrize("engine", CRASH_ENGINE_NAMES)
def test_crash_point_count_pinned_script(engine):
    assert trace_access_count(scripted_trace(500), engine) >= (
        SCRIPT_500_ACCESSES[engine]
    )


def test_crash_point_count_pinned_group_commit():
    assert trace_access_count(group_commit_trace(60), "blsm-group") >= 24


def test_crash_point_count_pinned_migration():
    trace = migration_trace(120)
    assert trace_access_count(trace, "migration") >= 12
    step_boundaries = sum(op.kind == "migrate" for op in trace) + 1
    assert step_boundaries >= 11


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["blsm", "partitioned"])
def test_full_boundary_sweep_500_ops(engine):
    """The acceptance run: crash at every single I/O boundary."""
    report = enumerate_trace_crash_points(
        scripted_trace(500), engine=engine, every=1, seed=0
    )
    assert report.ok, format_crash_report(report)
    assert report.crashes_triggered == report.total_accesses
    assert report.recoveries_verified == report.total_accesses


@pytest.mark.slow
def test_full_group_commit_sweep():
    report = enumerate_trace_crash_points(
        group_commit_trace(60), engine="blsm-group", every=1
    )
    assert report.ok, format_crash_report(report)
    assert report.recoveries_verified == report.total_accesses >= 24


@pytest.mark.slow
def test_full_migration_sweep():
    report = enumerate_trace_crash_points(
        migration_trace(120), engine="migration"
    )
    assert report.ok, format_crash_report(report)
    assert report.total_accesses >= 12 and report.op_boundaries >= 11
    assert report.recoveries_verified == report.boundaries_tested
