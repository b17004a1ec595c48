"""Tests for the fault-injection layer: plans, faulty devices, retries,
checksummed logs and pages, and engine-level hardening."""

import pytest

from repro.core import BLSM, BLSMOptions
from repro.errors import (
    CorruptionError,
    CrashPoint,
    DeviceFullError,
    IOFaultError,
    TransientIOError,
)
from repro.faults import FaultPlan, FaultRule, FaultyDisk, RetryExecutor, RetryPolicy
from repro.obs import EngineRuntime
from repro.sim import DiskModel, VirtualClock
from repro.storage import (
    DurabilityMode,
    LogicalLog,
    PageFile,
    Stasis,
    WriteAheadLog,
)


def faulty(plan, model=None, runtime=None):
    runtime = runtime if runtime is not None else EngineRuntime()
    return (
        FaultyDisk(
            model or DiskModel.hdd(), runtime.clock, plan=plan, runtime=runtime
        ),
        runtime,
    )


# ---------------------------------------------------------------------------
# FaultPlan / FaultRule semantics
# ---------------------------------------------------------------------------


def test_rule_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultRule(kind="meteor")


def test_rule_filters_by_device_and_op():
    rule = FaultRule(kind="transient", device="log", op="write")
    assert rule.matches("hdd-log", "write")
    assert not rule.matches("hdd-log", "read")
    assert not rule.matches("hdd-data", "write")


def test_plan_at_access_fires_once():
    plan = FaultPlan.crash_at(3, armed=True)
    fired = [plan.note_access("d", "write") for _ in range(5)]
    assert [len(f) for f in fired] == [0, 0, 1, 0, 0]


def test_disarmed_plan_neither_counts_nor_fires():
    plan = FaultPlan.crash_at(1, armed=False)
    assert plan.note_access("d", "write") == []
    assert plan.access_count == 0
    plan.arm()
    assert len(plan.note_access("d", "write")) == 1


def test_probabilistic_plan_is_deterministic_per_seed():
    def fire_pattern(seed):
        plan = FaultPlan.transient(probability=0.3, seed=seed)
        return [bool(plan.note_access("d", "read")) for _ in range(50)]

    assert fire_pattern(7) == fire_pattern(7)
    assert fire_pattern(7) != fire_pattern(8)


def test_rule_count_bounds_fires():
    plan = FaultPlan([FaultRule(kind="transient", every=2, count=2)])
    fires = sum(bool(plan.note_access("d", "read")) for _ in range(20))
    assert fires == 2


# ---------------------------------------------------------------------------
# FaultyDisk behaviours
# ---------------------------------------------------------------------------


def test_transient_fault_raises_and_charges_time():
    disk, runtime = faulty(FaultPlan.transient(every=1))
    with pytest.raises(TransientIOError):
        disk.read(0, 4096)
    assert runtime.clock.now > 0.0  # the failed access wasted device time
    assert runtime.metrics.value("faults.transient_errors") == 1


def test_crash_fault_is_base_exception():
    disk, _ = faulty(FaultPlan.crash_at(1, armed=True))
    with pytest.raises(CrashPoint):
        disk.write(0, 4096)
    assert not issubclass(CrashPoint, Exception)


def test_torn_write_persists_prefix():
    disk, runtime = faulty(FaultPlan.torn_write(at_access=1, torn_fraction=0.5))
    with pytest.raises(CrashPoint) as exc:
        disk.write(0, 4096)
    assert exc.value.persisted_bytes == 2048
    assert disk.stats.bytes_written == 2048
    assert runtime.metrics.value("faults.torn_writes") == 1


def test_latency_spike_advances_clock():
    disk, runtime = faulty(FaultPlan.latency(extra_seconds=0.5, every=1))
    plain = FaultyDisk(DiskModel.hdd(), VirtualClock())
    base = plain.read(0, 4096)
    disk.read(0, 4096)
    assert runtime.clock.now == pytest.approx(base + 0.5)
    assert runtime.metrics.value("faults.latency_spikes") == 1


def test_corrupt_rule_marks_range_and_clean_write_heals():
    disk, _ = faulty(FaultPlan.corrupt(at_access=1, op="write"))
    disk.write(0, 4096)
    assert disk.corrupted(0, 4096)
    assert disk.corrupted(4000, 8)
    assert not disk.corrupted(4096, 4096)
    disk.write(0, 4096)  # rewrite heals
    assert not disk.corrupted(0, 4096)


def test_clear_corruption_splits_ranges():
    disk, _ = faulty(FaultPlan())
    disk.mark_corrupt(0, 100)
    disk.clear_corruption(40, 20)
    assert disk.corrupted(0, 40)
    assert not disk.corrupted(40, 20)
    assert disk.corrupted(60, 40)


def test_capacity_limit_raises_typed_error():
    clock = VirtualClock()
    from repro.sim import SimDisk

    disk = SimDisk(DiskModel.hdd(), clock, capacity_bytes=8192)
    disk.write(0, 8192)  # exactly full is fine
    with pytest.raises(DeviceFullError) as exc:
        disk.write(8192, 1)
    assert exc.value.capacity_bytes == 8192
    disk.read(0, 1 << 20)  # reads are unaffected


def test_capacity_must_be_positive():
    from repro.sim import SimDisk

    with pytest.raises(ValueError):
        SimDisk(DiskModel.hdd(), VirtualClock(), capacity_bytes=0)


# ---------------------------------------------------------------------------
# RetryPolicy / RetryExecutor
# ---------------------------------------------------------------------------


def test_retry_absorbs_transient_faults_and_charges_backoff():
    runtime = EngineRuntime()
    disk, _ = faulty(FaultPlan.transient(every=3, count=1), runtime=runtime)
    policy = RetryPolicy(max_attempts=3, base_backoff_seconds=0.01)
    executor = RetryExecutor(policy, runtime.clock, runtime=runtime)
    disk.read(0, 4096)
    disk.read(4096, 4096)
    before = runtime.clock.now
    executor.run(lambda: disk.read(8192, 4096))  # 3rd access faults once
    assert runtime.metrics.value("retry.retries") == 1
    assert runtime.metrics.value("retry.backoff_seconds") == pytest.approx(0.01)
    assert runtime.clock.now > before + 0.01


def test_retry_exhaustion_raises_io_fault_error():
    runtime = EngineRuntime()
    disk, _ = faulty(FaultPlan.transient(every=1), runtime=runtime)
    executor = RetryExecutor(
        RetryPolicy(max_attempts=3, base_backoff_seconds=1e-4),
        runtime.clock,
        runtime=runtime,
    )
    with pytest.raises(IOFaultError):
        executor.run(lambda: disk.read(0, 4096))
    assert runtime.metrics.value("retry.exhausted") == 1
    assert runtime.metrics.value("faults.transient_errors") == 3


def test_retry_never_swallows_crash_points():
    runtime = EngineRuntime()
    disk, _ = faulty(FaultPlan.crash_at(1, armed=True), runtime=runtime)
    executor = RetryExecutor(RetryPolicy(), runtime.clock, runtime=runtime)
    with pytest.raises(CrashPoint):
        executor.run(lambda: disk.write(0, 4096))


def test_backoff_grows_exponentially():
    policy = RetryPolicy(max_attempts=4, base_backoff_seconds=1.0, multiplier=2.0)
    assert [policy.backoff_seconds(i) for i in range(3)] == [1.0, 2.0, 4.0]


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)


# ---------------------------------------------------------------------------
# Checksummed WAL: torn tails
# ---------------------------------------------------------------------------


def make_wal(plan):
    runtime = EngineRuntime()
    disk = FaultyDisk(
        DiskModel.hdd(), runtime.clock, plan=plan, runtime=runtime
    )
    return WriteAheadLog(disk), runtime


def test_wal_torn_force_truncates_tail_at_replay():
    plan = FaultPlan(armed=False)
    wal, runtime = make_wal(plan)
    wal.append("a", "first", nbytes=100)
    wal.force()
    wal.append("b", "second", nbytes=100)
    wal.append("c", "third", nbytes=100)
    plan.add(FaultRule(kind="torn", op="write", at_access=1, torn_fraction=0.25))
    plan.arm()
    with pytest.raises(CrashPoint):
        wal.force()  # tears mid-"b": 50 of 200 pending bytes persist
    plan.disarm()
    replayed = [record.kind for record in wal.records()]
    assert replayed == ["a"]  # torn "b" and lost "c" are both gone
    assert wal.torn_truncations == 1
    assert runtime.metrics.value("wal.torn_tail_truncations") == 1


def test_wal_corrupt_record_raises():
    plan = FaultPlan(armed=False)
    wal, _ = make_wal(plan)
    wal.append("manifest", {"root": 1}, nbytes=64)
    wal.force()
    wal.disk.mark_corrupt(0, 64)
    with pytest.raises(CorruptionError):
        list(wal.records())


# ---------------------------------------------------------------------------
# Checksummed logical log: torn records dropped
# ---------------------------------------------------------------------------


def test_logical_log_drops_torn_record_at_replay():
    plan = FaultPlan(armed=False)
    runtime = EngineRuntime()
    disk = FaultyDisk(DiskModel.hdd(), runtime.clock, plan=plan, runtime=runtime)
    log = LogicalLog(disk, DurabilityMode.ASYNC, group_commit_bytes=1 << 30)
    log.log(0, "put", b"a" * 26, b"v")  # 51 bytes with overhead
    log.log(1, "put", b"b" * 26, b"v")
    plan.add(FaultRule(kind="torn", op="write", at_access=1, torn_fraction=0.7))
    plan.arm()
    with pytest.raises(CrashPoint):
        log.force()  # first record persists whole, second is torn
    plan.disarm()
    seqnos = [record.seqno for record in log.replay()]
    assert seqnos == [0]
    assert log.torn_records_dropped == 1
    assert runtime.metrics.value("log.torn_records_dropped") == 1


def test_logical_log_corrupt_range_raises():
    runtime = EngineRuntime()
    disk = FaultyDisk(DiskModel.hdd(), runtime.clock, plan=FaultPlan(armed=False))
    log = LogicalLog(disk, DurabilityMode.SYNC)
    log.log(0, "put", b"key", b"value")
    disk.mark_corrupt(0, 8)
    with pytest.raises(CorruptionError):
        list(log.replay())


# ---------------------------------------------------------------------------
# Checksummed pages
# ---------------------------------------------------------------------------


def test_pagefile_detects_corrupted_page():
    runtime = EngineRuntime()
    disk = FaultyDisk(DiskModel.hdd(), runtime.clock, plan=FaultPlan(), runtime=runtime)
    pagefile = PageFile(disk, page_size=4096)
    pagefile.write_page(3, ("payload",))
    disk.mark_corrupt(3 * 4096, 4096)
    with pytest.raises(CorruptionError):
        pagefile.read_page(3)
    assert runtime.metrics.value("pagefile.corrupt_reads") == 1
    assert pagefile.corrupt_reads == 1


def test_pagefile_rewrite_heals_corruption():
    disk = FaultyDisk(DiskModel.hdd(), VirtualClock(), plan=FaultPlan())
    pagefile = PageFile(disk, page_size=4096)
    pagefile.write_page(0, "old")
    disk.mark_corrupt(0, 4096)
    pagefile.write_page(0, "new")  # clean rewrite heals the range
    assert pagefile.read_page(0) == "new"


def test_pagefile_read_run_verifies_every_page():
    disk = FaultyDisk(DiskModel.hdd(), VirtualClock(), plan=FaultPlan())
    pagefile = PageFile(disk, page_size=4096)
    pagefile.write_run(0, ["p0", "p1", "p2"])
    disk.mark_corrupt(1 * 4096, 4096)
    with pytest.raises(CorruptionError):
        pagefile.read_run(0, 3)


def test_pagefile_torn_run_keeps_whole_prefix_pages():
    plan = FaultPlan(armed=False)
    disk = FaultyDisk(DiskModel.hdd(), VirtualClock(), plan=plan)
    pagefile = PageFile(disk, page_size=4096)
    plan.add(
        FaultRule(kind="torn", op="write", at_access=1, torn_fraction=0.55)
    )
    plan.arm()
    with pytest.raises(CrashPoint):
        pagefile.write_run(0, ["p0", "p1", "p2", "p3"])  # tears inside p2
    plan.disarm()
    assert pagefile.read_page(0) == "p0"
    assert pagefile.read_page(1) == "p1"
    with pytest.raises(CorruptionError):
        pagefile.read_page(2)  # the straddling page is torn
    assert 3 not in pagefile  # never reached the device


def test_pagefile_transient_reads_are_retried():
    runtime = EngineRuntime()
    plan = FaultPlan.transient(every=2, count=1)
    disk = FaultyDisk(DiskModel.hdd(), runtime.clock, plan=plan, runtime=runtime)
    executor = RetryExecutor(RetryPolicy(), runtime.clock, runtime=runtime)
    pagefile = PageFile(disk, page_size=4096, retry=executor)
    pagefile.write_page(0, "v")  # access 1
    assert pagefile.read_page(0) == "v"  # access 2 faults, retried
    assert runtime.metrics.value("retry.retries") == 1


# ---------------------------------------------------------------------------
# Stasis wiring and engine-level hardening
# ---------------------------------------------------------------------------


def test_stasis_builds_faulty_disks_from_plan():
    plan = FaultPlan()
    stasis = Stasis(fault_plan=plan)
    assert isinstance(stasis.data_disk, FaultyDisk)
    assert isinstance(stasis.log_disk, FaultyDisk)
    assert stasis.data_disk.plan is plan and stasis.log_disk.plan is plan
    assert stasis.retry is not None  # defaulted with a plan present
    assert stasis.pagefile.retry is stasis.retry
    assert stasis.wal.retry is stasis.retry


def test_stasis_healthy_by_default():
    stasis = Stasis()
    assert not isinstance(stasis.data_disk, FaultyDisk)
    assert stasis.retry is None


def test_engine_completes_workload_under_transient_faults():
    plan = FaultPlan.transient(probability=0.05, seed=11)
    options = BLSMOptions(
        c0_bytes=16 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.SYNC,
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=6, base_backoff_seconds=1e-4),
    )
    tree = BLSM(options)
    for i in range(600):
        tree.put(b"k%04d" % (i % 150), b"v%06d" % i)
    metrics = tree.stasis.runtime.metrics
    assert metrics.value("faults.transient_errors") > 0
    assert metrics.value("retry.retries") > 0
    assert metrics.value("retry.backoff_seconds") > 0.0
    assert metrics.value("retry.exhausted") == 0
    for i in range(150):
        assert tree.get(b"k%04d" % i) is not None


def test_engine_exhausted_retries_surface_as_io_fault():
    # Every access fails; built disarmed so construction stays healthy.
    plan = FaultPlan([FaultRule(kind="transient", every=1)], armed=False)
    options = BLSMOptions(
        c0_bytes=16 * 1024,
        durability=DurabilityMode.SYNC,
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=2, base_backoff_seconds=1e-5),
    )
    tree = BLSM(options)
    tree.put(b"warm", b"x")  # healthy write while disarmed
    plan.arm()
    with pytest.raises(IOFaultError):
        for i in range(50):
            tree.put(b"k%d" % i, b"v")


def test_torn_wal_force_recovers_previous_manifest():
    plan = FaultPlan(armed=False)
    options = BLSMOptions(
        c0_bytes=8 * 1024, durability=DurabilityMode.SYNC, fault_plan=plan
    )
    tree = BLSM(options)
    model = {}
    for i in range(400):
        key = b"user%04d" % (i % 120)
        tree.put(key, b"v%06d" % i)
        model[key] = b"v%06d" % i
    plan.add(
        FaultRule(
            kind="torn", op="write", device="log", every=1,
            torn_fraction=0.3, count=1,
        )
    )
    plan.arm()
    crashed = False
    try:
        for i in range(400, 1200):
            key = b"user%04d" % (i % 120)
            tree.put(key, b"v%06d" % i)
            model[key] = b"v%06d" % i
    except CrashPoint:
        crashed = True
        del model[key]  # the in-flight write was never acknowledged
    assert crashed
    plan.disarm()
    tree.stasis.crash()
    recovered = BLSM.recover(tree.stasis, options)
    for k, v in model.items():
        got = recovered.get(k)
        assert got == v or (got is None and k not in model)

def test_jittered_retry_replay_is_bit_for_bit_deterministic():
    # The jitter seed travels with the RetryPolicy: replaying the same
    # faulted trace under the same policy must reproduce the identical
    # backoff schedule, virtual-clock timeline, and final state digest.
    def run(policy_seed):
        from repro.baselines import BLSMEngine

        engine = BLSMEngine(
            BLSMOptions(
                c0_bytes=16 * 1024,
                buffer_pool_pages=16,
                durability=DurabilityMode.SYNC,
                fault_plan=FaultPlan.transient(probability=0.05, seed=7),
                retry=RetryPolicy(
                    max_attempts=6,
                    base_backoff_seconds=1e-4,
                    jitter=0.5,
                    seed=policy_seed,
                ),
            )
        )
        for i in range(500):
            engine.put(b"k%04d" % (i % 150), b"v%06d" % i)
        digest = engine.state_digest()
        metrics = engine.tree.stasis.runtime.metrics
        outcome = (
            digest,
            engine.clock.now,
            metrics.value("retry.retries"),
            metrics.value("retry.backoff_seconds"),
        )
        engine.close()
        return outcome

    first = run(policy_seed=3)
    second = run(policy_seed=3)
    assert first[2] > 0, "fault plan never fired; the test proves nothing"
    assert first == second
    # A different policy seed draws a different jitter sequence: same
    # logical state, different backoff schedule (the jitter is real).
    other = run(policy_seed=4)
    assert other[0] == first[0]
    assert other[3] != first[3]
