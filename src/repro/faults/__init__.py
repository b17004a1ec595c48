"""Fault injection: faulty devices and retry hardening.

The package models the failure modes a production LSM must survive
(Section 4.4.2's recovery discussion): transient device errors, torn
writes, whole-process crashes at arbitrary I/O boundaries, silent
corruption, and latency spikes.  Faults come from a seeded, deterministic
:class:`FaultPlan`; a :class:`FaultyDisk` injects them; a
:class:`RetryPolicy`/:class:`RetryExecutor` pair absorbs the transient
ones with backoff charged to the virtual clock.

The crash-point sweep that drives these plans lives in
:mod:`repro.testing.composer`, above the engine layer.
"""

from repro.faults.disk import FaultyDisk
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.retry import RetryExecutor, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultRule",
    "FaultyDisk",
    "RetryExecutor",
    "RetryPolicy",
]
