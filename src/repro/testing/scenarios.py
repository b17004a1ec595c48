"""The crash scenarios, written as traces the one crash driver sweeps.

Each feature whose recovery story needs crash coverage contributes a
:class:`~repro.testing.trace.Trace` here and (when it needs its own
store) a target in :mod:`repro.testing.composer`; the sweep, the
verifier and the report are shared:

* :func:`scripted_trace` — the ``repro crashtest`` workload: puts and
  deletes over reused keys, run on every crash-capable tree;
* :func:`group_commit_trace` — multi-session ``commit`` ops under
  ``GROUP`` durability, with staggered ticket waits and a final
  ``flush``, run on the ``blsm-group`` target;
* :func:`migration_trace` — the scripted workload interleaved with a
  live split then merge of shard 0 (one ``migrate`` op per controller
  step), run on the ``migration`` target built by
  :func:`migration_fleet`.
"""

from __future__ import annotations

import random
from typing import Any

from repro.faults.plan import FaultPlan
from repro.testing.trace import Trace, TraceOp

__all__ = [
    "group_commit_trace",
    "migration_fleet",
    "migration_trace",
    "scripted_trace",
]

#: Ops of the migration scenario before the split is planned.
_MIGRATION_START = 10


def _mutation(
    rng: random.Random, keyspace: int, serial: int
) -> tuple[str, bytes, bytes | None]:
    """Mostly puts, some deletes, over ``keyspace`` reused keys."""
    key = f"key-{rng.randrange(keyspace):06d}".encode()
    if rng.random() < 0.15:
        return ("delete", key, None)
    return ("put", key, f"value-{serial:06d}".encode())


def _scripted_mutations(
    ops: int, seed: int
) -> list[tuple[str, bytes, bytes | None]]:
    rng = random.Random(seed)
    keyspace = max(ops // 2, 16)
    return [_mutation(rng, keyspace, index) for index in range(ops)]


def _point_op(kind: str, key: bytes, value: bytes | None) -> TraceOp:
    return TraceOp.put(key, value or b"") if kind == "put" else TraceOp.delete(key)


def scripted_trace(ops: int, seed: int = 0) -> Trace:
    """A deterministic op script: mostly puts, some deletes, reused keys."""
    if ops <= 0:
        raise ValueError(f"ops must be positive, got {ops}")
    return Trace(
        [_point_op(*mutation) for mutation in _scripted_mutations(ops, seed)],
        meta={"mode": "crash", "seed": seed},
    )


def group_commit_trace(batches: int, seed: int = 0) -> Trace:
    """``commit`` ops from 4 sessions; every 5th waits on its ticket.

    The staggered waits are the point: a wait drains the queue
    mid-stream, so a crash during it lands on a force covering a
    *partially drained* commit group — some tickets acked by the leader,
    the rest still queued.  The closing ``flush`` drains the remainder.
    """
    if batches <= 0:
        raise ValueError(f"batches must be positive, got {batches}")
    rng = random.Random(seed)
    keyspace = max(batches, 16)
    ops: list[TraceOp] = []
    serial = 0
    for index in range(batches):
        session = rng.randrange(4)
        mutations = [
            _mutation(rng, keyspace, serial + offset)
            for offset in range(rng.randrange(1, 4))
        ]
        serial += len(mutations)
        ops.append(
            TraceOp.commit(mutations, session=session, wait=index % 5 == 4)
        )
    ops.append(TraceOp.flush())
    return Trace(ops, meta={"mode": "crash", "engine": "blsm-group", "seed": seed})


def migration_fleet(seed: int, journal_plan: FaultPlan | None) -> Any:
    """A tiny 2-shard SYNC fleet with an attached migration controller.

    Faults attach only to the migration journal: each shard's device
    traffic is its own serial sequence (which is why the sharded engine
    is not a crash-tree target), but the journal *is* one serial
    sequence — its force boundaries are exactly the protocol's durable
    transitions.
    """
    from repro.core.options import BLSMOptions
    from repro.shard.engine import ShardedEngine
    from repro.shard.migration import (
        MigrationJournal,
        MigrationThrottle,
        attach_migration,
    )
    from repro.shard.partitioner import RangePartitioner
    from repro.storage.logical_log import DurabilityMode

    options = BLSMOptions(
        c0_bytes=8 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.SYNC,
        seed=seed,
    )
    engine = ShardedEngine(
        options, shards=2, partitioner=RangePartitioner([b"key-000100"])
    )
    attach_migration(
        engine,
        journal=MigrationJournal(fault_plan=journal_plan, seed=seed),
        chunk_keys=8,
        # Step boundaries, not throttle boundaries: a full budget share
        # means the controller never defers.
        throttle=MigrationThrottle(1.0),
    )
    return engine


def migration_trace(ops: int, seed: int = 0) -> Trace:
    """The scripted workload with a live split, then merge, of shard 0.

    After op 10 a split of shard 0 is planned; once it retires a merge
    follows, so both protocol kinds' journal records and step
    boundaries land in one scenario.  Every workload op while a
    migration is active is followed by one controller step, and the
    tail steps the last migration to completion.  The trace is recorded
    from one fault-free run of :func:`migration_fleet`, so each
    ``migrate`` op is exactly one controller step (planning ops plan,
    then step once) and the trace replays the run exactly.
    """
    from repro.shard.migration import plan_merge, plan_split

    if ops <= 0:
        raise ValueError(f"ops must be positive, got {ops}")
    start_at = min(_MIGRATION_START, ops - 1)
    engine = migration_fleet(seed, None)
    controller = engine.migration
    out: list[TraceOp] = []
    planners = [("split", plan_split), ("merge", plan_merge)]
    for index, (kind, key, value) in enumerate(
        _scripted_mutations(ops, seed)
    ):
        out.append(_point_op(kind, key, value))
        if kind == "put":
            engine.put(key, value)
        else:
            engine.delete(key)
        action = "step"
        if not controller.active and index >= start_at and planners:
            action, planner = planners.pop(0)
            plan = planner(engine, 0)
            if plan is not None:
                controller.start(plan)
        if controller.active:
            controller.step()
            out.append(TraceOp.migrate(action, b"", budget=1))
    while controller.active:
        controller.step()
        out.append(TraceOp.migrate("step", b"", budget=1))
    engine.close()
    return Trace(out, meta={"mode": "crash", "engine": "migration", "seed": seed})
