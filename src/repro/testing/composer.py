"""The crash driver: overlay crashes onto a trace, recover, verify.

Where the differential executor asks "does every engine agree on the
answers?", the composer asks the recovery question of §4.4.2: "does a
crash at *any* point of this trace lose an acknowledged write?"  It is
the one crash driver: every crash scenario — the ``repro crashtest``
script, multi-session group commit, online shard migration, fuzzer
traces with deltas, batches, reads, ``merge_work`` markers (crash
*during* a merge step) and ``crash`` markers — is a
:class:`~repro.testing.trace.Trace` (see :mod:`repro.testing.scenarios`)
run on a named target:

* the crash-capable trees of the engine registry (``blsm``,
  ``partitioned``, ``leveled``, ``tiered``, ``lazy-leveled``; ``SYNC``
  durability, every device access a crash candidate);
* ``blsm-group`` — the bLSM tree under ``GROUP`` durability, so
  ``commit`` ops go through the leader-based group-commit queue;
* ``migration`` — a 2-shard range-partitioned fleet whose fault plan
  sits on the migration journal; recovery replays the journal, then the
  migration must resume to completion with its placement history
  pruned.

Entry points:

* :func:`run_crash_trace` — execute a trace once, honouring its
  ``crash`` markers and any additional :class:`FaultPlan` overlay.
* :func:`enumerate_trace_crash_points` — the sweep: crash at every
  ``every``-th device-access boundary of the trace (and, on the
  ``migration`` target, just before every controller step), recover,
  verify.

One verifier (:func:`verify_prefix`) judges every recovery: the
recovered store must equal the state after *some* prefix of the
submitted mutation stream, no shorter than the acknowledged prefix.
Under ``SYNC`` every mutation that returned is acknowledged (so only
the one in-flight mutation may go either way); under ``GROUP`` the
mutations covered by resolved commit tickets are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import CrashPoint
from repro.faults.plan import FaultPlan
from repro.testing.differential import TraceOracle, drive_merge, write_mutation
from repro.testing.trace import Trace, TraceOp

__all__ = [
    "CrashTarget",
    "CrashTraceOutcome",
    "CrashTraceReport",
    "crash_target",
    "enumerate_trace_crash_points",
    "format_crash_report",
    "run_crash_trace",
    "trace_access_count",
    "verify_prefix",
]

#: One mutation of the stream: (kind, key, payload).
_Mutation = tuple[str, bytes, "bytes | None"]


@dataclass
class CrashTraceOutcome:
    """What happened at one crash point."""

    access_index: int
    crashed: bool = False
    recovered: bool = False
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the recovery at this point verified cleanly."""
        return not self.failures


@dataclass
class CrashTraceReport:
    """Aggregate result of one crash-point sweep."""

    engine: str
    trace_ops: int
    every: int
    seed: int
    total_accesses: int
    op_boundaries: int = 0
    boundaries_tested: int = 0
    crashes_triggered: int = 0
    recoveries_verified: int = 0
    outcomes: list[CrashTraceOutcome] = field(default_factory=list)

    @property
    def failures(self) -> list[CrashTraceOutcome]:
        """Every outcome whose recovery verification failed."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        """Whether every tested boundary recovered cleanly."""
        return not self.failures

    def record(self, outcome: CrashTraceOutcome) -> None:
        """Count one tested boundary."""
        self.boundaries_tested += 1
        self.crashes_triggered += outcome.crashed
        self.recoveries_verified += outcome.recovered and outcome.ok
        self.outcomes.append(outcome)


@dataclass(frozen=True)
class CrashTarget:
    """How the driver builds, crashes and recovers one kind of store.

    ``build(plan, seed)`` returns a store wired to ``plan``;
    ``recover(store)`` drops its volatile state and returns the
    recovered store; ``sync`` says whether a point mutation is
    acknowledged when it returns; ``settle`` runs structural checks
    after a verified recovery and returns failure strings; with
    ``cut_before`` set to an op kind, the sweep also crashes just
    before every op of that kind and at the trace's end.
    """

    build: Callable[[FaultPlan, int], Any]
    recover: Callable[[Any], Any]
    sync: bool = True
    settle: Callable[[Any], list[str]] | None = None
    cut_before: str | None = None


def _registry() -> Any:
    # Lazy: the registry imports the whole engine layer above us.
    from repro import engines

    return engines


def _tree_target(name: str) -> CrashTarget:
    registry = _registry()

    def recover(tree: Any) -> Any:
        tree.stasis.crash()
        return registry.recover_crash_tree(name, tree.stasis, tree.options)

    return CrashTarget(
        build=lambda plan, seed: registry.build_crash_tree(name, plan, seed),
        recover=recover,
    )


def _group_target() -> CrashTarget:
    from dataclasses import replace

    from repro.core.tree import BLSM
    from repro.storage.logical_log import DurabilityMode

    registry = _registry()

    def build(plan: FaultPlan, seed: int) -> Any:
        options = registry.crash_options(plan, seed)
        return BLSM(replace(options, durability=DurabilityMode.GROUP))

    return CrashTarget(
        build=build, recover=_tree_target("blsm").recover, sync=False
    )


def _settle_migration(fleet: Any) -> list[str]:
    """Fleet invariants, then resume to completion, invariants, pruning."""
    from repro.testing.model import check_sharded_invariants

    failures: list[str] = []

    def invariants() -> None:
        try:
            check_sharded_invariants(fleet)
        except AssertionError as error:
            failures.append(f"invariant violated: {error}")

    invariants()
    try:
        if fleet.migration is not None and fleet.migration.active:
            fleet.migration.run_to_completion()
    except Exception as error:  # noqa: BLE001 — a stuck resume fails
        failures.append(f"resume raised {type(error).__name__}: {error}")
        return failures
    invariants()
    if fleet.partitioner.history_depth:
        failures.append(
            f"placement history not pruned after completion "
            f"(depth {fleet.partitioner.history_depth})"
        )
    return failures


def _migration_target() -> CrashTarget:
    from repro.shard.migration import crash_and_recover
    from repro.testing.scenarios import migration_fleet

    return CrashTarget(
        build=lambda plan, seed: migration_fleet(seed, plan),
        recover=crash_and_recover,
        settle=_settle_migration,
        cut_before="migrate",
    )


def crash_target(name: str) -> CrashTarget:
    """The target called ``name``: a registry crash tree, ``blsm-group``
    or ``migration``."""
    if name in _registry().CRASH_ENGINE_NAMES:
        return _tree_target(name)
    if name == "blsm-group":
        return _group_target()
    if name == "migration":
        return _migration_target()
    raise ValueError(
        f"unknown engine {name!r}; expected one of "
        f"{(*_registry().CRASH_ENGINE_NAMES, 'blsm-group', 'migration')}"
    )


def _oracle(stream: Iterable[_Mutation]) -> TraceOracle:
    """The dictionary model after applying ``stream`` in order."""
    oracle = TraceOracle()
    for mutation in stream:
        oracle.apply_mutation(*mutation)
    return oracle


def verify_prefix(
    recovered: Any,
    stream: list[_Mutation],
    acked: int,
    failures: list[str],
    context: str,
) -> int | None:
    """Check a recovered store against the submitted mutation stream.

    The store must read back the state after some prefix
    ``stream[:cut]`` with ``acked <= cut``: everything acknowledged
    survives, and whatever else survives is a clean prefix extension,
    never a gap.  Returns the shortest such ``cut``, or ``None`` after
    appending one failure line (prefixed by ``context``).
    """
    keys = dict.fromkeys(key for _, key, _ in stream)
    actual = {key: recovered.get(key) for key in keys}
    model = _oracle(stream[:acked])
    acked_state = dict(model.state)
    mismatched = sorted(k for k, v in actual.items() if acked_state.get(k) != v)
    wrong = set(mismatched)
    cut = acked
    while wrong and cut < len(stream):
        key = stream[cut][1]
        model.apply_mutation(*stream[cut])
        cut += 1
        if model.state.get(key) == actual[key]:
            wrong.discard(key)
        else:
            wrong.add(key)
    if not wrong:
        return cut
    key = mismatched[0]
    failures.append(
        f"{context}: key {key!r} -> {actual[key]!r}, expected acked "
        f"{acked_state.get(key)!r} (no prefix of the {len(stream)} "
        f"submitted mutations at or past the {acked} acked matches)"
    )
    return None


class _Run:
    """One store being driven, plus the history its recovery is judged by.

    ``stream`` holds every submitted mutation in order (appended before
    the engine call, so an interrupted one is included); ``model`` is
    the oracle over it, what reads must see.
    """

    def __init__(self, target: CrashTarget, store: Any) -> None:
        self.target = target
        self.store = store
        self.stream: list[_Mutation] = []
        self.model = TraceOracle()
        self.synced = 0
        self.tickets: list[tuple[Any, int]] = []

    def submit(self, mutations: Iterable[_Mutation]) -> None:
        for mutation in mutations:
            self.stream.append(mutation)
            self.model.apply_mutation(*mutation)

    def acked(self) -> int:
        """Length of the acknowledged prefix of ``stream``."""
        resolved = [
            end for ticket, end in self.tickets if ticket.durable_at is not None
        ]
        return max([self.synced, *resolved])

    def recover(self, outcome: CrashTraceOutcome, context: str) -> None:
        """Crash the store, recover, verify; continue from the survivor."""
        outcome.crashed = True
        store = self.target.recover(self.store)
        outcome.recovered = True
        cut = verify_prefix(
            store, self.stream, self.acked(), outcome.failures, context
        )
        if self.target.settle is not None:
            outcome.failures.extend(
                f"{context}: {failure}" for failure in self.target.settle(store)
            )
            if cut is not None:
                verify_prefix(
                    store, self.stream[:cut], cut, outcome.failures,
                    f"{context} (resumed)",
                )
        cut = self.acked() if cut is None else cut
        self.store = store
        del self.stream[cut:]
        self.model = _oracle(self.stream)
        self.synced = cut
        self.tickets = []


def _mutations_of(op: TraceOp) -> Iterable[_Mutation]:
    """The point mutations of one trace op (batch ops flatten)."""
    if op.kind in ("put", "delete", "delta"):
        yield (op.kind, op.key, op.value if op.kind != "delete" else None)
    elif op.kind == "batch":
        yield from op.mutations


def _check_read(
    run: _Run, index: int, op: TraceOp, failures: list[str]
) -> None:
    expected = run.model.expected(op)
    if op.kind == "scan":
        actual: Any = list(run.store.scan(op.key, op.hi, op.limit))
    elif op.kind == "multi_get":
        actual = [run.store.get(key) for key in op.keys]
    else:
        actual = run.store.get(op.key)
    if actual != expected:
        failures.append(
            f"op {index} ({op.kind}): got {actual!r}, expected {expected!r}"
        )


def _run(
    run: _Run,
    trace: Trace,
    plan: FaultPlan,
    outcome: CrashTraceOutcome,
) -> None:
    """Execute a trace on ``run``'s store, honouring ``crash`` markers.

    A marker crashes the store with ``plan`` disarmed (so recovery I/O
    fires nothing), recovers, verifies and continues on the survivor.
    """
    for index, op in enumerate(trace):
        store = run.store
        if op.kind == "crash":
            plan.disarm()
            run.recover(outcome, f"op {index} (crash marker)")
            plan.arm()
        elif op.kind == "merge_work":
            drive_merge(store, op.budget)
        elif op.kind == "migrate":
            handler = getattr(store, "handle_migration_op", None)
            if handler is not None:
                handler(op.action, op.key, op.budget)
        elif op.kind in ("get", "multi_get", "scan"):
            _check_read(run, index, op, outcome.failures)
        elif op.kind == "commit":
            run.submit(op.mutations)
            ticket = store.write_batch(
                op.mutations, session=op.session, wait=op.wait
            )
            run.tickets.append((ticket, len(run.stream)))
        elif op.kind == "flush":
            store.flush_log()
            run.synced = len(run.stream)
        else:
            for mutation in _mutations_of(op):
                run.submit([mutation])
                write_mutation(store, *mutation)
                if run.target.sync:
                    run.synced = len(run.stream)


def _replay(
    target: CrashTarget,
    trace: Trace,
    plan: FaultPlan,
    seed: int,
    outcome: CrashTraceOutcome,
    context: str,
) -> bool:
    """Run ``trace`` once on a fresh store wired to ``plan``.

    If the plan kills the process (:class:`CrashPoint`) the store is
    recovered and verified under ``context`` — the trace's remaining ops
    are dead, as they would be on real hardware.  Returns whether the
    plan killed it.
    """
    run = _Run(target, target.build(plan, seed))
    killed = False
    plan.arm()
    try:
        _run(run, trace, plan, outcome)
    except CrashPoint:
        killed = True
        plan.disarm()
        run.recover(outcome, context)
    plan.disarm()
    run.store.close()
    return killed


def trace_access_count(
    trace: Trace, engine: str = "blsm", seed: int = 0
) -> int:
    """Device accesses one full run of the trace performs.

    These are the crash candidates :func:`enumerate_trace_crash_points`
    sweeps; construction, recovery at ``crash`` markers and the final
    close run disarmed so the count is workload-anchored (access ``k``
    names the same boundary in every run).
    """
    plan = FaultPlan(seed=seed, armed=False)
    _replay(crash_target(engine), trace, plan, seed, CrashTraceOutcome(0), "")
    return plan.access_count


def run_crash_trace(
    trace: Trace,
    engine: str = "blsm",
    seed: int = 0,
    plan: FaultPlan | None = None,
) -> list[str]:
    """Execute a trace on a crash-capable store; return verification failures.

    ``crash`` markers in the trace crash/recover/verify inline.  An
    optional ``plan`` overlay (built disarmed; armed for the workload)
    composes additional scheduled faults on top.
    """
    outcome = CrashTraceOutcome(0)
    plan = plan if plan is not None else FaultPlan(seed=seed, armed=False)
    _replay(crash_target(engine), trace, plan, seed, outcome, "overlay crash")
    return outcome.failures


def enumerate_trace_crash_points(
    trace: Trace,
    engine: str = "blsm",
    every: int = 1,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> CrashTraceReport:
    """Crash at every ``every``-th I/O boundary of a trace; recover; verify.

    Construction runs disarmed, so access index ``k`` always names the
    ``k``-th device access *of the trace* — the same boundary in every
    run.  A target with ``cut_before`` set also crashes just before
    every op of that kind and at the trace's end (the trace is cut there
    and closed with a ``crash`` marker): on ``migration``, every
    boundary between two controller steps.
    """
    target = crash_target(engine)
    if every <= 0:
        raise ValueError(f"every must be positive, got {every}")
    total = trace_access_count(trace, engine, seed=seed)
    cuts = [i for i, op in enumerate(trace) if op.kind == target.cut_before]
    if target.cut_before is not None:
        cuts.append(len(trace))
    report = CrashTraceReport(
        engine=engine,
        trace_ops=len(trace),
        every=every,
        seed=seed,
        total_accesses=total,
        op_boundaries=len(cuts),
    )
    for access in range(1, total + 1, every):
        outcome = CrashTraceOutcome(access_index=access)
        plan = FaultPlan.crash_at(access, seed=seed, armed=False)
        context = f"access {access}"
        if not _replay(target, trace, plan, seed, outcome, context):
            outcome.failures.append(f"{context}: the replay never reached it")
        report.record(outcome)
        if progress is not None and access % 50 == 1:
            progress(
                f"crashtest[{engine}]: boundary {access}/{total}, "
                f"{len(report.failures)} failures"
            )
    for position in cuts:
        outcome = CrashTraceOutcome(access_index=position)
        cut = trace.replace_ops([*trace.ops[:position], TraceOp.crash()])
        plan = FaultPlan(seed=seed, armed=False)
        _replay(target, cut, plan, seed, outcome, f"cut {position}")
        report.record(outcome)
    if progress is not None and cuts:
        progress(
            f"crashtest[{engine}]: {len(cuts)} {target.cut_before} boundaries, "
            f"{len(report.failures)} failures"
        )
    return report


def format_crash_report(
    report: CrashTraceReport,
    header: str | None = None,
    labels: tuple[str, str] = ("workload device accesses", "op boundaries"),
) -> str:
    """Human-readable summary (``repro crashtest`` / ``repro migrate``).

    ``labels`` name the two boundary families: device accesses, and the
    op cuts (shown only when the sweep made any).
    """
    accesses_label, cuts_label = labels
    lines = [
        header
        or f"crash-point enumeration: engine={report.engine} "
        f"ops={report.trace_ops} every={report.every} seed={report.seed}",
        f"  {accesses_label:<25}: {report.total_accesses}",
    ]
    if report.op_boundaries:
        lines.append(f"  {cuts_label:<25}: {report.op_boundaries}")
    lines += [
        f"  boundaries tested        : {report.boundaries_tested}",
        f"  crashes triggered        : {report.crashes_triggered}",
        f"  recoveries verified      : {report.recoveries_verified}",
        f"  failures                 : {len(report.failures)}",
    ]
    for outcome in report.failures[:10]:
        for failure in outcome.failures[:3]:
            lines.append(f"    {failure}")
    lines.append(f"  verdict                  : {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)
