"""The four workloads: inputs from a seed, and the loop that drives them.

Every workload builds its engine with ``repro.build_engine("blsm", ...)``
from the ``EngineConfig`` defaults (HDD model, 512 KB C0, 64-page pool,
spring-and-gear, skiplist memtable, async durability, 1000-byte values)
plus the overrides its spec names, and drives it only through the public
``KVEngine`` methods and the engine's ``VirtualClock``.

Arrivals: ``clients`` closed-loop clients on the virtual clock.  Each
client issues its next op an exponential think time after its previous
op completed; the engine serves ops one at a time in issue order, so an
op waits while the engine serves ops issued before it.  An op's virtual
latency runs from its issue to its completion (for a group-committed
write: to its durable acknowledgement).  Its *service* is the clock
advance the op itself caused.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import BLSM, BLSMEngine, EngineConfig, WriteBatch, build_engine

perf_counter = time.perf_counter

VALUE_BYTES = 1000
PAGE_BYTES = 4096  # EngineConfig does not vary the page size

_FILL = bytes(range(33, 127)) * (VALUE_BYTES // 94 + 2)

# op kinds
PUT, GET, SCAN, RMW, COMMIT = range(5)
KIND_NAMES = ("put", "get", "scan", "rmw", "commit")
WRITES = (PUT, RMW, COMMIT)


@dataclass(frozen=True)
class Workload:
    """One workload: engine overrides, data set, op mix, clients."""

    name: str
    why: str
    config: dict[str, Any]
    preload: int  # records loaded during set-up
    ops: int  # measured operations per repetition
    mix: tuple[tuple[int, float], ...]  # (kind, share)
    clients: int
    think_s: float  # mean think time between a client's ops
    zipf: bool = False  # keys scrambled-Zipfian (else uniform)
    new_keys: bool = False  # PUTs insert fresh keys (ingest)
    warm_reads: bool = False  # read every key once during set-up
    regime: dict[str, float] = field(default_factory=dict)
    #: ``--seconds`` is split into repetitions of this many seconds, a
    #: fixed count (so virtual metrics depend only on the seed and
    #: ``--seconds``) sized to a 2-core x86 sandbox.
    rep_seconds: float = 2.5

    @property
    def group_commit(self) -> bool:
        return self.config.get("durability") == "group"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ingest",
            why="uniform-random inserts from empty to data:RAM >= 20:1 with both merges running (paper 5.2, Fig 7)",
            config={"background_merges": True},
            preload=0,
            ops=19000,
            mix=((PUT, 0.9), (GET, 0.1)),
            clients=16,
            think_s=0.005,
            new_keys=True,
            regime={"min_data_ram": 20.0, "min_c2_bytes": 1.0},
            rep_seconds=1.25,
        ),
        Workload(
            name="read-uniform",
            why="95% uniform point reads, 5% blind writes, data:RAM >= 5:1 with the 64-page pool: disk-bound reads (paper 5.3, Table 1)",
            config={"background_merges": True},
            preload=8000,
            ops=60000,
            mix=((GET, 0.95), (PUT, 0.05)),
            clients=4,
            think_s=0.002,
            regime={"min_data_ram": 5.0, "min_seeks_per_read": 0.8, "max_hit_rate": 0.1},
        ),
        Workload(
            name="scan-rmw-zipf",
            why="zipfian short scans, read-modify-writes and point reads on data the buffer pool holds: CPU-bound (paper 5.6)",
            config={"cache_pages": 4096, "c0_bytes": 128 * 1024},
            preload=2000,
            ops=20000,
            mix=((SCAN, 0.3), (RMW, 0.15), (GET, 0.55)),
            clients=4,
            think_s=0.0005,
            zipf=True,
            warm_reads=True,
            regime={"min_hit_rate": 0.5, "max_pool_fill": 1.0},
        ),
        Workload(
            name="sessions-group",
            why="8 sessions, half point reads and half writes through group commit (commit_batch, wait=False): commit queueing",
            config={"durability": "group"},
            preload=4000,
            ops=20000,
            mix=((GET, 0.5), (COMMIT, 0.5)),
            clients=8,
            think_s=0.010,
            regime={"min_group_size": 1.0},
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def make_key(item: int) -> bytes:
    """Record ``item``'s key: a fixed hash, so load order is not key order."""
    digest = hashlib.blake2b(item.to_bytes(8, "little"), digest_size=8)
    return b"user" + digest.hexdigest().encode()


def make_value(key: bytes, seq: int) -> bytes:
    """A 1000-byte value naming its key and write sequence number, so a
    stale or misrouted read cannot pass the oracle check."""
    head = b"%s#%010d#" % (key, seq)
    return head + _FILL[: VALUE_BYTES - len(head)]


def value_seq(key: bytes, value: bytes) -> int:
    """The write sequence number a value encodes (-1 if not ``key``'s)."""
    prefix = key + b"#"
    if not value.startswith(prefix):
        return -1
    return int(value[len(prefix) : len(prefix) + 10])


class ScrambledZipf:
    """YCSB's scrambled Zipfian over ``n`` items (Gray et al.)."""

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        self.n = n
        self.rng = rng
        self.theta = theta
        self.zetan = sum(1.0 / (i + 1) ** theta for i in range(n))
        zeta2 = 1.0 + 0.5**theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / self.zetan)

    def rank(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)

    def next(self) -> int:
        digest = hashlib.blake2b(
            self.rank().to_bytes(8, "little"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little") % self.n


@dataclass
class Inputs:
    """Everything a repetition needs, generated from the seed.

    Writes carry their sequence number, not their value: the value is
    built with ``make_value`` just before its call, outside the timed
    region, so neither the inputs nor the oracle keep values alive.
    """

    preload: list[bytes]  # keys in load order; key i is written with seq i
    ops: list[tuple[int, bytes, int | None]]  # (kind, key, seq | scan limit)
    think: list[float]  # think time of the client after op i
    sorted_keys: list[bytes]  # preloaded keys (the scan oracle)


def generate(workload: Workload, seed: int, rep: int = 0) -> Inputs:
    """Deterministic inputs for repetition ``rep`` of ``workload``.

    As in YCSB, record ``i``'s key is a fixed hash of ``i``; the seed
    drives everything else: load order, op mix, key choices, scan
    lengths and think times.
    """
    rng = random.Random(f"{workload.name}:{seed}:{rep}")
    base_keys = [make_key(i) for i in range(workload.preload)]
    preload = list(base_keys)
    rng.shuffle(preload)
    fresh_keys = []
    if workload.new_keys or not base_keys:
        fresh_keys = [
            make_key(i)
            for i in range(workload.preload, workload.preload + workload.ops)
        ]
        rng.shuffle(fresh_keys)
    fresh = iter(fresh_keys)
    seq = len(preload)
    kinds = [kind for kind, _ in workload.mix]
    weights = [share for _, share in workload.mix]
    zipf = ScrambledZipf(len(base_keys), 0.99, rng) if workload.zipf else None
    written: list[bytes] = list(base_keys)
    ops: list[tuple[int, bytes, int | None]] = []
    for _ in range(workload.ops):
        kind = rng.choices(kinds, weights)[0]
        if (kind == PUT and workload.new_keys) or not written:
            kind, key = PUT, next(fresh)
            written.append(key)
        elif zipf is not None:
            key = base_keys[zipf.next()]
        else:
            key = written[rng.randrange(len(written))]
        if kind == SCAN:
            ops.append((SCAN, key, rng.randint(1, 100)))
        elif kind in WRITES:
            ops.append((kind, key, seq))
            seq += 1
        else:
            ops.append((GET, key, None))
    think = [rng.expovariate(1.0 / workload.think_s) for _ in ops]
    return Inputs(preload, ops, think, sorted(base_keys))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


def engine_config(workload: Workload, **overrides: Any) -> EngineConfig:
    """The workload's ``EngineConfig``."""
    return EngineConfig(**workload.config, **overrides)


def devices(engine: Any) -> tuple[Any, Any]:
    """(data disk, log disk) of the engine's runtime.

    Device counters are read from ``SimDisk.stats``: with observability
    off, ``io_summary()`` reports 0 for every device counter.
    """
    disks = engine.runtime.disks
    data = next(d for d in disks if d.name.endswith("-data"))
    log = next(d for d in disks if d.name.endswith("-log"))
    return data, log


@dataclass
class Run:
    """What one repetition measured and checked."""

    setup_s: float = 0.0
    wall_s: float = 0.0  # host seconds inside engine calls
    ops: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    service_s: float = 0.0  # virtual seconds the engine spent serving ops
    elapsed_s: float = 0.0  # virtual seconds from first issue to the end
    write_lat: list[float] = field(default_factory=list)
    read_lat: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)  # issue -> start
    read_seeks: int = 0
    reads: int = 0
    get_hits: float = 0.0
    get_misses: float = 0.0
    user_bytes_written: int = 0
    data_written: int = 0
    data_read: int = 0
    log_written: int = 0
    fg_busy_s: float = 0.0
    bg_busy_s: float = 0.0
    data_busy_s: float = 0.0
    queue_delays: list[float] = field(default_factory=list)
    group_sizes: list[int] = field(default_factory=list)
    metrics_delta: dict[str, float] = field(default_factory=dict)
    components: dict[str, int] = field(default_factory=dict)
    live_bytes: int = 0
    data_ram: float = 0.0
    digest: str = ""
    oracle_digest: str = ""
    lost_acked: int = 0


_ENGINE_METRICS = (
    "writes.stalls",
    "merge.c0c1.passes",
    "buffer.evictions",
    "commit.commits",
    "commit.forces",
)


def _engine_metrics(engine: Any) -> dict[str, float]:
    snap = engine.metrics()
    out = {name: float(snap.get(name, 0.0)) for name in _ENGINE_METRICS}
    stall = snap.get("writes.stall_seconds")
    out["writes.stall_seconds"] = (
        stall["count"] * stall["mean"] if isinstance(stall, dict) else 0.0
    )
    return out


def digest_of(oracle: dict[bytes, int]) -> str:
    """``KVEngine.state_digest`` of the oracle's contents."""
    digest = hashlib.sha256()
    for key in sorted(oracle):
        value = make_value(key, oracle[key])
        digest.update(len(key).to_bytes(4, "big"))
        digest.update(key)
        digest.update(len(value).to_bytes(4, "big"))
        digest.update(value)
    return digest.hexdigest()


def setup(
    workload: Workload, seed: int, rep: int = 0
) -> tuple[Any, Inputs, dict[bytes, int], float]:
    """Build, generate and preload; return the wall seconds it took.

    The oracle maps each key to the sequence number of its latest write.
    """
    started = perf_counter()
    engine = build_engine(
        "blsm", engine_config(workload, observability=False, seed=seed)
    )
    inputs = generate(workload, seed, rep)
    oracle: dict[bytes, int] = {}
    for seq, key in enumerate(inputs.preload):
        engine.put(key, make_value(key, seq))
        oracle[key] = seq
    if workload.warm_reads:
        for key in inputs.sorted_keys:
            engine.get(key)
    engine.flush()
    return engine, inputs, oracle, perf_counter() - started


def drive(
    workload: Workload,
    engine: Any,
    inputs: Inputs,
    oracle: dict[bytes, int],
    on_op: Callable[[], Callable[[], None]] | None = None,
) -> Run:
    """Run the measured phase and check every result against the oracle.

    Only the engine call itself is inside the timed region; building the
    value, the oracle checks and bookkeeping run between calls.  ``on_op`` (the traced run)
    opens the op's root span and returns the function that closes it.
    """
    run = Run()
    clock = engine.clock
    data_disk, log_disk = devices(engine)
    hits_ctr = engine.runtime.metrics.counter("buffer.hits")
    misses_ctr = engine.runtime.metrics.counter("buffer.misses")
    dstats, lstats = data_disk.stats, log_disk.stats
    before = (
        dstats.bytes_written, dstats.bytes_read, lstats.bytes_written,
        dstats.busy_seconds + lstats.busy_seconds,
        dstats.bg_busy_seconds + lstats.bg_busy_seconds,
        dstats.busy_seconds,
    )
    metrics_before = _engine_metrics(engine)
    sorted_keys = inputs.sorted_keys
    origin = clock.now
    tickets: list[tuple[Any, float]] = []
    wall = 0.0
    service = 0.0
    schedule = [(origin, client) for client in range(workload.clients)]

    def expected(key: bytes) -> bytes | None:
        seq = oracle.get(key)
        return None if seq is None else make_value(key, seq)

    for index, (kind, key, arg) in enumerate(inputs.ops):
        issued, client = heapq.heappop(schedule)
        if clock.now < issued:
            clock.advance_to(issued)
        start = clock.now
        seeks0 = dstats.seeks
        hits0 = hits_ctr.value
        misses0 = misses_ctr.value
        seen: list[bytes | None] = []
        result: Any = None
        ticket: Any = None
        value = make_value(key, arg) if kind in WRITES else b""
        close_span = on_op() if on_op is not None else None
        try:
            if kind == GET:
                t0 = perf_counter()
                result = engine.get(key)
                wall += perf_counter() - t0
            elif kind == PUT:
                t0 = perf_counter()
                engine.put(key, value)
                wall += perf_counter() - t0
            elif kind == SCAN:
                t0 = perf_counter()
                result = list(engine.scan(key, None, arg))
                wall += perf_counter() - t0
            elif kind == RMW:
                def update(old: bytes | None, _new: bytes = value) -> bytes:
                    seen.append(old)
                    return _new

                t0 = perf_counter()
                engine.read_modify_write(key, update)
                wall += perf_counter() - t0
            else:  # COMMIT
                batch = WriteBatch().put(key, value)
                t0 = perf_counter()
                ticket = engine.commit_batch(batch, session=client, wait=False)
                wall += perf_counter() - t0
        except Exception as exc:  # one failed op must not end the run
            run.failed += 1
            run.errors.append(f"op {index} {KIND_NAMES[kind]}: {exc!r}")
        finally:
            if close_span is not None:
                close_span()
        end = clock.now
        service += end - start
        run.waits.append(start - issued)
        heapq.heappush(schedule, (end + inputs.think[index], client))
        # -- checks (outside the timed region) --
        if kind == GET:
            run.reads += 1
            run.read_seeks += dstats.seeks - seeks0
            run.get_hits += hits_ctr.value - hits0
            run.get_misses += misses_ctr.value - misses0
            run.read_lat.append(end - issued)
            if result != expected(key):
                run.failed += 1
                run.errors.append(f"op {index} get {key!r}: stale or wrong value")
        elif kind == SCAN:
            run.reads += 1
            run.read_seeks += dstats.seeks - seeks0
            run.read_lat.append(end - issued)
            lo = bisect.bisect_left(sorted_keys, key)
            rows = [(k, expected(k)) for k in sorted_keys[lo : lo + arg]]
            if result != rows:
                run.failed += 1
                run.errors.append(f"op {index} scan {key!r}+{arg}: wrong rows")
        else:
            run.user_bytes_written += len(key) + len(value)
            if kind == RMW and seen != [expected(key)]:
                run.failed += 1
                run.errors.append(f"op {index} rmw {key!r}: read a wrong value")
            if kind == COMMIT:
                if ticket is not None:
                    tickets.append((ticket, issued))
            else:
                run.write_lat.append(end - issued)
            oracle[key] = arg
    # Durability barrier: every group-commit ticket resolves.
    t0 = perf_counter()
    engine.flush()
    wall += perf_counter() - t0
    for ticket, issued in tickets:
        if ticket.durable_at is None:
            run.failed += 1
            run.errors.append("commit ticket unresolved after flush")
            continue
        run.write_lat.append(ticket.durable_at - issued)
        run.queue_delays.append(ticket.queue_delay)
        run.group_sizes.append(ticket.group_size)
    run.ops = len(inputs.ops)
    run.wall_s = wall
    run.service_s = service
    run.elapsed_s = clock.now - origin
    run.data_written = dstats.bytes_written - before[0]
    run.data_read = dstats.bytes_read - before[1]
    run.log_written = lstats.bytes_written - before[2]
    busy = dstats.busy_seconds + lstats.busy_seconds - before[3]
    run.bg_busy_s = dstats.bg_busy_seconds + lstats.bg_busy_seconds - before[4]
    run.fg_busy_s = busy - run.bg_busy_s
    run.data_busy_s = dstats.busy_seconds - before[5]
    after = _engine_metrics(engine)
    run.metrics_delta = {k: after[k] - metrics_before[k] for k in after}
    run.components = dict(engine.tree.component_sizes())
    run.live_bytes = sum(len(k) + VALUE_BYTES for k in oracle)
    config = engine_config(workload)
    ram = config.c0_bytes + config.cache_pages * PAGE_BYTES
    run.data_ram = run.live_bytes / ram
    return run


def finish(workload: Workload, engine: Any, run: Run, oracle: dict[bytes, int]) -> None:
    """End-of-run checks: the contents digest equals the oracle's, and,
    under group commit, every acknowledged write survives a crash."""
    run.oracle_digest = digest_of(oracle)
    run.digest = engine.state_digest()
    if run.digest != run.oracle_digest:
        run.failed += 1
        run.errors.append("engine contents differ from the oracle")
    if not workload.group_commit:
        return
    # The flush in drive() acknowledged every write.  Crash the substrate
    # and recover: each key must read back at its latest written value.
    tree = engine.tree
    tree.stasis.crash()
    recovered = BLSMEngine.from_tree(BLSM.recover(tree.stasis, tree.options))
    for key, seq in oracle.items():
        got = recovered.get(key)
        if got is None or value_seq(key, got) < seq:
            run.lost_acked += 1
    run.failed += run.lost_acked
    if run.lost_acked:
        run.errors.append(f"{run.lost_acked} acknowledged writes lost in crash recovery")
    if recovered.state_digest() != run.oracle_digest:
        run.failed += 1
        run.errors.append("recovered contents differ from the oracle")


def percentile(samples: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``samples`` (p in [0, 100])."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
