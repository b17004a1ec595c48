"""The serializable operation-trace format the conformance harness runs.

A :class:`Trace` is a self-contained list of operations — every key and
value is stored inline, so a trace replays identically with no generator
or seed in the loop.  That is what makes it the harness's common
currency: the differential executor replays one trace through every
engine, the fault composer overlays crash schedules onto it, the
minimizer shrinks it, and a shrunk failure lands in ``tests/corpus/`` as
a plain JSON file a human can read and edit.

Operation kinds (:data:`OP_KINDS`):

``put`` / ``delete`` / ``delta``
    Single mutations, applied through the engine's point API.
``get`` / ``scan`` / ``multi_get``
    Reads, verified op-by-op against the dictionary oracle.
``batch``
    An ordered group of mutations applied through
    :meth:`~repro.baselines.interface.KVEngine.apply_batch` — the
    batched-vs-sequential parity surface.
``commit``
    A session-tagged mutation group committed through
    :meth:`~repro.baselines.interface.KVEngine.commit_batch` as one
    ticket; ``wait`` blocks on the ticket, otherwise it resolves when a
    later force or ``flush`` covers it — the group-commit surface.
``flush``
    A durability barrier (:meth:`~repro.baselines.interface.KVEngine.flush`):
    drains every pending commit ticket and forces the log.
``merge_work``
    A scheduling marker: push the engine's merge machinery forward by a
    byte budget.  No logical state changes, but it moves merge
    freeze-points around — the crash-during-merge surface.
``crash``
    A crash marker, honoured only by the fault composer (crash the
    substrate here, recover, verify, continue); other executors skip it.
``migrate``
    An online-migration driver op, honoured only by engines exposing
    ``handle_migration_op`` (the sharded engine with an attached
    controller): ``split``/``merge`` plan a live boundary move of the
    shard owning ``key``, ``step`` just advances an in-flight migration
    by ``budget`` bounded steps.  Logically a no-op — the oracle is
    untouched — which is the point: every read after it must still
    agree with the oracle mid-migration.

Serialization is a single JSON document.  Keys and values are bytes;
they are stored as Latin-1 strings (a bijection between byte values
0–255 and code points 0–255), so arbitrary binary keys round-trip while
the common ASCII case stays human-readable in corpus files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

#: Every operation kind a trace may contain, in documentation order.
OP_KINDS = (
    "put",
    "delete",
    "delta",
    "get",
    "scan",
    "multi_get",
    "batch",
    "commit",
    "flush",
    "merge_work",
    "crash",
    "migrate",
)

#: The trace file format tag; bump on incompatible changes.
TRACE_FORMAT = "repro-trace-v1"


def _encode(data: bytes) -> str:
    return data.decode("latin-1")


def _decode(text: str) -> bytes:
    return text.encode("latin-1")


def _checked(
    mutations: Sequence[tuple[str, bytes, bytes | None]],
) -> tuple[tuple[str, bytes, bytes | None], ...]:
    for op, _, _ in mutations:
        if op not in ("put", "delete", "delta"):
            raise ValueError(f"unknown batch mutation {op!r}")
    return tuple(mutations)


@dataclass(frozen=True)
class TraceOp:
    """One operation of a trace.

    Construct through the classmethod constructors (``TraceOp.put(...)``,
    ``TraceOp.scan(...)``, ...) rather than positionally; only the fields
    relevant to ``kind`` are meaningful.
    """

    kind: str
    key: bytes = b""
    value: bytes = b""
    hi: bytes | None = None
    limit: int | None = None
    keys: tuple[bytes, ...] = ()
    mutations: tuple[tuple[str, bytes, bytes | None], ...] = ()
    budget: int = 0
    action: str = ""
    session: int = 0
    wait: bool = False

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(
                f"unknown trace op {self.kind!r}; expected one of {OP_KINDS}"
            )

    # -- constructors --------------------------------------------------

    @classmethod
    def put(cls, key: bytes, value: bytes) -> "TraceOp":
        """A blind write."""
        return cls("put", key=key, value=value)

    @classmethod
    def delete(cls, key: bytes) -> "TraceOp":
        """A tombstone write."""
        return cls("delete", key=key)

    @classmethod
    def delta(cls, key: bytes, delta: bytes) -> "TraceOp":
        """A partial update (byte-append semantics)."""
        return cls("delta", key=key, value=delta)

    @classmethod
    def get(cls, key: bytes) -> "TraceOp":
        """A verified point lookup."""
        return cls("get", key=key)

    @classmethod
    def scan(
        cls, lo: bytes, hi: bytes | None = None, limit: int | None = None
    ) -> "TraceOp":
        """A verified ordered range scan."""
        return cls("scan", key=lo, hi=hi, limit=limit)

    @classmethod
    def multi_get(cls, keys: Sequence[bytes]) -> "TraceOp":
        """A verified batched lookup."""
        return cls("multi_get", keys=tuple(keys))

    @classmethod
    def batch(
        cls, mutations: Sequence[tuple[str, bytes, bytes | None]]
    ) -> "TraceOp":
        """An ordered mutation group applied through ``apply_batch``."""
        return cls("batch", mutations=_checked(mutations))

    @classmethod
    def commit(
        cls,
        mutations: Sequence[tuple[str, bytes, bytes | None]],
        session: int = 0,
        wait: bool = False,
    ) -> "TraceOp":
        """A mutation group committed as one ticket of ``session``."""
        return cls(
            "commit", mutations=_checked(mutations), session=session, wait=wait
        )

    @classmethod
    def flush(cls) -> "TraceOp":
        """A durability barrier: drain pending tickets, force the log."""
        return cls("flush")

    @classmethod
    def merge_work(cls, budget: int = 16 * 1024) -> "TraceOp":
        """A merge-scheduling marker worth ``budget`` merge bytes."""
        return cls("merge_work", budget=budget)

    @classmethod
    def crash(cls) -> "TraceOp":
        """A crash marker (crash, recover, verify, continue)."""
        return cls("crash")

    @classmethod
    def migrate(cls, action: str, key: bytes = b"", budget: int = 1) -> "TraceOp":
        """An online-migration driver op (sharded engines only)."""
        if action not in ("split", "merge", "step"):
            raise ValueError(
                f"unknown migrate action {action!r}; "
                "expected split, merge or step"
            )
        return cls("migrate", key=key, budget=budget, action=action)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The op as a plain JSON-serializable dict."""
        if self.kind in ("put", "delta"):
            return {
                "op": self.kind,
                "key": _encode(self.key),
                "value": _encode(self.value),
            }
        if self.kind in ("get", "delete"):
            return {"op": self.kind, "key": _encode(self.key)}
        if self.kind == "scan":
            return {
                "op": "scan",
                "lo": _encode(self.key),
                "hi": None if self.hi is None else _encode(self.hi),
                "limit": self.limit,
            }
        if self.kind == "multi_get":
            return {"op": "multi_get", "keys": [_encode(k) for k in self.keys]}
        if self.kind in ("batch", "commit"):
            document: dict[str, Any] = {
                "op": self.kind,
                "mutations": [
                    [op, _encode(key), None if value is None else _encode(value)]
                    for op, key, value in self.mutations
                ],
            }
            if self.kind == "commit":
                document.update(session=self.session, wait=self.wait)
            return document
        if self.kind == "merge_work":
            return {"op": "merge_work", "budget": self.budget}
        if self.kind == "migrate":
            return {
                "op": "migrate",
                "action": self.action,
                "key": _encode(self.key),
                "budget": self.budget,
            }
        return {"op": self.kind}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceOp":
        """Parse one op dict (inverse of :meth:`to_dict`)."""
        kind = data["op"]
        if kind in ("put", "delta"):
            return cls(kind, key=_decode(data["key"]), value=_decode(data["value"]))
        if kind in ("get", "delete"):
            return cls(kind, key=_decode(data["key"]))
        if kind == "scan":
            hi = data.get("hi")
            return cls.scan(
                _decode(data["lo"]),
                None if hi is None else _decode(hi),
                data.get("limit"),
            )
        if kind == "multi_get":
            return cls.multi_get([_decode(k) for k in data["keys"]])
        if kind in ("batch", "commit"):
            mutations = [
                (op, _decode(key), None if value is None else _decode(value))
                for op, key, value in data["mutations"]
            ]
            if kind == "batch":
                return cls.batch(mutations)
            return cls.commit(
                mutations,
                session=int(data.get("session", 0)),
                wait=bool(data.get("wait", False)),
            )
        if kind == "merge_work":
            return cls.merge_work(int(data.get("budget", 16 * 1024)))
        if kind == "migrate":
            return cls.migrate(
                data["action"],
                _decode(data.get("key", "")),
                int(data.get("budget", 1)),
            )
        if kind in ("crash", "flush"):
            return cls(kind)
        raise ValueError(f"unknown trace op {kind!r}")

    def __str__(self) -> str:
        body = {k: v for k, v in self.to_dict().items() if k != "op"}
        return f"{self.kind}({body})" if body else self.kind


@dataclass
class Trace:
    """A self-contained, serializable operation trace.

    ``meta`` carries provenance (generator seed, a human note) and the
    replay hints the corpus runner dispatches on: ``mode``
    (``"differential"`` or ``"crash"``), ``engines`` (registry names to
    replay against; empty means every engine), ``shards`` (shard count
    for the sharded config), ``crash_every`` (crash-boundary stride for
    crash-mode replays).
    """

    ops: list[TraceOp] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    def replace_ops(self, ops: Sequence[TraceOp]) -> "Trace":
        """A new trace with the same meta and different ops."""
        return Trace(ops=list(ops), meta=dict(self.meta))

    def to_json(self) -> str:
        """Serialize to the ``repro-trace-v1`` JSON document."""
        document = {
            "format": TRACE_FORMAT,
            "meta": self.meta,
            "ops": [op.to_dict() for op in self.ops],
        }
        return json.dumps(document, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Parse a trace document (inverse of :meth:`to_json`)."""
        document = json.loads(text)
        if document.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a {TRACE_FORMAT} document: format="
                f"{document.get('format')!r}"
            )
        return cls(
            ops=[TraceOp.from_dict(op) for op in document.get("ops", [])],
            meta=dict(document.get("meta", {})),
        )

    def save(self, path: str) -> None:
        """Write the trace to ``path`` as JSON."""
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_json(handle.read())


def generate_trace(
    ops: int,
    seed: int = 0,
    keyspace: int = 200,
    value_bytes: int = 24,
    key_format: bytes = b"key%06d",
    scan_fraction: float = 0.05,
    batch_fraction: float = 0.08,
    multi_get_fraction: float = 0.05,
    merge_work_fraction: float = 0.03,
    crash_fraction: float = 0.0,
    migrate_fraction: float = 0.0,
    max_batch_ops: int = 8,
) -> Trace:
    """Generate a seeded random trace; same arguments, same trace.

    The op mix leans on writes (the merge machinery needs fuel) with
    enough reads, scans and batches to exercise every engine surface.
    Deltas are only emitted for keys currently live in the generator's
    own shadow model, because delta-on-missing-key semantics are a
    bLSM-family extension the simpler baselines do not define; a corpus
    trace that wants that corner writes it by hand and restricts its
    ``engines`` hint (see ``tests/corpus/delta-on-deleted-key.json``).
    """
    rng = random.Random(seed)
    shadow: dict[bytes, bytes] = {}
    out: list[TraceOp] = []

    def random_key() -> bytes:
        return key_format % rng.randrange(keyspace)

    def random_value(tag: int) -> bytes:
        body = b"v%08d" % tag
        return body + bytes(max(0, value_bytes - len(body)))

    def mutation(tag: int) -> tuple[str, bytes, bytes | None]:
        key = random_key()
        roll = rng.random()
        if roll < 0.70:
            value = random_value(tag)
            shadow[key] = value
            return ("put", key, value)
        if roll < 0.85 or key not in shadow:
            shadow.pop(key, None)
            return ("delete", key, None)
        shadow[key] += b"+D"
        return ("delta", key, b"+D")

    special = (
        scan_fraction
        + batch_fraction
        + multi_get_fraction
        + merge_work_fraction
        + crash_fraction
        + migrate_fraction
    )
    if special >= 0.5:
        raise ValueError("special-op fractions must leave room for point ops")
    for index in range(ops):
        roll = rng.random()
        if roll < scan_fraction:
            lo = random_key()
            hi = random_key() if rng.random() < 0.5 else None
            if hi is not None and hi < lo:
                lo, hi = hi, lo
            limit = rng.randrange(1, 20) if rng.random() < 0.5 else None
            out.append(TraceOp.scan(lo, hi, limit))
            continue
        roll -= scan_fraction
        if roll < batch_fraction:
            count = rng.randrange(2, max_batch_ops + 1)
            out.append(
                TraceOp.batch(
                    [mutation(index * 100 + j) for j in range(count)]
                )
            )
            continue
        roll -= batch_fraction
        if roll < multi_get_fraction:
            count = rng.randrange(2, 12)
            out.append(TraceOp.multi_get([random_key() for _ in range(count)]))
            continue
        roll -= multi_get_fraction
        if roll < merge_work_fraction:
            out.append(TraceOp.merge_work(rng.randrange(4, 64) * 1024))
            continue
        roll -= merge_work_fraction
        if roll < crash_fraction:
            out.append(TraceOp.crash())
            continue
        roll -= crash_fraction
        if roll < migrate_fraction:
            # Mostly steps (advance whatever is in flight), with enough
            # split/merge plans to start migrations at varied points.
            action_roll = rng.random()
            if action_roll < 0.3:
                action = "split"
            elif action_roll < 0.5:
                action = "merge"
            else:
                action = "step"
            out.append(
                TraceOp.migrate(
                    action, random_key(), budget=rng.randrange(1, 6)
                )
            )
            continue
        # Point operations fill the remaining probability mass.
        point = rng.random()
        key = random_key()
        if point < 0.55:
            value = random_value(index)
            shadow[key] = value
            out.append(TraceOp.put(key, value))
        elif point < 0.67:
            shadow.pop(key, None)
            out.append(TraceOp.delete(key))
        elif point < 0.75 and key in shadow:
            shadow[key] += b"+D"
            out.append(TraceOp.delta(key, b"+D"))
        else:
            out.append(TraceOp.get(key))
    return Trace(
        ops=out,
        meta={
            "mode": "differential",
            "seed": seed,
            "keyspace": keyspace,
            "value_bytes": value_bytes,
        },
    )
