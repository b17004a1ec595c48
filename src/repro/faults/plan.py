"""Deterministic fault plans: *what* goes wrong, *where*, and *when*.

A :class:`FaultPlan` is the single source of truth for every injected
fault in one storage substrate.  Both of a :class:`~repro.storage.stasis.
Stasis`'s devices consult the same plan, so the plan's access counter is
a global ordering over all device I/O — exactly the boundary stream the
crash-point sweep (`repro.testing.composer`) walks.

Fault kinds (see ``docs/fault-injection.md`` for the taxonomy):

* ``transient`` — the access fails with a retryable
  :class:`~repro.errors.TransientIOError`; access time is charged as
  wasted device time.
* ``torn`` — a write persists only a prefix of its bytes, then the
  process dies (:class:`~repro.errors.CrashPoint` with
  ``persisted_bytes`` set).  Log checksums detect the straddling record
  at replay.
* ``crash`` — the process dies at the access boundary, before any
  transfer.  This is the crash-point harness's primitive.
* ``corrupt`` — the accessed byte range is silently corrupted; consumers
  notice only when a checksum verification fails
  (:class:`~repro.errors.CorruptionError`).
* ``latency`` — the access completes but costs ``extra_seconds`` more
  virtual time (a stuttering device, Luo & Carey's degraded-I/O case).

Rules fire deterministically: positional triggers (``at_access``,
``every``) depend only on the shared access counter, and probabilistic
triggers draw from the plan's seeded RNG, so a given (plan, workload)
pair always injects the identical fault sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class FaultRule:
    """One fault trigger.

    A rule fires on an access when every filter matches (device substring,
    op kind) and at least one trigger is hot: ``at_access`` equals the
    plan's (armed) access counter, the counter is a multiple of ``every``,
    or a seeded coin flip lands under ``probability``.  ``count`` bounds
    the total fires (``None`` = unlimited).
    """

    kind: str
    device: str | None = None
    """Substring match against the device name (``None`` = any device)."""
    op: str | None = None
    """``"read"``, ``"write"``, or ``None`` for both."""
    at_access: int | None = None
    """Fire exactly at the Nth counted access (1-based)."""
    every: int | None = None
    """Fire at every Nth counted access."""
    probability: float = 0.0
    """Per-access fire probability, drawn from the plan's seeded RNG."""
    count: int | None = None
    """Maximum number of fires (``None`` = unlimited)."""
    extra_seconds: float = 0.0
    """Added virtual service time (``latency`` rules)."""
    torn_fraction: float = 0.5
    """Fraction of a torn write's bytes that reach the device."""
    fired: int = field(default=0, compare=False)
    """How many times this rule has fired (runtime state)."""

    _KINDS = ("transient", "torn", "crash", "corrupt", "latency")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.op not in (None, "read", "write"):
            raise ValueError(f"op must be 'read', 'write' or None, got {self.op!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not 0.0 <= self.torn_fraction < 1.0:
            raise ValueError(
                f"torn_fraction must be in [0, 1), got {self.torn_fraction}"
            )
        if self.every is not None and self.every <= 0:
            raise ValueError(f"every must be positive, got {self.every}")
        if self.at_access is not None and self.at_access <= 0:
            raise ValueError(f"at_access must be >= 1, got {self.at_access}")

    def matches(self, device: str, op: str) -> bool:
        if self.device is not None and self.device not in device:
            return False
        return self.op is None or self.op == op

    def exhausted(self) -> bool:
        return self.count is not None and self.fired >= self.count


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    One plan is shared by every device of a substrate; ``note_access``
    is called once per device access and returns the rules that fire.
    The plan can be *disarmed* (rules inert, counter paused) so harnesses
    can build an engine and run recovery without triggering faults meant
    for the workload itself.
    """

    def __init__(
        self,
        rules: list[FaultRule] | tuple[FaultRule, ...] = (),
        seed: int = 0,
        armed: bool = True,
    ) -> None:
        self.rules: list[FaultRule] = list(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        self.armed = armed
        self.access_count = 0
        self.fired_by_kind: dict[str, int] = {}

    # -- construction helpers -----------------------------------------

    def add(self, rule: FaultRule) -> "FaultPlan":
        """Append a rule; returns ``self`` for chaining."""
        self.rules.append(rule)
        return self

    @classmethod
    def crash_at(cls, access: int, seed: int = 0, armed: bool = False) -> "FaultPlan":
        """A plan that kills the process at the Nth armed access.

        Built disarmed by default so the harness can construct the engine
        first and :meth:`arm` the plan when the workload starts.
        """
        return cls(
            [FaultRule(kind="crash", at_access=access, count=1)],
            seed=seed,
            armed=armed,
        )

    @classmethod
    def transient(
        cls,
        probability: float = 0.0,
        every: int | None = None,
        device: str | None = None,
        op: str | None = None,
        count: int | None = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """A plan injecting retryable I/O errors."""
        return cls(
            [
                FaultRule(
                    kind="transient",
                    probability=probability,
                    every=every,
                    device=device,
                    op=op,
                    count=count,
                )
            ],
            seed=seed,
        )

    @classmethod
    def torn_write(
        cls,
        at_access: int | None = None,
        every: int | None = None,
        device: str | None = None,
        torn_fraction: float = 0.5,
        seed: int = 0,
    ) -> "FaultPlan":
        """A plan tearing one write (prefix persists, then crash)."""
        return cls(
            [
                FaultRule(
                    kind="torn",
                    op="write",
                    at_access=at_access,
                    every=every,
                    device=device,
                    torn_fraction=torn_fraction,
                    count=1,
                )
            ],
            seed=seed,
        )

    @classmethod
    def corrupt(
        cls,
        at_access: int | None = None,
        every: int | None = None,
        probability: float = 0.0,
        device: str | None = None,
        op: str | None = None,
        count: int | None = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """A plan silently corrupting accessed byte ranges."""
        return cls(
            [
                FaultRule(
                    kind="corrupt",
                    at_access=at_access,
                    every=every,
                    probability=probability,
                    device=device,
                    op=op,
                    count=count,
                )
            ],
            seed=seed,
        )

    @classmethod
    def latency(
        cls,
        extra_seconds: float,
        probability: float = 0.0,
        every: int | None = None,
        device: str | None = None,
        count: int | None = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """A plan injecting per-access latency spikes."""
        return cls(
            [
                FaultRule(
                    kind="latency",
                    extra_seconds=extra_seconds,
                    probability=probability,
                    every=every,
                    device=device,
                    count=count,
                )
            ],
            seed=seed,
        )

    # -- arming --------------------------------------------------------

    def arm(self) -> None:
        """Start counting accesses and firing rules."""
        self.armed = True

    def disarm(self) -> None:
        """Stop counting and firing (e.g. while recovery runs)."""
        self.armed = False

    # -- evaluation ----------------------------------------------------

    def note_access(self, device: str, op: str) -> list[FaultRule]:
        """Count one device access and return the rules that fire on it."""
        if not self.armed:
            return []
        self.access_count += 1
        fired: list[FaultRule] = []
        for rule in self.rules:
            if rule.exhausted() or not rule.matches(device, op):
                continue
            hot = (
                (rule.at_access is not None and rule.at_access == self.access_count)
                or (rule.every is not None and self.access_count % rule.every == 0)
                or (rule.probability > 0.0 and self._rng.random() < rule.probability)
            )
            if hot:
                rule.fired += 1
                self.fired_by_kind[rule.kind] = (
                    self.fired_by_kind.get(rule.kind, 0) + 1
                )
                fired.append(rule)
        return fired

    def __repr__(self) -> str:
        return (
            f"FaultPlan(rules={len(self.rules)}, seed={self.seed}, "
            f"armed={self.armed}, accesses={self.access_count})"
        )
