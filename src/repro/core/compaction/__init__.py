"""The compaction design-space lab: pluggable policies over N levels.

This package generalizes the storage core's on-disk layout away from
the bLSM-specific C0/C1'/C1/C2 slots:

* :mod:`~repro.core.compaction.policy` — the design-space axes as
  strategy objects (``leveled``, ``tiered``, ``lazy-leveled``);
* :mod:`~repro.core.compaction.manager` — the N-level run structure
  with geometric ``base * ratio^level`` sizing;
* :mod:`~repro.core.compaction.merge` — budget-stepped execution of one
  policy-issued merge plan;
* :mod:`~repro.core.compaction.tree` — the policy-parameterized tree
  exposing the same write/read/scheduler/recovery surface as
  :class:`repro.core.tree.BLSM`.

:func:`make_tree` (and :func:`recover_tree`) is the single dispatch
point: ``blsm3`` (the default policy) returns the paper's own tree — or
its range-partitioned variant with ``partitioned=True`` — while every
other policy name returns a :class:`CompactionTree` parameterized by
:func:`make_policy`.  All three share one front end
(:class:`repro.core.frontend.LSMFrontEnd`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Union

from repro.core.compaction.manager import LevelManager
from repro.core.compaction.merge import PolicyMergeJob
from repro.core.compaction.policy import (
    POLICY_NAMES,
    CompactionPolicy,
    LazyLeveledPolicy,
    LeveledPolicy,
    MergePlan,
    TieredPolicy,
    make_policy,
)
from repro.core.compaction.tree import CompactionTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.options import BLSMOptions
    from repro.core.partitioned import PartitionedBLSM
    from repro.core.tree import BLSM
    from repro.storage.stasis import Stasis

__all__ = [
    "CompactionPolicy",
    "CompactionTree",
    "LazyLeveledPolicy",
    "LevelManager",
    "LeveledPolicy",
    "MergePlan",
    "POLICY_NAMES",
    "PolicyMergeJob",
    "TieredPolicy",
    "make_policy",
    "make_tree",
    "recover_tree",
]


def _tree_class(options: "BLSMOptions", partitioned: bool) -> type:
    """The tree class ``options`` (and the partitioning flag) select."""
    if partitioned:
        if options.compaction_policy != "blsm3":
            raise ValueError(
                "range partitioning applies to the blsm3 policy only, "
                f"not {options.compaction_policy!r}"
            )
        from repro.core.partitioned import PartitionedBLSM

        return PartitionedBLSM
    if options.compaction_policy == "blsm3":
        from repro.core.tree import BLSM

        return BLSM
    return CompactionTree


def make_tree(
    options: "BLSMOptions",
    stasis: "Stasis | None" = None,
    *,
    partitioned: bool = False,
    **layout: Any,
) -> "Union[BLSM, PartitionedBLSM, CompactionTree]":
    """Build the tree ``options.compaction_policy`` names.

    ``blsm3`` maps to the paper's own :class:`~repro.core.tree.BLSM`
    (imported lazily to avoid a cycle), or with ``partitioned=True`` to
    the range-partitioned :class:`~repro.core.partitioned.PartitionedBLSM`
    (``layout`` carries its ``max_partition_bytes``); anything else
    builds a :class:`CompactionTree` around the matching policy.
    """
    return _tree_class(options, partitioned)(options, stasis, **layout)


def recover_tree(
    stasis: "Stasis",
    options: "BLSMOptions",
    *,
    partitioned: bool = False,
    **layout: Any,
) -> "Union[BLSM, PartitionedBLSM, CompactionTree]":
    """Recover the tree :func:`make_tree` would build from a crash."""
    return _tree_class(options, partitioned).recover(stasis, options, **layout)
