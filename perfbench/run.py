"""The engine benchmark: one command, four workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics over repetitions, each on a
fresh engine with its own inputs derived from the seed (observability
off, no wrappers).
``--trace 1`` runs repetition 0 untraced and then traced, reports the
per-layer metrics, and requires the traced run to reproduce the
untraced run's virtual-time metrics and contents digest exactly.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

#: end-to-end metrics (trace 0): name -> unit
END_TO_END = {
    "sim_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virt_ops_per_s": "1/s",
    "virt_write_p50_ms": "ms",
    "virt_write_p999_ms": "ms",
    "virt_read_p50_ms": "ms",
    "virt_read_p99_ms": "ms",
    "write_amp": "ratio",
    "space_amp": "ratio",
}

#: per-layer metrics (trace 1): name -> unit
PER_LAYER = {
    "core.tree.put_self_us": "us",
    "core.tree.get_self_us": "us",
    "core.tree.scan_self_us": "us",
    "core.scheduler.on_write_self_us": "us",
    "core.scheduler.stalls": "count",
    "core.scheduler.stall_virt_s": "s",
    "core.merge.step_self_us": "us",
    "core.merge.c0c1_bytes": "bytes",
    "core.merge.c1c2_bytes": "bytes",
    "core.merge.passes": "count",
    "core.merge.c1c2_passes": "count",
    "core.merge.bg_virt_s": "s",
    "core.versions.snapshot_calls": "count",
    "core.versions.snapshot_self_us": "us",
    "memtable.put_self_us": "us",
    "memtable.get_self_us": "us",
    "memtable.iter_self_us": "us",
    "memtable.rotations": "count",
    "bloom.add_calls": "count",
    "bloom.add_self_us": "us",
    "bloom.probe_calls": "count",
    "bloom.probe_self_us": "us",
    "bloom.fp_rate": "ratio",
    "sstable.get_self_us": "us",
    "sstable.scan_self_us": "us",
    "sstable.build_self_us": "us",
    "sstable.pages_per_get": "pages",
    "storage.buffer.hit_rate": "ratio",
    "storage.buffer.evictions": "count",
    "storage.buffer.get_self_us": "us",
    "storage.pagefile.pages_read": "count",
    "storage.pagefile.pages_written": "count",
    "storage.pagefile.io_self_us": "us",
    "storage.logical_log.forces": "count",
    "storage.logical_log.bytes": "bytes",
    "storage.logical_log.log_self_us": "us",
    "storage.wal.manifest_commits": "count",
    "storage.wal.bytes_per_manifest": "bytes",
    "storage.wal.append_self_us": "us",
    "storage.group_commit.forces_per_commit": "ratio",
    "storage.group_commit.mean_group_size": "count",
    "storage.group_commit.queue_p99_ms": "ms",
    "storage.group_commit.commit_self_us": "us",
    "sim.disk.seeks_per_read": "count",
    "sim.disk.data_bytes_read": "bytes",
    "sim.disk.data_bytes_written": "bytes",
    "sim.disk.log_bytes_written": "bytes",
    "sim.disk.fg_busy_s": "s",
    "sim.disk.bg_busy_s": "s",
    "sim.disk.fg_wait_s": "s",
    "sim.disk.utilization": "ratio",
    "sim.disk.access_self_us": "us",
    "trace.bench_self_us": "us",
    "trace.traced_us_per_op": "us",
    "trace.untraced_us_per_op": "us",
    "trace.attributed_frac": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

#: span buckets each workload is predicted to exercise (traced-run check)
EXERCISED = {
    "ingest": (
        "core.tree.put", "core.tree.get", "core.scheduler.on_write",
        "core.merge.step", "memtable.put", "memtable.get", "bloom.add",
        "sstable.build", "storage.pagefile.io", "storage.logical_log.log",
        "storage.wal.append", "sim.disk.access",
    ),
    "read-uniform": (
        "core.tree.get", "core.tree.put", "core.scheduler.on_write",
        "memtable.get", "bloom.probe", "sstable.get", "storage.buffer.get",
        "storage.pagefile.io", "sim.disk.access",
    ),
    "scan-rmw-zipf": (
        "core.tree.get", "core.tree.put", "core.tree.scan",
        "core.versions.snapshot", "memtable.put", "memtable.get",
        "bloom.probe", "sstable.get", "sstable.scan", "storage.buffer.get",
        "storage.pagefile.io", "sim.disk.access",
    ),
    "sessions-group": (
        "core.tree.get", "core.tree.put", "storage.group_commit.commit",
        "storage.logical_log.log", "memtable.get", "bloom.probe",
        "sstable.get", "storage.buffer.get", "sim.disk.access",
    ),
}

#: planted regressions for the self-check (perfbench/selfcheck.py)
PLANTS = {
    "bloom": ("repro.bloom.filter", "BloomFilter", "__contains__"),
    "snapshot": ("repro.core.tree", "BLSM", "snapshot"),
}


def ms(seconds: float) -> float:
    return seconds * 1e3


def on_device_bytes(run: wl.Run) -> int:
    return sum(size for name, size in run.components.items() if name != "c0")


def group_size(run: wl.Run) -> float:
    """Mean commit-group size: tickets per group."""
    groups = sum(1.0 / size for size in run.group_sizes)
    return len(run.group_sizes) / groups if groups else 0.0


def virtual_metrics(runs: list[wl.Run]) -> dict[str, float]:
    """The deterministic (virtual-time and byte-count) end-to-end metrics,
    pooled over repetitions: latency samples are concatenated and ratios
    are ratios of sums."""
    writes = [x for run in runs for x in run.write_lat]
    reads = [x for run in runs for x in run.read_lat]
    return {
        "virt_ops_per_s": sum(r.ops for r in runs) / sum(r.service_s for r in runs),
        "virt_write_p50_ms": ms(wl.percentile(writes, 50)),
        "virt_write_p999_ms": ms(wl.percentile(writes, 99.9)),
        "virt_read_p50_ms": ms(wl.percentile(reads, 50)),
        "virt_read_p99_ms": ms(wl.percentile(reads, 99)),
        "write_amp": sum(r.data_written + r.log_written for r in runs)
        / sum(r.user_bytes_written for r in runs),
        "space_amp": sum(on_device_bytes(r) for r in runs)
        / sum(r.live_bytes for r in runs),
    }


def regimes(workload: wl.Workload, run: wl.Run) -> list[tuple[str, float, str, bool]]:
    """(check, measured, required, holds) for one repetition."""
    need = workload.regime
    lookups = run.get_hits + run.get_misses
    hit_rate = run.get_hits / lookups if lookups else 0.0
    seeks = run.read_seeks / run.reads if run.reads else 0.0
    pool = wl.engine_config(workload).cache_pages * wl.PAGE_BYTES
    checks = (
        ("min_data_ram", "data:RAM", run.data_ram, lambda v, b: v >= b, ">="),
        ("min_c2_bytes", "C2 bytes (a C1->C2 merge completed)", run.components.get("c2", 0), lambda v, b: v >= b, ">="),
        ("min_seeks_per_read", "seeks per read", seeks, lambda v, b: v >= b, ">="),
        ("max_hit_rate", "point-read buffer hit rate", hit_rate, lambda v, b: v <= b, "<="),
        ("min_hit_rate", "point-read buffer hit rate", hit_rate, lambda v, b: v >= b, ">="),
        ("max_pool_fill", "on-device bytes / buffer pool bytes", on_device_bytes(run) / pool, lambda v, b: v <= b, "<="),
        ("min_group_size", "mean commit group size", group_size(run), lambda v, b: v > b, ">"),
    )
    return [
        (label, value, f"{op} {need[key]:g}", holds(value, need[key]))
        for key, label, value, holds, op in checks
        if key in need
    ]


def per_layer(run: wl.Run, tracer: layers.Tracer, untraced_us: float) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of the traced run."""
    seconds, spans = tracer.self_seconds()
    count = tracer.counts.get
    n = run.ops
    delta = run.metrics_delta

    def us(bucket: str) -> float:
        return seconds[bucket] * 1e6 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_us = run.wall_s * 1e6 / n
    gets = spans["core.tree.get"]
    reads = gets + spans["core.tree.scan"]
    layer_seconds = sum(v for k, v in seconds.items() if k != "bench.op")
    metrics = {
        "core.tree.put_self_us": us("core.tree.put"),
        "core.tree.get_self_us": us("core.tree.get"),
        "core.tree.scan_self_us": us("core.tree.scan"),
        "core.scheduler.on_write_self_us": us("core.scheduler.on_write"),
        "core.scheduler.stalls": delta["writes.stalls"],
        "core.scheduler.stall_virt_s": delta["writes.stall_seconds"],
        "core.merge.step_self_us": us("core.merge.step"),
        "core.merge.c0c1_bytes": count("merge.c0c1_bytes", 0.0),
        "core.merge.c1c2_bytes": count("merge.c1c2_bytes", 0.0),
        "core.merge.passes": count("merge.c0c1_passes", 0.0) + count("merge.c1c2_passes", 0.0),
        "core.merge.c1c2_passes": count("merge.c1c2_passes", 0.0),
        "core.merge.bg_virt_s": count("merge.virt_s", 0.0),
        "core.versions.snapshot_calls": float(spans["core.versions.snapshot"]),
        "core.versions.snapshot_self_us": us("core.versions.snapshot"),
        "memtable.put_self_us": us("memtable.put"),
        "memtable.get_self_us": us("memtable.get"),
        "memtable.iter_self_us": us("memtable.iter"),
        "memtable.rotations": delta["merge.c0c1.passes"],
        "bloom.add_calls": float(spans["bloom.add"]),
        "bloom.add_self_us": us("bloom.add"),
        "bloom.probe_calls": float(spans["bloom.probe"]),
        "bloom.probe_self_us": us("bloom.probe"),
        "bloom.fp_rate": ratio(count("bloom.false_positives", 0.0), count("bloom.passed", 0.0)),
        "sstable.get_self_us": us("sstable.get"),
        "sstable.scan_self_us": us("sstable.scan"),
        "sstable.build_self_us": us("sstable.build"),
        "sstable.pages_per_get": ratio(count("sstable.get_pages", 0.0), gets),
        "storage.buffer.hit_rate": ratio(
            count("buffer.hits", 0.0), count("buffer.hits", 0.0) + count("buffer.misses", 0.0)
        ),
        "storage.buffer.evictions": delta["buffer.evictions"],
        "storage.buffer.get_self_us": us("storage.buffer.get"),
        "storage.pagefile.pages_read": count("pagefile.pages_read", 0.0),
        "storage.pagefile.pages_written": count("pagefile.pages_written", 0.0),
        "storage.pagefile.io_self_us": us("storage.pagefile.io"),
        "storage.logical_log.forces": count("log.forces", 0.0),
        "storage.logical_log.bytes": count("log.bytes", 0.0),
        "storage.logical_log.log_self_us": us("storage.logical_log.log"),
        "storage.wal.manifest_commits": count("wal.manifest_commits", 0.0),
        "storage.wal.bytes_per_manifest": ratio(
            count("wal.manifest_bytes", 0.0), count("wal.manifest_commits", 0.0)
        ),
        "storage.wal.append_self_us": us("storage.wal.append"),
        "storage.group_commit.forces_per_commit": ratio(delta["commit.forces"], delta["commit.commits"]),
        "storage.group_commit.mean_group_size": group_size(run),
        "storage.group_commit.queue_p99_ms": (
            ms(wl.percentile(run.queue_delays, 99)) if run.queue_delays else 0.0
        ),
        "storage.group_commit.commit_self_us": us("storage.group_commit.commit"),
        "sim.disk.seeks_per_read": ratio(count("disk.read_seeks", 0.0), reads),
        "sim.disk.data_bytes_read": float(run.data_read),
        "sim.disk.data_bytes_written": float(run.data_written),
        "sim.disk.log_bytes_written": float(run.log_written),
        "sim.disk.fg_busy_s": run.fg_busy_s,
        "sim.disk.bg_busy_s": run.bg_busy_s,
        "sim.disk.fg_wait_s": count("disk.fg_wait_s", 0.0),
        "sim.disk.utilization": ratio(run.data_busy_s, run.elapsed_s),
        "sim.disk.access_self_us": us("sim.disk.access"),
        "trace.bench_self_us": us("bench.op"),
        "trace.traced_us_per_op": traced_us,
        "trace.untraced_us_per_op": untraced_us,
        "trace.attributed_frac": layer_seconds / run.wall_s,
        "trace.overhead_ratio": traced_us / untraced_us,
        "trace.spans": float(len(tracer.start)),
    }
    return metrics, spans


def repetition(
    workload: wl.Workload, seed: int, rep: int, tracer: layers.Tracer | None = None
) -> wl.Run:
    """Set up, measure and check one repetition on a fresh engine.

    With a ``tracer``, its wrappers must already be installed (so set-up
    builds the engine through them); they are removed before the
    end-of-run checks, which are not measured.
    """
    gc.collect()
    engine, inputs, oracle, setup_s = wl.setup(workload, seed, rep)
    on_op: Callable[[], Callable[[], None]] | None = None
    if tracer is not None:
        tracer.reset()
        root = layers.BUCKET_ID["bench.op"]

        def on_op() -> Callable[[], None]:
            sid = tracer.open(root)
            return lambda: tracer.close(sid)

    gc.collect()
    run = wl.drive(workload, engine, inputs, oracle, on_op=on_op)
    run.setup_s = setup_s
    if tracer is not None:
        tracer.uninstall()
    wl.finish(workload, engine, run, oracle)
    return run


def measure(workload: wl.Workload, seed: int, seconds: float) -> tuple[list[wl.Run], dict[str, float]]:
    """--trace 0: end-to-end metrics over repetitions."""
    reps = max(1, round(seconds / workload.rep_seconds))
    runs = [repetition(workload, seed, rep) for rep in range(reps)]
    metrics = {
        "sim_ops_per_s": statistics.median(run.ops / run.wall_s for run in runs),
        "setup_s": statistics.median(run.setup_s for run in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **virtual_metrics(runs),
    }
    writes = sum(len(run.write_lat) for run in runs)
    reads = sum(len(run.read_lat) for run in runs)
    waits = sorted(x for run in runs for x in run.waits)
    print(
        f"  repetitions: {reps}, each on its own inputs from the seed; host metrics"
        " are medians over them, virtual metrics pool them"
    )
    print(
        f"  samples: writes n={writes} (p99.9 has {writes * 0.001:.1f} beyond it),"
        f" reads n={reads} (p99 has {reads * 0.01:.1f} beyond it)"
    )
    print(
        f"  wait from issue to start (s): mean {statistics.fmean(waits):.6f}"
        f" p99 {wl.percentile(waits, 99):.6f} max {waits[-1]:.6f}"
    )
    print("  host ops/s per repetition: " + " ".join(f"{run.ops / run.wall_s:.0f}" for run in runs))
    matched = sum(run.digest == run.oracle_digest for run in runs)
    print(f"  contents digest equals the oracle's in {matched} of {reps} repetitions")
    if workload.group_commit:
        lost = sum(run.lost_acked for run in runs)
        print(f"  crash + recover: {lost} acknowledged writes lost over {reps} repetitions")
    return runs, metrics


def trace(workload: wl.Workload, seed: int) -> tuple[list[wl.Run], dict[str, float], list[str]]:
    """--trace 1: per-layer metrics from a traced repetition, checked
    against the same repetition untraced."""
    problems = []
    base = repetition(workload, seed, 0)
    tracer = layers.Tracer()
    tracer.install()
    try:
        run = repetition(workload, seed, 0, tracer)
    finally:
        tracer.uninstall()
    metrics, spans = per_layer(run, tracer, base.wall_s * 1e6 / base.ops)
    same_virtual = virtual_metrics([run]) == virtual_metrics([base])
    if not same_virtual:
        problems.append("traced run's virtual-time metrics differ from the untraced run's")
    if run.digest != base.digest:
        problems.append("traced run's state_digest differs from the untraced run's")
    if metrics["trace.attributed_frac"] < 0.9:
        problems.append(
            f"layers attribute only {metrics['trace.attributed_frac']:.3f} of traced host time (< 0.9)"
        )
    silent = [b for b in EXERCISED[workload.name] if spans[b] == 0]
    if silent:
        problems.append(f"predicted layers recorded no span: {', '.join(silent)}")
    print(
        f"  traced vs untraced: virtual metrics equal={same_virtual},"
        f" digest equal={run.digest == base.digest}"
    )
    print("  spans per bucket: " + ", ".join(f"{b}={spans[b]}" for b in layers.BUCKETS if spans[b]))
    return [base, run], metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=sorted(PLANTS), help="self-check only: spin inside one layer")
    parser.add_argument("--plant-us", type=float, default=20.0)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    if args.plant:
        layers.install_spin(PLANTS[args.plant], args.plant_us)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(
        f"  closed loop, {workload.clients} clients, exponential think time mean"
        f" {workload.think_s * 1e3:g} ms; {workload.preload} records preloaded;"
        f" {workload.ops} measured ops per repetition"
    )
    if args.trace == 0:
        runs, metrics = measure(workload, args.seed, args.seconds)
        problems: list[str] = []
        units = END_TO_END
    else:
        runs, metrics, problems = trace(workload, args.seed)
        units = PER_LAYER
    attempted = sum(run.ops for run in runs)
    failed = sum(run.failed for run in runs)
    print(f"  failed_op_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    for rep, run in enumerate(runs):
        for check, value, need, holds in regimes(workload, run):
            if rep == 0 or not holds:
                print(f"  regime (run {rep}): {check} = {value:.6g} (need {need}) {'ok' if holds else 'FAILED'}")
            if not holds:
                problems.append(f"run {rep} outside its regime: {check} = {value:.6g}, need {need}")
        for error in run.errors[:5]:
            print(f"  error (run {rep}): {error}")

    print("metrics:")
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    if problems:
        # Outside its regime, or with a broken trace, a run measured
        # nothing valid: every op it attempted counts as failed.
        failed = attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
