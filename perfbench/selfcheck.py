"""Planted-regression self-check: does each workload catch its layer?

A CPU spin is planted around one layer's method (``run.py --plant``),
standing in for a slower implementation of that layer:

* a spin around ``BloomFilter.__contains__`` must push ``sim_ops_per_s``
  on ``read-uniform`` past its bound, and leave every end-to-end metric
  of ``ingest`` (whose only Bloom probes come from its 10% reads)
  within its bound;
* a spin around ``BLSM.snapshot`` must flag ``scan-rmw-zipf`` and no
  other workload.

Baseline and planted runs alternate, on seeds the benchmark was not
developed on, and medians are compared against ``BENCHMARK.json``'s
bounds.  Then one more unseen seed runs every workload once to show that
every regime precondition still holds.  Exits non-zero if any
expectation fails.

Usage (from the repository root; about ten minutes)::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

#: seeds the benchmark was not developed on: planted runs, then regimes
SEEDS = (9101, 9102, 9103)
UNSEEN_SEED = 424242
SECONDS = 20

#: (plant, spin µs, workload, must be flagged)
EXPECTATIONS = (
    ("bloom", 20.0, "read-uniform", True),
    ("bloom", 20.0, "ingest", False),
    ("snapshot", 200.0, "scan-rmw-zipf", True),
    ("snapshot", 200.0, "ingest", False),
    ("snapshot", 200.0, "read-uniform", False),
    ("snapshot", 200.0, "sessions-group", False),
)


def bench(workload: str, seed: int, plant: tuple[str, float] | None) -> dict:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    if plant is not None:
        cmd += ["--plant", plant[0], "--plant-us", str(plant[1])]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["regime_lines"] = [line.strip() for line in lines if "regime (run" in line]
    return result


def worse_by(metric: dict, base: float, new: float) -> float:
    """Share by which ``new`` is worse than ``base`` (negative = better)."""
    if metric["better"] == "higher":
        return (base - new) / base
    return (new - base) / base


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    base: dict[str, list[dict]] = {}
    planted: dict[tuple[str, str], list[dict]] = {}
    workloads = sorted({workload for _, _, workload, _ in EXPECTATIONS})
    for seed in SEEDS:
        for workload in workloads:
            base.setdefault(workload, []).append(bench(workload, seed, None))
        for plant, micros, workload, _ in EXPECTATIONS:
            planted.setdefault((plant, workload), []).append(
                bench(workload, seed, (plant, micros))
            )

    ok = True
    print(f"planted regressions, seeds {list(SEEDS)}, medians of {len(SEEDS)} runs each")
    for plant, micros, workload, must_flag in EXPECTATIONS:
        flagged = []
        for name, metric in metrics.items():
            b = statistics.median(r["metrics"][name]["value"] for r in base[workload])
            p = statistics.median(r["metrics"][name]["value"] for r in planted[(plant, workload)])
            share = worse_by(metric, b, p)
            if share > metric["bound"]:
                flagged.append(f"{name} {share:+.1%} (bound {metric['bound']:.0%})")
        ops_b = statistics.median(r["metrics"]["sim_ops_per_s"]["value"] for r in base[workload])
        ops_p = statistics.median(r["metrics"]["sim_ops_per_s"]["value"] for r in planted[(plant, workload)])
        caught = any(f.startswith("sim_ops_per_s") for f in flagged)
        holds = caught if must_flag else not flagged
        ok &= holds
        print(
            f"  {plant:>8} spin {micros:>5.0f} us on {workload:<15} sim_ops_per_s"
            f" {ops_b:9.1f} -> {ops_p:9.1f} ({(ops_p - ops_b) / ops_b:+.1%});"
            f" expected {'flagged' if must_flag else 'within bounds'}:"
            f" {'ok' if holds else 'FAILED'}"
            + (f"; flagged: {', '.join(flagged)}" if flagged else "")
        )
        for run in planted[(plant, workload)]:
            ok &= run["correct"]

    print(f"unseen seed {UNSEEN_SEED}: regime preconditions")
    for workload in ("ingest", "read-uniform", "scan-rmw-zipf", "sessions-group"):
        run = bench(workload, UNSEEN_SEED, None)
        ok &= run["correct"]
        print(f"  {workload}: correct={run['correct']} failed={run['failed']}")
        for line in run["regime_lines"]:
            print(f"    {line}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
