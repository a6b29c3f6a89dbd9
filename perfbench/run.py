"""echosim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: paper_batch, large_mixture,
placement_graph (see perfbench/workloads.py for why each).  Every pass runs
in a fresh single-threaded Python process (perfbench/worker.py); passes
repeat until S seconds are used, at least two of them.  Every pass also
times its own set-up.

wall_s is the sum over the workload's operations (one lap each, e.g. one
config or one graph analysis) of the operation's fastest time over the
run's passes.  The host this was written on flips between speed regimes
that last about a minute, and the median pass follows the regime; the
fastest lap of each operation follows the program.  setup_s is the median
set-up over passes.  Both, and trace.overhead_s, are then scaled to the
reference host's speed by a fixed kernel timed in this process before
every pass and after the last (perfbench/calibrate.py); the per-layer
metrics are medians over traced passes, unscaled, with the kernel's
fastest lap as host.calib_ms.

With --trace 0 the metrics are the end-to-end ones, timed with no spans:
wall_s, setup_s, agent_steps_per_s, peak_rss_mb and ok_frac.  With
--trace 1, untraced and traced passes alternate and the metrics are the
per-layer ones from the traced passes, plus trace.overhead_s (traced minus
untraced wall_s) and the placement tie probe's failures.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exits 2 without a result when the checkout lacks echosim's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
from tracer import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_batch", "large_mixture", "placement_graph")
REQUIRED = ("src/echosim/__init__.py", "experiments", "results")
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "agent_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    **LAYER_UNITS,
    "trace.overhead_s": "s",
    "placement.tie_probe_failed": "count",
    "host.calib_ms": "ms",
}


def child(workload: str, seed: int, mode: str) -> dict | None:
    """Run one worker process to completion; None if it failed."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode} pass timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload} {mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    modes = ("run", "trace") if trace else ("run",)
    passes: dict = {m: [] for m in modes}
    crashed = 0
    host = Calibration()
    start = perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            host.sample()
            report = child(workload, seed, mode)
            if report is None:
                crashed += 1
            else:
                passes[mode].append(report)
        rounds += 1
        elapsed = perf_counter() - start
        if crashed >= MIN_PASSES:
            break
        # start another round only if one of average length still fits
        if rounds * len(modes) >= MIN_PASSES and elapsed * (rounds + 1) / rounds > seconds:
            break
    host.sample()
    probe = child(workload, seed, "probe") if trace else None
    if trace and probe is None:
        raise SystemExit(f"{workload}: the tie probe did not complete")
    return {"passes": passes, "crashed": crashed, "probe": probe, "host": host}


def fastest(passes: list) -> float:
    """Sum over operations of each operation's fastest lap over the passes."""
    return sum(min(r["laps"][op] for r in passes) for op in passes[0]["laps"])


def summarise(workload: str, m: dict, trace: bool) -> dict:
    runs = m["passes"]["run"]
    traced = m["passes"].get("trace", [])
    done = runs + traced
    if not runs or (trace and not traced):
        raise SystemExit(f"{workload}: no pass completed")
    # one message per failed operation; a pass that did not complete is one
    # operation, and so is the check that all passes gave the same outputs
    failures = [f for r in done for f in r["failures"]]
    failures += ["a pass did not complete"] * m["crashed"]
    if len({r["digest"] for r in done}) != 1:
        failures.append("passes of the same seed gave different outputs")
    attempted = sum(r["attempted"] for r in done) + m["crashed"] + 1
    notes = []
    host = m["host"].factor()
    wall = host * fastest(runs)
    if trace:
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = host * fastest(traced) - wall
        metrics["host.calib_ms"] = 1000 * m["host"].fastest()
        probe = m["probe"]["tie_probe"]
        metrics["placement.tie_probe_failed"] = probe["failed"]
        notes = [f"tie probe, known defect: {e}" for e in probe["errors"]]
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": host * statistics.median(r["setup_s"] for r in done),
            "agent_steps_per_s": statistics.median(r["agent_steps"] for r in runs) / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "ok_frac": (attempted - len(failures)) / attempted,
        }
    return {
        "attempted": attempted,
        "failed": len(failures),
        "messages": failures + notes,
        "metrics": metrics,
        "passes": (
            f"{len(runs)} untraced and {len(traced)} traced passes; untraced wall "
            f"median {statistics.median(r['wall_s'] for r in runs):.4g} s, fastest laps {fastest(runs):.4g} s; "
            f"host factor {host:.4g}"
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"not an echosim checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        s = summarise(args.workload, measure(args.workload, args.seed, args.seconds, bool(args.trace)), bool(args.trace))
    finally:
        work = ROOT / ".perfbench_work"
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {s['passes']}; "
        f"failed_frac {s['failed'] / s['attempted']:.4g} ({s['failed']} of {s['attempted']} operations)"
    )
    for message in s["messages"]:
        print(f"  {message}")
    for name, value in s["metrics"].items():
        print(f"  {name:32s} {value:.6g} {UNITS[name]}")
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in s["metrics"].items()}
    print(json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
