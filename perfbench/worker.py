"""One pass of one workload in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is ``run`` (set-up, the timed run with no spans, then the checks),
``trace`` (as run, with spans around echosim's public functions) or
``probe`` (the placement tie probe only).  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started, in MB.

    ru_maxrss would do on its own, but Linux carries the parent's peak
    across fork and exec into it, and the parent holds numpy and the
    calibration kernel's arrays; VmHWM belongs to this process's memory
    map alone."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "probe"), required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    t0 = perf_counter()
    import echosim

    import workloads
    from tracer import Tracer

    imported = perf_counter() - t0
    if args.mode == "probe":
        print(json.dumps({"tie_probe": workloads.tie_probe()}))
        return

    tracer = Tracer(spans=args.mode == "trace")
    tracer.install(echosim)
    workload = workloads.WORKLOADS[args.workload]
    t1 = perf_counter()
    inputs = workload.setup(args.seed)
    report = {"setup_s": imported + perf_counter() - t1}

    try:
        laps = {}
        last = start = perf_counter()

        def lap(name):
            nonlocal last
            now = perf_counter()
            laps[name] = now - last
            last = now

        outputs = workload.run(inputs, lap)
        report["wall_s"] = perf_counter() - start
        report["laps"] = laps
        report["peak_rss_mb"] = peak_rss_mb()
        report["agent_steps"] = tracer.dynamics_steps
        if tracer.record:
            report["layers"] = tracer.layer_metrics()
            tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json")
        ref = json.loads(REFERENCE.read_text()).get(args.workload)
        report["attempted"], report["failures"] = workload.check(inputs, outputs, ref)
        report["digest"] = workload.digest(inputs, outputs)
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup(inputs)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
