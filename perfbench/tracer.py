"""Spans and counts around echosim's public functions, recorded from outside.

The program is not edited: each traced function is replaced, in every
echosim module namespace that holds it, by a wrapper that records a span
(name, start, end, parent) in memory and updates the layer's counters.
Modules import each other's functions by name (``from .core import
simulate``), so the wrapper must be installed under the name each caller
imported, e.g. ``echosim.harness.simulate`` and ``echosim.placement.pulls_all``.

A layer metric whose name ends in ``_s`` is self time: the span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("core", "popgen", "graph", "placement", "harness", "cli")

# Functions whose returned results are counted as dynamics runs for the
# end-to-end agent_steps_per_s; only the outermost of nested calls counts.
DYNAMICS = ("core.simulate", "placement.run_with_placement")

# Self-time metric -> the functions whose spans it sums.  Every function
# named here is wrapped in a traced run.
SELF_TIME = {
    "core.simulate_s": ["core.simulate"],
    "core.traj_csv_s": ["core.write_trajectory_csv"],
    "popgen.build_s": ["popgen.clipped_normal_mixture", "popgen.evenly_spaced", "popgen.transform"],
    "graph.build_s": ["graph.build_graph", "graph.build_graph_arrays"],
    "graph.degrees_s": ["graph.in_degrees", "graph.out_degrees"],
    "graph.pulls_s": ["graph.pulls_all"],
    "graph.scc_s": ["graph.strongly_connected_components"],
    "graph.pendant_s": ["graph.pendant_in_vertices"],
    "graph.export_s": ["graph.export_graph"],
    "placement.run_s": ["placement.run_with_placement"],
    "placement.scan_s": ["placement.find_converging_pairs"],
    "placement.inject_s": ["placement.compute_injection"],
    "placement.events_csv_s": ["placement.write_events_csv"],
    "harness.sweep_s": [
        "harness.run_sweep",
        "harness.run_epsilon_sweep",
        "harness.run_transform_sweep",
        "harness.run_placement_compare",
        "harness.dump_trajectories",
    ],
    "harness.csv_s": ["harness.write_sweep_csv", "harness.write_means_csv", "harness.aggregate_means"],
    "cli.dispatch_s": ["cli.dispatch"],
}

# Call-count metric -> the functions whose spans it counts.
CALLS = {
    "core.simulate_calls": ["core.simulate"],
    "popgen.calls": SELF_TIME["popgen.build_s"],
    "graph.build_calls": ["graph.build_graph_arrays"],
    "placement.scans": ["placement.find_converging_pairs"],
    "cli.configs": ["cli.dispatch"],
}


def agent_steps(result) -> int:
    """Agents updated over a run: sum over steps t of n_t.  The trajectory
    holds one profile per step plus the final one."""
    return sum(len(p) for p in result.trajectory[:-1])


def _count_simulate(c, args, kwargs, result):
    c["core.steps"] += len(result.trajectory) - 1
    c["core.agent_steps"] += agent_steps(result)


def _count_placement(c, args, kwargs, result):
    place = args[2] if len(args) > 2 else kwargs["place"]
    c["placement.budget"] += place.budget
    c["placement.budget_spent"] += sum(ev.count for ev in result[1])


def _count_dispatch(c, args, kwargs, result):
    out = Path(args[0].out)
    if out.is_dir():
        c["cli.bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# Metrics read straight from the counters below.
COUNTED = (
    "core.steps",
    "core.agent_steps",
    "core.traj_csv_rows",
    "popgen.agents",
    "graph.edges",
    "graph.export_mb",
    "placement.pairs_found",
    "placement.budget_spent",
    "harness.records",
    "cli.bytes_written",
)

# Function -> counter updated from its arguments and result after the span ends.
COUNTERS = {
    "core.simulate": _count_simulate,
    "core.write_trajectory_csv": lambda c, a, k, r: c.update({"core.traj_csv_rows": r.count("\n") - 1}),
    "popgen.clipped_normal_mixture": lambda c, a, k, r: c.update({"popgen.agents": r.n}),
    "popgen.evenly_spaced": lambda c, a, k, r: c.update({"popgen.agents": r.n}),
    "popgen.transform": lambda c, a, k, r: c.update({"popgen.agents": r.n}),
    "graph.build_graph_arrays": lambda c, a, k, r: c.update(
        {"graph.edges": sum(len(nb) for nb in r.out_neighbors)}
    ),
    "graph.export_graph": lambda c, a, k, r: c.update({"graph.export_mb": len(r.encode()) / 1e6}),
    "placement.run_with_placement": _count_placement,
    "placement.find_converging_pairs": lambda c, a, k, r: c.update({"placement.pairs_found": len(r)}),
    "harness.run_sweep": lambda c, a, k, r: c.update({"harness.records": len(r)}),
    "cli.dispatch": _count_dispatch,
}

# Every per-layer metric a traced run reports, with its unit.
UNITS = {
    "core.simulate_s": "s",
    "core.simulate_calls": "count",
    "core.steps": "count",
    "core.agent_steps": "count",
    "core.step_ms": "ms",
    "core.traj_csv_s": "s",
    "core.traj_csv_rows": "count",
    "popgen.build_s": "s",
    "popgen.calls": "count",
    "popgen.agents": "count",
    "graph.build_s": "s",
    "graph.build_calls": "count",
    "graph.edges": "count",
    "graph.degrees_s": "s",
    "graph.pulls_s": "s",
    "graph.scc_s": "s",
    "graph.pendant_s": "s",
    "graph.export_s": "s",
    "graph.export_mb": "MB",
    "placement.run_s": "s",
    "placement.scan_s": "s",
    "placement.scans": "count",
    "placement.pairs_found": "count",
    "placement.inject_s": "s",
    "placement.budget_spent": "count",
    "placement.budget_used_frac": "ratio",
    "placement.events_csv_s": "s",
    "harness.sweep_s": "s",
    "harness.records": "count",
    "harness.csv_s": "s",
    "cli.dispatch_s": "s",
    "cli.configs": "count",
    "cli.bytes_written": "bytes",
}


class Tracer:
    """Wraps echosim's public functions.  With spans=False only the
    dynamics entry points are wrapped, to count agent steps for the
    end-to-end throughput; no span is recorded."""

    def __init__(self, spans: bool):
        self.record = spans
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self.dynamics_steps = 0
        self._dynamics_depth = 0

    def install(self, echosim) -> None:
        modules = [echosim] + [getattr(echosim, m) for m in LAYERS]
        names = sorted({f for fs in SELF_TIME.values() for f in fs}) if self.record else DYNAMICS
        for qualname in names:
            layer, attr = qualname.split(".")
            original = getattr(getattr(echosim, layer), attr)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name) if self.record else None
        dynamics = name in DYNAMICS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._dynamics_depth += dynamics
            if self.record:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, self.open[-1] if self.open else -1])
                self.open.append(idx)
                start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if self.record:
                    end = perf_counter()
                    self.open.pop()
                    self.spans[idx][1] = start
                    self.spans[idx][2] = end
                self._dynamics_depth -= dynamics
            if dynamics and self._dynamics_depth == 0:
                run = result[0] if isinstance(result, tuple) else result
                self.dynamics_steps += agent_steps(run)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            self_time[name] += end - start - child
            calls[name] += 1
        out = {m: sum(self_time[f] for f in fs) for m, fs in SELF_TIME.items()}
        out.update({m: sum(calls[f] for f in fs) for m, fs in CALLS.items()})
        out.update({m: self.counts[m] for m in COUNTED})
        steps = self.counts["core.steps"]
        out["core.step_ms"] = 1000.0 * out["core.simulate_s"] / steps if steps else 0.0
        budget = self.counts["placement.budget"]
        out["placement.budget_used_frac"] = out["placement.budget_spent"] / budget if budget else 0.0
        return {m: out[m] for m in UNITS}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")
