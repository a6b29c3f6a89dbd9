"""Experiment harness: parameter sweeps, aggregation, serialization.

A sweep walks a grid of points (epsilon values, conversion fractions
or budget fractions, by kind) crossed with population sizes and run
seeds.  Each cell lists its runs, one executor runs each distinct run
of the whole sweep once (an intelligent placement that the sweep's
largest-budget intelligent run already answers is that run), and every
run gets one flat record.  Per-point means are aggregated separately.
Sweeps are deterministic in their spec.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace
from enum import Enum
from operator import attrgetter

import numpy as np

from .core import (
    MODERATE_EPSILON,
    DynamicsConfig,
    Mindedness,
    Population,
    csv_text,
    require_finite,
    require_int,
    require_member,
    simulate,
    write_trajectory_csv,
)
from .placement import PlacementConfig, Strategy, budget_spent, run_with_placement, write_events_csv
from .popgen import MixtureSpec, clipped_normal_mixture, evenly_spaced, round_half_up, transform


class SweepKind(str, Enum):
    EPSILON_SWEEP = "epsilon_sweep"
    TRANSFORM_SWEEP = "transform_sweep"
    PLACEMENT_COMPARE = "placement_compare"
    TRAJECTORY_DUMP = "trajectory_dump"


# The keys each sweep kind reads besides kind and dynamics, which every
# kind reads: those it needs (present, and nonempty if a list), then
# those with a default it may take.  The CLI rejects any other key;
# SweepSpec ignores a field its kind does not list.
SWEEP_KEYS = {
    SweepKind.EPSILON_SWEEP: (("grid", "population_sizes"), ("runs",)),
    SweepKind.TRANSFORM_SWEEP: (
        ("grid", "population_sizes", "base_mixture", "transform_from"),
        ("runs", "epsilon_new"),
    ),
    SweepKind.PLACEMENT_COMPARE: (("grid", "population_sizes", "base_mixture"), ("runs", "epsilon_new")),
    SweepKind.TRAJECTORY_DUMP: (("base_mixture",), ("placement",)),
}


@dataclass
class SweepSpec:
    """Grid semantics by kind: epsilon values for epsilon_sweep,
    conversion fractions for transform_sweep, budget fractions of n for
    placement_compare, whose runs place epsilon_new agents.
    trajectory_dump runs its base mixture once, at base_mixture.n.  A
    kind that reads both base_mixture and population_sizes builds the
    mixture at each size, and base_mixture.n must be one of them."""

    kind: SweepKind
    grid: list = field(default_factory=list)
    population_sizes: list = field(default_factory=list)
    base_mixture: MixtureSpec | None = None
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    placement: PlacementConfig | None = None
    runs: int = 5
    transform_from: Mindedness | None = None
    epsilon_new: float = MODERATE_EPSILON

    def __post_init__(self) -> None:
        self.kind = require_member("kind", self.kind, SweepKind)
        require_int("runs", self.runs, least=1)
        require_finite("epsilon_new", self.epsilon_new, least=0)
        # a conversion fraction is at most 1; an evenly spaced layout needs 2 agents
        top = 1.0 if self.kind is SweepKind.TRANSFORM_SWEEP else np.inf
        smallest = 2 if self.kind is SweepKind.EPSILON_SWEEP else 1
        for name, require, bounds in ("grid", require_finite, (0, top)), ("population_sizes", require_int, (smallest,)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            for k, value in enumerate(values):
                require(name, value, *bounds)
                if value in values[:k]:
                    raise ValueError(f"{name} must not repeat {value!r}")
        if self.transform_from is not None:
            self.transform_from = require_member("transform_from", self.transform_from, Mindedness)
        needs = SWEEP_KEYS[self.kind][0]
        for name in needs:
            if getattr(self, name) in (None, [], ()):
                raise ValueError(f"{self.kind.value} needs {name}, got {getattr(self, name)!r}")
        base, sizes = self.base_mixture, self.population_sizes
        if {"base_mixture", "population_sizes"} <= {*needs} and base.n not in sizes:
            raise ValueError(f"base_mixture.n {base.n} is not one of population_sizes {sizes}")
        if self.kind is SweepKind.PLACEMENT_COMPARE and float(max(self.grid)) * max(sizes) + 0.5 >= 2**63:
            raise ValueError(f"grid {max(self.grid)!r} gives a budget past int64 at population size {max(sizes)}")


@dataclass
class SweepRecord:
    kind: SweepKind
    point: float
    n: int
    seed: int
    strategy: Strategy | None
    budget_spent: int | None
    t_eqm: int
    converged: bool
    c_eqm: int


def _outcome(result, events, dyn: DynamicsConfig) -> tuple:
    """A run's (budget_spent, t_eqm, converged, c_eqm) as sweep.csv
    reports it, and summary.csv the last three: a run that did not settle
    reports t_eqm = max_steps."""
    return budget_spent(events), result.t_eqm if result.converged else dyn.max_steps, result.converged, result.c_eqm


def _execute(runs, dyn: DynamicsConfig, emit=_outcome):
    """emit(result, events, dyn) of each (population, placement or None)
    run, in order, with events [] without a placement.  Each distinct
    (population, effective placement) runs once and its emit repeats.
    Two rules make distinct configs one run:
    - budget 0 is exactly a plain simulate, so it keys as no placement;
    - an intelligent placement whose budget B is at least S, the spend
      of the largest-budget intelligent run on the same population and
      epsilon_new, is that run.  At every step the smaller run has at
      most the larger's budget left, so it refuses every batch the
      larger refuses, and at least what the larger still spends, so it
      can pay for every batch the larger takes; each step takes a prefix
      of the same offers, so both take the same batches.
    The largest run is itself one of runs, so no run is added; it runs
    when the first placement of its group asks for S.  simulate and
    run_with_placement are the module globals at run time."""
    runs = [((pop.opinions.tobytes(), pop.epsilons.tobytes()), pop, place) for pop, place in runs]
    largest = {}
    for same, _, place in runs:
        if place and place.strategy is Strategy.INTELLIGENT:
            group = same, place.epsilon_new
            if group not in largest or place.budget > largest[group].budget:
                largest[group] = place
    memo = {}

    def run(same, pop, place):
        # emit's value and the run's spend
        key = same, astuple(place) if place and place.budget else None
        if key not in memo:
            result, events = run_with_placement(pop, dyn, place) if place else (simulate(pop, dyn), [])
            memo[key] = emit(result, events, dyn), budget_spent(events)
        return memo[key]

    for same, pop, place in runs:
        if place and place.budget and place.strategy is Strategy.INTELLIGENT:
            top = largest[same, place.epsilon_new]
            if place.budget >= run(same, pop, top)[1]:
                place = top
        yield run(same, pop, place)[0]


# Cell functions: the runs of one (population size, grid point) cell, in
# run order, as (seed, strategy, population, placement or None).  They run
# nothing: run_sweep lists every cell's runs, then runs each distinct run
# of the sweep once.  base is the base mixture at size n, or None for a
# kind that does not read it.


def run_epsilon_sweep(spec: SweepSpec, n: int, eps: float, base) -> list:
    """Homogeneous evenly spaced population, the same under every seed."""
    pop = evenly_spaced(n, eps)
    return [(seed, None, pop, None) for seed in range(spec.runs)]


def run_transform_sweep(spec: SweepSpec, n: int, frac: float, base) -> list:
    """Per-run transform seeds pick which agents of the fixed base
    mixture convert."""
    convert = (spec.transform_from, frac, spec.epsilon_new)
    return [(seed, None, transform(base, *convert, rng_seed=seed), None) for seed in range(spec.runs)]


def run_placement_compare(spec: SweepSpec, n: int, b: float, base) -> list:
    """Intelligent once, under the mixture's seed (it draws nothing), then
    random over `runs` placement seeds, on the same base mixture; budget =
    round_half_up(b * n)."""
    budget = round_half_up(float(b) * n)
    runs = [(Strategy.INTELLIGENT, spec.base_mixture.rng_seed)]
    runs += [(Strategy.RANDOM_AT_START, seed) for seed in range(spec.runs)]
    return [(seed, s, base, PlacementConfig(budget, spec.epsilon_new, s, seed)) for s, seed in runs]


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Every (population size, grid point) cell in order, with the base
    mixture built once per size, every size before the first cell, for
    the kinds that read it; one record per run of the cell, with
    budget_spent for a placement run.  Every cell's runs are listed
    before any runs, and one _execute runs them all."""
    # looked up per call, so a caller that rebinds a cell function sees it
    cell = {
        SweepKind.EPSILON_SWEEP: run_epsilon_sweep,
        SweepKind.TRANSFORM_SWEEP: run_transform_sweep,
        SweepKind.PLACEMENT_COMPARE: run_placement_compare,
    }.get(spec.kind)
    if cell is None:
        raise ValueError(f"{spec.kind.value} emits trajectories, not sweep records")
    reads_base = "base_mixture" in SWEEP_KEYS[spec.kind][0]
    bases = {n: clipped_normal_mixture(replace(spec.base_mixture, n=n)) for n in spec.population_sizes if reads_base}
    cells = [(n, point) for n in spec.population_sizes for point in spec.grid]
    runs = [(n, point, *run) for n, point in cells for run in cell(spec, n, point, bases.get(n))]
    outcomes = _execute([run[4:] for run in runs], spec.dynamics)
    return [
        SweepRecord(spec.kind, float(point), n, seed, strategy, place and spent, *rest)
        for (n, point, seed, strategy, _, place), (spent, *rest) in zip(runs, outcomes)
    ]


def run_population(pop: Population, dyn: DynamicsConfig, place: PlacementConfig | None = None) -> dict:
    """Run pop, with placement when place is given, and return its CSV
    payloads keyed by filename: trajectory.csv and summary.csv, plus
    events.csv with placement.  The summary is one n,t_eqm,converged,c_eqm
    row; n counts the injected agents too."""
    [(result, events, _)] = _execute([(pop, place)], dyn, lambda *run: run)
    files = {"events.csv": write_events_csv(events)} if place else {}
    summary = csv_text(("n", "t_eqm", "converged", "c_eqm"), [(result.agents.n, *_outcome(result, events, dyn)[1:])])
    return {"trajectory.csv": write_trajectory_csv(result.trajectory, result.agents), "summary.csv": summary, **files}


def dump_trajectories(spec: SweepSpec) -> dict:
    """trajectory_dump kind: run_population's files (trajectory, summary,
    and events when the spec has a placement) for the base mixture."""
    return run_population(clipped_normal_mixture(spec.base_mixture), spec.dynamics, spec.placement)


def write_sweep_csv(records: list[SweepRecord]) -> str:
    names = [f.name for f in fields(SweepRecord)]
    return csv_text(names, map(attrgetter(*names), records))


_MEANS_COLUMNS = ("kind", "point", "n", "strategy", "runs", "mean_t_eqm", "mean_c_eqm")


def aggregate_means(records: list[SweepRecord]) -> list[dict]:
    """Mean t_eqm and c_eqm per (kind, point, n, strategy) across seeds,
    in first-seen order.  Non-converged runs enter at the cap value.
    Each row maps the means.csv columns to the group's key (strategy is
    None outside placement sweeps), its run count and the two means."""
    groups: dict = {}
    for r in records:
        key = (r.kind, r.point, r.n, r.strategy)
        groups.setdefault(key, []).append(r)
    rows = []
    for key, rs in groups.items():
        means = float(np.mean([r.t_eqm for r in rs])), float(np.mean([r.c_eqm for r in rs]))
        rows.append(dict(zip(_MEANS_COLUMNS, (*key, len(rs), *means))))
    return rows


def write_means_csv(rows: list[dict]) -> str:
    return csv_text(_MEANS_COLUMNS, ([r[c] for c in _MEANS_COLUMNS] for r in rows))
