"""Tests for sweeps, aggregation and serialization."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from echosim import (
    DynamicsConfig,
    Mindedness,
    MixtureSpec,
    PlacementConfig,
    PlacementEvent,
    Strategy,
    SweepKind,
    SweepRecord,
    SweepSpec,
    aggregate_means,
    budget_spent,
    clipped_normal_mixture,
    dump_trajectories,
    evenly_spaced,
    round_half_up,
    run_sweep,
    run_with_placement,
    simulate,
    transform,
    write_events_csv,
    write_means_csv,
    write_sweep_csv,
)
from echosim import harness

M = Mindedness


def eps_spec(grid=(0.01, 0.3), sizes=(10,), runs=1, **dyn):
    return SweepSpec(
        kind=SweepKind.EPSILON_SWEEP,
        grid=list(grid),
        population_sizes=list(sizes),
        runs=runs,
        dynamics=DynamicsConfig(**dyn),
    )


def transform_spec(grid, n=40, runs=3, seed=0):
    return SweepSpec(
        kind=SweepKind.TRANSFORM_SWEEP,
        grid=list(grid),
        population_sizes=[n],
        runs=runs,
        base_mixture=MixtureSpec(
            n=n, fractions={M.CLOSE: 0.8, M.OPEN: 0.2}, rng_seed=seed
        ),
        transform_from=M.CLOSE,
        epsilon_new=0.2,
    )


class TestEpsilonSweep:
    def test_disconnected_grid_point(self):
        # eps below the spacing: nobody moves, one cluster per agent
        records = run_sweep(eps_spec(grid=[0.01], sizes=[10]))
        assert len(records) == 1
        r = records[0]
        assert r.t_eqm == 0 and r.converged and r.c_eqm == 10

    def test_consensus_point(self):
        records = run_sweep(eps_spec(grid=[0.3], sizes=[100]))
        assert records[0].c_eqm == 1

    def test_runs_are_identical(self):
        records = run_sweep(eps_spec(grid=[0.05, 0.3], sizes=[20], runs=3))
        by_point = {}
        for r in records:
            by_point.setdefault(r.point, []).append((r.t_eqm, r.c_eqm, r.converged))
        for vals in by_point.values():
            assert len(set(vals)) == 1

    def test_record_count(self):
        spec = eps_spec(grid=[0.1, 0.2, 0.3], sizes=[10, 20], runs=4)
        records = run_sweep(spec)
        assert len(records) == 3 * 2 * 4

    def test_non_converged_recorded_at_cap(self):
        spec = eps_spec(grid=[0.2], sizes=[30], max_steps=2)
        r = run_sweep(spec)[0]
        assert not r.converged
        assert r.t_eqm == 2  # cap value, flagged not converged

    def test_validation(self):
        with pytest.raises(ValueError):
            eps_spec(grid=[])
        with pytest.raises(ValueError):
            SweepSpec(
                kind=SweepKind.EPSILON_SWEEP, grid=[0.1], population_sizes=[]
            )
        with pytest.raises(ValueError):
            eps_spec(runs=0)


class TestTransformSweep:
    def test_fraction_zero_matches_baseline(self):
        spec = transform_spec([0.0], n=40, runs=2)
        records = run_sweep(spec)
        base = clipped_normal_mixture(spec.base_mixture)
        plain = simulate(base, spec.dynamics)
        for r in records:
            assert r.t_eqm == plain.t_eqm and r.c_eqm == plain.c_eqm

    def test_base_mixture_fixed_across_runs(self):
        # fraction 1.0 converts every close agent regardless of the
        # transform seed, so all runs coincide
        records = run_sweep(transform_spec([1.0], n=40, runs=3))
        assert len({(r.t_eqm, r.c_eqm) for r in records}) == 1

    def test_record_count_and_seeds(self):
        spec = transform_spec([0.0, 0.5], n=30, runs=3)
        records = run_sweep(spec)
        assert len(records) == 2 * 3
        assert sorted({r.seed for r in records}) == [0, 1, 2]

    def test_identical_populations_run_once(self, monkeypatch):
        # fractions 0 and 1 convert the same agents under every seed; 0.5
        # converts different ones per seed.  Each record is the one a run
        # of its own population gives
        spec = transform_spec([0.0, 0.5, 1.0], n=40, runs=3)
        pops = []
        monkeypatch.setattr(harness, "simulate", lambda pop, dyn: pops.append(pop) or simulate(pop, dyn))
        records = run_sweep(spec)
        assert len(pops) == 1 + 3 + 1
        assert len({p.epsilons.tobytes() for p in pops}) == 5
        base = clipped_normal_mixture(spec.base_mixture)
        for r in records:
            pop = transform(base, M.CLOSE, r.point, 0.2, rng_seed=r.seed)
            alone = simulate(pop, spec.dynamics)
            assert (r.t_eqm, r.c_eqm) == (alone.t_eqm, alone.c_eqm)

    def test_requires_transform_from(self):
        with pytest.raises(ValueError):
            SweepSpec(
                kind=SweepKind.TRANSFORM_SWEEP,
                grid=[0.5],
                population_sizes=[10],
                base_mixture=MixtureSpec(n=10, fractions={M.CLOSE: 1.0}),
            )

    def test_base_mixture_size_must_be_swept(self):
        with pytest.raises(ValueError, match=r"base_mixture.n 40 is not one of population_sizes \[30\]"):
            SweepSpec(
                kind=SweepKind.TRANSFORM_SWEEP,
                grid=[0.5],
                population_sizes=[30],
                base_mixture=MixtureSpec(n=40, fractions={M.CLOSE: 1.0}),
                transform_from=M.CLOSE,
            )

    def test_requires_base_mixture(self):
        with pytest.raises(ValueError):
            SweepSpec(
                kind=SweepKind.TRANSFORM_SWEEP,
                grid=[0.5],
                population_sizes=[10],
                transform_from=M.CLOSE,
            )


class TestPlacementCompare:
    def spec(self, grid=(0.0, 0.1), runs=2, n=30):
        return SweepSpec(
            kind=SweepKind.PLACEMENT_COMPARE,
            grid=list(grid),
            population_sizes=[n],
            runs=runs,
            base_mixture=MixtureSpec(
                n=n, fractions={M.CLOSE: 0.5, M.OPEN: 0.5}, rng_seed=0
            ),
        )

    def test_record_count(self):
        spec = self.spec()
        records = run_sweep(spec)
        assert len(records) == 2 * (2 + 1)

    def test_budget_zero_point_all_equal_baseline(self):
        spec = self.spec(grid=(0.0,), runs=3)
        records = run_sweep(spec)
        base = clipped_normal_mixture(spec.base_mixture)
        plain = simulate(base, spec.dynamics)
        assert len(records) == 4
        for r in records:
            assert r.t_eqm == plain.t_eqm and r.c_eqm == plain.c_eqm
            assert r.budget_spent == 0

    def test_budget_zero_runs_once(self, monkeypatch):
        calls = []
        run = harness.run_with_placement
        monkeypatch.setattr(harness, "run_with_placement", lambda *a: calls.append(a[2].budget) or run(*a))
        records = run_sweep(self.spec(grid=(0.0, 0.1), runs=3))
        assert calls == [0] + [3] * 4
        assert [(r.strategy, r.seed) for r in records[:4]] == [(Strategy.INTELLIGENT, 0)] + [
            (Strategy.RANDOM_AT_START, seed) for seed in range(3)
        ]
        assert len({(r.t_eqm, r.c_eqm, r.budget_spent) for r in records[:4]}) == 1

    def test_strategies_labeled(self):
        records = run_sweep(self.spec(grid=(0.2,), runs=2))
        strategies = [r.strategy for r in records]
        assert strategies.count(Strategy.INTELLIGENT) == 1
        assert strategies.count(Strategy.RANDOM_AT_START) == 2

    def test_random_spends_everything(self):
        records = run_sweep(self.spec(grid=(0.2,), runs=2, n=30))
        for r in records:
            if r.strategy is Strategy.RANDOM_AT_START:
                assert r.budget_spent == 6  # round_half_up(0.2 * 30)

    def test_intelligent_spend_bounded(self):
        for r in run_sweep(self.spec(grid=(0.2,), runs=1, n=30)):
            assert r.budget_spent <= 6

    def test_intelligent_runs_reuse_the_largest_budget_run(self, monkeypatch):
        # n = 60, seed 0: the largest budget, 6, refuses an offer that
        # budget 7 takes and spends S = 4.  Budgets 4 and 5 (at and above S)
        # are that run; budget 3 (below S) runs on its own, and budget 0 is
        # the plain simulate.
        spec = self.spec(grid=(0.0, 3 / 60, 4 / 60, 5 / 60, 0.1), runs=1, n=60)
        base = clipped_normal_mixture(spec.base_mixture)
        spend = [budget_spent(run_with_placement(base, spec.dynamics, PlacementConfig(b))[1]) for b in (6, 7)]
        assert spend == [4, 7]
        calls = []
        run = harness.run_with_placement
        monkeypatch.setattr(
            harness, "run_with_placement", lambda *a: calls.append((a[2].strategy, a[2].budget)) or run(*a)
        )
        records = run_sweep(spec)
        intelligent = [r for r in records if r.strategy is Strategy.INTELLIGENT]
        assert [r.budget_spent for r in intelligent] == [0, 3, 4, 4, 4]
        for r in records:
            pop, place = record_inputs(spec, r)
            alone, events = run(pop, spec.dynamics, place)
            t_eqm = alone.t_eqm if alone.converged else spec.dynamics.max_steps
            assert (r.budget_spent, r.t_eqm, r.converged, r.c_eqm) == (
                budget_spent(events), t_eqm, alone.converged, alone.c_eqm
            )
        assert [b for s, b in calls if s is Strategy.INTELLIGENT] == [0, 6, 3]
        assert [b for s, b in calls if s is Strategy.RANDOM_AT_START] == [3, 4, 5, 6]


class TestCellLoop:
    def test_one_base_mixture_per_size_and_one_call_per_cell(self, monkeypatch):
        # every size's base mixture is built before the first cell
        calls = []
        make_base, cell = harness.clipped_normal_mixture, harness.run_transform_sweep
        monkeypatch.setattr(harness, "clipped_normal_mixture", lambda spec: calls.append(spec.n) or make_base(spec))
        # run_sweep finds its cell functions by module global at call time
        monkeypatch.setattr(harness, "run_transform_sweep", lambda *a: calls.append(a[1:3]) or cell(*a))
        spec = transform_spec([0.0, 0.5], n=20, runs=2)
        spec.population_sizes = [20, 30]
        records = run_sweep(spec)
        assert calls == [20, 30, (20, 0.0), (20, 0.5), (30, 0.0), (30, 0.5)]
        assert [(r.n, r.point, r.seed) for r in records] == [
            (n, p, seed) for n in (20, 30) for p in (0.0, 0.5) for seed in (0, 1)
        ]

    def test_epsilon_sweep_builds_no_base_mixture(self, monkeypatch):
        spec = eps_spec(grid=[0.3], sizes=[10, 20])
        spec.base_mixture = MixtureSpec(n=10, fractions={M.OPEN: 1.0})
        monkeypatch.setattr(harness, "clipped_normal_mixture", None)  # a call would raise
        assert len(run_sweep(spec)) == 2


def placement_spec(grid, sizes, runs):
    return SweepSpec(
        kind=SweepKind.PLACEMENT_COMPARE,
        grid=list(grid),
        population_sizes=list(sizes),
        runs=runs,
        base_mixture=MixtureSpec(n=sizes[0], fractions={M.CLOSE: 0.5, M.OPEN: 0.5}, rng_seed=0),
    )


def record_inputs(spec, r):
    """The population and placement (or None) a record's run stands for,
    rebuilt from the record alone."""
    if spec.kind is SweepKind.EPSILON_SWEEP:
        return evenly_spaced(r.n, r.point), None
    base = clipped_normal_mixture(replace(spec.base_mixture, n=r.n))
    if spec.kind is SweepKind.TRANSFORM_SWEEP:
        return transform(base, spec.transform_from, r.point, spec.epsilon_new, rng_seed=r.seed), None
    return base, PlacementConfig(round_half_up(r.point * r.n), spec.epsilon_new, r.strategy, r.seed)


def run_key(pop, place):
    # budget 0 is exactly a plain simulate, so it is not a distinct run
    effective = (place.budget, place.epsilon_new, place.strategy, place.rng_seed) if place and place.budget else None
    return pop.opinions.tobytes(), pop.epsilons.tobytes(), effective


@pytest.mark.parametrize(
    "spec, runs",
    [
        pytest.param(eps_spec(grid=[0.05, 0.3], sizes=[10, 20], runs=3), 4, id="epsilon_sweep"),
        # fraction 0.01 of 32 close agents converts none, as 0 does, in
        # another cell: the sweep runs that population once
        pytest.param(transform_spec([0.0, 0.01, 0.5, 1.0], n=40, runs=3), 5, id="transform_sweep"),
        # at each size the budget-3 (or 2) intelligent run is the budget-6
        # (or 4) one, which spends less than that
        pytest.param(placement_spec([0.0, 0.1, 0.2], sizes=[30, 20], runs=3), 16, id="placement_compare"),
    ],
)
def test_each_distinct_run_of_a_cell_runs_once(monkeypatch, spec, runs):
    # one executor runs each distinct run of the whole sweep once; an
    # intelligent placement whose budget covers what the sweep's largest
    # intelligent budget on its population spends is that run, which runs
    # when the first such placement asks for its spend
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda pop, dyn: calls.append(run_key(pop, None)) or simulate(pop, dyn))
    monkeypatch.setattr(
        harness,
        "run_with_placement",
        lambda pop, dyn, place: calls.append(run_key(pop, place)) or run_with_placement(pop, dyn, place),
    )
    records = run_sweep(spec)
    expected = []
    for r in records:
        pop, place = record_inputs(spec, r)
        key = run_key(pop, place)
        if place and place.budget and place.strategy is Strategy.INTELLIGENT:
            top = replace(place, budget=round_half_up(max(spec.grid) * r.n))
            if run_key(pop, top) not in expected:
                expected.append(run_key(pop, top))
            if place.budget >= budget_spent(run_with_placement(pop, spec.dynamics, top)[1]):
                key = run_key(pop, top)
        if key not in expected:
            expected.append(key)
        if place is None:
            alone, spent = simulate(pop, spec.dynamics), None
        else:
            alone, events = run_with_placement(pop, spec.dynamics, place)
            spent = budget_spent(events)
        t_eqm = alone.t_eqm if alone.converged else spec.dynamics.max_steps
        assert (r.budget_spent, r.t_eqm, r.converged, r.c_eqm) == (spent, t_eqm, alone.converged, alone.c_eqm)
    assert calls == expected
    assert len(calls) == runs < len(records)


class TestTrajectoryDump:
    def test_plain_dump(self):
        spec = SweepSpec(
            kind=SweepKind.TRAJECTORY_DUMP,
            base_mixture=MixtureSpec(
                n=20, fractions={M.CLOSE: 0.2, M.OPEN: 0.8}, rng_seed=0
            ),
        )
        out = dump_trajectories(spec)
        assert set(out) == {"trajectory.csv", "summary.csv"}
        lines = out["trajectory.csv"].strip().split("\n")
        base = clipped_normal_mixture(spec.base_mixture)
        plain = simulate(base, spec.dynamics)
        assert len(lines) == 1 + 20 * len(plain.trajectory)

    def test_dump_with_placement(self):
        spec = SweepSpec(
            kind=SweepKind.TRAJECTORY_DUMP,
            base_mixture=MixtureSpec(
                n=10, fractions={M.OPEN: 1.0}, rng_seed=1
            ),
            placement=PlacementConfig(budget=5),
        )
        out = dump_trajectories(spec)
        assert set(out) == {"trajectory.csv", "summary.csv", "events.csv"}

    def test_run_sweep_rejects_dump_kind(self):
        spec = SweepSpec(
            kind=SweepKind.TRAJECTORY_DUMP,
            base_mixture=MixtureSpec(n=10, fractions={M.OPEN: 1.0}),
        )
        with pytest.raises(ValueError):
            run_sweep(spec)


class TestSweepCsv:
    def test_header(self):
        text = write_sweep_csv(run_sweep(eps_spec()))
        head = text.splitlines()[0]
        assert head == "kind,point,n,seed,strategy,budget_spent,t_eqm,converged,c_eqm"

    def test_numpy_floats_and_none_cells(self):
        # np.float64 prints as a plain float, None as an empty field
        ev = PlacementEvent(0, np.float64(0.1), np.float64(0.1), 1, -1, None, False)
        assert write_events_csv([ev]).splitlines()[1] == "0,0.1,0.1,1,-1,,false"
        rec = SweepRecord(SweepKind.EPSILON_SWEEP, np.float64(0.1), 10, 0, None, None, 3, True, 1)
        assert write_sweep_csv([rec]).splitlines()[1] == "epsilon_sweep,0.1,10,0,,,3,true,1"


class TestAggregation:
    def test_mean_between_extremes(self):
        records = run_sweep(transform_spec([0.5], n=40, runs=4))
        rows = aggregate_means(records)
        assert len(rows) == 1
        ts = [r.t_eqm for r in records]
        assert min(ts) <= rows[0]["mean_t_eqm"] <= max(ts)
        assert rows[0]["runs"] == 4

    def test_groups_by_point_and_strategy(self):
        spec = SweepSpec(
            kind=SweepKind.PLACEMENT_COMPARE,
            grid=[0.0, 0.2],
            population_sizes=[20],
            runs=2,
            base_mixture=MixtureSpec(
                n=20, fractions={M.CLOSE: 0.5, M.OPEN: 0.5}, rng_seed=0
            ),
        )
        rows = aggregate_means(run_sweep(spec))
        # two points x two strategies
        assert len(rows) == 4

    def test_means_csv_schema(self):
        rows = aggregate_means(run_sweep(eps_spec()))
        text = write_means_csv(rows)
        assert text.splitlines()[0] == "kind,point,n,strategy,runs,mean_t_eqm,mean_c_eqm"
        assert len(text.splitlines()) == 1 + len(rows)


class TestSlowdownCoupling:
    def test_transform_means_negatively_rank_correlated(self):
        # more moderates -> slower convergence and fewer clusters, so
        # per-point mean t_eqm and c_eqm move in opposite directions
        spec = transform_spec([0.0, 0.3, 0.6, 0.9], n=200, runs=2)
        rows = aggregate_means(run_sweep(spec))
        rho = scipy.stats.spearmanr(
            [r["mean_t_eqm"] for r in rows], [r["mean_c_eqm"] for r in rows]
        ).statistic
        assert rho < 0.0
