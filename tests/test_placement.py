"""Tests for converging-pair detection and agent injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosim import (
    DynamicsConfig,
    Mindedness,
    MixtureSpec,
    PlacementConfig,
    Population,
    Side,
    Strategy,
    build_graph,
    budget_spent,
    clipped_normal_mixture,
    compute_injection,
    find_converging_pairs,
    pulls_all,
    run_with_placement,
    simulate,
    write_events_csv,
)
from echosim import core, graph
from echosim.graph import build_graph_arrays


def graph_of(x, eps, t=0):
    return build_graph_arrays(x, eps, t)


class TestFindConvergingPairs:
    def test_two_opens_pulled_together(self):
        g = graph_of([0.3, 0.7], [0.45, 0.45])
        assert find_converging_pairs(g) == [(0, 1)]

    def test_four_opens_single_crossing(self):
        # net pull flips between 0.45 and 0.55; the outer pairs fail
        # one member's condition each
        g = graph_of([0.2, 0.45, 0.55, 0.8], [0.45] * 4)
        assert find_converging_pairs(g) == [(1, 2)]

    def test_non_open_agents_never_qualify(self):
        g = graph_of([0.3, 0.7], [0.2, 0.2])
        assert find_converging_pairs(g) == []

    def test_close_agent_between_breaks_adjacency(self):
        # a close agent parked between two opens makes them non-adjacent
        g = graph_of([0.3, 0.5, 0.7], [0.45, 0.01, 0.45])
        assert find_converging_pairs(g) == []

    def test_balanced_pulls_do_not_qualify(self):
        # symmetric profile: the middle agents feel zero net pull
        g = graph_of([0.4, 0.6], [0.05, 0.05])
        assert find_converging_pairs(g) == []

    def test_left_to_right_order(self):
        # two independent converging pairs, far apart
        g = graph_of([0.1, 0.18, 0.82, 0.9], [0.25, 0.25, 0.25, 0.25])
        pairs = find_converging_pairs(g)
        assert pairs == [(0, 1), (2, 3)]

    def test_twin_anchor_is_last_in_roster_order(self):
        # agents 0 and 2 are open twins next to an open agent; the pair
        # and the events name 2 whichever side of the partner the twins
        # are on, not the twin the stable sort puts next to the partner
        assert find_converging_pairs(graph_of([0.3, 0.7, 0.3], [0.45] * 3)) == [(2, 1)]
        assert find_converging_pairs(graph_of([0.7, 0.3, 0.7], [0.45] * 3)) == [(1, 2)]
        pop = Population(np.array([0.7, 0.3, 0.7]), np.full(3, 0.45), ids=[10, 11, 12])
        _, events = run_with_placement(pop, DynamicsConfig(), PlacementConfig(budget=3))
        assert [(ev.time, ev.anchor_agent, ev.side) for ev in events] == [(0, 11, Side.LEFT), (0, 12, Side.RIGHT)]

    def test_tied_opinions_cannot_converge(self):
        # equal opinions produce identical pulls, so one member always
        # fails its strict inequality
        g = graph_of([0.5, 0.5, 0.9], [0.45, 0.45, 0.45])
        assert all(g.opinions[i] != g.opinions[j] for i, j in find_converging_pairs(g))


class TestComputeInjection:
    def test_small_imbalance_one_agent_each(self):
        g = graph_of([0.3, 0.7], [0.45, 0.45])
        left, right = compute_injection(g, (0, 1))
        assert left.count == 1 and right.count == 1
        assert left.side is Side.LEFT and right.side is Side.RIGHT
        assert left.anchor_agent == 0 and right.anchor_agent == 1
        assert left.requested_opinion == pytest.approx(-0.15)
        assert left.opinion == 0.0 and left.clamped
        assert right.requested_opinion == pytest.approx(1.15)
        assert right.opinion == 1.0 and right.clamped

    def test_unclamped_positions(self):
        g = graph_of([0.48, 0.52], [0.45, 0.45])
        left, right = compute_injection(g, (0, 1))
        assert left.opinion == left.requested_opinion == pytest.approx(0.03)
        assert not left.clamped
        assert right.opinion == right.requested_opinion == pytest.approx(0.97)
        assert not right.clamped

    def test_larger_imbalance_needs_more_agents(self):
        # three-vs-three tied blocs: imbalance 0.6, ceil(0.6/0.45) = 2
        g = graph_of([0.4, 0.4, 0.4, 0.6, 0.6, 0.6], [0.45] * 6)
        assert find_converging_pairs(g) == [(2, 5)]
        left, right = compute_injection(g, (2, 5))
        assert left.count == 2 and right.count == 2

    def test_counter_pull_flips_net_direction(self):
        # after injecting the batch, the anchor's net pull points away
        # from the pair (no clamping in this instance)
        x = [0.48, 0.52]
        eps = [0.45, 0.45]
        g = graph_of(x, eps)
        left, right = compute_injection(g, (0, 1))
        x2 = x + [left.opinion] * left.count
        eps2 = eps + [0.2] * left.count
        left, right = pulls_all(graph_of(x2, eps2))
        assert left[0] > right[0]

    def test_non_qualifying_pair_rejected(self):
        g = graph_of([0.4, 0.6], [0.05, 0.05])
        with pytest.raises(ValueError):
            compute_injection(g, (0, 1))

    def test_event_time_is_graph_timestamp(self):
        g = graph_of([0.3, 0.7], [0.45, 0.45], t=5)
        left, right = compute_injection(g, (0, 1))
        assert left.time == 5 and right.time == 5


class TestRunWithPlacement:
    def base(self):
        return Population.from_arrays([0.3, 0.7], [0.45, 0.45])

    def test_budget_zero_identical_to_simulate(self):
        pop = self.base()
        dyn = DynamicsConfig()
        for strategy in (Strategy.INTELLIGENT, Strategy.RANDOM_AT_START):
            result, events = run_with_placement(
                pop, dyn, PlacementConfig(budget=0, strategy=strategy)
            )
            plain = simulate(pop, dyn)
            assert events == []
            assert result.t_eqm == plain.t_eqm and result.c_eqm == plain.c_eqm
            for a, b in zip(result.trajectory, plain.trajectory):
                assert np.array_equal(a, b)

    def test_budget_one_emits_left_then_breaks(self):
        pop = self.base()
        result, events = run_with_placement(
            pop, DynamicsConfig(), PlacementConfig(budget=1)
        )
        assert len(events) == 1
        ev = events[0]
        assert ev.side is Side.LEFT and ev.count == 1 and ev.time == 0
        assert ev.opinion == 0.0 and ev.clamped
        assert budget_spent(events) == 1
        # the left open sees the injected moderate at 0.0 (within 0.45),
        # gets dragged down and eventually everyone merges
        assert result.converged and result.c_eqm == 1
        assert result.agents.injected[-1] and result.agents.epsilons[-1] == 0.2

    def test_both_batches_fit(self):
        pop = self.base()
        result, events = run_with_placement(
            pop, DynamicsConfig(), PlacementConfig(budget=10)
        )
        assert [ev.side for ev in events[:2]] == [Side.LEFT, Side.RIGHT]
        assert budget_spent(events) <= 10
        assert len(result.trajectory[0]) == 2 + events[0].count + events[1].count

    def test_injected_agents_participate_from_injection_step(self):
        pop = self.base()
        result, events = run_with_placement(
            pop, DynamicsConfig(), PlacementConfig(budget=2)
        )
        # t=0 profile already contains the injected agents
        assert len(result.trajectory[0]) == 2 + budget_spent(events)

    def test_ids_fresh_and_sequential(self):
        pop = self.base()
        result, events = run_with_placement(
            pop, DynamicsConfig(), PlacementConfig(budget=4)
        )
        assert result.agents.ids.tolist() == list(range(result.agents.n))
        assert result.agents.injected[2:].all()

    def test_events_name_anchors_by_agent_id(self):
        # the same run with ids 1000 + 3k: an anchor at roster position k
        # is logged as that agent's id, an injected anchor (position 20,
        # the first injected agent) as its fresh id 1058
        pop = clipped_normal_mixture(MixtureSpec(n=20, fractions={"close": 0.5, "open": 0.5}, rng_seed=5))
        relabelled = Population(pop.opinions, pop.epsilons, ids=1000 + 3 * np.arange(pop.n))
        place = PlacementConfig(budget=20, epsilon_new=0.45)
        _, plain = run_with_placement(pop, DynamicsConfig(), place)
        result, events = run_with_placement(relabelled, DynamicsConfig(), place)
        ids = result.agents.ids
        assert 20 in [ev.anchor_agent for ev in plain]
        assert [ev.anchor_agent for ev in events] == [ids[ev.anchor_agent] for ev in plain]
        assert 1058 in [ev.anchor_agent for ev in events]

    def test_original_population_unmutated(self):
        pop = self.base()
        before = pop.opinions.copy()
        run_with_placement(pop, DynamicsConfig(), PlacementConfig(budget=5))
        assert np.array_equal(pop.opinions, before)
        assert pop.n == 2

    def test_deterministic(self):
        pop = self.base()
        r1, e1 = run_with_placement(pop, DynamicsConfig(), PlacementConfig(budget=5))
        r2, e2 = run_with_placement(pop, DynamicsConfig(), PlacementConfig(budget=5))
        assert e1 == e2
        assert r1.t_eqm == r2.t_eqm
        for a, b in zip(r1.trajectory, r2.trajectory):
            assert np.array_equal(a, b)

    def test_trajectory_length_invariant(self):
        pop = self.base()
        dyn = DynamicsConfig(max_steps=50)
        result, _ = run_with_placement(pop, dyn, PlacementConfig(budget=3))
        if result.converged:
            assert len(result.trajectory) == result.t_eqm + 2
        else:
            assert len(result.trajectory) == dyn.max_steps + 1

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_one_window_build_per_step_and_per_injection_step(self, monkeypatch, strategy):
        # the scan's graph reuses the step's windows; only a step that
        # injects builds them again, for the extended profile
        calls = []
        build = core._windows
        for module in (core, graph):
            monkeypatch.setattr(module, "_windows", lambda x, eps: calls.append(len(x)) or build(x, eps))
        pop = clipped_normal_mixture(MixtureSpec(n=200, fractions={"close": 0.5, "open": 0.5}, rng_seed=0))
        result, events = run_with_placement(pop, DynamicsConfig(), PlacementConfig(budget=20, strategy=strategy))
        steps = len(result.trajectory) - 1
        assert events and len(calls) == steps + len({ev.time for ev in events})

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            PlacementConfig(budget=-1)

    def test_epsilon_new_bounds(self):
        with pytest.raises(ValueError):
            PlacementConfig(budget=1, epsilon_new=1.5)

    def test_seed_must_be_integer(self):
        for bad in (True, 1.5):
            with pytest.raises(ValueError, match="rng_seed must be an integer"):
                PlacementConfig(budget=1, rng_seed=bad)


class TestRandomAtStart:
    def pop(self):
        return Population.from_arrays([0.2, 0.5, 0.8], [0.45] * 3)

    def cfg(self, budget=6, seed=0):
        return PlacementConfig(
            budget=budget, strategy=Strategy.RANDOM_AT_START, rng_seed=seed
        )

    def test_all_spent_at_t0_within_support(self):
        result, events = run_with_placement(self.pop(), DynamicsConfig(), self.cfg())
        assert len(events) == 6 and budget_spent(events) == 6
        assert all(ev.time == 0 and ev.count == 1 for ev in events)
        assert all(ev.anchor_agent == -1 and ev.side is None for ev in events)
        assert all(0.2 <= ev.opinion <= 0.8 for ev in events)
        assert len(result.trajectory[0]) == 9

    def test_seeded(self):
        _, e1 = run_with_placement(self.pop(), DynamicsConfig(), self.cfg(seed=3))
        _, e2 = run_with_placement(self.pop(), DynamicsConfig(), self.cfg(seed=3))
        _, e3 = run_with_placement(self.pop(), DynamicsConfig(), self.cfg(seed=4))
        assert e1 == e2
        assert [ev.opinion for ev in e1] != [ev.opinion for ev in e3]

    def test_injected_metadata(self):
        result, _ = run_with_placement(self.pop(), DynamicsConfig(), self.cfg())
        injected = result.agents.epsilons[result.agents.injected]
        assert len(injected) == 6
        assert np.all(injected == 0.2)

    def test_injection_step_is_never_quiet(self):
        # close-minded agents and a close-minded injectee: the t=0 profile
        # is already still, but t=0 is an injection step, as it would be
        # for intelligent placement, so the run settles at t=1
        pop = Population.from_arrays([0.2, 0.5, 0.8], [0.01] * 3)
        cfg = PlacementConfig(budget=1, epsilon_new=0.01, strategy=Strategy.RANDOM_AT_START)
        result, events = run_with_placement(pop, DynamicsConfig(), cfg)
        assert budget_spent(events) == 1 and events[0].time == 0
        assert result.t_eqm == 1 and len(result.trajectory) == 3


class TestEventsCsv:
    def test_schema_and_values(self):
        pop = Population.from_arrays([0.3, 0.7], [0.45, 0.45])
        _, events = run_with_placement(pop, DynamicsConfig(), PlacementConfig(budget=2))
        text = write_events_csv(events)
        lines = text.strip().split("\n")
        assert lines[0] == "time,opinion,requested_opinion,count,anchor_agent,side,clamped"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "0" and row[5] == "left" and row[6] == "true"

    def test_random_events_have_empty_side(self):
        pop = Population.from_arrays([0.3, 0.7], [0.45, 0.45])
        _, events = run_with_placement(
            pop,
            DynamicsConfig(),
            PlacementConfig(budget=2, strategy=Strategy.RANDOM_AT_START),
        )
        lines = write_events_csv(events).strip().split("\n")
        assert lines[1].split(",")[4] == "-1"
        assert lines[1].split(",")[5] == ""


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_evenly_spaced_ties_place_without_error(seed):
    # evenly spaced opinions make many pulls tie exactly; the scan and the
    # injection sizing must judge each pair on the same pull values
    spec = MixtureSpec(
        n=200, fractions={"close": 0.5, "open": 0.5}, opinion_dist="evenly_spaced", rng_seed=seed
    )
    pop = clipped_normal_mixture(spec)
    result, events = run_with_placement(pop, DynamicsConfig(), PlacementConfig(budget=20))
    assert budget_spent(events) <= 20
    assert result.agents.n == pop.n + budget_spent(events)


@st.composite
def placement_instances(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    x = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    eps = draw(
        st.lists(st.sampled_from([0.01, 0.2, 0.3, 0.45, 0.6]), min_size=n, max_size=n)
    )
    budget = draw(st.integers(min_value=0, max_value=8))
    strategy = draw(st.sampled_from([Strategy.INTELLIGENT, Strategy.RANDOM_AT_START]))
    seed = draw(st.integers(min_value=0, max_value=5))
    return Population.from_arrays(x, eps), PlacementConfig(
        budget=budget, strategy=strategy, rng_seed=seed
    )


@given(placement_instances())
@settings(max_examples=60, deadline=None)
def test_budget_conservation(inst):
    pop, cfg = inst
    dyn = DynamicsConfig(max_steps=40)
    result, events = run_with_placement(pop, dyn, cfg)
    assert budget_spent(events) <= cfg.budget
    assert all(ev.count >= 1 for ev in events)
    assert all(0.0 <= ev.opinion <= 1.0 for ev in events)
    for ev in events:
        assert ev.clamped == (not 0.0 <= ev.requested_opinion <= 1.0)
    # roster matches the spend
    assert result.agents.n == pop.n + budget_spent(events)


@given(placement_instances())
@settings(max_examples=40, deadline=None)
def test_qualifying_pairs_all_open(inst):
    pop, _ = inst
    g = build_graph(pop)
    for i, j in find_converging_pairs(g):
        assert pop.mindedness[i] == Mindedness.OPEN
        assert pop.mindedness[j] == Mindedness.OPEN
        assert pop.opinions[i] <= pop.opinions[j]
