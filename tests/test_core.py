"""Unit and golden tests for the opinion-core module."""

import dataclasses
import re

import numpy as np
import pytest

import oracles
from echosim import (
    DynamicsConfig,
    Mindedness,
    MixtureSpec,
    PlacementConfig,
    Population,
    Rule,
    build_graph,
    classify_all,
    clipped_normal_mixture,
    count_clusters,
    read_population_csv,
    run_with_placement,
    simulate,
    transform,
    write_population_csv,
    write_trajectory_csv,
)
from echosim import core
from echosim.core import _step_arrays, _windows

TEN = [0.1, 0.2, 0.4, 0.4, 0.5, 0.7, 0.7, 0.8, 0.8, 1.0]
ONE = {"opinions": [0.5], "epsilons": [0.1]}

# nine-agent two-class instance: five open (eps 0.44), four close (eps 0.031)
NINE_X0 = [0.3, 0.35, 0.38, 0.45, 0.55, 0.58, 0.67, 0.7, 0.8]
NINE_EPS = [0.44, 0.031, 0.031, 0.44, 0.44, 0.031, 0.031, 0.44, 0.44]
NINE_T1 = [
    0.4975, 0.365, 0.365, 0.5311111111111111, 0.5311111111111111,
    0.565, 0.685, 0.5311111111111111, 0.59,
]
NINE_T2 = [
    0.5178703703703703, 0.365, 0.365, 0.5178703703703703, 0.5178703703703703,
    0.5774999999999999, 0.685, 0.5178703703703703, 0.5178703703703703,
]


def ten_agent_pop(eps=0.25):
    return Population.from_arrays(TEN, [eps] * len(TEN))


def one_step(pop, rule=Rule.HK, w_own=0.6):
    """The package's update step, as the first step of a run."""
    return simulate(pop, DynamicsConfig(rule=rule, w_own=w_own, max_steps=1)).trajectory[1]


def neighbors(pop, i):
    return set(build_graph(pop).neighbors(i).tolist())


class TestClassify:
    def test_bands(self):
        eps = [0.01, 0.169999, 0.17, 0.2, 0.22, 0.220001, 0.45, 1.0]
        # closed band edges: 0.17 and 0.22 are moderate
        want = ["close", "close", "moderate", "moderate", "moderate", "open", "open", "open"]
        assert classify_all(eps).tolist() == want

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            classify_all([-0.1])

    def test_non_finite_epsilon_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                classify_all(bad)
            with pytest.raises(ValueError):
                classify_all([0.2, bad])

    def test_vectorised_matches_scalar(self):
        eps = [0.0, 0.01, 0.169999, 0.17, 0.2, 0.22, 0.220001, 0.45, 1.0]
        labels = classify_all(eps)
        assert labels.tolist() == [str(classify_all(e)) for e in eps]
        # label arrays compare against members by value
        assert (labels == Mindedness.OPEN).tolist() == [e > 0.22 for e in eps]


class TestAgent:
    def test_mindedness_derived(self):
        pop = Population.from_arrays([0.5], [0.45])
        assert pop.mindedness[0] == Mindedness.OPEN
        assert not pop.injected[0]

    def test_opinion_bounds_enforced(self):
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                Population.from_arrays([bad], [0.1])


class TestPopulation:
    def test_unique_ids_required(self):
        with pytest.raises(ValueError):
            Population([0.1, 0.2], [0.1, 0.1], ids=[0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="population must contain at least one agent"):
            Population([], [])

    @pytest.mark.parametrize(
        "opinions, epsilons, message",
        [
            ([[0.1, 0.2]], [[0.1, 0.1]], "opinions must be a 1-D array, got shape (1, 2)"),
            (0.5, 0.1, "opinions must be a 1-D array, got shape ()"),
            ([0.1, 0.2], [[0.1, 0.1]], "epsilons must be a 1-D array, got shape (1, 2)"),
        ],
    )
    def test_shape_named(self, opinions, epsilons, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Population(opinions, epsilons)

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"ids": [0.5, 1.7]}, "ids must be int64 integers, got 0.5"),
            ({"ids": [True, False]}, "ids must be int64 integers, got True"),
            ({"ids": [1, 2**70]}, f"ids must be int64 integers, got {2**70}"),
            ({"injected": [2, 0]}, "injected must be booleans, got 2"),
            ({"injected": [True, 1]}, "injected must be booleans, got 1"),
            ({"opinions": [True, 0.5]}, "opinions must be numbers, got True"),
            ({"opinions": [0.5, np.True_]}, "opinions must be numbers, got True"),
            ({"opinions": np.array([True, False])}, "opinions must be numbers, got True"),
            ({"opinions": ["0.5", "0.6"]}, "opinions must be numbers, got '0.5'"),
            ({"epsilons": [0.1, True]}, "epsilons must be numbers, got True"),
            ({"epsilons": ["0.1", "0.2"]}, "epsilons must be numbers, got '0.1'"),
            # numpy reads these as uint64, which an int64 cast would wrap
            ({"ids": [2**64 - 1], **ONE}, f"ids must be int64 integers, got {2**64 - 1}"),
            ({"ids": np.array([2**64 - 1], dtype=np.uint64), **ONE}, f"ids must be int64 integers, got {2**64 - 1}"),
            ({"ids": [2**63], **ONE}, f"ids must be int64 integers, got {2**63}"),
            # and these as float64: the value named is the list's own
            ({"ids": [0, 2**64 - 1]}, f"ids must be int64 integers, got {2**64 - 1}"),
            ({"ids": [0, 0.5]}, "ids must be int64 integers, got 0.5"),
            ({"opinions": [0.5, "0.6"]}, "opinions must be numbers, got '0.6'"),
        ],
    )
    def test_column_of_the_wrong_kind_rejected(self, columns, message):
        # a wrong kind is named, not cast: ids [0.5, 1.7] are not [0, 1]
        with pytest.raises(ValueError, match=re.escape(message)):
            Population(**{"opinions": [0.3, 0.5], "epsilons": [0.1, 0.2], **columns})

    def test_unsigned_ids_taken_by_value(self):
        assert Population([0.5], [0.1], ids=np.array([3], dtype=np.uint8)).ids.tolist() == [3]

    def test_fields_are_the_four_input_columns(self):
        assert [f.name for f in dataclasses.fields(Population)] == ["opinions", "epsilons", "injected", "ids"]
        pop = ten_agent_pop()
        assert set(vars(pop)) == {"opinions", "epsilons", "injected", "ids"}
        assert pop.injected.dtype == bool and pop.ids.dtype == np.int64

    def test_mindedness_derived_on_every_roster(self):
        mixture = clipped_normal_mixture(
            MixtureSpec(n=60, fractions={Mindedness.CLOSE: 0.5, Mindedness.OPEN: 0.5}, rng_seed=3)
        )
        converted = transform(mixture, Mindedness.CLOSE, 0.5)
        result, events = run_with_placement(mixture, DynamicsConfig(), PlacementConfig(budget=6))
        assert events and result.agents.injected.any()
        reread = read_population_csv(write_population_csv(result.agents))
        for pop in (mixture, converted, result.agents, reread):
            assert np.array_equal(pop.mindedness, classify_all(pop.epsilons))
        assert set(converted.mindedness.tolist()) == {"close", "moderate", "open"}

    def test_arrays_match_agents(self):
        pop = ten_agent_pop()
        assert pop.n == 10
        assert np.array_equal(pop.opinions, np.array(TEN))
        assert np.all(pop.epsilons == 0.25)
        assert pop.ids.tolist() == list(range(10))
        assert not pop.injected.any()

    def test_non_finite_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative, got nan"):
            Population.from_arrays([0.5], [float("nan")])
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative, got -0.1"):
            Population.from_arrays([0.5, 0.6], [0.2, -0.1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Population.from_arrays([0.1, 0.2], [0.1])

    def test_arrays_read_only_and_copied(self):
        x = np.array([0.1, 0.2])
        pop = Population.from_arrays(x, [0.1, 0.1])
        x[0] = 0.9
        assert pop.opinions[0] == 0.1
        with pytest.raises(ValueError):
            pop.opinions[0] = 0.5

    def test_extended_appends_injected(self):
        pop = Population.from_arrays([0.1, 0.2], [0.01, 0.45]).extended([0.5, 0.6], 0.2)
        assert pop.ids.tolist() == [0, 1, 2, 3]
        assert pop.injected.tolist() == [False, False, True, True]
        assert pop.mindedness.tolist() == ["close", "open", "moderate", "moderate"]

    def test_extended_ids_follow_the_largest_id(self):
        pop = Population([0.1, 0.2, 0.3, 0.4], [0.1] * 4, ids=[0, 2, 5, 7])
        assert pop.extended([0.5, 0.6], 0.2).ids.tolist() == [0, 2, 5, 7, 8, 9]


class TestNeighborhood:
    def test_ten_agent_example(self):
        # fifth agent (index 4), eps 0.25: everyone in [0.25, 0.75]
        assert neighbors(ten_agent_pop(), 4) == {2, 3, 4, 5, 6}

    def test_zero_epsilon_self_only(self):
        pop = Population.from_arrays([0.1, 0.3, 0.9], [0.0] * 3)
        assert neighbors(pop, 1) == {1}

    def test_full_epsilon_everyone(self):
        pop = Population.from_arrays([0.0, 0.4, 1.0], [1.0] * 3)
        assert neighbors(pop, 0) == {0, 1, 2}


class TestStepGoldens:
    def test_hk_fifth_agent(self):
        assert abs(one_step(ten_agent_pop())[4] - 0.54) <= 1e-12

    def test_hk_mod_fifth_agent(self):
        assert abs(one_step(ten_agent_pop(), Rule.HK_MOD, 0.6)[4] - 0.52) <= 1e-12

    def test_three_agent_exact(self):
        pop = Population.from_arrays([0.0, 0.5, 1.0], [0.5] * 3)
        assert np.array_equal(one_step(pop), np.array([0.25, 0.5, 0.75]))

    def test_matches_naive_oracle(self):
        pop = ten_agent_pop()
        got = one_step(pop)
        want = oracles.step_hk(TEN, [0.25] * 10)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_hk_mod_matches_naive_oracle(self):
        pop = ten_agent_pop()
        got = one_step(pop, Rule.HK_MOD, 0.75)
        want = oracles.step_hk_mod(TEN, [0.25] * 10, 0.75)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_isolated_agent_unchanged_under_mod(self):
        pop = Population.from_arrays([0.0, 1.0], [0.1, 0.1])
        assert np.array_equal(one_step(pop, Rule.HK_MOD, 0.9), np.array([0.0, 1.0]))

    def test_clip_keeps_a_negative_zero_opinion(self):
        # -0.0 is a valid opinion that the trajectory CSV writes as -0.0;
        # np.minimum(np.maximum(out, 0.0), 1.0) would turn it into +0.0
        got = _step_arrays(np.array([-0.0, 0.5, 0.9]), np.full(3, 0.01), Rule.HK_MOD)
        assert got[0] == 0.0 and np.signbit(got[0])


class TestNineAgentGolden:
    def test_published_profiles(self):
        pop = Population.from_arrays(NINE_X0, NINE_EPS)
        r = simulate(pop, DynamicsConfig(max_steps=100))
        assert np.max(np.abs(r.trajectory[1] - np.array(NINE_T1))) <= 1e-12
        assert np.max(np.abs(r.trajectory[2] - np.array(NINE_T2))) <= 1e-12

    def test_terminal_structure(self):
        # the open bloc collapses to one value by t=2; the three close
        # positions freeze; four clusters at equilibrium
        pop = Population.from_arrays(NINE_X0, NINE_EPS)
        r = simulate(pop, DynamicsConfig(max_steps=100))
        assert r.converged and r.t_eqm == 18
        assert r.c_eqm == 4
        final = r.trajectory[-1]
        opens = [final[i] for i in (0, 3, 4, 7, 8)]
        assert max(opens) - min(opens) <= 1e-12
        assert final[1] == final[2] == 0.365
        assert abs(final[5] - 0.5775) <= 1e-12
        assert final[6] == 0.685


class TestDynamicsConfig:
    def test_defaults(self):
        cfg = DynamicsConfig()
        assert cfg.rule is Rule.HK
        assert cfg.delta == 1e-6
        assert cfg.max_steps == 1000
        assert cfg.cluster_tol == 1e-3

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            DynamicsConfig(delta=0.0)
        with pytest.raises(ValueError):
            DynamicsConfig(delta=-1e-6)

    def test_configured_w_own_range(self):
        with pytest.raises(ValueError):
            DynamicsConfig(rule=Rule.HK_MOD, w_own=0.5)
        DynamicsConfig(rule=Rule.HK_MOD, w_own=0.51)
        # plain rule does not read w_own, so no constraint applies
        DynamicsConfig(rule=Rule.HK, w_own=0.5)

    def test_rule_from_string(self):
        assert DynamicsConfig(rule="hk_mod", w_own=0.7).rule is Rule.HK_MOD


def window_builds(result, injection_steps) -> int:
    """The windows a run builds: one at t = 0, one at each later step whose
    fresh windows differ from the step before's, and one more at each
    injection step, for the extended profile.  Step t's profile before its
    injection is trajectory[t] cut to the agents of step t - 1."""
    eps, trajectory = result.agents.epsilons, result.trajectory
    builds = 1 + len(injection_steps)
    for prev, x in zip(trajectory, trajectory[1:-1]):
        x = x[: len(prev)]
        fresh = zip(_windows(prev, eps[: len(prev)]), _windows(x, eps[: len(x)]))
        builds += not all(np.array_equal(a, b) for a, b in fresh)
    return builds


class TestSimulate:
    def test_consensus_is_immediate_equilibrium(self):
        pop = Population.from_arrays([0.4, 0.4, 0.4], [0.2] * 3)
        r = simulate(pop)
        assert r.t_eqm == 0 and r.converged
        assert r.c_eqm == 1
        assert len(r.trajectory) == 2

    def test_three_agent_equilibrium_time(self):
        pop = Population.from_arrays([0.0, 0.5, 1.0], [0.5] * 3)
        r = simulate(pop)
        _, want = oracles.simulate([0.0, 0.5, 1.0], [0.5] * 3)
        assert r.t_eqm == want == 2

    def test_trajectory_length_converged(self):
        pop = Population.from_arrays([0.0, 0.5, 1.0], [0.5] * 3)
        r = simulate(pop)
        assert len(r.trajectory) == r.t_eqm + 2

    def test_trajectory_length_capped(self):
        # a slow chain does not settle within two steps
        pop = Population.from_arrays(np.linspace(0, 1, 30), [0.2] * 30)
        cfg = DynamicsConfig(max_steps=2)
        r = simulate(pop, cfg)
        assert not r.converged and r.t_eqm is None
        assert len(r.trajectory) == cfg.max_steps + 1
        assert r.c_eqm == count_clusters(r.trajectory[-1], cfg.cluster_tol)

    def test_quiet_profile_stays_quiet(self):
        pop = Population.from_arrays([0.1, 0.9], [0.2, 0.2])
        r = simulate(pop)
        assert r.t_eqm == 0
        assert r.c_eqm == 2

    def test_matches_oracle_trajectory(self):
        x = [0.05, 0.2, 0.5, 0.62, 0.9]
        eps = [0.1, 0.3, 0.15, 0.3, 0.25]
        r = simulate(Population.from_arrays(x, eps), DynamicsConfig(max_steps=50))
        traj, t_eqm = oracles.simulate(x, eps, max_steps=50)
        assert r.t_eqm == t_eqm
        assert len(r.trajectory) == len(traj)
        for got, want in zip(r.trajectory, traj):
            assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_mod_rule_matches_oracle_trajectory(self):
        x = [0.05, 0.2, 0.5, 0.62, 0.9]
        eps = [0.1, 0.3, 0.15, 0.3, 0.25]
        cfg = DynamicsConfig(rule=Rule.HK_MOD, w_own=0.75, max_steps=80)
        r = simulate(Population.from_arrays(x, eps), cfg)
        traj, t_eqm = oracles.simulate(x, eps, max_steps=80, rule="mod", w_own=0.75)
        assert r.t_eqm == t_eqm
        for got, want in zip(r.trajectory, traj):
            assert np.max(np.abs(got - np.array(want))) <= 1e-9

    def test_intervene_none_is_plain_run(self):
        pop = Population.from_arrays(np.linspace(0, 1, 30), [0.2] * 30)
        plain = simulate(pop)
        seen = []
        r = simulate(pop, intervene=lambda t, x, eps, windows: seen.append(t))
        assert seen == list(range(r.t_eqm + 1))
        assert r.t_eqm == plain.t_eqm and r.agents is pop
        for a, b in zip(r.trajectory, plain.trajectory):
            assert np.array_equal(a, b)

    def test_intervene_appends_agents_before_step(self):
        pop = Population.from_arrays([0.0, 0.5, 1.0], [0.5] * 3)
        r = simulate(pop, intervene=lambda t, x, eps, windows: ([0.2], 0.5) if t == 1 else None)
        assert [len(p) for p in r.trajectory] == [3] + [4] * (len(r.trajectory) - 1)
        assert r.trajectory[1][3] == 0.2
        # the step after the injection runs on windows of the extended profile
        assert np.array_equal(r.trajectory[2], _step_arrays(r.trajectory[1], r.agents.epsilons))
        assert r.converged and r.t_eqm > 1
        assert r.agents.ids.tolist() == [0, 1, 2, 3]
        assert r.agents.injected.tolist() == [False, False, False, True]
        assert r.agents.epsilons.tolist() == [0.5, 0.5, 0.5, 0.5]

    def test_intervene_gets_the_windows_of_its_profile(self):
        pop = Population.from_arrays(np.linspace(0, 1, 30), np.linspace(0.05, 0.3, 30))
        calls = []

        def intervene(t, x, eps, windows):
            calls.append(t)
            fresh = _windows(x, eps)
            assert all(np.array_equal(a, b) for a, b in zip(windows, fresh))
            return ([0.5, 0.5], 0.2) if t in (0, 2) else None

        r = simulate(pop, intervene=intervene)
        assert calls == list(range(r.t_eqm + 1)) and r.agents.n == 34

    def test_one_window_build_per_step(self, monkeypatch):
        # at most one: a step keeps the last step's windows while they hold
        calls = []
        monkeypatch.setattr(core, "_windows", lambda x, eps: calls.append(len(x)) or _windows(x, eps))
        r = simulate(Population.from_arrays(np.linspace(0, 1, 30), [0.2] * 30))
        builds = window_builds(r, set())
        assert calls == [30] * builds and builds < len(r.trajectory) - 1


class TestClusters:
    def test_published_terminal_profile(self):
        profile = [0.365, 0.365, 0.49813, 0.49813, 0.49813, 0.49813, 0.49813, 0.5775, 0.685]
        assert count_clusters(profile, 1e-3) == 4

    def test_chain_merging(self):
        assert count_clusters([0.1, 0.1005, 0.3], 1e-3) == 2

    def test_all_equal(self):
        assert count_clusters([0.7] * 5, 1e-3) == 1

    def test_zero_tol_counts_distinct(self):
        assert count_clusters([0.1, 0.2, 0.2, 0.3], 0.0) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            count_clusters([])

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            count_clusters([0.1], -1.0)

    @pytest.mark.parametrize(
        "profile, tol, message",
        [
            ([0.1, 0.5, 0.9], float("nan"), "tol must be finite"),
            ([0.1, 0.5, 0.9], float("inf"), "tol must be finite"),
            ([0.1, float("nan")], 1e-3, "profile values must be finite"),
            ([[0.1, 0.2], [0.5, 0.9]], 1e-3, "profile must be 1-D"),
        ],
    )
    def test_bad_input_rejected(self, profile, tol, message):
        with pytest.raises(ValueError, match=message):
            count_clusters(profile, tol)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            profile = rng.uniform(0, 1, rng.integers(1, 20))
            assert count_clusters(profile, 0.05) == oracles.count_clusters(list(profile), 0.05)

    def test_labels_partition_left_to_right(self):
        labels = oracles.cluster_labels([0.9, 0.1, 0.11, 0.5], 0.05)
        assert list(labels) == [2, 0, 0, 1]


class TestTrajectoryCsv:
    def test_round_trip_values(self):
        pop = Population.from_arrays([0.0, 0.5, 1.0], [0.5] * 3)
        r = simulate(pop)
        text = write_trajectory_csv(r.trajectory, r.agents)
        lines = text.strip().split("\n")
        assert lines[0] == "t,agent_id,opinion,epsilon,mindedness,injected"
        assert len(lines) == 1 + 3 * len(r.trajectory)
        t, agent_id, opinion, eps, minded, injected = lines[1].split(",")
        assert (t, agent_id, minded, injected) == ("0", "0", "open", "false")
        assert float(opinion) == 0.0 and float(eps) == 0.5
        # repr floats reread exactly
        row = lines[1 + 3].split(",")
        assert float(row[2]) == r.trajectory[1][0]

    @staticmethod
    def plain(result):
        a = result.agents
        return oracles.trajectory_csv(result.trajectory, a.ids.tolist(), a.epsilons.tolist(), a.injected.tolist())

    def test_signed_zeros_and_ties_match_a_plain_row_writer(self):
        # -0.0 and 0.0 side by side at t = 0, then tied clusters
        pop = Population.from_arrays(
            [-0.0, 0.0, 0.3, -0.0, 0.5, 0.5, 1.0, 0.9], [0.0, 0.05, 0.1, 0.0, 0.0, 0.2, 0.05, 0.3]
        )
        r = simulate(pop)
        text = write_trajectory_csv(r.trajectory, r.agents)
        assert text.startswith("t,agent_id,opinion,epsilon,mindedness,injected\n0,0,-0.0,0.0,close,false\n0,1,0.0,")
        assert text == self.plain(r)
        # fewer distinct values than rows, both zeros each step
        profile = np.array([0.25, -0.0, 0.25, 0.0, -0.0, 0.1 + 0.2, 0.3])
        agents = Population.from_arrays(profile, [0.1] * 7)
        want = oracles.trajectory_csv([profile, -profile], list(range(7)), [0.1] * 7, [False] * 7)
        assert write_trajectory_csv([profile, -profile], agents) == want

    def test_a_roster_grown_mid_run_matches_a_plain_row_writer(self):
        pop = clipped_normal_mixture(MixtureSpec(n=20, fractions={"close": 0.5, "open": 0.5}, rng_seed=5))
        r, events = run_with_placement(pop, DynamicsConfig(), PlacementConfig(budget=20, epsilon_new=0.45))
        assert max(ev.time for ev in events) > 0 and len(r.trajectory[0]) < len(r.trajectory[-1])
        assert write_trajectory_csv(r.trajectory, r.agents) == self.plain(r)
