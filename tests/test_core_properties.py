"""Property tests for the dynamics invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from echosim import (
    DynamicsConfig,
    Population,
    Rule,
    build_graph,
    simulate,
)
from echosim.core import _step_arrays

opinions = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=25
)
epsilons = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=25
)


@st.composite
def populations(draw):
    x = draw(opinions)
    eps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(x),
            max_size=len(x),
        )
    )
    return Population.from_arrays(x, eps)


def one_step(pop, rule=Rule.HK, w_own=0.6):
    """The package's update step, as the first step of a run."""
    return simulate(pop, DynamicsConfig(rule=rule, w_own=w_own, max_steps=1)).trajectory[1]


def neighbors(pop, i):
    return set(build_graph(pop).neighbors(i).tolist())


@given(populations())
def test_profiles_stay_bounded(pop):
    x1 = one_step(pop)
    assert np.all(x1 >= 0.0) and np.all(x1 <= 1.0)


@given(populations(), st.floats(min_value=0.51, max_value=1.0))
def test_profiles_stay_bounded_mod(pop, w):
    x1 = one_step(pop, Rule.HK_MOD, w)
    assert np.all(x1 >= 0.0) and np.all(x1 <= 1.0)


@given(populations())
def test_convex_hull_shrinks(pop):
    # averaging can never move past the current extremes
    x1 = one_step(pop)
    assert x1.min() >= pop.opinions.min() - 1e-12
    assert x1.max() <= pop.opinions.max() + 1e-12


@given(populations())
def test_self_membership(pop):
    for i in range(pop.n):
        assert i in neighbors(pop, i)


@given(opinions, st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5))
def test_neighborhoods_monotone_in_epsilon(x, e_small, e_extra):
    # growing the interval can only add neighbors
    small = Population.from_arrays(x, [e_small] * len(x))
    large = Population.from_arrays(x, [e_small + e_extra] * len(x))
    for i in range(len(x)):
        assert neighbors(small, i) <= neighbors(large, i)


@given(opinions)
def test_homogeneous_order_preserved(x):
    pop = Population.from_arrays(x, [0.3] * len(x))
    before = np.argsort(pop.opinions, kind="stable")
    after = one_step(pop)
    assert np.all(np.diff(after[before]) >= -1e-12)


@given(populations())
def test_mod_rule_equivalence_at_inverse_size(pop):
    # per-agent w_own = 1/|N_i| collapses the weighted rule onto the plain one
    x, eps = list(pop.opinions), list(pop.epsilons)
    sizes = np.array([len(oracles.neighbors(x, eps, i)) for i in range(pop.n)], dtype=float)
    w = 1.0 / sizes
    a = one_step(pop)
    b = _step_arrays(pop.opinions, pop.epsilons, Rule.HK_MOD, w)
    assert np.max(np.abs(a - b)) <= 1e-12


@given(populations())
def test_w_own_one_freezes_profile(pop):
    assert np.array_equal(one_step(pop, Rule.HK_MOD, 1.0), pop.opinions)


@given(populations())
def test_step_matches_oracle(pop):
    got = one_step(pop)
    want = oracles.step_hk(list(pop.opinions), list(pop.epsilons))
    assert np.max(np.abs(got - np.array(want))) <= 1e-12


@given(populations())
def test_deterministic_rerun(pop):
    r1 = simulate(pop, DynamicsConfig(max_steps=30))
    r2 = simulate(pop, DynamicsConfig(max_steps=30))
    assert r1.t_eqm == r2.t_eqm and r1.c_eqm == r2.c_eqm
    for a, b in zip(r1.trajectory, r2.trajectory):
        assert np.array_equal(a, b)


@given(populations())
@settings(max_examples=50)
def test_t_eqm_is_minimal(pop):
    # no earlier step satisfies the quiet condition
    cfg = DynamicsConfig(max_steps=60)
    r = simulate(pop, cfg)
    if not r.converged:
        return
    for t in range(r.t_eqm):
        moved = np.max(np.abs(r.trajectory[t + 1] - r.trajectory[t]))
        assert moved > cfg.delta
    final_move = np.max(np.abs(r.trajectory[r.t_eqm + 1] - r.trajectory[r.t_eqm]))
    assert final_move <= cfg.delta


@given(populations())
@settings(max_examples=50)
def test_trajectory_length_invariant(pop):
    cfg = DynamicsConfig(max_steps=40)
    r = simulate(pop, cfg)
    if r.converged:
        assert len(r.trajectory) == r.t_eqm + 2
    else:
        assert len(r.trajectory) == cfg.max_steps + 1


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=20))
def test_consensus_is_fixpoint(value, n):
    # the mean of n equal doubles can drift by one ulp, so the fixpoint
    # holds to delta, not bitwise
    pop = Population.from_arrays([value] * n, [0.3] * n)
    r = simulate(pop)
    assert r.t_eqm == 0
    assert np.max(np.abs(r.trajectory[1] - pop.opinions)) <= 1e-15


@given(populations(), st.floats(min_value=0.51, max_value=1.0))
def test_mod_step_matches_oracle(pop, w):
    # single-step comparison: multi-step cross-implementation checks
    # could flip a boundary inclusion on a 1-ulp summation difference
    got = one_step(pop, Rule.HK_MOD, w)
    want = oracles.step_hk_mod(list(pop.opinions), list(pop.epsilons), w)
    assert np.max(np.abs(got - np.array(want))) <= 1e-12
