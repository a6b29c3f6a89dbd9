"""The sorted-window update kernel against the dense n x n kernel it replaced.

The dense kernel is kept here as an oracle.  Its row sums run in index
order, the window sums in sort order, so the two agree bit for bit when
the population is held in opinion order and within rounding otherwise.
"""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from echosim import (
    DynamicsConfig,
    MixtureSpec,
    PlacementConfig,
    Population,
    Rule,
    build_graph,
    clipped_normal_mixture,
    compute_injection,
    evenly_spaced,
    find_converging_pairs,
    pulls_all,
    run_with_placement,
    simulate,
    strongly_connected_components,
)
from echosim import core, placement
from echosim.core import (
    _BLOCK,
    _LEAF,
    _block_mask,
    _edge_margins,
    _settle,
    _step_arrays,
    _window_sums,
    _windows,
    _windows_slack,
)
from echosim.graph import build_graph_arrays

EPS_CHOICES = [0.0, 0.01, 0.05, 0.13, 0.17, 0.2, 0.22, 0.45, 1.0]


def dense_step(x, eps, rule=Rule.HK, w_own=0.6):
    """One step of the n x n 0/1-mask kernel."""
    a = np.abs(x[None, :] - x[:, None]) <= eps[:, None]
    sizes = a.sum(axis=1)
    sums = (a * x[None, :]).sum(axis=1)
    if rule is Rule.HK:
        out = sums / sizes
    else:
        w = np.asarray(w_own, dtype=float)
        others = sizes - 1
        mean_others = np.where(others > 0, (sums - x) / np.maximum(others, 1), x)
        out = w * x + (1.0 - w) * mean_others
    return np.clip(out, 0.0, 1.0)


def dense_pulls(x, eps):
    d = x[None, :] - x[:, None]
    mask = np.abs(d) <= eps[:, None]
    left = np.where(mask & (d < 0.0), -d, 0.0).sum(axis=1)
    right = np.where(mask & (d > 0.0), d, 0.0).sum(axis=1)
    return left, right


def instances(seed, count=60, n_max=700):
    """Opinion profiles with and without ties, sizes across several leaves
    of the pairwise tree (128 and 256 values), mixed and shared epsilons;
    then two mid-run profiles of a three-class mixture, whose merged
    clusters make long runs of equal windows broken by other classes;
    last the benchmark's n = 2000 placement mixture at t = 0, whose tree
    has four levels of internal nodes above the leaves."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, n_max)) if k % 4 else int(rng.integers(1, 20))
        x = [
            rng.random(n),
            np.round(rng.random(n) * 100) / 100,
            np.linspace(0.0, 1.0, n),
            np.clip(rng.normal(0.5, 0.125, n), 0.0, 1.0),
        ][k % 4]
        eps = rng.choice(EPS_CHOICES, n)
        if k % 3 == 0:
            eps[:] = eps[0]
        yield x, eps
    pop = clipped_normal_mixture(
        MixtureSpec(n=600, fractions={"close": 0.5, "moderate": 0.2, "open": 0.3}, rng_seed=seed)
    )
    trajectory = simulate(pop, DynamicsConfig(max_steps=8)).trajectory
    for t in (3, 8):
        yield trajectory[t], pop.epsilons
    deep = clipped_normal_mixture(MixtureSpec(n=2000, fractions={"close": 0.5, "open": 0.5}, rng_seed=1))
    yield deep.opinions, deep.epsilons


def test_windows_match_dense_predicate():
    for x, eps in instances(0):
        mask = np.abs(x[None, :] - x[:, None]) <= eps[:, None]
        w = _windows(x, eps)
        for i in range(len(x)):
            r = w.run[i]
            assert np.array_equal(np.sort(w.order[w.lo_r[r] : w.hi_r[r]]), np.flatnonzero(mask[i]))


def dense_windows(x, eps, rows=256):
    """order, lo and hi built without _windows: the stable order from
    Python's stable sort, and each agent's window from the dense predicate
    |x_j - x_i| <= eps_i of oracles.neighbors, a block of rows at a time so
    that memory stays at rows x n.  Every window must be one contiguous
    run of the sort order."""
    n = len(x)
    order = np.array(sorted(range(n), key=x.tolist().__getitem__), dtype=np.intp)
    s = x[order]
    lo, hi = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    for start in range(0, n, rows):
        i = np.arange(start, min(start + rows, n))
        inside = np.abs(s[None, :] - x[i, None]) <= eps[i, None]
        lo[i] = inside.argmax(axis=1)
        hi[i] = n - inside[:, ::-1].argmax(axis=1)
        assert np.array_equal(inside.sum(axis=1), hi[i] - lo[i])
    return order, lo, hi


def plan_of(x, eps, order, lo, hi):
    """Every _Windows field derived from order, lo and hi by its definition,
    with Python loops over the sort order; run holds each agent's run
    index in agent order."""
    n = len(x)
    lo_s, hi_s = lo[order].tolist(), hi[order].tolist()
    lo_r, hi_r, run = [], [], []
    for k in range(n):
        if k == 0 or (lo_s[k], hi_s[k]) != (lo_s[k - 1], hi_s[k - 1]):
            lo_r.append(lo_s[k])
            hi_r.append(hi_s[k])
        run.append(len(lo_r) - 1)
    lo_r, hi_r = np.array(lo_r, dtype=np.intp), np.array(hi_r, dtype=np.intp)
    agent_run = np.empty(n, dtype=np.intp)
    for k, i in enumerate(order.tolist()):
        agent_run[i] = run[k]
    mask = None
    if n <= _LEAF or len(lo_r) * n <= _BLOCK:
        mask = np.array([[a <= p < b for p in range(n)] for a, b in zip(lo_r.tolist(), hi_r.tolist())])
    e = eps[order]
    up = [order[k] < order[k + 1] for k in range(n - 1)]
    return core._Windows(
        order, lo_r, hi_r, agent_run, mask,
        np.array([lo_s, hi_s], dtype=np.intp),
        np.array([-e, np.nextafter(e, np.inf)]),
        np.array([0.0 if u else np.nextafter(0.0, 1.0) for u in up]),
        np.array([u and run[k + 1] == run[k] for k, u in enumerate(up)], dtype=bool),
    )


def large_profiles():
    """n >= 4096 profiles: a late step of the 0.5/0.5 mixture, whose
    merged clusters share windows; twins with different epsilons; agents
    one ulp inside and outside a window's top edge in a random profile;
    and 16 or 17 separate values, whose 16 runs just fit one block mask
    (16 x 4096 cells is _BLOCK) and whose 17 runs do not."""
    pop = clipped_normal_mixture(MixtureSpec(n=4096, fractions={"close": 0.5, "open": 0.5}, rng_seed=1))
    yield simulate(pop, DynamicsConfig(max_steps=12)).trajectory[-1], pop.epsilons, False
    rng = np.random.default_rng(11)
    half = np.round(rng.random(2500) * 100) / 100
    yield np.concatenate([half, half]), rng.choice([0.01, 0.05, 0.2], 5000), False
    x, eps = rng.random(4099), rng.choice(EPS_CHOICES, 4099)
    eps[:3] = [0.05, 0.0, 0.0]
    x[1] = _window_top(x[0], eps[0])
    x[2] = np.nextafter(x[1], 1.0)
    yield x, eps, True
    for values in (16, 17):
        yield rng.choice(np.linspace(0.0, 1.0, values), 4096), np.full(4096, 0.01), False


def test_large_windows_match_an_independent_construction():
    masks = 0
    for x, eps, watched in large_profiles():
        want = plan_of(x, eps, *dense_windows(x, eps))
        got = _windows(x, eps)
        for name, a, b in zip(got._fields, got, want):
            if b is None:
                assert a is None, name
                continue
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        masks += want.mask is not None
        if watched:
            # agent 1 sits on agent 0's window edge and agent 2 one ulp past it
            rows = [oracles.neighbors(x.tolist(), eps.tolist(), i) for i in range(3)]
            assert 1 in rows[0] and 2 not in rows[0]
            for i, row in enumerate(rows):
                r = got.run[i]
                assert sorted(got.order[got.lo_r[r] : got.hi_r[r]].tolist()) == row
    assert masks == 1


def slack_of(old, new, eps) -> float:
    """_windows_slack of old's windows on the profile new."""
    old, new, eps = np.asarray(old), np.asarray(new), np.asarray(eps)
    return _windows_slack(new, _windows(old, eps))


def held(old, new, eps) -> bool:
    """Whether _windows_slack finds old's windows holding on the profile
    new, checked to be exactly whether they equal new's fresh windows."""
    got = slack_of(old, new, eps) >= 0.0
    assert got == all(np.array_equal(a, b) for a, b in zip(_windows(old, eps), _windows(new, eps)))
    return got


def test_windows_hold_across_steps_of_real_runs():
    verdicts = []
    runs = [
        (clipped_normal_mixture(MixtureSpec(n=200, fractions={"close": 0.5, "open": 0.5}, rng_seed=0)), Rule.HK),
        (clipped_normal_mixture(MixtureSpec(n=600, fractions={"close": 0.5, "moderate": 0.2, "open": 0.3})), Rule.HK),
        (evenly_spaced(50, 0.2), Rule.HK_MOD),
    ]
    for pop, rule in runs:
        trajectory = simulate(pop, DynamicsConfig(rule=rule, max_steps=60)).trajectory
        verdicts += [held(a, b, pop.epsilons) for a, b in zip(trajectory, trajectory[1:])]
    assert True in verdicts and False in verdicts


def test_windows_hold_on_random_edits():
    # nudges of a few ulps, ties copied from a sort neighbour, small noise
    rng = np.random.default_rng(5)
    verdicts = []
    for x, eps in instances(3, count=40):
        order = np.argsort(x, kind="stable")
        for edit in range(3):
            new = x.copy()
            k = rng.integers(0, len(x), max(1, len(x) // 20))
            if edit == 0:
                new[k] = x[k] + rng.integers(-3, 4, len(k)) * np.spacing(x[k])
            elif edit == 1:
                where = rng.integers(0, len(x), len(k))
                new[order[where]] = x[order[np.minimum(where + 1, len(x) - 1)]]
            else:
                new[k] = np.clip(x[k] + rng.normal(0.0, 1e-3, len(k)), 0.0, 1.0)
            verdicts.append(held(x, new, eps))
    assert True in verdicts and False in verdicts


def test_windows_hold_on_edited_profiles():
    up, down = np.nextafter(0.25, 1.0), np.nextafter(0.25, 0.0)
    cases = [
        # a tie that the stable sort orders the other way: only the order moved
        ([0.5, 0.4], [0.5, 0.5], [0.2, 0.2], False),
        ([0.4, 0.5], [0.5, 0.5], [0.2, 0.2], True),
        # one value moved 1 ulp out of a window, then 1 ulp within it
        ([0.0, 0.25, 0.75], [0.0, up, 0.75], [0.25] * 3, False),
        ([0.0, 0.25, 0.75], [0.0, down, 0.75], [0.25] * 3, True),
        # the same for a neighbour with a small epsilon, which sees no change
        # itself: only the edge test, landing exactly on its bound, tells
        ([0.0, 0.25, 0.75], [0.0, up, 0.75], [0.25, 0.01, 0.25], False),
        # a value that moves onto the lower bound exactly joins the window
        ([0.25 - 2.0**-54, 0.5], [0.25, 0.5], [0.01, 0.25], False),
        # twins with different epsilons: one twin's window changes
        ([0.3, 0.3, 0.5], [0.3, 0.3, 0.39], [0.2, 0.1, 0.05], False),
        ([0.3, 0.3, 0.5], [0.3, 0.3, 0.48], [0.2, 0.1, 0.05], True),
        # epsilon 0: a new tie joins two windows
        ([0.1, 0.2, 0.3], [0.1, 0.2, 0.2], [0.0] * 3, False),
        ([0.1, 0.2, 0.3], [0.1, 0.2, 0.29], [0.0] * 3, True),
        ([0.3], [0.7], [0.0], True),
    ]
    for old, new, eps, want in cases:
        assert held(np.array(old), np.array(new), np.array(eps)) is want, (old, new)


def _window_top(x, eps):
    """The largest float y with fl(y - x) <= eps: the last opinion inside a
    window centred on x, one ulp from leaving it."""
    y = x + eps
    while y - x > eps:
        y = np.nextafter(y, 0.0)
    while np.nextafter(y, 1.0) - x <= eps:
        y = np.nextafter(y, 1.0)
    return y


def test_windows_slack_of_twins_and_of_an_agent_at_an_edge():
    # twins with different epsilons but one window keep the slack of the
    # rest; twins with different windows can part, so the slack is 0.0
    assert slack_of([0.3, 0.3, 0.5], [0.3, 0.3, 0.5], [0.15, 0.1, 0.05]) > 0.0
    assert slack_of([0.3, 0.3, 0.5], [0.3, 0.3, 0.5], [0.25, 0.1, 0.05]) == 0.0
    # one window, the higher index first and one subnormal above the other:
    # not a tie, and a tie would reorder them, so their gap counts
    tiny = np.nextafter(0.0, 1.0)
    assert slack_of([tiny, 0.0], [tiny, 0.0], [0.1, 0.1]) == 0.0
    # an agent one ulp inside, or one ulp outside, another's window edge
    top = _window_top(0.11, 0.05)
    for edge in (top, np.nextafter(top, 1.0)):
        assert 0.0 <= slack_of([0.11, edge], [0.11, edge], [0.05, 0.01]) <= np.spacing(top)


_TINY = np.nextafter(0.0, 1.0)
_HUGE = np.finfo(float).max


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, _TINY, 2 * _TINY, 2.5e-310, 0.05, 0.45, 0.5, np.nextafter(0.5, 1.0), 0.95, 1.0]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=40,
    ),
    st.lists(st.sampled_from([0.0, _TINY, 0.45, 1.0, 2.0, _HUGE]), min_size=1, max_size=40),
)
def test_edge_margins_are_the_edge_test_and_the_dense_predicate(values, epsilons):
    # a sorted profile with ties, -0.0 beside 0.0 and subnormal gaps, so
    # that sorted position p holds agent p
    x = np.array(sorted(values))
    eps = np.resize(epsilons, len(x))
    n = len(x)
    w = _windows(x, eps)
    rows = [oracles.neighbors(x.tolist(), eps.tolist(), i) for i in range(n)]
    assert [list(range(a, b)) for a, b in zip(*w.edges.tolist())] == rows
    padded = np.concatenate([[-np.inf], x, [np.inf]])

    def dense(c):
        # the edge test at padded[c] by the dense predicate: with bound
        # -eps_i it holds where position c - 1 lies below agent i's window,
        # with the bound above eps_i where it lies below the window's end
        if c == 0:
            return np.ones((2, n), dtype=bool)
        if c == n + 1:
            return np.zeros((2, n), dtype=bool)
        below = x[c - 1] < x
        inside = np.array([c - 1 in row for row in rows])
        return np.array([below & ~inside, below | inside])

    for c in range(n + 1):
        at = np.full((2, n), c)
        inside, outside = _edge_margins(padded, x, at, w.bounds)
        assert not (np.isnan(inside).any() or np.isnan(outside).any())
        assert np.array_equal(inside > 0.0, padded[at] - x < w.bounds)
        assert np.array_equal(outside < 0.0, padded[at + 1] - x < w.bounds)
        assert np.array_equal(inside > 0.0, dense(c))
        assert np.array_equal(outside < 0.0, dense(c + 1))
    # guesses one run of tied opinions below or above every edge settle on it
    below = np.searchsorted(x, padded[w.edges], "left")
    above = np.searchsorted(x, padded[w.edges + 1], "right")
    for guess in (below, above, np.where(np.arange(n) % 2, below, above)):
        assert np.array_equal(_settle(x, guess, w.bounds), w.edges)


@pytest.mark.parametrize("huge", [2.0, 1e308, _HUGE])
def test_epsilons_past_one_act_as_one(huge):
    # every fl(x_j - x_i) lies in [-1, 1], so _windows clamps eps at 2.0:
    # an epsilon up to the largest float gives what 1.0 gives, with finite
    # bounds and margins (the suite makes a numpy overflow an error)
    rng = np.random.default_rng(8)
    x = np.concatenate([[0.0, 1.0, 0.5, 0.5], rng.random(56)])
    small = rng.choice([0.01, 0.2, 0.45], len(x))
    one, big = (Population(x, np.where(np.arange(len(x)) % 3, small, e)) for e in (1.0, huge))
    for rule in (Rule.HK, Rule.HK_MOD):
        a, b = (simulate(pop, DynamicsConfig(rule=rule, max_steps=50)) for pop in (one, big))
        assert a.t_eqm == b.t_eqm and len(a.trajectory) == len(b.trajectory)
        assert all(np.array_equal(p, q) for p, q in zip(a.trajectory, b.trajectory))
    ga, gb = build_graph(one), build_graph(big)
    for name in ("order", "lo", "hi"):
        assert np.array_equal(getattr(ga, name), getattr(gb, name)), name
    assert strongly_connected_components(ga) == strongly_connected_components(gb)
    assert all(np.array_equal(p, q) for p, q in zip(pulls_all(ga), pulls_all(gb)))
    slack = _windows_slack(x, _windows(x, big.epsilons))
    assert np.isfinite(slack) and slack >= _windows_slack(x, _windows(x, one.epsilons)) >= 0.0


def audited_run(monkeypatch, pop, dyn, batches):
    """simulate with injection batches {t: (opinions, epsilon)}, checked to
    hand every step windows equal to a fresh _windows(x, eps) and to give
    fresh_run's trajectory; returns the steps that skipped their check."""
    want, want_t = fresh_run(pop, dyn, lambda t, x, eps: batches.get(t))
    checks, seen = [], []
    check = core._windows_slack
    monkeypatch.setattr(core, "_windows_slack", lambda x, w: checks.append(1) or check(x, w))

    def intervene(t, x, eps, windows):
        seen.append(len(checks))
        assert all(np.array_equal(a, b) for a, b in zip(windows, _windows(x, eps))), t
        return batches.get(t)

    got = simulate(pop, dyn, intervene)
    assert got.t_eqm == want_t and len(got.trajectory) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got.trajectory, want))
    # step t > 0 skipped its check when no check ran since step t - 1's
    return [t for t in range(1, len(seen)) if seen[t] == seen[t - 1]]


# the runs below that settle their clusters and skip checks
SKIPPING = {(Rule.HK, 100), (Rule.HK, 200)}


@pytest.mark.parametrize("rule", [Rule.HK, Rule.HK_MOD])
@pytest.mark.parametrize("n", [100, 200, 4096])
def test_skipped_checks_keep_fresh_windows(monkeypatch, rule, n):
    fractions = {"close": 0.8, "open": 0.2} if n > 200 else {"close": 0.5, "open": 0.5}
    pop = clipped_normal_mixture(MixtureSpec(n=n, fractions=fractions, rng_seed=0))
    batches = {0: ([0.1, 0.1, 0.9], 0.2), 2: ([0.5], 0.3), 3: ([0.45, 0.55], 0.05), 6: ([0.3], 0.2)}
    skipped = audited_run(monkeypatch, pop, DynamicsConfig(rule=rule, max_steps=60), batches)
    # the windows built for an injection are checked on the next step
    assert not set(skipped) & {t + 1 for t in batches}
    if (rule, n) in SKIPPING:
        assert skipped


@pytest.mark.parametrize("rule", [Rule.HK, Rule.HK_MOD])
def test_skipped_checks_with_twins_and_an_agent_at_an_edge(monkeypatch, rule):
    # a contracting cluster with twins of different epsilons (one twin's
    # window holds only the twins), and a lone agent one ulp inside or
    # outside the window edge of the cluster's top agent
    top = _window_top(0.11, 0.05)
    skipped = []
    for edge in (top, np.nextafter(top, 1.0)):
        pop = Population.from_arrays(
            [0.09, 0.1, 0.1, 0.11, edge, 0.8, 0.81], [0.05, 0.05, 0.005, 0.05, 0.01, 0.05, 0.05]
        )
        skipped += audited_run(monkeypatch, pop, DynamicsConfig(rule=rule, w_own=0.9, max_steps=80), {})
    assert skipped


def test_contracting_clusters_skip_checks(monkeypatch):
    # a slowly contracting cluster moves far less per step than its gaps
    # and edge margins, so most steps keep their windows unchecked
    pop = Population.from_arrays([0.08, 0.09, 0.1, 0.11, 0.12, 0.8, 0.81], [0.05] * 7)
    dyn = DynamicsConfig(rule=Rule.HK_MOD, w_own=0.99)
    assert {2, 3, 4, 5, 6} <= set(audited_run(monkeypatch, pop, dyn, {}))
    # an agent injected on a skipped step, one ulp inside the window of the
    # top agent, which then leaves it: the injection's slack is unknown, so
    # the next step checks (and rebuilds)
    top = _window_top(simulate(pop, dyn).trajectory[5][4], 0.05)
    skipped = audited_run(monkeypatch, pop, dyn, {5: ([top], 0.0)})
    assert 5 in skipped and 6 not in skipped


def fresh_run(pop, dyn, inject):
    """simulate's loop with a fresh _step_arrays(x, eps, rule, w_own) call,
    windows and plan included, every step, and inject(t, x, eps) in place
    of intervene: (trajectory, t_eqm)."""
    roster, x = pop, pop.opinions.copy()
    trajectory = [x]
    for t in range(dyn.max_steps):
        added = inject(t, x, roster.epsilons)
        if added is not None:
            roster = roster.extended(*added)
            x = np.concatenate([x, roster.opinions[len(x) :]])
            trajectory[-1] = x
        x1 = _step_arrays(x, roster.epsilons, dyn.rule, dyn.w_own)
        trajectory.append(x1)
        if added is None and float(np.max(np.abs(x1 - x))) <= dyn.delta:
            return trajectory, t
        x = x1
    return trajectory, None


@pytest.mark.parametrize("rule", [Rule.HK, Rule.HK_MOD])
@pytest.mark.parametrize(
    "n, inject",
    [(100, False), (200, False), (4096, False), (200, True)],
    ids=["leaf", "block", "recursion", "injections"],
)
def test_simulate_is_a_loop_of_fresh_steps(monkeypatch, rule, n, inject):
    fractions = {"close": 0.8, "open": 0.2} if n > 200 else {"close": 0.5, "open": 0.5}
    pop = clipped_normal_mixture(MixtureSpec(n=n, fractions=fractions, rng_seed=0))
    dyn = DynamicsConfig(rule=rule, max_steps=40)
    batches = {0: ([0.1, 0.1, 0.9], 0.2), 2: ([0.5], 0.3), 3: ([0.45, 0.55], 0.05)} if inject else {}
    want, want_t = fresh_run(pop, dyn, lambda t, x, eps: batches.get(t))
    builds = []
    monkeypatch.setattr(core, "_windows", lambda x, eps: builds.append(len(x)) or _windows(x, eps))
    got = simulate(pop, dyn, lambda t, x, eps, windows: batches.get(t))
    assert got.t_eqm == want_t and len(got.trajectory) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got.trajectory, want))
    # the run kept some step's windows
    assert len(builds) < len(want) - 1


def test_injection_on_a_step_that_keeps_its_windows(monkeypatch):
    # two contracting clusters keep their windows on every step, so the
    # batch at t = 5 arrives on kept windows and a kept plan
    pop = Population.from_arrays([0.1, 0.11, 0.12, 0.8, 0.81], [0.05] * 5)
    dyn = DynamicsConfig(rule=Rule.HK_MOD, w_own=0.9)
    batches = {5: ([0.5, 0.115], 0.05)}
    want, want_t = fresh_run(pop, dyn, lambda t, x, eps: batches.get(t))
    builds = []
    monkeypatch.setattr(core, "_windows", lambda x, eps: builds.append(len(x)) or _windows(x, eps))
    got = simulate(pop, dyn, lambda t, x, eps, windows: batches.get(t))
    assert builds == [5, 7]
    assert got.t_eqm == want_t and len(got.trajectory) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got.trajectory, want))


@pytest.mark.parametrize("seed", [0, 2])
def test_placement_run_is_a_loop_of_fresh_graphs_and_steps(monkeypatch, seed):
    # n = 4096 sums through the window-sum recursion.  Of rng_seed 0, 1 and
    # 2 on this mixture, 0 spends budget at t = 1 and 2 at t = 0; 1 spends
    # none, so it would compare plain runs only
    pop = clipped_normal_mixture(MixtureSpec(n=4096, fractions={"close": 0.5, "open": 0.5}, rng_seed=seed))
    dyn, place = DynamicsConfig(), PlacementConfig(budget=4096)
    want_events, budget = [], place.budget

    def inject(t, x, eps):
        # run_with_placement's budget loop on a fresh graph of (x, eps)
        nonlocal budget
        g = build_graph_arrays(x, eps, t)
        batches = []
        for ev in (ev for pair in find_converging_pairs(g) for ev in compute_injection(g, pair)):
            if budget < ev.count:
                break
            batches.append(ev)
            budget -= ev.count
        want_events.extend(batches)
        if batches:
            return np.repeat([ev.opinion for ev in batches], [ev.count for ev in batches]), place.epsilon_new

    want, want_t = fresh_run(pop, dyn, inject)
    scan, graphs = placement.find_converging_pairs, []
    monkeypatch.setattr(placement, "find_converging_pairs", lambda g: graphs.append(g) or scan(g))
    got, events = run_with_placement(pop, dyn, place)
    # the scan's graph, gathered from a kept or fresh windows record, is
    # the fresh graph of its profile
    assert graphs
    for g in graphs:
        fresh = build_graph_arrays(g.opinions, g.epsilons, g.timestamp)
        for name in ("order", "lo", "hi"):
            a, b = getattr(g, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (g.timestamp, name)
    # the roster's ids are its indices, so the log's anchor ids are the
    # graph indices the reference logs
    assert got.agents.ids.tolist() == list(range(got.agents.n))
    assert events and events == want_events
    assert got.t_eqm == want_t and len(got.trajectory) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got.trajectory, want))


@pytest.mark.parametrize("rule", [Rule.HK, Rule.HK_MOD])
def test_step_matches_dense_kernel(rule):
    rng = np.random.default_rng(1)
    for x, eps in instances(2):
        w = rng.uniform(0.51, 1.0, len(x)) if rng.random() < 0.5 else 0.7
        want = dense_step(x, eps, rule, w)
        got = _step_arrays(x, eps, rule, w)
        assert np.max(np.abs(got - want)) <= 1e-12
        # held in opinion order, the window sums follow the dense row order
        order = np.argsort(x, kind="stable")
        w_sorted = w[order] if np.ndim(w) else w
        assert np.array_equal(
            _step_arrays(x[order], eps[order], rule, w_sorted),
            dense_step(x[order], eps[order], rule, w_sorted),
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=300),
    st.sampled_from(EPS_CHOICES),
)
def test_sorted_grid_step_is_dense_step_bit_for_bit(cents, epsilon):
    # opinions on a 0.01 grid with runs of ties, a shared epsilon on or
    # off the band edges, n = 1 included
    x = np.sort(np.array(cents) / 100.0)
    eps = np.full(len(x), epsilon)
    assert np.array_equal(_step_arrays(x, eps), dense_step(x, eps))


@pytest.mark.parametrize("n", [1, 128, 129, 700])
def test_window_sums_of_empty_and_whole_windows(n):
    # pulls ask for empty windows; the whole row is numpy's own sum
    s = np.random.default_rng(n).random(n)
    at = np.arange(n + 1)
    assert _window_sums(s, at, at).tolist() == [0.0] * (n + 1)
    assert _window_sums(s, np.array([0]), np.array([n])).tolist() == [s.sum()]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _row(rng, m, kind):
    """Values whose sum depends on the order they are added in, or rows
    of zeros where only the sign bits can differ."""
    if kind == "spread":
        return rng.random(m) * 10.0 ** rng.integers(-12, 12, m) * rng.choice([-1.0, 1.0], m)
    if kind == "neg_zero":
        return np.full(m, -0.0)
    return np.where(rng.random(m) < 0.5, -0.0, 0.0)


def test_pairwise_oracle_is_numpy_row_sum():
    rng = np.random.default_rng(11)
    for k in range(400):
        row = _row(rng, int(rng.integers(0, 3001)), "signed_zero" if k % 10 == 0 else "spread")
        assert _bits(oracles.pairwise_sum(row)) == _bits(row.sum())


@pytest.mark.parametrize("kind", ["spread", "neg_zero", "signed_zero"])
@pytest.mark.parametrize(
    "m, count",
    [(_BLOCK, 1), (_BLOCK + 8, 1)]
    + [(m, _BLOCK // m + extra) for m in (129, 256, 257, 500, 2000) for extra in (0, 1)],
)
def test_window_sums_match_pairwise_oracle_across_block_bound(m, count, kind):
    # shapes on both sides of the bound: count * m cells summed as one
    # masked block, or one window or cell more, which recurses first
    rng = np.random.default_rng(m + count)
    s = _row(rng, m, kind)
    lo = rng.integers(0, m + 1, count)
    hi = lo + rng.integers(0, m + 1 - lo)
    if count > 1:
        hi[0] = lo[0]  # empty
        lo[1], hi[1] = 0, m  # whole
    p = np.arange(m)
    want = [oracles.pairwise_sum(np.where((a <= p) & (p < b), s, 0.0)) for a, b in zip(lo, hi)]
    assert _bits(_window_sums(s, lo, hi)) == _bits(want)


@pytest.mark.parametrize(
    "m, count",
    [(_LEAF, _BLOCK // _LEAF + 1), (256, _BLOCK // 256), (500, _BLOCK // 500)],
    ids=["leaf_above_block", "block_edge", "below_block_edge"],
)
def test_block_sum_keeps_signed_zeros(m, count):
    # the block rule's in-place block: +0.0 outside each window, the row's
    # own cells (here -0.0 and +0.0 mixed with values) inside it
    rng = np.random.default_rng(m)
    s = np.where(rng.random(m) < 0.5, -0.0, rng.random(m))
    s[: m // 4] = -0.0
    lo = rng.integers(0, m + 1, count)
    hi = lo + rng.integers(0, m + 1 - lo)
    lo[:3], hi[:3] = [0, 0, 0], [0, m // 4, m]  # empty, only -0.0, whole row
    mask = _block_mask(m, lo, hi)
    assert mask is not None
    want = [oracles.pairwise_sum(np.where(row, s, 0.0)) for row in mask]
    assert _bits(_window_sums(s, lo, hi, mask)) == _bits(want)
    assert _bits(_window_sums(s, lo, hi)) == _bits(want)


@pytest.mark.parametrize(
    "m, count",
    [(1, 5), (7, 40), (_LEAF, 300), (200, _BLOCK // 200), (100, _BLOCK + 3000)],
    ids=["one_value", "few_values", "leaf", "block_edge", "leaf_past_block_windows"],
)
def test_run_length_block_mask_is_the_broadcast_mask(m, count):
    # bounds below 0 and above m (the recursion passes bounds relative to a
    # node), empty windows, windows with hi below lo, and on a leaf more
    # windows than _BLOCK
    rng = np.random.default_rng(m + count)
    lo = rng.integers(-m - 2, 2 * m + 3, count)
    hi = rng.integers(-m - 2, 2 * m + 3, count)
    hi[::7] = lo[::7]
    lo[:4], hi[:4] = [-3, 0, m, m + 2], [-1, m, m + 5, m + 2]
    p = np.arange(m)
    got = _block_mask(m, lo, hi)
    assert got.dtype == bool
    assert np.array_equal(got, (lo[:, None] <= p) & (p < hi[:, None]))


_EDGE_VALUES = [0.0, -0.0, 1.0, 5e-324, 2.5e-310, np.nextafter(1.0, 0.0)]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(min_value=0.0, max_value=1.0)),
            st.sampled_from(EPS_CHOICES),
        ),
        min_size=1,
        max_size=300,
    )
)
def test_unclipped_hk_step_is_its_own_clip(agents):
    # HK's step returns sums / sizes unclipped: a pairwise sum of k values
    # in [0, 1] rounds into [0, k], so the mean already lies in [0, 1]
    x, eps = (np.array(column) for column in zip(*agents))
    got = _step_arrays(x, eps)
    assert _bits(got) == _bits(got.clip(0.0, 1.0))


def test_no_layer_builds_an_n_by_n_array():
    # an n x n bool mask alone is 400 MB at n = 2e4; one update step and
    # one full pull scan each stay within a few MB
    pop = clipped_normal_mixture(MixtureSpec(n=20_000, fractions={"close": 0.8, "open": 0.2}, rng_seed=0))
    g = build_graph_arrays(pop.opinions, pop.epsilons)
    for run in (lambda: _step_arrays(pop.opinions, pop.epsilons), lambda: pulls_all(g)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_pulls_match_dense_pulls():
    for x, eps in instances(3, count=40):
        left, right = pulls_all(build_graph_arrays(x, eps))
        want_left, want_right = dense_pulls(x, eps)
        assert np.max(np.abs(left - want_left)) <= 1e-12
        assert np.max(np.abs(right - want_right)) <= 1e-12


def _permuted(pop, perm):
    return Population.from_arrays(pop.opinions[perm], pop.epsilons[perm])


@pytest.mark.parametrize("rule", [Rule.HK, Rule.HK_MOD])
def test_permuted_population_gives_permuted_trajectory(rule):
    pop = clipped_normal_mixture(
        MixtureSpec(n=400, fractions={"close": 0.5, "moderate": 0.2, "open": 0.3}, rng_seed=4)
    )
    perm = np.random.default_rng(5).permutation(pop.n)
    dyn = DynamicsConfig(rule=rule)
    a, b = simulate(pop, dyn), simulate(_permuted(pop, perm), dyn)
    assert (a.t_eqm, a.c_eqm, len(a.trajectory)) == (b.t_eqm, b.c_eqm, len(b.trajectory))
    for p, q in zip(a.trajectory, b.trajectory):
        assert np.array_equal(p[perm], q)


def test_permuted_population_gives_permuted_placement_run():
    pop = clipped_normal_mixture(MixtureSpec(n=300, fractions={"close": 0.5, "open": 0.5}, rng_seed=3))
    perm = np.random.default_rng(6).permutation(pop.n)
    place = PlacementConfig(budget=60)
    a, events_a = run_with_placement(pop, DynamicsConfig(), place)
    b, events_b = run_with_placement(_permuted(pop, perm), DynamicsConfig(), place)
    assert len(events_a) > 4, "the run must inject for the check to mean anything"
    assert (a.t_eqm, a.c_eqm, len(a.trajectory)) == (b.t_eqm, b.c_eqm, len(b.trajectory))
    base = pop.n
    for p, q in zip(a.trajectory, b.trajectory):
        assert np.array_equal(p[perm], q[:base]) and np.array_equal(p[base:], q[base:])
    # every event is the same bit for bit except the anchor's label: once a
    # cluster has merged its agents share one opinion, and the scan names
    # the last of them in roster order, which the permutation changes
    def unlabelled(result, events):
        return [
            (replace(ev, anchor_agent=-1), result.trajectory[ev.time][ev.anchor_agent],
             result.agents.epsilons[ev.anchor_agent])
            for ev in events
        ]

    assert unlabelled(a, events_a) == unlabelled(b, events_b)


def test_simulate_scales_near_linearly():
    # n = 1e5: the dense kernel's n x n mask and products would need tens
    # of gigabytes per step; the windows and window sums stay near-linear
    n = 100_000
    pop = clipped_normal_mixture(MixtureSpec(n=n, fractions={"close": 0.8, "open": 0.2}, rng_seed=0))
    start = time.perf_counter()
    result = simulate(pop, DynamicsConfig(max_steps=3))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"3 steps took {elapsed:.2f} s at n = {n}"
    assert len(result.trajectory) == 4
    x, eps = pop.opinions, pop.epsilons
    for i in np.random.default_rng(7).choice(n, 20, replace=False):
        mean = x[np.abs(x - x[i]) <= eps[i]].mean()
        assert abs(result.trajectory[1][i] - mean) <= 1e-12


BAND = (0.15, 0.17, 0.18, 0.19, 0.20, 0.21, 0.22, 0.25)


def test_band_slowdown_against_exact_arithmetic():
    # In exact rational arithmetic the band sweep behind acceptance
    # criterion 3 reaches its fixed point at these steps, so the band's
    # maximum (10) only ties t_eqm(0.25).  Floating point needs 0 to 3
    # more steps before a profile stops changing bit for bit (delta 1e-18)
    # and lands on the same number of clusters.
    exact = {}
    for eps in BAND:
        pop = evenly_spaced(200, eps)
        t_exact, profile = oracles.simulate_hk_exact(pop.opinions.tolist(), pop.epsilons.tolist())
        result = simulate(pop, DynamicsConfig(delta=1e-18))
        exact[eps] = t_exact
        assert 0 <= result.t_eqm - t_exact <= 3, (eps, result.t_eqm, t_exact)
        assert result.c_eqm == oracles.count_clusters([float(v) for v in profile])
    assert [exact[e] for e in BAND] == [7, 9, 10, 9, 7, 7, 6, 10]


def test_band_slowdown_runs_that_hinge_on_the_last_bit():
    # The least window-edge margin over each committed band run's profiles:
    # at epsilon 0.15 an agent sits exactly on a window's edge, and at 0.2
    # one ulp of 0.2 from it, so those two runs' neighbour sets hinge on the
    # last bit of one subtraction; the other six keep a margin of 2e-6 or more.
    for eps in BAND:
        pop = evenly_spaced(200, eps)
        trajectory = simulate(pop, DynamicsConfig(delta=1e-18)).trajectory
        slack = [_windows_slack(x, _windows(x, pop.epsilons)) for x in trajectory]
        least, t = min(slack), int(np.argmin(slack))
        if eps == 0.15:
            assert (least, t) == (0.0, 2)
        elif eps == 0.20:
            assert (least, t) == (np.spacing(0.2), 2)
        else:
            assert 2.0e-6 <= least <= 7.2e-5, (eps, least)
