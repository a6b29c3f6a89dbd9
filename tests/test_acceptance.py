"""Acceptance gate: nine criteria covering the package end to end.

Each test prints one diagnostic line with the measured values and the
verdict, and asserts the criterion exactly as stated.  Three criteria
(6, 7 and 9) describe outcomes the dynamics as built demonstrably do
not produce at these settings; they are encoded faithfully and left
failing rather than weakened to fit.  The failure messages carry the
measured numbers.
"""

import functools

import numpy as np

import oracles
from echosim import (
    DynamicsConfig,
    Mindedness,
    MixtureSpec,
    PlacementConfig,
    Population,
    Rule,
    Strategy,
    SweepKind,
    SweepSpec,
    budget_spent,
    build_graph,
    clipped_normal_mixture,
    count_clusters,
    evenly_spaced,
    run_sweep,
    run_with_placement,
    simulate,
    strongly_connected_components,
)
from echosim.core import _step_arrays

M = Mindedness


def _step(pop, rule=Rule.HK, w_own=0.6):
    """The package's update step, as the first step of a run."""
    return simulate(pop, DynamicsConfig(rule=rule, w_own=w_own, max_steps=1)).trajectory[1]


def _report(ok: bool, line: str):
    verdict = f"{line} -> {'PASS' if ok else 'FAIL'}"
    print(verdict)
    assert ok, verdict


def test_criterion_1_single_step_worked_values():
    # ten agents, shared eps 0.25; the fifth agent averages opinions
    # within [0.25, 0.75] and lands on 0.54 plain, 0.52 at w_own 0.6
    pop = Population.from_arrays(
        [0.1, 0.2, 0.4, 0.4, 0.5, 0.7, 0.7, 0.8, 0.8, 1.0], [0.25] * 10
    )
    err_plain = abs(_step(pop)[4] - 0.54)
    err_weighted = abs(_step(pop, Rule.HK_MOD, 0.6)[4] - 0.52)
    ok = err_plain <= 1e-12 and err_weighted <= 1e-12
    _report(
        ok,
        "criterion 1 (single-step worked values): "
        f"|x5_plain - 0.54| = {err_plain:.2e}, "
        f"|x5_weighted - 0.52| = {err_weighted:.2e}, tolerance 1e-12",
    )


def test_criterion_2_homogeneous_consensus_threshold():
    sizes = (50, 100, 200, 500)
    consensus = {
        (n, e): simulate(evenly_spaced(n, e)).c_eqm
        for n in sizes
        for e in (0.25, 0.3, 0.5)
    }
    fragmented = {n: simulate(evenly_spaced(n, 0.05)).c_eqm for n in sizes if n >= 100}
    ok = all(c == 1 for c in consensus.values()) and all(
        c > 5 for c in fragmented.values()
    )
    _report(
        ok,
        "criterion 2 (homogeneous consensus threshold): "
        f"c_eqm = 1 for eps >= 0.25 in {sorted(set(consensus.values()))}, "
        f"eps 0.05 gives {fragmented} (need > 5)",
    )


def test_criterion_3_moderate_band_slowdown():
    # delta below one ulp of any opinion in [0, 1]: quiet then means a
    # bitwise fixed point, so step counts do not depend on the threshold
    dyn = DynamicsConfig(delta=1e-18)
    t = {
        eps: simulate(evenly_spaced(200, eps), dyn).t_eqm
        for eps in (0.15, 0.17, 0.18, 0.19, 0.20, 0.21, 0.22, 0.25)
    }
    band_max = max(t[e] for e in (0.17, 0.18, 0.19, 0.20, 0.21, 0.22))
    ok = band_max > t[0.25] and band_max > t[0.15]
    _report(
        ok,
        "criterion 3 (moderate-band slowdown, n=200): "
        f"max t_eqm over [0.17, 0.22] = {band_max}, "
        f"t_eqm(0.15) = {t[0.15]}, t_eqm(0.25) = {t[0.25]}",
    )


@functools.lru_cache(maxsize=1)
def _close_to_moderate_records():
    spec = SweepSpec(
        kind=SweepKind.TRANSFORM_SWEEP,
        grid=[0.0, 0.9, 0.98, 1.0],
        population_sizes=[200],
        runs=5,
        base_mixture=MixtureSpec(
            n=200, fractions={M.CLOSE: 0.8, M.OPEN: 0.2}, rng_seed=0
        ),
        transform_from=M.CLOSE,
    )
    return run_sweep(spec)


def _point_means(records, point):
    rs = [r for r in records if r.point == point]
    return (
        float(np.mean([r.t_eqm for r in rs])),
        float(np.mean([r.c_eqm for r in rs])),
    )


def test_criterion_4_transformation_trend():
    records = _close_to_moderate_records()
    t0, c0 = _point_means(records, 0.0)
    t9, c9 = _point_means(records, 0.9)
    ok = c9 <= 0.6 * c0 and t9 >= 3.0 * t0
    _report(
        ok,
        "criterion 4 (close-to-moderate trend, 80/20, n=200, 5 seeds): "
        f"mean c_eqm {c0} -> {c9} (cap {0.6 * c0:.1f}), "
        f"mean t_eqm {t0} -> {t9} (floor {3.0 * t0:.1f})",
    )


def test_criterion_5_all_moderate_collapse():
    records = _close_to_moderate_records()
    t98, _ = _point_means(records, 0.98)
    t1, c1 = _point_means(records, 1.0)
    ok = c1 <= 5 and t1 < t98
    _report(
        ok,
        "criterion 5 (all-moderate collapse): fraction 1.0 gives "
        f"mean c_eqm = {c1} (cap 5) and mean t_eqm = {t1} "
        f"vs {t98} at fraction 0.98",
    )


def _mixed_cluster_seeds(fractions):
    hits = 0
    for seed in range(5):
        pop = clipped_normal_mixture(
            MixtureSpec(n=200, fractions=fractions, rng_seed=seed)
        )
        result = simulate(pop)
        labels = oracles.cluster_labels(result.trajectory[-1])
        members = {}
        for minded, label in zip(result.agents.mindedness, labels):
            members.setdefault(label, set()).add(M(minded))
        if any({M.CLOSE, M.OPEN} <= kinds for kinds in members.values()):
            hits += 1
    return hits


def test_criterion_6_mixed_cluster_formation():
    with_moderates = _mixed_cluster_seeds(
        {M.CLOSE: 0.2, M.MODERATE: 0.45, M.OPEN: 0.35}
    )
    without = _mixed_cluster_seeds({M.CLOSE: 0.2, M.OPEN: 0.8})
    ok = with_moderates >= 3 and (5 - without) >= 3
    _report(
        ok,
        "criterion 6 (mixed clusters, n=200, 5 seeds): 20/45/35 mixes "
        f"close+open in {with_moderates}/5 seeds (need >= 3); 20/80 stays "
        f"unmixed in {5 - without}/5 seeds (need >= 3)",
    )


def test_criterion_7_intelligent_vs_random_placement():
    spec = SweepSpec(
        kind=SweepKind.PLACEMENT_COMPARE,
        grid=[1.0],
        population_sizes=[200],
        runs=5,
        base_mixture=MixtureSpec(
            n=200, fractions={M.CLOSE: 0.5, M.OPEN: 0.5}, rng_seed=0
        ),
        placement=PlacementConfig(budget=0),
    )
    records = run_sweep(spec)
    smart = next(r for r in records if r.strategy is Strategy.INTELLIGENT)
    random = [r for r in records if r.strategy is Strategy.RANDOM_AT_START]
    mean_c = float(np.mean([r.c_eqm for r in random]))
    mean_t = float(np.mean([r.t_eqm for r in random]))
    ok = smart.c_eqm < mean_c and smart.t_eqm > mean_t and smart.c_eqm <= 0.5 * mean_c
    _report(
        ok,
        "criterion 7 (intelligent vs random, 50/50, n=200, budget 200): "
        f"intelligent c_eqm = {smart.c_eqm} vs random mean {mean_c} "
        f"(target <= {0.5 * mean_c}), intelligent t_eqm = {smart.t_eqm} "
        f"vs random mean {mean_t} (need greater), spent {smart.budget_spent}",
    )


def _random_population(rng, n_max=12):
    n = int(rng.integers(2, n_max + 1))
    return Population.from_arrays(rng.uniform(0, 1, n), rng.uniform(0, 0.6, n))


def _battery_hull(rng):
    pop = _random_population(rng)
    rule = Rule.HK if rng.integers(2) == 0 else Rule.HK_MOD
    out = _step(pop, rule, 0.7)
    x = pop.opinions
    return out.min() >= x.min() - 1e-12 and out.max() <= x.max() + 1e-12


def _battery_order(rng):
    n = int(rng.integers(2, 13))
    pop = Population.from_arrays(
        np.sort(rng.uniform(0, 1, n)), [float(rng.uniform(0.01, 0.6))] * n
    )
    return bool(np.all(np.diff(_step(pop)) >= -1e-12))


def _battery_self_membership(rng):
    pop = _random_population(rng)
    g = build_graph(pop)
    return all(i in g.neighbors(i) for i in range(pop.n))


def _battery_graph_coherence(rng):
    pop = _random_population(rng)
    g = build_graph(pop)
    x, eps = pop.opinions.tolist(), pop.epsilons.tolist()
    return all(
        g.neighbors(i).tolist() == oracles.neighbors(x, eps, i)
        for i in range(pop.n)
    )


def _battery_reciprocal_weights(rng):
    pop = _random_population(rng)
    x, eps = pop.opinions.tolist(), pop.epsilons.tolist()
    sizes = np.array([len(oracles.neighbors(x, eps, i)) for i in range(pop.n)], dtype=float)
    weighted = _step_arrays(pop.opinions, pop.epsilons, Rule.HK_MOD, 1.0 / sizes)
    return float(np.abs(_step(pop) - weighted).max()) <= 1e-12


def _battery_budget(rng):
    pop = _random_population(rng, n_max=8)
    budget = int(rng.integers(0, 6))
    dyn = DynamicsConfig(max_steps=40)
    result, events = run_with_placement(pop, dyn, PlacementConfig(budget=budget))
    spent = budget_spent(events)
    return (
        spent <= budget
        and result.agents.n == pop.n + spent
        and all(e.count >= 1 for e in events)
        and all(0.0 <= e.opinion <= 1.0 for e in events)
    )


def _battery_determinism(rng):
    pop = _random_population(rng, n_max=8)
    dyn = DynamicsConfig(max_steps=25)
    a, b = simulate(pop, dyn), simulate(pop, dyn)
    same = (
        a.t_eqm == b.t_eqm
        and a.c_eqm == b.c_eqm
        and len(a.trajectory) == len(b.trajectory)
        and all(np.array_equal(p, q) for p, q in zip(a.trajectory, b.trajectory))
    )
    seed = int(rng.integers(0, 1 << 30))
    cfg = PlacementConfig(budget=2, strategy=Strategy.RANDOM_AT_START, rng_seed=seed)
    ra, _ = run_with_placement(pop, dyn, cfg)
    rb, _ = run_with_placement(pop, dyn, cfg)
    return same and all(
        np.array_equal(p, q) for p, q in zip(ra.trajectory, rb.trajectory)
    )


def _battery_regular_degree(rng):
    while True:
        n = int(rng.integers(3, 41))
        eps = float(rng.uniform(0.01, 1.0))
        # resample instances that land on an FP knife edge of the
        # floor(eps * (n - 1)) window radius
        if abs(eps * (n - 1) - round(eps * (n - 1))) > 1e-9:
            break
    g = build_graph(evenly_spaced(n, eps))
    k = oracles.regular_degree_check(n, eps)
    half = (k - 1) // 2
    degrees = [len(g.neighbors(i)) for i in range(n)]
    return all(degrees[i] == k for i in range(half, n - half))


def test_criterion_8_invariant_battery():
    suites = {
        "hull": _battery_hull,
        "order": _battery_order,
        "self-membership": _battery_self_membership,
        "graph-coherence": _battery_graph_coherence,
        "reciprocal-weights": _battery_reciprocal_weights,
        "budget": _battery_budget,
        "determinism": _battery_determinism,
        "regular-degree": _battery_regular_degree,
    }
    failures = {}
    for name, check in suites.items():
        rng = np.random.default_rng(abs(hash(name)) % (1 << 31))
        failures[name] = sum(1 for _ in range(1000) if not check(rng))
    ok = sum(failures.values()) == 0
    _report(
        ok,
        "criterion 8 (invariant battery, 1000 instances per suite): "
        f"failures {failures}",
    )


def test_criterion_9_open_core_with_pendant_closes():
    single_scc = 0
    fractions = []
    for seed in range(5):
        pop = clipped_normal_mixture(
            MixtureSpec(n=200, fractions={M.CLOSE: 0.5, M.OPEN: 0.5}, rng_seed=seed)
        )
        g = build_graph(pop)
        components = strongly_connected_components(g)
        open_comps = sum(
            1
            for comp in components
            if any(pop.mindedness[v] == M.OPEN for v in comp)
        )
        single_scc += open_comps == 1
        closes = np.flatnonzero(pop.mindedness == M.CLOSE).tolist()
        # pendant in-vertex or fully isolated: either way the only
        # out-edge is the self-loop
        lonely = sum(1 for i in closes if g.neighbors(i).tolist() == [i])
        fractions.append(lonely / len(closes))
    ok = single_scc == 5 and all(f >= 0.9 for f in fractions)
    _report(
        ok,
        "criterion 9 (graph structure, 50/50, n=200, 5 seeds): all opens "
        f"in one SCC for {single_scc}/5 seeds; pendant-or-isolated close "
        f"fractions {[round(f, 3) for f in fractions]} (need >= 0.9)",
    )


def test_cluster_count_matches_tolerance_contract():
    # sanity anchor for the counts the criteria above rely on: the
    # counter and the label set always agree
    rng = np.random.default_rng(99)
    for _ in range(200):
        profile = rng.uniform(0, 1, int(rng.integers(1, 30)))
        assert count_clusters(profile) == len(set(oracles.cluster_labels(profile)))
