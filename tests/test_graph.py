"""Unit, golden and property tests for the influence-graph module."""

import json
import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from echosim import (
    Mindedness,
    MixtureSpec,
    Population,
    build_graph,
    classify_all,
    clipped_normal_mixture,
    export_graph,
    find_converging_pairs,
    in_degrees,
    out_degrees,
    pendant_in_vertices,
    pulls_all,
    strongly_connected_components,
)
from echosim.graph import _pulls, build_graph_arrays

TEN = [0.1, 0.2, 0.4, 0.4, 0.5, 0.7, 0.7, 0.8, 0.8, 1.0]

# three agents: 0 and 1 mutual neighbors, 2 listens to both, nobody
# listens to 2.  Intervals avoid exact FP boundaries (0.8 - 0.2 rounds
# above 0.6, 0.4 - 0.2 rounds above 0.2).
TRI_X = [0.2, 0.4, 0.8]
TRI_EPS = [0.21, 0.21, 0.61]


def _dot_rosters():
    rng = np.random.default_rng(23)
    spaced = np.linspace(0.0, 1.0, 105).tolist()
    ties = (rng.integers(0, 9, 60) / 8).tolist()
    return {
        # names 1 to 4 digits wide, narrow windows
        "ids past 1000": (rng.random(1003).tolist(), rng.choice([0.0, 0.002, 0.01], 1003).tolist()),
        # every vertex shares the one window: its own name is first,
        # in the middle or last
        "one shared window": (spaced, [1.0] * 105),
        # 3, 7 and 12 share the window {3, 5, 7, 10, 12} beside other
        # windows: their own names, 1 and 2 digits wide, come first, in the
        # middle and last of its shared name list
        "a shared window among others": (
            [0.9, 0.55, 0.75, 0.22, 0.6, 0.23, 0.86, 0.24, 0.65, 0.7, 0.21, 0.5, 0.2, 0.8],
            [0.05, 0.3, 0.0, 0.1, 0.05, 0.0, 0.3, 0.1, 0.0, 0.05, 0.7, 0.05, 0.1, 0.27],
        ),
        # eps 0 leaves a vertex with only its self-loop, and no edge line
        "eps 0 skips": (spaced, [0.0, 0.0, 0.01, 0.0, 0.2] * 21),
        "runs of ties": (ties, rng.choice([0.0, 0.125, 0.3, 1.0], 60).tolist()),
        "one agent": ([0.5], [0.1]),
    }


DOT_ROSTERS = _dot_rosters()


def tri_graph():
    return build_graph(Population.from_arrays(TRI_X, TRI_EPS))


def to_networkx(g):
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    for i in range(g.n):
        h.add_edges_from((i, j) for j in g.neighbors(i).tolist())
    return h


class TestBuild:
    def test_three_agent_structure(self):
        g = tri_graph()
        assert [g.neighbors(i).tolist() for i in range(g.n)] == [[0, 1], [0, 1], [0, 1, 2]]

    def test_out_degree_matches_neighborhood_size(self):
        pop = Population.from_arrays(TEN, [0.25] * 10)
        g = build_graph(pop)
        deg = out_degrees(g)
        for i in range(pop.n):
            assert deg[i] == len(oracles.neighbors(TEN, [0.25] * 10, i))
        assert deg[4] == 5

    def test_single_agent(self):
        g = build_graph_arrays([0.5], [0.1])
        assert g.n == 1
        assert g.neighbors(0).tolist() == [0]
        assert strongly_connected_components(g) == [{0}]
        assert pendant_in_vertices(g) == set()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_graph_arrays([], [])

    @pytest.mark.parametrize(
        "x, eps",
        [
            ([0.5, np.nan], [0.1, 0.1]),
            ([0.5, 0.6], [0.1, np.inf]),
            ([0.5, 0.6], [0.1, -0.1]),
            ([0.5], [0.1, 0.1]),
            ([0.2, 1.5], [0.1, 0.1]),
        ],
    )
    def test_bad_inputs_rejected(self, x, eps):
        # a snapshot is checked as a Population, like any roster
        with pytest.raises(ValueError):
            build_graph_arrays(x, eps)

    def test_out_neighbors_lists_every_vertex(self):
        g = build_graph_arrays(TEN, [0.25, 0.0, 0.1, 0.3, 0.05, 0.2, 0.0, 0.45, 0.1, 0.15])
        got = g.out_neighbors
        assert len(got) == g.n
        assert all(np.array_equal(a, g.neighbors(i)) for i, a in enumerate(got))

    def test_in_degrees(self):
        g = tri_graph()
        assert list(in_degrees(g)) == [3, 3, 1]  # self-loops counted


class TestPull:
    def test_worked_pair(self):
        # agent at 0.4 seeing 0.3, 0.5, 0.6: left pull 0.1, right 0.1 + 0.2
        g = build_graph_arrays([0.3, 0.4, 0.5, 0.6], [0.05, 0.3, 0.05, 0.05])
        left, right = pulls_all(g)
        assert abs(left[1] - 0.1) <= 1e-12
        assert abs(right[1] - 0.3) <= 1e-12

    def test_isolated_agent_zero(self):
        g = build_graph_arrays([0.1, 0.9], [0.05, 0.05])
        left, right = pulls_all(g)
        assert left[0] == 0.0 and right[0] == 0.0

    def test_symmetric_neighborhood_balances(self):
        g = build_graph_arrays([0.3, 0.5, 0.7], [0.0, 0.25, 0.0])
        left, right = pulls_all(g)
        assert abs(left[1] - right[1]) <= 1e-12

    def test_equal_opinion_neighbor_contributes_nothing(self):
        g = build_graph_arrays([0.5, 0.5, 0.6], [0.2, 0.2, 0.2])
        left, right = pulls_all(g)
        assert left[0] == 0.0
        assert abs(right[0] - 0.1) <= 1e-12

    def test_pulls_all_matches_pull(self):
        # the placement scan and the injection sizing ask for a few rows
        g = build_graph(Population.from_arrays(TEN, [0.25] * 10))
        left, right = pulls_all(g)
        for i in range(g.n):
            rows = [i, (i + 1) % g.n]
            assert [a.tolist() for a in _pulls(g, rows)] == [left[rows].tolist(), right[rows].tolist()]


class TestScc:
    def test_three_agent_partition(self):
        assert strongly_connected_components(tri_graph()) == [{0, 1}, {2}]

    def test_full_interval_single_component(self):
        g = build_graph_arrays(np.linspace(0, 1, 12), [1.0] * 12)
        assert strongly_connected_components(g) == [set(range(12))]

    def test_far_agents_are_singletons(self):
        g = build_graph_arrays([0.1, 0.9], [0.01, 0.01])
        assert strongly_connected_components(g) == [{0}, {1}]

    def test_partition_property(self):
        g = build_graph(Population.from_arrays(TEN, [0.25] * 10))
        comps = strongly_connected_components(g)
        seen = set()
        for c in comps:
            assert not (c & seen)
            seen |= c
        assert seen == set(range(g.n))

    def test_matches_kosaraju_and_networkx(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 16))
            x = rng.uniform(0, 1, n)
            eps = rng.uniform(0, 0.5, n)
            g = build_graph_arrays(x, eps)
            got = {frozenset(c) for c in strongly_connected_components(g)}
            adj = [g.neighbors(i).tolist() for i in range(g.n)]
            assert got == oracles.sccs_kosaraju(adj)
            assert got == {frozenset(c) for c in nx.strongly_connected_components(to_networkx(g))}


class TestPendant:
    def test_close_agent_inside_open_crowd(self):
        # a single close agent parked at 0.365 among opens: its only
        # out-edge is the self-loop, the opens all point at it
        x = [0.365, 0.3, 0.45, 0.55, 0.7]
        eps = [0.01, 0.45, 0.45, 0.45, 0.45]
        g = build_graph_arrays(x, eps)
        assert 0 in pendant_in_vertices(g)

    def test_fully_isolated_agent_excluded(self):
        g = build_graph_arrays([0.0, 1.0], [0.05, 0.05])
        assert pendant_in_vertices(g) == set()

    def test_homogeneous_full_interval_none(self):
        g = build_graph_arrays(np.linspace(0, 1, 8), [1.0] * 8)
        assert pendant_in_vertices(g) == set()

    def test_mutual_closes_not_pendant(self):
        # two close agents in each other's interval fail the
        # single-out-edge condition even inside an open crowd
        x = [0.36, 0.37, 0.3, 0.5, 0.7]
        eps = [0.02, 0.02, 0.45, 0.45, 0.45]
        g = build_graph_arrays(x, eps)
        assert pendant_in_vertices(g) & {0, 1} == set()

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 14))
            x = rng.uniform(0, 1, n)
            eps = rng.choice([0.01, 0.2, 0.45], n)
            g = build_graph_arrays(x, eps)
            assert pendant_in_vertices(g) == oracles.pendant_in_vertices(list(x), list(eps))


class TestRegularDegree:
    def test_known_value(self):
        assert oracles.regular_degree_check(11, 0.25) == 5

    def test_zero_epsilon(self):
        assert oracles.regular_degree_check(10, 0.0) == 1

    def test_full_epsilon_caps_at_n(self):
        assert oracles.regular_degree_check(10, 1.0) == 10

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            oracles.regular_degree_check(1, 0.5)

    def test_interior_degrees_match(self):
        # interior agents of an evenly spaced homogeneous population
        # have exactly the predicted out-degree
        # pairs chosen so eps * (n - 1) sits safely between integers
        for n, eps in [(11, 0.25), (21, 0.13), (30, 0.3)]:
            g = build_graph_arrays(np.linspace(0, 1, n), [eps] * n)
            k = oracles.regular_degree_check(n, eps)
            deg = out_degrees(g)
            half = (k - 1) // 2
            for i in range(half, n - half):
                assert deg[i] == k


class TestExport:
    def test_dot_structure(self):
        # the whole text, trailing newline included: eps 0.21 sits in the
        # moderate band, and self-loops are omitted in DOT
        assert export_graph(tri_graph(), "dot") == (
            "digraph influence {\n"
            '  0 [label="0|0.2|moderate"];\n'
            '  1 [label="1|0.4|moderate"];\n'
            '  2 [label="2|0.8|open"];\n'
            "  0 -> 1;\n"
            "  1 -> 0;\n"
            "  2 -> 0;\n"
            "  2 -> 1;\n"
            "}\n"
        )

    def test_dot_single_vertex_no_edges(self):
        text = export_graph(build_graph_arrays([0.5], [0.1]), "dot")
        assert "->" not in text

    @pytest.mark.parametrize(
        "name, fmt",
        # ids: the roster's name, and "<name>-json" for the JSON text
        [pytest.param(name, "dot", id=name) for name in sorted(DOT_ROSTERS)]
        + [pytest.param(name, "json", id=f"{name}-json") for name in sorted(DOT_ROSTERS)],
    )
    def test_dot_text_matches_a_plain_edge_writer(self, name, fmt):
        x, eps = DOT_ROSTERS[name]
        want = {"dot": oracles.dot_text, "json": oracles.json_text}[fmt]
        assert export_graph(build_graph_arrays(x, eps), fmt) == want(x, eps)

    @pytest.mark.parametrize(
        "fmt, n, bound",
        [
            pytest.param("dot", 300, 1.5, id="dot"),
            pytest.param("json", 300, 1.5, id="json"),
            pytest.param("dot", 2000, 1.25, id="dot-n2000"),
            pytest.param("json", 2000, 1.25, id="json-n2000"),
        ],
    )
    def test_export_peak_memory_near_one_text(self, fmt, n, bound):
        # the edge lines stream into one growing text, a window's names are
        # alive only from its first vertex to its last, and no Python object
        # is built per edge, so the traced peak, the text included, stays
        # near the text; the small graph's names weigh more against it
        spec = MixtureSpec(n=n, fractions={"close": 0.5, "open": 0.5}, rng_seed=1)
        g = build_graph(clipped_normal_mixture(spec))
        tracemalloc.start()
        try:
            text = export_graph(g, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(text), f"{fmt} peak {peak / len(text):.2f} x its text"

    def test_json_edges_match_oracle(self):
        eps = [0.25] * 10
        payload = json.loads(export_graph(build_graph(Population.from_arrays(TEN, eps)), "json"))
        assert payload["edges"] == [[i, j] for i, nb in enumerate(oracles.out_edges(TEN, eps)) for j in nb]

    def test_json_contains_self_loops(self):
        payload = json.loads(export_graph(tri_graph(), "json"))
        assert payload["n"] == 3
        assert [2, 2] in payload["edges"]
        assert {"id": 0, "opinion": 0.2, "epsilon": 0.21} in payload["vertices"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export_graph(tri_graph(), "graphml")


def test_graph_layer_scales_near_linearly():
    # n = 1e5: a dense n x n float array would need 80 GB; the windows,
    # degrees, reach ranges, pendant scan, pulls and pair scan stay
    # near-linear
    n = 100_000
    pop = clipped_normal_mixture(
        MixtureSpec(n=n, fractions={"close": 0.4, "moderate": 0.2, "open": 0.4}, rng_seed=0)
    )
    start = time.perf_counter()
    g = build_graph(pop)
    out, inn = out_degrees(g), in_degrees(g)
    comps = strongly_connected_components(g)
    pendant = pendant_in_vertices(g)
    left, right = pulls_all(g)
    pairs = find_converging_pairs(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"graph layer took {elapsed:.2f} s at n = {n}"
    assert out.sum() == inn.sum() and out.min() >= 1
    assert sum(len(c) for c in comps) == n
    assert all(out[i] == 1 for i in pendant)
    assert (left >= 0.0).all() and (right >= 0.0).all()
    assert all(g.opinions[i] <= g.opinions[j] for i, j in pairs)


@st.composite
def graph_instances(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    x = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    eps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    return x, eps


@given(graph_instances())
def test_edges_coincide_with_neighborhoods(inst):
    x, eps = inst
    g = build_graph_arrays(x, eps)
    for i in range(g.n):
        assert g.neighbors(i).tolist() == oracles.neighbors(x, eps, i)


@given(graph_instances())
def test_self_loop_everywhere(inst):
    x, eps = inst
    g = build_graph_arrays(x, eps)
    for i in range(g.n):
        assert i in set(g.neighbors(i).tolist())


@given(graph_instances())
@settings(max_examples=60)
def test_scc_is_partition(inst):
    x, eps = inst
    g = build_graph_arrays(x, eps)
    comps = strongly_connected_components(g)
    seen = set()
    for c in comps:
        assert c and not (c & seen)
        seen |= c
    assert seen == set(range(g.n))
    adj = [g.neighbors(i).tolist() for i in range(g.n)]
    assert {frozenset(c) for c in comps} == oracles.sccs_kosaraju(adj)


@given(graph_instances())
def test_pull_signs_coherent(inst):
    x, eps = inst
    g = build_graph_arrays(x, eps)
    left, right = pulls_all(g)
    assert np.all(left >= 0.0) and np.all(right >= 0.0)
    for i in range(g.n):
        lo, ro = oracles.pulls(list(x), list(eps), i)
        assert abs(left[i] - lo) <= 1e-12
        assert abs(right[i] - ro) <= 1e-12


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=60),
    st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.45]), min_size=60, max_size=60),
)
def test_pull_equals_pulls_all_exactly(cents, eps):
    # opinions on a 0.01 grid: ties and boundary distances everywhere
    g = build_graph_arrays([c / 100 for c in cents], eps[: len(cents)])
    left, right = pulls_all(g)
    for i in range(g.n):
        rows = [i, (i + 1) % g.n]
        assert [a.tolist() for a in _pulls(g, rows)] == [left[rows].tolist(), right[rows].tolist()]


@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_regular_degree_formula_guarded(n, eps):
    # skip draws where eps*(n-1) sits within FP noise of an integer:
    # the floor in the formula and the boundary comparison in the graph
    # can then legitimately disagree
    scaled = eps * (n - 1)
    if abs(scaled - round(scaled)) < 1e-9:
        return
    k = oracles.regular_degree_check(n, eps)
    g = build_graph_arrays(np.linspace(0, 1, n), [eps] * n)
    deg = out_degrees(g)
    half = (k - 1) // 2
    for i in range(half, n - half):
        assert deg[i] == k


EPS_BANDS = [0.0, 0.01, 0.17, 0.22, 0.45, 1.0]


@st.composite
def grid_instances(draw):
    """Opinions on a 0.01 grid in runs of ties, epsilons on band edges."""
    runs = draw(
        st.lists(st.tuples(st.integers(0, 100), st.integers(1, 4)), min_size=1, max_size=12)
    )
    cents = [c for c, k in runs for _ in range(k)]
    perm = draw(st.permutations(range(len(cents))))
    x = [cents[p] / 100 for p in perm]
    eps = draw(st.lists(st.sampled_from(EPS_BANDS), min_size=len(x), max_size=len(x)))
    return x, eps


@given(grid_instances())
@settings(max_examples=150)
def test_windows_match_dense_oracle(inst):
    x, eps = inst
    g = build_graph_arrays(x, eps)
    adj = oracles.out_edges(x, eps)
    assert [g.neighbors(i).tolist() for i in range(g.n)] == adj
    assert out_degrees(g).tolist() == [len(nb) for nb in adj]
    assert in_degrees(g).tolist() == [sum(j in nb for nb in adj) for j in range(g.n)]
    assert {frozenset(c) for c in strongly_connected_components(g)} == oracles.sccs_kosaraju(adj)
    assert pendant_in_vertices(g) == oracles.pendant_in_vertices(x, eps)


@given(grid_instances())
@settings(max_examples=100)
def test_dot_and_json_edges_match_oracle(inst):
    x, eps = inst
    g = build_graph_arrays(x, eps)
    dot = export_graph(g, "dot").splitlines()
    edges = [tuple(map(int, line.strip(" ;").split(" -> "))) for line in dot if "->" in line]
    want = [(i, j) for i, nb in enumerate(oracles.out_edges(x, eps)) for j in nb]
    assert edges == [(i, j) for i, j in want if j != i]
    assert export_graph(g, "json") == oracles.json_text(x, eps)


@given(grid_instances())
@settings(max_examples=150)
def test_converging_pairs_match_full_pull_scan(inst):
    # the pairs the full pulls_all scan qualifies: sorted-adjacent opens,
    # the left one net-pulled right and the right one net-pulled left,
    # each named by its last twin (equal opinion and epsilon) in roster order
    x, eps = inst
    g = build_graph_arrays(x, eps)
    left, right = pulls_all(g)
    open_ = classify_all(eps) == Mindedness.OPEN
    order = np.argsort(x, kind="stable")

    def last_twin(i):
        return max(k for k in range(len(x)) if x[k] == x[i] and eps[k] == eps[i])

    want = [
        (last_twin(a), last_twin(b))
        for a, b in zip(order[:-1], order[1:])
        if open_[a] and open_[b] and left[a] < right[a] and left[b] > right[b]
    ]
    assert find_converging_pairs(g) == want
