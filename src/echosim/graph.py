"""Directed influence graph over a population snapshot.

Vertex i carries a directed edge to every agent it listens to, so edges
point from the influenced to the influencer: (i -> j) iff j lies in i's
confidence interval.  Every vertex has a self-loop.  The graph is a
pure function of the opinion profile and epsilons at one time instant,
checked as a Population; the structural analyses here (degrees,
left/right pulls, strongly connected components, pendant in-vertices)
drive both the cluster arguments and the placement scan.

Sorted by opinion, every agent's out-neighbours form one contiguous
window of the sort order, so a graph is held as that order plus two
window bounds per agent: no edge list and no n x n mask.  _graph is the
one place where a windows record (core._windows) becomes a graph, for
build_graph_arrays and for the placement scan on each step of a run.
Building is O(n log n), degrees and pendant in-vertices O(n), SCCs
O(n log^2 n) at worst, pulls O(n log n) at worst; DOT and JSON export
share one edge writer that sorts and names each distinct window once,
and past that is linear in the edge count; its lines stream in vertex
order into core's text builder (core._text) or, from the CLI, into the
file.  Pulls come from the update step's window sums (core._window_sums),
so every pull is one fixed function of the sorted opinions, the placement
scan's exact comparisons hold, and there is no agent limit.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import Population, _text, _window_sums, _windows, classify_all


@dataclass(frozen=True)
class InfluenceGraph:
    """A snapshot as sorted-window neighbourhoods.

    order sorts the agents by opinion (stable); agent i's out-neighbours
    are the agents at sorted positions lo[i] .. hi[i] - 1.
    """

    opinions: np.ndarray
    epsilons: np.ndarray
    order: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    timestamp: int = 0

    @property
    def n(self) -> int:
        return len(self.opinions)

    def neighbors(self, i: int) -> np.ndarray:
        """Out-neighbours of vertex i in increasing index order."""
        return np.sort(self.order[self.lo[i] : self.hi[i]])

    @property
    def out_neighbors(self) -> list[np.ndarray]:
        """neighbors(i) for every vertex, built on each access: O(edges)
        time and memory, for callers that want explicit lists."""
        return [self.neighbors(i) for i in range(self.n)]


def build_graph(pop: Population, t: int = 0) -> InfluenceGraph:
    return build_graph_arrays(pop.opinions, pop.epsilons, t)


def _graph(x, eps, w, t: int) -> InfluenceGraph:
    return InfluenceGraph(x, eps, w.order, w.lo_r.take(w.run), w.hi_r.take(w.run), t)


def build_graph_arrays(x, eps, t: int = 0) -> InfluenceGraph:
    """The graph on the exact predicate |x_j - x_i| <= eps_i of the roster
    Population(x, eps), from the update step's sorted windows (core._windows)."""
    pop = Population(x, eps)
    return _graph(pop.opinions, pop.epsilons, _windows(pop.opinions, pop.epsilons), t)


def out_degrees(g: InfluenceGraph) -> np.ndarray:
    return g.hi - g.lo


def in_degrees(g: InfluenceGraph) -> np.ndarray:
    # each window adds one to the positions it covers: a difference array
    n = g.n
    cover = np.cumsum(np.bincount(g.lo, minlength=n + 1) - np.bincount(g.hi, minlength=n + 1))
    deg = np.empty(n, dtype=np.intp)
    deg[g.order] = cover[:n]
    return deg


def _pulls(g: InfluenceGraph, rows) -> tuple[np.ndarray, np.ndarray]:
    """Left and right pulls of the given rows: left sums x_i - x_k over the
    out-neighbours k strictly below x_i, right sums x_k - x_i over those
    strictly above; equal opinions add to neither.  Both neighbour sums
    come from one call to the update step's window sums
    (core._window_sums), at O(n log n) at worst and with no agent limit.
    A window's sum does not depend on which other windows are asked for,
    so a row's pulls do not depend on which other rows are asked for: the
    placement scan, the injection sizing and pulls_all agree bit for bit,
    as the scan's exact comparisons need."""
    s = g.opinions[g.order]
    x = g.opinions[rows]
    lo, hi = g.lo[rows], g.hi[rows]
    # the agents tied with x_i sit at sorted positions [mid_lo, mid_hi)
    mid_lo, mid_hi = np.searchsorted(s, x, "left"), np.searchsorted(s, x, "right")
    below, above = np.split(_window_sums(s, np.concatenate([lo, mid_hi]), np.concatenate([mid_lo, hi])), 2)
    return (mid_lo - lo) * x - below, above - (hi - mid_hi) * x


def pulls_all(g: InfluenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized left/right pulls for every vertex at once."""
    return _pulls(g, slice(None))


def _range_reduce(ufunc, values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ufunc.reduce(values[a_k:b_k]) for every query k (all b > a), from
    a sparse table: level k holds the reduction over 2**k entries."""
    n = len(values)
    table = [values]
    span = 1
    while 2 * span <= n:
        prev = table[-1]
        table.append(np.concatenate([ufunc(prev[:-span], prev[span:]), prev[n - span :]]))
        span *= 2
    table = np.stack(table)
    level = np.frexp(b - a)[1] - 1  # floor(log2(b - a))
    return ufunc(table[level, a], table[level, b - (1 << level)])


def _reach_ranges(g: InfluenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per sorted position, the range [L, H) of sorted positions it can
    reach.  Every window holds its own vertex, so reach sets are ranges;
    each round replaces a range by the union of the ranges of what it
    covers, doubling the path length, until nothing moves."""
    L, H = g.lo[g.order], g.hi[g.order]
    while True:
        L2 = _range_reduce(np.minimum, L, L, H)
        H2 = _range_reduce(np.maximum, H, L, H)
        if np.array_equal(L2, L) and np.array_equal(H2, H):
            return L, H
        L, H = L2, H2


def strongly_connected_components(g: InfluenceGraph) -> list[set[int]]:
    """Two vertices share an SCC exactly when their reach ranges are
    equal: each lies in its own range, so each reaches the other.
    Components are returned as a partition ordered by their smallest
    vertex."""
    L, H = _reach_ranges(g)
    key = np.empty(g.n, dtype=np.int64)
    key[g.order] = L * (g.n + 1) + H
    comps: dict[int, set[int]] = {}  # first seen, so ordered by smallest vertex
    for v, k in enumerate(key.tolist()):
        comps.setdefault(k, set()).add(v)
    return list(comps.values())


def pendant_in_vertices(g: InfluenceGraph) -> set[int]:
    """Vertices whose only out-edge is the self-loop but that at least
    one other vertex points to: the signature of a close-minded agent
    sitting inside an open crowd."""
    pendant = (out_degrees(g) == 1) & (in_degrees(g) >= 2)  # self-loop counts once
    return set(np.flatnonzero(pendant).tolist())


def _edge_lines(g: InfluenceGraph, head: str, tail: str, join: str, loops: bool) -> Iterator[str]:
    """One line per vertex with an edge to write, in vertex order, each
    after the first led by join: its edges (i, j), j increasing, each as
    head.format(i) + "j" + tail, joined by join; self-loops only if loops.

    Vertices that share a window (lo, hi) share its sorted target names,
    so each distinct window is sorted and named once, at its first
    vertex, and dropped after its last; only the windows between those
    two are alive.  A line is one join of that shared list, with its
    first name carrying the head and its last the tail for that join
    only; without self-loops the vertex's own name is popped for it."""
    names = np.array([str(j) for j in range(g.n)], dtype=object)
    sources = np.flatnonzero(out_degrees(g) > (0 if loops else 1))
    lo, hi = g.lo[sources], g.hi[sources]
    _, window, uses = np.unique(lo * (g.n + 1) + hi, return_inverse=True, return_counts=True)
    uses = uses.tolist()
    alive: dict[int, tuple[np.ndarray, list[str]]] = {}
    lead = ""
    for i, w, a, b in zip(sources.tolist(), window.tolist(), lo.tolist(), hi.tolist()):
        if w not in alive:
            targets = np.sort(g.order[a:b])
            alive[w] = targets, names[targets].tolist()
        uses[w] -= 1
        targets, target_names = alive[w] if uses[w] else alive.pop(w)
        first = head.format(i)
        if not loops:
            k = int(targets.searchsorted(i))
            own = target_names.pop(k)
        start, end = target_names[0], target_names[-1]
        target_names[0] = lead + first + start
        target_names[-1] += tail
        yield f"{tail}{join}{first}".join(target_names)
        target_names[0], target_names[-1] = start, end
        lead = join
        if not loops:
            target_names.insert(k, own)


def _export(g: InfluenceGraph, fmt: str) -> Iterator[str]:
    """export_graph's text as a stream of nonempty chunks: its head, its
    edge lines (each after the first led by their join), then its end."""
    if fmt == "dot":
        labels = enumerate(zip(g.opinions.tolist(), classify_all(g.epsilons).tolist()))
        head = "\n".join(["digraph influence {", *(f'  {i} [label="{i}|{x!r}|{m}"];' for i, (x, m) in labels)])
        # each edge line carries its leading newline, so lines join with ""
        lines = _edge_lines(g, "\n  {} -> ", ";", "", loops=False)
        end = "\n}\n"
    elif fmt == "json":
        values = zip(g.opinions.tolist(), g.epsilons.tolist())
        vertices = [{"id": i, "opinion": x, "epsilon": e} for i, (x, e) in enumerate(values)]
        payload = json.dumps({"n": g.n, "t": g.timestamp, "vertices": vertices}, indent=2)
        # the edges as indent=2 writes them, in place of the payload's closing "\n}"
        head = f'{payload[:-2]},\n  "edges": [\n'
        lines = _edge_lines(g, "    [\n      {},\n      ", "\n    ]", ",\n", loops=True)
        end = "\n  ]\n}\n"
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return chain([head], lines, [end])


def export_graph(g: InfluenceGraph, fmt: str = "dot") -> str:
    """Render the graph as DOT (self-loops omitted, vertex labels
    id|opinion|mindedness) or JSON (vertices with their opinion and
    epsilon, and every edge [i, j] including self-loops).  The edge
    lines stream into core's text builder (core._text), so the text is
    held about once."""
    return _text(_export(g, fmt), g.n)
