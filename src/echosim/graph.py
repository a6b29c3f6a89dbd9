"""Directed influence graph over a population snapshot.

Vertex i carries a directed edge to every agent it listens to, so edges
point from the influenced to the influencer: (i -> j) iff j lies in i's
confidence interval.  Every vertex has a self-loop.  The graph is a
pure function of the opinion profile and epsilons at one time instant;
the structural analyses here (degrees, left/right pulls, strongly
connected components, pendant in-vertices) drive both the cluster
arguments and the placement scan.

Sorted by opinion, every agent's out-neighbours form one contiguous
window of the sort order, so a graph is held as that order plus two
window bounds per agent (core._windows; in a run, simulate builds them
once per step for both the update and the placement scan's graph): no
edge list and no n x n mask.  Building is O(n log n), degrees and
pendant in-vertices O(n), SCCs O(n log^2 n) at worst, pulls
O(n log n) at worst; export is linear in the edge count.  Pulls come
from the update step's window sums (core._window_sums), so every pull
is one fixed function of the sorted opinions, the placement scan's
exact comparisons hold, and there is no agent limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Population, _window_sums, _windows, classify_all


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


def build_graph_arrays(x, eps, t: int = 0) -> InfluenceGraph:
    """The graph on the exact predicate |x_j - x_i| <= eps_i, from the
    same sorted windows as the update step (core._windows)."""
    x = np.array(x, dtype=float)
    eps = np.array(eps, dtype=float)
    if x.size == 0:
        raise ValueError("graph needs at least one agent")
    if x.shape != eps.shape or x.ndim != 1:
        raise ValueError("opinions and epsilons must be 1-d and of equal length")
    if not (np.isfinite(x).all() and np.isfinite(eps).all() and (eps >= 0.0).all()):
        raise ValueError("opinions must be finite and epsilons finite and nonnegative")
    return InfluenceGraph(x, eps, *_windows(x, eps), t)


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


def _edge_lines(g: InfluenceGraph, i: int, names: np.ndarray) -> str:
    # one join per source over pre-formatted target names (an object array)
    nb = g.neighbors(i)
    head = f"  {i} -> "
    return head + f";\n{head}".join(names[nb[nb != i]].tolist()) + ";"


def export_graph(g: InfluenceGraph, fmt: str = "dot") -> str:
    """Render the graph as DOT (self-loops omitted, vertex labels
    id|opinion|mindedness) or JSON (vertices with their opinion and
    epsilon, and every edge [i, j] including self-loops)."""
    if fmt == "dot":
        lines = ["digraph influence {"]
        labels = zip(g.opinions.tolist(), classify_all(g.epsilons).tolist())
        lines.extend(f'  {i} [label="{i}|{x!r}|{m}"];' for i, (x, m) in enumerate(labels))
        names = np.array([str(j) for j in range(g.n)], dtype=object)
        lines.extend(_edge_lines(g, i, names) for i in np.flatnonzero(out_degrees(g) > 1).tolist())
        lines.append("}\n")
        return "\n".join(lines)
    if fmt == "json":
        payload = {
            "n": g.n,
            "t": g.timestamp,
            "vertices": [
                {
                    "id": i,
                    "opinion": float(g.opinions[i]),
                    "epsilon": float(g.epsilons[i]),
                }
                for i in range(g.n)
            ],
            "edges": [[i, j] for i in range(g.n) for j in g.neighbors(i).tolist()],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
