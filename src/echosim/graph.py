"""Directed influence graph over a population snapshot.

Vertex i carries a directed edge to every agent it listens to, so edges
point from the influenced to the influencer: (i -> j) iff j lies in i's
confidence interval.  Every vertex has a self-loop.  The graph is a
pure function of the opinion profile and epsilons at one time instant;
the structural analyses here (degrees, left/right pulls, strongly
connected components, pendant in-vertices) drive both the cluster
arguments and the placement scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Population, classify_all


@dataclass(frozen=True)
class PullDecomposition:
    """Total pull magnitudes on an agent from its out-neighbors on each side.

    sum_left aggregates x_i - x_k over neighbors k strictly to the left,
    sum_right aggregates x_k - x_i over neighbors strictly to the right;
    both are nonnegative and equal-opinion neighbors contribute to neither.
    """

    sum_left: float
    sum_right: float


@dataclass
class InfluenceGraph:
    n: int
    out_neighbors: list
    opinions: np.ndarray
    epsilons: np.ndarray
    timestamp: int = 0


def build_graph(pop: Population, t: int = 0) -> InfluenceGraph:
    return build_graph_arrays(pop.opinions, pop.epsilons, t)


def build_graph_arrays(x, eps, t: int = 0) -> InfluenceGraph:
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x.size == 0:
        raise ValueError("graph needs at least one agent")
    mask = np.abs(x[None, :] - x[:, None]) <= eps[:, None]
    out = [np.nonzero(mask[i])[0] for i in range(len(x))]
    return InfluenceGraph(
        n=len(x), out_neighbors=out, opinions=x.copy(), epsilons=eps.copy(), timestamp=t
    )


def out_degrees(g: InfluenceGraph) -> np.ndarray:
    return np.array([len(nb) for nb in g.out_neighbors], dtype=int)


def in_degrees(g: InfluenceGraph) -> np.ndarray:
    deg = np.zeros(g.n, dtype=int)
    for nb in g.out_neighbors:
        deg[nb] += 1
    return deg


def _pulls(x: np.ndarray, eps: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    # the one pull formula: pull and pulls_all must agree bit for bit,
    # because the placement scan qualifies pairs on exact comparisons
    d = x[None, :] - x[rows, None]  # d[r, k] = x_k - x_r
    mask = np.abs(d) <= eps[rows, None]
    right = np.where(mask & (d > 0.0), d, 0.0).sum(axis=1)
    left = np.where(mask & (d < 0.0), -d, 0.0).sum(axis=1)
    return left, right


def pull(g: InfluenceGraph, i: int) -> PullDecomposition:
    if not 0 <= i < g.n:
        raise ValueError(f"vertex {i} out of range")
    left, right = _pulls(g.opinions, g.epsilons, [i])
    return PullDecomposition(sum_left=float(left[0]), sum_right=float(right[0]))


def pulls_all(g: InfluenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized left/right pulls for every vertex at once."""
    return _pulls(g.opinions, g.epsilons, slice(None))


def strongly_connected_components(g: InfluenceGraph) -> list[set[int]]:
    """Tarjan SCCs, iterative so deep chains cannot hit the recursion
    limit.  Components are returned as a partition ordered by their
    smallest vertex."""
    n = g.n
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comps: list[set[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            descended = False
            nbrs = g.out_neighbors[v]
            for k in range(pi, len(nbrs)):
                w = int(nbrs[k])
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    comps.sort(key=min)
    return comps


def pendant_in_vertices(g: InfluenceGraph) -> set[int]:
    """Vertices whose only out-edge is the self-loop but that at least
    one other vertex points to: the signature of a close-minded agent
    sitting inside an open crowd."""
    indeg = np.zeros(g.n, dtype=int)
    for i, nb in enumerate(g.out_neighbors):
        for j in nb:
            if j != i:
                indeg[j] += 1
    return {
        i
        for i in range(g.n)
        if len(g.out_neighbors[i]) == 1 and indeg[i] >= 1
    }


def regular_degree_check(n: int, epsilon: float) -> int:
    """Interior out-degree of an evenly spaced homogeneous population:
    min(n, 2 * floor(epsilon * (n - 1)) + 1)."""
    if n < 2:
        raise ValueError("need at least two agents")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return min(n, 2 * int(np.floor(epsilon * (n - 1))) + 1)


def export_graph(g: InfluenceGraph, fmt: str = "dot") -> str:
    """Render the graph as DOT (self-loops omitted, vertex labels
    id|opinion|mindedness) or JSON (self-loops kept; round-trips through
    parse_graph_json)."""
    if fmt == "dot":
        lines = ["digraph influence {"]
        labels = zip(g.opinions.tolist(), classify_all(g.epsilons).tolist())
        lines.extend(f'  {i} [label="{i}|{x!r}|{m}"];' for i, (x, m) in enumerate(labels))
        for i in range(g.n):
            for j in g.out_neighbors[i]:
                if int(j) != i:
                    lines.append(f"  {i} -> {int(j)};")
        lines.append("}")
        return "\n".join(lines) + "\n"
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
            "edges": [[i, int(j)] for i in range(g.n) for j in g.out_neighbors[i]],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def parse_graph_json(text: str) -> InfluenceGraph:
    """Rebuild a graph from its JSON export; edges are taken as given,
    not recomputed, so export -> parse -> export is the identity."""
    payload = json.loads(text)
    n = int(payload["n"])
    verts = payload["vertices"]
    if len(verts) != n:
        raise ValueError("vertex count does not match n")
    opinions = np.array([v["opinion"] for v in verts], dtype=float)
    epsilons = np.array([v["epsilon"] for v in verts], dtype=float)
    out: list[list[int]] = [[] for _ in range(n)]
    for i, j in payload["edges"]:
        out[int(i)].append(int(j))
    return InfluenceGraph(
        n=n,
        out_neighbors=[np.array(sorted(nb), dtype=int) for nb in out],
        opinions=opinions,
        epsilons=epsilons,
        timestamp=int(payload["t"]),
    )
