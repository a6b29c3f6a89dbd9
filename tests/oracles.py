"""Naive reference implementations used as independent oracles.

Everything here is plain-Python loops over lists, written without
looking at the package internals: no shared helpers, no numpy
vectorization, SCCs via Kosaraju instead of reach ranges.  Slow on purpose;
tests keep the instances small.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction


def neighbors(x, eps, i):
    return [j for j in range(len(x)) if abs(x[j] - x[i]) <= eps[i]]


def step_hk(x, eps):
    out = []
    for i in range(len(x)):
        nb = neighbors(x, eps, i)
        out.append(sum(x[j] for j in nb) / len(nb))
    return out


def step_hk_mod(x, eps, w_own):
    out = []
    for i in range(len(x)):
        nb = [j for j in neighbors(x, eps, i) if j != i]
        if not nb:
            out.append(x[i])
        else:
            out.append(w_own * x[i] + (1.0 - w_own) * sum(x[j] for j in nb) / len(nb))
    return out


def simulate(x, eps, delta=1e-6, max_steps=1000, rule="hk", w_own=0.6):
    traj = [list(x)]
    t_eqm = None
    for t in range(max_steps):
        prev = traj[-1]
        nxt = step_hk(prev, eps) if rule == "hk" else step_hk_mod(prev, eps, w_own)
        traj.append(nxt)
        if max(abs(a - b) for a, b in zip(nxt, prev)) <= delta:
            t_eqm = t
            break
    return traj, t_eqm


def simulate_hk_exact(x, eps, delta=Fraction(1, 10**18), max_steps=1000):
    """The plain rule in exact rational arithmetic, from the floats' exact
    values; returns (t_eqm, final profile) with the same quiet test as
    simulate.  Each step sorts the profile and takes every neighbourhood
    sum from prefix sums, so n = 200 runs in a fraction of a second."""
    x = [Fraction(v) for v in x]
    eps = [Fraction(e) for e in eps]
    for t in range(max_steps):
        s = sorted(x)
        prefix = [Fraction(0)]
        for v in s:
            prefix.append(prefix[-1] + v)
        nxt = []
        for xi, ei in zip(x, eps):
            a = bisect.bisect_left(s, xi - ei)
            b = bisect.bisect_right(s, xi + ei)
            nxt.append((prefix[b] - prefix[a]) / (b - a))
        quiet = max(abs(p - q) for p, q in zip(nxt, x)) <= delta
        x = nxt
        if quiet:
            return t, x
    return None, x


def _pairwise(row):
    n = len(row)
    if n < 8:
        total = -0.0
        for v in row:
            total += v
        return total
    if n <= 128:
        r = list(row[:8])
        i = 8
        while i + 8 <= n:
            for k in range(8):
                r[k] += row[i + k]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in row[i:]:
            total += v
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise(row[:half]) + _pairwise(row[half:])


def pairwise_sum(row):
    """numpy's float64 row sum replayed in Python: reduce starts from 0.0
    and adds the pairwise sum of the row.  Fewer than 8 values are one
    running sum; up to 128 values run in eight accumulators, combined in
    a fixed tree before the tail is added; a longer row splits at half
    its length rounded down to a multiple of 8."""
    return 0.0 + _pairwise([float(v) for v in row])


def count_clusters(profile, tol=1e-3):
    s = sorted(profile)
    count = 1
    for a, b in zip(s, s[1:]):
        if b - a > tol:
            count += 1
    return count


def cluster_labels(profile, tol=1e-3):
    """Cluster index per agent, numbered left to right along the spectrum;
    tied opinions keep their roster order."""
    order = sorted(range(len(profile)), key=lambda i: profile[i])
    labels = [0] * len(profile)
    for prev, i in zip(order, order[1:]):
        labels[i] = labels[prev] + (profile[i] - profile[prev] > tol)
    return labels


def pulls(x, eps, i):
    left = sum(x[i] - x[j] for j in neighbors(x, eps, i) if x[j] < x[i])
    right = sum(x[j] - x[i] for j in neighbors(x, eps, i) if x[j] > x[i])
    return left, right


def regular_degree_check(n, epsilon):
    """Interior out-degree of an evenly spaced homogeneous population:
    min(n, 2 * floor(epsilon * (n - 1)) + 1)."""
    if n < 2:
        raise ValueError("need at least two agents")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return min(n, 2 * math.floor(epsilon * (n - 1)) + 1)


def out_edges(x, eps):
    return [neighbors(x, eps, i) for i in range(len(x))]


def sccs_kosaraju(adj):
    """SCC partition of an adjacency-list digraph, as a set of frozensets."""
    n = len(adj)
    radj = [[] for _ in range(n)]
    for i in range(n):
        for j in adj[i]:
            radj[j].append(i)
    seen = [False] * n
    order = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, iter(adj[s]))]
        seen[s] = True
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    comp = [-1] * n
    label = 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        stack = [s]
        comp[s] = label
        while stack:
            v = stack.pop()
            for w in radj[v]:
                if comp[w] == -1:
                    comp[w] = label
                    stack.append(w)
        label += 1
    groups = {}
    for v, c in enumerate(comp):
        groups.setdefault(c, set()).add(v)
    return {frozenset(g) for g in groups.values()}


def pendant_in_vertices(x, eps):
    adj = out_edges(x, eps)
    n = len(x)
    result = set()
    for i in range(n):
        if adj[i] != [i]:
            continue
        if any(i in adj[j] for j in range(n) if j != i):
            result.add(i)
    return result


def mindedness(e):
    """close below 0.17, moderate up to 0.22, open above."""
    if e < 0.17:
        return "close"
    return "moderate" if e <= 0.22 else "open"


def dot_text(x, eps):
    """The DOT export written one edge at a time: a label line per vertex,
    then "  i -> j;" for every edge but the self-loops, by i then j."""
    lines = ["digraph influence {"]
    for i in range(len(x)):
        lines.append(f'  {i} [label="{i}|{float(x[i])!r}|{mindedness(eps[i])}"];')
    for i, nb in enumerate(out_edges(x, eps)):
        for j in nb:
            if j != i:
                lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_text(x, eps):
    """The JSON export of the t = 0 graph with one [i, j] list per edge,
    self-loops included, by i then j."""
    payload = {
        "n": len(x),
        "t": 0,
        "vertices": [{"id": i, "opinion": float(x[i]), "epsilon": float(eps[i])} for i in range(len(x))],
        "edges": [[i, j] for i, nb in enumerate(out_edges(x, eps)) for j in nb],
    }
    return json.dumps(payload, indent=2) + "\n"


def trajectory_csv(trajectory, ids, eps, injected):
    """The trajectory CSV written one row at a time; an agent's rows
    start at the first profile long enough to hold it."""
    rows = ["t,agent_id,opinion,epsilon,mindedness,injected\n"]
    for t, profile in enumerate(trajectory):
        for k, x in enumerate(profile):
            flag = "true" if injected[k] else "false"
            rows.append(f"{t},{ids[k]},{float(x)!r},{float(eps[k])!r},{mindedness(eps[k])},{flag}\n")
    return "".join(rows)
