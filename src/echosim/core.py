"""Bounded-confidence opinion dynamics on the unit interval.

Agents hold opinions in [0, 1]; agent i listens only to agents whose
opinion lies within its confidence interval epsilon_i.  Two synchronous
update rules are provided: the plain neighborhood mean, and a
self-weighted variant where an agent keeps a fraction w_own of its own
previous opinion and splits the rest over the other neighbors.  A run
is at equilibrium once no opinion moves by more than delta in a step;
clusters are maximal groups of opinions chained within cluster_tol.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# Mindedness band edges for the confidence interval.  Labels only:
# the dynamics always use the raw epsilon.
CLOSE_MAX = 0.17
MODERATE_MAX = 0.22

# The epsilon every default moderate agent gets (generated, converted or
# injected), and HK_MOD's default self weight.
MODERATE_EPSILON = 0.2
W_OWN = 0.6


class Mindedness(str, Enum):
    CLOSE = "close"
    MODERATE = "moderate"
    OPEN = "open"

    # numpy turns a scalar operand into str(member); returning the value
    # makes `labels == Mindedness.OPEN` compare label by label
    def __str__(self) -> str:
        return self.value


class Rule(str, Enum):
    HK = "hk"
    HK_MOD = "hk_mod"


_LABELS = np.array([m.value for m in Mindedness])  # close, moderate, open


def classify_all(epsilons) -> np.ndarray:
    """Mindedness label of each epsilon: close < 0.17 <= moderate <= 0.22
    < open.  Rejects negative and non-finite values."""
    eps = np.asarray(epsilons, dtype=float)
    bad = ~(np.isfinite(eps) & (eps >= 0.0))
    if bad.any():
        raise ValueError(f"epsilon must be finite and nonnegative, got {eps[bad][0]}")
    return _LABELS[(eps >= CLOSE_MAX).astype(np.intp) + (eps > MODERATE_MAX)]


def _require_range(name: str, value, least, most) -> None:
    # the one range error for a config number
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")


def require_finite(name: str, value, least=-np.inf, most=np.inf) -> None:
    """Reject anything but a finite real number in [least, most]; a bool
    is not one.  A strict bound, such as delta > 0, is the caller's."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    _require_range(name, value, least, most)


def require_int(name: str, value, least=0) -> None:
    """Reject anything but an integer in [least, 2**63 - 1]; a bool is
    not one.  Every integer key is a count, a step or a seed, and counts
    size int64 arrays and agent ids."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    _require_range(name, value, least, 2**63 - 1)


def require_member(name: str, value, enum):
    """The member of enum that value is or names, or an error naming the key."""
    try:
        return enum(value)
    except ValueError:
        raise ValueError(f"{name} must be one of {[m.value for m in enum]}, got {value!r}") from None


# each Population column's dtype, the numpy dtype kinds its values may
# have, and what those are
_COLUMNS = {
    "opinions": (float, "iuf", "numbers"),
    "epsilons": (float, "iuf", "numbers"),
    "injected": (bool, "b", "booleans"),
    "ids": (np.int64, "i", "int64 integers"),
}


def _column(name: str, values) -> np.ndarray:
    """A read-only 1-D copy of values as the column name, or an error
    naming the column and its first value of the wrong kind: such a value
    is rejected, not cast."""
    dtype, kinds, what = _COLUMNS[name]
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {a.shape}")
    # the values are checked one by one where the array's kind is wrong
    # (a huge int makes it object, or float beside a small one) or may
    # hide a bool, which numpy reads as 0 or 1 among numbers; a list's
    # own items are checked, as numpy may have cast them
    items = []
    if a.dtype.kind not in kinds:
        items = a.tolist() if isinstance(values, np.ndarray) else values
    elif kinds != "b" and not isinstance(values, np.ndarray) and {bool, np.bool_} & set(map(type, values)):
        items = values
    bad = [v for v in map(np.asarray, items) if v.dtype.kind not in kinds]
    if bad:
        raise ValueError(f"{name} must be {what}, got {bad[0].tolist()!r}")
    a = a.astype(dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Population:
    """Immutable roster of agents as four parallel read-only columns.

    Agent k has opinions[k], epsilons[k], injected[k] and ids[k].  ids
    must be unique integers and default to the positions 0..n-1, which is
    what every generator in this package produces; injected holds
    booleans and defaults to False.  mindedness is each agent's Mindedness
    value, derived from its epsilon (classify_all) on each access.
    """

    opinions: np.ndarray
    epsilons: np.ndarray
    injected: np.ndarray | None = None
    ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = _column("opinions", self.opinions)
        if x.size == 0:
            raise ValueError("population must contain at least one agent")
        n = x.size
        columns = {
            "opinions": x,
            "epsilons": _column("epsilons", self.epsilons),
            "injected": _column("injected", np.zeros(n, dtype=bool) if self.injected is None else self.injected),
            "ids": _column("ids", np.arange(n) if self.ids is None else self.ids),
        }
        if any(a.shape != (n,) for a in columns.values()):
            raise ValueError("opinions, epsilons, injected and ids must have equal length")
        inside = (x >= 0.0) & (x <= 1.0)
        if not inside.all():
            raise ValueError(f"opinions must lie in [0, 1], got {x[~inside][0]}")
        s = np.sort(columns["ids"])
        if np.any(s[1:] == s[:-1]):
            raise ValueError("agent ids must be unique")
        classify_all(columns["epsilons"])  # rejects a bad epsilon
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    @property
    def mindedness(self) -> np.ndarray:
        return classify_all(self.epsilons)

    @property
    def n(self) -> int:
        return len(self.opinions)

    # the same as Population(...), under the name the tests and perfbench use
    @classmethod
    def from_arrays(cls, opinions, epsilons, injected=None) -> "Population":
        return cls(opinions, epsilons, injected)

    def extended(self, opinions, epsilons) -> "Population":
        """Append injected agents with ids m + 1, m + 2, ... where m is the
        largest id so far (n - 1 for the default ids); none may pass int64."""
        k, m = len(opinions), int(self.ids.max())
        if m > np.iinfo(np.int64).max - k:
            raise ValueError(f"cannot add {k} agent ids after the largest id {m}: they would pass int64")
        return Population(
            np.concatenate([self.opinions, opinions]),
            np.concatenate([self.epsilons, np.broadcast_to(epsilons, k)]),
            np.concatenate([self.injected, np.ones(k, dtype=bool)]),
            np.concatenate([self.ids, m + 1 + np.arange(k)]),
        )


def _edge_margins(padded: np.ndarray, s: np.ndarray, c: np.ndarray, b: np.ndarray):
    """The one window-edge test, as the two margins of each edge c over
    sorted opinions s (padded[c] = s[c - 1], and -inf and inf at the ends):
    inside > 0 where fl(padded[c] - s) < b, outside < 0 where that holds at
    c + 1.  A float difference's sign is exact, so a sign is a comparison."""
    return b - (padded.take(c) - s), padded[1:].take(c) - s - b


def _settle(s: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Move each guess c[r, k] to the length of the prefix of sorted
    opinions s on which the edge test (_edge_margins) holds, a test of the
    value only and monotone in it (true at -inf), so a run of tied
    opinions holds or fails together and each move jumps it."""
    padded = np.concatenate([[-np.inf], s, [np.inf]])
    while True:
        inside, outside = _edge_margins(padded, s, c, b)
        back, fwd = inside <= 0.0, outside < 0.0
        if not (back | fwd).any():
            return c
        c = np.where(back, np.searchsorted(s, padded[c], "left"), c)
        c = np.where(fwd, np.searchsorted(s, padded[c + 1], "right"), c)


# the least gap above a tie: two opinions are in stable order when their
# gap is at least 0.0 with the lower index first, and at least this (so
# not tied) with it second
_TIE = np.nextafter(0.0, 1.0)


class _Windows(NamedTuple):
    """A profile's sorted windows and their step plan.  order is the stable
    opinion sort order.  The runs of equal windows in the sort order (such
    as a merged cluster that shares one epsilon) keep their bounds lo_r,
    hi_r, and run holds each agent's run index in agent order, so agent i
    listens to sorted positions [lo_r[run[i]], hi_r[run[i]]) and the step
    spreads its run values with one take.  Then the runs' block mask
    (_block_mask) and _windows_slack's pieces, in the sort order: _settle's
    window edges c, shape (2, n), the bounds c was settled on, each
    adjacent pair's tie threshold, and which adjacent pairs share a window
    with the lower index first."""

    order: np.ndarray
    lo_r: np.ndarray
    hi_r: np.ndarray
    run: np.ndarray
    mask: np.ndarray | None
    edges: np.ndarray
    bounds: np.ndarray
    ties: np.ndarray
    same: np.ndarray


def _windows(x: np.ndarray, eps: np.ndarray) -> _Windows:
    """The one neighbourhood representation: the record of x's sorted
    windows and their step plan (_Windows), a pure function of the opinions
    and epsilons, so a run keeps it while its windows hold.

    The bounds hold the exact predicate |x_j - x_i| <= eps_i: the agents
    below i's window, and those up to its end, are the prefixes of the sort
    order on which the edge test (_edge_margins) holds with bound -eps_i,
    and with the next float above eps_i.  searchsorted guesses both prefix
    lengths and _settle corrects them on that test, so ties and rounding
    fall where the dense predicate puts them; one scatter gives each
    agent's run.  eps is clamped at 2.0: each fl(x_j - x_i) lies in
    [-1, 1], so no window changes, and bounds and margins stay finite."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    e = np.minimum(eps[order], 2.0)
    b = np.array([-e, np.nextafter(e, np.inf)])
    c = _settle(s, np.searchsorted(s, s + b), b)
    lo_s, hi_s = c
    first = np.ones(len(s), dtype=bool)
    first[1:] = (lo_s[1:] != lo_s[:-1]) | (hi_s[1:] != hi_s[:-1])
    lo_r, hi_r = lo_s[first], hi_s[first]
    run = np.empty(len(s), dtype=c.dtype)
    run[order] = np.cumsum(first) - 1
    up = order[:-1] < order[1:]
    return _Windows(
        order, lo_r, hi_r, run, _block_mask(len(s), lo_r, hi_r),
        c, b, np.where(up, 0.0, _TIE), up & ~first[1:],
    )


def _windows_slack(x: np.ndarray, w: _Windows) -> float:
    """-1.0 when the windows w, built for an earlier profile, are not
    _windows(x, eps); otherwise their slack: the least margin of the tests
    that make them so, which every opinion may move less than half of
    before they could fail.

    The tests run in the sort order, each with a margin.  The order still
    sorts x stably when each adjacent gap is at least its tie threshold:
    0.0 when the lower index comes first, the least float above 0.0 when
    it comes second (argsort(kind="stable") exactly).  A gap of two tied
    agents with one window is left out of the slack: they take the same
    sum over the same count, and in simulate the same w_own, so they stay
    tied while the windows hold.  Each edge c (w.edges) is still _settle's
    only fixed point when the margins _settle reads (_edge_margins) have
    inside > 0 and outside >= 0.  Moving two opinions by at most m each
    moves a gap or a margin by at most 2m, so every test keeps its outcome
    while 2m, padded for rounding, stays below the slack."""
    s = x[w.order]
    gap = s[1:] - s[:-1]
    gap -= w.ties
    gap[w.same & (gap == 0.0)] = np.inf
    least = gap.min(initial=np.inf)
    if least < 0.0:
        return -1.0
    padded = np.concatenate([[-np.inf], s, [np.inf]])
    inside, outside = (m.min() for m in _edge_margins(padded, s, w.edges, w.bounds))
    if inside <= 0.0 or outside < 0.0:
        return -1.0
    return float(min(least, inside, outside))


# numpy sums a float row pairwise: a run of at most _LEAF values is one
# leaf, and a longer run is split at half its length rounded down to a
# multiple of 8.
_LEAF = 128
# a node whose masked block (windows x values) has at most _BLOCK cells,
# about 0.5 MB of float64, is summed as one block: below this size the
# recursion's fixed per-call cost outweighs the cells it saves
_BLOCK = 1 << 16


def _block_mask(m: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The masked block (windows x values) of the windows [lo, hi) over m
    values, true inside each window, when the block rule applies to it (at
    most _LEAF values or at most _BLOCK cells); None when it does not."""
    if m > _LEAF and len(lo) * m > _BLOCK:
        return None
    # each row is one run-length pattern: a false, b - a true, m - b false,
    # with [a, b) the window cut to [0, m) (the recursion passes bounds
    # relative to a node); np.clip would look up its limits on every call
    k = len(lo)
    counts = np.empty((k, 3), dtype=np.intp)
    a, b = counts[:, 0], counts[:, 1]
    np.minimum(np.maximum(lo, 0), m, out=a)
    np.minimum(np.maximum(hi, a), m, out=b)
    np.subtract(m, b, out=counts[:, 2])
    b -= a
    inside = np.zeros((k, 3), dtype=bool)
    inside[:, 1] = True
    return np.repeat(inside, counts.ravel()).reshape(k, m)


def _window_sums(s: np.ndarray, lo: np.ndarray, hi: np.ndarray, mask=None) -> np.ndarray:
    """sum(s[lo_i:hi_i]) for every window, in the order of numpy's pairwise
    sum of the row that holds s inside the window and zeros outside it:
    the row sum of the dense 0/1-mask kernel in the sort order, bit for
    bit.  A leaf (at most _LEAF values), and any node whose masked block
    has at most _BLOCK cells, is numpy's row reduce of that block, built
    in place: a block of +0.0 with s copied into the masked cells, the
    same bits as np.where(mask, s, 0.0), in less time.  This is
    bit-identical to recursing further: numpy reduces a contiguous row
    of any length along its own pairwise tree, the tree the recursion
    replays, so stopping early changes only which code walks the tree.
    Above a block, at numpy's own split, a zero adds exactly, so a half
    that a window covers adds the half's own sum (numpy's pairwise sum of
    that slice), a half it misses adds 0, and only the windows that cut a
    half recurse into it, with bounds relative to the half; a half that
    no window cuts is not entered.  A window cuts at most two nodes per
    level, so the cost is O(n log n).  An empty window sums to 0.0.  A
    window's sum does not depend on which other windows are asked for,
    so a caller may ask for each run once.  mask, when given, is
    _block_mask(len(s), lo, hi), built once for these windows (_Windows)."""
    m = len(s)
    if mask is None:
        mask = _block_mask(m, lo, hi)
    if mask is not None:
        block = np.zeros(mask.shape)
        np.copyto(block, s, where=mask)
        return np.add.reduce(block, axis=1)
    half = m // 2 - (m // 2) % 8
    out = 0.0
    for start, part in ((0, s[:half]), (half, s[half:])):
        end = start + len(part)
        covers = (lo <= start) & (hi >= end)
        cuts = (lo < end) & (hi > start) & ~covers
        sums = np.where(covers, part.sum(), 0.0)
        if cuts.any():
            sums[cuts] = _window_sums(part, lo[cuts] - start, hi[cuts] - start)
        out = out + sums
    return out


def _step_arrays(
    x: np.ndarray,
    eps: np.ndarray,
    rule: Rule = Rule.HK,
    w_own=W_OWN,
    w: _Windows | None = None,
) -> np.ndarray:
    """One synchronous update on raw arrays, from the windows and step
    plan w of (x, eps), built here by _windows(x, eps) unless passed in.

    The neighbourhood sums depend only on the sorted opinions, so a
    permuted population takes the permuted step bit for bit.  HK_MOD
    takes a scalar or per-agent w_own that its caller keeps in (0, 1]
    (w_own = 1/|N_i| recovers the plain rule); DynamicsConfig holds the
    configured value to (0.5, 1], so own opinion outweighs the rest.
    """
    if w is None:
        w = _windows(x, eps)
    # a run of equal windows takes its sum once
    sums = _window_sums(x[w.order], w.lo_r, w.hi_r, w.mask)
    if rule is Rule.HK:
        # no clip: rounding is monotone, so the pairwise sum of k values in
        # [0, 1] (zeros outside the window) lies in [0, k], and so does
        # the mean in [0, 1]
        return (sums / (w.hi_r - w.lo_r)).take(w.run)
    if rule is Rule.HK_MOD:
        own = np.asarray(w_own, dtype=float)
        others = (w.hi_r - w.lo_r).take(w.run) - 1
        other_sums = sums.take(w.run) - x
        # an agent alone in its interval keeps its opinion unchanged
        mean_others = np.where(others > 0, other_sums / np.maximum(others, 1), x)
        return (own * x + (1.0 - own) * mean_others).clip(0.0, 1.0)
    raise ValueError(f"unknown rule {rule!r}")


@dataclass
class DynamicsConfig:
    rule: Rule = Rule.HK
    w_own: float = W_OWN
    delta: float = 1e-6
    max_steps: int = 1000
    cluster_tol: float = 1e-3

    def __post_init__(self) -> None:
        self.rule = require_member("rule", self.rule, Rule)
        require_finite("delta", self.delta)
        require_finite("w_own", self.w_own)
        require_finite("cluster_tol", self.cluster_tol, least=0)
        require_int("max_steps", self.max_steps, least=1)
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.rule is Rule.HK_MOD and not 0.5 < self.w_own <= 1.0:
            raise ValueError("configured w_own must lie in (0.5, 1]")


@dataclass
class SimulationResult:
    """Trajectory plus equilibrium summary.

    trajectory[t] is the profile at time t; its length is t_eqm + 2 when
    converged (the profile at t_eqm and its quiet successor are both
    kept) and max_steps + 1 otherwise.  t_eqm is None when the run hit
    max_steps without settling, and converged is derived from it; c_eqm
    is then counted on the final profile anyway.  agents is the roster
    Population matching the trajectory columns: agents injected during
    the run are appended at the end, and a profile covers only the
    agents present at its step.
    """

    trajectory: list
    t_eqm: int | None
    c_eqm: int
    agents: Population

    @property
    def converged(self) -> bool:
        return self.t_eqm is not None


def simulate(
    pop: Population,
    cfg: DynamicsConfig | None = None,
    intervene=None,
) -> SimulationResult:
    """Run the configured rule until quiet (max move <= delta) or max_steps.

    Each step's windows record (_Windows: the sorted windows and their step
    plan) is the last step's while its windows still hold; otherwise the
    step builds a new one with _windows.  So a run whose neighbourhood
    structure has settled while its opinions still creep sorts, searches and
    plans nothing.  Whether they hold is checked against the new profile by
    _windows_slack, which also returns their slack.  moved adds up each
    step's max move (the quiet test's) plus 1e-15, more than the rounding of
    that max and of the sum, so it bounds how far any opinion has moved
    since the check.  While 2 * moved + 1e-12 (the rounding of the margins)
    stays below the slack, no test can have changed its outcome, and the
    step keeps its windows without checking.  A check resets moved; a step
    that builds windows, for a failed check or an injection, leaves the next
    step to check them.  Kept windows are exactly _windows(x, eps), so the
    trajectory is the same bit for bit as a loop of fresh
    _step_arrays(x, eps, rule, w_own) calls.

    intervene(t, x, eps, windows), when given, is called before each step
    with the current profile, epsilons and windows record, which the step's
    update then reuses (graph._graph makes it the step's graph).  It returns
    None, or the opinions and epsilons of agents to inject: they join the
    roster and the profile at t (rebuilding the record), take part in step
    t, and keep the run from counting step t as quiet.
    """
    cfg = cfg or DynamicsConfig()
    roster = pop
    x = pop.opinions.copy()
    eps = pop.epsilons
    windows = None
    slack, moved = -1.0, 0.0
    traj = [x]
    t_eqm = None
    for t in range(cfg.max_steps):
        if not 2.0 * moved + 1e-12 < slack:
            # step 0 has no windows to check
            slack = -1.0 if windows is None else _windows_slack(x, windows)
            moved = 0.0
            if slack < 0.0:
                windows = _windows(x, eps)
        added = intervene(t, x, eps, windows) if intervene else None
        if added is not None:
            roster = roster.extended(*added)
            x = np.concatenate([x, roster.opinions[len(x):]])
            eps = roster.epsilons
            traj[-1] = x
            windows, slack = _windows(x, eps), -1.0
        x1 = _step_arrays(x, eps, cfg.rule, cfg.w_own, windows)
        traj.append(x1)
        move = float(np.abs(x1 - x).max())
        if added is None and move <= cfg.delta:
            t_eqm = t
            break
        moved += move + 1e-15
        x = x1
    return SimulationResult(
        trajectory=traj,
        t_eqm=t_eqm,
        c_eqm=count_clusters(traj[-1], cfg.cluster_tol),
        agents=roster,
    )


def count_clusters(profile, tol: float = 1e-3) -> int:
    """Single-linkage cluster count: a gap > tol between sorted
    neighbors starts a new cluster.  profile must be a nonempty 1-D
    array of finite values, and tol a finite nonnegative number."""
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 1:
        raise ValueError(f"profile must be 1-D, got shape {profile.shape}")
    if profile.size == 0:
        raise ValueError("profile must be nonempty")
    if not np.isfinite(profile).all():
        raise ValueError("profile values must be finite")
    require_finite("tol", tol, least=0)
    s = np.sort(profile)
    return int(1 + np.sum(np.diff(s) > tol))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_row(values) -> str:
    """One line of the package's CSV format: floats as repr (a reread
    parses back bit for bit), booleans as true/false, enums as their
    value, None as an empty field.  No cell needs quoting."""
    return ",".join(map(_cell, values)) + "\n"


def csv_text(header, rows) -> str:
    """A header line of column names, then one csv_row per row."""
    return ",".join(header) + "\n" + "".join(map(csv_row, rows))


def write_trajectory_csv(trajectory: list, agents: Population) -> str:
    """Serialize a trajectory as t,agent_id,opinion,epsilon,mindedness,injected.

    Profiles may grow over time (placement runs); an agent's rows start
    at the first step it is present.  Cells follow csv_row.
    """
    ids = agents.ids.tolist()
    tails = list(
        map(csv_row, zip(agents.epsilons.tolist(), agents.mindedness.tolist(), agents.injected.tolist()))
    )
    buf = io.StringIO()
    buf.write("t,agent_id,opinion,epsilon,mindedness,injected\n")
    for t, profile in enumerate(trajectory):
        # repr once per distinct bit pattern (so -0.0 and 0.0 stay apart)
        bits, index = np.unique(np.ascontiguousarray(profile, dtype=float).view(np.int64), return_inverse=True)
        texts = list(map(repr, bits.view(float).tolist()))
        buf.writelines(f"{t},{i},{texts[k]},{tail}" for i, k, tail in zip(ids, index.tolist(), tails))
    return buf.getvalue()
