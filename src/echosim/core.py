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
from dataclasses import dataclass, field
from enum import Enum

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


def require_finite(name: str, value) -> None:
    """Reject anything but a finite real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_int(name: str, value) -> None:
    """Reject anything but an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _frozen(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Population:
    """Immutable roster of agents as parallel read-only arrays.

    Agent k has opinions[k], epsilons[k], injected[k] and ids[k].  ids
    must be unique and default to the positions 0..n-1, which is what
    every generator in this package produces; injected defaults to
    False.  mindedness holds each agent's Mindedness value, derived from
    its epsilon and never set directly.
    """

    opinions: np.ndarray
    epsilons: np.ndarray
    injected: np.ndarray | None = None
    ids: np.ndarray | None = None
    mindedness: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        x = _frozen(self.opinions, float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("population must contain at least one agent")
        n = x.size
        columns = {
            "opinions": x,
            "epsilons": _frozen(self.epsilons, float),
            "injected": _frozen(np.zeros(n) if self.injected is None else self.injected, bool),
            "ids": _frozen(np.arange(n) if self.ids is None else self.ids, np.int64),
        }
        if any(a.shape != (n,) for a in columns.values()):
            raise ValueError("opinions, epsilons, injected and ids must have equal length")
        inside = (x >= 0.0) & (x <= 1.0)
        if not inside.all():
            raise ValueError(f"opinions must lie in [0, 1], got {x[~inside][0]}")
        s = np.sort(columns["ids"])
        if np.any(s[1:] == s[:-1]):
            raise ValueError("agent ids must be unique")
        columns["mindedness"] = _frozen(classify_all(columns["epsilons"]), _LABELS.dtype)
        for name, value in columns.items():
            object.__setattr__(self, name, value)

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


def _settle(s: np.ndarray, count: np.ndarray, holds) -> np.ndarray:
    """Move each guess count to the length of the prefix of sorted opinions
    s on which holds(s_p) is true (holds is monotone: true, then false, and
    true at -inf).  holds depends on the value only, so a whole run of tied
    opinions holds or fails together and each move jumps a whole run."""
    padded = np.concatenate([[-np.inf], s, [np.inf]])  # padded[c] = s[c - 1]
    while True:
        back = ~holds(padded[count])
        fwd = holds(padded[count + 1])
        if not (back | fwd).any():
            return count
        count = np.where(back, np.searchsorted(s, padded[count], "left"), count)
        count = np.where(fwd, np.searchsorted(s, padded[count + 1], "right"), count)


def _windows(x: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one neighbourhood representation: the stable opinion sort order
    and, per agent, the window [lo, hi) of sorted positions it listens to.

    The bounds hold the exact predicate |x_j - x_i| <= eps_i.  fl(s - x_i)
    is monotone in the sorted opinion s, so the agents below the window
    (s - x_i < -eps_i) and those up to its end (s - x_i <= eps_i, that is
    < the next float above eps_i) are prefixes of the sort order.
    searchsorted guesses both prefix lengths at once and _settle corrects
    the guesses on the predicate itself, so ties and rounding fall where
    the dense predicate puts them."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    n = len(x)
    x2 = np.concatenate([x, x])
    bound = np.concatenate([-eps, np.nextafter(eps, np.inf)])
    count = _settle(s, np.searchsorted(s, x2 + bound), lambda sp: sp - x2 < bound)
    return order, count[:n], count[n:]


# numpy sums a float row pairwise: a run of at most _LEAF values is one
# leaf, and a longer run is split at half its length rounded down to a
# multiple of 8.
_LEAF = 128
# a node whose masked block (windows x values) has at most _BLOCK cells,
# about 0.5 MB of float64, is summed as one block: below this size the
# recursion's fixed per-call cost outweighs the cells it saves
_BLOCK = 1 << 16


def _window_sums(s: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """sum(s[lo_i:hi_i]) for every window, in the order of numpy's pairwise
    sum of the row that holds s inside the window and zeros outside it:
    the row sum of the dense 0/1-mask kernel in the sort order, bit for
    bit.  A leaf (at most _LEAF values), and any node whose masked block
    has at most _BLOCK cells, is numpy's row reduce of that block.  This
    is bit-identical to recursing further: numpy reduces a contiguous row
    of any length along its own pairwise tree, the tree the recursion
    replays, so stopping early changes only which code walks the tree.
    Above a block, at numpy's own split, a zero adds exactly, so a half
    that a window covers adds the half's own sum (numpy's pairwise sum of
    that slice), a half it misses adds 0, and only the windows that cut a
    half recurse into it, with bounds relative to the half; a half that
    no window cuts is not entered.  A window cuts at most two nodes per
    level, so the cost is O(n log n).  An empty window sums to 0.0.  A
    window's sum does not depend on which other windows are asked for,
    so a caller may ask for each run once."""
    m = len(s)
    if m <= _LEAF or len(lo) * m <= _BLOCK:
        p = np.arange(m)
        return np.where((lo[:, None] <= p) & (p < hi[:, None]), s, 0.0).sum(axis=1)
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
    windows=None,
) -> np.ndarray:
    """One synchronous update on raw arrays, from the sorted windows
    _windows(x, eps), which are built here unless passed in.

    The neighbourhood sums depend only on the sorted opinions, so a
    permuted population takes the permuted step bit for bit.  HK_MOD
    takes a scalar or per-agent w_own anywhere in (0, 1] (w_own =
    1/|N_i| recovers the plain rule); DynamicsConfig restricts the
    configured value to (0.5, 1] so that own opinion outweighs the rest.
    """
    order, lo, hi = _windows(x, eps) if windows is None else windows
    sizes = hi - lo
    # neighbours in the sort order with the same window, such as a merged
    # cluster that shares one epsilon, form a run; its sum is taken once
    lo_s, hi_s = lo[order], hi[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (lo_s[1:] != lo_s[:-1]) | (hi_s[1:] != hi_s[:-1])
    sums = np.empty(len(x))
    sums[order] = _window_sums(x[order], lo_s[first], hi_s[first])[np.cumsum(first) - 1]
    if rule is Rule.HK:
        out = sums / sizes
    elif rule is Rule.HK_MOD:
        w = np.asarray(w_own, dtype=float)
        if np.any(w <= 0.0) or np.any(w > 1.0):
            raise ValueError("w_own must lie in (0, 1]")
        others = sizes - 1
        other_sums = sums - x
        # an agent alone in its interval keeps its opinion unchanged
        mean_others = np.where(others > 0, other_sums / np.maximum(others, 1), x)
        out = w * x + (1.0 - w) * mean_others
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return np.clip(out, 0.0, 1.0)


@dataclass
class DynamicsConfig:
    rule: Rule = Rule.HK
    w_own: float = W_OWN
    delta: float = 1e-6
    max_steps: int = 1000
    cluster_tol: float = 1e-3

    def __post_init__(self) -> None:
        self.rule = Rule(self.rule)
        for name in ("delta", "w_own", "cluster_tol"):
            require_finite(name, getattr(self, name))
        require_int("max_steps", self.max_steps)
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.cluster_tol < 0.0:
            raise ValueError("cluster_tol must be nonnegative")
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

    intervene(t, x, eps, windows), when given, is called before each step
    with the current profile, epsilons and sorted windows, which the step's
    update then reuses.  It returns None, or the opinions and epsilons of
    agents to inject: they are appended to the roster and to the profile at
    t (rebuilding the windows), take part in step t, and keep the run from
    counting step t as quiet.
    """
    cfg = cfg or DynamicsConfig()
    roster = pop
    x = pop.opinions.copy()
    eps = pop.epsilons
    traj = [x]
    t_eqm = None
    for t in range(cfg.max_steps):
        windows = _windows(x, eps)
        added = intervene(t, x, eps, windows) if intervene else None
        if added is not None:
            roster = roster.extended(*added)
            x = np.concatenate([x, roster.opinions[len(x):]])
            eps = roster.epsilons
            traj[-1] = x
            windows = _windows(x, eps)
        x1 = _step_arrays(x, eps, cfg.rule, cfg.w_own, windows)
        traj.append(x1)
        if added is None and float(np.max(np.abs(x1 - x))) <= cfg.delta:
            t_eqm = t
            break
        x = x1
    return SimulationResult(
        trajectory=traj,
        t_eqm=t_eqm,
        c_eqm=count_clusters(traj[-1], cfg.cluster_tol),
        agents=roster,
    )


def count_clusters(profile, tol: float = 1e-3) -> int:
    """Single-linkage cluster count: a gap > tol between sorted
    neighbors starts a new cluster."""
    profile = np.asarray(profile, dtype=float)
    if profile.size == 0:
        raise ValueError("profile must be nonempty")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
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
        buf.writelines(
            f"{t},{i},{x!r},{tail}" for i, x, tail in zip(ids, np.asarray(profile, dtype=float).tolist(), tails)
        )
    return buf.getvalue()
