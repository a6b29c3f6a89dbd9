"""Injection of moderate-minded agents to slow open-agent convergence.

The intelligent strategy scans each step's influence graph for
converging pairs: opinion-adjacent open-minded agents being pulled
toward each other (the left one net-pulled right, the right one
net-pulled left).  For each such pair it injects just enough moderate
agents at the outer edges of the pair's confidence intervals to flip
the net pulls outward.  The baseline strategy offers the whole budget
at t=0 as single agents at uniform random positions over the initial
opinion support.

A strategy is only the batches it offers at each step, judged on that
step's influence graph, which holds the sorted windows simulate builds
for the step's update; one budget loop inside simulate takes them, so
both strategies inject and count t_eqm by the same rule.  All decisions
within one step are evaluated against the frozen start-of-step profile:
agents injected at step t participate in the update from t onward but
can only anchor injections from t+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from operator import attrgetter

import numpy as np

from .core import (
    MODERATE_EPSILON,
    MODERATE_MAX,
    DynamicsConfig,
    Population,
    SimulationResult,
    csv_text,
    require_finite,
    require_int,
    require_member,
    simulate,
)
from .graph import InfluenceGraph, _graph, _pulls


class Strategy(str, Enum):
    INTELLIGENT = "intelligent"
    RANDOM_AT_START = "random_at_start"


class Side(str, Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass
class PlacementConfig:
    budget: int
    epsilon_new: float = MODERATE_EPSILON
    strategy: Strategy = Strategy.INTELLIGENT
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self.strategy = require_member("strategy", self.strategy, Strategy)
        require_int("budget", self.budget)
        require_int("rng_seed", self.rng_seed)
        require_finite("epsilon_new", self.epsilon_new, least=0, most=1)


@dataclass(frozen=True)
class PlacementEvent:
    """One injection batch.

    requested_opinion is the anchor position before clamping to [0, 1];
    clamped records whether clamping moved it.  anchor_agent is the
    anchor's index in the graph (compute_injection) or its agent id
    (run_with_placement's log); it is -1 and side is None for random
    placements.  Where the anchor has twins (agents with its opinion and
    epsilon, which feel the same pulls) it is the last of them in roster
    order, where injected agents come after the initial ones."""

    time: int
    opinion: float
    requested_opinion: float
    count: int
    anchor_agent: int
    side: Side | None
    clamped: bool


def find_converging_pairs(g: InfluenceGraph) -> list[tuple[int, int]]:
    """Pairs (i, j) of opinion-adjacent open-minded agents, i left of j
    with no other agent's opinion between them, where i is net-pulled
    right (left pull < right pull, see graph.pulls_all) and j net-pulled
    left (left pull > right pull).  Returned left to right along the
    spectrum in original indices.  Among twins (equal opinion and
    epsilon, so equal pulls) a pair names the last in roster order."""
    x, eps, order = g.opinions, g.epsilons, g.order
    # classify_all's open band without its checks: a graph's epsilons were
    # validated when it was built
    open_ = eps > MODERATE_MAX
    a, b = order[:-1], order[1:]
    # pulls only for the rows that can qualify: open agents whose sorted
    # successor is open and not a twin (equal opinion and epsilon give
    # equal pulls), then the successors of those net-pulled right
    k = np.flatnonzero(open_[a] & open_[b] & ((x[a] != x[b]) | (eps[a] != eps[b])))
    if k.size == 0:
        return []
    left, right = _pulls(g, a[k])
    k = k[left < right]
    left, right = _pulls(g, b[k])
    k = k[left > right]
    return list(zip(_last_twins(g, k), _last_twins(g, k + 1)))


def _last_twins(g: InfluenceGraph, pos: np.ndarray) -> list[int]:
    """For each sort position p, the last agent of p's run of tied opinions
    (kept in roster order by the stable sort) that has p's epsilon."""
    eps, order = g.epsilons, g.order
    s = g.opinions[order]
    runs = (order[p:end] for p, end in zip(pos.tolist(), np.searchsorted(s, s[pos], "right").tolist()))
    return [int(run[eps[run] == eps[run[0]]][-1]) for run in runs]


def compute_injection(
    g: InfluenceGraph, pair: tuple[int, int]
) -> tuple[PlacementEvent, PlacementEvent]:
    """Counter-pull batches for a converging pair.

    The left anchor i asks for ceil((right - left pull) / epsilon_i)
    agents at x_i - epsilon_i (the far edge of its interval, so each
    contributes a full epsilon_i of leftward pull); mirrored for the
    right anchor.  Positions are clamped to [0, 1] and flagged; counts
    are always >= 1 because qualification requires a strict imbalance.
    anchor_agent is the anchor's graph index: a graph has no agent ids.
    """
    i, j = pair
    left, right = _pulls(g, [i, j])
    if not (left[0] < right[0] and left[1] > right[1]):
        raise ValueError(f"pair ({i}, {j}) is not a converging pair")
    return (
        _batch(g, i, right[0] - left[0], Side.LEFT),
        _batch(g, j, left[1] - right[1], Side.RIGHT),
    )


def _batch(g: InfluenceGraph, anchor: int, imbalance: float, side: Side) -> PlacementEvent:
    eps_a = float(g.epsilons[anchor])
    count = int(math.ceil(imbalance / eps_a))
    xa = float(g.opinions[anchor])
    requested = xa - eps_a if side is Side.LEFT else xa + eps_a
    opinion = min(max(requested, 0.0), 1.0)
    return PlacementEvent(
        time=g.timestamp,
        opinion=opinion,
        requested_opinion=requested,
        count=count,
        anchor_agent=anchor,
        side=side,
        clamped=opinion != requested,
    )


def _offers(pop: Population, place: PlacementConfig):
    """The strategy as a function offers(g): the batches it offers at
    step g.timestamp, judged on the start-of-step influence graph g."""
    if place.strategy is Strategy.RANDOM_AT_START:
        rng = np.random.default_rng(place.rng_seed)
        x0 = pop.opinions
        draws = rng.uniform(float(x0.min()), float(x0.max()), place.budget)
        start = [
            PlacementEvent(time=0, opinion=d, requested_opinion=d, count=1, anchor_agent=-1, side=None, clamped=False)
            for d in draws.tolist()
        ]
        return lambda g: start if g.timestamp == 0 else ()

    return lambda g: (ev for pair in find_converging_pairs(g) for ev in compute_injection(g, pair))


def run_with_placement(
    pop: Population,
    dyn: DynamicsConfig,
    place: PlacementConfig,
) -> tuple[SimulationResult, list[PlacementEvent]]:
    """Run the dynamics with injections; returns the result and the full
    event log.  One budget loop serves both strategies: it takes each
    step's offered batches in order until one is unaffordable.  An
    injection step is never quiet, so t_eqm is past the last injection
    step.  With budget 0 both strategies reduce exactly to a plain
    simulate.  The log names each anchor by its agent id in the run's
    roster, an injected anchor included."""
    offers = _offers(pop, place)
    events: list[PlacementEvent] = []
    budget = place.budget

    def intervene(t, x, eps, w):
        nonlocal budget
        if budget == 0:
            return None
        batches = []
        for ev in offers(_graph(x, eps, w, t)):
            if budget < ev.count:
                break
            batches.append(ev)
            budget -= ev.count
        if not batches:
            return None
        events.extend(batches)
        opinions = np.repeat([ev.opinion for ev in batches], [ev.count for ev in batches])
        return opinions, place.epsilon_new

    result = simulate(pop, dyn, intervene)
    ids = result.agents.ids
    named = [replace(ev, anchor_agent=int(ids[ev.anchor_agent])) if ev.anchor_agent >= 0 else ev for ev in events]
    return result, named


def budget_spent(events: list[PlacementEvent]) -> int:
    return sum(ev.count for ev in events)


def write_events_csv(events: list[PlacementEvent]) -> str:
    names = [f.name for f in fields(PlacementEvent)]
    return csv_text(names, map(attrgetter(*names), events))
