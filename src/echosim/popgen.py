"""Population generators and the class-conversion transform.

Two initial layouts: opinions evenly spaced over [0, 1], or drawn from
a normal centered at 0.5 and clipped to the interval.  Mixtures assign
close/moderate/open confidence intervals by fraction counts; everything
downstream of the seed (class shuffle, opinion draws, transform picks)
comes from numpy's default_rng (PCG64), so a seed pins the population.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .core import MODERATE_EPSILON, Mindedness, Population, classify_all, csv_text
from .core import require_finite, require_int, require_member

NORMAL_MEAN = 0.5
NORMAL_SD = 0.125

DEFAULT_EPSILONS = {
    Mindedness.CLOSE: 0.01,
    Mindedness.MODERATE: MODERATE_EPSILON,
    Mindedness.OPEN: 0.45,
}

class OpinionDist(str, Enum):
    EVENLY_SPACED = "evenly_spaced"
    CLIPPED_NORMAL = "clipped_normal"


def round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


@dataclass
class MixtureSpec:
    n: int
    fractions: dict
    epsilons: dict = field(default_factory=lambda: dict(DEFAULT_EPSILONS))
    opinion_dist: OpinionDist = OpinionDist.CLIPPED_NORMAL
    mean: float = NORMAL_MEAN
    sd: float = NORMAL_SD
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self.opinion_dist = require_member("opinion_dist", self.opinion_dist, OpinionDist)
        require_int("n", self.n, least=2 if self.opinion_dist is OpinionDist.EVENLY_SPACED else 1)
        require_int("rng_seed", self.rng_seed)
        for name in ("fractions", "epsilons"):
            values = getattr(self, name)
            if not isinstance(values, dict):
                raise ValueError(f"{name} must map class names to numbers, got {values!r}")
            values = {require_member(f"{name} class", k, Mindedness): v for k, v in values.items()}
            for k, v in values.items():
                require_finite(f"{name}.{k}", v, least=0)
            setattr(self, name, {k: float(v) for k, v in values.items()})
        require_finite("mean", self.mean)
        require_finite("sd", self.sd)
        if not self.fractions:
            raise ValueError("fractions must name at least one class")
        if abs(sum(self.fractions.values()) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")
        for c, derived in zip(self.epsilons, classify_all(list(self.epsilons.values())).tolist()):
            if derived != c.value:
                raise ValueError(f"epsilons.{c} must be a {c.value!r} epsilon, but {self.epsilons[c]!r} is {derived!r}")
        missing = set(self.fractions) - set(self.epsilons)
        if missing:
            raise ValueError(f"no epsilon given for classes {sorted(m.value for m in missing)}")
        if self.sd <= 0.0:
            raise ValueError("sd must be positive")


def class_counts(spec: MixtureSpec) -> dict:
    """Agents per class, in close/moderate/open order: round half up,
    capped at the agents not yet assigned; the last named class absorbs
    the remainder so the counts always sum to n."""
    present = [c for c in Mindedness if c in spec.fractions]
    counts = {}
    for c in present[:-1]:
        counts[c] = min(round_half_up(spec.fractions[c] * spec.n), spec.n - sum(counts.values()))
    counts[present[-1]] = spec.n - sum(counts.values())
    return counts


def evenly_spaced(n: int, epsilon: float) -> Population:
    """Homogeneous population of n >= 2 agents with x_i = i / (n - 1)."""
    require_int("n", n, least=2)
    require_finite("epsilon", epsilon)
    return Population(np.linspace(0.0, 1.0, n), np.full(n, float(epsilon)))


def clipped_normal_mixture(spec: MixtureSpec) -> Population:
    """Draw a seeded mixture population.

    One generator drives everything, in a fixed order: the per-class
    epsilon labels are laid out in close/moderate/open order, shuffled,
    then the opinions are drawn (or spaced evenly if so configured).
    """
    rng = np.random.default_rng(spec.rng_seed)
    counts = class_counts(spec)
    eps = np.concatenate(
        [np.full(k, spec.epsilons[c]) for c, k in counts.items()]
    )
    rng.shuffle(eps)
    if spec.opinion_dist is OpinionDist.EVENLY_SPACED:
        x = np.linspace(0.0, 1.0, spec.n)
    else:
        x = np.clip(rng.normal(spec.mean, spec.sd, spec.n), 0.0, 1.0)
    return Population(x, eps)


def transform(
    pop: Population,
    from_class: Mindedness,
    fraction: float,
    epsilon_new: float = MODERATE_EPSILON,
    rng_seed: int = 0,
) -> Population:
    """Convert a seeded uniform pick of round_half_up(fraction * count)
    agents of from_class to the new epsilon.  Opinions, ids and the
    injected flag never change; mindedness rederives from the epsilon."""
    require_finite("fraction", fraction, least=0, most=1)
    require_finite("epsilon_new", epsilon_new, least=0)
    require_int("rng_seed", rng_seed)
    from_class = require_member("from", from_class, Mindedness)
    pool = np.flatnonzero(pop.mindedness == from_class)
    k = round_half_up(fraction * len(pool))
    eps = pop.epsilons.copy()
    if k:
        rng = np.random.default_rng(rng_seed)
        eps[rng.choice(pool, size=k, replace=False)] = float(epsilon_new)
    return replace(pop, epsilons=eps)


def _flag(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(cell)
    return cell == "true"


def _digits(parse):
    # float and int read the digit separator of PEP 515 ("0_1" as 1.0);
    # a number cell may not hold one
    def parse_cell(cell: str):
        if "_" in cell:
            raise ValueError(cell)
        return parse(cell)
    return parse_cell


# The columns of write_population_csv's format, each with its cell
# parser and what a cell must be.  np.int64 parses a cell as int does and
# raises OverflowError outside int64.
_CSV_CELLS = {
    "agent_id": (_digits(lambda cell: int(np.int64(cell))), "an integer"),
    "opinion": (_digits(float), "a number"),
    "epsilon": (_digits(float), "a number"),
    "mindedness": (lambda cell: Mindedness(cell).value, "close, moderate or open"),
    "injected": (_flag, "true or false"),
}


def write_population_csv(pop: Population) -> str:
    rows = zip(
        pop.ids.tolist(),
        pop.opinions.tolist(),
        pop.epsilons.tolist(),
        pop.mindedness.tolist(),
        pop.injected.tolist(),
    )
    return csv_text(_CSV_CELLS, rows)


def read_population_csv(text: str) -> Population:
    """Parse write_population_csv's format.  The header must name the five
    columns, each once and no other; a cell past the header, a cell that
    does not parse, a value the Population rejects, a repeated id or a
    mindedness other than the label its epsilon derives is rejected with
    its line (and column, where there is one)."""
    reader = csv.DictReader(io.StringIO(text))
    try:
        header = reader.fieldnames or []
        missing = [c for c in _CSV_CELLS if c not in header]
        if missing:
            raise ValueError(f"population csv has no {missing[0]} column")
        for k, c in enumerate(header):
            if c not in _CSV_CELLS or c in header[:k]:
                raise ValueError(f"population csv has an unexpected column {c!r}")
        columns = {c: [] for c in _CSV_CELLS}
        lines = []
        for row in reader:
            line = reader.line_num
            lines.append(line)
            if None in row:
                raise ValueError(f"population csv line {line}: unexpected cell {row[None][0]!r} past the header")
            for c, (parse, what) in _CSV_CELLS.items():
                try:
                    columns[c].append(parse(row[c]))
                except (TypeError, ValueError):
                    raise ValueError(f"population csv line {line}: {c} must be {what}, got {row[c]!r}") from None
                except OverflowError:
                    raise ValueError(f"population csv line {line}: {c} must fit in int64, got {row[c]!r}") from None
    except csv.Error as exc:
        # line_num counts the lines before the one being read
        raise ValueError(f"population csv line {reader.line_num + 1}: {exc}") from None
    if not lines:
        raise ValueError("population csv has no rows")
    try:
        pop = Population(
            opinions=columns["opinion"],
            epsilons=columns["epsilon"],
            injected=columns["injected"],
            ids=columns["agent_id"],
        )
    except ValueError:
        # find the row the Population rejects: one that fails on its own,
        # or the first repeat of an id
        first = {}
        for line, agent, x, eps in zip(lines, columns["agent_id"], columns["opinion"], columns["epsilon"]):
            if agent in first:
                raise ValueError(f"population csv line {line}: agent id {agent} repeats line {first[agent]}") from None
            first[agent] = line
            try:
                Population([x], [eps])
            except ValueError as exc:
                raise ValueError(f"population csv line {line}: {exc}") from None
        raise
    for line, label, derived, eps in zip(lines, columns["mindedness"], pop.mindedness.tolist(), columns["epsilon"]):
        if label != derived:
            raise ValueError(f"population csv line {line}: mindedness {label!r}, but epsilon {eps!r} is {derived!r}")
    return pop
