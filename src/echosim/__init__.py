"""Deterministic bounded-confidence opinion dynamics.

Simulation of confidence-interval averaging on [0, 1], influence-graph
structure analysis, targeted injection of moderate agents, population
generators, and a sweep harness that regenerates the headline results
at desk scale.
"""

from .core import (
    DynamicsConfig,
    Mindedness,
    Population,
    Rule,
    SimulationResult,
    classify_all,
    count_clusters,
    simulate,
    write_trajectory_csv,
)
from .graph import (
    InfluenceGraph,
    build_graph,
    export_graph,
    in_degrees,
    out_degrees,
    pendant_in_vertices,
    pulls_all,
    strongly_connected_components,
)
from .harness import (
    SweepKind,
    SweepRecord,
    SweepSpec,
    aggregate_means,
    dump_trajectories,
    run_sweep,
    write_means_csv,
    write_sweep_csv,
)
from .placement import (
    PlacementConfig,
    PlacementEvent,
    Side,
    Strategy,
    budget_spent,
    compute_injection,
    find_converging_pairs,
    run_with_placement,
    write_events_csv,
)
from .popgen import (
    MixtureSpec,
    OpinionDist,
    class_counts,
    clipped_normal_mixture,
    evenly_spaced,
    read_population_csv,
    round_half_up,
    transform,
    write_population_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DynamicsConfig",
    "InfluenceGraph",
    "Mindedness",
    "MixtureSpec",
    "OpinionDist",
    "PlacementConfig",
    "PlacementEvent",
    "Population",
    "Rule",
    "Side",
    "SimulationResult",
    "Strategy",
    "SweepKind",
    "SweepRecord",
    "SweepSpec",
    "aggregate_means",
    "budget_spent",
    "build_graph",
    "class_counts",
    "classify_all",
    "clipped_normal_mixture",
    "compute_injection",
    "count_clusters",
    "dump_trajectories",
    "evenly_spaced",
    "export_graph",
    "find_converging_pairs",
    "in_degrees",
    "out_degrees",
    "pendant_in_vertices",
    "pulls_all",
    "read_population_csv",
    "round_half_up",
    "run_sweep",
    "run_with_placement",
    "simulate",
    "strongly_connected_components",
    "transform",
    "write_events_csv",
    "write_means_csv",
    "write_population_csv",
    "write_sweep_csv",
    "write_trajectory_csv",
]
