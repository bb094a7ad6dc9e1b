"""k-reversible processes on graphs.

Synchronous +/-1 dynamics where a vertex flips iff at least k neighbors
disagree with it, together with the nondecreasing energy function, exact
transient/period detection, the closed-form transient bounds, unlabeled-tree
enumeration, and the exhaustive extremal-transient search.
"""

from __future__ import annotations

from .dynamics import (
    Configuration,
    TraceStep,
    TrajectoryResult,
    config_energy,
    op_counts,
    parse_config,
    run_trajectory,
    step,
)
from .energy import (
    BoundReport,
    EnergyBreakdown,
    bound_report,
    delta_energy_breakdown,
    max_tree_energy_check,
)
from .errors import InternalInvariantError, ParseError
from .extremal import (
    ConjectureReport,
    CrossValidation,
    ExtremalRecord,
    SearchResult,
    config_orbit_code,
    cross_validate_generator,
    expected_tree_count,
    generate_extremal_family,
    max_transient_search,
    verify_conjecture,
)
from .graphs import Graph, is_tree, parse_edge_list
from .tables import SweepResult, state_tables, sweep
from .trees import (
    CanonicalCode,
    canonical_code,
    enumerate_free_trees,
    prufer_oracle_trees,
    prufer_to_edges,
    tree_centers,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CanonicalCode",
    "Configuration",
    "ConjectureReport",
    "CrossValidation",
    "EnergyBreakdown",
    "ExtremalRecord",
    "Graph",
    "InternalInvariantError",
    "ParseError",
    "SearchResult",
    "SweepResult",
    "TraceStep",
    "TrajectoryResult",
    "bound_report",
    "canonical_code",
    "config_energy",
    "config_orbit_code",
    "cross_validate_generator",
    "delta_energy_breakdown",
    "enumerate_free_trees",
    "expected_tree_count",
    "generate_extremal_family",
    "is_tree",
    "max_transient_search",
    "max_tree_energy_check",
    "op_counts",
    "parse_config",
    "parse_edge_list",
    "prufer_oracle_trees",
    "prufer_to_edges",
    "run_trajectory",
    "state_tables",
    "step",
    "sweep",
    "tree_centers",
    "verify_conjecture",
]
