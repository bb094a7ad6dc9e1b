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
    parse_config,
    run_trajectory,
    step,
)
from .energy import BoundReport, EnergyBreakdown, bound_report, delta_energy_breakdown
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
from .trees import canonical_code, enumerate_free_trees

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
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
    "parse_config",
    "parse_edge_list",
    "run_trajectory",
    "state_tables",
    "step",
    "sweep",
    "verify_conjecture",
]
