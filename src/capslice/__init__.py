"""Capability slicing over function decomposition graphs.

The library parses decomposition graphs, measures cohesion and coupling,
enumerates and ranks valid capability slices, selects a best slice under
constraints, and sizes the ripple of change scenarios.  Everything is
computed in exact rational arithmetic and iterated in canonical order, so
repeated runs agree byte for byte.
"""

from .changesim import (
    ChangeError,
    ChangeScenario,
    Comparison,
    ImpactReport,
    ScenarioKind,
    apply_change,
    compare_slices,
    impact_set,
    parse_scenarios,
)
from .graph import (
    EdgeKind,
    FDGraph,
    GraphError,
    GraphParseError,
    IMPACT_RELEVANCE,
    Node,
    NodeKind,
    UnknownNodeError,
    ValidationReport,
    Violation,
    build_graph,
    descendants,
    distances_from,
    export_dot,
    leaves_of,
    parse_graph,
    serialize_graph,
    undirected_distance,
    validate,
)
from .metrics import (
    CohesionUndefinedError,
    MembershipError,
    PairCoupling,
    UncoveredDirectiveError,
    UnresolvableSharingError,
    capability_coupling,
    cohesion,
    cohesion_map,
    coupling_matrix,
    resolve_membership,
    size_of,
)
from .optimizer import (
    OptimizationConfig,
    OptimizationResult,
    ScheduleModel,
    SliceScore,
    TechFeasibility,
    export_capabilities,
    objective_z,
    optimize,
    pareto_front,
    schedule_slice,
    slice_feasibility,
    validate_manifest,
)
from .slicing import (
    Enumeration,
    InvalidSliceError,
    Ranking,
    Slice,
    SliceCheck,
    SliceMetrics,
    SliceSearch,
    enumerate_slices,
    is_valid_slice,
    make_slice,
    rank_slices,
    score_slices,
    slice_objective,
)

__version__ = "0.1.0"
