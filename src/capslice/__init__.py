"""Capability slicing over function decomposition graphs.

The library parses decomposition graphs, measures cohesion and coupling,
enumerates and ranks valid capability slices, selects a best slice under
constraints, and sizes the ripple of change scenarios.  Everything is
computed in exact rational arithmetic and iterated in canonical order, so
repeated runs agree byte for byte.

Importing the package loads none of its modules.  Each public name below is
imported from its module on first access and then kept (PEP 562), and so is
each module, ``capslice.graph`` and the like; a command line that needs no
optimizer or change simulation never compiles them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "changesim": (
        "ChangeError",
        "ChangeScenario",
        "Comparison",
        "ImpactReport",
        "ScenarioKind",
        "apply_change",
        "compare_slices",
        "impact_set",
        "parse_scenarios",
    ),
    "graph": (
        "EdgeKind",
        "FDGraph",
        "GraphError",
        "GraphParseError",
        "IMPACT_RELEVANCE",
        "Node",
        "NodeKind",
        "UnknownNodeError",
        "ValidationReport",
        "Violation",
        "build_graph",
        "descendants",
        "distances_from",
        "export_dot",
        "leaves_of",
        "parse_graph",
        "serialize_graph",
        "undirected_distance",
        "validate",
    ),
    "metrics": (
        "CohesionUndefinedError",
        "MembershipError",
        "PairCoupling",
        "UncoveredDirectiveError",
        "UnresolvableSharingError",
        "capability_coupling",
        "cohesion",
        "cohesion_map",
        "coupling_matrix",
        "resolve_membership",
        "size_of",
    ),
    "optimizer": (
        "OptimizationConfig",
        "OptimizationResult",
        "ScheduleModel",
        "SliceScore",
        "TechFeasibility",
        "export_capabilities",
        "objective_z",
        "optimize",
        "pareto_front",
        "schedule_slice",
        "slice_feasibility",
        "validate_manifest",
    ),
    "slicing": (
        "Enumeration",
        "InvalidSliceError",
        "Ranking",
        "Slice",
        "SliceCheck",
        "SliceMetrics",
        "SliceSearch",
        "enumerate_slices",
        "is_valid_slice",
        "make_slice",
        "rank_slices",
        "score_slices",
        "slice_objective",
    ),
}
_MODULES = frozenset(
    ("changesim", "cli", "fixtures", "graph", "metrics", "optimizer", "rational", "slicing")
)
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
