"""Change scenarios: applying edits to a graph and sizing their ripple.

A scenario names one edit (modify/delete/add a directive, delete a function
subtree, insert a function); the input graph is never touched.  Impact is
measured per slice: the edited directives seed the impact set, and any other
directive whose coupling back to a seed reaches the threshold joins it, one
hop only.  Deletions and modifications are measured on the graph as it was
before the edit (that is where the rework happens); additions are measured
on the changed graph, where the new directive exists.

apply_change always returns a fresh graph re-validated from scratch.
compare_slices reads its base graph's validation report, which graph.validate
computes once per graph and caches on it.  On a valid base it skips what
the edit cannot change: it builds a changed graph only for add_function and
does not re-validate it, reads a new directive's distances off its parent's
on the base, and derives each slice's membership on the changed graph from
the slice's own (_apply gives the conditions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .graph import (
    FDGraph,
    GraphError,
    GraphParseError,
    Node,
    NodeKind,
    Violation,
    coerce_relevance,
    directive_hops,
    parts,
    undirected_distance,
    validate,
)
from .metrics import UncoveredDirectiveError, UnresolvableSharingError, resolve_membership
from .rational import brief, literal_reader, to_fraction
from .slicing import Slice

DEFAULT_THRESHOLD = Fraction(1, 8)


class ScenarioKind(Enum):
    MODIFY_DIRECTIVE = "modify_directive"
    DELETE_DIRECTIVE = "delete_directive"
    ADD_DIRECTIVE = "add_directive"
    DELETE_FUNCTION_SUBTREE = "delete_function_subtree"
    ADD_FUNCTION = "add_function"


@dataclass(frozen=True)
class ChangeScenario:
    kind: ScenarioKind
    target: str
    payload: Mapping | None = None


class ChangeError(ValueError):
    def __init__(self, message: str, violations: tuple[Violation, ...] = ()):
        if violations:
            detail = "; ".join(f"{v.code} {v.subject}: {v.message}" for v in violations)
            message = f"{message}: {detail}"
        super().__init__(message)
        self.violations = violations


class ScenarioParseError(ValueError):
    """Malformed scenario file."""


def parse_scenarios(text: str) -> list[ChangeScenario]:
    """Parse a JSON list of {kind, target, payload?} records."""
    try:
        doc = json.loads(text, parse_float=literal_reader())
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid scenario JSON: {exc.msg} (line {exc.lineno})") from exc
    except RecursionError:
        raise ScenarioParseError("invalid scenario JSON: nested too deeply") from None
    except ValueError as exc:  # a number to_fraction or int() refuses
        raise ScenarioParseError(f"invalid scenario JSON: {exc}") from None
    if not isinstance(doc, list):
        raise ScenarioParseError("scenario file must hold a JSON list")
    out: list[ChangeScenario] = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "kind" not in item or "target" not in item:
            raise ScenarioParseError(
                f"scenario entry {i} must carry kind and target: {brief(item)}"
            )
        try:
            kind = ScenarioKind(item["kind"])
        except ValueError:
            raise ScenarioParseError(
                f"scenario entry {i}: unknown scenario kind {brief(item['kind'])}"
            ) from None
        if not isinstance(item["target"], str):
            raise ScenarioParseError(
                f"scenario entry {i}: target must be a string: {brief(item['target'])}"
            )
        payload = item.get("payload")
        if payload is not None and not isinstance(payload, dict):
            raise ScenarioParseError(
                f"scenario entry {i}: payload must be an object: {brief(payload)}"
            )
        out.append(ChangeScenario(kind, item["target"], payload))
    return out


# -- edit mechanics ------------------------------------------------------------


def _rebuild(nodes, edges, relevance) -> FDGraph:
    # _apply checked every new part, so the graph is built, not re-parsed
    g = FDGraph(nodes, dict.fromkeys(edges), relevance)
    report = validate(g)
    if not report.ok:
        raise ChangeError("edit leaves the graph invalid", report.violations)
    return g


def _strip(graph: FDGraph, removed: set[str]):
    nodes, edges, relevance = parts(graph)
    nodes = {i: n for i, n in nodes.items() if i not in removed}
    edges = {(u, v) for (u, v) in edges if u not in removed and v not in removed}
    relevance = {
        (d, p): r for (d, p), r in relevance.items() if d not in removed and p not in removed
    }
    return nodes, edges, relevance


def _at_or_above(graph: FDGraph, node_id: str) -> set[str]:
    """node_id and every node it lies under."""
    found = {node_id}
    stack = [node_id]
    while stack:
        for p in graph.parents(stack.pop()):
            if p not in found:
                found.add(p)
                stack.append(p)
    return found


def _resolved(changed: FDGraph, slc: Slice) -> Mapping[str, str]:
    return resolve_membership(changed, slc.members)


def _kept(changed: FDGraph, slc: Slice) -> Mapping[str, str]:
    return slc.membership


def _require(graph: FDGraph, target: str, kind: NodeKind, role: str) -> Node:
    if not graph.has_node(target):
        raise ChangeError(f"unknown {role} {target!r}")
    node = graph.node(target)
    if node.kind is not kind:
        raise ChangeError(f"{role} {target!r} is a {node.kind.value}, expected {kind.value}")
    return node


def _relevance(raw, parent: str, directive: str) -> Fraction:
    try:
        return coerce_relevance(raw, parent, directive)
    except GraphParseError as exc:
        raise ChangeError(str(exc)) from exc


def _take(payload: Mapping | None, **defaults) -> tuple:
    """The payload's value for each key of defaults, in order; other keys are refused."""
    payload = payload or {}
    unknown = set(payload) - set(defaults)
    if unknown:
        raise ChangeError(f"unknown payload keys: {', '.join(sorted(unknown))}")
    return tuple(payload.get(key, default) for key, default in defaults.items())


def _new_node(graph: FDGraph, parent: str, payload, kind: NodeKind, **extra) -> tuple:
    """Check a new node of kind under parent: (id, label, *values of extra)."""
    if not graph.has_node(parent):
        raise ChangeError(f"unknown parent {parent!r}")
    if graph.node(parent).kind is NodeKind.DIRECTIVE:
        raise ChangeError(f"parent {parent!r} is a directive")
    new_id, label, *rest = _take(payload, id=None, label="", **extra)
    if not new_id or not isinstance(new_id, str):
        raise ChangeError(f"payload must name the new {kind.value} id")
    if graph.has_node(new_id):
        raise ChangeError(f"node id {new_id!r} already exists")
    if not isinstance(label, str):
        raise ChangeError("label must be a string")
    return (new_id, label, *rest)


def _apply(graph: FDGraph, scenario: ChangeScenario, base_valid: bool = False):
    """Return (changed, seed, on_changed, owners, sources).

    changed is the changed graph, or None where none is built.  Cells are
    measured on the changed graph for the additions (on_changed) and on
    graph otherwise.  owners(changed, slc) is a slice's membership on the
    graph its cells are measured on.  sources[s] = (g, u, k) says where the
    hop counts from seed s are read: to each directive of g other than s,
    the count is k + directive_hops(g, u) at that directive.

    By default the changed graph is rebuilt and re-validated from scratch,
    owners resolves membership on it from scratch, and each seed reads its
    own row on the graph cells are measured on, (g, s, 0).  A caller that
    has validated the base passes base_valid=True; then four exact
    shortcuts apply:

    1. modify_directive builds no changed graph and copies no parts: it
       changes labels and relevances, each new relevance checked in (0, 1].
       Nor do the deletions, while the mission keeps a child outside the
       removed set.  The rebuild states no edge kinds, the strip drops the
       relevance of every removed edge, and the removed set holds every
       node the mission no longer reaches and every function left
       childless, so a childless mission is the one violation a
       deletion can make.  When the mission would be left childless, the
       rebuild runs and reports it.
    2. add_directive builds no changed graph either.  The new leaf's one
       neighbour is the target, and a leaf shortens no path between other
       nodes, so its hop count to every other directive is 1 + the
       target's on graph: its source is (graph, target, 1).  The members
       covering the leaf are those at or above the target.  With exactly
       one, it owns the leaf and every other directive keeps its owner.
       With none, owners raises that the leaf is uncovered, as
       resolve_membership would; two cannot occur in a valid slice, as they
       would share the target's entry into its directives, and owners
       raises that sharing for the leaf.
    3. add_function builds the changed graph without validating it: the new
       function hangs off a current mission or function, has children, and
       adopts current children of the target, which keep their relevance
       under it.
    4. owners resolves nothing for add_function: each adopted child keeps
       its relevance, and the new function lies under a member exactly when
       the target is, so ownership is the slice's own.

    Slices given to owners must be valid slices of graph.
    """
    payload = scenario.payload
    kind = scenario.kind
    target = scenario.target
    certified = base_valid
    on_changed = kind in (ScenarioKind.ADD_DIRECTIVE, ScenarioKind.ADD_FUNCTION)
    owners = _resolved if on_changed else _kept
    sources = None

    if kind is ScenarioKind.MODIFY_DIRECTIVE:
        _require(graph, target, NodeKind.DIRECTIVE, "directive")
        label, rel = _take(payload, label=None, relevance=None)
        if label is None and rel in (None, {}):
            raise ChangeError("modification must change a label or a relevance")
        if label is not None and not isinstance(label, str):
            raise ChangeError("label must be a string")
        if rel is None:
            updates = {}
        elif isinstance(rel, Mapping):
            updates = dict(rel)
        else:
            parents = graph.parents(target)
            if len(parents) != 1:
                raise ChangeError(f"{target!r} has {len(parents)} parents, relevance must name one")
            updates = {parents[0]: rel}
        for parent, value in sorted(updates.items()):
            try:
                graph.relevance(target, parent)
            except GraphError:
                raise ChangeError(f"{parent!r} is not a parent of {target!r}") from None
            updates[parent] = _relevance(value, parent, target)
        if not certified:
            nodes, edges, relevance = parts(graph)
            if label is not None:
                nodes[target] = Node(target, NodeKind.DIRECTIVE, label)
            relevance.update({(target, parent): value for parent, value in updates.items()})
        seed = frozenset((target,))

    elif kind in (ScenarioKind.DELETE_DIRECTIVE, ScenarioKind.DELETE_FUNCTION_SUBTREE):
        subtree = kind is ScenarioKind.DELETE_FUNCTION_SUBTREE
        role = NodeKind.FUNCTION if subtree else NodeKind.DIRECTIVE
        _require(graph, target, role, role.value)
        _take(payload)
        removed = {target}
        if subtree:
            # nodes no longer reachable from the mission went with the subtree
            reachable = set(graph.mission_ids)
            frontier = list(reachable)
            while frontier:
                for c in graph.children(frontier.pop()):
                    if c not in reachable and c != target:
                        reachable.add(c)
                        frontier.append(c)
            removed.update(nid for nid in graph.node_ids if nid not in reachable)
        # A function whose children all vanished goes too, and so does one
        # that had none; the mission never cascades, a childless mission is
        # reported by validation instead.
        while True:
            newly = [
                f
                for f in graph.function_ids
                if f not in removed and all(c in removed for c in graph.children(f))
            ]
            if not newly:
                break
            removed.update(newly)
        seed = frozenset(nid for nid in removed if graph.node(nid).kind is NodeKind.DIRECTIVE)
        if certified:
            (mission,) = graph.mission_ids
            certified = any(c not in removed for c in graph.children(mission))
        if not certified:
            nodes, edges, relevance = _strip(graph, removed)

    elif kind is ScenarioKind.ADD_DIRECTIVE:
        new_id, label, rel = _new_node(graph, target, payload, NodeKind.DIRECTIVE, relevance=None)
        if rel is None:
            raise ChangeError("a new directive needs a relevance")
        value = _relevance(rel, target, new_id)
        seed = frozenset((new_id,))
        if certified:
            above = _at_or_above(graph, target)
            sources = {new_id: (graph, target, 1)}

            def owners(changed: None, slc: Slice) -> Mapping[str, str]:
                covering = sorted(above.intersection(slc.members))
                if not covering:
                    raise UncoveredDirectiveError((new_id,))
                if len(covering) > 1:
                    # not a valid slice: both members enter the leaf through target
                    raise UnresolvableSharingError(new_id, target, (covering[0], covering[1]))
                return {**slc.membership, new_id: covering[0]}

        else:
            nodes, edges, relevance = parts(graph)
            nodes[new_id] = Node(new_id, NodeKind.DIRECTIVE, label)
            edges.add((target, new_id))
            relevance[(new_id, target)] = value

    elif kind is ScenarioKind.ADD_FUNCTION:
        new_id, label, adopted = _new_node(graph, target, payload, NodeKind.FUNCTION, children=None)
        if not adopted:
            raise ChangeError("a new function must adopt at least one child")
        if not isinstance(adopted, list) or not all(isinstance(c, str) for c in adopted):
            raise ChangeError("children must be a list of node ids")
        adopted = list(dict.fromkeys(adopted))
        current = set(graph.children(target))
        for c in adopted:
            if c not in current:
                raise ChangeError(f"{c!r} is not a child of {target!r}")
        nodes, edges, relevance = parts(graph)
        nodes[new_id] = Node(new_id, NodeKind.FUNCTION, label)
        edges.add((target, new_id))
        for c in adopted:
            edges.discard((target, c))
            edges.add((new_id, c))
            if (c, target) in relevance:
                relevance[(c, new_id)] = relevance.pop((c, target))
        seed = frozenset(
            c for c in adopted if graph.node(c).kind is NodeKind.DIRECTIVE
        )
        if certified:
            owners = _kept

    else:
        raise ChangeError(f"unsupported scenario kind {kind!r}")
    if not certified:
        changed = _rebuild(nodes, edges, relevance)
    elif kind is ScenarioKind.ADD_FUNCTION:
        changed = FDGraph(nodes, dict.fromkeys(edges), relevance)
    else:
        changed = None
    if sources is None:
        measured = changed if on_changed else graph
        sources = {s: (measured, s, 0) for s in seed}
    return changed, seed, on_changed, owners, sources


def apply_change(graph: FDGraph, scenario: ChangeScenario) -> FDGraph:
    """Apply one scenario; the result is always a freshly validated graph."""
    return _apply(graph, scenario)[0]


# -- impact ---------------------------------------------------------------------


@dataclass(frozen=True)
class ImpactReport:
    scenario: ChangeScenario
    members: tuple[str, ...]
    seed: frozenset[str]
    affected_directives: frozenset[str]
    affected_capabilities: frozenset[str]
    impact_count: int
    threshold: Fraction
    evaluated_on: str  # "base" or "changed"


def _check_threshold(threshold) -> Fraction:
    thr = to_fraction(threshold)
    if not Fraction(0) < thr <= Fraction(1):
        raise ValueError(f"threshold {brief(thr)} outside (0, 1]")
    return thr


def impact_set(
    graph: FDGraph,
    slc: Slice,
    scenario: ChangeScenario,
    threshold=DEFAULT_THRESHOLD,
) -> ImpactReport:
    """Directives and capabilities a scenario touches for one slice.

    Every edited (or removed) directive seeds the set; any other directive
    whose coupling onto a seed reaches the threshold is pulled in, without
    chaining further.
    """
    return compare_slices(graph, (slc,), (scenario,), threshold).reports[0][0]


def _impact(slc: Slice, scenario: ChangeScenario, applied, thr: Fraction) -> ImpactReport:
    # applied is _apply(graph, scenario, ...), shared by every slice it is measured on
    changed, seed, on_changed, owners, sources = applied
    membership = owners(changed, slc)

    # Cp(d, s) = 1 / (|O| * dist(s, d)) with O the owner set of s, so with
    # thr = p/q the test Cp >= thr is dist <= q // (|O| * p), on integers
    affected = set(seed)
    for s in sorted(seed):
        owner = membership[s]
        owner_size = sum(1 for o in membership.values() if o == owner)
        g, u, k = sources[s]
        reach = thr.denominator // (owner_size * thr.numerator) - k
        far = g.n_nodes  # directive_hops' mark for not connected
        for d, hops in zip(g.directive_ids, directive_hops(g, u)):
            if d in affected:
                continue
            if hops == far:
                undirected_distance(g, d, u)  # raises: not connected
            if hops <= reach:
                affected.add(d)
    capabilities = frozenset(membership[d] for d in affected)
    return ImpactReport(
        scenario=scenario,
        members=slc.members,
        seed=seed,
        affected_directives=frozenset(affected),
        affected_capabilities=capabilities,
        impact_count=len(affected) + len(capabilities),
        threshold=thr,
        evaluated_on="changed" if on_changed else "base",
    )


@dataclass(frozen=True)
class Comparison:
    slices: tuple[Slice, ...]
    scenarios: tuple[ChangeScenario, ...]
    reports: tuple[tuple[ImpactReport, ...], ...]  # indexed [slice][scenario]
    totals: tuple[int, ...]
    winners: tuple[tuple[int, ...], ...]  # per scenario, indices of the least impacted slices


def compare_slices(
    graph: FDGraph,
    slices: Iterable[Slice],
    scenarios: Iterable[ChangeScenario],
    threshold=DEFAULT_THRESHOLD,
) -> Comparison:
    """Impact matrix of every scenario against every slice.

    Each slice must be a valid slice of graph, as make_slice and the
    enumeration give them.
    """
    slices = tuple(slices)
    scenarios = tuple(scenarios)
    if not slices:
        raise ValueError("need at least one slice to compare")
    thr = _check_threshold(threshold)
    base_valid = validate(graph).ok
    # Each scenario is applied once, on the first slice's row: cells are
    # measured in (slice, scenario) order, so the first error is the one a
    # cell-by-cell run would raise.
    applied: dict[int, tuple] = {}
    rows = []
    for s in slices:
        row = []
        for j, sc in enumerate(scenarios):
            if j not in applied:
                applied[j] = _apply(graph, sc, base_valid)
            row.append(_impact(s, sc, applied[j], thr))
        rows.append(tuple(row))
    reports = tuple(rows)
    totals = tuple(sum(r.impact_count for r in row) for row in reports)
    winners = []
    for j in range(len(scenarios)):
        counts = [reports[i][j].impact_count for i in range(len(slices))]
        low = min(counts)
        winners.append(tuple(i for i, c in enumerate(counts) if c == low))
    return Comparison(slices, scenarios, reports, totals, tuple(winners))
