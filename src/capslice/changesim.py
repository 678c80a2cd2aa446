"""Change scenarios: applying edits to a graph and sizing their ripple.

A scenario names one edit (modify/delete/add a directive, delete a function
subtree, insert a function); the input graph is never touched.  Impact is
measured per slice: the edited directives seed the impact set, and any other
directive whose coupling back to a seed reaches the threshold joins it, one
hop only.  Deletions and modifications are measured on the graph as it was
before the edit (that is where the rework happens); additions are measured
on the changed graph, where the new directive exists.

apply_change always returns a fresh graph re-validated from scratch.
compare_slices builds no changed graph to measure a scenario: each seed's
distances come from one walk of the base graph's neighbour table with the
nodes an addition touches re-hung, and each slice's membership on the
changed graph is derived from the slice's own (_apply gives the
conditions).  That is exact whenever the edit leaves a valid graph, which
every accepted edit of a valid base does.  compare_slices reads its base
graph's validation report, which graph.validate computes once per graph and
caches on it; on an invalid base it builds each edit once, only to refuse
one that leaves the graph invalid.  Each seed's hop row is walked once
per scenario and shared by every cell, which scans it in directive id order.
"""

from __future__ import annotations

from collections import Counter
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
    ancestors,
    coerce_relevance,
    hop_rows,
    parts,
    validate,
)
from .metrics import UncoveredDirectiveError, UnresolvableSharingError
from .rational import brief, load_exact_json, to_fraction
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
    doc = load_exact_json(text, "scenario", ScenarioParseError)
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


def _kept(slc: Slice) -> Mapping[str, str]:
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


def _apply(graph: FDGraph, scenario: ChangeScenario):
    """Check a scenario on graph; return (seed, owners, rehung, edit).

    Cells are measured on the changed graph for the additions and on graph
    otherwise, but owners and rehung read graph alone: no changed graph is
    built.  owners(slc) is a slice's membership on the graph its cells are
    measured on.  rehung maps each node whose neighbours the edit changes,
    the new node among them, to its neighbours on the changed graph, for
    graph.hop_rows; it is empty where cells are measured on graph.
    edit() returns the changed graph's (nodes, edges, relevance) for
    _rebuild.

    owners and rehung are exact whenever the changed graph is valid, whether
    graph is or not.  On a valid graph every edit _apply accepts leaves a
    valid graph, so only an invalid graph needs its edit rebuilt to check.

    1. modify_directive and the deletions are measured on graph, and each
       slice keeps its membership.  A new relevance is checked in (0, 1].
       A deletion strips the relevance of every removed edge, and removes
       every node the mission no longer reaches and every function left
       childless, so a childless mission is the one violation it can add.
       When a mission would be left childless, the edit is rebuilt here,
       and the rebuild reports it.
    2. add_directive re-hangs the target, which gains the new leaf, and the
       leaf, whose one neighbour is the target.  The members covering the
       leaf are those at or above the target.  With exactly one, it owns
       the leaf and every other directive keeps its owner.  With none,
       owners raises that the leaf is uncovered, as resolve_membership
       would; two cannot occur in a valid slice, as they would share the
       target's entry into its directives, and owners raises that sharing
       for the leaf.
    3. add_function hangs the new function off a current mission or
       function, above current children of the target, which keep their
       relevance under it.  It re-hangs the target, which loses the
       adopted children and gains the new function, each adopted child,
       which has the new function where it had the target, and the new
       function, whose neighbours are the target and the adopted children.
       The new function lies under a member exactly when the target does,
       so each slice keeps its membership.

    Slices given to owners must be valid slices of graph.
    """
    payload = scenario.payload
    kind = scenario.kind
    target = scenario.target
    owners = _kept
    rehung: dict[str, tuple[str, ...]] = {}

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
            if parent not in graph.parents(target):
                raise ChangeError(f"{parent!r} is not a parent of {target!r}")
            updates[parent] = _relevance(value, parent, target)
        seed = frozenset((target,))

        def edit() -> tuple:
            nodes, edges, relevance = parts(graph)
            if label is not None:
                nodes[target] = Node(target, NodeKind.DIRECTIVE, label)
            relevance.update({(target, parent): value for parent, value in updates.items()})
            return nodes, edges, relevance

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
        # reported by validation instead.  Only the parents of a removed
        # node can be left childless by it, so only they are tested again.
        removed.update(f for f in graph.function_ids if not graph.children(f))
        stack = list(removed)
        while stack:
            for p in graph.parents(stack.pop()):
                if (
                    p not in removed
                    and graph.node(p).kind is NodeKind.FUNCTION
                    and all(c in removed for c in graph.children(p))
                ):
                    removed.add(p)
                    stack.append(p)
        seed = frozenset(nid for nid in removed if graph.node(nid).kind is NodeKind.DIRECTIVE)

        def edit() -> tuple:
            return _strip(graph, removed)

        if any(all(c in removed for c in graph.children(m)) for m in graph.mission_ids):
            _rebuild(*edit())

    elif kind is ScenarioKind.ADD_DIRECTIVE:
        new_id, label, rel = _new_node(graph, target, payload, NodeKind.DIRECTIVE, relevance=None)
        if rel is None:
            raise ChangeError("a new directive needs a relevance")
        value = _relevance(rel, target, new_id)
        seed = frozenset((new_id,))
        above = ancestors(graph, target) | {target}
        rehung[target] = (*graph.children(target), *graph.parents(target), new_id)
        rehung[new_id] = (target,)

        def owners(slc: Slice) -> Mapping[str, str]:
            covering = sorted(above.intersection(slc.members))
            if not covering:
                raise UncoveredDirectiveError((new_id,))
            if len(covering) > 1:
                # not a valid slice: both members enter the leaf through target
                raise UnresolvableSharingError(new_id, target, (covering[0], covering[1]))
            return {**slc.membership, new_id: covering[0]}

        def edit() -> tuple:
            nodes, edges, relevance = parts(graph)
            nodes[new_id] = Node(new_id, NodeKind.DIRECTIVE, label)
            edges.add((target, new_id))
            relevance[(new_id, target)] = value
            return nodes, edges, relevance

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
        seed = frozenset(
            c for c in adopted if graph.node(c).kind is NodeKind.DIRECTIVE
        )
        moved = set(adopted)
        kept = (c for c in graph.children(target) if c not in moved)
        rehung[target] = (*kept, *graph.parents(target), new_id)
        for c in adopted:
            parents = (new_id if p == target else p for p in graph.parents(c))
            rehung[c] = (*graph.children(c), *parents)
        rehung[new_id] = (target, *adopted)

        def edit() -> tuple:
            nodes, edges, relevance = parts(graph)
            nodes[new_id] = Node(new_id, NodeKind.FUNCTION, label)
            edges.add((target, new_id))
            for c in adopted:
                edges.discard((target, c))
                edges.add((new_id, c))
                if (c, target) in relevance:
                    relevance[(c, new_id)] = relevance.pop((c, target))
            return nodes, edges, relevance

    else:
        raise ChangeError(f"unsupported scenario kind {kind!r}")
    return seed, owners, rehung, edit


def apply_change(graph: FDGraph, scenario: ChangeScenario) -> FDGraph:
    """Apply one scenario; the result is always a freshly validated graph."""
    *_, edit = _apply(graph, scenario)
    return _rebuild(*edit())


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


def _impact(
    slc: Slice, scenario: ChangeScenario, applied, thr: Fraction, owned: Counter
) -> ImpactReport:
    # applied is (seed, on_changed, owners, ids, rows, far) with rows[s]
    # seed s's hop count to each directive of ids, far where s does not
    # reach it, shared by every slice the scenario is measured on; owned
    # counts the directives each member owns in slc.membership
    seed, on_changed, owners, ids, rows, far = applied
    membership = owners(slc)
    if membership is not slc.membership:
        owned = Counter(membership.values())

    # Cp(d, s) = 1 / (|O| * dist(s, d)) with O the owner set of s, so with
    # thr = p/q the test Cp >= thr is dist <= q // (|O| * p), on integers.
    # far marks a directive s does not reach, so the cut stays below it.
    affected = set(seed)
    for s in sorted(seed):
        reach = min(thr.denominator // (owned[membership[s]] * thr.numerator), far - 1)
        for d, h in zip(ids, rows[s]):
            if h <= reach:
                affected.add(d)
            elif h == far and d not in affected:
                raise GraphError(f"{d!r} and {s!r} are not connected")
    capabilities = frozenset(map(membership.__getitem__, affected))
    # positional: keyword arguments cost a frozen dataclass as much again
    return ImpactReport(
        scenario,
        slc.members,
        seed,
        frozenset(affected),
        capabilities,
        len(affected) + len(capabilities),
        thr,
        "changed" if on_changed else "base",
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
    recheck = not validate(graph).ok
    # Each scenario is applied once, on the first slice's row: cells are
    # measured in (slice, scenario) order, so the first error is the one a
    # cell-by-cell run would raise.
    applied: dict[int, tuple] = {}
    rows = []
    for s in slices:
        owned = Counter(s.membership.values())
        row = []
        for j, sc in enumerate(scenarios):
            if j not in applied:
                seed, owners, rehung, edit = _apply(graph, sc)
                if recheck:
                    _rebuild(*edit())  # only to refuse an edit that leaves it invalid
                hops, far = hop_rows(graph, seed, rehung)
                applied[j] = (seed, bool(rehung), owners, graph.directive_ids, hops, far)
            row.append(_impact(s, sc, applied[j], thr, owned))
        rows.append(tuple(row))
    reports = tuple(rows)
    totals = tuple(sum(r.impact_count for r in row) for row in reports)
    winners = []
    for j in range(len(scenarios)):
        counts = [reports[i][j].impact_count for i in range(len(slices))]
        low = min(counts)
        winners.append(tuple(i for i, c in enumerate(counts) if c == low))
    return Comparison(slices, scenarios, reports, totals, tuple(winners))
