"""Function decomposition graphs: parsing, validation, structural queries.

A decomposition graph is a connected DAG with exactly one mission root,
function nodes in the middle, and directive leaves.  Edge kinds follow from
node degrees alone:

* parent with a single outgoing edge  -> refinement
* child with two or more parents      -> intersection
* everything else                     -> decomposition

Every parent->directive edge carries a relevance weight in (0, 1], usually
given as one of four named impact categories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Mapping, NamedTuple

from .rational import brief, fixed, literal_reader, to_fraction


class NodeKind(Enum):
    MISSION = "mission"
    FUNCTION = "function"
    DIRECTIVE = "directive"


class EdgeKind(Enum):
    DECOMPOSITION = "decomposition"
    REFINEMENT = "refinement"
    INTERSECTION = "intersection"


#: Impact categories and the relevance weight each one denotes.
IMPACT_RELEVANCE: dict[str, Fraction] = {
    "catastrophic": Fraction(1),
    "critical": Fraction(7, 10),
    "marginal": Fraction(3, 10),
    "negligible": Fraction(1, 10),
}


def impact_category(value: Fraction) -> str | None:
    """Category name for an exact table weight, or None for other values."""
    for name, weight in IMPACT_RELEVANCE.items():
        if weight == value:
            return name
    return None


class GraphError(Exception):
    """Base class for graph construction and query failures."""


class GraphParseError(GraphError):
    """Malformed graph input (bad JSON, bad structure, bad relevance)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownNodeError(GraphError):
    def __init__(self, node_id: str):
        super().__init__(f"unknown node id: {node_id!r}")
        self.node_id = node_id


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    label: str = ""


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def _expected_kind(outdeg_parent: int, indeg_child: int) -> EdgeKind:
    # Degree rules; order matters, refinement wins over intersection.
    if outdeg_parent == 1:
        return EdgeKind.REFINEMENT
    if indeg_child >= 2:
        return EdgeKind.INTERSECTION
    return EdgeKind.DECOMPOSITION


class FDGraph:
    """Immutable decomposition graph with cached structural queries.

    Built by build_graph / parse_graph from checked outside input, or by
    change simulation from a checked graph's edited parts.  An edge kind of
    None is inferred here from node degrees, the one place kinds are inferred;
    only the kinds stated in the input can contradict the degrees.
    """

    def __init__(
        self,
        nodes: dict[str, Node],
        edge_kinds: dict[tuple[str, str], EdgeKind | None],
        relevance: dict[tuple[str, str], Fraction],
    ):
        self._nodes = dict(nodes)
        self._relevance = dict(relevance)

        # the one sort: (parent, child) order puts every child list, every
        # parent list and every ordered view of the edges in id order
        keys = sorted(edge_kinds)
        children: dict[str, list[str]] = {i: [] for i in self._nodes}
        parents: dict[str, list[str]] = {i: [] for i in self._nodes}
        for u, v in keys:
            children[u].append(v)
            parents[v].append(u)
        kinds: dict[tuple[str, str], EdgeKind] = {}
        stated = []
        for e in keys:
            kind = edge_kinds[e]
            if kind is None:
                kind = _expected_kind(len(children[e[0]]), len(parents[e[1]]))
            else:
                stated.append(e)
            kinds[e] = kind
        self._edge_kinds = kinds
        self._stated = tuple(stated)
        self._children = {i: tuple(c) for i, c in children.items()}
        self._parents = {i: tuple(p) for i, p in parents.items()}
        # the undirected neighbour table every distance walk reads
        self._adjacent = {i: self._children[i] + self._parents[i] for i in self._nodes}
        self._node_ids = tuple(sorted(self._nodes))
        by_kind: dict[NodeKind, list[str]] = {k: [] for k in NodeKind}
        for i in self._node_ids:
            by_kind[self._nodes[i].kind].append(i)
        self._ids_by_kind = {k: tuple(ids) for k, ids in by_kind.items()}

        # lazy caches
        self._index: GraphIndex | None = None
        self._weights: tuple[int, dict[str, int], list[list[int | None]]] | None = None
        self._column_sums: dict[tuple[int, ...], list[int | None]] = {}
        self._cohesion: dict[str, Fraction] = {}
        self._validation: ValidationReport | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._node_ids

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def mission_ids(self) -> tuple[str, ...]:
        return self._ids_by_kind[NodeKind.MISSION]

    @property
    def function_ids(self) -> tuple[str, ...]:
        return self._ids_by_kind[NodeKind.FUNCTION]

    @property
    def directive_ids(self) -> tuple[str, ...]:
        return self._ids_by_kind[NodeKind.DIRECTIVE]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def children(self, node_id: str) -> tuple[str, ...]:
        self.node(node_id)
        return self._children[node_id]

    def parents(self, node_id: str) -> tuple[str, ...]:
        self.node(node_id)
        return self._parents[node_id]

    def edges(self) -> list[tuple[str, str, EdgeKind]]:
        return [(u, v, kind) for (u, v), kind in self._edge_kinds.items()]

    def edge_kind(self, parent: str, child: str) -> EdgeKind:
        try:
            return self._edge_kinds[(parent, child)]
        except KeyError:
            raise GraphError(f"no edge {parent!r} -> {child!r}") from None

    def relevance(self, directive: str, parent: str) -> Fraction:
        try:
            return self._relevance[(directive, parent)]
        except KeyError:
            raise GraphError(
                f"no relevance recorded for directive {directive!r} under {parent!r}"
            ) from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FDGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._edge_kinds == other._edge_kinds
            and self._relevance == other._relevance
        )

    __hash__ = None  # structural equality, not hashable

    def __repr__(self) -> str:
        return f"<FDGraph nodes={self.n_nodes} edges={len(self._edge_kinds)}>"


class GraphIndex(NamedTuple):
    """What one depth-first search of a graph's child table finds.

    Nodes are bits in one order: the directives take the low bits in id
    order, then the functions, then the missions.  Directive edges
    (parent, directive) are bits in (directive, parent) order.

    cycle: the first directed cycle the search meets, as a closed node path
    (first node repeated last), or None on an acyclic graph.
    bit: each node's bit; leaves: the bits of all directives.
    below: each node's mask of the nodes below it; a node on a cycle is
    below itself.
    entry: each node's mask of the directive edges whose parent is the node
    or lies below it, the edges it reaches those directives through.
    edges: the directive edges as (parent, directive), by bit position.
    routes: each directive's mask of its edges.
    values: the distinct relevance values on directive edges as
    (numerator, denominator), in increasing order.
    rank: by bit position, the position in values of each edge's relevance,
    or None without one.
    missing: the directive edges without a relevance.

    One index is shared by every reader of the graph, so callers must not
    change its tables.
    """

    cycle: tuple[str, ...] | None
    bit: dict[str, int]
    leaves: int
    below: dict[str, int]
    entry: dict[str, int]
    edges: list[tuple[str, str]]
    routes: dict[str, int]
    values: list[tuple[int, int]]
    rank: list[int | None]
    missing: int


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def graph_index(graph: FDGraph) -> GraphIndex:
    """The graph's index, built on first use and cached on the graph."""
    if graph._index is None:
        graph._index = _build_index(graph)
    return graph._index


def _build_index(graph: FDGraph) -> GraphIndex:
    children, parents, relevance = graph._children, graph._parents, graph._relevance
    directives = graph.directive_ids
    bit = {n: 1 << k for k, n in enumerate(directives + graph.function_ids + graph.mission_ids)}

    own = dict.fromkeys(graph._node_ids, 0)  # each node's own directive edges
    edges: list[tuple[str, str]] = []
    routes: dict[str, int] = {}
    keys = []  # each edge's relevance as an int pair, which hashes far faster than a Fraction
    missing = 0
    b = 1  # the next edge's bit
    for d in directives:
        start = b
        for p in parents[d]:
            own[p] |= b
            value = relevance.get((d, p))
            if value is None:
                missing |= b
                keys.append(None)
            else:
                keys.append(value.as_integer_ratio())
            edges.append((p, d))
            b <<= 1
        routes[d] = b - start
    distinct = set(keys)
    distinct.discard(None)
    # exact order on integers: each value over the lcm of the denominators
    scale = math.lcm(*(den for _, den in distinct))
    values = sorted(distinct, key=lambda k: k[0] * (scale // k[1]))
    rank = list(map({key: r for r, key in enumerate(values)}.get, keys))

    # Tarjan's strongly connected components, found by the one search.  Roots
    # and children are taken in id order, so the first node met again while
    # still on the path closes the first cycle a plain depth-first search
    # meets.  low holds the lowest discovery number each path node reaches.
    # A node's masks are taken from its children when it finishes, where a
    # child in its own component reads 0; a node whose component's root lies
    # further up waits in held with them, and the root gives every node of
    # the component the union.  On an acyclic graph held stays empty.
    below: dict[str, int] = {}
    entry: dict[str, int] = {}
    num: dict[str, int] = {}  # discovery number
    held: list[tuple[str, int, int]] = []
    cycle = None
    path: list[str] = []
    low: list[int] = []
    stack = [iter(graph._node_ids)]  # the roots, under every path
    while stack:
        for w in stack[-1]:
            if w in below:  # in a finished component
                continue
            if w in num:  # still open: on the path or held
                if cycle is None and w in path:
                    cycle = tuple(path[path.index(w) :]) + (w,)
                if num[w] < low[-1]:
                    low[-1] = num[w]
                continue
            num[w] = first = len(num)
            if not children[w]:  # a leaf is a component with nothing below it
                below[w] = entry[w] = 0
                continue
            path.append(w)
            low.append(first)
            stack.append(iter(children[w]))
            break
        else:
            stack.pop()
            if not path:  # every root is done
                break
            v = path.pop()
            reach = low.pop()
            down = 0
            through = own[v]
            for c in children[v]:
                down |= bit[c] | below.get(c, 0)
                through |= entry.get(c, 0)
            first = num[v]
            if reach < first:
                held.append((v, down, through))
                if reach < low[-1]:
                    low[-1] = reach
                continue
            if not held or num[held[-1][0]] < first:  # v is its component
                below[v] = down
                entry[v] = through
                continue
            component = [v]
            while held and num[held[-1][0]] > first:
                u, more_down, more_through = held.pop()
                component.append(u)
                down |= more_down
                through |= more_through
            for u in component:
                below[u] = down
                entry[u] = through
    leaves = (1 << len(directives)) - 1
    return GraphIndex(cycle, bit, leaves, below, entry, edges, routes, values, rank, missing)


def require_relevance(graph: FDGraph, edges: int) -> None:
    """Raise relevance()'s GraphError for the first directive edge of the
    mask edges, in (directive, parent) order, that carries no relevance."""
    index = graph_index(graph)
    gap = edges & index.missing
    if gap:
        parent, directive = index.edges[(gap & -gap).bit_length() - 1]
        graph.relevance(directive, parent)


def descendants(graph: FDGraph, node_id: str) -> frozenset[str]:
    """All nodes reachable from node_id along child edges."""
    graph.node(node_id)
    index = graph_index(graph)
    mask = index.below[node_id]
    return frozenset(n for n, b in index.bit.items() if mask & b)


def ancestors(graph: FDGraph, node_id: str) -> frozenset[str]:
    """All nodes node_id is reachable from along child edges."""
    graph.node(node_id)
    index = graph_index(graph)
    b = index.bit[node_id]
    return frozenset(n for n, mask in index.below.items() if mask & b)


def cohesion_memo(graph: FDGraph) -> dict[str, Fraction]:
    """The graph's cohesion memo, {node: cohesion}, which metrics.cohesion fills."""
    return graph._cohesion


def parts(
    graph: FDGraph,
) -> tuple[dict[str, Node], set[tuple[str, str]], dict[tuple[str, str], Fraction]]:
    """Fresh, unordered copies of the graph's nodes, edge keys and relevance,
    for change simulation to edit into a new graph."""
    return dict(graph._nodes), set(graph._edge_kinds), dict(graph._relevance)


def entry_parents(graph: FDGraph, node_id: str) -> Mapping[str, tuple[str, ...]]:
    """Each directive under a node, with the parents the node reaches it through.

    Those parents are node_id itself or lie below it.  Directives and parents
    come in id order; a directive maps to itself with no parents.
    """
    if graph.node(node_id).kind is NodeKind.DIRECTIVE:
        return {node_id: ()}
    index = graph_index(graph)
    mask, entry, edges = index.below[node_id], index.entry[node_id], index.edges
    return {
        d: tuple(edges[k][0] for k in bit_positions(entry & index.routes[d]))
        for d in graph.directive_ids
        if mask & index.bit[d]
    }


def leaves_of(graph: FDGraph, node_id: str) -> frozenset[str]:
    """Distinct directives under a node; a directive yields itself.

    Set semantics: a directive reachable along several paths counts once.
    """
    return frozenset(entry_parents(graph, node_id))


def _levels(adjacent: Mapping[str, tuple[str, ...]], u: str) -> dict[str, int]:
    # breadth-first, one level at a time: every node of a level has its
    # level's hop count, so no count is read back per visit
    dist = {u: 0}
    level = [u]
    hops = 0
    while level:
        hops += 1
        reached = []
        for x in level:
            for y in adjacent[x]:
                if y not in dist:
                    dist[y] = hops
                    reached.append(y)
        level = reached
    return dist


def distances_from(graph: FDGraph, u: str) -> dict[str, int]:
    """Undirected hop count from u to every node of its component.

    One level-by-level walk of the graph's neighbour table (each node's
    children and parents, built with the graph) per call, not cached: each
    call returns a fresh dict.
    """
    graph.node(u)
    return _levels(graph._adjacent, u)


def hop_rows(
    graph: FDGraph, sources: Iterable[str], rehung: Mapping[str, tuple[str, ...]]
) -> tuple[dict[str, list[int]], int]:
    """Undirected hop count from each source to each directive, on graph's
    neighbour table with the entries in rehung put in place: (rows, far).

    When rehung maps every node whose neighbours an edit changes, a new
    node among them, to its neighbours on the changed graph, the rows are
    that graph's hop counts.  Rows are in graph's directive id order, and a
    directive a source does not reach reads far, the table's node count.
    One walk per source; no graph is built and nothing is cached.  With
    rehung empty the walks read graph's own table.
    """
    adjacent = {**graph._adjacent, **rehung} if rehung else graph._adjacent
    ids = graph.directive_ids
    far = len(adjacent)
    return {s: list(map(_levels(adjacent, s).get, ids, repeat(far))) for s in sources}, far


def directive_weights(
    graph: FDGraph,
) -> tuple[int, Mapping[str, int], list[list[int | None]]]:
    """Inverse directive-to-directive distances as integers over one scale.

    Returns (scale, index, rows): index numbers the directives in id order,
    scale is the lcm of the distances between distinct connected
    directives, and rows[i][j] is scale // dist(d_i, d_j), so 1/dist =
    rows[i][j] / scale exactly.  A pair in different components holds None,
    and the diagonal 0.

    Built once per graph on the identity dist(d, x) = 1 + min(dist(n, x)
    for n a neighbour of d), which holds for every x != d in an unweighted
    graph: each directive's row is the element-wise min of its neighbours'
    hop rows (its parents, and its children on a graph validate refuses),
    taken from one hop_rows call, so the searches run once per distinct
    neighbour, not per directive.  The neighbours lie in d's component, so
    a target is reached from all of them or from none; one without
    neighbours reaches nothing.  A directive's own entry (out to a
    neighbour and back) is no distance and stays out of the scale.
    """
    if graph._weights is None:
        ids = graph.directive_ids
        adjacent = graph._adjacent
        hops, far = hop_rows(graph, {n for d in ids for n in adjacent[d]}, {})
        rows = []
        for i, d in enumerate(ids):
            near = [hops[n] for n in adjacent[d]]
            if len(near) > 1:
                row = list(map(min, *near))
            else:  # a copy: rows change below, and neighbours share a row
                row = list(near[0] if near else repeat(far, len(ids)))
            row[i] = far
            rows.append(row)
        present = set().union(*rows)
        present.discard(far)
        scale = math.lcm(*(h + 1 for h in present))
        # one int object per distance, shared by every row; a hop count from
        # the nearest neighbour is one less than the distance
        weight = {h: scale // (h + 1) for h in present}
        weight[far] = None
        for i, row in enumerate(rows):
            row[:] = map(weight.__getitem__, row)
            row[i] = 0
        graph._weights = (scale, {d: j for j, d in enumerate(ids)}, rows)
    return graph._weights


def weight_column_sums(graph: FDGraph, owned: tuple[int, ...]) -> list[int | None]:
    """Column sums of the directive_weights rows numbered in owned.

    Entry j is the sum of rows[a][j] over a in owned, so the scaled 1/dist
    sum from owned onto any set D is the sum of entry j over j in D.  It is
    None where one of those rows holds None (a pair in different
    components).  Cached on the graph per owned tuple; the list is shared,
    so callers must not change it.
    """
    sums = graph._column_sums.get(owned)
    if sums is None:
        rows = directive_weights(graph)[2]
        picked = [rows[a] for a in owned]
        try:
            sums = list(map(sum, zip(*picked)))
        except TypeError:  # a pair that is not connected; validate refuses it
            sums = [None if None in column else sum(column) for column in zip(*picked)]
        graph._column_sums[owned] = sums
    return sums


def undirected_distance(graph: FDGraph, u: str, v: str) -> int:
    """Shortest hop count between two nodes ignoring edge direction.

    Intersection edges participate like any other edge.  Raises GraphError
    when the nodes sit in disconnected components.
    """
    graph.node(u)
    graph.node(v)
    try:
        return distances_from(graph, u)[v]
    except KeyError:
        raise GraphError(f"{u!r} and {v!r} are not connected") from None


def find_cycle(graph: FDGraph) -> list[str] | None:
    """One directed cycle as a node path, or None when the graph is acyclic.

    The cycle is the first one a depth-first search meets, roots and
    children taken in id order; it is read off the graph's index.
    """
    cycle = graph_index(graph).cycle
    return None if cycle is None else list(cycle)


# -- validation ----------------------------------------------------------


def validate(graph: FDGraph) -> ValidationReport:
    """Check every structural rule and report all violations found.

    The graph's index decides acyclicity and, on an acyclic graph,
    reachability from the mission.  A graph never changes once built, so its
    report is computed on the first call and cached on the graph: every
    later call, from any caller, returns that same report.
    """
    if graph._validation is not None:
        return graph._validation
    violations: list[Violation] = []
    nodes, children, parents = graph._nodes, graph._children, graph._parents

    missions = graph.mission_ids
    if len(missions) != 1:
        violations.append(
            Violation(
                "MISSION_COUNT",
                ",".join(missions) or "-",
                f"expected exactly one mission node, found {len(missions)}",
            )
        )

    index = graph_index(graph)
    cycle = index.cycle
    if cycle:
        violations.append(
            Violation("CYCLE", " -> ".join(cycle), "decomposition must be acyclic")
        )

    for nid in graph.node_ids:
        kind = nodes[nid].kind
        indeg = len(parents[nid])
        outdeg = len(children[nid])
        if kind is NodeKind.MISSION:
            if indeg > 0:
                violations.append(
                    Violation("NODE_DEGREE", nid, "mission node cannot have parents")
                )
            if outdeg == 0:
                violations.append(
                    Violation("NODE_DEGREE", nid, "mission node has no children")
                )
        elif kind is NodeKind.FUNCTION:
            if indeg == 0:
                violations.append(
                    Violation("NODE_DEGREE", nid, "function node has no parents")
                )
            if outdeg == 0:
                violations.append(
                    Violation("NODE_DEGREE", nid, "function node has no children")
                )
        else:
            if outdeg > 0:
                violations.append(
                    Violation("NODE_DEGREE", nid, "directive node cannot have children")
                )

    if missions and not cycle:
        bit, below = index.bit, index.below
        reachable = 0
        for m in missions:
            reachable |= bit[m] | below[m]
        for nid in graph.node_ids:
            if not reachable & bit[nid]:
                violations.append(
                    Violation("UNREACHABLE", nid, "node is not reachable from the mission")
                )

    # an inferred kind was derived from these same degrees, so only a stated
    # kind can contradict them
    for u, v in graph._stated:
        kind = graph._edge_kinds[(u, v)]
        expected = _expected_kind(len(children[u]), len(parents[v]))
        if kind is not expected:
            violations.append(
                Violation(
                    "EDGE_KIND",
                    f"{u}->{v}",
                    f"edge labeled {kind.value} but degrees imply {expected.value}",
                )
            )

    # the index numbers these edges in (directive, parent) order
    for u, v in sorted(index.edges[k] for k in bit_positions(index.missing)):
        violations.append(
            Violation("RELEVANCE_MISSING", f"{u}->{v}", "directive edge lacks a relevance weight")
        )
    relevance = graph._relevance
    values = index.values
    # with one relevance per directive edge that has one, none is extra, and
    # with the least and the greatest value in (0, 1] none is out of range
    if len(relevance) != len(index.edges) - index.missing.bit_count() or (
        values and not (values[0][0] > 0 and values[-1][0] <= values[-1][1])
    ):
        # found in any order, reported in (directive, parent) order
        found: dict[tuple[str, str], Violation] = {}
        for (d, p), value in relevance.items():
            if (p, d) not in graph._edge_kinds or nodes[d].kind is not NodeKind.DIRECTIVE:
                found[(d, p)] = Violation(
                    "RELEVANCE_EXTRA",
                    f"{p}->{d}",
                    "relevance recorded for a missing or non-directive edge",
                )
            elif not 0 < value.numerator <= value.denominator:  # denominator > 0
                found[(d, p)] = Violation(
                    "RELEVANCE_RANGE", f"{p}->{d}", f"relevance {brief(value)} outside (0, 1]"
                )
        violations += [found[key] for key in sorted(found)]

    graph._validation = ValidationReport(not violations, tuple(violations))
    return graph._validation


# -- construction ----------------------------------------------------------


def coerce_relevance(raw, parent: str, child: str) -> Fraction:
    """The relevance of edge parent -> child as an exact Fraction in (0, 1].

    raw is an impact category name or a number; anything else, and a value
    outside (0, 1], raises GraphParseError.
    """
    if isinstance(raw, str):
        try:
            value = IMPACT_RELEVANCE[raw.lower()]
        except KeyError:
            raise GraphParseError(f"unknown impact category {brief(raw)}") from None
    else:
        try:
            value = to_fraction(raw)
        except (TypeError, ValueError) as exc:
            raise GraphParseError(f"bad relevance value {brief(raw)}: {exc}") from None
    if not 0 < value.numerator <= value.denominator:  # denominator > 0
        raise GraphParseError(
            f"relevance {brief(value)} on {brief(parent)} -> {brief(child)} outside (0, 1]"
        )
    return value


_NODE_KINDS = {k.value: k for k in NodeKind}
_EDGE_KINDS = {k.value: k for k in EdgeKind}


def _checked_graph(nodes: list, edges: list) -> FDGraph:
    # The one checker of outside input, for parse_graph and build_graph
    # alike.  Entries come in the JSON document's shape, {"id", "kind"[,
    # "label"]} and {"from", "to"[, "kind"][, "relevance"]}; kinds may also
    # be members already.  Every node's shape is checked, then every edge's,
    # then each node in turn and each edge in turn, so the first error
    # reported does not depend on the path the input came in by.
    for i, item in enumerate(nodes):
        if not isinstance(item, dict) or "id" not in item or "kind" not in item:
            raise GraphParseError(f"node entry {i} must carry id and kind: {brief(item)}")
    for i, item in enumerate(edges):
        if not isinstance(item, dict) or "from" not in item or "to" not in item:
            raise GraphParseError(f"edge entry {i} must carry from and to: {brief(item)}")

    node_map: dict[str, Node] = {}
    for i, item in enumerate(nodes):
        nid, kind, label = item["id"], item["kind"], item.get("label", "")
        if isinstance(kind, str):
            kind = _NODE_KINDS.get(kind.lower(), kind)
        if not isinstance(kind, NodeKind):
            raise GraphParseError(f"node entry {i}: unknown node kind {brief(kind)}")
        if not nid or not isinstance(nid, str):
            raise GraphParseError(
                f"node entry {i}: id must be a non-empty string, got {brief(nid)}"
            )
        if nid in node_map:
            raise GraphParseError(f"node entry {i}: duplicate node id {brief(nid)}")
        if not isinstance(label, str):
            raise GraphParseError(f"node entry {i}: label must be a string, got {brief(label)}")
        node_map[nid] = Node(nid, kind, label)

    edge_kinds: dict[tuple[str, str], EdgeKind | None] = {}
    relevance: dict[tuple[str, str], Fraction] = {}
    for i, item in enumerate(edges):
        u, v, kind, rel = item["from"], item["to"], item.get("kind"), item.get("relevance")
        for end in (u, v):
            # a non-string end (a list is not even hashable) names no node
            if not isinstance(end, str) or end not in node_map:
                raise GraphParseError(
                    f"edge entry {i}: {brief(u)} -> {brief(v)} "
                    f"references unknown node {brief(end)}"
                )
        if u == v:
            raise GraphParseError(f"edge entry {i}: self loop on {brief(u)}")
        if (u, v) in edge_kinds:
            raise GraphParseError(f"edge entry {i}: duplicate edge {brief(u)} -> {brief(v)}")
        if isinstance(kind, str):
            kind = _EDGE_KINDS.get(kind.lower(), kind)
        if kind is not None and not isinstance(kind, EdgeKind):
            raise GraphParseError(f"edge entry {i}: unknown edge kind {brief(kind)}")
        if rel is not None:
            if node_map[v].kind is not NodeKind.DIRECTIVE:
                raise GraphParseError(
                    f"edge entry {i}: relevance on a non-directive edge {brief(u)} -> {brief(v)}"
                )
            try:
                relevance[(v, u)] = coerce_relevance(rel, u, v)
            except GraphParseError as exc:
                raise GraphParseError(f"edge entry {i}: {exc}") from None
        edge_kinds[(u, v)] = kind

    return FDGraph(node_map, edge_kinds, relevance)


def _node_entry(spec):
    # a Node or an (id, kind[, label]) sequence in the document's shape; any
    # other entry is passed on as it is, for the shape check to refuse
    if isinstance(spec, Node):
        return {"id": spec.id, "kind": spec.kind, "label": spec.label}
    if isinstance(spec, (tuple, list)) and len(spec) >= 2:
        return {"id": spec[0], "kind": spec[1], "label": spec[2] if len(spec) > 2 else ""}
    return spec


def _edge_entry(spec):
    # a (parent, child[, kind[, relevance]]) sequence in the document's shape
    if isinstance(spec, (tuple, list)) and len(spec) >= 2:
        return {
            "from": spec[0],
            "to": spec[1],
            "kind": spec[2] if len(spec) > 2 else None,
            "relevance": spec[3] if len(spec) > 3 else None,
        }
    return spec


def build_graph(nodes: Iterable, edges: Iterable) -> FDGraph:
    """Assemble a graph from node and edge descriptions.

    nodes: Node instances or (id, kind[, label]) tuples; a kind is a NodeKind
    or its name in any case, in a Node as in a tuple.
    edges: (parent, child[, kind[, relevance]]) tuples; kind None means
    "infer from degrees", which FDGraph does, and relevance is required only
    on directive edges (enforced later by validate, so partially annotated
    graphs can still be inspected).  Entries are checked as parse_graph
    checks a document's, and one of another form is a GraphParseError
    naming it.
    """
    return _checked_graph([_node_entry(s) for s in nodes], [_edge_entry(s) for s in edges])


def parse_graph(text: str) -> FDGraph:
    """Parse the JSON graph format into an FDGraph.

    Top level: {"nodes": [...], "edges": [...]}.  Nodes carry id, kind and
    an optional label; edges carry from/to, an optional kind, and (for
    directive children) a relevance given as a number or category name.
    Numbers are read exactly, never through binary floating point.
    """
    try:
        doc = json.loads(text, parse_float=literal_reader())
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError:
        raise GraphParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # a number to_fraction or int() refuses
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphParseError("top level must be a JSON object")
    for key in ("nodes", "edges"):
        if not isinstance(doc.get(key), list):
            raise GraphParseError(f"missing or non-list {key!r} section")
    return _checked_graph(doc["nodes"], doc["edges"])


def serialize_graph(graph: FDGraph) -> str:
    """Canonical JSON for a graph; parse_graph(serialize_graph(g)) == g.

    Relevance weights are written as their shortest decimal form, which is
    exact for every category weight and any weight entered as a decimal.
    """
    nodes = []
    for nid in graph.node_ids:
        node = graph.node(nid)
        entry: dict = {"id": nid, "kind": node.kind.value}
        if node.label:
            entry["label"] = node.label
        nodes.append(entry)
    edges = []
    for u, v, kind in graph.edges():
        entry = {"from": u, "to": v, "kind": kind.value}
        if (v, u) in graph._relevance:
            entry["relevance"] = float(graph._relevance[(v, u)])
        edges.append(entry)
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2)


# -- rendering -------------------------------------------------------------

_NODE_SHAPE = {
    NodeKind.MISSION: "box",
    NodeKind.FUNCTION: "ellipse",
    NodeKind.DIRECTIVE: "circle",
}
_EDGE_STYLE = {
    EdgeKind.DECOMPOSITION: "solid",
    EdgeKind.REFINEMENT: "dashed",
    EdgeKind.INTERSECTION: "dotted",
}


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: FDGraph, annotations=None) -> str:
    """Graphviz rendering of the graph.

    annotations, when given, is a slice metrics object; its member nodes are
    highlighted and labeled with their cohesion, and the aggregate objective
    value becomes the graph label.
    """
    members = {}
    if annotations is not None:
        members = dict(annotations.per_node_cohesion)
    lines = ["digraph decomposition {", "  rankdir=TB;"]
    if annotations is not None:
        lines.append(f'  label="f = {fixed(annotations.aggregate)}";')
    for nid in graph.node_ids:
        node = graph.node(nid)
        attrs = [f"shape={_NODE_SHAPE[node.kind]}"]
        if node.kind is NodeKind.MISSION:
            attrs.append("peripheries=2")
        if node.label:
            attrs.append(f"label={_dot_quote(nid + chr(10) + node.label)}")
        if nid in members:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
            attrs.append(f'xlabel="Ch={fixed(members[nid])}"')
        lines.append(f"  {_dot_quote(nid)} [{', '.join(attrs)}];")
    for u, v, kind in graph.edges():
        attrs = [f"style={_EDGE_STYLE[kind]}"]
        if (v, u) in graph._relevance:
            attrs.append(f'label="{fixed(graph._relevance[(v, u)])}"')
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
