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
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
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


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    kind: NodeKind
    label: str = ""


# Each field's slot descriptor, in field order, for _checked_graph to fill a
# Node without the frozen __init__'s object.__setattr__ per field; unpacking
# fails on import if a field is added or dropped.
_set_node_id, _set_node_kind, _set_node_label = (
    Node.__dict__[f.name].__set__ for f in fields(Node)
)


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
    change simulation from a checked graph's edited parts.  Only the edge
    kinds stated in the input are kept; an edge kind of None is inferred
    from node degrees where a kind is read, in edge_kind, the one place
    kinds are inferred, so only a stated kind can contradict the degrees.
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
        ids = sorted(self._nodes)
        children: dict[str, list[str]] = {i: [] for i in ids}
        parents: dict[str, list[str]] = {i: [] for i in ids}
        for u, v in keys:
            children[u].append(v)
            parents[v].append(u)
        # EdgeKind members are truthy, so any() finds a stated kind
        self._stated = (
            {e: edge_kinds[e] for e in keys if edge_kinds[e] is not None}
            if any(edge_kinds.values())
            else {}
        )
        # one pass over the ids fills the child, parent and undirected
        # neighbour tables (the one every distance walk reads) and splits
        # the ids by kind, each part in id order
        self._children = kids = {}
        self._parents = ups = {}
        self._adjacent = adjacent = {}
        missions, functions, directives = [], [], []
        # members in locals: an Enum's hash, and a member read off its class,
        # each cost a Python-level call
        directive, function = NodeKind.DIRECTIVE, NodeKind.FUNCTION
        nodes = self._nodes
        for i in ids:
            c = kids[i] = tuple(children[i])
            p = ups[i] = tuple(parents[i])
            adjacent[i] = c + p
            kind = nodes[i].kind
            if kind is directive:
                directives.append(i)
            elif kind is function:
                functions.append(i)
            else:
                missions.append(i)
        self._node_ids = tuple(ids)
        self._mission_ids = tuple(missions)
        self._function_ids = tuple(functions)
        self._directive_ids = tuple(directives)
        self._directive_set = frozenset(self._directive_ids)

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
        return self._mission_ids

    @property
    def function_ids(self) -> tuple[str, ...]:
        return self._function_ids

    @property
    def directive_ids(self) -> tuple[str, ...]:
        return self._directive_ids

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def children(self, node_id: str) -> tuple[str, ...]:
        try:
            return self._children[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def parents(self, node_id: str) -> tuple[str, ...]:
        try:
            return self._parents[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def edges(self) -> list[tuple[str, str, EdgeKind]]:
        return [(u, v, self.edge_kind(u, v)) for u in self._node_ids for v in self._children[u]]

    def edge_kind(self, parent: str, child: str) -> EdgeKind:
        kind = self._stated.get((parent, child))
        if kind is not None:
            return kind
        if child not in self._children.get(parent, ()):
            raise GraphError(f"no edge {parent!r} -> {child!r}")
        return _expected_kind(len(self._children[parent]), len(self._parents[child]))

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
            and self.edges() == other.edges()
            and self._relevance == other._relevance
        )

    __hash__ = None  # structural equality, not hashable

    def __repr__(self) -> str:
        return f"<FDGraph nodes={self.n_nodes} edges={sum(map(len, self._children.values()))}>"


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
    edges = {(u, v) for u, kids in graph._children.items() for v in kids}
    return dict(graph._nodes), edges, dict(graph._relevance)


def leaves_of(graph: FDGraph, node_id: str) -> frozenset[str]:
    """Distinct directives under a node; a directive yields itself.

    Set semantics: a directive reachable along several paths counts once.
    """
    graph.node(node_id)
    index = graph_index(graph)
    mask = index.bit[node_id] & index.leaves or index.below[node_id] & index.leaves
    return frozenset(map(graph.directive_ids.__getitem__, bit_positions(mask)))


def _levels(adjacent: Mapping[str, tuple[str, ...]], u: str, reach: int) -> dict[str, int]:
    # breadth-first, one level at a time, for at most reach levels: every
    # node of a level has its level's hop count, so no count is read back
    # per visit
    dist = {u: 0}
    level = [u]
    hops = 0
    while level and hops < reach:
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
    return _levels(graph._adjacent, u, graph.n_nodes)


def directives_within(
    graph: FDGraph, source: str, reach: int, rehung: Mapping[str, tuple[str, ...]]
) -> frozenset[str]:
    """The graph's directives at most reach undirected hops from source, on
    graph's neighbour table with the entries in rehung put in place.

    When rehung maps every node whose neighbours an edit changes, a new
    node among them, to its neighbours on the changed graph, the hops are
    that graph's; a node rehung adds is walked but not returned.  One walk,
    level by level, that stops after reach levels, or sooner when a level
    reaches nothing new; nothing is cached.  With rehung empty the walk
    reads graph's own table.
    """
    adjacent = {**graph._adjacent, **rehung} if rehung else graph._adjacent
    return graph._directive_set.intersection(_levels(adjacent, source, reach))


def _hops(table: list[list[int]], sources: list[int]) -> list[int | None]:
    # directive_weights' walk: breadth-first from every source at once, one
    # level at a time, over a table of node positions; each node's entry is
    # its hop count from the nearest source, None where no source reaches
    # it.  The short impact walks stay on _levels, whose dict walk measured
    # faster there than a port onto this table.
    dist: list[int | None] = [None] * len(table)
    for s in sources:
        dist[s] = 0
    level = sources
    hops = 0
    while level:
        hops += 1
        reached = []
        for x in level:
            for y in table[x]:
                if dist[y] is None:
                    dist[y] = hops
                    reached.append(y)
        level = reached
    return dist


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
    graph (d's neighbours are its parents, and its children on a graph
    validate refuses).  Directives with the same neighbours form a group,
    and one level walk starting from all of the group's neighbours at once
    gives that min for every node: the walk runs on an integer neighbour
    table numbered in the index's node order, directives first, so the
    group's hop row is the walk's first len(ids) entries.  The walks run
    once per distinct neighbour tuple, not per directive; each directive of
    a group gets a copy of the group's weights with its own 0.  The
    neighbours lie in d's component, so a target is reached from all of
    them or from none; a directive without neighbours reaches nothing.  A
    directive's own entry (out to a neighbour and back) is no distance, but
    in a group of two or more it equals the distance between two of the
    group's directives, so the whole shared row counts towards the scale;
    a lone directive's own entry stays out of it.
    """
    if graph._weights is None:
        ids = graph.directive_ids
        adjacent = graph._adjacent
        order = ids + graph.function_ids + graph.mission_ids
        position = {n: k for k, n in enumerate(order)}
        table = [[position[y] for y in adjacent[x]] for x in order]
        groups: dict[tuple[str, ...], list[int]] = {}
        for i, d in enumerate(ids):
            groups.setdefault(adjacent[d], []).append(i)
        present: set[int | None] = set()
        shared = []
        for near, group in groups.items():
            row = _hops(table, [position[n] for n in near])[: len(ids)]
            if len(group) > 1:
                present.update(row)
            else:
                i = group[0]
                present.update(row[:i], row[i + 1 :])
            shared.append((row, group))
        present.discard(None)
        scale = math.lcm(*(h + 1 for h in present))
        # one int object per distance, shared by every row; a hop count from
        # the nearest neighbour is one less than the distance, an unreached
        # directive reads None, and so does a lone directive's own entry,
        # missing from the mapping, until its 0 is set
        weight = {h: scale // (h + 1) for h in present}
        rows: list = [None] * len(ids)
        for row, group in shared:
            weights = list(map(weight.get, row))
            for i in group:
                rows[i] = own = weights.copy()
                own[i] = 0
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

    function, mission = NodeKind.FUNCTION, NodeKind.MISSION  # read once, not per node
    for nid in graph.node_ids:
        kind = nodes[nid].kind
        if kind is function:
            if parents[nid] and children[nid]:  # most nodes: one test
                continue
            if not parents[nid]:
                violations.append(
                    Violation("NODE_DEGREE", nid, "function node has no parents")
                )
            if not children[nid]:
                violations.append(
                    Violation("NODE_DEGREE", nid, "function node has no children")
                )
        elif kind is mission:
            if parents[nid]:
                violations.append(
                    Violation("NODE_DEGREE", nid, "mission node cannot have parents")
                )
            if not children[nid]:
                violations.append(
                    Violation("NODE_DEGREE", nid, "mission node has no children")
                )
        elif children[nid]:
            violations.append(
                Violation("NODE_DEGREE", nid, "directive node cannot have children")
            )

    if missions and not cycle:
        bit, below = index.bit, index.below
        reachable = 0
        for m in missions:
            reachable |= bit[m] | below[m]
        # every node holds one bit, so a reach of them all misses none
        if reachable.bit_count() != len(nodes):
            for nid in graph.node_ids:
                if not reachable & bit[nid]:
                    violations.append(
                        Violation("UNREACHABLE", nid, "node is not reachable from the mission")
                    )

    # an unstated kind is inferred from these same degrees, so only a stated
    # kind can contradict them
    for (u, v), kind in graph._stated.items():
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
            if d not in children.get(p, ()) or nodes[d].kind is not NodeKind.DIRECTIVE:
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
            # the name as given, then case-folded
            kind = _NODE_KINDS.get(kind) or _NODE_KINDS.get(kind.lower(), kind)
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
        node_map[nid] = node = object.__new__(Node)
        _set_node_id(node, nid)
        _set_node_kind(node, kind)
        _set_node_label(node, label)

    edge_kinds: dict[tuple[str, str], EdgeKind | None] = {}
    relevance: dict[tuple[str, str], Fraction] = {}
    directive = NodeKind.DIRECTIVE  # read once, not per edge
    for i, item in enumerate(edges):
        u, v, kind, rel = item["from"], item["to"], item.get("kind"), item.get("relevance")
        # both ends at once; an end that fails goes through the per-end test,
        # which names it (a str subclass naming a node passes there)
        if not (type(u) is str and type(v) is str and u in node_map and v in node_map):
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
        if kind is not None:
            if isinstance(kind, str):
                kind = _EDGE_KINDS.get(kind) or _EDGE_KINDS.get(kind.lower(), kind)
            if not isinstance(kind, EdgeKind):
                raise GraphParseError(f"edge entry {i}: unknown edge kind {brief(kind)}")
        if rel is not None:
            if node_map[v].kind is not directive:
                raise GraphParseError(
                    f"edge entry {i}: relevance on a non-directive edge {brief(u)} -> {brief(v)}"
                )
            # an in-range Fraction, as the literal reader gives, is taken as
            # it is; anything else goes through coerce_relevance
            if type(rel) is Fraction and 0 < rel.numerator <= rel.denominator:
                relevance[(v, u)] = rel
            else:
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
    "infer from degrees", which FDGraph.edge_kind does, and relevance is
    required only on directive edges (enforced later by validate, so
    partially annotated graphs can still be inspected).  Entries are checked as parse_graph
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
