"""Cohesion, size and coupling measures over decomposition graphs.

Cohesion of a node n is a weighted mean over its children c:

    Ch(n) = sum(w(c) * contrib(c)) / sum(w(c))

where a directive child contributes its relevance to n with weight 1 and a
function child contributes its own cohesion with weight size_of(child).
With only directive children this is the arithmetic mean of relevances; with
a single child it passes the child's value through unchanged.

Coupling from directive u onto directive v owned by directive set D is

    Cp(u, v, D) = (1 / |D|) / dist(u, v)

with dist measured on the undirected graph.  Capability-level coupling
averages Cp over the two resolved directive sets and is generally
asymmetric.
"""

from __future__ import annotations

import math
from collections import abc
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .graph import (
    FDGraph,
    GraphError,
    NodeKind,
    bit_positions,
    cohesion_memo,
    directive_weights,
    graph_index,
    require_relevance,
    weight_column_sums,
)


class CohesionUndefinedError(GraphError):
    """Cohesion requested on a directive."""


class MembershipError(GraphError):
    """Base class for membership resolution failures."""


class UncoveredDirectiveError(MembershipError):
    def __init__(self, directives: Iterable[str]):
        self.directives = tuple(sorted(directives))
        super().__init__(f"directives not covered by any member: {', '.join(self.directives)}")


class UnresolvableSharingError(MembershipError):
    def __init__(self, directive: str, parent: str, members: tuple[str, str]):
        self.directive = directive
        self.parent = parent
        self.members = members
        super().__init__(
            f"members {members[0]} and {members[1]} both reach {directive} "
            f"through parent {parent}"
        )


def size_of(graph: FDGraph, node_id: str) -> int:
    """Number of distinct directives under a node; 1 for a directive."""
    if graph.node(node_id).kind is NodeKind.DIRECTIVE:
        return 1
    index = graph_index(graph)
    return (index.below[node_id] & index.leaves).bit_count()


def _cohesion_eval(graph: FDGraph, start: str, memo: dict[str, Fraction]) -> Fraction:
    # Iterative post-order over function children, the last child taken
    # first.  A pending child already opened is on the path, as a memoised
    # child is never pending, so it closes a cycle: a bad graph fails loudly
    # instead of hanging.  Kinds and sizes come from the graph's index: a
    # child is a directive when its bit is a leaf's.
    index = graph_index(graph)
    bit, leaves, below = index.bit, index.leaves, index.below
    opened: set[str] = set()
    stack = [start]
    while stack:
        n = stack[-1]
        if n in memo:
            stack.pop()
            continue
        if n not in opened:
            opened.add(n)
            pending = [c for c in graph.children(n) if not bit[c] & leaves and c not in memo]
            blocked = [c for c in pending if c in opened]
            if blocked:
                raise GraphError(f"cycle through {blocked[0]!r} while evaluating cohesion")
            if pending:
                stack.extend(pending)
                continue
        # in one loop, each child's weighted contribution as an integer over
        # the lcm of the denominators so far, the sum rescaled when a new
        # denominator widens it; finished as one Fraction
        num = den = 0
        scale = 1
        for c in graph.children(n):
            if bit[c] & leaves:
                w, v = 1, graph.relevance(c, n)
            else:
                w, v = (below[c] & leaves).bit_count(), memo[c]
            q = v.denominator
            if scale % q:
                widen = q // math.gcd(scale, q)
                num *= widen
                scale *= widen
            num += w * v.numerator * (scale // q)
            den += w
        if den == 0:
            raise GraphError(f"{n!r} has no children, cohesion undefined")
        memo[n] = Fraction(num, den * scale)
        stack.pop()
    return memo[start]


def cohesion(graph: FDGraph, node_id: str) -> Fraction:
    """Cohesion of a mission or function node as an exact rational.

    Values are memoised on the graph, so each node is evaluated at most once
    per graph, and only when some caller asks for it or for an ancestor.
    """
    memo = cohesion_memo(graph)
    value = memo.get(node_id)  # the memo holds only mission and function nodes
    if value is not None:
        return value
    node = graph.node(node_id)
    if node.kind is NodeKind.DIRECTIVE:
        raise CohesionUndefinedError(f"cohesion is undefined for directive {node_id!r}")
    return _cohesion_eval(graph, node_id, memo)


def cohesion_map(graph: FDGraph) -> dict[str, Fraction]:
    """Cohesion of every mission and function node, one shared evaluation."""
    return {
        nid: cohesion(graph, nid)
        for nid in graph.node_ids
        if graph.node(nid).kind is not NodeKind.DIRECTIVE
    }


# -- membership ------------------------------------------------------------


def entry_conflicts(
    graph: FDGraph, members: Sequence[str]
) -> list[tuple[str, str, tuple[str, str]]]:
    """Every (directive, parent, member pair) where two of the members reach
    the directive through the same immediate parent, in (directive, member,
    parent) order.  members are functions in id order."""
    index = graph_index(graph)
    entry = [index.entry[m] for m in members]
    used = clash = 0
    for e in entry:
        clash |= used & e
        used |= e
    if not clash:  # no two members share an entry edge
        return []
    conflicts = []
    for d, routes in index.routes.items():
        if not clash & routes:
            continue
        seen: dict[str, str] = {}
        for m, e in zip(members, entry):
            for k in bit_positions(e & routes):  # edge bits run in parent order
                p = index.edges[k][0]
                if p in seen:
                    conflicts.append((d, p, (seen[p], m)))
                else:
                    seen[p] = m
    return conflicts


def best_route(graph: FDGraph, edges: int) -> int:
    """The position of the edge with the highest relevance among the set bits
    of edges, directive edges that all enter one directive; ties go to the
    lowest bit, the smallest parent id.  Relevances are compared by their
    ranks in the graph's index.  An edge without a relevance raises the
    graph's GraphError for the first such parent in id order."""
    index = graph_index(graph)
    if edges & index.missing:
        require_relevance(graph, edges)
    return max(bit_positions(edges), key=index.rank.__getitem__)


def owner_orders(graph: FDGraph, members: Sequence[str]) -> list[list[int]]:
    """For each directive of the graph, in id order, the positions in members
    of the members covering it, in the order they claim it.

    members are functions in id order.  The member whose best route into the
    directive (see best_route) carries the highest relevance comes first,
    exact ties in member order, so the first chosen member of an order owns
    the directive.  Relevances are compared by their ranks in the graph's
    index.  A directive covered once needs no relevance; under a shared one,
    a member entering it through an edge without a relevance raises the
    graph's GraphError for the first such member and edge.
    """
    index = graph_index(graph)
    rank, missing = index.rank, index.missing
    entry = [index.entry[m] for m in members]
    orders: list[list[int]] = [[] for _ in index.routes]
    seen = shared = 0
    for k, m in enumerate(members):
        mask = index.below[m] & index.leaves
        shared |= seen & mask
        seen |= mask
        while mask:
            low = mask & -mask
            orders[low.bit_length() - 1].append(k)
            mask ^= low
    ids = graph.directive_ids
    for j in bit_positions(shared):
        routes = index.routes[ids[j]]
        claims = []
        for k in orders[j]:
            through = entry[k] & routes
            if through & missing:
                require_relevance(graph, through)
            if through & (through - 1):  # several routes: the best one counts
                claims.append((rank[best_route(graph, through)], k))
            else:
                claims.append((rank[through.bit_length() - 1], k))
        # a stable sort keeps ties in member order, reverse included
        claims.sort(key=itemgetter(0), reverse=True)
        orders[j] = [k for _, k in claims]
    return orders


def owner_map(graph: FDGraph, members: Sequence[str]) -> dict[str, str]:
    """Each directive some member covers, in id order, with its owner, the
    first member of its owner order.  Sharing is not checked here."""
    return {
        d: members[order[0]]
        for d, order in zip(graph.directive_ids, owner_orders(graph, members))
        if order
    }


def resolve_membership(
    graph: FDGraph, members: Iterable[str], *, complete: bool = True
) -> dict[str, str]:
    """Assign each covered directive to exactly one owning member.

    Ownership follows owner_orders.  Raises MembershipError naming the
    smallest member that is not a function (the mission or a directive),
    UnresolvableSharingError when two members share an entry parent, and
    (with complete=True) UncoveredDirectiveError when some directive of the
    graph is covered by nobody.
    """
    members = sorted(set(members))
    for m in members:
        kind = graph.node(m).kind
        if kind is not NodeKind.FUNCTION:
            raise MembershipError(f"a {kind.value} cannot be a member: {m}")
    if complete:
        index = graph_index(graph)
        covered = 0
        for m in members:
            covered |= index.below[m]
        missing = [d for d in graph.directive_ids if not covered & index.bit[d]]
        if missing:
            raise UncoveredDirectiveError(missing)
    conflicts = entry_conflicts(graph, members)
    if conflicts:
        raise UnresolvableSharingError(*conflicts[0])
    return owner_map(graph, members)


def owned_directives(membership: Mapping[str, str], member: str) -> tuple[str, ...]:
    return tuple(sorted(d for d, o in membership.items() if o == member))


# -- coupling ----------------------------------------------------------------


def capability_coupling(
    graph: FDGraph, p: str, q: str, membership: Mapping[str, str]
) -> Fraction:
    """Mean coupling of capability p's directives onto capability q's.

    With D_p, D_q the resolved directive sets and S the sum of 1/dist over
    D_p x D_q, this is S / (|D_p| * |D_q|^2).
    """
    if p == q:
        raise ValueError("capability coupling is defined between distinct members")
    return coupling_matrix(graph, (p, q), membership)[(p, q)]


class PairCoupling(abc.Mapping):
    """Capability coupling of every ordered member pair over one denominator.

    Cp(p, q) is units[(p, q)] / scale exactly.  Read as a mapping it gives
    that value as a Fraction, built when the pair is read, so it equals the
    dict of Fractions it stands for; units keeps the sorted (p, q) order.
    """

    __slots__ = ("units", "scale")

    def __init__(self, units: dict[tuple[str, str], int], scale: int):
        self.units = units
        self.scale = scale

    def __getitem__(self, pair: tuple[str, str]) -> Fraction:
        return Fraction(self.units[pair], self.scale)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)

    def __repr__(self) -> str:
        return f"PairCoupling({self.units!r}, {self.scale!r})"

    def __reduce__(self):
        # slots and no __getstate__ would refuse pickle protocols 0 and 1
        return PairCoupling, (self.units, self.scale)


def coupling_matrix(
    graph: FDGraph, members: Iterable[str], membership: Mapping[str, str]
) -> PairCoupling:
    """Capability coupling for every ordered pair of members.

    The distance sum S is shared by (p, q) and (q, p), so it is computed
    once per unordered pair, on integers over the scale L of the graph's
    directive_weights table: the sum over D_q of p's weight_column_sums,
    which the graph caches per owned set, so a member that owns the same
    directives in many slices sums its rows once.  With c the lcm of the
    members' set sizes and f_p = c / |D_p|, Cp(p, q) = S / (|D_p| * |D_q|**2)
    is S * f_p * f_q**2 over the one denominator L * c**3, with no Fraction
    and no division per pair.  Keys come in sorted (p, q) order.
    """
    members = sorted(set(members))
    if len(members) < 2:
        return PairCoupling({}, 1)
    scale, index, rows = directive_weights(graph)
    owned: dict[str, list[int]] = {m: [] for m in members}
    others: list[int] = []  # directives of owners outside members
    try:
        for d, o in membership.items():
            owned.get(o, others).append(index[d])
    except KeyError:
        raise ValueError(f"membership key {d!r} is not a directive of the graph") from None
    sets = list(owned.values())
    for m, d_m in zip(members, sets):
        if not d_m:
            raise ValueError(f"capability {m!r} resolves to an empty directive set")
    c = math.lcm(*map(len, sets))
    f = [c // len(d_m) for d_m in sets]
    k = len(members)
    # upper[i][j - i - 1] holds L * S * f_p * f_q of the pair i < j
    upper = []
    for i in range(k - 1):
        d_p = sets[i]
        col = weight_column_sums(graph, tuple(d_p))
        f_p = f[i]
        row = []
        for j in range(i + 1, k):
            try:  # L * S; a None sum marks a pair that is not connected
                row.append(sum(map(col.__getitem__, sets[j])) * f_p * f[j])
            except TypeError:  # raise for the first such pair in id order
                a, b = min((a, b) for a in d_p for b in sets[j] if rows[a][b] is None)
                ids = graph.directive_ids
                raise GraphError(f"{ids[a]!r} and {ids[b]!r} are not connected") from None
        upper.append(row)
    units = {
        (p, q): (upper[i][j - i - 1] if i < j else upper[j][i - j - 1]) * f[j]
        for i, p in enumerate(members)
        for j, q in enumerate(members)
        if i != j
    }
    return PairCoupling(units, scale * c**3)
