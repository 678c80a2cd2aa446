"""Independent reference implementations used to cross-check the package.

Everything here is written the dumb, obviously-correct way: plain BFS, plain
recursion, literal double sums, full powerset filters, full permutation
scans, quadratic dominance checks.  Tests compare package results against
these with exact rational equality.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from fractions import Fraction

from capslice.changesim import ChangeError, ImpactReport, ScenarioKind, apply_change
from capslice.graph import (
    IMPACT_RELEVANCE,
    EdgeKind,
    FDGraph,
    GraphError,
    GraphParseError,
    Node,
    NodeKind,
    ValidationReport,
    Violation,
    build_graph,
    find_cycle,
    impact_category,
    parts,
)
from capslice.metrics import (
    MembershipError,
    UncoveredDirectiveError,
    UnresolvableSharingError,
    resolve_membership,
    size_of,
)
from capslice.rational import brief, to_fraction
from capslice.slicing import SliceCheck, is_valid_slice


def undirected_adjacency(graph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {n: set() for n in graph.node_ids}
    for u, v, _ in graph.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_distances(graph, source: str) -> dict[str, int]:
    adj = undirected_adjacency(graph)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def bfs_distance(graph, u: str, v: str) -> int:
    return bfs_distances(graph, u)[v]


def validate_reference(graph) -> ValidationReport:
    """Every structural rule checked on every node and edge, reports in the
    package's order: mission count, cycle, node degrees, reachability, edge
    kinds (stated or inferred alike), missing relevance, then extra or
    out-of-range relevance compared as Fractions."""
    out = []
    missions = [n for n in graph.node_ids if graph.node(n).kind is NodeKind.MISSION]
    if len(missions) != 1:
        out.append(
            Violation(
                "MISSION_COUNT",
                ",".join(missions) or "-",
                f"expected exactly one mission node, found {len(missions)}",
            )
        )
    cycle = find_cycle(graph)
    if cycle:
        out.append(Violation("CYCLE", " -> ".join(cycle), "decomposition must be acyclic"))

    for n in graph.node_ids:
        kind = graph.node(n).kind.value
        has_parents, has_children = bool(graph.parents(n)), bool(graph.children(n))
        if kind == "mission" and has_parents:
            out.append(Violation("NODE_DEGREE", n, "mission node cannot have parents"))
        if kind == "function" and not has_parents:
            out.append(Violation("NODE_DEGREE", n, "function node has no parents"))
        if kind != "directive" and not has_children:
            out.append(Violation("NODE_DEGREE", n, f"{kind} node has no children"))
        if kind == "directive" and has_children:
            out.append(Violation("NODE_DEGREE", n, "directive node cannot have children"))

    if missions and not cycle:
        reachable = set(missions).union(*(below(graph, m) for m in missions))
        for n in graph.node_ids:
            if n not in reachable:
                out.append(Violation("UNREACHABLE", n, "node is not reachable from the mission"))

    edges = sorted(graph.edges())
    for u, v, kind in edges:
        if len(graph.children(u)) == 1:
            expected = EdgeKind.REFINEMENT
        elif len(graph.parents(v)) >= 2:
            expected = EdgeKind.INTERSECTION
        else:
            expected = EdgeKind.DECOMPOSITION
        if kind is not expected:
            out.append(
                Violation(
                    "EDGE_KIND",
                    f"{u}->{v}",
                    f"edge labeled {kind.value} but degrees imply {expected.value}",
                )
            )
    relevance = parts(graph)[2]
    for u, v, _ in edges:
        if graph.node(v).kind is NodeKind.DIRECTIVE and (v, u) not in relevance:
            out.append(
                Violation(
                    "RELEVANCE_MISSING", f"{u}->{v}", "directive edge lacks a relevance weight"
                )
            )
    edge_set = {(u, v) for u, v, _ in edges}
    for (d, p), value in sorted(relevance.items()):
        if (p, d) not in edge_set or graph.node(d).kind is not NodeKind.DIRECTIVE:
            out.append(
                Violation(
                    "RELEVANCE_EXTRA",
                    f"{p}->{d}",
                    "relevance recorded for a missing or non-directive edge",
                )
            )
        elif not Fraction(0) < Fraction(value) <= Fraction(1):
            out.append(
                Violation(
                    "RELEVANCE_RANGE", f"{p}->{d}", f"relevance {brief(value)} outside (0, 1]"
                )
            )
    return ValidationReport(not out, tuple(out))


def reachable_leaves(graph, start: str) -> set[str]:
    if graph.node(start).kind is NodeKind.DIRECTIVE:
        return {start}
    out: set[str] = set()
    seen: set[str] = set()
    stack = [start]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        for c in graph.children(x):
            if graph.node(c).kind is NodeKind.DIRECTIVE:
                out.add(c)
            else:
                stack.append(c)
    return out


def below(graph, start: str) -> set[str]:
    """Every node reachable from start along child edges, by a plain walk."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        for c in graph.children(stack.pop()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def entry_routes(graph, member: str) -> dict[str, set[str]]:
    """Each directive a member reaches, with the parents it reaches it through:
    the directive's parents that are the member itself or lie below it."""
    if graph.node(member).kind is NodeKind.DIRECTIVE:
        return {member: set()}
    down = below(graph, member)
    return {
        d: {p for p in graph.parents(d) if p == member or p in down}
        for d in down
        if graph.node(d).kind is NodeKind.DIRECTIVE
    }


def best_entry(graph, directive: str, parents) -> tuple[Fraction, str]:
    """The highest relevance among the parents and the smallest parent id
    carrying it."""
    top = max(graph.relevance(directive, p) for p in parents)
    return top, min(p for p in parents if graph.relevance(directive, p) == top)


def membership_bruteforce(graph, members):
    """(membership, conflicts) of a member set under the membership rule.

    Each reached directive goes to the member with the best entry relevance,
    ties to the smallest member id.  A conflict is two members reaching a
    directive through one parent: (directive, parent, (first, second)) in
    directive, member and parent order.
    """
    members = sorted(set(members))
    routes = {m: entry_routes(graph, m) for m in members}
    membership: dict[str, str] = {}
    conflicts = []
    for d in graph.directive_ids:
        owners = [m for m in members if d in routes[m]]
        if not owners:
            continue
        taken: dict[str, str] = {}
        for m in owners:
            for p in sorted(routes[m][d]):
                if p in taken:
                    conflicts.append((d, p, (taken[p], m)))
                else:
                    taken[p] = m
        best = {m: best_entry(graph, d, routes[m][d])[0] for m in owners}
        membership[d] = min(m for m in owners if best[m] == max(best.values()))
    return membership, conflicts


def _cover_reference(graph, members):
    # {directive: {member: its entry parents in id order}}, members in id order
    cover: dict[str, dict[str, tuple[str, ...]]] = {}
    for m in members:
        for d, ps in sorted(entry_routes(graph, m).items()):
            cover.setdefault(d, {})[m] = tuple(sorted(ps))
    return cover


def _sharing_reference(cover):
    # (directive, parent, member pair) wherever two members share a parent
    conflicts = []
    for d, owners in sorted(cover.items()):
        seen: dict[str, str] = {}
        for m, routes in owners.items():
            for p in routes:
                if p in seen:
                    conflicts.append((d, p, (seen[p], m)))
                else:
                    seen[p] = m
    return conflicts


def _owners_reference(graph, cover):
    # best entry relevance wins, ties to the smallest member; a directive
    # with one covering member reads no relevance
    assignment = {}
    for d, owners in sorted(cover.items()):
        if len(owners) == 1:
            (assignment[d],) = owners
            continue
        leader = top = None
        for m, routes in owners.items():
            best = max([graph.relevance(d, p) for p in routes])
            if top is None or best > top:
                leader, top = m, best
        assignment[d] = leader
    return assignment


def is_valid_slice_reference(graph, candidate) -> SliceCheck:
    """is_valid_slice as a cover map of plain walks: every violation in the
    package's order, the membership of a valid slice, and the GraphError of
    a relevance read under a shared directive."""
    members = sorted(set(candidate))
    if not members:
        raise ValueError("candidate slice is empty")
    violations = []
    for m in members:
        kind = graph.node(m).kind
        if kind is NodeKind.MISSION:
            violations.append(
                Violation("MISSION_MEMBER", m, "the mission root cannot be a capability")
            )
        elif kind is NodeKind.DIRECTIVE:
            violations.append(
                Violation("DIRECTIVE_MEMBER", m, "a directive cannot be a capability")
            )
    blocking = bool(violations)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if b in below(graph, a) or a in below(graph, b):
                blocking = True
                violations.append(
                    Violation(
                        "ANCESTOR_PAIR", f"{a},{b}", f"{a} and {b} are related by decomposition"
                    )
                )
    cover = _cover_reference(graph, members)
    missing = sorted(set(graph.directive_ids) - set(cover))
    if missing:
        violations.append(
            Violation("UNCOVERED", ",".join(missing), "some directives are covered by no member")
        )
    membership = None
    if not blocking:
        conflicts = _sharing_reference(cover)
        for d, p, pair in conflicts:
            violations.append(
                Violation(
                    "UNRESOLVABLE",
                    d,
                    f"{pair[0]} and {pair[1]} reach {d} through the same parent {p}",
                )
            )
        if not conflicts:
            assignment = _owners_reference(graph, cover)
            owners = set(assignment.values())
            for m in members:
                if m not in owners:
                    violations.append(
                        Violation("EMPTY_CAPABILITY", m, f"{m} owns no directives after resolution")
                    )
            if not violations:
                membership = assignment
    return SliceCheck(not violations, tuple(violations), membership)


def resolve_membership_reference(graph, members, complete: bool = True) -> dict[str, str]:
    """resolve_membership on the same cover map: refused members, then
    uncovered directives, then the first shared parent, then ownership."""
    members = sorted(set(members))
    for m in members:
        kind = graph.node(m).kind
        if kind is not NodeKind.FUNCTION:
            raise MembershipError(f"a {kind.value} cannot be a member: {m}")
    cover = _cover_reference(graph, members)
    if complete and set(graph.directive_ids) - set(cover):
        raise UncoveredDirectiveError(set(graph.directive_ids) - set(cover))
    conflicts = _sharing_reference(cover)
    if conflicts:
        raise UnresolvableSharingError(*conflicts[0])
    return _owners_reference(graph, cover)


def cohesion_recursive(graph, node_id: str) -> Fraction:
    num = Fraction(0)
    den = Fraction(0)
    for c in graph.children(node_id):
        if graph.node(c).kind is NodeKind.DIRECTIVE:
            weight = Fraction(1)
            contrib = graph.relevance(c, node_id)
        else:
            weight = Fraction(len(reachable_leaves(graph, c)))
            contrib = cohesion_recursive(graph, c)
        num += weight * contrib
        den += weight
    return num / den


def cohesion_reference(graph, node, memo: dict) -> Fraction:
    """Cohesion of a mission or function node by an iterative post-order
    walk: children pushed first to last, so the last is taken first, and a
    cycle reported through the first pending child still open.  memo is
    filled as nodes finish and may be shared across calls, so on a graph
    where some node fails the value or error of a later call depends on
    what earlier calls left in it, as it does for metrics.cohesion's memo.
    """
    on_stack: set[str] = set()
    stack = [node]
    while stack:
        n = stack[-1]
        if n in memo:
            stack.pop()
            on_stack.discard(n)
            continue
        on_stack.add(n)
        pending = [
            c
            for c in graph.children(n)
            if graph.node(c).kind is not NodeKind.DIRECTIVE and c not in memo
        ]
        blocked = [c for c in pending if c in on_stack]
        if blocked:
            raise GraphError(f"cycle through {blocked[0]!r} while evaluating cohesion")
        if pending:
            stack.extend(pending)
            continue
        terms = []
        for c in graph.children(n):
            if graph.node(c).kind is NodeKind.DIRECTIVE:
                terms.append((1, graph.relevance(c, n)))
            else:
                terms.append((size_of(graph, c), memo[c]))
        den = sum(w for w, _ in terms)
        if den == 0:
            raise GraphError(f"{n!r} has no children, cohesion undefined")
        memo[n] = sum((w * v for w, v in terms), Fraction(0)) / den
        stack.pop()
        on_stack.discard(n)
    return memo[node]


def reparsed(graph):
    """build_graph run on the graph's own nodes, edges and relevance, with
    every edge kind unstated: the parser's reading of the same parts."""
    relevance = parts(graph)[2]
    specs = [(u, v, None, relevance.get((v, u))) for u, v, _ in graph.edges()]
    return build_graph([graph.node(i) for i in graph.node_ids], specs)


def _relevance_reference(raw, parent: str, child: str) -> Fraction:
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
    if not 0 < value.numerator <= value.denominator:
        raise GraphParseError(
            f"relevance {brief(value)} on {brief(parent)} -> {brief(child)} outside (0, 1]"
        )
    return value


def build_reference(nodes, edges) -> FDGraph:
    """build_graph the long way: tuples read by index, kinds through Enum
    calls, every literal through to_fraction.  A Node's kind is taken as it
    is, and an entry too short to index raises IndexError."""
    node_map: dict[str, Node] = {}
    for i, spec in enumerate(nodes):
        if isinstance(spec, Node):
            node = spec
        else:
            nid, kind = spec[0], spec[1]
            label = spec[2] if len(spec) > 2 else ""
            if isinstance(kind, str):
                try:
                    kind = NodeKind(kind.lower())
                except ValueError:
                    pass
            if not isinstance(kind, NodeKind):
                raise GraphParseError(f"node entry {i}: unknown node kind {brief(spec[1])}")
            node = Node(nid, kind, label)
        if not node.id or not isinstance(node.id, str):
            raise GraphParseError(
                f"node entry {i}: id must be a non-empty string, got {brief(node.id)}"
            )
        if node.id in node_map:
            raise GraphParseError(f"node entry {i}: duplicate node id {brief(node.id)}")
        if not isinstance(node.label, str):
            raise GraphParseError(
                f"node entry {i}: label must be a string, got {brief(node.label)}"
            )
        node_map[node.id] = node

    edge_kinds: dict[tuple[str, str], EdgeKind | None] = {}
    relevance: dict[tuple[str, str], Fraction] = {}
    for i, spec in enumerate(edges):
        u, v = spec[0], spec[1]
        kind = spec[2] if len(spec) > 2 else None
        rel = spec[3] if len(spec) > 3 else None
        for end in (u, v):
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
            try:
                kind = EdgeKind(kind.lower())
            except ValueError:
                pass
        if kind is not None and not isinstance(kind, EdgeKind):
            raise GraphParseError(f"edge entry {i}: unknown edge kind {brief(spec[2])}")
        if rel is not None:
            if node_map[v].kind is not NodeKind.DIRECTIVE:
                raise GraphParseError(
                    f"edge entry {i}: relevance on a non-directive edge {brief(u)} -> {brief(v)}"
                )
            try:
                relevance[(v, u)] = _relevance_reference(rel, u, v)
            except GraphParseError as exc:
                raise GraphParseError(f"edge entry {i}: {exc}") from None
        edge_kinds[(u, v)] = kind
    return FDGraph(node_map, edge_kinds, relevance)


def parse_reference(text: str) -> FDGraph:
    """parse_graph the long way: every node entry's shape, then every edge
    entry's, checked into tuple lists that build_reference reads."""
    try:
        doc = json.loads(text, parse_float=to_fraction)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError:
        raise GraphParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphParseError("top level must be a JSON object")
    for key in ("nodes", "edges"):
        if not isinstance(doc.get(key), list):
            raise GraphParseError(f"missing or non-list {key!r} section")
    nodes = []
    for i, item in enumerate(doc["nodes"]):
        if not isinstance(item, dict) or "id" not in item or "kind" not in item:
            raise GraphParseError(f"node entry {i} must carry id and kind: {brief(item)}")
        nodes.append((item["id"], item["kind"], item.get("label", "")))
    edges = []
    for i, item in enumerate(doc["edges"]):
        if not isinstance(item, dict) or "from" not in item or "to" not in item:
            raise GraphParseError(f"edge entry {i} must carry from and to: {brief(item)}")
        edges.append((item["from"], item["to"], item.get("kind"), item.get("relevance")))
    return build_reference(nodes, edges)


def double_sum_coupling(graph, d_p, d_q) -> Fraction:
    d_p = sorted(d_p)
    d_q = sorted(d_q)
    pick = Fraction(1, len(d_q))
    total = Fraction(0)
    for a in d_p:
        dist = bfs_distances(graph, a)
        for b in d_q:
            total += pick / dist[b]
    return total / (len(d_p) * len(d_q))


def directive_coupling(graph, u: str, v: str, owner_of_v) -> Fraction:
    """Cp(u, v, D) = (1 / |D|) / dist(u, v): the chance that a change in
    directive v, one of the owner set D, ripples back to directive u."""
    return Fraction(1, len(owner_of_v)) / bfs_distance(graph, u, v)


def edited_directives(graph, changed, scenario) -> frozenset[str]:
    """The directives a scenario edits, read off the graph before and after:
    the target it modifies, the directives it deletes or adds, or the
    directives it hangs under a new function."""
    kind = scenario.kind
    if kind is ScenarioKind.MODIFY_DIRECTIVE:
        return frozenset((scenario.target,))
    if kind is ScenarioKind.ADD_FUNCTION:
        new_id = scenario.payload["id"]
        return frozenset(d for d in changed.directive_ids if new_id in changed.parents(d))
    return frozenset(graph.directive_ids).symmetric_difference(changed.directive_ids)


def impact_by_coupling(graph, slc, scenario, threshold: Fraction) -> ImpactReport:
    """One (slice, scenario) cell: the scenario applied afresh, and one
    Fraction coupling compared with the threshold per (seed, directive)."""
    changed = apply_change(graph, scenario)
    seed = edited_directives(graph, changed, scenario)
    on_changed = scenario.kind in (ScenarioKind.ADD_DIRECTIVE, ScenarioKind.ADD_FUNCTION)
    eval_graph = changed if on_changed else graph
    membership = (
        resolve_membership(changed, slc.members) if on_changed else dict(slc.membership)
    )
    affected = set(seed)
    for s in sorted(seed):
        owner_set = frozenset(d for d, o in membership.items() if o == membership[s])
        for d in eval_graph.directive_ids:
            if d not in affected and directive_coupling(eval_graph, d, s, owner_set) >= threshold:
                affected.add(d)
    capabilities = frozenset(membership[d] for d in affected)
    return ImpactReport(
        scenario=scenario,
        members=slc.members,
        seed=seed,
        affected_directives=frozenset(affected),
        affected_capabilities=capabilities,
        impact_count=len(affected) + len(capabilities),
        threshold=threshold,
        evaluated_on="changed" if on_changed else "base",
    )


def _cascade_childless(nodes, edges, removed: set[str]) -> set[str]:
    # every round recounts each surviving node's surviving out-edges; a
    # function left with none goes, the mission never does
    removed = set(removed)
    while True:
        out_count = {nid: 0 for nid in nodes if nid not in removed}
        for u, v in edges:
            if u not in removed and v not in removed:
                out_count[u] += 1
        newly = [
            nid
            for nid, cnt in out_count.items()
            if cnt == 0 and nodes[nid].kind is NodeKind.FUNCTION
        ]
        if not newly:
            return removed
        removed.update(newly)


def deletion_reference(graph, scenario):
    """(changed graph, seed) of a delete_directive or delete_function_subtree
    scenario without a payload, worked out on the raw edge set alone.

    A subtree deletion also removes what the mission no longer reaches over
    the remaining edges; then every function left without children goes,
    round by round.  Raises ChangeError, with apply_change's messages, for a
    target of the wrong kind and for an invalid result.
    """
    nodes, edges, relevance = parts(graph)
    target = scenario.target
    subtree = scenario.kind is ScenarioKind.DELETE_FUNCTION_SUBTREE
    role = "function" if subtree else "directive"
    if target not in nodes:
        raise ChangeError(f"unknown {role} {target!r}")
    if nodes[target].kind.value != role:
        raise ChangeError(
            f"{role} {target!r} is a {nodes[target].kind.value}, expected {role}"
        )
    removed = {target}
    if subtree:
        remaining_children: dict[str, list[str]] = {}
        for u, v in edges:
            if u not in removed and v not in removed:
                remaining_children.setdefault(u, []).append(v)
        reachable = {n for n, node in nodes.items() if node.kind is NodeKind.MISSION}
        frontier = list(reachable)
        while frontier:
            for c in remaining_children.get(frontier.pop(), ()):
                if c not in reachable:
                    reachable.add(c)
                    frontier.append(c)
        removed |= {n for n in nodes if n not in reachable}
    removed = _cascade_childless(nodes, edges, removed)
    seed = frozenset(n for n in removed if nodes[n].kind is NodeKind.DIRECTIVE)
    changed = FDGraph(
        {n: node for n, node in nodes.items() if n not in removed},
        {(u, v): None for u, v in edges if u not in removed and v not in removed},
        {(d, p): r for (d, p), r in relevance.items() if d not in removed and p not in removed},
    )
    report = validate_reference(changed)
    if not report.ok:
        raise ChangeError("edit leaves the graph invalid", report.violations)
    return changed, seed


def valid_slices_bruteforce(graph) -> list[tuple[str, ...]]:
    """Filter the full powerset of function nodes through is_valid_slice.

    Bitmask prechecks, built from plain walks, skip subsets that provably
    fail the ancestor-pair or coverage constraints; everything else goes
    through the real check.
    """
    internals = list(graph.function_ids)
    k = len(internals)
    index = {m: i for i, m in enumerate(internals)}
    dir_index = {d: i for i, d in enumerate(graph.directive_ids)}
    full = (1 << len(dir_index)) - 1

    leaf_mask = []
    blocked_mask = [0] * k
    for i, m in enumerate(internals):
        mask = 0
        for d in reachable_leaves(graph, m):
            mask |= 1 << dir_index[d]
        leaf_mask.append(mask)
        for x in below(graph, m):
            if x in index:
                blocked_mask[i] |= 1 << index[x]
                blocked_mask[index[x]] |= 1 << i

    out = []
    for subset in range(1, 1 << k):
        cover = 0
        ok = True
        rest = subset
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if blocked_mask[i] & subset:
                ok = False
                break
            cover |= leaf_mask[i]
        if not ok or cover != full:
            continue
        members = tuple(internals[i] for i in range(k) if subset >> i & 1)
        if is_valid_slice(graph, members).ok:
            out.append(members)
    return sorted(out)


def schedule_bruteforce(members, coupling) -> tuple[tuple[str, ...], Fraction]:
    """Minimum forward order cost over all permutations, lex-first winner.

    Every pair cost is rescaled to an integer over the lcm of the coupling
    denominators, so each order's cost is an exact integer sum.
    """
    members = sorted(members)
    values = {
        (i, j): Fraction(coupling[(p, q)])
        for i, p in enumerate(members)
        for j, q in enumerate(members)
        if i != j
    }
    scale = math.lcm(1, *(v.denominator for v in values.values()))
    units = {pair: v.numerator * (scale // v.denominator) for pair, v in values.items()}
    best_order = None
    best_cost = None
    for perm in itertools.permutations(range(len(members))):
        # combinations keep perm's order: every (earlier, later) pair once
        cost = sum(map(units.__getitem__, itertools.combinations(perm, 2)))
        if best_cost is None or cost < best_cost:
            best_order = perm
            best_cost = cost
    return tuple(members[i] for i in best_order), Fraction(best_cost, scale)


def objective_reference(graph, members, lam) -> dict:
    """The slice objective of a valid slice, exactly: its membership from
    is_valid_slice_reference and each member's owned directives, each
    member's cohesion from cohesion_recursive, each ordered pair's coupling
    from double_sum_coupling over the owned directives, both means (coupling
    0 for a lone member) and the aggregate, mean cohesion - lam * mean
    coupling."""
    members = sorted(set(members))
    membership = is_valid_slice_reference(graph, members).membership
    owned = {m: sorted(d for d, o in membership.items() if o == m) for m in members}
    cohesion = {m: cohesion_recursive(graph, m) for m in members}
    coupling = {
        (p, q): double_sum_coupling(graph, owned[p], owned[q])
        for p in members
        for q in members
        if p != q
    }
    mean_cohesion = sum(cohesion.values(), Fraction(0)) / len(members)
    mean_coupling = sum(coupling.values(), Fraction(0)) / (len(coupling) or 1)
    return {
        "membership": membership,
        "owned": owned,
        "cohesion": cohesion,
        "coupling": coupling,
        "mean_cohesion": mean_cohesion,
        "mean_coupling": mean_coupling,
        "aggregate": mean_cohesion - Fraction(lam) * mean_coupling,
    }


def manifest_reference(graph, members, lam) -> dict:
    """The `export --manifest` document of a valid slice of at most 8
    members, as plain dicts.

    The objective from objective_reference; each owned directive's
    relevance and via_parent from entry_routes and best_entry, its category
    from impact_category; each member's build time its reachable_leaves
    count; order and order_cost from schedule_bruteforce.  No technical
    feasibility is given, so every member's is 1.
    """
    members = sorted(set(members))
    objective = objective_reference(graph, members, lam)
    owned, cohesion, coupling = objective["owned"], objective["cohesion"], objective["coupling"]
    order, order_cost = schedule_bruteforce(members, coupling)
    times = {m: len(reachable_leaves(graph, m)) for m in members}
    capabilities = []
    for m in members:
        routes = entry_routes(graph, m)
        directives = []
        for d in owned[m]:
            relevance, via = best_entry(graph, d, routes[d])
            directives.append(
                {
                    "id": d,
                    "label": graph.node(d).label,
                    "relevance": float(relevance),
                    "category": impact_category(relevance),
                    "via_parent": via,
                }
            )
        capabilities.append(
            {
                "id": m,
                "label": graph.node(m).label,
                "cohesion": float(cohesion[m]),
                "tf": 1.0,
                "build_time": float(times[m]),
                "position": order.index(m),
                "directives": directives,
                "coupling_out": {q: float(coupling[(m, q)]) for q in members if q != m},
                "coupling_in": {q: float(coupling[(q, m)]) for q in members if q != m},
            }
        )
    return {
        "kind": "capability-manifest",
        "members": members,
        "aggregate": float(objective["aggregate"]),
        "mean_cohesion": float(objective["mean_cohesion"]),
        "mean_coupling": float(objective["mean_coupling"]),
        "lambda": float(lam),
        "order": list(order),
        "makespan": float(sum(times.values())),
        "order_cost": float(order_cost),
        "schedule_method": "exhaustive",
        "directive_count": len(objective["membership"]),
        "capabilities": capabilities,
    }


def agreeing_order_reference(weight) -> list[int] | None:
    """The first-no-dearer walk over a k x k int table, by direct comparison.

    Each step places the first remaining member c with weight[c][r] <=
    weight[r][c] for every remaining r; None when some step finds none.
    """
    remaining = list(range(len(weight)))
    order = []
    while remaining:
        c = next(
            (c for c in remaining if all(weight[c][r] <= weight[r][c] for r in remaining)),
            None,
        )
        if c is None:
            return None
        order.append(c)
        remaining.remove(c)
    return order


def rank_reference(rows) -> tuple[list[tuple[tuple[str, ...], bool]], Fraction]:
    """Ranked (members, initial) entries of (members, aggregate) rows, and
    the mean aggregate.

    Rows sort by (-aggregate, members); an entry is initial when its
    aggregate is strictly above the running-Fraction-sum mean, or when every
    aggregate is equal.
    """
    aggregates = [a for _, a in rows]
    mean = sum(aggregates, Fraction(0)) / len(aggregates)
    all_equal = len(set(aggregates)) == 1
    ranked = sorted(rows, key=lambda row: (-row[1], row[0]))
    return [(members, all_equal or a > mean) for members, a in ranked], mean


def pareto_bruteforce(points):
    """Nondominated rows of (f, tf, makespan) triples, maximizing f and tf
    and minimizing makespan; full quadratic scan."""

    def dominates(a, b):
        ge = a[0] >= b[0] and a[1] >= b[1] and a[2] <= b[2]
        strict = a[0] > b[0] or a[1] > b[1] or a[2] < b[2]
        return ge and strict

    out = []
    for i, p in enumerate(points):
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i):
            out.append(p)
    return out


def slice_doc_reference(slc, metrics) -> dict:
    """The machine-output document of one slice, built as plain dicts.

    json.dumps(doc, sort_keys=True, separators=(",", ":")) of it is the line
    ``capslice slices`` must write.  Coupling keys are "p->q" strings in
    sorted (p, q) order, so when two pairs give one key the later pair's
    value stays.
    """
    return {
        "type": "slice",
        "members": list(slc.members),
        "f": float(metrics.aggregate),
        "mean_cohesion": float(metrics.mean_cohesion),
        "mean_coupling": float(metrics.mean_coupling),
        "cohesion": {m: float(c) for m, c in metrics.per_node_cohesion.items()},
        "coupling": {f"{p}->{q}": float(v) for (p, q), v in metrics.coupling.items()},
        "membership": dict(slc.membership),
    }


def comparison_doc_reference(comparison, threshold: Fraction) -> dict:
    """The machine-output document of one comparison, built as plain dicts.

    json.dumps(doc, sort_keys=True, separators=(",", ":")) of it is the line
    ``capslice simulate`` must write; threshold is the one the cells were
    measured at.  Each cell lists its directives and capabilities in sorted
    order.
    """
    return {
        "type": "comparison",
        "threshold": float(threshold),
        "slices": [list(s.members) for s in comparison.slices],
        "scenarios": [
            {"kind": sc.kind.value, "target": sc.target} for sc in comparison.scenarios
        ],
        "matrix": [[r.impact_count for r in row] for row in comparison.reports],
        "cells": [
            [
                {
                    "directives": sorted(r.affected_directives),
                    "capabilities": sorted(r.affected_capabilities),
                    "count": r.impact_count,
                    "evaluated_on": r.evaluated_on,
                }
                for r in row
            ]
            for row in comparison.reports
        ],
        "totals": list(comparison.totals),
        "winners": [list(w) for w in comparison.winners],
    }
