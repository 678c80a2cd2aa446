"""Capability slices: validity, enumeration, scoring, ranking.

A slice is a set of function nodes that jointly cover every directive
exactly once after membership resolution.  The mission and directives are
never members, no member may be an ancestor of another, resolution must be
unambiguous, and every member must end up owning at least one directive.

Enumeration walks the candidate functions in id order with an
include/exclude decision per node, pruning branches that create
unresolvable sharing, leave a chosen member owning nothing, or can no
longer cover some directive.  This visits every member set that could still
become a valid slice, so supersets of already-complete covers are found too
(a member can join an existing cover by winning shared directives on
relevance).  No ancestor test is needed: a function above a member enters
that member's directives through the same edges, so the sharing rule cuts
it, and a function with no directive under it owns nothing.

The search runs on Python-int bitsets built once per search: the
directives under each function and the directive edges (parent, directive)
it enters them through, both read from graph.entry_parents, and for every
directive its owner order, the functions covering it ranked as
metrics.assign_owners ranks them.  Each branch costs a few mask tests, and
every complete cover the search reaches is a valid slice whose membership
is read off the owner order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .graph import FDGraph, NodeKind, Violation, descendants, entry_parents
from .metrics import (
    PairCoupling,
    assign_owners,
    cohesion,
    coupling_matrix,
    cover_map,
    entry_parent,
    owned_directives,
    sharing_conflicts,
)
from .rational import exact_sum, to_fraction


class InvalidSliceError(ValueError):
    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations) or "invalid slice")


class EnumerationCapError(RuntimeError):
    """Graph exceeds the node cap for enumeration."""


NODE_CAP = 10_000


@dataclass(frozen=True)
class Slice:
    """A valid capability set with its resolved directive membership."""

    members: tuple[str, ...]
    membership: Mapping[str, str] = field(compare=False)

    def owned(self, member: str) -> tuple[str, ...]:
        return owned_directives(self.membership, member)


@dataclass(frozen=True)
class SliceMetrics:
    per_node_cohesion: Mapping[str, Fraction]
    coupling: PairCoupling
    mean_cohesion: Fraction
    mean_coupling: Fraction
    aggregate: Fraction


@dataclass(frozen=True)
class SliceCheck:
    ok: bool
    violations: tuple[Violation, ...]
    membership: Mapping[str, str] | None


@dataclass(frozen=True)
class Enumeration:
    slices: tuple[Slice, ...]
    complete: bool


def is_valid_slice(graph: FDGraph, candidate: Iterable[str]) -> SliceCheck:
    """Check the slice constraints and report every violation found."""
    members = sorted(set(candidate))
    if not members:
        raise ValueError("candidate slice is empty")

    violations: list[Violation] = []
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

    below = {m: descendants(graph, m) for m in members}
    ancestor_pairs = False
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if b in below[a] or a in below[b]:
                ancestor_pairs = True
                violations.append(
                    Violation(
                        "ANCESTOR_PAIR",
                        f"{a},{b}",
                        f"{a} and {b} are related by decomposition",
                    )
                )

    cover = cover_map(graph, members)
    missing = sorted(set(graph.directive_ids) - set(cover))
    if missing:
        violations.append(
            Violation("UNCOVERED", ",".join(missing), "some directives are covered by no member")
        )

    membership: Mapping[str, str] | None = None
    blocking = ancestor_pairs or any(
        v.code in ("MISSION_MEMBER", "DIRECTIVE_MEMBER") for v in violations
    )
    if not blocking:
        conflicts = sharing_conflicts(cover)
        for d, p, pair in conflicts:
            violations.append(
                Violation(
                    "UNRESOLVABLE",
                    d,
                    f"{pair[0]} and {pair[1]} reach {d} through the same parent {p}",
                )
            )
        if not conflicts:
            assignment = assign_owners(graph, cover)
            owners = set(assignment.values())
            for m in members:
                if m not in owners:
                    violations.append(
                        Violation(
                            "EMPTY_CAPABILITY",
                            m,
                            f"{m} owns no directives after resolution",
                        )
                    )
            if not violations:
                membership = assignment

    return SliceCheck(not violations, tuple(violations), membership)


def make_slice(graph: FDGraph, members: Iterable[str]) -> Slice:
    """Build a Slice after full validity checking; raises InvalidSliceError."""
    check = is_valid_slice(graph, members)
    if not check.ok:
        raise InvalidSliceError(check.violations)
    return Slice(tuple(sorted(set(members))), dict(check.membership))


class SliceSearch:
    """One-shot iterator over all valid slices in canonical member order.

    After iteration finishes, ``complete`` tells whether the search space was
    exhausted (True) or cut short by max_slices / time_budget (False).
    """

    def __init__(
        self,
        graph: FDGraph,
        *,
        max_slices: int | None = None,
        time_budget: float | None = None,
    ):
        if graph.n_nodes > NODE_CAP:
            raise EnumerationCapError(
                f"graph has {graph.n_nodes} nodes, enumeration cap is {NODE_CAP}"
            )
        if max_slices is not None and max_slices < 1:
            raise ValueError("max_slices must be positive")
        if time_budget is not None and not time_budget > 0:  # rejects NaN as well
            raise ValueError("time_budget must be positive")
        self.graph = graph
        self.max_slices = max_slices
        self.time_budget = time_budget
        self.complete: bool | None = None

    def __iter__(self) -> Iterator[Slice]:
        graph = self.graph
        internals = graph.function_ids
        n = len(internals)
        # Bit masks: directives and functions in id order, and the directive
        # edges (parent, directive) functions enter through, as first met in
        # the entry table.  Two members conflict exactly when their entry
        # masks meet, which replaces the pairwise parent-route comparison.
        d_bit = {d: 1 << j for j, d in enumerate(graph.directive_ids)}
        e_bit: dict[tuple[str, str], int] = {}
        leaf = [0] * n
        entry = [0] * n
        ranked: dict[str, list[tuple[Fraction, int]]] = {d: [] for d in d_bit}
        for i, m in enumerate(internals):
            for d, routes in entry_parents(graph, m).items():
                leaf[i] |= d_bit[d]
                for p in routes:
                    entry[i] |= e_bit.setdefault((p, d), 1 << len(e_bit))
                ranked[d].append((graph.relevance(d, entry_parent(graph, d, routes)), i))
        # Owner order: the functions covering a directive, best entry
        # relevance first and ties to the smaller id (a stable sort keeps id
        # order), so the first chosen one owns it, as in metrics.assign_owners.
        # beats[i] holds, per directive under i, the functions that would take
        # it from i, and rivals[i] the functions i would take some directive
        # from.
        owners: list[list[int]] = []
        beats: list[list[int]] = [[] for _ in range(n)]
        rivals = [0] * n
        for covering in ranked.values():
            order = [i for _, i in sorted(covering, key=itemgetter(0), reverse=True)]
            owners.append(order)
            rest = sum(1 << i for i in order)
            ahead = 0
            for i in order:
                beats[i].append(ahead)
                ahead |= 1 << i
                rivals[i] |= rest & ~ahead
        self._owners = owners
        suffix = [0] * (n + 1)  # directives some member from i on covers
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] | leaf[i]
        universe = (1 << len(d_bit)) - 1

        deadline = None
        if self.time_budget is not None:
            deadline = time.monotonic() + self.time_budget
        emitted = 0
        steps = 0
        truncated = False
        # Preorder over the subset tree in id order, which emits slices in
        # lexicographic order of their sorted member tuples.  A frame is
        # [cursor, covered, used entry edges, chosen members]; the members
        # before its cursor that it did not choose are excluded, so it is dead
        # once its cover and all undecided members together miss a directive.
        stack = [[0, 0, 0, 0]]
        while stack:
            steps += 1
            if (
                deadline is not None
                and (steps & 0xFF) == 0
                and time.monotonic() > deadline
            ):
                truncated = True
                break
            frame = stack[-1]
            i, covered, used, chosen = frame
            if i == n or covered | suffix[i] != universe:
                stack.pop()
                continue
            frame[0] = i + 1
            if entry[i] & used:  # sharing rule
                continue
            # empty-member rule: adding members only adds competitors, so once
            # i or a chosen member it beats owns nothing, every extension fails
            chosen |= 1 << i
            if all(b & chosen for b in beats[i]):
                continue
            if any(all(b & chosen for b in beats[j]) for j in _bits(chosen & rivals[i])):
                continue
            covered |= leaf[i]
            stack.append([i + 1, covered, used | entry[i], chosen])
            if covered == universe:
                yield self._finish(chosen)
                emitted += 1
                if self.max_slices is not None and emitted >= self.max_slices:
                    truncated = True
                    break

        self.complete = not truncated

    def _finish(self, chosen: int) -> Slice:
        # Coverage, resolvable sharing and a directive for every member
        # already hold on this path, so the cover is a valid slice; each
        # directive goes to the first chosen function in its owner order.
        internals = self.graph.function_ids
        membership = {}
        for d, order in zip(self.graph.directive_ids, self._owners):
            for i in order:
                if chosen >> i & 1:
                    membership[d] = internals[i]
                    break
        # a tuple built from a list is allocated at its size, not grown and cut
        return Slice(tuple([internals[i] for i in _bits(chosen)]), membership)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_slices(
    graph: FDGraph,
    *,
    max_slices: int | None = None,
    time_budget: float | None = None,
) -> Enumeration:
    """All valid slices in canonical order, with a completeness flag."""
    search = SliceSearch(graph, max_slices=max_slices, time_budget=time_budget)
    slices = tuple(search)
    return Enumeration(slices, bool(search.complete))


# -- scoring and ranking -----------------------------------------------------


def slice_objective(graph: FDGraph, slc: Slice, lam: Fraction = Fraction(1)) -> SliceMetrics:
    """Aggregate objective f = mean cohesion - lambda * mean coupling.

    Cohesion is averaged over members without weighting; coupling is
    averaged over ordered member pairs and taken as 0 for a single member.
    Each value is one Fraction of integers: the k cohesions summed over the
    lcm lc of their denominators give a / (k * lc), the coupling units
    summed give U / (scale * pairs), and with lambda = l / w the aggregate
    is (a*v*w - l*U*b) / (b*v*w) for b = k * lc and v = scale * pairs.
    """
    lam = to_fraction(lam)
    members = slc.members
    per_node = {m: cohesion(graph, m) for m in members}
    coupling = coupling_matrix(graph, members, slc.membership)
    lc = math.lcm(*(c.denominator for c in per_node.values()))
    a = sum([c.numerator * (lc // c.denominator) for c in per_node.values()])
    b = len(members) * lc
    units = sum(coupling.units.values())
    # a lone member has no pairs, and its empty PairCoupling has scale 1
    v = coupling.scale * (len(members) * (len(members) - 1) or 1)
    l, w = lam.numerator, lam.denominator
    aggregate = Fraction(a * v * w - l * units * b, b * v * w)
    return SliceMetrics(per_node, coupling, Fraction(a, b), Fraction(units, v), aggregate)


def score_slices(
    graph: FDGraph, slices: Iterable[Slice], lam: Fraction = Fraction(1)
) -> list[SliceMetrics]:
    """slice_objective for many slices, in input order."""
    return [slice_objective(graph, s, lam) for s in slices]


@dataclass(frozen=True)
class RankedSlice:
    slice: Slice
    metrics: SliceMetrics
    initial: bool


@dataclass(frozen=True)
class Ranking:
    entries: tuple[RankedSlice, ...]
    mean_aggregate: Fraction

    @property
    def initial_entries(self) -> tuple[RankedSlice, ...]:
        return tuple(e for e in self.entries if e.initial)


def rank_slices(slices: list[Slice], metrics: list[SliceMetrics]) -> Ranking:
    """Order slices by aggregate value (ties by member tuple) and mark the
    initial set: strictly above the mean, or everything when all tie."""
    if len(slices) != len(metrics):
        raise ValueError("slices and metrics must align")
    if not slices:
        raise ValueError("nothing to rank")
    aggregates = [m.aggregate for m in metrics]
    mean = exact_sum(aggregates) / len(aggregates)
    first = aggregates[0]
    all_equal = all(a == first for a in aggregates)
    # a stable sort keeps equal aggregates in member order, reverse included
    order = sorted(zip(slices, metrics), key=lambda sm: sm[0].members)
    order.sort(key=lambda sm: sm[1].aggregate, reverse=True)
    entries = tuple(
        RankedSlice(s, m, all_equal or m.aggregate > mean) for s, m in order
    )
    return Ranking(entries, mean)
