"""Capability slices: validity, enumeration, scoring, ranking.

A slice is a set of function nodes that jointly cover every directive
exactly once after membership resolution.  The mission and directives are
never members, no member may be an ancestor of another, resolution must be
unambiguous, and every member must end up owning at least one directive.

Enumeration walks the candidate functions in id order with an
include/exclude decision per node, pruning branches that repeat an
ancestor conflict, create unresolvable sharing, or can no longer cover some
directive.  This visits every antichain that could still become a valid
slice, so supersets of already-complete covers are found too (a member can
join an existing cover by winning shared directives on relevance).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .graph import FDGraph, NodeKind, Violation, ancestors, descendants, leaves_of
from .metrics import (
    cohesion,
    coupling_matrix,
    owned_directives,
    parent_routes,
    resolve_membership,
    sharing_conflicts,
)
from .rational import exact_sum, to_fraction


class InvalidSliceError(ValueError):
    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations) or "invalid slice")


class EnumerationCapError(RuntimeError):
    """Graph exceeds the configured node cap for enumeration."""


DEFAULT_NODE_CAP = 10_000


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
    coupling: Mapping[tuple[str, str], Fraction]
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
    for m in members:
        graph.node(m)

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

    ancestor_pairs = False
    for i, a in enumerate(members):
        down = descendants(graph, a)
        for b in members[i + 1 :]:
            if b in down or a in descendants(graph, b):
                ancestor_pairs = True
                violations.append(
                    Violation(
                        "ANCESTOR_PAIR",
                        f"{a},{b}",
                        f"{a} and {b} are related by decomposition",
                    )
                )

    covered: set[str] = set()
    for m in members:
        covered |= leaves_of(graph, m)
    missing = sorted(set(graph.directive_ids) - covered)
    if missing:
        violations.append(
            Violation("UNCOVERED", ",".join(missing), "some directives are covered by no member")
        )

    membership: Mapping[str, str] | None = None
    blocking = ancestor_pairs or any(
        v.code in ("MISSION_MEMBER", "DIRECTIVE_MEMBER") for v in violations
    )
    if not blocking:
        conflicts = sharing_conflicts(graph, members)
        for d, p, pair in conflicts:
            violations.append(
                Violation(
                    "UNRESOLVABLE",
                    d,
                    f"{pair[0]} and {pair[1]} reach {d} through the same parent {p}",
                )
            )
        if not conflicts:
            assignment = resolve_membership(graph, members, complete=False)
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
        node_cap: int = DEFAULT_NODE_CAP,
    ):
        if graph.n_nodes > node_cap:
            raise EnumerationCapError(
                f"graph has {graph.n_nodes} nodes, enumeration cap is {node_cap}"
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
        internals = list(graph.function_ids)
        universe = tuple(graph.directive_ids)
        n = len(internals)
        internal_set = set(internals)

        leaf = {m: sorted(leaves_of(graph, m)) for m in internals}
        leaf_set = {m: frozenset(leaf[m]) for m in internals}
        blocked_set = {
            m: sorted((ancestors(graph, m) | descendants(graph, m)) & internal_set)
            for m in internals
        }

        future = {d: 0 for d in universe}
        for m in internals:
            for d in leaf[m]:
                future[d] += 1
        cover_cnt = {d: 0 for d in universe}
        uncovered = len(universe)
        blocked_cnt = {m: 0 for m in internals}
        chosen: list[str] = []

        route_cache: dict[tuple[str, str], frozenset[str]] = {}

        def routes(m: str, d: str) -> frozenset[str]:
            r = route_cache.get((m, d))
            if r is None:
                r = parent_routes(graph, m, d)
                route_cache[(m, d)] = r
            return r

        def compatible(m: str) -> bool:
            for s in chosen:
                for d in leaf_set[m] & leaf_set[s]:
                    if routes(m, d) & routes(s, d):
                        return False
            return True

        deadline = None
        if self.time_budget is not None:
            deadline = time.monotonic() + self.time_budget
        emitted = 0
        steps = 0
        truncated = False
        # directives no chosen member covers and no undecided member can
        doomed = 0

        def include(i: int) -> None:
            nonlocal uncovered, doomed
            m = internals[i]
            chosen.append(m)
            for d in leaf[m]:
                if cover_cnt[d] == 0:
                    uncovered -= 1
                    if future[d] == 0:
                        doomed -= 1
                cover_cnt[d] += 1
            for x in blocked_set[m]:
                blocked_cnt[x] += 1

        def uninclude(i: int) -> None:
            nonlocal uncovered, doomed
            m = internals[i]
            chosen.pop()
            for d in leaf[m]:
                cover_cnt[d] -= 1
                if cover_cnt[d] == 0:
                    uncovered += 1
                    if future[d] == 0:
                        doomed += 1
            for x in blocked_set[m]:
                blocked_cnt[x] -= 1

        def exclude(i: int) -> None:
            nonlocal doomed
            for d in leaf[internals[i]]:
                future[d] -= 1
                if future[d] == 0 and cover_cnt[d] == 0:
                    doomed += 1

        def unexclude(i: int) -> None:
            nonlocal doomed
            for d in leaf[internals[i]]:
                if future[d] == 0 and cover_cnt[d] == 0:
                    doomed -= 1
                future[d] += 1

        # Preorder over the subset tree: each frame first offers the chosen
        # set itself, then branches on every remaining member in id order,
        # excluding each after its branch.  Preorder emission is exactly
        # lexicographic order of the sorted member tuples.
        ENTER, LOOP, AFTER = 0, 1, 2
        excl: list[int] = []
        # frame: [start index, cursor, phase, exclusion mark]
        stack: list[list[int]] = [[0, 0, ENTER, 0]]
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
            phase = frame[2]

            if phase == ENTER:
                frame[3] = len(excl)
                if uncovered == 0 and chosen:
                    slc = self._finish(chosen)
                    if slc is not None:
                        yield slc
                        emitted += 1
                        if self.max_slices is not None and emitted >= self.max_slices:
                            truncated = True
                            break
                frame[1] = frame[0]
                frame[2] = LOOP
                continue

            if phase == AFTER:
                idx = frame[1]
                uninclude(idx)
                exclude(idx)
                excl.append(idx)
                frame[1] = idx + 1
                frame[2] = LOOP
                continue

            idx = frame[1]
            if idx >= n or doomed:
                while len(excl) > frame[3]:
                    unexclude(excl.pop())
                stack.pop()
                continue
            m = internals[idx]
            if blocked_cnt[m] == 0 and compatible(m):
                include(idx)
                frame[2] = AFTER
                stack.append([idx + 1, idx + 1, ENTER, len(excl)])
                continue
            exclude(idx)
            excl.append(idx)
            frame[1] = idx + 1

        self.complete = not truncated and not stack

    def _finish(self, chosen: list[str]) -> Slice | None:
        # Coverage and pairwise resolvability already hold on this path;
        # membership resolution decides ownership, and a member that wins
        # nothing disqualifies the candidate.
        assignment = resolve_membership(self.graph, chosen, complete=False)
        owners = set(assignment.values())
        if any(m not in owners for m in chosen):
            return None
        return Slice(tuple(chosen), assignment)


def enumerate_slices(
    graph: FDGraph,
    *,
    max_slices: int | None = None,
    time_budget: float | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Enumeration:
    """All valid slices in canonical order, with a completeness flag."""
    search = SliceSearch(
        graph, max_slices=max_slices, time_budget=time_budget, node_cap=node_cap
    )
    slices = tuple(search)
    return Enumeration(slices, bool(search.complete))


# -- scoring and ranking -----------------------------------------------------


def slice_objective(graph: FDGraph, slc: Slice, lam: Fraction = Fraction(1)) -> SliceMetrics:
    """Aggregate objective f = mean cohesion - lambda * mean coupling.

    Cohesion is averaged over members without weighting; coupling is
    averaged over ordered member pairs and taken as 0 for a single member.
    """
    lam = to_fraction(lam)
    members = slc.members
    per_node = {m: cohesion(graph, m) for m in members}
    coupling = coupling_matrix(graph, members, slc.membership)
    mean_ch = exact_sum(per_node.values()) / len(members)
    n_pairs = len(members) * (len(members) - 1)
    mean_cp = exact_sum(coupling.values()) / n_pairs if n_pairs else Fraction(0)
    return SliceMetrics(per_node, coupling, mean_ch, mean_cp, mean_ch - lam * mean_cp)


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
    mean = sum((m.aggregate for m in metrics), Fraction(0)) / len(metrics)
    all_equal = len({m.aggregate for m in metrics}) == 1
    order = sorted(
        zip(slices, metrics), key=lambda sm: (-sm[1].aggregate, sm[0].members)
    )
    entries = tuple(
        RankedSlice(s, m, all_equal or m.aggregate > mean) for s, m in order
    )
    return Ranking(entries, mean)
