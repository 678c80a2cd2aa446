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

The search runs on Python-int bitsets built once per search: the
directives under each function and the directive edges (parent, directive)
it enters them through, both read from graph.entry_parents, and the
functions it is related to by decomposition, read from the cached
descendants.  Each branch costs a few mask tests; only a complete cover goes
through membership assignment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .graph import FDGraph, NodeKind, Violation, descendants, entry_parents
from .metrics import (
    assign_owners,
    cohesion,
    coupling_matrix,
    cover_map,
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
        index = {m: i for i, m in enumerate(internals)}
        e_bit: dict[tuple[str, str], int] = {}
        leaf = [0] * n
        entry = [0] * n
        related = [0] * n
        for i, m in enumerate(internals):
            for d, routes in entry_parents(graph, m).items():
                leaf[i] |= d_bit[d]
                for p in routes:
                    entry[i] |= e_bit.setdefault((p, d), 1 << len(e_bit))
            # a function below m blocks m and is blocked by it
            for x in descendants(graph, m):
                j = index.get(x)
                if j is not None:
                    related[i] |= 1 << j
                    related[j] |= 1 << i
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
        # [cursor, covered, used entry edges, blocked members]; the members
        # before its cursor that it did not choose are excluded, so it is dead
        # once its cover and all undecided members together miss a directive.
        # The cursor of every frame below the top sits one past the member its
        # child frame included.
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
            i, covered, used, blocked = frame
            if i == n or covered | suffix[i] != universe:
                stack.pop()
                continue
            frame[0] = i + 1
            if blocked >> i & 1:  # ancestor rule
                continue
            if entry[i] & used:  # sharing rule
                continue
            covered |= leaf[i]
            stack.append([i + 1, covered, used | entry[i], blocked | related[i]])
            if covered == universe:
                slc = self._finish([internals[f[0] - 1] for f in stack[:-1]])
                if slc is not None:
                    yield slc
                    emitted += 1
                    if self.max_slices is not None and emitted >= self.max_slices:
                        truncated = True
                        break

        self.complete = not truncated

    def _finish(self, chosen: list[str]) -> Slice | None:
        # Coverage and resolvable sharing already hold on this path; a member
        # that wins no directive disqualifies the candidate.
        assignment = assign_owners(self.graph, cover_map(self.graph, chosen))
        if len(set(assignment.values())) < len(chosen):
            return None
        return Slice(tuple(chosen), assignment)


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
