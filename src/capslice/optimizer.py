"""Constrained selection among candidate slices.

Each slice is judged on three criteria: the aggregate objective f, technical
feasibility tf (the weakest member), and schedule s (total build time plus
the coupling cost of the chosen build order).  Feasible slices are ranked by

    z = w_f * norm(f) + w_tf * tf - w_s * norm(makespan + order_cost)

where norm() rescales a criterion to [0, 1] over the feasible pool and a
constant criterion maps to 1/2.  Alongside the argmax the full Pareto front
over (f, tf, -makespan) is reported, so a caller can see what the scalar
weights traded away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graph import graph_index, impact_category
from .metrics import MembershipError, PairCoupling, best_route, coupling_matrix, size_of
from .rational import brief, exact_sum, load_exact_json, to_fraction
from .slicing import Slice, SliceMetrics, slice_objective

EXHAUSTIVE_LIMIT = 8


class ConfigError(ValueError):
    """Malformed optimization config."""


class ManifestError(ValueError):
    """Malformed capability manifest."""


@dataclass(frozen=True)
class TechFeasibility:
    """Per-node technical feasibility in [0, 1]; unlisted nodes default."""

    per_node: Mapping[str, Fraction] = field(default_factory=dict)
    default: Fraction = Fraction(1)

    def value_for(self, node_id: str) -> Fraction:
        return self.per_node.get(node_id, self.default)


def slice_feasibility(slc: Slice, tf: TechFeasibility) -> Fraction:
    """A slice is only as feasible as its least feasible member."""
    return min(tf.value_for(m) for m in slc.members)


@dataclass(frozen=True)
class ScheduleModel:
    per_node_time: Mapping[str, Fraction]
    order: tuple[str, ...]
    makespan: Fraction
    order_cost: Fraction
    method: str  # "exhaustive" or "greedy"


def _int_costs(
    members: Sequence[str], coupling: Mapping[tuple[str, str], Fraction]
) -> tuple[Mapping[tuple[str, str], int], int]:
    # Pair couplings as integers over one denominator, so the order search
    # adds machine ints instead of Fractions.  coupling_matrix keeps them in
    # that form already; any other mapping is rescaled to the lcm of its
    # denominators.
    if isinstance(coupling, PairCoupling):
        return coupling.units, coupling.scale
    pairs = [(p, q) for p in members for q in members if p != q]
    denom = math.lcm(*(coupling[pq].denominator for pq in pairs))
    return {pq: coupling[pq].numerator * (denom // coupling[pq].denominator) for pq in pairs}, denom


def _agreeing_order(weight: Sequence[Sequence[int]]) -> list[int] | None:
    # Every order costs at least the sum over pairs of min(w[p][q], w[q][p]).
    # Place, each step, the first remaining member that is no dearer than
    # any other remaining member the other way round.  If every step finds
    # one, the order meets that bound, so it is optimal; a smaller member
    # skipped at a step would put some pair its dearer way, so it is also
    # the lexicographically first optimum.  None when some step finds no
    # such member: the strict preferences then hold a cycle.  dearer[c] has
    # bit r set when c before r costs strictly more than r before c, so a
    # member may go next when its mask misses the remaining set.
    k = len(weight)
    dearer = [0] * k
    for c in range(k - 1):
        row = weight[c]
        for r in range(c + 1, k):
            there, back = row[r], weight[r][c]
            if there > back:
                dearer[c] |= 1 << r
            elif back > there:
                dearer[r] |= 1 << c
    remaining = (1 << k) - 1
    order: list[int] = []
    while remaining:
        rest = remaining  # c runs up the remaining members from the lowest
        while dearer[c := (rest & -rest).bit_length() - 1] & remaining:
            rest &= rest - 1
            if not rest:
                return None
        order.append(c)
        remaining ^= 1 << c
    return order


def _exhaustive_order(
    members: Sequence[str], cost: Mapping[tuple[str, str], int]
) -> tuple[tuple[str, ...], int]:
    # The exact, lexicographically first optimal order.  coupling_matrix
    # tables always take _agreeing_order: Cp(p,q)/Cp(q,p) = |D_p|/|D_q|, so
    # the cheaper way round builds the member owning fewer directives first,
    # and the order is the members sorted by (owned count, id).  Otherwise
    # appending c after the placed set S costs sum(cost[p, c] for p in S),
    # whatever order S was built in, so a dynamic program over subsets
    # (Held-Karp) is exact in O(2^k * k).  Bit i of a mask is members[i].
    members = sorted(members)
    weight = [[cost[(p, c)] if p != c else 0 for c in members] for p in members]
    agreeing = _agreeing_order(weight)
    if agreeing is not None:
        total = sum(weight[p][c] for i, c in enumerate(agreeing) for p in agreeing[:i])
        return tuple(members[c] for c in agreeing), total
    k = len(members)
    full = (1 << k) - 1
    # into[S][c]: coupling from the members of S onto c, extended from S
    # without its lowest member
    into = [[0] * k]
    for s in range(1, full + 1):
        low = s & -s
        into.append([a + b for a, b in zip(into[s ^ low], weight[low.bit_length() - 1])])
    # rest[S]: least cost of placing everyone outside S after S
    rest = [0] * (full + 1)
    bits = [(c, 1 << c) for c in range(k)]
    for s in range(full - 1, -1, -1):
        row = into[s]
        rest[s] = min([row[c] + rest[s | b] for c, b in bits if not s & b])
    # rebuild forward taking the smallest minimizing member each step: the
    # lexicographically first optimal order
    order: list[str] = []
    s = 0
    while s != full:
        row = into[s]
        c = next(
            c
            for c in range(k)
            if not s >> c & 1 and row[c] + rest[s | 1 << c] == rest[s]
        )
        order.append(members[c])
        s |= 1 << c
    return tuple(order), rest[0]


def _greedy_order(
    members: Sequence[str], cost: Mapping[tuple[str, str], int]
) -> tuple[tuple[str, ...], int]:
    remaining = sorted(members)
    order: list[str] = []
    total = 0
    while remaining:
        pick = None
        pick_key = None
        for c in remaining:
            key = sum(cost[(c, r)] for r in remaining if r != c)
            if pick_key is None or key < pick_key:
                pick, pick_key = c, key
        total += sum(cost[(p, pick)] for p in order)
        order.append(pick)
        remaining.remove(pick)
    return tuple(order), total


def schedule_slice(graph, slc: Slice, times=None, coupling=None) -> ScheduleModel:
    """Sequential build schedule for a slice.

    Build time per member defaults to its size, and the makespan is their
    exact_sum; the build order minimizes the summed coupling from earlier
    members onto later ones.  Up to EXHAUSTIVE_LIMIT members it is exact
    ("exhaustive" names the exact answer, not how it is found) and the
    lexicographically first optimal order.  Every order costs at least the
    sum of each pair's cheaper direction; an order that puts every pair its
    cheaper way meets that bound, and a bitmask walk over the pairs finds
    it.  Coupling from coupling_matrix always has one, since
    Cp(p,q)/Cp(q,p) = |D_p|/|D_q|: the members sorted by (owned count, id).
    Other tables whose preferences form a cycle fall back to a dynamic
    program over subsets in O(2^k * k).  Beyond the limit it is greedy.
    """
    per: dict[str, Fraction] = {}
    for m in slc.members:
        t = None
        if times is not None and m in times:
            t = to_fraction(times[m])
        if t is None:
            t = Fraction(size_of(graph, m))
        if t <= 0:
            raise ValueError(f"build time for {m!r} must be positive")
        per[m] = t

    if coupling is None:
        coupling = coupling_matrix(graph, slc.members, slc.membership)
    cost, denom = _int_costs(slc.members, coupling)

    if len(slc.members) <= EXHAUSTIVE_LIMIT:
        order, raw = _exhaustive_order(slc.members, cost)
        method = "exhaustive"
    else:
        order, raw = _greedy_order(slc.members, cost)
        method = "greedy"

    return ScheduleModel(
        per_node_time=per,
        order=order,
        makespan=exact_sum(per.values()),
        order_cost=Fraction(raw, denom),
        method=method,
    )


# -- configuration -----------------------------------------------------------

_CONFIG_KEYS = {"tf_min", "sched_max", "f_min", "lambda", "weights", "tf", "times"}


@dataclass(frozen=True)
class OptimizationConfig:
    tf_min: Fraction = Fraction(0)
    sched_max: Fraction | None = None
    f_min: Fraction | None = None
    lam: Fraction = Fraction(1)
    weights: tuple[Fraction, Fraction, Fraction] = (
        Fraction(1, 2),
        Fraction(3, 10),
        Fraction(1, 5),
    )
    tf_values: Mapping[str, Fraction] = field(default_factory=dict)
    tf_default: Fraction = Fraction(1)
    times: Mapping[str, Fraction] | None = None

    @classmethod
    def from_dict(cls, doc: Mapping) -> "OptimizationConfig":
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        try:
            return cls(**cls._fields_from(doc))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def _fields_from(doc: Mapping) -> dict:
        kwargs: dict = {}
        if "tf_min" in doc:
            kwargs["tf_min"] = to_fraction(doc["tf_min"])
        if "sched_max" in doc and doc["sched_max"] is not None:
            kwargs["sched_max"] = to_fraction(doc["sched_max"])
        if "f_min" in doc and doc["f_min"] is not None:
            kwargs["f_min"] = to_fraction(doc["f_min"])
        if "lambda" in doc:
            kwargs["lam"] = to_fraction(doc["lambda"])
        if "weights" in doc:
            w = doc["weights"]
            if not isinstance(w, Mapping) or set(w) != {"f", "tf", "sched"}:
                raise ConfigError("weights must map exactly f, tf and sched")
            triple = tuple(to_fraction(w[k]) for k in ("f", "tf", "sched"))
            if any(x < 0 for x in triple):
                raise ConfigError("weights must be nonnegative")
            total = sum(triple, Fraction(0))
            if total == 0:
                raise ConfigError("weights must not all be zero")
            kwargs["weights"] = tuple(x / total for x in triple)
        if "tf" in doc:
            if not isinstance(doc["tf"], Mapping):
                raise ConfigError("tf must map function ids to values")
            t = {k: to_fraction(v) for k, v in doc["tf"].items()}
            for k, v in t.items():
                if not 0 <= v <= 1:
                    raise ConfigError(f"tf value {brief(v)} for {k!r} outside [0, 1]")
            if "default" in t:
                kwargs["tf_default"] = t.pop("default")
            kwargs["tf_values"] = t
        if "times" in doc and doc["times"] is not None:
            if not isinstance(doc["times"], Mapping):
                raise ConfigError("times must map function ids to values")
            times = {k: to_fraction(v) for k, v in doc["times"].items()}
            for k, v in times.items():
                if v <= 0:
                    raise ConfigError(f"times value {brief(v)} for {k!r} must be positive")
            kwargs["times"] = times
        return kwargs

    @classmethod
    def load(cls, path: str) -> "OptimizationConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc  # a decode error has none
            raise ConfigError(f"cannot read {path}: {reason}") from exc
        doc = load_exact_json(text, "config", ConfigError)
        if not isinstance(doc, Mapping):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(doc)

    def tech_feasibility(self) -> TechFeasibility:
        return TechFeasibility(dict(self.tf_values), self.tf_default)


# -- scoring -------------------------------------------------------------------


@dataclass(frozen=True)
class Normalizers:
    f_lo: Fraction
    f_hi: Fraction
    s_lo: Fraction
    s_hi: Fraction


def _norm(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    if lo == hi:
        return Fraction(1, 2)
    return (x - lo) / (hi - lo)


def objective_z(
    f: Fraction,
    tf: Fraction,
    schedule: ScheduleModel,
    config: OptimizationConfig,
    norm: Normalizers,
) -> Fraction:
    w_f, w_tf, w_s = config.weights
    s = schedule.makespan + schedule.order_cost
    return w_f * _norm(f, norm.f_lo, norm.f_hi) + w_tf * tf - w_s * _norm(s, norm.s_lo, norm.s_hi)


@dataclass(frozen=True)
class SliceScore:
    slice: Slice
    metrics: SliceMetrics
    f: Fraction
    tf: Fraction
    schedule: ScheduleModel
    z: Fraction | None = None
    violated: tuple[str, ...] = ()


@dataclass(frozen=True)
class OptimizationResult:
    best: SliceScore | None
    feasible: tuple[SliceScore, ...]
    pareto: tuple[SliceScore, ...]
    infeasible: tuple[SliceScore, ...]


def _dominates(a: SliceScore, b: SliceScore) -> bool:
    ge = (
        a.f >= b.f
        and a.tf >= b.tf
        and a.schedule.makespan <= b.schedule.makespan
    )
    strict = a.f > b.f or a.tf > b.tf or a.schedule.makespan < b.schedule.makespan
    return ge and strict


def pareto_front(scores: Iterable[SliceScore]) -> tuple[SliceScore, ...]:
    """Nondominated entries under maximize(f, tf, -makespan).

    Maintains a running front: each candidate is dropped if something on the
    front dominates it, otherwise it evicts whatever it dominates.
    """
    front: list[SliceScore] = []
    for s in scores:
        if any(_dominates(f, s) for f in front):
            continue
        front = [f for f in front if not _dominates(s, f)]
        front.append(s)
    return tuple(sorted(front, key=lambda s: s.slice.members))


def optimize(
    graph,
    slices: Sequence[Slice],
    config: OptimizationConfig | None = None,
    metrics: Sequence[SliceMetrics] | None = None,
) -> OptimizationResult:
    """Score candidate slices, split by constraints, rank the feasible ones.

    No feasible candidate is an empty result, not an error: best is None and
    every entry sits in infeasible with the constraints it broke.
    """
    config = config or OptimizationConfig()
    tf = config.tech_feasibility()
    if metrics is None:
        metrics = [slice_objective(graph, s, config.lam) for s in slices]
    elif len(metrics) != len(slices):
        raise ValueError("metrics and slices must align")

    scored: list[SliceScore] = []
    for s, m in zip(slices, metrics):
        tf_val = slice_feasibility(s, tf)
        sched = schedule_slice(graph, s, times=config.times, coupling=m.coupling)
        violated = []
        if tf_val < config.tf_min:
            violated.append("tf")
        if config.sched_max is not None and sched.makespan > config.sched_max:
            violated.append("sched")
        if config.f_min is not None and m.aggregate < config.f_min:
            violated.append("f")
        scored.append(
            SliceScore(s, m, m.aggregate, tf_val, sched, violated=tuple(violated))
        )

    feasible = [s for s in scored if not s.violated]
    infeasible = tuple(
        sorted((s for s in scored if s.violated), key=lambda s: s.slice.members)
    )
    if not feasible:
        return OptimizationResult(None, (), (), infeasible)

    norm = Normalizers(
        f_lo=min(s.f for s in feasible),
        f_hi=max(s.f for s in feasible),
        s_lo=min(s.schedule.makespan + s.schedule.order_cost for s in feasible),
        s_hi=max(s.schedule.makespan + s.schedule.order_cost for s in feasible),
    )
    feasible = [
        replace(s, z=objective_z(s.f, s.tf, s.schedule, config, norm)) for s in feasible
    ]
    feasible.sort(key=lambda s: (-s.z, s.slice.members))
    best = feasible[0]
    front = pareto_front(feasible)
    return OptimizationResult(best, tuple(feasible), front, infeasible)


# -- manifest ------------------------------------------------------------------


def export_capabilities(
    graph,
    slc: Slice,
    *,
    lam: Fraction = Fraction(1),
    tf: TechFeasibility | None = None,
) -> dict:
    """Implementation-ready manifest for one slice.

    Each capability lists its owned directives with relevance through the
    winning entry parent, its coupling to and from every other capability,
    and its position in the suggested build order.  A membership that hands
    a member a directive it does not reach raises MembershipError naming
    both.
    """
    metrics = slice_objective(graph, slc, lam)
    tf = tf or TechFeasibility()
    sched = schedule_slice(graph, slc, coupling=metrics.coupling)
    position = {m: i for i, m in enumerate(sched.order)}

    index = graph_index(graph)
    capabilities = []
    for m in slc.members:
        directives = []
        for d in slc.owned(m):
            routes = index.entry[m] & index.routes[d]
            if not routes:
                raise MembershipError(f"member {m} owns directive {d} but does not reach it")
            via = index.edges[best_route(graph, routes)][0]
            rel = graph.relevance(d, via)
            directives.append(
                {
                    "id": d,
                    "label": graph.node(d).label,
                    "relevance": float(rel),
                    "category": impact_category(rel),
                    "via_parent": via,
                }
            )
        capabilities.append(
            {
                "id": m,
                "label": graph.node(m).label,
                "cohesion": float(metrics.per_node_cohesion[m]),
                "tf": float(tf.value_for(m)),
                "build_time": float(sched.per_node_time[m]),
                "position": position[m],
                "directives": directives,
                "coupling_out": {
                    q: float(metrics.coupling[(m, q)]) for q in slc.members if q != m
                },
                "coupling_in": {
                    q: float(metrics.coupling[(q, m)]) for q in slc.members if q != m
                },
            }
        )

    return {
        "kind": "capability-manifest",
        "members": list(slc.members),
        "aggregate": float(metrics.aggregate),
        "mean_cohesion": float(metrics.mean_cohesion),
        "mean_coupling": float(metrics.mean_coupling),
        "lambda": float(lam),
        "order": list(sched.order),
        "makespan": float(sched.makespan),
        "order_cost": float(sched.order_cost),
        "schedule_method": sched.method,
        "directive_count": sum(len(c["directives"]) for c in capabilities),
        "capabilities": capabilities,
    }


def validate_manifest(doc: Mapping) -> None:
    """Structural completeness check for a manifest; raises ManifestError."""
    try:
        problems = _manifest_problems(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        # a part of the wrong shape: a list given as a number or None, an
        # entry that is no object or lacks its id
        raise ManifestError(f"malformed manifest: {type(exc).__name__}: {exc}") from None
    if problems:
        raise ManifestError("; ".join(problems))


def _manifest_problems(doc: Mapping) -> list[str]:
    problems: list[str] = []
    required = {
        "kind",
        "members",
        "aggregate",
        "mean_cohesion",
        "mean_coupling",
        "lambda",
        "order",
        "makespan",
        "order_cost",
        "schedule_method",
        "directive_count",
        "capabilities",
    }
    missing = required - set(doc)
    if missing:
        raise ManifestError(f"missing manifest keys: {', '.join(sorted(missing))}")
    if doc["kind"] != "capability-manifest":
        problems.append(f"unexpected kind {doc['kind']!r}")

    members = list(doc["members"])
    if not members:
        problems.append("empty member list")
    if members != sorted(set(members)):
        problems.append("members must be sorted and unique")
    if sorted(doc["order"]) != sorted(members):
        problems.append("order is not a permutation of members")

    caps = {c.get("id"): c for c in doc["capabilities"]}
    if sorted(caps) != sorted(members):
        problems.append("capability entries do not match members")
    seen: set[str] = set()
    total = 0
    for m in members:
        cap = caps.get(m)
        if cap is None:
            continue
        order = list(doc["order"])
        if m in order and cap.get("position") != order.index(m):
            problems.append(f"position of {m} disagrees with order")
        ds = [d["id"] for d in cap.get("directives", [])]
        if not ds:
            problems.append(f"capability {m} lists no directives")
        dup = seen & set(ds)
        if dup:
            problems.append(f"directives assigned twice: {', '.join(sorted(dup))}")
        seen |= set(ds)
        total += len(ds)
        others = {q for q in members if q != m}
        for key in ("coupling_out", "coupling_in"):
            if set(cap.get(key, {})) != others:
                problems.append(f"{key} of {m} does not cover the other members")
    if total != doc["directive_count"]:
        problems.append("directive_count disagrees with capability contents")
    return problems
