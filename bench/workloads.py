"""Seeded input sets for the benchmark workloads.

Each workload is a list of CLI operations over input files that this module
generates from a seed.  Inputs are screened with the library at generation
time (every graph validates, every scenario applies to every slice, slice
counts fall in the workload's band), and the library's own answer for each
input is stored next to it so the benchmark can check the CLI's output.

Costs are stratified: every input set holds one input near each of a fixed
list of cost targets, spaced evenly in log cost between the workload's
bounds.  The cost of an input is a proxy computed from results the program
keeps (slice members, owned directives, couplings, impact cells), so two
seeds give sets with nearly the same cost distribution, and p50 / p90 are
not set by one or two graphs.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from capslice.changesim import compare_slices, parse_scenarios
from capslice.graph import GraphError, parse_graph, validate
from capslice.optimizer import EXHAUSTIVE_LIMIT, OptimizationConfig, optimize
from capslice.slicing import SliceSearch, rank_slices, slice_objective

DEFAULT_SEED = 1

# Relevance weights: the four impact categories plus plain decimals, so both
# ties and non-category values occur.
PALETTE = ("1", "0.7", "0.7", "0.3", "0.1", "0.5", "0.45", "0.8")

# Costs are proportional to calibrated time at the parent commit, where the
# constants below were fitted; they only choose which inputs to keep.
ORDER_STEPS_PER_UNIT = 11800.0
# typical cost of one exhaustive order search by slice size, for screening
ORDER_UNITS = {5: 0.25, 6: 1.8, 7: 14.5, 8: 150.0}

# Inputs per set.  Every input runs once per pass, so the timed samples come
# in one cluster per input, ordered by cost; with 35 inputs the median
# (0.5 * 35 = 17.5) and p90 (0.9 * 35 = 31.5) fall mid-way through one
# input's cluster instead of on the edge between two inputs.
N_INPUTS = 35
# valid slices per slices_shared graph
SLICES_BAND = (8, 60)
# (top-level functions, functions split in two) for optimize_broad graphs:
# at most 7 members, except (7, 2) and (7, 3), whose larger slices take the
# greedy path; slices of exactly 8 members cost more than the band allows
SHAPES = ((5, 2), (5, 2), (6, 1), (6, 1), (7, 0), (7, 2), (7, 3))
SCENARIO_KINDS = (
    "modify_directive",
    "delete_directive",
    "add_directive",
    "delete_function_subtree",
    "add_function",
)


@dataclass
class Candidate:
    cost: float
    files: dict[str, str]  # file name -> text
    argv: list[str]  # CLI arguments; file names are relative to the input dir
    expect: Callable[[], dict]  # library answer the CLI output must agree with
    props: dict  # input properties for the report


# -- graph text -----------------------------------------------------------------


def graph_text(nodes: list[tuple[str, str]], edges: dict[tuple[str, str], str | None]) -> str:
    doc = {
        "nodes": [{"id": i, "kind": k} for i, k in nodes],
        "edges": [
            {"from": u, "to": v} if r is None else {"from": u, "to": v, "relevance": float(r)}
            for (u, v), r in sorted(edges.items())
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def shared_graph(rng: random.Random, n_fun: int, n_dir: int) -> str:
    """Random decomposition where about half the directives have two parents."""
    funs = [f"f{i:02d}" for i in range(n_fun)]
    dirs = [f"d{i:02d}" for i in range(n_dir)]
    edges: dict[tuple[str, str], str | None] = {}
    for i, f in enumerate(funs):
        parent = "m" if i < 3 else rng.choice(["m"] + funs[:i])
        edges[(parent, f)] = None
    for d in dirs:
        edges[(rng.choice(funs), d)] = rng.choice(PALETTE)
        if rng.random() < 0.5:
            edges[(rng.choice(funs), d)] = rng.choice(PALETTE)
    parents = {u for u, _ in edges}
    for f in funs:
        if f not in parents:
            edges[(f, rng.choice(dirs))] = rng.choice(PALETTE)
    nodes = [("m", "mission")] + [(f, "function") for f in funs] + [(d, "directive") for d in dirs]
    return graph_text(nodes, edges)


def broad_graph(rng: random.Random, n_top: int, n_split: int, max_dirs: int) -> tuple[str, list[str]]:
    """Mission over n_top functions, n_split of them split into two halves.

    Returns the graph text and the functions that hold directives.
    """
    split = set(rng.sample(range(n_top), n_split))
    nodes = [("m", "mission")]
    edges: dict[tuple[str, str], str | None] = {}
    holders: list[str] = []
    n_dir = 0
    for t in range(n_top):
        top = f"t{t}"
        nodes.append((top, "function"))
        edges[("m", top)] = None
        subs = [top + "a", top + "b"] if t in split else [top]
        for s in subs:
            if s != top:
                nodes.append((s, "function"))
                edges[(top, s)] = None
            for _ in range(rng.randint(2, max_dirs)):
                d = f"d{n_dir:02d}"
                n_dir += 1
                nodes.append((d, "directive"))
                edges[(s, d)] = rng.choice(PALETTE)
            holders.append(s)
    # a few directives shared across top-level groups (intersections)
    dirs = sorted(v for (_, v) in edges if v.startswith("d"))
    for _ in range(rng.randint(1, 3)):
        d, h = rng.choice(dirs), rng.choice(holders)
        edges.setdefault((h, d), rng.choice(PALETTE))
    return graph_text(nodes, edges), holders


# -- cost model ------------------------------------------------------------------


def order_search_steps(members: tuple[str, ...], coupling: dict) -> int:
    """Inner-loop steps of a branch-and-bound search for the build order.

    A cost model, not a scheduler: it walks the same search the optimizer's
    exhaustive build order walks at the parent commit (members in id order,
    a prefix is cut once its coupling cost reaches the best complete order)
    and counts the cost terms it adds.  It reads only the slice's coupling
    matrix, a result the program keeps, so the model and the inputs it
    selects stay fixed when the optimizer changes.
    """
    k = len(members)
    if k > EXHAUSTIVE_LIMIT:
        return k * k * k
    denom = math.lcm(*(v.denominator for v in coupling.values())) if coupling else 1
    cost = {pq: v.numerator * (denom // v.denominator) for pq, v in coupling.items()}
    order: list[str] = []
    best = [None]
    steps = [0]

    def walk(prefix: int) -> None:
        steps[0] += k
        if best[0] is not None and prefix >= best[0]:
            return
        if len(order) == k:
            best[0] = prefix
            return
        for c in members:
            if c in order:
                continue
            steps[0] += len(order) + 1
            added = sum(cost[(p, c)] for p in order)
            order.append(c)
            walk(prefix + added)
            order.pop()

    walk(0)
    return steps[0]


# -- per-workload candidates ----------------------------------------------------


def _valid_graph(text: str):
    graph = parse_graph(text)
    return graph if validate(graph).ok else None


def _member_props(graph, slices) -> dict:
    return {
        "nodes": graph.n_nodes,
        "slices": len(slices),
        "members": [len(s.members) for s in slices],
    }


def scoring_cost(graph, slices) -> float:
    """Predicted cost of enumerating, scoring and printing slices.

    Scoring a slice sums over every pair of directives owned by two
    different members.
    """
    n_dir = len(graph.directive_ids)
    pairs = sum(n_dir * n_dir - sum(c * c for c in Counter(s.membership.values()).values()) for s in slices)
    return 1.0 + 0.175 * len(slices) + 0.00335 * pairs


def slices_candidate(rng: random.Random, size: float, wanted: Callable[..., bool]) -> Candidate | None:
    text = shared_graph(rng, 10 + round(4 * size) + rng.randint(0, 1), 14 + round(6 * size) + rng.randint(0, 2))
    graph = _valid_graph(text)
    if graph is None:
        return None
    slices = list(SliceSearch(graph, max_slices=SLICES_BAND[1] + 1))
    if not SLICES_BAND[0] <= len(slices) <= SLICES_BAND[1]:
        return None
    cost = scoring_cost(graph, slices)
    if not wanted(cost):
        return None
    return Candidate(
        cost=cost,
        files={"graph.json": text},
        argv=["slices", "graph.json"],
        expect=lambda: {"slices": [list(s.members) for s in slices]},
        props=_member_props(graph, slices),
    )


def optimize_candidate(rng: random.Random, size: float, wanted: Callable[..., bool]) -> Candidate | None:
    n_top, n_split = rng.choice(SHAPES)
    text, holders = broad_graph(rng, n_top, n_split, 2 + round(3 * size))
    graph = _valid_graph(text)
    if graph is None:
        return None
    slices = list(SliceSearch(graph))
    if not slices:
        return None
    # low feasibility on one or two holders leaves some candidates infeasible
    low = sorted(rng.sample(holders, rng.randint(1, 2)))
    config_doc = {"tf": {h: 0.4 for h in low}, "tf_min": 0.5}
    config = OptimizationConfig.from_dict(config_doc)
    ranking = rank_slices(slices, [slice_objective(graph, s, config.lam) for s in slices])
    initial = ranking.initial_entries
    base = scoring_cost(graph, slices)
    # screen on the typical search cost per size before running the cost model
    if not wanted(base + sum(ORDER_UNITS.get(len(e.slice.members), 0.0) for e in initial), 0.15):
        return None
    steps = sum(order_search_steps(e.slice.members, e.metrics.coupling) for e in initial)
    cost = base + steps / ORDER_STEPS_PER_UNIT
    if not wanted(cost):
        return None

    def expect() -> dict:
        result = optimize(graph, [e.slice for e in initial], config, metrics=[e.metrics for e in initial])
        return {
            "candidates": len(slices),
            "initial": len(initial),
            "best": None if result.best is None else list(result.best.slice.members),
        }

    return Candidate(
        cost=cost,
        files={"graph.json": text, "config.json": json.dumps(config_doc, sort_keys=True)},
        argv=["optimize", "graph.json", "config.json"],
        expect=expect,
        props=_member_props(graph, slices),
    )


def _scenario(rng: random.Random, graph, kind: str, serial: int) -> dict:
    functions = graph.function_ids
    directives = graph.directive_ids
    if kind == "modify_directive":
        d = rng.choice(directives)
        parent = rng.choice(graph.parents(d))
        return {"kind": kind, "target": d, "payload": {"relevance": {parent: float(rng.choice(PALETTE))}}}
    if kind == "delete_directive":
        return {"kind": kind, "target": rng.choice(directives)}
    if kind == "add_directive":
        payload = {"id": f"x{serial:02d}", "relevance": float(rng.choice(PALETTE))}
        return {"kind": kind, "target": rng.choice(functions), "payload": payload}
    if kind == "delete_function_subtree":
        return {"kind": kind, "target": rng.choice(functions)}
    parent = rng.choice([f for f in functions if len(graph.children(f)) >= 2])
    kids = list(graph.children(parent))
    adopted = sorted(rng.sample(kids, rng.randint(1, len(kids) - 1)))
    return {"kind": kind, "target": parent, "payload": {"id": f"y{serial:02d}", "children": adopted}}


def simulate_candidate(rng: random.Random, size: float, wanted: Callable[..., bool]) -> Candidate | None:
    text = shared_graph(rng, 9 + round(3 * size) + rng.randint(0, 2), 12 + round(6 * size) + rng.randint(0, 3))
    graph = _valid_graph(text)
    if graph is None:
        return None
    slices = list(SliceSearch(graph, max_slices=200))
    if len(slices) < 3:
        return None
    picked = sorted(rng.sample(range(len(slices)), min(len(slices), rng.randint(3, 5))))
    chosen = [slices[i] for i in picked]
    n_scen = rng.randint(5, 8)
    kinds = list(SCENARIO_KINDS) + [rng.choice(SCENARIO_KINDS) for _ in range(n_scen - 5)]
    cost = len(chosen) * n_scen * (graph.n_nodes + len(graph.edges())) / 40.0
    if not wanted(cost):
        return None
    scenarios: list[dict] = []
    for serial, kind in enumerate(kinds):
        for _ in range(20):
            doc = _scenario(rng, graph, kind, serial)
            try:
                compare_slices(graph, chosen, parse_scenarios(json.dumps([doc])))
            except (ValueError, GraphError):  # ChangeError, membership errors
                continue
            scenarios.append(doc)
            break
        else:
            return None
    comparison = compare_slices(graph, chosen, parse_scenarios(json.dumps(scenarios)))
    argv = ["simulate", "graph.json", "scenarios.json"]
    for s in chosen:
        argv += ["--slice", ",".join(s.members)]
    return Candidate(
        cost=cost,
        files={"graph.json": text, "scenarios.json": json.dumps(scenarios, sort_keys=True)},
        argv=argv,
        expect=lambda: {"matrix": [[r.impact_count for r in row] for row in comparison.reports]},
        props=_member_props(graph, slices),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, float, Callable[..., bool]], Candidate | None]
    n_inputs: int
    cost_lo: float
    cost_hi: float
    pool_factor: int  # candidates drawn per input kept


WORKLOADS = {
    w.name: w
    for w in (
        Workload("optimize_broad", optimize_candidate, N_INPUTS, 15.0, 25.0, 3),
        Workload("slices_shared", slices_candidate, N_INPUTS, 6.0, 30.0, 6),
        Workload("simulate_edits", simulate_candidate, N_INPUTS, 28.0, 60.0, 3),
    )
}


# -- input sets -----------------------------------------------------------------


def _stratified(workload: Workload, rng: random.Random, max_tries: int = 5000) -> list[Candidate]:
    """Inputs whose costs sit close to fixed targets spread over the band.

    The n targets are spaced evenly in log cost between the band's bounds.
    A pool of pool_factor * n candidates with costs in the band is drawn,
    and each target takes the unused candidate nearest to it, so every seed
    gives nearly the same cost distribution and p50 / p90 do not hinge on
    one or two graphs.
    """
    n, lo, hi = workload.n_inputs, workload.cost_lo, workload.cost_hi

    def wanted(cost: float, slack: float = 0.0) -> bool:
        return lo * (1 - slack) <= cost < hi * (1 + slack)

    pool: list[Candidate] = []
    for _ in range(max_tries):
        cand = workload.make(rng, rng.random(), wanted)
        if cand is not None and wanted(cand.cost):
            pool.append(cand)
            if len(pool) == workload.pool_factor * n:
                break
    else:
        raise RuntimeError(f"{workload.name}: too few inputs in the cost band after {max_tries} tries")
    chosen = []
    for i in range(n):
        target = math.log(lo) + (i + 0.5) / n * math.log(hi / lo)
        best = min(range(len(pool)), key=lambda j: abs(math.log(pool[j].cost) - target))
        chosen.append(pool.pop(best))
    return chosen


def build_inputs(name: str, seed: int, out_dir: str) -> dict:
    """Write one workload's input set under out_dir and return its manifest."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    ops = []
    for i, cand in enumerate(_stratified(workload, rng)):
        op_id = f"op{i:02d}"
        op_dir = os.path.join(out_dir, op_id)
        os.makedirs(op_dir, exist_ok=True)
        for fname, text in cand.files.items():
            with open(os.path.join(op_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(op_dir, a) if a in cand.files else a for a in cand.argv]
        ops.append({"id": op_id, "argv": argv + ["--format", "machine"], "expect": cand.expect(),
                    "cost": cand.cost, "props": cand.props})
    return {"workload": name, "seed": seed, "ops": ops, "properties": properties(ops)}


def properties(ops: list[dict]) -> dict:
    """Summary of an input set: sizes, slice counts, member-count histogram."""
    nodes = sorted(op["props"]["nodes"] for op in ops)
    counts = sorted(op["props"]["slices"] for op in ops)
    members = Counter(m for op in ops for m in op["props"]["members"])
    total = sum(members.values())
    above = sum(c for m, c in members.items() if m > EXHAUSTIVE_LIMIT)
    return {
        "inputs": len(ops),
        "nodes": {"min": nodes[0], "median": nodes[len(nodes) // 2], "max": nodes[-1]},
        "slices_per_graph": {"min": counts[0], "median": counts[len(counts) // 2], "max": counts[-1]},
        "member_histogram": {str(m): members[m] for m in sorted(members)},
        "share_above_exhaustive_limit": round(above / total, 4) if total else 0.0,
    }
