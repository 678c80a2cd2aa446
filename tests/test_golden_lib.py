"""Exact library values, checked against committed fingerprints.

The CLI golden file hashes machine output, which holds doubles and 4-place
text, so an exact Fraction can change without moving a byte of it.  This
test hashes the exact values the library entry points return on seeded
random graphs: enumerated slices and their memberships, every
slice_objective field, schedule_slice, resolve_membership(complete=False),
both deletions at every node and random scenarios through apply_change,
compare_slices cells, and the validate report of each graph and of a
damaged copy.  Errors count as values, by type and message.

``golden_lib.json`` holds one SHA-256 per seed, so a failure names the
graph whose values moved.  ``python3 tests/make_golden_lib.py`` rewrites
the file; a change that does so must say why.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from capslice.changesim import ChangeScenario, ScenarioKind, apply_change, compare_slices
from capslice.graph import FDGraph, GraphError, parts, validate
from capslice.metrics import resolve_membership
from capslice.optimizer import schedule_slice
from capslice.slicing import enumerate_slices, slice_objective
from conftest import random_fd_graph, random_scenario

GOLDEN = Path(__file__).with_name("golden_lib.json")
SEEDS = range(100)


def _graph(g: FDGraph) -> tuple:
    # nodes, edges in stored order with their kinds, and exact relevance
    nodes = tuple((n, g.node(n).kind.value, g.node(n).label) for n in g.node_ids)
    edges = tuple((u, v, kind.value) for u, v, kind in g.edges())
    return nodes, edges, tuple(sorted(parts(g)[2].items()))


def _report(report) -> tuple:
    return report.ok, tuple((v.code, v.subject, v.message) for v in report.violations)


def _outcome(fn, *args, **kwargs):
    """fn's result, or its error as (type name, message)."""
    try:
        return fn(*args, **kwargs)
    except (GraphError, ValueError) as exc:  # ChangeError is a ValueError
        return type(exc).__name__, str(exc)


def _damaged(rng, g: FDGraph) -> FDGraph:
    # one or two edges gone, with their relevance; the other kinds stay
    # stated, so the new degrees can contradict them
    nodes, _, relevance = parts(g)
    kinds = {(u, v): kind for u, v, kind in g.edges()}
    for e in rng.sample(sorted(kinds), rng.randint(1, 2)):
        del kinds[e]
        relevance.pop((e[1], e[0]), None)
    return FDGraph(nodes, kinds, relevance)


def _impact(report) -> tuple:
    return (
        report.members,
        tuple(sorted(report.seed)),
        tuple(sorted(report.affected_directives)),
        tuple(sorted(report.affected_capabilities)),
        report.impact_count,
        report.threshold,
        report.evaluated_on,
    )


def _compare(g, slices, scenarios) -> tuple:
    cmp = compare_slices(g, slices, scenarios)
    cells = tuple(tuple(_impact(r) for r in row) for row in cmp.reports)
    return cells, cmp.totals, cmp.winners


def values(seed: int) -> list:
    """Every exact value recorded for one seeded graph, in a fixed order."""
    rng = random.Random(seed)
    g = random_fd_graph(rng, max_internal=12, max_directives=20)
    out: list = [_graph(g), _report(validate(g))]

    enum = enumerate_slices(g, max_slices=200)
    out.append(enum.complete)
    for s in enum.slices:
        m = slice_objective(g, s)
        sched = schedule_slice(g, s)
        out.append(
            (
                s.members,
                tuple(sorted(s.membership.items())),
                tuple(sorted(m.per_node_cohesion.items())),
                tuple(sorted(m.coupling.items())),
                m.mean_cohesion,
                m.mean_coupling,
                m.aggregate,
                tuple(sorted(sched.per_node_time.items())),
                sched.order,
                sched.makespan,
                sched.order_cost,
                sched.method,
            )
        )

    for k in (1, 2, 3):
        sets = list(itertools.combinations(g.function_ids, k))
        for members in rng.sample(sets, min(40, len(sets))):
            got = _outcome(resolve_membership, g, members, complete=False)
            out.append((members, tuple(sorted(got.items())) if isinstance(got, dict) else got))

    def applied(graph, scenario):
        got = _outcome(apply_change, graph, scenario)
        return _graph(got) if isinstance(got, FDGraph) else got

    for target in g.node_ids:
        for kind in (ScenarioKind.DELETE_DIRECTIVE, ScenarioKind.DELETE_FUNCTION_SUBTREE):
            out.append((target, kind.value, applied(g, ChangeScenario(kind, target))))
    for _ in range(6):
        sc = random_scenario(rng, g)
        got = applied(g, sc)
        out.append((sc.kind.value, sc.target, got))
        if enum.slices and isinstance(got[0], tuple):  # applied: cells for one scenario
            out.append(_outcome(_compare, g, enum.slices[:2], [sc]))

    out.append(_report(validate(_damaged(rng, g))))
    return out


def fingerprints() -> dict[str, str]:
    """SHA-256 of the repr of every seed's values, keyed ``s<seed>``."""
    return {
        f"s{seed:03d}": hashlib.sha256(repr(values(seed)).encode()).hexdigest()
        for seed in SEEDS
    }


def test_library_values_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = fingerprints()
    assert sorted(actual) == sorted(expected)
    moved = [key for key in expected if actual[key] != expected[key]]
    assert not moved, f"{len(moved)} of {len(expected)} graphs changed values: {moved}"
