"""Properties of the graph layer over Hypothesis-drawn graphs.

Most examples draw one seed for conftest.random_fd_graph, so a failure
names a seed that rebuilds its graph; those drawn by strategies.fd_graphs
draw the structure itself and shrink to a small graph.  The settings keep
the run deterministic: derandomized, no example database, no deadline.
"""

import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    HealthCheck,
    assume,
    example,
    given,
    settings,
    strategies as st,
)

from fractions import Fraction  # noqa: E402

from capslice.changesim import (  # noqa: E402
    ChangeError,
    parse_scenarios,
    ScenarioKind,
    _apply,
    apply_change,
    compare_slices,
)
from capslice.graph import (  # noqa: E402
    EdgeKind,
    GraphError,
    NodeKind,
    build_graph,
    find_cycle,
    parse_graph,
    parts,
    serialize_graph,
    validate,
)
from capslice.metrics import (  # noqa: E402
    MembershipError,
    UnresolvableSharingError,
    cohesion,
    coupling_matrix,
    resolve_membership,
    size_of,
)
from capslice.cli import main  # noqa: E402
from capslice.optimizer import EXHAUSTIVE_LIMIT, schedule_slice  # noqa: E402
from capslice.rational import literal_reader, to_fraction  # noqa: E402
from capslice.slicing import (  # noqa: E402
    Slice,
    SliceSearch,
    enumerate_slices,
    is_valid_slice,
    slice_objective,
)
from conftest import random_fd_graph, relabeled  # noqa: E402
from oracles import (  # noqa: E402
    below,
    cohesion_recursive,
    cohesion_reference,
    deletion_reference,
    double_sum_coupling,
    impact_by_coupling,
    is_valid_slice_reference,
    membership_bruteforce,
    pareto_bruteforce,
    rank_reference,
    reachable_leaves,
    reparsed,
    resolve_membership_reference,
    schedule_bruteforce,
    slice_doc_reference,
    valid_slices_bruteforce,
    validate_reference,
)
from strategies import fd_graphs, scenarios  # noqa: E402


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_serialize_parse_roundtrip(seed):
    g = random_fd_graph(random.Random(seed))
    assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_order_keeping_relabel_keeps_slices_and_metrics(seed):
    # Ownership ties go to the smaller id, so only a map that keeps id order
    # may leave the slices alone; each id becomes its zero-padded rank.
    g = random_fd_graph(random.Random(seed))
    new_id = {nid: f"x{rank:03d}" for rank, nid in enumerate(g.node_ids)}
    back = {v: k for k, v in new_id.items()}
    h = relabeled(g, new_id)
    assert validate(h).ok
    ours, theirs = enumerate_slices(g, max_slices=100), enumerate_slices(h, max_slices=100)
    assert theirs.complete == ours.complete
    assert [tuple(back[m] for m in s.members) for s in theirs.slices] == [
        s.members for s in ours.slices
    ]
    for a, b in zip(ours.slices, theirs.slices):
        assert {back[d]: back[o] for d, o in b.membership.items()} == dict(a.membership)
        ma, mb = slice_objective(g, a), slice_objective(h, b)
        assert {back[m]: c for m, c in mb.per_node_cohesion.items()} == ma.per_node_cohesion
        assert {(back[p], back[q]): c for (p, q), c in mb.coupling.items()} == dict(ma.coupling)
        assert (mb.mean_cohesion, mb.mean_coupling, mb.aggregate) == (
            ma.mean_cohesion,
            ma.mean_coupling,
            ma.aggregate,
        )


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs())
def test_enumeration_and_membership_match_bruteforce(graph):
    enum = enumerate_slices(graph)
    assert enum.complete
    assert [s.members for s in enum.slices] == valid_slices_bruteforce(graph)
    for slc in enum.slices:
        assert dict(slc.membership) == membership_bruteforce(graph, slc.members)[0]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(), data=st.data())
def test_schedule_matches_bruteforce_on_drawn_slices(graph, data):
    # on coupling_matrix tables the exact order is the members sorted by
    # (owned count, id)
    slices = [s for s in enumerate_slices(graph).slices if len(s.members) <= 7]
    assume(slices)
    slc = data.draw(st.sampled_from(slices))
    sched = schedule_slice(graph, slc)
    coupling = coupling_matrix(graph, slc.members, slc.membership)
    assert sched.method == "exhaustive"
    assert (sched.order, sched.order_cost) == schedule_bruteforce(slc.members, coupling)
    owned = {m: len(slc.owned(m)) for m in slc.members}
    assert list(sched.order) == sorted(slc.members, key=lambda m: (owned[m], m))


def _read(reader, text: str):
    try:
        value = reader(text)
    except Exception as exc:
        return ("error", type(exc), str(exc))
    return ("ok", type(value), value)


# the literals json.loads hands its parse_float, and the integers beside them
JSON_NUMBER = r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?([eE][-+]?[0-9]{1,5})?"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=st.from_regex(JSON_NUMBER, fullmatch=True))
@example(text="-0.0")
@example(text="1.50")
@example(text="1E-1")
@example(text="1e4301")
@example(text="0." + "1" * 4301)  # a 4,301-digit fraction part
@example(text="1" * 4301 + ".5")  # a 4,301-digit whole part, named by its count
@example(text="1" * 4000 + "." + "1" * 1000)  # over the limit only when joined
def test_literal_reader_reads_as_to_fraction(text):
    assert _read(literal_reader(), text) == _read(to_fraction, text)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs())
def test_search_stats_count_the_bruteforce_slices(graph):
    search = SliceSearch(graph)
    list(search)
    stats = search.stats
    assert stats.emitted == len(valid_slices_bruteforce(graph))
    assert stats.truncated_by is None
    cuts = stats.sharing + stats.empty_member + stats.empty_rival
    assert stats.frames == 2 * stats.popped - 1 + cuts


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(), data=st.data())
def test_membership_and_ancestor_pairs_match_oracles(graph, data):
    # any set of functions, valid slice or not: resolution without the
    # cover requirement gives the oracle's membership or raises its first
    # conflict, and the related pairs are those a plain walk finds
    funs = graph.function_ids
    drawn = data.draw(st.lists(st.sampled_from(funs), min_size=1, max_size=len(funs), unique=True))
    members = sorted(drawn)
    membership, conflicts = membership_bruteforce(graph, members)
    expected = ("sharing", conflicts[0]) if conflicts else ("ok", membership)
    try:
        got = ("ok", resolve_membership(graph, drawn, complete=False))
    except UnresolvableSharingError as exc:
        got = ("sharing", (exc.directive, exc.parent, exc.members))
    assert got == expected
    check = is_valid_slice(graph, drawn)
    assert [v.subject for v in check.violations if v.code == "ANCESTOR_PAIR"] == [
        f"{a},{b}"
        for i, a in enumerate(members)
        for b in members[i + 1 :]
        if b in below(graph, a) or a in below(graph, b)
    ]


def _outcome(fn, *args):
    # a result, or the type and message of the error it raised
    try:
        return fn(*args)
    except (ChangeError, MembershipError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(), data=st.data())
def test_compare_slices_matches_impact_by_coupling(graph, data):
    # one scenario of each kind, cell by cell against the oracle.  The reach
    # is 8 // |O| at 1/8; at 1/100 it is 100 // |O|, which on graphs this
    # small lies beyond every hop count, so the cut runs to the ring's end.
    slices = enumerate_slices(graph).slices
    assume(slices)
    picked = data.draw(st.lists(st.sampled_from(slices), min_size=1, max_size=3, unique=True))
    edits = [data.draw(scenarios(graph, kind)) for kind in ScenarioKind]
    for thr in (Fraction(1, 8), Fraction(1, 100)):
        for sc in edits:
            expected = _outcome(lambda: [[impact_by_coupling(graph, s, sc, thr)] for s in picked])
            got = _outcome(lambda: [list(row) for row in compare_slices(graph, picked, [sc], thr).reports])
            assert got == expected, sc


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(graph=fd_graphs(), data=st.data())
def test_simulate_cells_match_impact_by_coupling(tmp_path, graph, data):
    # `capslice simulate` on files, against the per-cell oracle over the
    # brute-force slices and memberships; the CLI stops at the first cell
    # in (slice, scenario) order that raises, with that error
    members = valid_slices_bruteforce(graph)
    assume(members)
    picked = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=3, unique=True))
    kinds = data.draw(st.lists(st.sampled_from(ScenarioKind), min_size=1, max_size=3))
    edits = [data.draw(scenarios(graph, kind)) for kind in kinds]
    threshold = data.draw(st.sampled_from([None, "0.01"]))
    graph_file, scenario_file = tmp_path / "graph.json", tmp_path / "scenarios.json"
    graph_file.write_text(serialize_graph(graph))
    # drawn relevances are short decimals, so a float's repr is the exact
    # literal and the file reads back as the drawn scenarios
    docs = [{"kind": sc.kind.value, "target": sc.target, "payload": sc.payload} for sc in edits]
    scenario_file.write_text(json.dumps(docs, default=float))
    assert parse_scenarios(scenario_file.read_text()) == edits

    thr = Fraction(1, 8) if threshold is None else to_fraction(threshold)
    slices = [Slice(m, membership_bruteforce(graph, m)[0]) for m in picked]
    try:
        cells = [[impact_by_coupling(graph, s, sc, thr) for sc in edits] for s in slices]
    except (ChangeError, MembershipError) as exc:
        expected = (1, "", f"error: {exc}\n")
    else:
        doc = [
            [
                {
                    "directives": sorted(r.affected_directives),
                    "capabilities": sorted(r.affected_capabilities),
                    "count": r.impact_count,
                    "evaluated_on": r.evaluated_on,
                }
                for r in row
            ]
            for row in cells
        ]
        expected = (0, doc, "")

    argv = ["simulate", str(graph_file), str(scenario_file), "--format", "machine"]
    argv += [arg for m in picked for arg in ("--slice", ",".join(m))]
    argv += ["--threshold", threshold] if threshold else []
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    got = (code, json.loads(out.getvalue())["cells"] if code == 0 else out.getvalue(), err.getvalue())
    assert got == expected


def _scores_reference(graph, lam: Fraction) -> dict:
    # each brute-force slice's membership and SliceMetrics-shaped values,
    # from brute-force memberships, recursive cohesion and double-sum
    # coupling; coupling pairs come in sorted (p, q) order
    scores = {}
    for members in valid_slices_bruteforce(graph):
        membership = membership_bruteforce(graph, members)[0]
        owned = {m: [d for d, o in membership.items() if o == m] for m in members}
        coupling = {
            (p, q): double_sum_coupling(graph, owned[p], owned[q])
            for p in members
            for q in members
            if p != q
        }
        per_node = {m: cohesion_recursive(graph, m) for m in members}
        mean_ch = sum(per_node.values(), Fraction(0)) / len(members)
        mean_cp = sum(coupling.values(), Fraction(0)) / (len(coupling) or 1)
        scores[members] = membership, SimpleNamespace(
            per_node_cohesion=per_node,
            coupling=coupling,
            mean_cohesion=mean_ch,
            mean_coupling=mean_cp,
            aggregate=mean_ch - lam * mean_cp,
        )
    return scores


def _line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _slices_reference(graph, lam: Fraction, initial_only: bool) -> str:
    # `capslice slices --format machine` from the oracles alone: the slices
    # in lexicographic member order, or the initial ones in ranked order,
    # then the summary from the Fraction ranking
    scores = _scores_reference(graph, lam)
    if not scores:
        return _line({"type": "summary", "count": 0, "complete": True})
    ranked, mean = rank_reference([(m, metrics.aggregate) for m, (_, metrics) in scores.items()])
    initial = [m for m, flag in ranked if flag]
    lines = [
        _line(slice_doc_reference(Slice(m, scores[m][0]), scores[m][1]))
        for m in (initial if initial_only else scores)
    ]
    summary = {
        "type": "summary",
        "count": len(scores),
        "complete": True,
        "mean_f": float(mean),
        "ranking": [list(m) for m, _ in ranked],
        "initial": [list(m) for m in initial],
    }
    return "".join(lines) + _line(summary)


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    graph=fd_graphs(),
    lam=st.sampled_from([None, "0", "1/2", "3"]),
    initial_only=st.booleans(),
)
def test_slices_matches_oracles(tmp_path, graph, lam, initial_only):
    # `capslice slices` on a file, against a reference that shares no
    # scoring, ranking or writing code with the package
    expected = _slices_reference(
        graph, Fraction(1) if lam is None else to_fraction(lam), initial_only
    )
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(serialize_graph(graph))
    argv = ["slices", str(graph_file), "--format", "machine"]
    argv += ["--lambda", lam] if lam else []
    argv += ["--initial-only"] if initial_only else []
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")


def _optimize_reference(graph, lam: Fraction) -> dict:
    # `capslice optimize --format machine` under the default config, from
    # the oracles alone: the scoring reference above, the Fraction ranking,
    # permutation orders and the quadratic Pareto scan
    scores = _scores_reference(graph, lam)
    if not scores:
        return {"type": "optimization", "candidates": 0, "complete": True, "best": None}
    ranked, _ = rank_reference([(m, metrics.aggregate) for m, (_, metrics) in scores.items()])
    initial = [m for m, flag in ranked if flag]
    assume(all(len(m) <= EXHAUSTIVE_LIMIT for m in initial))
    rows = []
    for members in initial:
        metrics = scores[members][1]
        f, coupling = metrics.aggregate, metrics.coupling
        order, cost = schedule_bruteforce(members, coupling)
        makespan = Fraction(sum(len(reachable_leaves(graph, m)) for m in members))
        rows.append((f, Fraction(1), makespan, members, order, cost))

    def norm(x, values):
        lo, hi = min(values), max(values)
        return Fraction(1, 2) if lo == hi else (x - lo) / (hi - lo)

    fs = [r[0] for r in rows]
    spans = [r[2] + r[5] for r in rows]
    docs = []
    for (f, tf, makespan, members, order, cost), span in zip(rows, spans):
        z = Fraction(1, 2) * norm(f, fs) + Fraction(3, 10) * tf - Fraction(1, 5) * norm(span, spans)
        doc = {
            "members": list(members),
            "f": float(f),
            "tf": float(tf),
            "makespan": float(makespan),
            "order_cost": float(cost),
            "order": list(order),
            "schedule_method": "exhaustive",
            "z": float(z),
            "violated": [],
        }
        docs.append((-z, members, doc))
    docs.sort(key=lambda row: row[:2])
    return {
        "type": "optimization",
        "candidates": len(scores),
        "initial": len(initial),
        "complete": True,
        "best": docs[0][2],
        "feasible": [doc for _, _, doc in docs],
        "pareto": sorted(list(p[3]) for p in pareto_bruteforce(rows)),
        "infeasible": [],
    }


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(graph=fd_graphs(), lam=st.sampled_from([None, "0", "1/2", "3"]))
def test_optimize_matches_oracles(tmp_path, graph, lam):
    # `capslice optimize` on files, against a reference that shares no
    # scoring, ranking or scheduling code with the package
    expected = _optimize_reference(graph, Fraction(1) if lam is None else to_fraction(lam))
    graph_file, config_file = tmp_path / "graph.json", tmp_path / "config.json"
    graph_file.write_text(serialize_graph(graph))
    config_file.write_text("{}")
    argv = ["optimize", str(graph_file), str(config_file), "--format", "machine"]
    argv += ["--lambda", lam] if lam else []
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, json.loads(out.getvalue()), err.getvalue()) == (0, expected, "")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(), data=st.data())
def test_deletions_match_deletion_reference(graph, data):
    # apply_change's graph and _apply's seed, or their error, are the
    # reference's; _apply alone refuses what the reference refuses, so
    # compare_slices needs no rebuild on a valid base
    assert validate(graph).ok
    for kind in (ScenarioKind.DELETE_DIRECTIVE, ScenarioKind.DELETE_FUNCTION_SUBTREE):
        sc = data.draw(scenarios(graph, kind))
        expected = _outcome(deletion_reference, graph, sc)
        assert _outcome(lambda: (apply_change(graph, sc), _apply(graph, sc)[0])) == expected, sc
        if isinstance(expected[0], type):
            assert _outcome(_apply, graph, sc) == expected, sc


# -- graphs validate may refuse --------------------------------------------------


def _result(fn, *args):
    # a result, or the type and message of the graph error it raised
    try:
        return fn(*args)
    except GraphError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(valid=False))
def test_validate_matches_reference_on_invalid_graphs(graph):
    assert validate(graph) == validate_reference(graph)


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(graph=fd_graphs(valid=False))
def test_validate_command_matches_reference(tmp_path, graph):
    # `capslice validate` on the graph's file, against the reference report
    # of the graph the parser reads back from it
    report = validate_reference(reparsed(graph))
    doc = {
        "type": "validation",
        "ok": not report.violations,
        "violations": [
            {"code": v.code, "subject": v.subject, "message": v.message}
            for v in report.violations
        ],
    }
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(serialize_graph(graph))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(graph_file), "--format", "machine"])
    expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert (code, out.getvalue(), err.getvalue()) == (1 if report.violations else 0, expected, "")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(valid=False), data=st.data())
def test_edge_kinds_match_reference(graph, data):
    # the drawn graph built again from its edges in a drawn order, a drawn
    # kind stated on a drawn subset of them; an unstated kind follows from
    # the edge counts: one child makes a refinement, else two parents an
    # intersection, else a decomposition
    keys = data.draw(st.permutations(sorted(parts(graph)[1])))
    stated = data.draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(EdgeKind)))
    relevance = parts(graph)[2]
    specs = [(u, v, stated.get((u, v)), relevance.get((v, u))) for u, v in keys]
    g = build_graph([graph.node(n) for n in graph.node_ids], specs)
    out, into = Counter(u for u, _ in keys), Counter(v for _, v in keys)

    def by_degrees(u, v):
        if out[u] == 1:
            return EdgeKind.REFINEMENT
        return EdgeKind.INTERSECTION if into[v] >= 2 else EdgeKind.DECOMPOSITION

    expected = {e: stated[e] if e in stated else by_degrees(*e) for e in sorted(keys)}
    assert g.edges() == [(u, v, kind) for (u, v), kind in expected.items()]
    for (u, v), kind in expected.items():
        assert g.edge_kind(u, v) is kind
    ids = st.sampled_from(g.node_ids)
    u, v = data.draw(st.tuples(ids, ids).filter(lambda e: e not in expected))
    for parent, child in ((u, v), ("zz", v)):
        assert _result(g.edge_kind, parent, child) == (
            GraphError,
            f"no edge {parent!r} -> {child!r}",
        )
    assert parts(g)[1] == set(expected)
    assert validate(g) == validate_reference(g)  # EDGE_KIND in (parent, child) order
    agree = all(kind is by_degrees(*e) for e, kind in stated.items())
    assert (g == reparsed(g)) == agree


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(valid=False), data=st.data())
def test_membership_matches_reference_on_invalid_graphs(graph, data):
    # any nodes, functions or not, on graphs with cycles, childless
    # functions, dropped edges and a missing relevance
    ids = graph.node_ids
    drawn = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True))
    assert _result(is_valid_slice, graph, drawn) == _result(is_valid_slice_reference, graph, drawn)
    for complete in (True, False):
        assert _result(lambda: resolve_membership(graph, drawn, complete=complete)) == _result(
            resolve_membership_reference, graph, drawn, complete
        )


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(valid=False))
def test_search_matches_bruteforce_on_invalid_graphs(graph):
    # the brute force filters member sets through is_valid_slice, which
    # reads a relevance only under a shared directive; the search ranks
    # every route, so a route without one is an error there
    relevance = parts(graph)[2]
    routes = {
        (d, p)
        for m in graph.function_ids
        for d in graph.directive_ids
        for p in graph.parents(d)
        if p == m or p in below(graph, m)
    }
    gaps = sorted(routes - set(relevance))
    try:
        slices = [s.members for s in enumerate_slices(graph).slices]
    except GraphError as exc:
        assert gaps and str(exc).startswith("no relevance recorded for directive")
        return
    assert not gaps
    if find_cycle(graph) is None:  # a cycle puts a node below itself in the brute force
        assert slices == valid_slices_bruteforce(graph)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(valid=False), data=st.data())
def test_cohesion_matches_reference_in_any_order(graph, data):
    # cycles, childless functions and a missing relevance make some nodes
    # fail; both memos keep what earlier calls finished, so the order the
    # nodes are asked in can decide which error a later call meets
    order = data.draw(st.permutations(graph.mission_ids + graph.function_ids))
    memo: dict = {}
    for n in order:
        assert _result(cohesion, graph, n) == _result(cohesion_reference, graph, n, memo), n


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(valid=False, back_from="function"), data=st.data())
def test_cohesion_matches_reference_on_cycles(graph, data):
    # as above, but every graph gains a back edge from a function, which
    # the walk from any node above it enters: about a quarter of the
    # outcomes are cycle errors, against about one in twenty above
    order = data.draw(st.permutations(graph.mission_ids + graph.function_ids))
    memo: dict = {}
    for n in order:
        assert _result(cohesion, graph, n) == _result(cohesion_reference, graph, n, memo), n


# f reaches e only through its directive d: size_of(f) is 2, the cohesion
# walk from f meets d alone
_EDGE_OUT_OF_DIRECTIVE = build_graph(
    [("m", "mission"), ("f", "function"), ("g", "function"), ("d", "directive"),
     ("e", "directive")],
    [("m", "f"), ("m", "g"), ("f", "d", None, Fraction(1, 2)), ("d", "e", None, Fraction(1)),
     ("g", "e", None, Fraction(1))],
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graph=fd_graphs(valid=False, back_from="directive"))
@example(graph=_EDGE_OUT_OF_DIRECTIVE)
def test_size_of_and_cohesion_agree_except_below_a_directive(graph):
    # Cohesion weighs each child by its size_of (a directive child weighs
    # 1), so wherever it is defined it is the size_of-weighted mean of the
    # children's terms.  They part where an edge leaves a directive, which
    # only a graph validate refuses has (the open FOUND in CHANGES.md on an
    # edge out of a directive): size_of counts every directive below a
    # node, as the graph index does, while the cohesion walk stops at a
    # directive, so a child's weight can count directives whose relevances
    # the walk never reads.  This pins that as it is today: on the example
    # above, cohesion(m) is 2/3 with size_of weights and would be 3/4 with
    # the walk's counts.
    for n in graph.mission_ids + graph.function_ids:
        full = {x for x in below(graph, n) if graph.node(x).kind is NodeKind.DIRECTIVE}
        walked = reachable_leaves(graph, n)
        assert size_of(graph, n) == len(full), n
        assert walked <= full, n
        if not any(graph.children(d) for d in full):
            assert walked == full, n
        try:
            value = cohesion(graph, n)
        except GraphError:
            continue
        terms = [
            (1, graph.relevance(c, n))
            if graph.node(c).kind is NodeKind.DIRECTIVE
            else (size_of(graph, c), cohesion(graph, c))
            for c in graph.children(n)
        ]
        assert value == sum(w * t for w, t in terms) / sum(w for w, _ in terms), n
