"""Properties of the graph layer over Hypothesis-drawn graphs.

Most examples draw one seed for conftest.random_fd_graph, so a failure
names a seed that rebuilds its graph; those drawn by strategies.fd_graphs
draw the structure itself and shrink to a small graph.  The settings keep
the run deterministic: derandomized, no example database, no deadline.
"""

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

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
    GraphError,
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
)
from capslice.cli import main  # noqa: E402
from capslice.optimizer import schedule_slice  # noqa: E402
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
    cohesion_reference,
    deletion_reference,
    impact_by_coupling,
    is_valid_slice_reference,
    membership_bruteforce,
    resolve_membership_reference,
    schedule_bruteforce,
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
