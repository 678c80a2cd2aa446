import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from capslice.changesim import (
    DEFAULT_THRESHOLD,
    ChangeError,
    ChangeScenario,
    ScenarioKind,
    ScenarioParseError,
    _apply,
    _impact,
    _kept,
    apply_change,
    compare_slices,
    impact_set,
    parse_scenarios,
)
import capslice.changesim as changesim_module
import capslice.graph as graph_module
from capslice.cli import main
from capslice.fixtures import fig2_path
from capslice.graph import (
    EdgeKind,
    FDGraph,
    GraphError,
    Node,
    NodeKind,
    ValidationReport,
    build_graph,
    hop_rows,
    parse_graph,
    parts,
    serialize_graph,
    validate,
)
from capslice.metrics import (
    MembershipError,
    UncoveredDirectiveError,
    UnresolvableSharingError,
    cohesion,
    cohesion_map,
    resolve_membership,
)
from capslice.slicing import Slice, enumerate_slices, make_slice
from conftest import RELEVANCE_PALETTE, random_fd_graph, random_scenario
from oracles import (
    _cascade_childless,
    bfs_distances,
    deletion_reference,
    directive_coupling,
    edited_directives,
    impact_by_coupling,
    reparsed,
)


def scenario(kind, target, payload=None):
    return ChangeScenario(ScenarioKind(kind), target, payload)


@pytest.fixture
def s1(fig2):
    return make_slice(fig2, ["n_1", "n_3", "n_7"])


@pytest.fixture
def s2(fig2):
    return make_slice(fig2, ["n_2", "n_3", "n_5"])


def toy_cascade():
    return build_graph(
        [
            ("m", "mission"),
            ("a", "function"),
            ("c", "function"),
            ("d", "directive"),
            ("e", "directive"),
        ],
        [
            ("m", "a"),
            ("m", "c"),
            ("a", "d", None, Fraction(1, 2)),
            ("c", "e", None, Fraction(1, 2)),
        ],
    )


# -- parsing -------------------------------------------------------------------


def test_parse_scenarios():
    text = json.dumps(
        [
            {"kind": "modify_directive", "target": "d_9", "payload": {"relevance": 0.7}},
            {"kind": "delete_function_subtree", "target": "n_8"},
        ]
    )
    scenarios = parse_scenarios(text)
    assert scenarios[0].kind is ScenarioKind.MODIFY_DIRECTIVE
    assert scenarios[0].payload == {"relevance": Fraction(7, 10)}  # exact decimal
    assert scenarios[1].kind is ScenarioKind.DELETE_FUNCTION_SUBTREE
    assert scenarios[1].payload is None


@pytest.mark.parametrize(
    "text",
    [
        "{",
        '{"kind": "modify_directive"}',
        '[{"target": "d_1"}]',
        '[{"kind": "repaint", "target": "d_1"}]',
        '[{"kind": "modify_directive", "target": "d_1", "payload": 3}]',
        '[{"kind": "delete_directive", "target": [1]}]',
        '[{"kind": "delete_directive", "target": null}]',
        '[{"kind": "delete_directive", "target": 1e4300}]',
    ],
)
def test_parse_scenarios_errors(text):
    with pytest.raises(ScenarioParseError):
        parse_scenarios(text)


def test_parse_scenarios_target_must_be_a_string():
    # an unhashable target used to escape as a TypeError from _apply
    text = json.dumps(
        [{"kind": "delete_directive", "target": "d_1"}, {"kind": "delete_directive", "target": [1]}]
    )
    with pytest.raises(ScenarioParseError) as err:
        parse_scenarios(text)
    assert str(err.value) == "scenario entry 1: target must be a string: [1]"


# -- modify ---------------------------------------------------------------------


def test_modify_label(fig2):
    new = apply_change(fig2, scenario("modify_directive", "d_1", {"label": "renamed"}))
    assert new.node("d_1").label == "renamed"
    assert new.relevance("d_1", "n_5") == fig2.relevance("d_1", "n_5")
    assert cohesion_map(new) == cohesion_map(fig2)


def test_modify_relevance_scalar(fig2):
    new = apply_change(
        fig2, scenario("modify_directive", "d_9", {"relevance": Fraction(7, 10)})
    )
    assert new.relevance("d_9", "n_7") == Fraction(7, 10)
    assert cohesion(new, "n_7") == Fraction(27, 40)
    assert cohesion(fig2, "n_7") == Fraction(21, 40)  # base untouched


def test_modify_relevance_mapping(fig2):
    new = apply_change(
        fig2,
        scenario(
            "modify_directive",
            "d_3",
            {"relevance": {"n_5": Fraction(1, 5), "n_6": Fraction(1, 10)}},
        ),
    )
    assert new.relevance("d_3", "n_5") == Fraction(1, 5)
    assert new.relevance("d_3", "n_6") == Fraction(1, 10)


def test_modify_errors(fig2):
    with pytest.raises(ChangeError, match="parents"):
        # d_3 has two parents, a bare number does not say which edge
        apply_change(fig2, scenario("modify_directive", "d_3", {"relevance": 0.5}))
    with pytest.raises(ChangeError, match="not a parent"):
        apply_change(
            fig2, scenario("modify_directive", "d_1", {"relevance": {"n_7": 0.5}})
        )
    with pytest.raises(ChangeError, match="label or a relevance"):
        apply_change(fig2, scenario("modify_directive", "d_1", {}))
    with pytest.raises(ChangeError, match="unknown payload"):
        apply_change(fig2, scenario("modify_directive", "d_1", {"rel": 0.5}))
    with pytest.raises(ChangeError, match="expected directive"):
        apply_change(fig2, scenario("modify_directive", "n_5", {"label": "x"}))
    with pytest.raises(ChangeError, match="unknown directive"):
        apply_change(fig2, scenario("modify_directive", "ghost", {"label": "x"}))
    with pytest.raises(ChangeError, match="outside"):
        apply_change(fig2, scenario("modify_directive", "d_1", {"relevance": 1.5}))
    with pytest.raises(ChangeError, match=r"outside \(0, 1\]"):
        apply_change(fig2, scenario("modify_directive", "d_1", {"relevance": 0}))


def test_modify_relevance_of_a_parent_without_one():
    # f -> d exists but carries no relevance: f is still d's parent, so the
    # edit sets the missing relevance and the rebuilt graph validates
    base = build_graph(
        [("m", "mission"), ("f", "function"), ("g", "function"), ("d", "directive"),
         ("e", "directive")],
        [("m", "f"), ("m", "g"), ("f", "d"), ("g", "e", None, Fraction(1, 2))],
    )
    assert [v.code for v in validate(base).violations] == ["RELEVANCE_MISSING"]
    new = apply_change(base, scenario("modify_directive", "d", {"relevance": {"f": 0.5}}))
    assert new.relevance("d", "f") == Fraction(1, 2)
    assert validate(new).ok
    with pytest.raises(ChangeError, match="^'g' is not a parent of 'd'$"):
        apply_change(base, scenario("modify_directive", "d", {"relevance": {"g": 0.5}}))


def test_unsupported_scenario_kind(fig2):
    with pytest.raises(ChangeError, match="^unsupported scenario kind 'modify_directive'$"):
        apply_change(fig2, ChangeScenario("modify_directive", "d_1", {"label": "x"}))


def test_bad_relevance_names_the_scenario_edge(fig2):
    # the range check runs before the rebuild, whose edge list the user never wrote
    cases = [
        ("modify_directive", "d_9", {"relevance": 2}, "relevance 2 on 'n_7' -> 'd_9'"),
        ("modify_directive", "d_3", {"relevance": {"n_6": 0}}, "relevance 0 on 'n_6' -> 'd_3'"),
        ("add_directive", "n_7", {"id": "d_15", "relevance": 0}, "relevance 0 on 'n_7' -> 'd_15'"),
    ]
    for kind, target, payload, named in cases:
        with pytest.raises(ChangeError) as err:
            apply_change(fig2, scenario(kind, target, payload))
        assert str(err.value) == f"{named} outside (0, 1]"
    with pytest.raises(ChangeError, match="^unknown impact category 'dire'$"):
        apply_change(fig2, scenario("modify_directive", "d_9", {"relevance": "dire"}))


@pytest.mark.parametrize(
    "kind, target, payload",
    [
        ("modify_directive", "d_1", {}),
        ("add_directive", "n_7", {"id": "d_15", "relevance": 0.7}),
        ("add_function", "n_7", {"id": "n_10", "children": ["d_8"]}),
    ],
)
def test_label_must_be_a_string(fig2, kind, target, payload):
    # refused, never turned into a string: ["x"] would become the label "['x']"
    for label in (["x"], 5, {"a": 1}):
        with pytest.raises(ChangeError, match="^label must be a string$"):
            apply_change(fig2, scenario(kind, target, {**payload, "label": label}))
    if kind != "modify_directive":  # where a null label means "no change"
        with pytest.raises(ChangeError, match="^label must be a string$"):
            apply_change(fig2, scenario(kind, target, {**payload, "label": None}))
    new = apply_change(fig2, scenario(kind, target, {**payload, "label": "renamed"}))
    changed = target if kind == "modify_directive" else payload["id"]
    assert new.node(changed).label == "renamed"


# -- delete directive -----------------------------------------------------------


def test_delete_directive(fig2):
    new = apply_change(fig2, scenario("delete_directive", "d_10"))
    assert not new.has_node("d_10")
    assert len(new.directive_ids) == 13
    # n_3 dropped to one child, so that edge is a refinement now
    assert new.edge_kind("n_3", "n_8") is EdgeKind.REFINEMENT
    assert validate(new).ok


def test_delete_shared_directive(fig2):
    new = apply_change(fig2, scenario("delete_directive", "d_3"))
    assert not new.has_node("d_3")
    assert new.has_node("n_5")
    assert new.has_node("n_6")
    assert cohesion(new, "n_5") == Fraction(1, 2)  # mean of 0.3 and 0.7
    assert validate(new).ok


def test_delete_directive_cascades():
    g = toy_cascade()
    new = apply_change(g, scenario("delete_directive", "d"))
    assert sorted(new.node_ids) == ["c", "e", "m"]
    assert new.edge_kind("m", "c") is EdgeKind.REFINEMENT
    assert validate(new).ok


def test_delete_directive_cannot_empty_mission():
    g = build_graph(
        [("m", "mission"), ("a", "function"), ("d", "directive")],
        [("m", "a"), ("a", "d", None, Fraction(1, 2))],
    )
    with pytest.raises(ChangeError, match="invalid") as err:
        apply_change(g, scenario("delete_directive", "d"))
    assert any(v.code == "NODE_DEGREE" for v in err.value.violations)


# -- add directive ----------------------------------------------------------------


def test_add_directive(fig2):
    new = apply_change(
        fig2, scenario("add_directive", "n_7", {"id": "d_15", "relevance": "critical"})
    )
    assert new.relevance("d_15", "n_7") == Fraction(7, 10)
    assert cohesion(new, "n_7") == Fraction(14, 25)
    assert validate(new).ok


def test_add_directive_under_mission(fig2):
    new = apply_change(
        fig2, scenario("add_directive", "m", {"id": "d_15", "relevance": 0.3})
    )
    assert new.relevance("d_15", "m") == Fraction(3, 10)
    assert validate(new).ok


def test_add_directive_errors(fig2):
    with pytest.raises(ChangeError, match="already exists"):
        apply_change(fig2, scenario("add_directive", "n_7", {"id": "d_1", "relevance": 0.7}))
    with pytest.raises(ChangeError, match="needs a relevance"):
        apply_change(fig2, scenario("add_directive", "n_7", {"id": "d_15"}))
    with pytest.raises(ChangeError, match="is a directive"):
        apply_change(fig2, scenario("add_directive", "d_1", {"id": "d_15", "relevance": 0.7}))
    with pytest.raises(ChangeError, match="new directive id"):
        apply_change(fig2, scenario("add_directive", "n_7", {"relevance": 0.7}))


def test_add_directive_under_an_unknown_parent(fig2):
    with pytest.raises(ChangeError, match="^unknown parent 'nope'$"):
        apply_change(fig2, scenario("add_directive", "nope", {"id": "d_15", "relevance": 0.7}))


# -- delete function subtree -------------------------------------------------------


def test_delete_subtree_shared_leaves_survive(fig2):
    new = apply_change(fig2, scenario("delete_function_subtree", "n_8"))
    # d_11, d_12 lived only under n_8; d_13, d_14 survive through n_9
    for gone in ("n_8", "d_11", "d_12"):
        assert not new.has_node(gone)
    for kept in ("d_13", "d_14", "d_10"):
        assert new.has_node(kept)
    assert new.edge_kind("n_3", "d_10") is EdgeKind.REFINEMENT
    assert new.edge_kind("n_9", "d_13") is EdgeKind.DECOMPOSITION
    assert validate(new).ok


def test_delete_subtree_midlevel(fig2):
    new = apply_change(fig2, scenario("delete_function_subtree", "n_1"))
    for gone in ("n_1", "n_5", "d_1", "d_2"):
        assert not new.has_node(gone)
    # n_6 and d_3 keep their other route through n_2
    for kept in ("n_6", "d_3", "d_4", "d_5"):
        assert new.has_node(kept)
    assert validate(new).ok


def test_delete_subtree_cannot_empty_mission():
    g = build_graph(
        [
            ("m", "mission"),
            ("a", "function"),
            ("b", "function"),
            ("d1", "directive"),
            ("d2", "directive"),
        ],
        [
            ("m", "a"),
            ("a", "b"),
            ("b", "d1", None, Fraction(7, 10)),
            ("b", "d2", None, Fraction(3, 10)),
        ],
    )
    with pytest.raises(ChangeError):
        apply_change(g, scenario("delete_function_subtree", "a"))


def test_delete_subtree_errors(fig2):
    with pytest.raises(ChangeError, match="expected function"):
        apply_change(fig2, scenario("delete_function_subtree", "d_1"))
    with pytest.raises(ChangeError, match="expected function"):
        apply_change(fig2, scenario("delete_function_subtree", "m"))


# -- add function -------------------------------------------------------------------


def test_add_function_splice(fig2):
    new = apply_change(
        fig2, scenario("add_function", "n_7", {"id": "n_10", "children": ["d_8", "d_9"]})
    )
    assert sorted(new.children("n_7")) == ["d_6", "d_7", "n_10"]
    assert sorted(new.children("n_10")) == ["d_8", "d_9"]
    # relevance follows the directives to the new parent
    assert new.relevance("d_8", "n_10") == Fraction(3, 10)
    assert new.relevance("d_9", "n_10") == Fraction(1, 10)
    assert cohesion(new, "n_10") == Fraction(1, 5)
    # grouping leaves under an intermediate keeps the parent's cohesion
    assert cohesion(new, "n_7") == cohesion(fig2, "n_7") == Fraction(21, 40)
    assert validate(new).ok


def test_add_function_adopting_all_children(fig2):
    new = apply_change(
        fig2,
        scenario(
            "add_function", "n_7", {"id": "n_10", "children": ["d_6", "d_7", "d_8", "d_9"]}
        ),
    )
    assert new.children("n_7") == ("n_10",)
    assert new.edge_kind("n_7", "n_10") is EdgeKind.REFINEMENT
    assert cohesion(new, "n_7") == Fraction(21, 40)
    assert validate(new).ok


def test_add_function_under_mission(fig2):
    new = apply_change(
        fig2, scenario("add_function", "m", {"id": "n_0", "children": ["n_1", "n_2"]})
    )
    assert sorted(new.children("m")) == ["n_0", "n_3", "n_4"]
    assert sorted(new.children("n_0")) == ["n_1", "n_2"]
    assert validate(new).ok


def test_add_function_errors(fig2):
    with pytest.raises(ChangeError, match="at least one child"):
        apply_change(fig2, scenario("add_function", "n_7", {"id": "n_10", "children": []}))
    with pytest.raises(ChangeError, match="not a child"):
        apply_change(fig2, scenario("add_function", "n_7", {"id": "n_10", "children": ["d_1"]}))
    with pytest.raises(ChangeError, match="already exists"):
        apply_change(fig2, scenario("add_function", "n_7", {"id": "n_8", "children": ["d_8"]}))
    with pytest.raises(ChangeError, match="is a directive"):
        apply_change(fig2, scenario("add_function", "d_1", {"id": "n_10", "children": ["x"]}))
    # children must be a list of ids: not a number, a nested list or one bare string
    for children in (5, [["d_8"]], "d_8"):
        with pytest.raises(ChangeError, match="children must be a list of node ids"):
            apply_change(
                fig2, scenario("add_function", "n_7", {"id": "n_10", "children": children})
            )


# -- shared behavior ----------------------------------------------------------------


def test_base_graph_never_mutated(fig2):
    snapshot = parse_graph(serialize_graph(fig2))
    for sc in [
        scenario("modify_directive", "d_9", {"relevance": 0.7}),
        scenario("delete_directive", "d_10"),
        scenario("add_directive", "n_7", {"id": "d_15", "relevance": 0.7}),
        scenario("delete_function_subtree", "n_8"),
        scenario("add_function", "n_7", {"id": "n_10", "children": ["d_8"]}),
    ]:
        apply_change(fig2, sc)
        assert fig2 == snapshot


def test_changed_graph_caches_are_fresh(fig2):
    new = apply_change(fig2, scenario("delete_function_subtree", "n_8"))
    reparsed = parse_graph(serialize_graph(new))
    assert new == reparsed
    assert cohesion_map(new) == cohesion_map(reparsed)


# -- impact --------------------------------------------------------------------------


def test_impact_modify_d9(fig2, s1, s2):
    sc = scenario("modify_directive", "d_9", {"relevance": 0.7})
    r = impact_set(fig2, s1, sc)
    # owner set {d_6..d_9}: coupling (1/4)/2 = 1/8 pulls in the siblings
    assert r.threshold == DEFAULT_THRESHOLD == Fraction(1, 8)
    assert r.seed == frozenset({"d_9"})
    assert r.affected_directives == frozenset({"d_6", "d_7", "d_8", "d_9"})
    assert r.affected_capabilities == frozenset({"n_7"})
    assert r.impact_count == 5
    assert r.evaluated_on == "base"

    # same edit, bigger owner set in the other slice: nothing reaches 1/8
    r = impact_set(fig2, s2, sc)
    assert r.affected_directives == frozenset({"d_9"})
    assert r.affected_capabilities == frozenset({"n_2"})
    assert r.impact_count == 2


def test_impact_threshold_sensitivity(fig2, s1):
    sc = scenario("modify_directive", "d_9", {"relevance": 0.7})
    assert impact_set(fig2, s1, sc, Fraction(1, 5)).impact_count == 2
    assert impact_set(fig2, s1, sc, 1).impact_count == 2
    assert impact_set(fig2, s1, sc, "0.125").impact_count == 5


def test_impact_threshold_range(fig2, s1):
    sc = scenario("modify_directive", "d_9", {"relevance": 0.7})
    with pytest.raises(ValueError, match="threshold"):
        impact_set(fig2, s1, sc, 0)
    with pytest.raises(ValueError, match="threshold"):
        impact_set(fig2, s1, sc, Fraction(11, 10))


def test_impact_modify_d1_winner_depends_on_slice(fig2, s1, s2):
    sc = scenario("modify_directive", "d_1", {"relevance": 0.7})
    assert impact_set(fig2, s1, sc).impact_count == 2
    r2 = impact_set(fig2, s2, sc)
    assert r2.affected_directives == frozenset({"d_1", "d_2", "d_3"})
    assert r2.impact_count == 4


def test_impact_additions_evaluated_on_changed(fig2, s1):
    r = impact_set(
        fig2, s1, scenario("add_directive", "n_7", {"id": "d_15", "relevance": 0.7})
    )
    assert r.evaluated_on == "changed"
    assert r.seed == frozenset({"d_15"})
    assert r.affected_directives == frozenset({"d_15"})
    assert r.affected_capabilities == frozenset({"n_7"})
    assert r.impact_count == 2

    r = impact_set(
        fig2, s1, scenario("add_function", "n_7", {"id": "n_10", "children": ["d_8", "d_9"]})
    )
    assert r.evaluated_on == "changed"
    assert r.seed == frozenset({"d_8", "d_9"})
    # in the changed graph d_8 and d_9 couple at (1/4)/2 through n_10,
    # while d_6 and d_7 fall to distance 3
    assert r.affected_directives == frozenset({"d_8", "d_9"})
    assert r.impact_count == 3


def test_impact_uncoverable_addition_raises(fig2):
    # a directive added under the mission belongs to no capability
    slc = make_slice(fig2, ["n_1", "n_3", "n_7"])
    with pytest.raises(MembershipError):
        impact_set(fig2, slc, scenario("add_directive", "m", {"id": "d_15", "relevance": 0.7}))


def test_impact_deletions(fig2, s1, s2):
    r = impact_set(fig2, s1, scenario("delete_function_subtree", "n_8"))
    assert r.seed == frozenset({"d_11", "d_12"})
    assert r.affected_capabilities == frozenset({"n_3"})
    assert r.impact_count == 3
    assert r.evaluated_on == "base"

    r = impact_set(fig2, s2, scenario("delete_function_subtree", "n_5"))
    assert r.seed == frozenset({"d_1", "d_2"})
    assert r.affected_directives == frozenset({"d_1", "d_2", "d_3"})
    assert r.impact_count == 4

    assert impact_set(fig2, s1, scenario("delete_directive", "d_10")).impact_count == 2


def test_impact_matches_distance_oracle(fig2, s1):
    # recompute the d_9 impact from raw distances and the owner-set rule
    thr = Fraction(1, 8)
    owner_set = {"d_6", "d_7", "d_8", "d_9"}
    dist = bfs_distances(fig2, "d_9")
    expected = {"d_9"} | {
        d
        for d in fig2.directive_ids
        if d != "d_9" and Fraction(1, len(owner_set)) / dist[d] >= thr
    }
    r = impact_set(fig2, s1, scenario("modify_directive", "d_9", {"relevance": 0.7}), thr)
    assert r.affected_directives == frozenset(expected)


def test_impact_randomized_properties():
    rng = random.Random(20240)
    tried = 0
    for _ in range(60):
        g = random_fd_graph(rng, max_internal=8, max_directives=10)
        slices = enumerate_slices(g).slices
        if not slices:
            continue
        slc = rng.choice(slices)
        sc = random_scenario(rng, g)
        snapshot = parse_graph(serialize_graph(g))
        try:
            new = apply_change(g, sc)
        except ChangeError:
            assert g == snapshot
            continue
        assert validate(new).ok
        assert g == snapshot
        try:
            wide = impact_set(g, slc, sc, Fraction(1, 100))
            mid = impact_set(g, slc, sc, Fraction(1, 8))
            tight = impact_set(g, slc, sc, Fraction(1, 2))
        except MembershipError:
            continue
        assert wide.seed == mid.seed == tight.seed
        assert mid.seed <= mid.affected_directives
        assert tight.affected_directives <= mid.affected_directives <= wide.affected_directives
        assert tight.impact_count <= mid.impact_count <= wide.impact_count
        for r in (wide, mid, tight):
            assert r.affected_capabilities <= set(slc.members)
            expected_on = (
                "changed"
                if sc.kind in (ScenarioKind.ADD_DIRECTIVE, ScenarioKind.ADD_FUNCTION)
                else "base"
            )
            assert r.evaluated_on == expected_on
        tried += 1
    assert tried >= 25


def test_changed_graph_matches_the_reparsed_parts():
    # the changed graph is built from its edited parts, never parsed: it must
    # still equal what build_graph makes of those parts
    rng = random.Random(5150)
    applied = dict.fromkeys(ScenarioKind, 0)
    for _ in range(40):
        g = random_fd_graph(rng, max_internal=8, max_directives=10)
        for kind in ScenarioKind:
            try:
                new = apply_change(g, random_scenario(rng, g, kind))
            except ChangeError:
                continue
            assert new == reparsed(new)
            applied[kind] += 1
    assert min(applied.values()) >= 10, applied


def _assert_in_id_order(g):
    keys = [(u, v) for u, v, _ in g.edges()]
    assert keys == sorted(keys)
    for nid in g.node_ids:
        assert list(g.children(nid)) == sorted(g.children(nid))
        assert list(g.parents(nid)) == sorted(g.parents(nid))


def _dropped_edges(rng, g):
    # an invalid base: one or two edges gone, with their relevance
    nodes, edges, relevance = parts(g)
    gone = set(rng.sample(sorted(edges), rng.randint(1, 2)))
    relevance = {(d, p): r for (d, p), r in relevance.items() if (p, d) not in gone}
    return FDGraph(nodes, dict.fromkeys(edges - gone), relevance)


def _applied(g, sc):
    # the changed graph and the seed _apply names
    return apply_change(g, sc), _apply(g, sc)[0]


def _deletion_outcome(apply, g, sc):
    try:
        changed, seed = apply(g, sc)
    except ChangeError as exc:
        return type(exc), str(exc)
    return changed, seed


def test_deletions_match_the_edge_set_reference(fig2):
    # both deletions at every node, on valid bases and on bases missing an
    # edge or two (functions left childless, subtrees cut off the mission)
    rng = random.Random(1515)
    bases = [fig2] + [random_fd_graph(rng, max_internal=10, max_directives=16) for _ in range(60)]
    bases += [_dropped_edges(rng, g) for g in bases]
    outcomes = {"changed": 0, "refused": 0}
    for g in bases:
        shuffled = [(u, v, kind) for u, v, kind in g.edges()]
        rng.shuffle(shuffled)
        rebuilt = FDGraph(
            {i: g.node(i) for i in g.node_ids}, {(u, v): k for u, v, k in shuffled}, parts(g)[2]
        )
        assert rebuilt == g
        _assert_in_id_order(rebuilt)
        for target in g.node_ids:
            for kind in (ScenarioKind.DELETE_DIRECTIVE, ScenarioKind.DELETE_FUNCTION_SUBTREE):
                sc = ChangeScenario(kind, target)
                got = _deletion_outcome(_applied, g, sc)
                assert got == _deletion_outcome(deletion_reference, g, sc), (g, sc)
                if isinstance(got[0], FDGraph):
                    _assert_in_id_order(got[0])
                    outcomes["changed"] += 1
                elif got[1].startswith("edit leaves the graph invalid"):
                    outcomes["refused"] += 1
    assert min(outcomes.values()) >= 100, outcomes


# -- comparison -----------------------------------------------------------------------


def test_compare_slices(fig2, s1, s2):
    scenarios = [
        scenario("modify_directive", "d_1", {"relevance": 0.7}),
        scenario("modify_directive", "d_9", {"relevance": 0.7}),
    ]
    cmp = compare_slices(fig2, [s1, s2], scenarios)
    counts = [[r.impact_count for r in row] for row in cmp.reports]
    assert counts == [[2, 5], [4, 2]]
    assert cmp.totals == (7, 6)
    assert cmp.winners == ((0,), (1,))


def test_compare_slices_tie(fig2, s1, s2):
    sc = scenario("delete_directive", "d_10")
    cmp = compare_slices(fig2, [s1, s2], [sc])
    assert cmp.winners == ((0, 1),)


def test_compare_slices_empty_scenarios(fig2, s1):
    cmp = compare_slices(fig2, [s1], [])
    assert cmp.reports == ((),)
    assert cmp.totals == (0,)
    assert cmp.winners == ()


def test_compare_slices_needs_slices(fig2):
    with pytest.raises(ValueError):
        compare_slices(fig2, [], [scenario("delete_directive", "d_10")])


def _oracle_cells(graph, slices, scenarios, thr):
    # cell by cell in (slice, scenario) order; the first error is returned
    try:
        return [[impact_by_coupling(graph, s, sc, thr) for sc in scenarios] for s in slices]
    except (ChangeError, MembershipError) as exc:
        return exc


def _cell_couplings(graph, slc, report):
    # every exact Cp(d, s) the cell compares with its threshold
    on_changed = report.evaluated_on == "changed"
    eval_graph = apply_change(graph, report.scenario) if on_changed else graph
    membership = (
        resolve_membership(eval_graph, slc.members) if on_changed else slc.membership
    )
    for s in report.seed:
        owner_set = {d for d, o in membership.items() if o == membership[s]}
        for d in eval_graph.directive_ids:
            if d != s:
                yield directive_coupling(eval_graph, d, s, owner_set)


def test_compare_slices_matches_per_cell_oracle():
    rng = random.Random(6061)
    cells = on_boundary = errors = 0
    for _ in range(30):
        g = random_fd_graph(rng, max_internal=8, max_directives=10)
        slices = enumerate_slices(g).slices
        if not slices:
            continue
        chosen = rng.sample(slices, min(3, len(slices)))
        scenarios = [random_scenario(rng, g) for _ in range(5)]

        # unfiltered: the first failing cell decides the error
        expected = _oracle_cells(g, chosen, scenarios, DEFAULT_THRESHOLD)
        if isinstance(expected, Exception):
            errors += 1
            with pytest.raises(type(expected)) as err:
                compare_slices(g, chosen, scenarios)
            assert str(err.value) == str(expected)

        good = [
            sc
            for sc in scenarios
            if not isinstance(_oracle_cells(g, chosen, [sc], DEFAULT_THRESHOLD), Exception)
        ]
        if not good:
            continue
        wide = compare_slices(g, chosen, good, Fraction(1, 100))
        exact = sorted(
            {
                cp
                for slc, row in zip(chosen, wide.reports)
                for r in row
                for cp in _cell_couplings(g, slc, r)
            }
        )
        thresholds = {Fraction(1), Fraction(1, 7), Fraction(1, 8), Fraction(2, 7)}
        thresholds |= {Fraction(3, 10), Fraction(1, 100)}
        thresholds |= set(rng.sample(exact, min(4, len(exact))))
        for thr in sorted(thresholds):
            got = compare_slices(g, chosen, good, thr)
            assert [list(row) for row in got.reports] == _oracle_cells(g, chosen, good, thr)
            cells += len(chosen) * len(good)
            on_boundary += thr in exact
        slc, sc = chosen[-1], good[-1]
        assert impact_set(g, slc, sc, exact[0]) == impact_by_coupling(g, slc, sc, exact[0])
    assert cells >= 1500 and on_boundary >= 60 and errors >= 5


def test_compare_slices_first_error_is_row_major(fig2, s1, s2):
    # d_15 under n_1 is covered in s1 (n_1 is a member) but not in s2
    uncoverable = scenario("add_directive", "n_1", {"id": "d_15", "relevance": 0.7})
    message = "directives not covered by any member: d_15"
    assert impact_set(fig2, s1, uncoverable).impact_count == 2
    with pytest.raises(UncoveredDirectiveError, match=f"^{message}$"):
        impact_set(fig2, s2, uncoverable)
    with pytest.raises(UncoveredDirectiveError, match=f"^{message}$"):
        compare_slices(fig2, [s1, s2], [uncoverable])
    # the first row applies every scenario, so an edit that cannot be made
    # fails before the second row's membership does
    ghost = scenario("delete_directive", "ghost")
    with pytest.raises(ChangeError, match="^unknown directive 'ghost'$"):
        compare_slices(fig2, [s1, s2], [uncoverable, ghost])
    with pytest.raises(UncoveredDirectiveError, match=f"^{message}$"):
        compare_slices(fig2, [s2, s1], [uncoverable, ghost])


def _every_edit(rng, g):
    # both deletions at every function and directive, a modification of every
    # directive, and both additions at every function and at the mission,
    # which random_scenario never targets
    for target in g.function_ids + g.directive_ids:
        yield scenario("delete_directive", target)
        yield scenario("delete_function_subtree", target)
    for d in g.directive_ids:
        value = rng.choice(RELEVANCE_PALETTE)
        yield scenario("modify_directive", d, {"relevance": {p: value for p in g.parents(d)}})
    for f in g.mission_ids + g.function_ids:
        kids = list(g.children(f))
        adopted = rng.sample(kids, rng.randint(1, len(kids))) if kids else []
        value = rng.choice(RELEVANCE_PALETTE)
        yield scenario("add_directive", f, {"id": "zz_d", "relevance": value})
        yield scenario("add_function", f, {"id": "zz_f", "children": adopted})


def _owned(fn, *args):
    try:
        return dict(fn(*args))
    except MembershipError as exc:
        return type(exc), str(exc)


def _neighbours(g, nid):
    return set(g.children(nid) + g.parents(nid))


def _bfs_row(g, source, ids):
    # the oracle's hop count on g from source to each of ids, in that
    # order; a directive the source does not reach reads g's node count
    dist = bfs_distances(g, source)
    return [dist.get(d, g.n_nodes) for d in ids]


def test_shortcuts_on_a_valid_base_are_exact():
    # on the graphs tests/test_golden_lib.py records, _apply refuses exactly
    # what apply_change refuses, so a valid base needs no rebuild; it names
    # the directives the edit changes; each node it re-hangs has its
    # neighbours on the graph apply_change builds, and no other node's
    # neighbours change, so hop_rows gives that graph's rows (the base
    # graph's own where nothing is re-hung); and the membership it derives
    # there is resolve_membership's, errors included
    rng = random.Random(2121)
    seen = dict.fromkeys(["refused", "applied", "rows", "derived", "uncovered"], 0)
    for seed in range(100):
        g = random_fd_graph(random.Random(seed), max_internal=12, max_directives=20)
        assert validate(g).ok
        slices = enumerate_slices(g, max_slices=200).slices
        chosen = rng.sample(slices, min(6, len(slices)))
        for sc in _every_edit(rng, g):
            try:
                changed = apply_change(g, sc)
            except ChangeError as exc:
                with pytest.raises(ChangeError) as err:
                    _apply(g, sc)
                assert str(err.value) == str(exc)
                seen["refused"] += 1
                continue
            seed_set, owners, rehung, _ = _apply(g, sc)
            assert seed_set == edited_directives(g, changed, sc), sc
            assert bool(rehung) == sc.kind.value.startswith("add_"), sc
            seen["applied"] += 1
            rows, far = hop_rows(g, seed_set, rehung)
            assert set(rows) == seed_set
            if not rehung:
                for s in seed_set:
                    assert rows[s] == _bfs_row(g, s, g.directive_ids), (sc, s)
                assert far == g.n_nodes
                continue
            assert set(changed.node_ids) == set(g.node_ids) | set(rehung), sc
            for nid in changed.node_ids:
                if nid in rehung:
                    assert len(set(rehung[nid])) == len(rehung[nid]), (sc, nid)
                    assert set(rehung[nid]) == _neighbours(changed, nid), (sc, nid)
                else:
                    assert _neighbours(g, nid) == _neighbours(changed, nid), (sc, nid)
            assert far == changed.n_nodes
            for s in seed_set:
                assert rows[s] == _bfs_row(changed, s, g.directive_ids), (sc, s)
                seen["rows"] += 1
            for slc in chosen:
                got = _owned(owners, slc)
                assert got == _owned(resolve_membership, changed, slc.members), (sc, slc)
                seen["uncovered" if isinstance(got, tuple) else "derived"] += 1
    assert min(seen.values()) >= 200, seen


def test_simulate_validates_its_graph_once(monkeypatch, tmp_path, capsys):
    # the CLI validates the graph on load and compare_slices reads the same
    # cached report; no changed graph is validated on a valid base
    computed = []

    def counting(ok, violations):
        computed.append(ok)
        return ValidationReport(ok, violations)

    monkeypatch.setattr(graph_module, "ValidationReport", counting)
    scenarios = [
        {"kind": "modify_directive", "target": "d_9", "payload": {"relevance": 0.1}},
        {"kind": "delete_directive", "target": "d_10"},
        {"kind": "delete_function_subtree", "target": "n_8"},
        {"kind": "add_directive", "target": "n_3", "payload": {"id": "d_15", "relevance": 1}},
        {"kind": "add_function", "target": "n_7", "payload": {"id": "n_10", "children": ["d_6"]}},
    ]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(scenarios))
    argv = ["simulate", str(fig2_path()), str(path), "--slice", "n_1,n_3,n_7"]
    assert main(argv + ["--slice", "n_2,n_3,n_5", "--format", "machine"]) == 0
    assert computed == [True]
    assert '"evaluated_on":"changed"' in capsys.readouterr().out.replace(" ", "")


def test_compare_slices_builds_no_graph_on_a_valid_base(monkeypatch, fig2, s1, s2):
    # every scenario kind is measured without a changed graph; apply_change
    # still builds one per scenario
    built = []
    init = FDGraph.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(FDGraph, "__init__", counting)
    scenarios = [
        scenario("modify_directive", "d_9", {"relevance": 0.1}),
        scenario("delete_directive", "d_10"),
        scenario("delete_function_subtree", "n_8"),
        scenario("add_directive", "n_3", {"id": "d_15", "relevance": 1}),
        scenario("add_function", "n_7", {"id": "n_10", "children": ["d_6", "d_7"]}),
    ]
    assert {sc.kind for sc in scenarios} == set(ScenarioKind)
    reports = compare_slices(fig2, [s1, s2], scenarios).reports
    assert [r.evaluated_on for r in reports[0]] == ["base"] * 3 + ["changed"] * 2
    assert built == []
    for sc in scenarios:
        apply_change(fig2, sc)
    assert len(built) == len(scenarios)


def test_modify_directive_copies_no_parts_on_a_valid_base(monkeypatch, fig2, s1, s2):
    # a modification on a valid base builds no graph, so it copies nothing
    # to build one from; apply_change still copies
    calls = []

    def counting(graph):
        calls.append(graph)
        return parts(graph)

    monkeypatch.setattr(changesim_module, "parts", counting)
    scenarios = [
        scenario("modify_directive", "d_1", {"label": "renamed"}),
        scenario("modify_directive", "d_9", {"relevance": Fraction(7, 10)}),
        scenario("modify_directive", "d_3", {"relevance": {"n_5": "marginal", "n_6": 0.1}}),
    ]
    reports = compare_slices(fig2, [s1, s2], scenarios).reports
    assert [r.evaluated_on for row in reports for r in row] == ["base"] * 6
    assert calls == []
    apply_change(fig2, scenarios[0])
    assert calls == [fig2]


def test_compare_slices_does_not_trust_an_invalid_base():
    # every edit of a base that fails validation is built once, so an edit
    # apply_change refuses is refused by compare_slices too
    rng = random.Random(2122)
    refused = 0
    for _ in range(60):
        bad = _dropped_edges(rng, random_fd_graph(rng, max_internal=8, max_directives=10))
        slices = enumerate_slices(bad, max_slices=50).slices
        if validate(bad).ok or not slices:
            continue
        chosen = rng.sample(slices, min(2, len(slices)))
        for sc in _every_edit(rng, bad):
            try:
                apply_change(bad, sc)
            except ChangeError as exc:
                with pytest.raises(ChangeError) as err:
                    compare_slices(bad, chosen, [sc])
                assert str(err.value) == str(exc)
                refused += 1
    assert refused >= 300


def _childless_function(rng, g):
    # an invalid base: one function without children, which an added
    # directive under it repairs, and every deletion's cascade removes
    nodes, edges, relevance = parts(g)
    nodes["f_empty"] = Node("f_empty", NodeKind.FUNCTION)
    edges.add((rng.choice(g.mission_ids + g.function_ids), "f_empty"))
    return FDGraph(nodes, dict.fromkeys(edges), relevance)


def _misstated_kind(rng, g):
    # an invalid base: one stated edge kind contradicts the degrees, which
    # the changed graph, its kinds inferred afresh, no longer states
    nodes, edges, relevance = parts(g)
    stated = dict.fromkeys(edges)
    u, v, kind = rng.choice(g.edges())
    stated[(u, v)] = rng.choice([k for k in EdgeKind if k is not kind])
    return FDGraph(nodes, stated, relevance)


def test_compare_slices_on_an_invalid_base_matches_the_oracle():
    # an edit compare_slices accepts on a base that fails validation leaves
    # a valid graph, and every cell it measures there is the oracle's.  Only
    # the dropped-edge and childless-function bases have acceptance counts
    # required: a misstated-kind base is accepted only because an edit
    # states no edge kind, so the rebuild drops the misstated one, and
    # whether an edit should keep stated kinds is still open
    rng = random.Random(2123)
    accepted = Counter()
    for i in range(180):
        make_base = (_dropped_edges, _childless_function, _misstated_kind)[i % 3]
        bad = make_base(rng, random_fd_graph(rng, max_internal=8, max_directives=10))
        slices = enumerate_slices(bad, max_slices=50).slices
        if validate(bad).ok or not slices:
            continue
        chosen = rng.sample(slices, min(2, len(slices)))
        thr = rng.choice([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
        for sc in _every_edit(rng, bad):
            try:
                got = compare_slices(bad, chosen, [sc], thr)
            except (ChangeError, MembershipError, GraphError):
                continue
            expected = [[impact_by_coupling(bad, s, sc, thr)] for s in chosen]
            assert [list(row) for row in got.reports] == expected, (bad, sc)
            accepted[make_base, sc.kind] += 1
    required = {
        (_dropped_edges, ScenarioKind.DELETE_DIRECTIVE): 10,
        (_dropped_edges, ScenarioKind.DELETE_FUNCTION_SUBTREE): 40,
        (_childless_function, ScenarioKind.DELETE_DIRECTIVE): 100,
        (_childless_function, ScenarioKind.DELETE_FUNCTION_SUBTREE): 100,
        (_childless_function, ScenarioKind.ADD_DIRECTIVE): 20,
    }
    assert all(accepted[key] >= n for key, n in required.items()), accepted


def test_deletion_cascade_matches_the_oracle_on_hand_built_bases():
    # fd_graphs draws only valid graphs, and the invalid-base differential
    # takes its oracle's graph from apply_change, so neither holds the
    # cascade to an independent reference on these: a chain of single-child
    # functions that one deletion empties, and an invalid base that already
    # holds a childless function h, whose single-child parent f1 goes too
    def graph(edges):
        ids = dict.fromkeys(n for e in edges for n in e)
        kinds = {"m": "mission", "d": "directive"}
        return build_graph(
            [(n, kinds.get(n[0], "function")) for n in ids],
            [(u, v, None, 1) if v[0] == "d" else (u, v) for u, v in edges],
        )

    chain = graph(
        [("m", "f1"), ("f1", "f2"), ("f2", "f3"), ("f3", "d"), ("m", "g"), ("g", "d2")]
    )
    holed = graph([("m", "a"), ("a", "d1"), ("a", "d2"), ("m", "f1"), ("f1", "h")])
    assert validate(chain).ok
    assert [v.subject for v in validate(holed).violations] == ["h"]
    # each case's cascade starts from the target and what the mission no
    # longer reaches without it
    emptied = {"d", "f3", "f2", "f1"}
    cases = [
        (chain, scenario("delete_directive", "d"), {"d"}, emptied),
        (chain, scenario("delete_function_subtree", "f3"), {"f3", "d"}, emptied),
        (chain, scenario("delete_function_subtree", "f2"), {"f2", "f3", "d"}, emptied),
        (holed, scenario("delete_directive", "d1"), {"d1"}, {"d1", "h", "f1"}),
        (holed, scenario("delete_function_subtree", "f1"), {"f1", "h"}, {"f1", "h"}),
    ]
    for g, sc, start, expected in cases:
        nodes, edges, _ = parts(g)
        removed = _cascade_childless(nodes, edges, start)
        assert removed == expected, sc
        seed, _, rehung, edit = _apply(g, sc)
        assert rehung == {}
        assert seed == {n for n in removed if nodes[n].kind is NodeKind.DIRECTIVE}, sc
        assert set(edit()[0]) == set(nodes) - removed, sc


def test_impact_not_connected_error():
    # a validated edit never leaves a directive out of reach, so hand the
    # kernel a base graph with a second component directly.  At 1/100 the
    # reach (100 // 2 = 50) lies beyond the far mark (6 nodes), so a cut
    # that counted far as a distance would take z in instead of raising.
    g = build_graph(
        [("m", "mission"), ("f", "function"), ("a", "directive"), ("b", "directive"),
         ("o", "function"), ("z", "directive")],
        [("m", "f"), ("f", "a", None, 1), ("f", "b", None, 1), ("o", "z", None, 1)],
    )
    slc = Slice(("f", "o"), {"a": "f", "b": "f", "z": "o"})
    sc = scenario("modify_directive", "a", {"label": "x"})
    rows, far = hop_rows(g, ["a"], {})
    assert far == 6
    applied = (frozenset({"a"}), False, _kept, g.directive_ids, rows, far)
    for thr in (Fraction(1, 8), Fraction(1, 100)):
        with pytest.raises(GraphError, match="^'z' and 'a' are not connected$"):
            _impact(slc, sc, applied, thr, Counter(slc.membership.values()))


def test_add_directive_under_nested_members_is_a_sharing_error():
    # a hand-built Slice with one member under another breaks compare_slices'
    # precondition; an added leaf below both is entered by both through its
    # parent, which is the sharing resolve_membership refuses
    g = build_graph(
        [("m", "mission"), ("f", "function"), ("g", "function"), ("a", "directive"),
         ("b", "directive")],
        [("m", "f"), ("f", "g"), ("g", "a", None, 1), ("f", "b", None, 1)],
    )
    assert validate(g).ok
    slc = Slice(("f", "g"), {"a": "g", "b": "f"})
    sc = scenario("add_directive", "g", {"id": "n", "relevance": 1})
    with pytest.raises(UnresolvableSharingError, match="^members f and g both reach n through parent g$"):
        compare_slices(g, [slc], [sc])


def test_compare_slices_checks_threshold_once(fig2, s1):
    # also with no scenario to measure
    for value in (5, 0, Fraction(11, 10)):
        with pytest.raises(ValueError, match=r"threshold .* outside \(0, 1\]"):
            compare_slices(fig2, [s1], [], value)
    with pytest.raises(ValueError, match="at least one slice"):
        compare_slices(fig2, [], [], 5)
    # str() of this threshold would exceed Python's int-string digit limit
    with pytest.raises(ValueError, match=r"^threshold 1000+\.\.\.0+ outside \(0, 1\]$"):
        compare_slices(fig2, [s1], [], Fraction(10**4300))
