import ast
import copy
import dataclasses
import json
import math
import pickle
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from capslice.graph import (
    EdgeKind,
    FDGraph,
    GraphError,
    GraphParseError,
    IMPACT_RELEVANCE,
    Node,
    NodeKind,
    UnknownNodeError,
    ancestors,
    build_graph,
    coerce_relevance,
    descendants,
    directive_weights,
    distances_from,
    export_dot,
    find_cycle,
    impact_category,
    leaves_of,
    parse_graph,
    parts,
    serialize_graph,
    undirected_distance,
    validate,
)
from capslice.rational import brief, fixed, to_fraction
import capslice.graph as graph_module
import capslice.changesim as changesim
from capslice.changesim import ChangeError, apply_change
from capslice.fixtures import fig2_text, load_fig2
from conftest import random_fd_graph, random_scenario
from oracles import (
    below,
    bfs_distance,
    bfs_distances,
    reachable_leaves,
    reparsed,
    validate_reference,
)


def test_fig2_shape(fig2):
    assert fig2.n_nodes == 24
    assert len(fig2.edges()) == 27
    assert fig2.mission_ids == ("m",)
    assert len(fig2.function_ids) == 9
    assert len(fig2.directive_ids) == 14
    assert fig2.node("m").label == "system mission"
    assert fig2.node("n_1").label == ""


def test_graph_equality_and_repr(fig2):
    assert fig2 == load_fig2()
    assert fig2.__eq__(1) is NotImplemented  # so Python falls back to identity
    assert not fig2 == 1 and fig2 != 1
    assert repr(fig2) == "<FDGraph nodes=24 edges=27>"


def test_fig2_edge_kinds(fig2):
    assert fig2.edge_kind("m", "n_1") is EdgeKind.DECOMPOSITION
    assert fig2.edge_kind("n_4", "n_9") is EdgeKind.REFINEMENT
    assert fig2.edge_kind("n_5", "d_3") is EdgeKind.INTERSECTION
    assert fig2.edge_kind("n_6", "d_3") is EdgeKind.INTERSECTION
    assert fig2.edge_kind("n_8", "d_13") is EdgeKind.INTERSECTION
    assert fig2.edge_kind("n_9", "d_14") is EdgeKind.INTERSECTION
    assert fig2.edge_kind("n_5", "d_1") is EdgeKind.DECOMPOSITION


def test_edge_kind_of_a_missing_edge(fig2):
    with pytest.raises(GraphError, match="^no edge 'm' -> 'd_1'$"):
        fig2.edge_kind("m", "d_1")


def test_edge_kinds_follow_degrees(fig2):
    # the stored kind of every edge must match what the degrees imply
    for u, v, kind in fig2.edges():
        if len(fig2.children(u)) == 1:
            expected = EdgeKind.REFINEMENT
        elif len(fig2.parents(v)) >= 2:
            expected = EdgeKind.INTERSECTION
        else:
            expected = EdgeKind.DECOMPOSITION
        assert kind is expected, (u, v)


def test_unstated_kinds_inferred_like_build_graph(fig2):
    rng = random.Random(4117)
    for g in [fig2] + [random_fd_graph(rng, max_internal=10) for _ in range(20)]:
        nodes = {i: g.node(i) for i in g.node_ids}
        edges = dict.fromkeys((u, v) for u, v, _ in g.edges())
        relevance = parts(g)[2]
        built = FDGraph(nodes, edges, relevance)
        assert built == reparsed(g)
        assert built == g  # g is valid, so its kinds are the inferred ones


def test_category_parsing(fig2):
    assert fig2.relevance("d_1", "n_5") == Fraction(3, 10)
    assert fig2.relevance("d_6", "n_7") == Fraction(1)
    assert fig2.relevance("d_9", "n_7") == Fraction(1, 10)
    assert fig2.relevance("d_3", "n_5") > fig2.relevance("d_3", "n_6")


def test_impact_table_exact():
    assert IMPACT_RELEVANCE["catastrophic"] == Fraction(1)
    assert IMPACT_RELEVANCE["critical"] == Fraction(7, 10)
    assert IMPACT_RELEVANCE["marginal"] == Fraction(3, 10)
    assert IMPACT_RELEVANCE["negligible"] == Fraction(1, 10)
    assert impact_category(Fraction(7, 10)) == "critical"
    assert impact_category(Fraction(1, 2)) is None


def test_numeric_relevance_is_exact():
    g = parse_graph(
        json.dumps(
            {
                "nodes": [
                    {"id": "m", "kind": "mission"},
                    {"id": "f", "kind": "function"},
                    {"id": "a", "kind": "directive"},
                    {"id": "b", "kind": "directive"},
                ],
                "edges": [
                    {"from": "m", "to": "f"},
                    {"from": "f", "to": "a", "relevance": 0.3},
                    {"from": "f", "to": "b", "relevance": 1},
                ],
            }
        )
    )
    # 0.3 must mean exactly 3/10, not the nearest binary float
    assert g.relevance("a", "f") == Fraction(3, 10)
    assert g.relevance("b", "f") == Fraction(1)


def test_parse_syntax_error_carries_position():
    with pytest.raises(GraphParseError) as err:
        parse_graph('{"nodes": [}')
    assert err.value.line == 1
    assert err.value.column is not None


@pytest.mark.parametrize(
    "doc",
    [
        '["not", "an", "object"]',
        '{"nodes": []}',
        '{"nodes": {}, "edges": []}',
        '{"nodes": [{"id": "m"}], "edges": []}',
        '{"nodes": [{"id": "m", "kind": "mission"}], "edges": [{"from": "m"}]}',
    ],
)
def test_parse_structure_errors(doc):
    with pytest.raises(GraphParseError):
        parse_graph(doc)


def _tiny(edge_extras):
    return {
        "nodes": [
            {"id": "m", "kind": "mission"},
            {"id": "f", "kind": "function"},
            {"id": "d", "kind": "directive"},
        ],
        "edges": [{"from": "m", "to": "f"}, dict({"from": "f", "to": "d"}, **edge_extras)],
    }


def test_parse_relevance_range():
    with pytest.raises(GraphParseError, match="outside"):
        parse_graph(json.dumps(_tiny({"relevance": 1.5})))
    with pytest.raises(GraphParseError, match="outside"):
        parse_graph(json.dumps(_tiny({"relevance": -0.1})))
    # the documented range is (0, 1]
    with pytest.raises(GraphParseError, match=r"outside \(0, 1\]"):
        parse_graph(json.dumps(_tiny({"relevance": 0})))
    with pytest.raises(GraphParseError, match="edge entry 1"):
        build_graph(
            [("m", "mission"), ("f", "function"), ("d", "directive")],
            [("m", "f"), ("f", "d", None, Fraction(0))],
        )
    tiny = parse_graph(json.dumps(_tiny({"relevance": "X"})).replace('"X"', "1e-4300"))
    assert tiny.relevance("d", "f") == Fraction(1, 10**4300)


def test_decimal_exponent_bound():
    # past the bound Fraction would build 10**20000000 before failing
    for text in ("1e-20000000", "1E+4301", " 2e-5000 "):
        with pytest.raises(ValueError, match="exponent"):
            to_fraction(text)
    with pytest.raises(ValueError, match="exponent"):
        to_fraction(Decimal("1e-20000000"))
    with pytest.raises(GraphParseError, match="exponent"):
        parse_graph(json.dumps(_tiny({"relevance": "X"})).replace('"X"', "1e-5000"))
    assert to_fraction("1e-4300") == Fraction(1, 10**4300)
    assert to_fraction("25e-1") == Fraction(5, 2)


def test_zero_denominator_is_value_error():
    # Fraction("1/0") raises ZeroDivisionError, which the callers do not expect
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            to_fraction(text)
    assert to_fraction("2/4") == Fraction(1, 2)


def test_fixed_sizes_its_precision():
    assert fixed(Fraction(2, 3)) == "0.6667" and fixed(Fraction(-1, 10**5)) == "-0.0000"
    big = 10**400 + Fraction(1, 3)
    assert fixed(big) == "1" + "0" * 400 + ".3333"
    assert fixed(-big, 2) == "-1" + "0" * 400 + ".33"
    # past str()'s 4300-digit limit, and a rounding that adds a digit
    assert fixed(Fraction(10**5000) - Fraction(1, 10**6)) == "1" + "0" * 5000 + ".0000"
    assert fixed(Fraction(10**47) - Fraction(1, 10**5)) == "1" + "0" * 47 + ".0000"
    # 46 integer digits and 4 places fill the 50-digit floor exactly: one
    # rounding, where a 51-digit division would round twice and give ...3930
    edge = Fraction(-85896677317059488466854890738840416301588940722875, 34573)
    assert fixed(edge) == "-2484501701242573351079018041212518910756629182.3931"


def test_parse_kinds_must_be_names():
    # a numeric edge kind used to reach validate and raise AttributeError
    with pytest.raises(GraphParseError, match="^edge entry 1: unknown edge kind 5$"):
        parse_graph(json.dumps(_tiny({"relevance": 0.7, "kind": 5})))
    doc = _tiny({"relevance": 0.7})
    doc["nodes"][1]["kind"] = 7
    with pytest.raises(GraphParseError, match="^node entry 1: unknown node kind 7$"):
        parse_graph(json.dumps(doc))
    # library callers may pass the enum members themselves
    g = build_graph(
        [Node("m", NodeKind.MISSION), ("f", NodeKind.FUNCTION), ("d", "directive")],
        [("m", "f", EdgeKind.REFINEMENT), ("f", "d", "refinement", Fraction(1, 2))],
    )
    assert validate(g).ok
    assert g.edge_kind("m", "f") is EdgeKind.REFINEMENT


def test_build_graph_entries_of_the_wrong_form_are_named():
    # a Node's string kind used to reach FDGraph and raise a bare KeyError,
    # and a short tuple an IndexError; a Node's kind is read as a tuple's
    g = build_graph([Node("m", "Mission")], [])
    assert g == build_graph([("m", "mission")], []) and g.mission_ids == ("m",)
    assert g.node("m").kind is NodeKind.MISSION
    with pytest.raises(GraphParseError, match="^node entry 1: unknown node kind 'mision'$"):
        build_graph([("m", "mission"), Node("f", "mision")], [])
    with pytest.raises(GraphParseError, match="^node entry 0: unknown node kind 3$"):
        build_graph([Node("m", 3)], [])
    with pytest.raises(GraphParseError, match=r"^node entry 0 must carry id and kind: \('m',\)$"):
        build_graph([("m",)], [])
    with pytest.raises(GraphParseError, match=r"^edge entry 1 must carry from and to: \['f'\]$"):
        build_graph([("m", "mission"), ("f", "function")], [("m", "f"), ["f"]])
    with pytest.raises(GraphParseError, match="^node entry 0 must carry id and kind: 5$"):
        build_graph([5], [])


def test_build_graph_takes_str_subclass_ids():
    # an edge end of a str subclass fails the checker's one-condition test
    # of both ends and passes its per-end loop, as it always did
    class Id(str):
        pass

    g = build_graph(
        [(Id("m"), "mission"), ("f", "function"), (Id("d"), "directive")],
        [("m", Id("f")), (Id("f"), "d", None, "critical")],
    )
    assert g == build_graph(
        [("m", "mission"), ("f", "function"), ("d", "directive")],
        [("m", "f"), ("f", "d", None, "critical")],
    )
    assert validate(g).ok
    unknown = "^edge entry 0: 'm' -> 'x' references unknown node 'x'$"
    with pytest.raises(GraphParseError, match=unknown):
        build_graph([("m", "mission")], [("m", Id("x"))])


def test_nodes_keep_the_dataclass_contract(fig2):
    # the checker fills each Node through the slot descriptors; each is the
    # node the constructor builds, by position or by keyword
    names = ("id", "kind", "label")
    assert tuple(f.name for f in dataclasses.fields(Node)) == names
    doc = _tiny({"relevance": 0.7})
    doc["nodes"][1]["label"] = "F"
    nodes = [fig2.node(n) for n in fig2.node_ids] + [parse_graph(json.dumps(doc)).node("f")]
    assert nodes[-1].label == "F"
    for node in nodes:
        assert type(node) is Node
        built = Node(node.id, node.kind, node.label)
        assert node == built == Node(**{name: getattr(node, name) for name in names})
        assert hash(node) == hash(built)
        assert node != dataclasses.replace(node, label=node.label + "x")
        assert repr(node) == repr(built)
        assert repr(node) == f"Node(id={node.id!r}, kind={node.kind!r}, label={node.label!r})"
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.label = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.kind
        # slotted: no __dict__, so no vars() and no room for another name,
        # which a frozen slotted dataclass refuses with TypeError on
        # CPython 3.10 to 3.13
        assert not hasattr(node, "__dict__")
        with pytest.raises(TypeError):
            vars(node)
        with pytest.raises((AttributeError, TypeError)):
            node.extra = 1
        assert dataclasses.replace(node) == node
        assert copy.copy(node) == node
        assert copy.deepcopy(node) == node
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(node, protocol)) == node
    assert Node("x", NodeKind.FUNCTION) == Node(kind=NodeKind.FUNCTION, id="x", label="")


def test_oversized_relevance_is_named():
    # str() of 10**4300 exceeds Python's int-string digit limit, which used
    # to replace the message; 1e4300 is within the decimal exponent bound
    text = json.dumps(_tiny({"relevance": "X"})).replace('"X"', "1e4300")
    cut = "1" + "0" * 17 + "..." + "0" * 18
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert str(err.value) == f"edge entry 1: relevance {cut} on 'f' -> 'd' outside (0, 1]"
    assert brief(Fraction(-(10**5000), 3)) == f"-{cut}/3"
    assert brief([Fraction(7, 10), 10**40 - 1]) == f"[7/10, {'9' * 40}]"
    assert brief(10**40) == cut  # 41 digits, the first elided


def test_parse_unknown_category():
    with pytest.raises(GraphParseError, match="^edge entry 1: unknown impact category 'dire'$"):
        parse_graph(json.dumps(_tiny({"relevance": "dire"})))


def test_parse_kind_names_in_any_case(fig2):
    # kind names are case-folded, so any case gives the same graph
    doc = json.loads(fig2_text())
    for item in doc["nodes"]:
        item["kind"] = {"mission": "Mission", "function": "Function"}.get(
            item["kind"], "DIRECTIVE"
        )
    for item in doc["edges"]:
        if fig2.edge_kind(item["from"], item["to"]) is EdgeKind.REFINEMENT:
            item["kind"] = "Refinement"
    assert {item["kind"] for item in doc["nodes"]} == {"Mission", "Function", "DIRECTIVE"}
    assert any(item.get("kind") == "Refinement" for item in doc["edges"])
    mixed = parse_graph(json.dumps(doc))
    lowered = json.loads(json.dumps(doc).replace('"Refinement"', '"refinement"'))
    for item in lowered["nodes"]:
        item["kind"] = item["kind"].lower()
    assert mixed == parse_graph(json.dumps(lowered)) == fig2
    assert validate(mixed).ok


@pytest.mark.parametrize(
    "raw, message",
    [
        (1.5, "relevance 3/2 on 'f' -> 'd' outside (0, 1]"),
        (0, "relevance 0 on 'f' -> 'd' outside (0, 1]"),
        (True, "bad relevance value True: boolean is not a numeric value"),
        ("dire", "unknown impact category 'dire'"),
    ],
)
def test_parse_relevance_messages(raw, message):
    with pytest.raises(GraphParseError) as err:
        parse_graph(json.dumps(_tiny({"relevance": raw})))
    assert str(err.value) == f"edge entry 1: {message}"


def test_coerce_relevance():
    assert coerce_relevance("Critical", "f", "d") == Fraction(7, 10)
    assert coerce_relevance(Fraction(1, 4), "f", "d") == Fraction(1, 4)
    assert coerce_relevance(1, "f", "d") == 1
    # the message names the edge and no entry of any list
    for raw, shown in ((2, "2"), (0, "0"), (Fraction(-1, 3), "-1/3")):
        with pytest.raises(GraphParseError) as err:
            coerce_relevance(raw, "f", "d")
        assert str(err.value) == f"relevance {shown} on 'f' -> 'd' outside (0, 1]"
    with pytest.raises(GraphParseError, match="^unknown impact category 'dire'$"):
        coerce_relevance("dire", "f", "d")
    with pytest.raises(GraphParseError, match="^bad relevance value \\[1\\]"):
        coerce_relevance([1], "f", "d")


def test_parse_relevance_on_function_edge():
    doc = _tiny({"relevance": 0.7})
    doc["edges"][0]["relevance"] = 0.5
    with pytest.raises(GraphParseError, match="non-directive"):
        parse_graph(json.dumps(doc))


def test_parse_duplicate_node():
    doc = _tiny({"relevance": 0.7})
    doc["nodes"].append({"id": "f", "kind": "function"})
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_graph(json.dumps(doc))


def test_parse_unknown_edge_endpoint():
    doc = _tiny({"relevance": 0.7})
    doc["edges"].append({"from": "f", "to": "ghost"})
    with pytest.raises(GraphParseError, match="unknown node"):
        parse_graph(json.dumps(doc))
    # an unhashable end used to escape as a TypeError
    doc["edges"][-1]["to"] = ["f"]
    with pytest.raises(GraphParseError, match="edge entry 2: 'f' -> \\['f'\\] references"):
        parse_graph(json.dumps(doc))


def test_parse_duplicate_edge():
    doc = _tiny({"relevance": 0.7})
    doc["edges"].append({"from": "m", "to": "f"})
    with pytest.raises(GraphParseError, match="duplicate edge"):
        parse_graph(json.dumps(doc))


def test_parse_self_loop():
    doc = _tiny({"relevance": 0.7})
    doc["edges"].append({"from": "f", "to": "f"})
    with pytest.raises(GraphParseError, match="self loop"):
        parse_graph(json.dumps(doc))


# -- validate -------------------------------------------------------------


def test_validate_fig2_ok(fig2):
    report = validate(fig2)
    assert report.ok
    assert report.violations == ()


def _fig2_parts(fig2):
    nodes = [fig2.node(n) for n in fig2.node_ids]
    edges = []
    for u, v, kind in fig2.edges():
        rel = None
        if fig2.node(v).kind is NodeKind.DIRECTIVE:
            rel = fig2.relevance(v, u)
        edges.append([u, v, None, rel])
    return nodes, edges


def test_validate_cycle(fig2):
    nodes, edges = _fig2_parts(fig2)
    edges.append(["d_1", "n_5", None, None])
    report = validate(build_graph(nodes, edges))
    codes = {v.code for v in report.violations}
    assert "CYCLE" in codes
    assert "NODE_DEGREE" in codes  # d_1 now has a child


def _acyclic(g):
    # Kahn's algorithm: every node is peeled off exactly when there is no cycle
    indeg = {n: len(g.parents(n)) for n in g.node_ids}
    ready = [n for n, k in indeg.items() if k == 0]
    peeled = 0
    while ready:
        peeled += 1
        for c in g.children(ready.pop()):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return peeled == g.n_nodes


@pytest.mark.parametrize(
    "extra, path",
    [
        ([("d_13", "m")], ["d_13", "m", "n_3", "n_8", "d_13"]),
        ([("d_4", "n_2")], ["d_4", "n_2", "n_6", "d_4"]),
        ([("d_9", "n_1"), ("n_5", "n_2")], ["d_9", "n_1", "n_5", "n_2", "n_7", "d_9"]),
        ([("n_9", "n_4"), ("d_14", "n_3")], ["d_14", "n_3", "n_8", "d_14"]),
    ],
)
def test_find_cycle_paths_are_pinned(fig2, extra, path):
    # validate reports the cycle find_cycle's depth-first search meets first
    nodes, edges = _fig2_parts(fig2)
    g = build_graph(nodes, edges + [[u, v, None, None] for u, v in extra])
    assert find_cycle(g) == path
    cycles = [v.subject for v in validate(g).violations if v.code == "CYCLE"]
    assert cycles == [" -> ".join(path)]


def test_find_cycle_reports_a_closed_walk_or_none():
    # a cycle away from the search's root starts where the search re-entered it
    h = build_graph([(n, "function") for n in "abc"], [("a", "b"), ("b", "c"), ("c", "b")])
    assert find_cycle(h) == ["b", "c", "b"]
    # seeded graphs with one to four edges added between any two nodes
    cyclic = 0
    for seed in range(300):
        rng = random.Random(seed)
        nodes, edges, relevance = parts(random_fd_graph(rng, max_internal=10, max_directives=12))
        ids = sorted(nodes)
        edges |= {tuple(rng.sample(ids, 2)) for _ in range(rng.randint(1, 4))}
        g = FDGraph(nodes, dict.fromkeys(edges), relevance)
        path = find_cycle(g)
        assert (path is None) == _acyclic(g), seed
        if path is None:
            continue
        cyclic += 1
        assert len(path) >= 3 and path[0] == path[-1], (seed, path)
        assert len(set(path[:-1])) == len(path) - 1, (seed, path)
        assert all(v in g.children(u) for u, v in zip(path, path[1:])), (seed, path)
    assert 100 <= cyclic <= 200, cyclic


def test_validate_is_linear_on_a_long_cyclic_chain():
    # 2,000 functions in a chain, each with an edge back to its predecessor:
    # one component the index condenses in its one search, where closing
    # the masks by repeated sweeps would take a sweep per link
    funs = [f"f{i:04d}" for i in range(2000)]
    nodes = [("m", "mission")] + [(f, "function") for f in funs] + [("d", "directive")]
    edges = [("m", funs[0]), (funs[-1], "d", None, 1)]
    edges += [(a, b) for a, b in zip(funs, funs[1:])] + [(b, a) for a, b in zip(funs, funs[1:])]
    g = build_graph(nodes, edges)
    start = time.perf_counter()
    report = validate(g)
    assert time.perf_counter() - start < 1.0
    assert "CYCLE" in {v.code for v in report.violations}
    assert descendants(g, funs[0]) == frozenset(funs) | {"d"}


def test_validate_mission_count():
    g = build_graph(
        [("a", "function"), ("d", "directive")], [("a", "d", None, Fraction(1, 2))]
    )
    assert "MISSION_COUNT" in {v.code for v in validate(g).violations}

    g2 = build_graph(
        [("m1", "mission"), ("m2", "mission"), ("d", "directive"), ("e", "directive")],
        [("m1", "d", None, Fraction(1, 2)), ("m2", "e", None, Fraction(1, 2))],
    )
    assert "MISSION_COUNT" in {v.code for v in validate(g2).violations}


def test_validate_degree_rules():
    # dangling function: no parents, no children, also unreachable
    g = build_graph(
        [("m", "mission"), ("f", "function"), ("d", "directive")],
        [("m", "d", None, Fraction(1, 2))],
    )
    report = validate(g)
    codes = {v.code for v in report.violations}
    assert "NODE_DEGREE" in codes
    assert "UNREACHABLE" in codes
    subjects = {v.subject for v in report.violations if v.code == "NODE_DEGREE"}
    assert "f" in subjects


def test_validate_reports_all_violations():
    # one graph, several independent problems, all listed at once
    g = build_graph(
        [
            ("m", "mission"),
            ("m2", "mission"),
            ("f", "function"),
            ("d", "directive"),
        ],
        [("m", "d", None, Fraction(1, 2))],
    )
    report = validate(g)
    codes = {v.code for v in report.violations}
    assert {"MISSION_COUNT", "NODE_DEGREE", "UNREACHABLE"} <= codes
    assert len(report.violations) >= 3


def test_validate_edge_kind_mismatch(fig2):
    nodes, edges = _fig2_parts(fig2)
    for e in edges:
        if e[0] == "n_4" and e[1] == "n_9":
            e[2] = "decomposition"  # degrees say refinement
    report = validate(build_graph(nodes, edges))
    bad = [v for v in report.violations if v.code == "EDGE_KIND"]
    assert len(bad) == 1
    assert bad[0].subject == "n_4->n_9"
    assert "refinement" in bad[0].message


def test_validate_missing_relevance():
    g = build_graph(
        [("m", "mission"), ("f", "function"), ("a", "directive"), ("b", "directive")],
        [("m", "f"), ("f", "a", None, Fraction(1, 2)), ("f", "b")],
    )
    report = validate(g)
    bad = [v for v in report.violations if v.code == "RELEVANCE_MISSING"]
    assert [v.subject for v in bad] == ["f->b"]


def test_validate_relevance_extra_and_range():
    # the public builders refuse these, so feed the constructor directly
    nodes = {
        "m": Node("m", NodeKind.MISSION),
        "f": Node("f", NodeKind.FUNCTION),
        "d": Node("d", NodeKind.DIRECTIVE),
    }
    kinds = {("m", "f"): EdgeKind.REFINEMENT, ("f", "d"): EdgeKind.REFINEMENT}
    g = FDGraph(nodes, kinds, {("d", "f"): Fraction(3, 2), ("d", "m"): Fraction(1, 2)})
    codes = {v.code for v in validate(g).violations}
    assert "RELEVANCE_RANGE" in codes
    assert "RELEVANCE_EXTRA" in codes
    zero = FDGraph(nodes, kinds, {("d", "f"): Fraction(0)})
    assert [(v.code, v.message) for v in validate(zero).violations] == [
        ("RELEVANCE_RANGE", "relevance 0 outside (0, 1]")
    ]
    huge = FDGraph(nodes, kinds, {("d", "f"): Fraction(10**4300)})
    assert [(v.code, v.message) for v in validate(huge).violations] == [
        ("RELEVANCE_RANGE", f"relevance 1{'0' * 17}...{'0' * 18} outside (0, 1]")
    ]


def _broken_parts(rng, graph):
    """A random graph's parts with one to three defects the builders refuse
    or validate reports, and the defects drawn; every edge kind is stated or
    left to inference."""
    nodes = {i: graph.node(i) for i in graph.node_ids}
    kinds = {(u, v): rng.choice([None, kind]) for u, v, kind in graph.edges()}
    relevance = parts(graph)[2]
    funs, dirs = list(graph.function_ids), list(graph.directive_ids)
    defects = rng.sample(range(11), rng.randint(1, 3))
    for defect in defects:
        if defect == 0:  # wrong stated kinds
            for e in rng.sample(sorted(kinds), min(3, len(kinds))):
                kinds[e] = rng.choice(list(EdgeKind))
        elif defect == 1:  # a cycle back up to the mission or a function
            kinds[(rng.choice(funs + dirs), rng.choice(["m"] + funs))] = None
        elif defect == 2:  # relevance 0, above 1 or huge
            key = rng.choice(sorted(relevance))
            relevance[key] = rng.choice([Fraction(0), Fraction(3, 2), Fraction(10**4300)])
        elif defect == 3:  # orphans
            nodes["zz_f"] = Node("zz_f", NodeKind.FUNCTION)
            nodes["zz_d"] = Node("zz_d", NodeKind.DIRECTIVE)
        elif defect == 4:  # missing relevance
            for key in rng.sample(sorted(relevance), 2):
                del relevance[key]
        elif defect == 5:  # relevance on a non-edge and on a function edge
            relevance[(rng.choice(dirs), "m")] = Fraction(1, 2)
            relevance[(funs[0], "m")] = Fraction(1, 2)
        elif defect == 6:  # a second mission
            nodes["m2"] = Node("m2", NodeKind.MISSION)
            kinds[("m2", rng.choice(funs))] = rng.choice([None, EdgeKind.DECOMPOSITION])
        elif defect == 7:  # a function left without children
            f = rng.choice(funs)
            for e in [e for e in kinds if e[0] == f]:
                del kinds[e]
        elif defect == 8:  # a cycle among new orphan functions, the mission side sound
            ring = ["zz_c0", "zz_c1", "zz_c2"]
            for a, b in zip(ring, ring[1:] + ring[:1]):
                nodes[a] = Node(a, NodeKind.FUNCTION)
                kinds[(a, b)] = None
        elif defect == 9:  # an orphan function with an edge into the mission
            nodes["zz_m"] = Node("zz_m", NodeKind.FUNCTION)
            kinds[("zz_m", "m")] = None
        else:  # an orphan function with an edge into a reachable directive
            nodes["zz_r"] = Node("zz_r", NodeKind.FUNCTION)
            d = rng.choice(dirs)
            kinds[("zz_r", d)] = None
            relevance[(d, "zz_r")] = Fraction(1, 2)
    return (nodes, kinds, relevance), defects


def test_validate_computes_each_report_once(fig2):
    assert validate(fig2) is validate(fig2)
    # a graph built from another's edited parts computes its own report
    nodes, edges, relevance = parts(fig2)
    edges.discard(("n_7", "d_9"))
    relevance[("d_1", "n_7")] = Fraction(1, 2)
    broken = FDGraph(nodes, dict.fromkeys(edges), relevance)
    report = validate(broken)
    assert [(v.code, v.subject) for v in report.violations] == [
        ("UNREACHABLE", "d_9"),
        ("RELEVANCE_EXTRA", "n_7->d_1"),
        ("RELEVANCE_EXTRA", "n_7->d_9"),
    ]
    assert report == validate_reference(broken) and validate(broken) is report
    assert validate(fig2).ok


def test_validate_matches_reference(monkeypatch):
    # full reports, order included, on valid graphs (kinds inferred and
    # stated), on every graph change simulation re-validates, and on broken ones
    rng = random.Random(1107)
    changed = []

    def recording(graph):
        changed.append(graph)
        return validate(graph)

    monkeypatch.setattr(changesim, "validate", recording)
    graphs = []
    defects = set()
    for _ in range(60):
        g = random_fd_graph(rng, max_internal=10, max_directives=14)
        graphs += [g, parse_graph(serialize_graph(g))]
        for _ in range(3):
            try:
                apply_change(g, random_scenario(rng, g))
            except ChangeError:
                pass
        broken, drawn = _broken_parts(rng, g)
        graphs.append(FDGraph(*broken))
        defects.update(drawn)
    assert defects == set(range(11))
    graphs += changed
    codes = set()
    for g in graphs:
        report = validate(g)
        assert report == validate_reference(g)
        codes |= {v.code for v in report.violations}
    assert not all(validate(g).ok for g in changed)  # some edits break the graph
    assert codes == {
        "MISSION_COUNT", "CYCLE", "NODE_DEGREE", "UNREACHABLE",
        "EDGE_KIND", "RELEVANCE_MISSING", "RELEVANCE_EXTRA", "RELEVANCE_RANGE",
    }


# -- queries ----------------------------------------------------------------


def test_leaves_of_fig2(fig2):
    assert leaves_of(fig2, "n_3") == frozenset({"d_10", "d_11", "d_12", "d_13", "d_14"})
    assert leaves_of(fig2, "d_7") == frozenset({"d_7"})
    assert leaves_of(fig2, "m") == frozenset(fig2.directive_ids)
    # d_3 is shared below n_1 but counts once
    assert len(leaves_of(fig2, "n_1")) == 5


def test_ancestors_descendants_fig2(fig2):
    def above(node):
        return {a for a in fig2.node_ids if node in descendants(fig2, a)}

    assert above("d_3") == {"n_5", "n_6", "n_1", "n_2", "m"}
    assert descendants(fig2, "n_1") == frozenset(
        {"n_5", "n_6", "d_1", "d_2", "d_3", "d_4", "d_5"}
    )
    assert above("m") == set()
    for n in fig2.node_ids:
        assert descendants(fig2, n) == below(fig2, n)
        assert ancestors(fig2, n) == above(n)
    with pytest.raises(UnknownNodeError):
        ancestors(fig2, "nope")


def test_distance_fig2(fig2):
    assert undirected_distance(fig2, "d_1", "d_2") == 2
    assert undirected_distance(fig2, "d_1", "d_9") == 6
    assert undirected_distance(fig2, "d_3", "d_4") == 2
    assert undirected_distance(fig2, "n_5", "n_5") == 0
    assert undirected_distance(fig2, "d_9", "d_1") == 6


def test_distance_between_components():
    split = build_graph(
        [("m", "mission"), ("a", "function"), ("b", "function"), ("x", "directive"),
         ("y", "directive")],
        [("m", "a"), ("a", "x", None, "critical"), ("b", "y", None, "critical")],
    )
    assert undirected_distance(split, "m", "x") == 2
    with pytest.raises(GraphError, match="^'x' and 'b' are not connected$"):
        undirected_distance(split, "x", "b")


def test_unknown_node_raises(fig2):
    with pytest.raises(UnknownNodeError):
        fig2.node("nope")
    for accessor in (fig2.children, fig2.parents):
        with pytest.raises(UnknownNodeError, match="^unknown node id: 'nope'$"):
            accessor("nope")
    with pytest.raises(UnknownNodeError):
        leaves_of(fig2, "nope")
    with pytest.raises(UnknownNodeError):
        undirected_distance(fig2, "d_1", "nope")
    with pytest.raises(UnknownNodeError):
        distances_from(fig2, "nope")


def test_queries_match_oracles_on_random_graphs():
    rng = random.Random(1107)
    for _ in range(25):
        g = random_fd_graph(rng, max_internal=10, max_directives=14)
        for n in g.node_ids:
            assert leaves_of(g, n) == frozenset(reachable_leaves(g, n)), n
        ids = list(g.node_ids)
        for _ in range(15):
            u, v = rng.choice(ids), rng.choice(ids)
            assert undirected_distance(g, u, v) == bfs_distance(g, u, v)
            assert undirected_distance(g, u, v) == undirected_distance(g, v, u)
            assert distances_from(g, u) == bfs_distances(g, u)
        for n in g.node_ids:
            assert distances_from(g, n) == bfs_distances(g, n), n


def _weights_reference(g):
    # one search per directive; 0 on the diagonal, None where not connected
    ids = g.directive_ids
    hops = [list(map(bfs_distances(g, d).get, ids)) for d in ids]
    scale = math.lcm(*(k for row in hops for k in row if k))
    return scale, [[k and scale // k for k in row] for row in hops]


def _check_weights(g):
    scale, index, rows = directive_weights(g)
    assert index == {d: j for j, d in enumerate(g.directive_ids)}
    assert (scale, rows) == _weights_reference(g)
    return scale, rows


def test_directive_weights_match_reference():
    rng = random.Random(1717)
    for _ in range(300):
        _check_weights(random_fd_graph(rng))

    def graph(nodes, edges):
        kinds = {"m": "mission", "d": "directive"}
        return build_graph(
            [(n, kinds.get(n[0], "function")) for n in nodes],
            [(u, v, None, Fraction(1, 2)) if v[0] == "d" else (u, v) for u, v in edges],
        )

    # d1's own entry reads 2 (out to m and back) before it is set aside, and
    # no other directive lies 2 from d1; the only distance between distinct
    # directives is 3
    lone = graph(["m", "d1", "f", "d2"], [("m", "d1"), ("m", "f"), ("f", "d2")])
    assert _check_weights(lone) == (3, [[0, 1], [1, 0]])

    # an orphan directive and a parentless function with its own directive:
    # neither reaches the first component
    apart = graph(
        ["m", "f", "g", "d1", "d2", "d3", "d4"],
        [("m", "f"), ("f", "d1"), ("f", "d2"), ("g", "d3")],
    )
    assert _check_weights(apart) == (
        2,
        [[0, 1, None, None], [1, 0, None, None], [None, None, 0, None], [None, None, None, 0]],
    )

    # d1 and d2 share both parents and so one min row; their distance 2 is
    # the only one, so it reaches the scale from the shared row, and each
    # gets a row of its own
    twins = graph(
        ["m", "f1", "f2", "g", "d1", "d2", "d3"],
        [("m", "f1"), ("m", "f2"), ("f1", "d1"), ("f1", "d2"), ("f2", "d1"), ("f2", "d2"),
         ("f1", "g"), ("g", "d3")],
    )
    assert _check_weights(twins) == (6, [[0, 3, 2], [3, 0, 2], [2, 2, 0]])
    rows = directive_weights(twins)[2]
    assert rows[0] is not rows[1]

    # d1 has a function child, which validate refuses: d1 reaches d2 through
    # that child in 2 hops, through its parent only in 4
    below_directive = graph(
        ["m", "f1", "f2", "d1", "d2", "d3"],
        [("m", "f1"), ("f1", "d1"), ("f1", "d3"), ("d1", "f2"), ("f2", "d2")],
    )
    assert not validate(below_directive).ok
    assert _check_weights(below_directive) == (4, [[0, 2, 2], [2, 0, 1], [2, 1, 0]])


def test_directive_weights_walk_once_per_neighbour_tuple(monkeypatch):
    # a fresh fig2: the shared fixture's tables may be built already
    fig2 = load_fig2()
    walks = []
    walk = graph_module._hops

    def counted(table, sources):
        walks.append(tuple(sources))
        return walk(table, sources)

    monkeypatch.setattr(graph_module, "_hops", counted)
    rng = random.Random(1818)
    for g in [fig2] + [random_fd_graph(rng) for _ in range(10)]:
        walks.clear()
        directive_weights(g)
        # the walk's table numbers the nodes in the index's order
        order = g.directive_ids + g.function_ids + g.mission_ids
        near = {g.children(d) + g.parents(d) for d in g.directive_ids}
        assert sorted(tuple(order[k] for k in w) for w in walks) == sorted(near)
        walks.clear()
        directive_weights(g)
        assert walks == []


def test_leaf_ancestor_duality():
    rng = random.Random(2214)
    for _ in range(15):
        g = random_fd_graph(rng, max_internal=8, max_directives=10)
        for n in g.function_ids:
            for d in g.directive_ids:
                assert (d in leaves_of(g, n)) == (d in below(g, n))


# -- round trip and rendering -------------------------------------------------


def test_serialize_roundtrip(fig2):
    assert parse_graph(serialize_graph(fig2)) == fig2


def test_serialize_roundtrip_random():
    rng = random.Random(355)
    for _ in range(20):
        g = random_fd_graph(rng, max_internal=10, max_directives=12)
        again = parse_graph(serialize_graph(g))
        assert again == g
        assert parse_graph(serialize_graph(again)) == again


def test_export_dot_plain(fig2):
    dot = export_dot(fig2)
    assert dot.startswith("digraph")
    assert dot.count("shape=") == 24
    assert dot.count(" -> ") == 27
    assert "style=dashed" in dot  # the refinement edge
    assert "style=dotted" in dot  # intersection edges
    assert '"0.3000"' in dot  # relevance label
    assert "filled" not in dot


def test_export_dot_annotated(fig2):
    from capslice.slicing import make_slice, slice_objective

    slc = make_slice(fig2, ["n_1", "n_7", "n_3"])
    dot = export_dot(fig2, slice_objective(fig2, slc))
    assert dot.count("fillcolor=lightblue") == 3
    assert 'xlabel="Ch=0.5250"' in dot  # n_7
    assert 'label="f = ' in dot


def test_export_dot_single_node():
    g = build_graph([("m", "mission")], [])
    dot = export_dot(g)
    assert dot.count("shape=") == 1
    assert "peripheries=2" in dot


# -- encapsulation ----------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _private_reads(source: str, fields: set[str]) -> list[str]:
    # every attribute access, read or write, whose name is a graph field
    return [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]


def test_no_private_graph_fields_outside_graph_module(fig2):
    fields = {name for name in vars(fig2) if name.startswith("_")}
    assert {"_children", "_parents", "_index", "_adjacent"} <= fields
    assert "_hops" not in fields
    assert _private_reads("x = graph._children[n]\ny = graph.children(n)", fields) == [
        "1: ._children"
    ]
    files = [p for p in sorted((ROOT / "src" / "capslice").glob("*.py")) if p.name != "graph.py"]
    files += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert len(files) > 20
    hits = [
        f"{path.relative_to(ROOT)}:{hit}"
        for path in files
        for hit in _private_reads(path.read_text(), fields)
    ]
    assert hits == []


def _private_imports(source: str) -> list[str]:
    # every _-prefixed name imported from the package, or module path into it
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "capslice":
            names = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names if a.name.split(".")[0] == "capslice"]
            names = [part for module in modules for part in module.split(".")]
        else:
            continue
        hits += [f"{node.lineno}: {name}" for name in names if name.startswith("_")]
    return hits


def test_oracles_import_nothing_private():
    # the oracles check the package from its public names only, so no
    # private helper can sit on both sides of a comparison
    assert _private_imports("from capslice.changesim import ChangeError, _apply") == ["1: _apply"]
    assert _private_imports("import capslice._x as x\nfrom capslice import graph") == ["1: _x"]
    source = (ROOT / "tests" / "oracles.py").read_text()
    assert "from capslice." in source
    assert _private_imports(source) == []
