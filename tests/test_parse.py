"""The graph reader against its reference: parse_graph and build_graph on
seeded mutations of valid documents.

oracles.parse_reference and oracles.build_reference check entries the long
way, into tuple lists through Enum calls; the package's one checker must give
the same graph and report, or the same first error, on every input.
"""

import copy
import json
import random
import re
from collections import Counter

from capslice.fixtures import fig2_text
from capslice.graph import Node, NodeKind, build_graph, parse_graph, serialize_graph, validate
from capslice.rational import to_fraction
from conftest import random_fd_graph
from oracles import build_reference, parse_reference

# a value written into the JSON text as it stands, not as a string
_RAW = "\ue000"
_RAW_STRING = re.compile('"' + _RAW + '([^"]*)"')

ODD_LITERALS = (
    "-0.0",
    "0.0",
    "1.50",
    "1E-1",
    "5E-1",
    "0.5e1",
    "1e0",
    "1",
    "0",
    "2",
    "-1",
    "1e-400",
    "1e4300",
    "1e4301",
    "1e-4301",
    "0.00000000000000000001",
    "0.99999999999999999999",
    "1.0000000000000000000000001",
    "12345678901234567890.5",
    "0." + "0" * 4300 + "1",
    "1." + "0" * 4301,
    "1" * 4301 + ".5",
    "1" * 4000 + "." + "1" * 1000,
    "1" * 4301,
)

OTHER_VALUES = (None, 0, 7, True, False, [], ["f"], {}, {"id": "m"}, "", "x", " ", "dire")
NODE_KINDS = ("mission", "function", "directive", "Function", "DIRECTIVE", "refinement", "node")
EDGE_KINDS = ("decomposition", "refinement", "intersection", "Refinement", "INTERSECTION", "mission")
CATEGORIES = ("catastrophic", "critical", "Marginal", "NEGLIGIBLE", "critical ")
NON_ENTRIES = ("x", 3, [], ["m", "f"], None, 0.5)
MEMBERS = {k.value: k for k in NodeKind}
# a phrase of each error the reader gives
PHRASES = (
    "invalid JSON",
    "top level",
    "section",
    "must carry id and kind",
    "must carry from and to",
    "unknown node kind",
    "id must be",
    "duplicate node id",
    "label must be",
    "references unknown node",
    "self loop",
    "duplicate edge",
    "unknown edge kind",
    "non-directive",
    "unknown impact category",
    "bad relevance value",
    "outside (0, 1]",
)


def _dump(doc) -> str:
    text = json.dumps(doc, ensure_ascii=False)
    return _RAW_STRING.sub(lambda m: m.group(1), text)


def _raw(literal: str) -> str:
    return _RAW + literal


def _recase(rng, text: str) -> str:
    how = rng.randrange(4)
    if how == 0:
        return text.upper()
    if how == 1:
        return text.title()
    if how == 2:
        return text.swapcase()
    return "".join(c.upper() if rng.random() < 0.5 else c for c in text)


def _ids(doc) -> list:
    return [item.get("id") for item in doc["nodes"] if isinstance(item, dict)]


def _mutate(rng: random.Random, doc: dict) -> None:
    nodes, edges = doc["nodes"], doc["edges"]
    section, keys = rng.choice(
        [(nodes, ("id", "kind", "label")), (edges, ("from", "to", "kind", "relevance"))]
    )
    entries = [item for item in section if isinstance(item, dict)]
    op = rng.randrange(9)
    if op == 0 and entries:  # drop a key
        item = rng.choice(entries)
        if item:
            del item[rng.choice(sorted(item))]
    elif op == 1 and entries:  # retype a key
        item = rng.choice(entries)
        item[rng.choice(keys)] = rng.choice(OTHER_VALUES + (rng.choice(_ids(doc) or ["m"]),))
    elif op == 2 and entries:  # change the case of a kind or a category
        item = rng.choice(entries)
        if section is edges and rng.random() < 0.4:
            item["relevance"] = _recase(rng, rng.choice(CATEGORIES))
        elif isinstance(item.get("kind"), str):
            item["kind"] = _recase(rng, item["kind"])
    elif op == 3:  # insert an entry
        if rng.random() < 0.25:
            entry = rng.choice(NON_ENTRIES)
        elif section is nodes:
            entry = {"id": rng.choice(_ids(doc) + ["new", "x"]), "kind": rng.choice(NODE_KINDS)}
            if rng.random() < 0.3:
                entry["label"] = rng.choice(["a label", 5])
        else:
            ids = _ids(doc) + ["nowhere"]
            entry = {"from": rng.choice(ids), "to": rng.choice(ids)}
            if rng.random() < 0.5:
                entry["kind"] = rng.choice(EDGE_KINDS)
            if rng.random() < 0.5:
                entry["relevance"] = rng.choice(CATEGORIES + (_raw(rng.choice(ODD_LITERALS)),))
        section.insert(rng.randint(0, len(section)), copy.deepcopy(entry))
    elif op == 4 and edges:  # an odd literal as a relevance
        item = rng.choice([e for e in edges if isinstance(e, dict)] or [{}])
        item["relevance"] = _raw(rng.choice(ODD_LITERALS))
    elif op == 5 and entries:  # duplicate an entry, somewhere
        twin = copy.deepcopy(rng.choice(entries))
        if rng.random() < 0.3 and "kind" in twin:
            twin["kind"] = rng.choice(EDGE_KINDS if section is edges else NODE_KINDS)
        section.insert(rng.randint(0, len(section)), twin)
    elif op == 6 and len(section) > 1:  # move an entry
        section.insert(rng.randrange(len(section)), section.pop(rng.randrange(len(section))))
    elif op == 7 and entries:  # an unknown key, which is ignored
        rng.choice(entries)["weight"] = 1
    elif op == 8 and entries:  # a label or an edge kind set to a plain value
        item = rng.choice(entries)
        item["label" if section is nodes else "kind"] = rng.choice(["", "b", None, 3])


def _top_level(rng: random.Random, doc: dict, text: str) -> str:
    # a malformed document around otherwise valid entries
    how = rng.randrange(5)
    if how == 0:
        del doc[rng.choice(["nodes", "edges"])]
    elif how == 1:
        doc[rng.choice(["nodes", "edges"])] = rng.choice([{}, "x", None, 3])
    elif how == 2:
        return _dump([doc])
    elif how == 3:
        return text[: rng.randrange(len(text))]
    else:
        return text.replace("}", "}}", 1)
    return _dump(doc)


def _outcome(fn, *args):
    try:
        g = fn(*args)
    except Exception as exc:
        return ("error", type(exc), str(exc))
    return ("ok", g, validate(g))


def _as_specs(rng: random.Random, doc: dict):
    # build_graph's forms of a document whose entries all have their shape:
    # tuples trimmed of trailing defaults now and then, and a Node for a
    # node whose kind names a member
    if not all(isinstance(doc.get(key), list) for key in ("nodes", "edges")):
        return None
    nodes, edges = [], []
    for item in doc["nodes"]:
        if not isinstance(item, dict) or "id" not in item or "kind" not in item:
            return None
        kind = item["kind"]
        member = MEMBERS.get(kind) if isinstance(kind, str) else None
        if member is not None and rng.random() < 0.3:
            nodes.append(Node(item["id"], member, item.get("label", "")))
        elif "label" in item or rng.random() < 0.5:
            nodes.append((item["id"], kind, item.get("label", "")))
        else:
            nodes.append([item["id"], kind])
    for item in doc["edges"]:
        if not isinstance(item, dict) or "from" not in item or "to" not in item:
            return None
        spec = (item["from"], item["to"], item.get("kind"), item.get("relevance"))
        while len(spec) > 2 and spec[-1] is None and rng.random() < 0.5:
            spec = spec[:-1]
        edges.append(spec)
    return nodes, edges


def test_parse_matches_the_reference_on_mutated_documents():
    rng = random.Random(3030)
    fig2_doc = json.loads(fig2_text())
    tally = Counter()
    for case in range(2400):
        if case % 4 == 0:
            doc = copy.deepcopy(fig2_doc)
        else:
            g = random_fd_graph(rng, max_internal=rng.randint(1, 6), max_directives=8)
            doc = json.loads(serialize_graph(g))
            for item in doc["edges"]:
                if rng.random() < 0.3:
                    del item["kind"]
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, doc)
        text = _dump(doc)
        if rng.random() < 0.05:
            text = _top_level(rng, doc, text)
        ours = _outcome(parse_graph, text)
        assert ours == _outcome(parse_reference, text), text[:400]
        if ours[0] == "ok":
            tally["ok"] += 1
        else:
            tally.update(phrase for phrase in PHRASES if phrase in ours[2])

        # the same entries in build_graph's forms, with literals already read
        try:
            read = json.loads(text, parse_float=to_fraction)
        except ValueError:
            continue
        specs = _as_specs(rng, read) if isinstance(read, dict) else None
        if specs is not None:
            ours = _outcome(build_graph, *specs)
            assert ours == _outcome(build_reference, *specs), text[:400]
            tally["built"] += 1
    # every outcome is reached often: a graph, and each error of the reader
    assert tally["ok"] >= 300 and tally["built"] >= 1500, tally
    assert all(tally[phrase] >= 10 for phrase in PHRASES), tally


def test_parse_matches_the_reference_on_pinned_orderings():
    # both shapes wrong, and a node check against a later edge check: every
    # node's shape, then every edge's, then nodes, then edges
    cases = [
        ({"nodes": [{"id": "m"}], "edges": [{"to": "m"}]}, "node entry 0 must carry"),
        ({"nodes": [{"id": "m", "kind": "x"}], "edges": [{"to": "m"}]}, "edge entry 0 must carry"),
        (
            {"nodes": [{"id": "m", "kind": "x"}], "edges": [{"from": "m", "to": "m"}]},
            "node entry 0: unknown node kind 'x'",
        ),
        (
            {"nodes": [{"id": "m", "kind": "MISSION"}], "edges": [{"from": "m", "to": "m"}]},
            "edge entry 0: self loop on 'm'",
        ),
    ]
    for doc, message in cases:
        text = json.dumps(doc)
        ours = _outcome(parse_graph, text)
        assert ours == _outcome(parse_reference, text)
        assert ours[2].startswith(message)

