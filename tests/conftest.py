import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from capslice.changesim import ChangeScenario, ScenarioKind
from capslice.fixtures import load_fig2
from capslice.graph import FDGraph, Node, bit_positions, build_graph, graph_index, parts, validate

# the tests that run `python -m capslice.cli` in a subprocess find the
# package where pytest's pythonpath setting finds it, installed or not
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# palette mixes the four category weights with a few plain decimals so ties
# and non-category values both show up in generated graphs
RELEVANCE_PALETTE = (
    Fraction(1),
    Fraction(7, 10),
    Fraction(7, 10),
    Fraction(3, 10),
    Fraction(1, 10),
    Fraction(1, 2),
    Fraction(9, 20),
    Fraction(4, 5),
)


@pytest.fixture(scope="session")
def fig2():
    return load_fig2()


def index_routes(graph, node_id: str) -> dict[str, list[str]]:
    """Each directive below a mission or function node, with the parents the
    node enters it through, read off the graph index's below, entry and
    routes masks in bit order, for comparison with oracles.entry_routes."""
    index = graph_index(graph)
    entry = index.entry[node_id]
    return {
        d: [index.edges[k][0] for k in bit_positions(entry & index.routes[d])]
        for d in graph.directive_ids
        if index.below[node_id] & index.bit[d]
    }


def random_fd_graph(rng: random.Random, max_internal=16, max_directives=24, extra_rate=0.3):
    """A random valid decomposition graph.

    Functions hang under the mission or an earlier function (acyclic by
    construction), every directive gets at least one function parent, and
    extra edges produce intersections and the occasional refinement.
    """
    n_fun = rng.randint(1, max_internal)
    n_dir = rng.randint(2, max_directives)
    funs = [f"f{i:02d}" for i in range(n_fun)]
    dirs = [f"d{i:02d}" for i in range(n_dir)]

    edges: set[tuple[str, str]] = set()
    for i, f in enumerate(funs):
        parent = "m" if i == 0 else rng.choice(["m"] + funs[:i])
        edges.add((parent, f))
    for d in dirs:
        edges.add((rng.choice(funs), d))
    for d in dirs:
        if rng.random() < extra_rate:
            edges.add((rng.choice(funs), d))
    for i, u in enumerate(funs[:-1]):
        if rng.random() < extra_rate / 2:
            edges.add((u, rng.choice(funs[i + 1 :])))

    children: dict[str, set[str]] = {}
    for u, v in edges:
        children.setdefault(u, set()).add(v)
    for f in funs:
        if not children.get(f):
            edges.add((f, rng.choice(dirs)))

    nodes = [("m", "mission")]
    nodes += [(f, "function") for f in funs]
    nodes += [(d, "directive") for d in dirs]
    specs = []
    for u, v in sorted(edges):
        if v in set(dirs):
            specs.append((u, v, None, rng.choice(RELEVANCE_PALETTE)))
        else:
            specs.append((u, v))
    graph = build_graph(nodes, specs)
    report = validate(graph)
    assert report.ok, f"generator bug: {report.violations}"
    return graph


# Pieces of awkward node ids: JSON escapes (quote, backslash, control
# characters), non-ASCII inside and above the BMP, characters that sort
# below the closing quote, and the "->" that joins a coupling key.
AWKWARD_PIECES = (
    '"', "\\", "\x01", "\n", "\u00e9", "\u65e5", "\uff71", "\U0001f600", "->", "+", "-", "!", " "
)


def awkward_ids(rng: random.Random, ids) -> dict[str, str]:
    """A map from each id to a distinct awkward one, drawn from AWKWARD_PIECES.

    Some new ids extend an earlier one, so one id can be a prefix of
    another (``a`` and ``a+b``) or join two others with ``->``.  No id holds
    a comma, starts with ``-`` or starts or ends with whitespace: the CLI
    splits id lists on commas and strips each part, and argparse reads a
    leading ``-`` as a flag.
    """
    out: dict[str, str] = {}
    for nid in ids:
        new = ""
        while not new or new in out.values():
            if out and rng.random() < 0.4:
                base = rng.choice(sorted(out.values()))
            else:
                base = rng.choice("ab")
            new = base + "".join(rng.choice(AWKWARD_PIECES) for _ in range(rng.randint(1, 2)))
            if new[-1].isspace():
                new += "z"
        out[nid] = new
    return out


def relabeled(g, new_id):
    """g with every node id replaced through the map new_id."""
    nodes, edges, relevance = parts(g)
    return FDGraph(
        {new_id[i]: Node(new_id[i], n.kind, n.label) for i, n in nodes.items()},
        {(new_id[u], new_id[v]): g.edge_kind(u, v) for u, v in edges},
        {(new_id[d], new_id[p]): r for (d, p), r in relevance.items()},
    )


def random_scenario(rng, g, kind=None):
    """A seeded scenario on g, of the given kind or a random one.

    Targets and payloads are drawn from g, so most scenarios apply; some
    leave the graph invalid, which is part of what they test.
    """
    dirs = list(g.directive_ids)
    funs = list(g.function_ids)
    kind = kind or rng.choice(list(ScenarioKind))
    if kind is ScenarioKind.MODIFY_DIRECTIVE:
        d = rng.choice(dirs)
        value = rng.choice(RELEVANCE_PALETTE)
        return ChangeScenario(kind, d, {"relevance": {p: value for p in g.parents(d)}})
    if kind is ScenarioKind.DELETE_DIRECTIVE:
        return ChangeScenario(kind, rng.choice(dirs), None)
    if kind is ScenarioKind.ADD_DIRECTIVE:
        return ChangeScenario(
            kind, rng.choice(funs), {"id": "zz_d", "relevance": rng.choice(RELEVANCE_PALETTE)}
        )
    if kind is ScenarioKind.DELETE_FUNCTION_SUBTREE:
        return ChangeScenario(kind, rng.choice(funs), None)
    f = rng.choice(funs)
    kids = list(g.children(f))
    return ChangeScenario(
        kind, f, {"id": "zz_f", "children": rng.sample(kids, rng.randint(1, len(kids)))}
    )


def wide_graph(k: int):
    """Mission over k independent functions, two directives each.

    The only valid slice is all k functions, which makes it a handy source
    of large slices for schedule tests.
    """
    nodes = [("m", "mission")]
    specs = []
    for i in range(k):
        f = f"f{i:02d}"
        nodes.append((f, "function"))
        specs.append(("m", f))
        for tag in ("a", "b"):
            d = f"d{i:02d}{tag}"
            nodes.append((d, "directive"))
            specs.append((f, d, None, Fraction(7, 10)))
    graph = build_graph(nodes, specs)
    assert validate(graph).ok
    return graph
