import random
from fractions import Fraction

import pytest

from capslice.changesim import ChangeScenario, ScenarioKind
from capslice.fixtures import load_fig2
from capslice.graph import build_graph, validate

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
