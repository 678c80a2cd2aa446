"""Hypothesis strategies that draw decomposition graphs by their structure.

conftest.random_fd_graph builds a graph from one seed, so a failing seed
reports a graph but never a smaller one.  Here every choice is its own
draw: the counts, each function's parent, each directive's first parent,
the extra edges and every relevance.  Hypothesis shrinks each of them
toward zero, so a counterexample shrinks toward few nodes and few edges.
"""

from hypothesis import strategies as st

from capslice.changesim import ChangeScenario, ScenarioKind
from capslice.graph import build_graph, validate
from conftest import RELEVANCE_PALETTE


@st.composite
def fd_graphs(draw, max_functions=10, max_directives=12, valid=True, back_from=None):
    """A valid graph: functions hang under the mission or an earlier
    function, every directive has a function parent, and extra edges go
    from a function to a later function or to a directive.

    With valid=False the graph may then lose up to three drawn edges, gain
    up to two functions without children, gain one back edge from a node to
    one of its ancestors, which closes a cycle, and lose one relevance; each
    is drawn, so validate may accept the graph or refuse it.  The back edge
    starts at a function or a directive.  With back_from="function" it is
    always drawn, from a function, a node every cohesion walk above it
    enters, and with back_from="directive" always from a directive, where
    every cohesion walk stops; the rest is drawn as before."""
    n_fun = draw(st.integers(1, max_functions))
    n_dir = draw(st.integers(2, max_directives))
    funs = [f"f{i:02d}" for i in range(n_fun)]
    dirs = [f"d{i:02d}" for i in range(n_dir)]

    edges: set[tuple[str, str]] = set()
    for i, f in enumerate(funs):
        parent = draw(st.integers(-1, i - 1))  # -1 is the mission
        edges.add(("m" if parent < 0 else funs[parent], f))
    for d in dirs:
        edges.add((funs[draw(st.integers(0, n_fun - 1))], d))
    extra = st.tuples(st.integers(0, n_fun - 1), st.integers(0, n_fun + n_dir - 1))
    for i, j in draw(st.lists(extra, max_size=n_fun + n_dir)):
        if j >= n_fun:
            edges.add((funs[i], dirs[j - n_fun]))
        elif j > i:
            edges.add((funs[i], funs[j]))
    parents = {u for u, _ in edges}
    for f in funs:
        if f not in parents:
            edges.add((f, dirs[draw(st.integers(0, n_dir - 1))]))

    bare = None  # the directive edge left without a relevance
    if not valid:
        for e in draw(st.lists(st.sampled_from(sorted(edges)), max_size=3, unique=True)):
            edges.discard(e)
        for i in range(draw(st.integers(0, 2))):
            f = f"f{n_fun + i:02d}"
            edges.add((draw(st.sampled_from(["m"] + funs)), f))
            funs.append(f)
        if back_from == "function":
            u = draw(st.sampled_from(funs))
        elif back_from == "directive":
            u = draw(st.sampled_from(dirs))
        elif draw(st.booleans()):
            u = draw(st.sampled_from(funs + dirs))
        else:
            u = None
        if u is not None:
            up, stack = set(), [u]
            while stack:
                x = stack.pop()
                for a, b in edges:
                    if b == x and a not in up:
                        up.add(a)
                        stack.append(a)
            if up:
                edges.add((u, draw(st.sampled_from(sorted(up)))))
        leaf_edges = sorted(e for e in edges if e[1] in dirs)
        if leaf_edges and draw(st.booleans()):
            bare = draw(st.sampled_from(leaf_edges))

    nodes = [("m", "mission")]
    nodes += [(f, "function") for f in funs]
    nodes += [(d, "directive") for d in dirs]
    specs = []
    for u, v in sorted(edges):
        if v in dirs and (u, v) != bare:
            specs.append((u, v, None, draw(st.sampled_from(RELEVANCE_PALETTE))))
        else:
            specs.append((u, v))
    graph = build_graph(nodes, specs)
    assert not valid or validate(graph).ok, "fd_graphs drew an invalid graph"
    return graph


@st.composite
def scenarios(draw, graph, kind: ScenarioKind):
    """A scenario of the given kind on graph, its target and payload drawn
    from graph: additions go under the mission or a function, and an
    add_function adopts a drawn non-empty subset of its target's children."""
    relevance = st.sampled_from(RELEVANCE_PALETTE)
    if kind is ScenarioKind.MODIFY_DIRECTIVE:
        d = draw(st.sampled_from(graph.directive_ids))
        value = draw(relevance)
        return ChangeScenario(kind, d, {"relevance": {p: value for p in graph.parents(d)}})
    if kind is ScenarioKind.DELETE_DIRECTIVE:
        return ChangeScenario(kind, draw(st.sampled_from(graph.directive_ids)))
    if kind is ScenarioKind.DELETE_FUNCTION_SUBTREE:
        return ChangeScenario(kind, draw(st.sampled_from(graph.function_ids)))
    target = draw(st.sampled_from(graph.mission_ids + graph.function_ids))
    if kind is ScenarioKind.ADD_DIRECTIVE:
        return ChangeScenario(kind, target, {"id": "zz_d", "relevance": draw(relevance)})
    kids = st.sampled_from(graph.children(target))
    adopted = draw(st.lists(kids, min_size=1, unique=True))
    return ChangeScenario(kind, target, {"id": "zz_f", "children": adopted})
