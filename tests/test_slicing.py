import random
from fractions import Fraction

import pytest

from capslice import slicing
from capslice.graph import (
    FDGraph,
    GraphError,
    Node,
    NodeKind,
    UnknownNodeError,
    ancestors,
    build_graph,
    descendants,
    entry_parents,
    parts,
    validate,
)
from capslice.metrics import cohesion, coupling_matrix, resolve_membership
from capslice.optimizer import schedule_slice
from capslice.rational import exact_sum
from capslice.slicing import (
    EnumerationCapError,
    InvalidSliceError,
    Slice,
    SliceMetrics,
    SliceSearch,
    enumerate_slices,
    is_valid_slice,
    make_slice,
    rank_slices,
    score_slices,
    slice_objective,
)
from conftest import random_fd_graph
from oracles import (
    below,
    bfs_distance,
    cohesion_recursive,
    double_sum_coupling,
    entry_routes,
    valid_slices_bruteforce,
)

FIG2_SLICES = [
    ("n_1", "n_3", "n_7"),
    ("n_2", "n_3", "n_5"),
    ("n_3", "n_5", "n_6", "n_7"),
]


def chain_graph():
    return build_graph(
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


def power_family(k):
    """k independent branches, each offering two interchangeable members."""
    nodes = [("m", "mission")]
    edges = []
    for i in range(k):
        nodes += [
            (f"a{i:02d}", "function"),
            (f"b{i:02d}", "function"),
            (f"d{i:02d}x", "directive"),
            (f"d{i:02d}y", "directive"),
        ]
        edges += [
            ("m", f"a{i:02d}"),
            (f"a{i:02d}", f"b{i:02d}"),
            (f"b{i:02d}", f"d{i:02d}x", None, Fraction(7, 10)),
            (f"b{i:02d}", f"d{i:02d}y", None, Fraction(7, 10)),
        ]
    return build_graph(nodes, edges)



def with_childless(rng, g, k):
    """g plus k function nodes without children, each hung under the mission
    or a function of g and named to sort right after an existing function,
    so they interleave with the others in id order.  validate refuses it."""
    relevance = parts(g)[2]
    nodes = [g.node(i) for i in g.node_ids]
    edges = [(u, v, None, relevance.get((v, u))) for u, v, _ in g.edges()]
    for j in range(k):
        nid = f"{rng.choice(g.function_ids)}z{j}"
        nodes.append(Node(nid, NodeKind.FUNCTION))
        edges.append((rng.choice(("m",) + g.function_ids), nid))
    return build_graph(nodes, edges)


def long_chain_graph(rng):
    """Two to four function chains of 4-9 links under the mission, with
    directives at the chain ends and now and then part way down, so
    directives on different chains sit 12 or more hops apart."""
    palette = (Fraction(1), Fraction(7, 10), Fraction(3, 10), Fraction(9, 20))
    nodes = [("m", "mission")]
    edges = []
    for c in range(rng.randint(2, 4)):
        up = "m"
        depth = rng.randint(4, 9)
        for k in range(depth):
            f = f"c{c}f{k}"
            nodes.append((f, "function"))
            edges.append((up, f))
            up = f
            if k == depth - 1 or rng.random() < 0.15:
                for j in range(1 if k < depth - 1 else rng.randint(1, 3)):
                    d = f"c{c}d{k}{j}"
                    nodes.append((d, "directive"))
                    edges.append((f, d, None, rng.choice(palette)))
    return build_graph(nodes, edges)


# -- validity ----------------------------------------------------------------


@pytest.mark.parametrize("members", FIG2_SLICES)
def test_canonical_slices_are_valid(fig2, members):
    check = is_valid_slice(fig2, members)
    assert check.ok
    assert check.violations == ()
    assert set(check.membership) == set(fig2.directive_ids)
    assert set(check.membership.values()) == set(members)


def test_mission_cannot_be_member(fig2):
    check = is_valid_slice(fig2, ["m"])
    assert [v.code for v in check.violations] == ["MISSION_MEMBER"]
    assert check.membership is None


def test_directive_cannot_be_member(fig2):
    check = is_valid_slice(fig2, ["d_1", "n_2", "n_3", "n_5"])
    assert "DIRECTIVE_MEMBER" in {v.code for v in check.violations}


def test_ancestor_pair(fig2):
    check = is_valid_slice(fig2, ["n_1", "n_5", "n_6"])
    codes = sorted(v.code for v in check.violations)
    assert codes == ["ANCESTOR_PAIR", "ANCESTOR_PAIR", "UNCOVERED"]
    subjects = {v.subject for v in check.violations if v.code == "ANCESTOR_PAIR"}
    assert subjects == {"n_1,n_5", "n_1,n_6"}


def _ancestor_pairs(check):
    return [v.subject for v in check.violations if v.code == "ANCESTOR_PAIR"]


def test_ancestor_pair_on_unvalidated_graphs():
    # graphs validate refuses: b and c have no directive below them, and the
    # directive e has a child, so a directive member can lie above another
    g = build_graph(
        [("m", "mission"), ("a", "function"), ("b", "function"), ("c", "function"),
         ("d", "directive"), ("e", "directive"), ("f", "function"), ("x", "directive")],
        [("m", "a"), ("a", "b"), ("b", "c"), ("a", "d", None, 1), ("m", "e"), ("e", "f"),
         ("f", "x", None, 1)],
    )
    assert not validate(g).ok
    assert _ancestor_pairs(is_valid_slice(g, ["a", "b", "c"])) == ["a,b", "a,c", "b,c"]
    assert _ancestor_pairs(is_valid_slice(g, ["e", "f", "a"])) == ["e,f"]
    assert _ancestor_pairs(is_valid_slice(g, ["b", "d", "f"])) == []


def test_ancestor_pairs_match_a_plain_walk():
    # every pair of members checked by walking both, on valid graphs and on
    # graphs given random extra edges (cycles, directives with children)
    rng = random.Random(1818)
    found = 0
    for _ in range(60):
        g = random_fd_graph(rng, max_internal=8, max_directives=10)
        nodes, edges, relevance = parts(g)
        ids = list(g.node_ids)
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(ids, 2)
            edges.add((u, v))
            if v in g.directive_ids:
                relevance[(v, u)] = Fraction(1, 2)
        g = FDGraph(nodes, dict.fromkeys(edges), relevance)
        for n in ids:  # a node on a cycle lies above itself
            assert ancestors(g, n) == {a for a in ids if n in below(g, a)}, n
        for _ in range(10):
            members = sorted(rng.sample(ids, rng.randint(2, 5)))
            expected = [
                f"{a},{b}"
                for i, a in enumerate(members)
                for b in members[i + 1 :]
                if b in below(g, a) or a in below(g, b)
            ]
            assert _ancestor_pairs(is_valid_slice(g, members)) == expected, members
            found += len(expected)
    assert found >= 300


def test_index_masks_match_plain_walks_on_cyclic_graphs():
    # the index condenses cycles in its one search; every node's reach and
    # entry routes must equal a plain walk's, wherever the cycles fall
    rng = random.Random(3333)
    cyclic = 0
    for _ in range(300):
        g = random_fd_graph(rng, max_internal=8, max_directives=10)
        nodes, edges, relevance = parts(g)
        ids = list(g.node_ids)
        for _ in range(rng.randint(1, 6)):
            u, v = rng.sample(ids, 2)
            if (u, v) not in edges:
                edges.add((u, v))
                if v in g.directive_ids:
                    relevance[(v, u)] = Fraction(1, 2)
        g = FDGraph(nodes, dict.fromkeys(edges), relevance)
        down = {n: below(g, n) for n in ids}
        cyclic += any(n in down[n] for n in ids)
        for n in ids:
            assert descendants(g, n) == down[n], n
            assert ancestors(g, n) == {a for a in ids if n in down[a]}, n
            routes = entry_parents(g, n)
            assert list(routes) == sorted(routes), n
            assert all(list(ps) == sorted(ps) for ps in routes.values()), n
            assert {d: set(ps) for d, ps in routes.items()} == entry_routes(g, n), n
    assert 120 <= cyclic <= 220, cyclic


def test_uncovered(fig2):
    check = is_valid_slice(fig2, ["n_5", "n_7"])
    assert [v.code for v in check.violations] == ["UNCOVERED"]
    assert "d_10" in check.violations[0].subject


def test_unresolvable_sharing(fig2):
    # n_1 and n_2 both reach d_3, d_4, d_5 through the shared parent n_6
    check = is_valid_slice(fig2, ["n_1", "n_2", "n_3"])
    assert [v.code for v in check.violations] == ["UNRESOLVABLE"] * 3
    assert [v.subject for v in check.violations] == ["d_3", "d_4", "d_5"]


def test_empty_capability(fig2):
    # n_9 loses both its directives to n_3 on relevance ties
    check = is_valid_slice(fig2, ["n_1", "n_3", "n_7", "n_9"])
    assert [(v.code, v.subject) for v in check.violations] == [
        ("EMPTY_CAPABILITY", "n_9")
    ]


def test_candidate_input_errors(fig2):
    with pytest.raises(ValueError):
        is_valid_slice(fig2, [])
    with pytest.raises(UnknownNodeError):
        is_valid_slice(fig2, ["n_1", "ghost"])


def test_make_slice(fig2):
    slc = make_slice(fig2, ["n_7", "n_3", "n_1"])
    assert slc.members == ("n_1", "n_3", "n_7")
    assert slc.owned("n_7") == ("d_6", "d_7", "d_8", "d_9")
    # members are read once, so an iterator gives the same slice
    once = make_slice(fig2, (m for m in ["n_1", "n_3", "n_7"]))
    assert once.members == slc.members
    assert dict(once.membership) == dict(slc.membership)
    assert len(once.membership) == 14
    with pytest.raises(InvalidSliceError) as err:
        make_slice(fig2, ["n_1", "n_5"])
    assert {v.code for v in err.value.violations} == {"ANCESTOR_PAIR", "UNCOVERED"}


# -- enumeration ---------------------------------------------------------------


def test_enumerate_fig2(fig2):
    enum = enumerate_slices(fig2)
    assert [s.members for s in enum.slices] == FIG2_SLICES
    assert enum.complete
    by_members = {s.members: s for s in enum.slices}
    assert by_members[("n_2", "n_3", "n_5")].membership["d_3"] == "n_5"
    assert by_members[("n_3", "n_5", "n_6", "n_7")].membership["d_3"] == "n_5"


def test_enumerate_matches_bruteforce_fig2(fig2):
    assert [s.members for s in enumerate_slices(fig2).slices] == valid_slices_bruteforce(fig2)


def test_enumerate_chain():
    enum = enumerate_slices(chain_graph())
    assert [s.members for s in enum.slices] == [("a",), ("b",)]
    assert enum.complete


def test_enumerate_power_family_count():
    assert len(enumerate_slices(power_family(6)).slices) == 64


def test_enumerate_matches_bruteforce_random():
    for seed, max_internal in ((88011, 9), (51473, 11)):
        rng = random.Random(seed)
        for _ in range(30):
            g = random_fd_graph(rng, max_internal=max_internal, max_directives=12)
            enum = enumerate_slices(g)
            assert enum.complete
            assert [s.members for s in enum.slices] == valid_slices_bruteforce(g)



def test_enumerate_matches_bruteforce_childless():
    # graphs validate refuses: a function without children owns nothing, so
    # the empty-member rule cuts it, and with it every member set where it
    # sits below another member, without an ancestor rule in the search
    rng = random.Random(2718)
    for _ in range(300):
        base = random_fd_graph(rng, max_internal=8, max_directives=10)
        g = with_childless(rng, base, rng.randint(1, 2))
        assert not validate(g).ok
        enum = enumerate_slices(g)
        assert enum.complete
        assert [s.members for s in enum.slices] == valid_slices_bruteforce(g)


def test_owner_order_ties_go_to_smaller_id():
    # a and b reach x through their own parents with equal relevance
    g = build_graph(
        [("m", "mission"), ("a", "function"), ("b", "function"), ("p", "function"),
         ("x", "directive"), ("y", "directive"), ("z", "directive")],
        [("m", "b"), ("m", "p"), ("p", "a"), ("a", "x", None, "critical"),
         ("a", "y", None, "marginal"), ("b", "x", None, "critical"),
         ("b", "z", None, "catastrophic")],
    )
    by_members = {s.members: s for s in enumerate_slices(g).slices}
    slc = by_members[("a", "b")]
    assert slc.membership == {"x": "a", "y": "a", "z": "b"}
    assert slc.membership == resolve_membership(g, slc.members)


def test_owner_order_ranks_by_best_entry_parent():
    # k enters x through p1 (0.3) and p2 (1), b through itself (0.7): k's
    # best entry parent wins x although its first one would lose, and
    # although b has the smaller id
    g = build_graph(
        [("m", "mission"), ("b", "function"), ("k", "function"), ("p1", "function"),
         ("p2", "function"), ("x", "directive"), ("y", "directive"), ("z", "directive")],
        [("m", "b"), ("m", "k"), ("k", "p1"), ("k", "p2"),
         ("p1", "x", None, "marginal"), ("p1", "y", None, "catastrophic"),
         ("p2", "x", None, "catastrophic"), ("b", "x", None, "critical"),
         ("b", "z", None, "catastrophic")],
    )
    slices = enumerate_slices(g).slices
    assert [s.members for s in slices] == valid_slices_bruteforce(g)
    by_members = {s.members: s for s in slices}
    assert by_members[("b", "k")].membership == {"x": "k", "y": "k", "z": "b"}
    assert by_members[("b", "p1", "p2")].membership == {"x": "p2", "y": "p1", "z": "b"}
    for slc in slices:
        assert slc.membership == resolve_membership(g, slc.members)


def _no_relevance(directive, parent):
    return f"^no relevance recorded for directive '{directive}' under '{parent}'$"


def test_search_names_the_first_route_without_a_relevance():
    # a is the first function, and its route to y lacks a relevance; b's
    # route to x lacks one too, and x comes before y
    g = build_graph(
        [("m", "mission"), ("a", "function"), ("b", "function"),
         ("x", "directive"), ("y", "directive"), ("z", "directive")],
        [("m", "a"), ("m", "b"), ("a", "y"), ("a", "z", None, "critical"),
         ("b", "x"), ("b", "z", None, "marginal")],
    )
    with pytest.raises(GraphError, match=_no_relevance("y", "a")):
        list(SliceSearch(g))


def test_membership_reads_a_relevance_only_under_a_shared_directive():
    # x is shared by a (through q) and b (through p); neither route has a
    # relevance, and the first member's, q, is named although p < q
    g = build_graph(
        [("m", "mission"), ("a", "function"), ("b", "function"), ("p", "function"),
         ("q", "function"), ("x", "directive"), ("y", "directive"), ("z", "directive")],
        [("m", "a"), ("m", "b"), ("a", "q"), ("b", "p"), ("q", "x"), ("p", "x"),
         ("q", "y", None, "critical"), ("p", "z", None, "critical")],
    )
    for check in (is_valid_slice, resolve_membership):
        with pytest.raises(GraphError, match=_no_relevance("x", "q")):
            check(g, ["a", "b"])
    # with one route missing, the member whose route has a relevance still
    # does not win by default
    nodes, edges, relevance = parts(g)
    relevance[("x", "p")] = Fraction(1, 10)
    g = FDGraph(nodes, dict.fromkeys(edges), relevance)
    with pytest.raises(GraphError, match=_no_relevance("x", "q")):
        is_valid_slice(g, ["a", "b"])
    # a directive with a single owner needs no relevance: x goes to a alone
    g = build_graph(
        [("m", "mission"), ("a", "function"), ("b", "function"),
         ("x", "directive"), ("y", "directive"), ("z", "directive")],
        [("m", "a"), ("m", "b"), ("a", "x"), ("a", "y", None, "critical"),
         ("b", "z", None, "critical")],
    )
    check = is_valid_slice(g, ["a", "b"])
    assert check.ok and check.membership == {"x": "a", "y": "a", "z": "b"}
    assert resolve_membership(g, ["b", "a"]) == check.membership
    with pytest.raises(GraphError, match=_no_relevance("x", "a")):
        list(SliceSearch(g))


def baseline_graph():
    """The densest of 400 random_fd_graph(random.Random(7), max_internal=22,
    max_directives=40) draws: 22 functions and 8 directives."""
    rng = random.Random(7)
    for _ in range(47):
        g = random_fd_graph(rng, max_internal=22, max_directives=40)
    return g


def test_baseline_graph(monkeypatch):
    g = baseline_graph()
    assert (g.n_nodes, len(g.function_ids), len(g.directive_ids)) == (31, 22, 8)
    finish = SliceSearch._finish
    covers = []

    def counted(self, chosen):
        covers.append(finish(self, chosen))
        return covers[-1]

    monkeypatch.setattr(SliceSearch, "_finish", counted)
    enum = enumerate_slices(g)
    assert enum.complete
    assert len(enum.slices) == 474
    # every cover that reaches _finish becomes a slice; none is dropped
    assert list(enum.slices) == covers
    assert all(isinstance(slc, Slice) for slc in covers)
    for slc in enum.slices:
        check = is_valid_slice(g, slc.members)
        assert check.ok
        assert dict(check.membership) == dict(slc.membership)


def _frame_identity(stats) -> bool:
    # each frame pushed is popped once, the root too, and every other step
    # is a cut by one rule
    cuts = stats.sharing + stats.empty_member + stats.empty_rival
    return stats.frames == 2 * stats.popped - 1 + cuts


def test_search_stats_on_the_baseline_graph():
    search = SliceSearch(baseline_graph())
    assert search.stats is None
    assert len(list(search)) == 474
    assert search.stats == slicing.SearchStats(
        frames=4651,
        popped=1268,
        sharing=1534,
        empty_member=404,
        empty_rival=178,
        emitted=474,
        truncated_by=None,
    )
    assert _frame_identity(search.stats)


def test_search_stats_frame_identity_random():
    rng = random.Random(4411)
    for _ in range(30):
        g = random_fd_graph(rng, max_internal=12, max_directives=16)
        search = SliceSearch(g)
        slices = list(search)
        assert search.stats.emitted == len(slices)
        assert search.stats.truncated_by is None
        assert _frame_identity(search.stats)


def test_search_stats_name_the_truncation(fig2):
    search = SliceSearch(fig2, max_slices=2)
    assert len(list(search)) == 2
    assert (search.stats.emitted, search.stats.truncated_by) == (2, "max_slices")
    search = SliceSearch(power_family(10), time_budget=1e-9)
    slices = list(search)
    assert (search.stats.emitted, search.stats.truncated_by) == (len(slices), "time_budget")
    assert search.complete is False
    # a cap that is never reached truncates nothing
    search = SliceSearch(fig2, max_slices=10)
    list(search)
    assert (search.stats.emitted, search.stats.truncated_by) == (3, None)


def test_enumerated_slices_self_consistent():
    rng = random.Random(6402)
    for _ in range(20):
        g = random_fd_graph(rng, max_internal=10, max_directives=12)
        for slc in enumerate_slices(g).slices:
            check = is_valid_slice(g, slc.members)
            assert check.ok
            assert dict(check.membership) == dict(slc.membership)
            assert set(slc.membership.values()) == set(slc.members)
            assert set(slc.membership) == set(g.directive_ids)


def test_truncation_by_count(fig2):
    enum = enumerate_slices(fig2, max_slices=1)
    assert [s.members for s in enum.slices] == FIG2_SLICES[:1]
    assert not enum.complete

    enum = enumerate_slices(fig2, max_slices=2)
    assert [s.members for s in enum.slices] == FIG2_SLICES[:2]
    assert not enum.complete

    # a cap that is never reached leaves the search complete
    enum = enumerate_slices(fig2, max_slices=10)
    assert [s.members for s in enum.slices] == FIG2_SLICES
    assert enum.complete


def test_truncation_is_a_prefix_random():
    # every cap k gives the first k slices of the full run, and the search is
    # complete only when the cap was never reached
    rng = random.Random(3307)
    for _ in range(20):
        g = random_fd_graph(rng, max_internal=18, max_directives=24)
        full = enumerate_slices(g).slices
        for k in range(1, len(full) + 2):
            enum = enumerate_slices(g, max_slices=k)
            assert enum.slices == full[:k]
            assert [dict(s.membership) for s in enum.slices] == [
                dict(s.membership) for s in full[:k]
            ]
            assert enum.complete == (k > len(full))


def test_truncation_by_time():
    g = power_family(10)
    enum = enumerate_slices(g, time_budget=1e-9)
    assert not enum.complete
    assert len(enum.slices) < 1024


def test_node_cap(fig2, monkeypatch):
    monkeypatch.setattr(slicing, "NODE_CAP", 5)
    with pytest.raises(EnumerationCapError, match="^graph has 24 nodes, enumeration cap is 5$"):
        list(SliceSearch(fig2))
    with pytest.raises(EnumerationCapError):
        enumerate_slices(fig2)
    monkeypatch.setattr(slicing, "NODE_CAP", 24)  # a graph of exactly the cap is enumerated
    assert len(enumerate_slices(fig2).slices) == 3


def test_search_argument_validation(fig2):
    with pytest.raises(ValueError):
        SliceSearch(fig2, max_slices=0)
    with pytest.raises(ValueError):
        SliceSearch(fig2, time_budget=0.0)
    with pytest.raises(ValueError):
        SliceSearch(fig2, time_budget=float("nan"))


# -- objective ----------------------------------------------------------------


def test_objective_singleton():
    g = chain_graph()
    slc = make_slice(g, ["a"])
    m = slice_objective(g, slc)
    assert m.aggregate == m.mean_cohesion == cohesion(g, "a")
    assert m.coupling == {}
    assert m.mean_coupling == 0


def test_objective_fig2_exact(fig2):
    enum = enumerate_slices(fig2)
    got = {s.members: slice_objective(fig2, s) for s in enum.slices}

    m1 = got[("n_1", "n_3", "n_7")]
    assert m1.mean_cohesion == Fraction(43, 72)
    assert m1.mean_coupling == Fraction(1469, 36000)
    assert m1.aggregate == Fraction(6677, 12000)
    assert m1.coupling[("n_1", "n_7")] == Fraction(13, 240)
    assert m1.coupling[("n_7", "n_1")] == Fraction(13, 300)

    m2 = got[("n_2", "n_3", "n_5")]
    assert m2.mean_cohesion == Fraction(38, 63)
    assert m2.aggregate == Fraction(315883, 567000)

    m3 = got[("n_3", "n_5", "n_6", "n_7")]
    assert m3.mean_cohesion == Fraction(283, 480)
    assert m3.aggregate == Fraction(83761, 162000)


def test_objective_coupling_matches_oracle(fig2):
    for slc in enumerate_slices(fig2).slices:
        m = slice_objective(fig2, slc)
        total = Fraction(0)
        for p in slc.members:
            for q in slc.members:
                if p != q:
                    pair = double_sum_coupling(fig2, slc.owned(p), slc.owned(q))
                    assert m.coupling[(p, q)] == pair
                    total += pair
        assert m.mean_coupling == total / (len(slc.members) * (len(slc.members) - 1))


def scoring_graphs():
    """(builder, seed) of the 30 random and 12 long-chain graphs the scoring
    kernel is checked on."""
    rng = random.Random(3141)

    def random_graph(r):
        return random_fd_graph(r, max_internal=16, max_directives=20)

    for build in [random_graph] * 30 + [long_chain_graph] * 12:
        yield build, rng.randrange(2**32)


def test_scoring_kernel_matches_oracle():
    # exact coupling and cohesion against the brute-force oracles on random
    # graphs; the per-graph cohesion memo must not make a score depend on
    # which slices were scored before it
    checked = 0
    far = 0
    for build, seed in scoring_graphs():
        g = build(random.Random(seed))
        twin = build(random.Random(seed))
        slices = enumerate_slices(g, max_slices=60).slices
        first = [slice_objective(g, s) for s in slices]
        assert [slice_objective(g, s) for s in slices] == first
        assert [slice_objective(twin, s) for s in reversed(slices)][::-1] == first
        for slc, m in zip(slices, first):
            members = slc.members
            expected = {
                (p, q): double_sum_coupling(g, slc.owned(p), slc.owned(q))
                for p in members
                for q in members
                if p != q
            }
            matrix = coupling_matrix(g, members, slc.membership)
            assert matrix == expected and list(matrix) == list(expected)
            assert m.coupling == expected
            if build is long_chain_graph and len(members) > 1:
                # pairs 12+ hops apart put large distances into the scale
                a, b = slc.owned(members[0])[0], slc.owned(members[1])[0]
                far += bfs_distance(g, a, b) >= 12
            per_node = {p: cohesion_recursive(g, p) for p in members}
            assert m.per_node_cohesion == per_node
            mean_ch = sum(per_node.values(), Fraction(0)) / len(members)
            n_pairs = len(members) * (len(members) - 1)
            mean_cp = sum(expected.values(), Fraction(0)) / n_pairs if n_pairs else 0
            assert m.mean_cohesion == mean_ch
            assert m.mean_coupling == mean_cp
            assert m.aggregate == mean_ch - mean_cp
            checked += len(members) > 1
    assert checked >= 150
    assert far >= 200


def test_coupling_integer_form(fig2):
    # every pair's integer units over the slice's one scale: the machine
    # float, the mean and the build order read them, never the Fractions
    graphs = [fig2] + [build(random.Random(seed)) for build, seed in scoring_graphs()]
    checked = 0
    for g in graphs:
        for slc in enumerate_slices(g, max_slices=60).slices:
            m = slice_objective(g, slc)
            coupling = m.coupling
            members = slc.members
            if len(members) == 1:
                lone = coupling_matrix(g, members, slc.membership)
                assert lone == {} and not lone and not coupling
                continue
            pairs = {
                (p, q): double_sum_coupling(g, slc.owned(p), slc.owned(q))
                for p in members
                for q in members
                if p != q
            }
            assert list(coupling.units) == list(pairs)
            for pq, value in pairs.items():
                assert coupling.units[pq] / coupling.scale == float(value)
            assert m.mean_coupling == exact_sum(pairs.values()) / len(pairs)
            packed = schedule_slice(g, slc, coupling=coupling)
            plain = schedule_slice(g, slc, coupling=dict(coupling))
            assert (packed.order, packed.order_cost, packed.method) == (
                plain.order,
                plain.order_cost,
                plain.method,
            )
            checked += 1
    assert checked >= 150


def test_objective_lambda(fig2):
    slc = make_slice(fig2, FIG2_SLICES[0])
    base = slice_objective(fig2, slc)
    assert slice_objective(fig2, slc, Fraction(0)).aggregate == base.mean_cohesion
    assert slice_objective(fig2, slc, 2).aggregate == base.aggregate - base.mean_coupling
    assert (
        slice_objective(fig2, slc, "0.5").aggregate
        == base.mean_cohesion - base.mean_coupling / 2
    )


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(3, 7), Fraction(-2)])
def test_objective_matches_fraction_formulas(fig2, lam):
    # one Fraction per mean against the plain Fraction arithmetic
    graphs = [fig2] + [build(random.Random(seed)) for build, seed in scoring_graphs()]
    checked = 0
    for g in graphs:
        for slc in enumerate_slices(g, max_slices=40).slices:
            m = slice_objective(g, slc, lam)
            members = slc.members
            mean_ch = sum((cohesion(g, p) for p in members), Fraction(0)) / len(members)
            pairs = [m.coupling[(p, q)] for p in members for q in members if p != q]
            mean_cp = sum(pairs, Fraction(0)) / len(pairs) if pairs else Fraction(0)
            assert (m.mean_cohesion, m.mean_coupling) == (mean_ch, mean_cp)
            assert m.aggregate == mean_ch - lam * mean_cp
            checked += len(members) > 1
    assert checked >= 100


# -- ranking ------------------------------------------------------------------


def test_rank_fig2(fig2):
    slices = list(enumerate_slices(fig2).slices)
    ranking = rank_slices(slices, score_slices(fig2, slices))
    assert [e.slice.members for e in ranking.entries] == [
        ("n_2", "n_3", "n_5"),
        ("n_1", "n_3", "n_7"),
        ("n_3", "n_5", "n_6", "n_7"),
    ]
    assert ranking.mean_aggregate == Fraction(1232713, 2268000)
    assert [e.initial for e in ranking.entries] == [True, True, False]
    assert [e.slice.members for e in ranking.initial_entries] == [
        ("n_2", "n_3", "n_5"),
        ("n_1", "n_3", "n_7"),
    ]


def _fake(members, aggregate):
    slc = Slice(tuple(members), {})
    metrics = SliceMetrics({}, {}, aggregate, Fraction(0), aggregate)
    return slc, metrics


def test_rank_initial_strictly_above_mean():
    rows = [_fake(["a"], Fraction(9, 10)), _fake(["b"], Fraction(1, 2)), _fake(["c"], Fraction(1, 10))]
    ranking = rank_slices([s for s, _ in rows], [m for _, m in rows])
    # b sits exactly on the mean and stays out of the initial set
    assert [e.initial for e in ranking.entries] == [True, False, False]


def test_rank_all_equal_all_initial():
    rows = [_fake(["b"], Fraction(1, 2)), _fake(["a"], Fraction(1, 2))]
    ranking = rank_slices([s for s, _ in rows], [m for _, m in rows])
    assert [e.slice.members for e in ranking.entries] == [("a",), ("b",)]
    assert all(e.initial for e in ranking.entries)


def test_rank_errors():
    slc, metrics = _fake(["a"], Fraction(1, 2))
    with pytest.raises(ValueError):
        rank_slices([], [])
    with pytest.raises(ValueError):
        rank_slices([slc], [])
