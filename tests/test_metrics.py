import itertools
import random
from fractions import Fraction

import pytest

from capslice import metrics
from capslice.graph import (
    GraphError,
    NodeKind,
    build_graph,
    validate,
    weight_column_sums,
)
from capslice.metrics import (
    CohesionUndefinedError,
    MembershipError,
    PairCoupling,
    UncoveredDirectiveError,
    UnresolvableSharingError,
    capability_coupling,
    cohesion,
    cohesion_map,
    coupling_matrix,
    owned_directives,
    resolve_membership,
    size_of,
)
from conftest import index_routes, random_fd_graph
from capslice.optimizer import export_capabilities
from capslice.slicing import Slice, enumerate_slices, is_valid_slice, slice_objective
from oracles import (
    below,
    best_entry,
    cohesion_recursive,
    directive_coupling,
    double_sum_coupling,
    entry_routes,
    membership_bruteforce,
)


def test_size_of(fig2):
    assert size_of(fig2, "n_7") == 4
    assert size_of(fig2, "d_5") == 1
    assert size_of(fig2, "n_1") == 5  # d_3 shared below n_5 and n_6, counted once
    assert size_of(fig2, "n_2") == 7
    assert size_of(fig2, "m") == 14


def test_cohesion_fig2_exact(fig2):
    assert cohesion(fig2, "n_7") == Fraction(21, 40)
    assert cohesion(fig2, "n_5") == Fraction(17, 30)
    assert cohesion(fig2, "n_6") == Fraction(17, 30)
    assert cohesion(fig2, "n_1") == Fraction(17, 30)
    assert cohesion(fig2, "n_2") == Fraction(19, 35)
    assert cohesion(fig2, "n_3") == Fraction(7, 10)
    assert cohesion(fig2, "n_8") == Fraction(7, 10)
    assert cohesion(fig2, "m") == Fraction(173, 285)


def test_cohesion_leaf_parent_is_mean_relevance(fig2):
    # n_7's children are all directives, so cohesion is their plain average
    rels = [fig2.relevance(d, "n_7") for d in fig2.children("n_7")]
    assert cohesion(fig2, "n_7") == sum(rels) / len(rels)


def test_cohesion_refinement_passthrough(fig2):
    # n_4 -> n_9 is a refinement; the single child's cohesion carries up intact
    assert cohesion(fig2, "n_4") == cohesion(fig2, "n_9") == Fraction(7, 10)


def test_cohesion_all_catastrophic_is_one():
    g = build_graph(
        [("m", "mission"), ("a", "directive"), ("b", "directive")],
        [("m", "a", None, "catastrophic"), ("m", "b", None, "catastrophic")],
    )
    assert cohesion(g, "m") == 1


def test_cohesion_undefined_for_directive(fig2):
    with pytest.raises(CohesionUndefinedError):
        cohesion(fig2, "d_1")


def test_cohesion_map_matches_pointwise(fig2):
    ch = cohesion_map(fig2)
    assert set(ch) == set(fig2.mission_ids) | set(fig2.function_ids)
    for n, value in ch.items():
        assert value == cohesion(fig2, n)


def test_cohesion_monotone_in_relevance(fig2):
    def rebuilt(d9_relevance):
        nodes = [fig2.node(n) for n in fig2.node_ids]
        edges = []
        for u, v, _ in fig2.edges():
            rel = None
            if fig2.node(v).kind is NodeKind.DIRECTIVE:
                rel = fig2.relevance(v, u)
            if (u, v) == ("n_7", "d_9"):
                rel = d9_relevance
            edges.append((u, v, None, rel))
        return build_graph(nodes, edges)

    low, high = rebuilt(Fraction(1, 10)), rebuilt(Fraction(7, 10))
    assert cohesion(low, "n_7") == cohesion(fig2, "n_7")
    assert cohesion(high, "n_7") > cohesion(low, "n_7")
    # every ancestor of the edited edge moves the same direction
    assert cohesion(high, "n_2") > cohesion(low, "n_2")
    assert cohesion(high, "m") > cohesion(low, "m")
    # unrelated subtrees are untouched
    assert cohesion(high, "n_3") == cohesion(low, "n_3")


def test_cohesion_memo_on_unvalidated_graph():
    # cohesion is memoised per graph, but only for nodes asked about: a
    # healthy node still evaluates, and a broken one fails on every call
    g = build_graph(
        [
            ("m", "mission"),
            ("a", "function"),
            ("b", "function"),
            ("c", "function"),
            ("d", "directive"),
        ],
        [("m", "a"), ("m", "b"), ("m", "c"), ("a", "d", None, "critical"), ("c", "m")],
    )
    assert not validate(g).ok
    assert cohesion(g, "a") == Fraction(7, 10)
    for _ in range(2):
        with pytest.raises(GraphError, match="no children"):
            cohesion(g, "b")
        with pytest.raises(GraphError, match="cycle"):
            cohesion(g, "c")
    assert cohesion(g, "a") == Fraction(7, 10)


def test_cohesion_matches_recursive_oracle():
    rng = random.Random(4821)
    for _ in range(40):
        g = random_fd_graph(rng, max_internal=12, max_directives=16)
        ch = cohesion_map(g)
        for n in list(g.mission_ids) + list(g.function_ids):
            assert ch[n] == cohesion_recursive(g, n), n


def test_cohesion_bounds():
    rng = random.Random(990)
    for _ in range(30):
        g = random_fd_graph(rng)
        for value in cohesion_map(g).values():
            assert 0 < value <= 1


# -- membership ---------------------------------------------------------------


def test_parent_routes(fig2):
    # the parents through which a member reaches a directive
    assert index_routes(fig2, "n_1")["d_3"] == ["n_5", "n_6"]
    assert index_routes(fig2, "n_2")["d_3"] == ["n_6"]
    assert index_routes(fig2, "n_5")["d_3"] == ["n_5"]
    assert "d_1" not in index_routes(fig2, "n_3")


def test_resolve_membership_s1(fig2):
    ms = resolve_membership(fig2, ["n_1", "n_3", "n_7"])
    assert owned_directives(ms, "n_1") == ("d_1", "d_2", "d_3", "d_4", "d_5")
    assert owned_directives(ms, "n_7") == ("d_6", "d_7", "d_8", "d_9")
    assert owned_directives(ms, "n_3") == ("d_10", "d_11", "d_12", "d_13", "d_14")


def test_resolve_membership_relevance_winner(fig2):
    # d_3 is reachable from both members; n_5 enters at relevance 7/10,
    # n_2 only through n_6 at 3/10, so n_5 wins
    ms = resolve_membership(fig2, ["n_2", "n_3", "n_5"])
    assert ms["d_3"] == "n_5"
    assert owned_directives(ms, "n_2") == ("d_4", "d_5", "d_6", "d_7", "d_8", "d_9")


def test_resolve_membership_tie_breaks_low_id(fig2):
    # n_3 (via n_8) and n_4 (via n_9) both reach d_13/d_14 at relevance 7/10
    ms = resolve_membership(fig2, ["n_3", "n_4"], complete=False)
    assert ms["d_13"] == "n_3"
    assert ms["d_14"] == "n_3"
    assert owned_directives(ms, "n_4") == ()


def test_resolve_membership_tie_toy():
    g = build_graph(
        [
            ("m", "mission"),
            ("f_a", "function"),
            ("f_b", "function"),
            ("x", "directive"),
            ("y", "directive"),
            ("d", "directive"),
        ],
        [
            ("m", "f_a"),
            ("m", "f_b"),
            ("f_a", "x", None, Fraction(1, 2)),
            ("f_b", "y", None, Fraction(1, 2)),
            ("f_a", "d", None, Fraction(1, 2)),
            ("f_b", "d", None, Fraction(1, 2)),
        ],
    )
    assert validate(g).ok
    ms = resolve_membership(g, ["f_b", "f_a"])
    assert ms["d"] == "f_a"


def test_resolve_membership_unresolvable(fig2):
    # n_1 and n_2 both enter d_3, d_4, d_5 through the same parent n_6
    with pytest.raises(UnresolvableSharingError) as err:
        resolve_membership(fig2, ["n_1", "n_2"], complete=False)
    assert err.value.parent == "n_6"
    assert err.value.members == ("n_1", "n_2")

    # is_valid_slice reports every such entry, in directive order
    check = is_valid_slice(fig2, ["n_1", "n_2"])
    assert [(v.code, v.subject, v.message) for v in check.violations] == [
        ("UNCOVERED", "d_10,d_11,d_12,d_13,d_14", "some directives are covered by no member"),
    ] + [
        ("UNRESOLVABLE", d, f"n_1 and n_2 reach {d} through the same parent n_6")
        for d in ("d_3", "d_4", "d_5")
    ]


def test_resolve_membership_member_inside_member(fig2):
    # an ancestor pair also collides on the nested member's own parents
    with pytest.raises(UnresolvableSharingError):
        resolve_membership(fig2, ["n_1", "n_5"], complete=False)


def test_resolve_membership_coverage(fig2):
    with pytest.raises(UncoveredDirectiveError) as err:
        resolve_membership(fig2, ["n_7"])
    assert "d_1" in err.value.directives

    partial = resolve_membership(fig2, ["n_7"], complete=False)
    assert set(partial) == {"d_6", "d_7", "d_8", "d_9"}


def test_resolve_membership_refuses_directive_members(fig2):
    # n_5 covers d_1, whose own entry-parent tuple is empty; a lone directive
    # covers only itself
    for members in (["n_5", "d_1"], ["d_1"]):
        with pytest.raises(MembershipError, match=r"^a directive cannot be a member: d_1$"):
            resolve_membership(fig2, members, complete=False)
    with pytest.raises(MembershipError, match=r": d_2$"):
        resolve_membership(fig2, ["n_7", "d_8", "d_2"], complete=False)
    check = is_valid_slice(fig2, ["n_5", "d_1"])
    assert not check.ok and check.membership is None
    assert [v.code for v in check.violations if v.subject == "d_1"] == ["DIRECTIVE_MEMBER"]


def test_resolve_membership_refuses_the_mission(fig2):
    # m alone would own every directive; with n_1 it would share n_1's entries
    for members in (["m"], ["m", "n_1"]):
        with pytest.raises(MembershipError, match=r"^a mission cannot be a member: m$"):
            resolve_membership(fig2, members)
    with pytest.raises(MembershipError, match=r": d_1$"):
        resolve_membership(fig2, ["n_7", "m", "d_1"], complete=False)


def test_sharing_conflicts_clean_slices(fig2):
    for members in (["n_1", "n_3", "n_7"], ["n_2", "n_3", "n_5"]):
        check = is_valid_slice(fig2, members)
        assert check.ok and check.violations == ()
        assert resolve_membership(fig2, members) == check.membership


def test_membership_matches_oracle_random(fig2):
    # every function set of 1 to 3 members, up to a cap per graph
    rng = random.Random(10)
    graphs = [fig2] + [
        random_fd_graph(rng, max_internal=10, max_directives=14) for _ in range(100)
    ]
    manifests = 0
    for g in graphs:
        for n in g.mission_ids + g.function_ids:
            expected = {d: sorted(ps) for d, ps in sorted(entry_routes(g, n).items())}
            assert list(index_routes(g, n).items()) == list(expected.items()), n
        sets = [s for k in (1, 2, 3) for s in itertools.combinations(g.function_ids, k)]
        for members in sets[:130]:
            membership, conflicts = membership_bruteforce(g, members)
            if conflicts:
                with pytest.raises(UnresolvableSharingError) as err:
                    resolve_membership(g, members, complete=False)
                assert str(err.value) == str(UnresolvableSharingError(*conflicts[0]))
            else:
                assert resolve_membership(g, members, complete=False) == membership

            related = any(
                b in below(g, a) or a in below(g, b)
                for a, b in itertools.combinations(members, 2)
            )
            valid = (
                not related
                and not conflicts
                and set(membership) == set(g.directive_ids)
                and set(membership.values()) == set(members)
            )
            check = is_valid_slice(g, members)
            assert check.ok == valid, members
            assert check.membership == (membership if valid else None), members
            if not valid:
                continue
            manifest = export_capabilities(g, Slice(members, membership))
            manifests += 1
            routes = {m: entry_routes(g, m) for m in members}
            for cap in manifest["capabilities"]:
                for entry in cap["directives"]:
                    d = entry["id"]
                    rel, via = best_entry(g, d, routes[cap["id"]][d])
                    assert (entry["via_parent"], entry["relevance"]) == (via, float(rel))
    assert manifests > 100


# -- coupling -----------------------------------------------------------------


def test_directive_coupling_exact(fig2):
    # the oracle's Cp formula on the paper's figure
    owner = {"d_4", "d_5"}
    assert directive_coupling(fig2, "d_1", "d_4", owner) == Fraction(1, 8)
    assert directive_coupling(fig2, "d_3", "d_4", owner) == Fraction(1, 4)
    # singleton owner set at distance 2
    assert directive_coupling(fig2, "d_1", "d_2", {"d_2"}) == Fraction(1, 2)


def test_capability_coupling_exact(fig2):
    ms = {"d_1": "n_5", "d_2": "n_5", "d_3": "n_5", "d_4": "n_6", "d_5": "n_6"}
    assert capability_coupling(fig2, "n_5", "n_6", ms) == Fraction(1, 6)


def test_capability_coupling_asymmetry(fig2):
    ms = resolve_membership(fig2, ["n_1", "n_9"], complete=False)
    assert owned_directives(ms, "n_1") == ("d_1", "d_2", "d_3", "d_4", "d_5")
    assert owned_directives(ms, "n_9") == ("d_13", "d_14")
    assert capability_coupling(fig2, "n_1", "n_9", ms) == Fraction(1, 12)
    assert capability_coupling(fig2, "n_9", "n_1", ms) == Fraction(1, 30)


def test_capability_coupling_distance_toy():
    g = build_graph(
        [
            ("m", "mission"),
            ("a", "function"),
            ("b", "function"),
            ("c", "function"),
            ("d_a", "directive"),
            ("d_c", "directive"),
        ],
        [
            ("m", "a"),
            ("m", "b"),
            ("a", "d_a", None, Fraction(1, 2)),
            ("b", "c"),
            ("c", "d_c", None, Fraction(1, 2)),
        ],
    )
    ms = {"d_a": "a", "d_c": "c"}
    # single directives five hops apart, owner sets of one
    assert capability_coupling(g, "a", "c", ms) == Fraction(1, 5)
    assert capability_coupling(g, "c", "a", ms) == Fraction(1, 5)


def test_capability_coupling_errors(fig2):
    ms = resolve_membership(fig2, ["n_1", "n_3", "n_7"])
    with pytest.raises(ValueError):
        capability_coupling(fig2, "n_1", "n_1", ms)
    with pytest.raises(ValueError):
        capability_coupling(fig2, "n_1", "n_9", ms)  # n_9 owns nothing here


def test_capability_coupling_matches_double_sum():
    rng = random.Random(7310)
    checked = 0
    for _ in range(60):
        g = random_fd_graph(rng, max_internal=10, max_directives=14)
        funs = list(g.function_ids)
        if len(funs) < 2:
            continue
        pair = rng.sample(funs, 2)
        try:
            ms = resolve_membership(g, pair, complete=False)
        except UnresolvableSharingError:
            continue
        if not owned_directives(ms, pair[0]) or not owned_directives(ms, pair[1]):
            continue
        got = capability_coupling(g, pair[0], pair[1], ms)
        expected = double_sum_coupling(
            g, owned_directives(ms, pair[0]), owned_directives(ms, pair[1])
        )
        assert got == expected
        checked += 1
    assert checked >= 20


def test_coupling_bounds():
    rng = random.Random(5150)
    seen = 0
    for _ in range(40):
        g = random_fd_graph(rng, max_internal=8, max_directives=12)
        dirs = list(g.directive_ids)
        if len(dirs) < 2:
            continue
        u, v = rng.sample(dirs, 2)
        value = directive_coupling(g, u, v, {v})
        assert 0 < value <= Fraction(1, 2)
        seen += 1
    assert seen >= 30


def test_coupling_matrix_keys(fig2):
    members = ["n_1", "n_3", "n_7"]
    ms = resolve_membership(fig2, members)
    matrix = coupling_matrix(fig2, members, ms)
    assert set(matrix) == {(p, q) for p in members for q in members if p != q}
    assert matrix[("n_1", "n_7")] != matrix[("n_7", "n_1")]


def test_pair_coupling_reads_as_fractions():
    pc = PairCoupling({("a", "b"): 3}, 4)
    assert repr(pc) == "PairCoupling({('a', 'b'): 3}, 4)"
    assert pc == {("a", "b"): Fraction(3, 4)}


def test_coupling_matrix_errors(fig2):
    ms = resolve_membership(fig2, ["n_1", "n_3", "n_7"])
    # the smallest member that owns nothing is named
    with pytest.raises(ValueError, match="'n_4' resolves to an empty"):
        coupling_matrix(fig2, ["n_9", "n_1", "n_4", "n_3"], ms)
    # a lone member has no pairs, so nothing is checked
    assert coupling_matrix(fig2, ["n_9"], ms) == {}
    with pytest.raises(ValueError, match="^membership key 'n_5' is not a directive of the graph$"):
        coupling_matrix(fig2, ["n_1", "n_3", "n_7"], {**ms, "n_5": "n_1"})

    split = build_graph(
        [("m", "mission"), ("a", "function"), ("b", "function"), ("x", "directive"),
         ("y", "directive")],
        [("m", "a"), ("a", "x", None, "critical"), ("b", "y", None, "critical")],
    )
    ms = {"x": "a", "y": "b"}
    for call in (
        lambda: coupling_matrix(split, ["a", "b"], ms),
        lambda: capability_coupling(split, "b", "a", ms),
    ):
        with pytest.raises(GraphError, match="^'x' and 'y' are not connected$"):
            call()


def _reversed_membership(membership):
    return dict(reversed(list(membership.items())))


def test_coupling_matrix_matches_double_sum_pairs_and_triples():
    # column sums per owned set against the per-pair oracle, on partial
    # memberships of member pairs and triples, in id order and reversed
    rng = random.Random(2020)
    checked = {2: 0, 3: 0}
    tries = {2: 4, 3: 12}  # a triple is refused for sharing more often
    for _ in range(80):
        g = random_fd_graph(rng, max_internal=10, max_directives=16)
        funs = list(g.function_ids)
        for k in (2, 3):
            if len(funs) < k:
                continue
            for _ in range(tries[k]):
                members = rng.sample(funs, k)
                try:
                    ms = resolve_membership(g, members, complete=False)
                except MembershipError:
                    continue
                if any(not owned_directives(ms, m) for m in members):
                    continue
                expected = {
                    (p, q): double_sum_coupling(
                        g, owned_directives(ms, p), owned_directives(ms, q)
                    )
                    for p in sorted(members)
                    for q in sorted(members)
                    if p != q
                }
                for mapping in (ms, _reversed_membership(ms)):
                    got = coupling_matrix(g, members, mapping)
                    assert got == expected and list(got) == list(expected)
                checked[k] += 1
    assert checked[2] >= 100 and checked[3] >= 80


def two_components():
    # a and b hang under the mission; c, with no parent, owns z1 and z2 in
    # a second component, so validate refuses the graph
    nodes = [("m", "mission"), ("a", "function"), ("b", "function"), ("c", "function")]
    nodes += [(d, "directive") for d in ("x1", "x2", "y", "z1", "z2")]
    edges = [("m", "a"), ("m", "b")]
    edges += [(f, d, None, "critical") for f, d in
              [("a", "x1"), ("a", "x2"), ("b", "y"), ("c", "z1"), ("c", "z2")]]
    return build_graph(nodes, edges)


def test_coupling_matrix_two_components():
    g = two_components()
    assert not validate(g).ok
    ms = {"x1": "a", "x2": "a", "y": "b", "z1": "c", "z2": "c"}
    # a's and b's column sums hold None at z1 and z2, which they do not own
    for mapping in (ms, _reversed_membership(ms)):
        got = coupling_matrix(g, ["b", "a"], mapping)
        assert got == {
            ("a", "b"): double_sum_coupling(g, ["x1", "x2"], ["y"]),
            ("b", "a"): double_sum_coupling(g, ["y"], ["x1", "x2"]),
        }
    # the first pair in id order that is not connected is named
    for mapping in (ms, _reversed_membership(ms)):
        for members in (["a", "b", "c"], ["c", "b"], ["c", "a"]):
            first = "x1" if "a" in members else "y"
            with pytest.raises(GraphError, match=f"^'{first}' and 'z1' are not connected$"):
                coupling_matrix(g, members, mapping)


def test_column_sums_built_once_per_owned_set(monkeypatch):
    returned = []

    def counting(graph, owned):
        sums = weight_column_sums(graph, owned)
        returned.append((owned, sums))
        return sums

    monkeypatch.setattr(metrics, "weight_column_sums", counting)
    rng = random.Random(4242)
    for _ in range(12):
        g = random_fd_graph(rng, max_internal=12, max_directives=16)
        slices = enumerate_slices(g, max_slices=60).slices
        index = {d: j for j, d in enumerate(g.directive_ids)}
        # every member but the last sums its columns; the last only reads
        wanted = {
            tuple(index[d] for d in slc.owned(p))
            for slc in slices
            for p in slc.members[:-1]
        }
        returned.clear()
        first = [slice_objective(g, s) for s in slices]
        builds = {id(sums) for _, sums in returned}
        assert {owned for owned, _ in returned} == wanted
        assert len(builds) == len(wanted)
        returned.clear()
        assert [slice_objective(g, s) for s in slices] == first
        assert {id(sums) for _, sums in returned} <= builds
