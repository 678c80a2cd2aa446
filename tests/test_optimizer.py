import json
import random
from fractions import Fraction

import pytest

from capslice.graph import GraphError, build_graph
from capslice.metrics import MembershipError
from capslice.optimizer import (
    EXHAUSTIVE_LIMIT,
    ConfigError,
    ManifestError,
    Normalizers,
    OptimizationConfig,
    ScheduleModel,
    SliceScore,
    TechFeasibility,
    _agreeing_order,
    _exhaustive_order,
    _greedy_order,
    export_capabilities,
    objective_z,
    optimize,
    pareto_front,
    schedule_slice,
    slice_feasibility,
    validate_manifest,
)
from capslice.slicing import Slice, SliceMetrics, enumerate_slices, make_slice
from conftest import random_fd_graph, wide_graph
from oracles import pareto_bruteforce, schedule_bruteforce

S1 = ("n_1", "n_3", "n_7")
S2 = ("n_2", "n_3", "n_5")
S3 = ("n_3", "n_5", "n_6", "n_7")


def fig2_slices(fig2):
    return list(enumerate_slices(fig2).slices)


# -- feasibility ---------------------------------------------------------------


def test_slice_feasibility_is_min(fig2):
    slc = make_slice(fig2, S1)
    tf = TechFeasibility({"n_1": Fraction(9, 10), "n_3": Fraction(2, 5)})
    assert slice_feasibility(slc, tf) == Fraction(2, 5)
    assert slice_feasibility(slc, TechFeasibility()) == 1
    assert TechFeasibility(default=Fraction(1, 2)).value_for("n_7") == Fraction(1, 2)


# -- scheduling ----------------------------------------------------------------


def test_schedule_fig2(fig2):
    slices = {s.members: s for s in fig2_slices(fig2)}

    sched = schedule_slice(fig2, slices[S1])
    assert sched.makespan == 14  # sizes 5 + 5 + 4
    assert sched.order == ("n_7", "n_1", "n_3")
    assert sched.method == "exhaustive"

    sched = schedule_slice(fig2, slices[S2])
    assert sched.makespan == 15
    assert sched.order == ("n_5", "n_3", "n_2")
    assert sched.order_cost == Fraction(4199, 40500)

    assert schedule_slice(fig2, slices[S3]).order == ("n_6", "n_5", "n_7", "n_3")


def test_schedule_two_member_example():
    # injected couplings and times; the graph is never consulted
    slc = Slice(("p", "q"), {})
    sched = schedule_slice(
        None,
        slc,
        times={"p": 1, "q": 1},
        coupling={("p", "q"): Fraction(3, 10), ("q", "p"): Fraction(1, 10)},
    )
    assert sched.order == ("q", "p")
    assert sched.order_cost == Fraction(1, 10)
    assert sched.makespan == 2


def test_schedule_single_member(fig2):
    slc = Slice(("n_3",), {"d_10": "n_3"})
    sched = schedule_slice(fig2, slc)
    assert sched.order == ("n_3",)
    assert sched.order_cost == 0
    assert sched.makespan == 5


def test_schedule_times_override(fig2):
    slc = make_slice(fig2, S1)
    sched = schedule_slice(fig2, slc, times={"n_1": Fraction(1, 2)})
    assert sched.per_node_time["n_1"] == Fraction(1, 2)
    assert sched.per_node_time["n_3"] == 5  # default: size
    assert sched.makespan == Fraction(19, 2)
    with pytest.raises(ValueError):
        schedule_slice(fig2, slc, times={"n_1": 0})


def test_schedule_matches_permutation_oracle(fig2):
    from capslice.slicing import slice_objective

    for slc in fig2_slices(fig2):
        coupling = slice_objective(fig2, slc).coupling
        sched = schedule_slice(fig2, slc, coupling=coupling)
        order, cost = schedule_bruteforce(slc.members, coupling)
        assert sched.order == order
        assert sched.order_cost == cost


def test_exhaustive_order_matches_oracle_random():
    rng = random.Random(3344)
    for _ in range(40):
        k = rng.randint(2, 6)
        members = [f"c{i}" for i in range(k)]
        coupling = {
            (p, q): Fraction(rng.randint(0, 12), 12)
            for p in members
            for q in members
            if p != q
        }
        order, cost = schedule_bruteforce(members, coupling)
        slc = Slice(tuple(members), {})
        sched = schedule_slice(None, slc, times={m: 1 for m in members}, coupling=coupling)
        assert sched.order == order
        assert sched.order_cost == cost
        assert sched.method == "exhaustive"


def test_exhaustive_order_matches_oracle_at_limit():
    # k = 7 and k = EXHAUSTIVE_LIMIT with many ties, which pins the
    # lexicographically first tie-break; the oracle walks all k! orders
    rng = random.Random(7788)
    for k in (7, 7, 7, EXHAUSTIVE_LIMIT, EXHAUSTIVE_LIMIT):
        members = [f"c{i}" for i in range(k)]
        coupling = {
            (p, q): Fraction(rng.randint(0, 2), 3)
            for p in members
            for q in members
            if p != q
        }
        order, cost = schedule_bruteforce(members, coupling)
        slc = Slice(tuple(members), {})
        sched = schedule_slice(None, slc, times={m: 1 for m in members}, coupling=coupling)
        assert sched.order == order
        assert sched.order_cost == cost
        assert sched.method == "exhaustive"


def _weights(members, cost):
    return [[cost[(p, q)] if p != q else 0 for q in members] for p in members]


def test_exhaustive_order_both_branches_match_oracle():
    # small integer tables tie often, and some of them hold preference
    # cycles: both the agreeing walk and the subset program must give the
    # oracle's lexicographically first optimum
    rng = random.Random(4417)
    branches = []
    for k in range(1, EXHAUSTIVE_LIMIT + 1):
        for _ in range(3 if k == EXHAUSTIVE_LIMIT else 12):
            members = [f"c{i}" for i in range(k)]
            cost = {(p, q): rng.randint(0, 3) for p in members for q in members if p != q}
            order, oracle_cost = schedule_bruteforce(members, cost)
            assert _exhaustive_order(list(reversed(members)), cost) == (order, oracle_cost)
            branches.append(_agreeing_order(_weights(members, cost)) is not None)
    assert any(branches) and not all(branches)


def test_exhaustive_order_preference_cycle():
    # a before b, b before c and c before a are each the cheaper way round,
    # so no order meets the pairwise bound of 0 and the subset program runs
    members = ["a", "b", "c"]
    cost = {
        ("a", "b"): 0, ("b", "a"): 2,
        ("b", "c"): 0, ("c", "b"): 3,
        ("c", "a"): 0, ("a", "c"): 5,
    }
    assert _agreeing_order(_weights(members, cost)) is None
    assert _exhaustive_order(members, cost) == (("b", "c", "a"), 2)
    assert schedule_bruteforce(members, cost) == (("b", "c", "a"), 2)


def test_coupling_orders_by_owned_count(monkeypatch):
    # Cp(p,q)/Cp(q,p) = |D_p|/|D_q|, so every coupling_matrix table has an
    # order that puts each pair its cheaper way: fewest owned directives
    # first, ties by id, and the subset program never runs
    from capslice import optimizer

    results = []

    def recording(weight):
        results.append(_agreeing_order(weight))
        return results[-1]

    monkeypatch.setattr(optimizer, "_agreeing_order", recording)
    rng = random.Random(6021)
    checked = 0
    for _ in range(40):
        g = random_fd_graph(rng, max_internal=10, max_directives=16)
        for slc in enumerate_slices(g, max_slices=50).slices:
            if len(slc.members) > EXHAUSTIVE_LIMIT:
                continue
            expected = sorted(slc.members, key=lambda m: (len(slc.owned(m)), m))
            assert schedule_slice(g, slc).order == tuple(expected)
            checked += 1
    assert checked > 100
    assert None not in results


def test_exhaustive_order_all_zero_is_sorted():
    members = [f"c{i}" for i in range(EXHAUSTIVE_LIMIT)]
    cost = {(p, q): 0 for p in members for q in members if p != q}
    assert _exhaustive_order(list(reversed(members)), cost) == (tuple(members), 0)


def test_greedy_kicks_in_beyond_limit():
    g = wide_graph(10)
    slc = enumerate_slices(g).slices[0]
    assert len(slc.members) == 10
    sched = schedule_slice(g, slc)
    assert sched.method == "greedy"
    assert sorted(sched.order) == sorted(slc.members)
    # symmetric couplings: lexicographic pick order, every directive pair cost equal
    assert sched.order == tuple(sorted(slc.members))
    assert sched.makespan == 20


def test_greedy_never_beats_exhaustive():
    rng = random.Random(9021)
    for _ in range(30):
        k = rng.randint(3, EXHAUSTIVE_LIMIT)
        members = sorted(f"c{i}" for i in range(k))
        cost = {
            (p, q): rng.randint(0, 20) for p in members for q in members if p != q
        }
        _, exact = _exhaustive_order(members, cost)
        greedy_order, greedy = _greedy_order(members, cost)
        assert greedy >= exact
        assert sorted(greedy_order) == members


# -- scalar objective ----------------------------------------------------------


def test_objective_z_hand_example():
    config = OptimizationConfig()  # weights 1/2, 3/10, 1/5
    norm = Normalizers(Fraction(0), Fraction(1), Fraction(0), Fraction(2))
    sched = ScheduleModel({}, ("a",), Fraction(1), Fraction(0), "exhaustive")
    z = objective_z(Fraction(1, 2), Fraction(3, 4), sched, config, norm)
    assert z == Fraction(1, 4) + Fraction(9, 40) - Fraction(1, 10) == Fraction(3, 8)


def test_objective_z_constant_criterion_is_half():
    config = OptimizationConfig()
    norm = Normalizers(Fraction(1, 2), Fraction(1, 2), Fraction(3), Fraction(3))
    sched = ScheduleModel({}, ("a",), Fraction(3), Fraction(0), "exhaustive")
    z = objective_z(Fraction(1, 2), Fraction(1), sched, config, norm)
    assert z == Fraction(1, 2) * Fraction(1, 2) + Fraction(3, 10) - Fraction(1, 5) * Fraction(1, 2)


def test_objective_z_scale_invariant_ordering():
    rng = random.Random(555)
    config = OptimizationConfig()
    pool = [
        (Fraction(rng.randint(0, 100), 100), Fraction(rng.randint(0, 4), 4), Fraction(rng.randint(1, 50)))
        for _ in range(12)
    ]
    for k in (Fraction(3), Fraction(1, 7)):
        base_norm = Normalizers(
            min(f for f, _, _ in pool),
            max(f for f, _, _ in pool),
            min(s for _, _, s in pool),
            max(s for _, _, s in pool),
        )
        scaled_norm = Normalizers(
            base_norm.f_lo, base_norm.f_hi, base_norm.s_lo * k, base_norm.s_hi * k
        )
        for f, tf, s in pool:
            plain = objective_z(
                f, tf, ScheduleModel({}, (), s, Fraction(0), "exhaustive"), config, base_norm
            )
            scaled = objective_z(
                f, tf, ScheduleModel({}, (), s * k, Fraction(0), "exhaustive"), config, scaled_norm
            )
            assert plain == scaled


# -- optimize ------------------------------------------------------------------


def test_optimize_fig2_default(fig2):
    res = optimize(fig2, fig2_slices(fig2))
    assert res.best.slice.members == S1
    assert res.best.z == Fraction(719129, 908780)
    assert [r.slice.members for r in res.feasible] == [S1, S2, S3]
    assert [r.slice.members for r in res.pareto] == [S1, S2]
    assert res.infeasible == ()


def test_optimize_two_candidate_pool(fig2):
    # restricted to the two initial slices the z values are easy to check:
    # f and s both normalize to {0, 1} and tf is constant 1
    slices = [s for s in fig2_slices(fig2) if s.members in (S1, S2)]
    res = optimize(fig2, slices)
    assert res.best.slice.members == S2
    assert res.best.z == Fraction(3, 5)
    z_by_members = {r.slice.members: r.z for r in res.feasible}
    assert z_by_members[S1] == Fraction(3, 10)


def test_optimize_weight_extremes(fig2):
    slices = fig2_slices(fig2)
    only_f = OptimizationConfig.from_dict({"weights": {"f": 1, "tf": 0, "sched": 0}})
    assert optimize(fig2, slices, only_f).best.slice.members == S2
    only_s = OptimizationConfig.from_dict({"weights": {"f": 0, "tf": 0, "sched": 1}})
    assert optimize(fig2, slices, only_s).best.slice.members == S1  # shortest makespan


def test_optimize_constraints(fig2):
    slices = fig2_slices(fig2)
    config = OptimizationConfig.from_dict(
        {"tf_min": 0.5, "tf": {"n_5": 0.25}, "f_min": 0.52}
    )
    res = optimize(fig2, slices, config)
    assert res.best.slice.members == S1
    assert [r.slice.members for r in res.feasible] == [S1]
    bad = {r.slice.members: r.violated for r in res.infeasible}
    assert bad == {S2: ("tf",), S3: ("tf", "f")}


def test_optimize_sched_max(fig2):
    config = OptimizationConfig.from_dict({"sched_max": 14})
    res = optimize(fig2, fig2_slices(fig2), config)
    assert [r.slice.members for r in res.feasible] == [S1]
    assert all(r.violated == ("sched",) for r in res.infeasible)


def test_optimize_bounds_are_inclusive(fig2):
    # a slice sitting exactly on tf_min, f_min or sched_max meets it
    slices = fig2_slices(fig2)
    s1 = next(r for r in optimize(fig2, slices).feasible if r.slice.members == S1)
    for doc in ({"tf_min": s1.tf}, {"f_min": s1.f}, {"sched_max": s1.schedule.makespan}):
        res = optimize(fig2, slices, OptimizationConfig(**doc))
        assert S1 in [r.slice.members for r in res.feasible], doc


def test_optimize_no_feasible_is_not_an_error(fig2):
    config = OptimizationConfig.from_dict({"tf_min": 2})
    res = optimize(fig2, fig2_slices(fig2), config)
    assert res.best is None
    assert res.feasible == ()
    assert res.pareto == ()
    assert len(res.infeasible) == 3


def test_optimize_metrics_alignment(fig2):
    with pytest.raises(ValueError):
        optimize(fig2, fig2_slices(fig2), metrics=[])


def test_pareto_front_matches_bruteforce():
    rng = random.Random(61)
    for _ in range(25):
        pool = []
        for i in range(rng.randint(1, 40)):
            slc = Slice((f"s{i:03d}",), {})
            f = Fraction(rng.randint(0, 10), 10)
            tf = Fraction(rng.randint(0, 4), 4)
            makespan = Fraction(rng.randint(1, 20))
            sched = ScheduleModel({}, slc.members, makespan, Fraction(0), "exhaustive")
            metrics = SliceMetrics({}, {}, f, Fraction(0), f)
            pool.append(SliceScore(slc, metrics, f, tf, sched))
        got = sorted((s.f, s.tf, s.schedule.makespan) for s in pareto_front(pool))
        expected = sorted(
            pareto_bruteforce([(s.f, s.tf, s.schedule.makespan) for s in pool])
        )
        assert got == expected


# -- configuration -------------------------------------------------------------


def test_config_defaults():
    config = OptimizationConfig.from_dict({})
    assert config.tf_min == 0
    assert config.sched_max is None
    assert config.f_min is None
    assert config.lam == 1
    assert config.weights == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


def test_config_weight_normalization():
    config = OptimizationConfig.from_dict({"weights": {"f": 2, "tf": 1, "sched": 1}})
    assert config.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        OptimizationConfig.from_dict({"nope": 1})
    with pytest.raises(ConfigError):
        OptimizationConfig.from_dict({"weights": {"f": 1, "tf": 1}})
    with pytest.raises(ConfigError):
        OptimizationConfig.from_dict({"weights": {"f": -1, "tf": 1, "sched": 1}})
    with pytest.raises(ConfigError):
        OptimizationConfig.from_dict({"weights": {"f": 0, "tf": 0, "sched": 0}})


def test_config_load_exact(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "tf_min": 0.3,
                "lambda": 0.5,
                "tf": {"default": 0.9, "n_5": 0.7},
                "times": {"n_1": 2.5},
            }
        )
    )
    config = OptimizationConfig.load(str(path))
    assert config.tf_min == Fraction(3, 10)  # exactly, not a float artifact
    assert config.lam == Fraction(1, 2)
    assert config.tf_default == Fraction(9, 10)
    assert config.tf_values == {"n_5": Fraction(7, 10)}
    assert config.times == {"n_1": Fraction(5, 2)}
    assert config.tech_feasibility().value_for("n_9") == Fraction(9, 10)


def test_config_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError):
        OptimizationConfig.load(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        OptimizationConfig.load(str(arr))
    with pytest.raises(ConfigError, match="cannot read"):
        OptimizationConfig.load(str(tmp_path / "missing.json"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ConfigError, match="nested too deeply"):
        OptimizationConfig.load(str(deep))
    # documented range of tf is [0, 1], per node and for the default
    for doc, message in [
        ({"tf": {"n_1": 7}}, "outside"),
        ({"tf": {"n_1": -0.1}}, "outside"),
        ({"tf": {"default": 1.5}}, "outside"),
        ({"tf": [1]}, "tf must map"),
        ({"tf": None}, "tf must map"),
        ({"times": [1]}, "times must map"),
        ({"times": {"n_4": 0}}, "^times value 0 for 'n_4' must be positive$"),
        ({"times": {"n_4": -0.5}}, "must be positive"),
        ({"tf_min": [1]}, "cannot interpret"),
    ]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            OptimizationConfig.load(str(path))
    # str() of 10**4300 exceeds Python's int-string digit limit
    path.write_text('{"tf": {"n_1": 1e4300}}')
    with pytest.raises(ConfigError, match=r"^tf value 10+\.\.\.0+ for 'n_1' outside \[0, 1\]$"):
        OptimizationConfig.load(str(path))
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"tf": {"n_1": 0, "n_3": 1, "default": 0}}))
    config = OptimizationConfig.load(str(edges))
    assert config.tf_values == {"n_1": 0, "n_3": 1} and config.tf_default == 0


# -- manifest ------------------------------------------------------------------


def test_manifest_roundtrip(fig2):
    slc = make_slice(fig2, S1)
    doc = export_capabilities(fig2, slc)
    validate_manifest(doc)
    assert doc["members"] == list(S1)
    assert doc["directive_count"] == 14
    assert doc["order"] == ["n_7", "n_1", "n_3"]
    assert doc["schedule_method"] == "exhaustive"
    caps = {c["id"]: c for c in doc["capabilities"]}
    assert caps["n_7"]["position"] == 0
    assert [d["id"] for d in caps["n_7"]["directives"]] == ["d_6", "d_7", "d_8", "d_9"]
    d6 = caps["n_7"]["directives"][0]
    assert d6["relevance"] == 1.0
    assert d6["category"] == "catastrophic"
    assert d6["via_parent"] == "n_7"
    assert set(caps["n_1"]["coupling_out"]) == {"n_3", "n_7"}

    # survives a serialization round trip
    validate_manifest(json.loads(json.dumps(doc)))


def test_manifest_shared_directive_attribution(fig2):
    slc = make_slice(fig2, S2)
    doc = export_capabilities(fig2, slc)
    validate_manifest(doc)
    caps = {c["id"]: c for c in doc["capabilities"]}
    d3 = next(d for d in caps["n_5"]["directives"] if d["id"] == "d_3")
    assert d3["via_parent"] == "n_5"
    assert d3["relevance"] == 0.7


def test_manifest_names_the_first_route_without_a_relevance():
    # a directive's children put c and e below a, so a reaches d2 through
    # a, c and e while its cohesion reads only the edge into d1; the best
    # route is unknown, and the manifest raises relevance()'s error for c,
    # the first parent in id order without one
    g = build_graph(
        [("m", "mission"), ("a", "function"), ("c", "function"), ("e", "function"),
         ("d1", "directive"), ("d2", "directive")],
        [("m", "a"), ("a", "d1", None, 1), ("a", "d2", None, Fraction(1, 2)),
         ("d1", "c"), ("d1", "e"), ("c", "d2"), ("e", "d2")],
    )
    slc = make_slice(g, ["a"])
    assert slc.owned("a") == ("d1", "d2")
    with pytest.raises(GraphError) as expected:
        g.relevance("d2", "c")
    with pytest.raises(GraphError) as got:
        export_capabilities(g, slc)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "no relevance recorded for directive 'd2' under 'c'"


def test_manifest_names_a_member_that_does_not_reach_its_directive(fig2):
    # a membership built by hand: n_3 does not reach d_1, so no route of
    # n_3 enters it and the manifest has no via_parent to give
    slc = Slice(("n_3", "n_7"), {"d_1": "n_3", "d_6": "n_7"})
    with pytest.raises(MembershipError, match="^member n_3 owns directive d_1 but does not reach it$"):
        export_capabilities(fig2, slc)


def test_manifest_validation_catches_damage(fig2):
    slc = make_slice(fig2, S1)
    good = export_capabilities(fig2, slc)

    doc = dict(good)
    del doc["order"]
    with pytest.raises(ManifestError, match="missing"):
        validate_manifest(doc)

    doc = json.loads(json.dumps(good))
    doc["order"] = ["n_1", "n_3"]
    with pytest.raises(ManifestError, match="permutation"):
        validate_manifest(doc)

    doc = json.loads(json.dumps(good))
    doc["members"] = ["n_3", "n_1", "n_7"]
    with pytest.raises(ManifestError, match="sorted"):
        validate_manifest(doc)

    doc = json.loads(json.dumps(good))
    doc["capabilities"][0]["directives"] = []
    with pytest.raises(ManifestError, match="no directives"):
        validate_manifest(doc)

    doc = json.loads(json.dumps(good))
    doc["capabilities"][1]["directives"].append(
        dict(doc["capabilities"][0]["directives"][0])
    )
    with pytest.raises(ManifestError, match="twice"):
        validate_manifest(doc)

    doc = json.loads(json.dumps(good))
    doc["directive_count"] = 3
    with pytest.raises(ManifestError, match="directive_count"):
        validate_manifest(doc)

    doc = json.loads(json.dumps(good))
    del doc["capabilities"][0]["coupling_out"]["n_3"]
    with pytest.raises(ManifestError, match="coupling_out"):
        validate_manifest(doc)

    doc = json.loads(json.dumps(good))
    doc["capabilities"][0]["position"] = 2
    with pytest.raises(ManifestError, match="position"):
        validate_manifest(doc)


def test_manifest_validation_reports_kind_members_and_capabilities(fig2):
    good = export_capabilities(fig2, make_slice(fig2, S1))
    damage = [
        (lambda doc: doc.update(kind="manifest"), "unexpected kind 'manifest'"),
        (lambda doc: doc.update(members=[]), "empty member list"),
        (lambda doc: doc["capabilities"].pop(), "capability entries do not match members"),
        (
            lambda doc: doc["capabilities"][0].update(id="n_9"),
            "capability entries do not match members",
        ),
    ]
    for edit, problem in damage:
        doc = json.loads(json.dumps(good))
        edit(doc)
        with pytest.raises(ManifestError) as err:
            validate_manifest(doc)
        assert problem in str(err.value).split("; "), str(err.value)


def test_manifest_of_the_wrong_shape_is_a_manifest_error(fig2):
    good = export_capabilities(fig2, make_slice(fig2, S1))
    damage = [
        lambda doc: doc.update(members=5),
        lambda doc: doc.update(order=None),
        lambda doc: doc.update(capabilities=[1]),
        lambda doc: doc["capabilities"][0]["directives"][0].pop("id"),
    ]
    for edit in damage:
        doc = json.loads(json.dumps(good))
        edit(doc)
        with pytest.raises(ManifestError, match="^malformed manifest: "):
            validate_manifest(doc)


def test_manifest_with_tf(fig2):
    slc = make_slice(fig2, S2)
    doc = export_capabilities(
        fig2, slc, lam=Fraction(1, 2), tf=TechFeasibility({"n_5": Fraction(4, 5)})
    )
    validate_manifest(doc)
    caps = {c["id"]: c for c in doc["capabilities"]}
    assert caps["n_5"]["tf"] == 0.8
    assert caps["n_5"]["build_time"] == 3.0  # its directive count
    assert caps["n_2"]["tf"] == 1.0
    assert doc["lambda"] == 0.5
    assert doc["makespan"] == 15.0  # 3 + 5 + 7
