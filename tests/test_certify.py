import json
from fractions import Fraction

import pytest

from homcert import (
    ActivitySystem,
    BudgetExceededError,
    CertReport,
    GraphFormatError,
    campaign_exit_code,
    certify_bireg,
    certify_double_identity,
    certify_hom_ub,
    certify_lift_identity,
    certify_sandwich,
    certify_weighted_ub,
    complete_graph,
    count_homs,
    gen_complete_bipartite,
    gen_even_cycle,
    gen_hypercube,
    gen_random_regular_bipartite,
    gen_union,
    independence_target,
    parse_bipartite,
    report_stream,
    run_campaign,
    sandwich_nonbipartite_demo,
)
from homcert.certify import HOLDS, SKIPPED_BUDGET, VACUOUS, VIOLATED, resolve_activities, resolve_target
from homcert.cli import _fixture_path
from homcert.graphs import Graph

HIND = independence_target()
K3 = complete_graph(3)


def incidence_k4():
    return parse_bipartite(_fixture_path("incidence_k4.json").read_text())


# --- unweighted extremal bound ---------------------------------------------------


def test_hom_ub_c6_vs_triangle_strict():
    report = certify_hom_ub(gen_even_cycle(6), K3)
    assert report.verdict == HOLDS and not report.equality
    assert report.details == {"count_g": "66", "count_knn": "18"}
    (bound,) = report.bounds
    assert bound.lhs == 66**4 == 18974736
    assert bound.rhs == 18**6 == 34012224


def test_hom_ub_extremal_equality():
    for h in (HIND, K3, complete_graph(2)):
        assert certify_hom_ub(gen_complete_bipartite(2, 2), h).equality
    union = gen_union([gen_complete_bipartite(2, 2), gen_complete_bipartite(2, 2)])
    assert certify_hom_ub(union, K3).equality


def test_hom_ub_strict_for_connected_non_extremal():
    assert not certify_hom_ub(gen_hypercube(3), HIND).equality
    assert not certify_hom_ub(gen_even_cycle(6), complete_graph(2)).equality


def test_hom_ub_requires_regular():
    with pytest.raises(GraphFormatError):
        certify_hom_ub(incidence_k4(), HIND)
    with pytest.raises(GraphFormatError):
        certify_hom_ub(gen_union([]), HIND)  # empty graph has no degree


def test_hom_ub_budget_skip():
    report = certify_hom_ub(gen_even_cycle(6), K3, budget=2)
    assert report.verdict == SKIPPED_BUDGET and report.bounds == ()


# --- weighted extremal bound ------------------------------------------------------


def test_weighted_ub_subunit_regime():
    acts = ActivitySystem.from_mapping(2, {0: ("1/2", "1/2")})
    report = certify_weighted_ub(gen_even_cycle(6), HIND, acts)
    assert report.verdict == HOLDS


def test_weighted_ub_equality_on_extremal_source():
    acts = ActivitySystem.from_mapping(2, {0: ("1/3", "2")})
    report = certify_weighted_ub(gen_complete_bipartite(3, 3), HIND, acts)
    assert report.verdict == HOLDS and report.equality


def test_weighted_ub_random_cubic():
    g = gen_random_regular_bipartite(3, 6, 7)  # N = 12
    acts = ActivitySystem.uniform(3, "2", "1/3")
    report = certify_weighted_ub(g, K3, acts)
    assert report.verdict == HOLDS


# --- sandwich -----------------------------------------------------------------------


def test_sandwich_cube_vs_triangle():
    report = certify_sandwich(gen_hypercube(3), K3, ActivitySystem.unit(3))
    assert report.verdict == HOLDS
    lower, upper = report.bounds
    z = Fraction(count_homs(gen_hypercube(3).graph, K3))
    assert report.details["eta"] == "2"
    assert lower.lhs == 2**8 and lower.rhs == z**2
    assert upper.lhs == z**6 and upper.rhs == Fraction(2) ** 24 * Fraction(2) ** 24
    assert lower.verdict == HOLDS and upper.verdict == HOLDS


def test_sandwich_lower_equality_on_fully_looped_target():
    # every map is admissible, so the weighted count meets the biclique bound
    h = complete_graph(2, loops=True)
    acts = ActivitySystem.from_pairs([("1/2", "3"), ("2", "1/3")])
    report = certify_sandwich(gen_complete_bipartite(2, 2), h, acts)
    lower = report.bounds[0]
    assert report.verdict == HOLDS and lower.equality


def test_sandwich_vacuous_on_edgeless_target():
    report = certify_sandwich(gen_even_cycle(4), Graph(2), ActivitySystem.unit(2))
    assert report.verdict == VACUOUS
    assert report.details["Z_g"] == "0"
    assert report.bounds == ()


def test_nonbipartite_demo_reproduces_documented_failure():
    report = sandwich_nonbipartite_demo()
    assert report.expected_violation
    assert report.verdict == VIOLATED
    lower = report.bounds[0]
    assert lower.lhs == 1  # eta(edge)^3 = 1, i.e. eta^(N/2) = 1
    assert lower.rhs == 0  # Z = 0: no homomorphism from the triangle
    assert report.bounds[1].verdict == HOLDS  # upper bound is unaffected


# --- biregular bound -------------------------------------------------------------------


def test_bireg_equality_on_complete_bipartite():
    acts3 = ActivitySystem.from_mapping(2, {0: ("1/3", "2")})
    for a, b in ((1, 2), (2, 3), (3, 2)):
        report = certify_bireg(gen_complete_bipartite(a, b), HIND, acts3)
        assert report.verdict == HOLDS and report.equality, (a, b)


def test_bireg_matches_weighted_ub_when_regular():
    g = gen_even_cycle(6)
    acts = ActivitySystem.uniform(2, "1/2", "2")
    r1 = certify_bireg(g, HIND, acts)
    r2 = certify_weighted_ub(g, HIND, acts)
    assert r1.verdict == r2.verdict == HOLDS
    assert r1.bounds[0].lhs == r2.bounds[0].lhs
    assert r1.bounds[0].rhs == r2.bounds[0].rhs


def test_bireg_incidence_graph_strict():
    report = certify_bireg(incidence_k4(), HIND, ActivitySystem.unit(2))
    assert report.instance["a"] == 3 and report.instance["b"] == 2
    assert report.verdict == HOLDS and not report.equality


def test_sandwich_pins_coloring_counts():
    # with a complete-graph target the sandwich pins the count between the
    # exact powers of the balanced-biclique value
    from homcert import eta_unweighted

    for k in (2, 3, 4, 5):
        h = complete_graph(k)
        assert eta_unweighted(h).value == (k // 2) * ((k + 1) // 2)
        for g in (gen_even_cycle(6), gen_hypercube(3)):
            report = certify_sandwich(g, h, ActivitySystem.unit(k))
            assert report.verdict == HOLDS, (k, g)


def test_edgeless_regular_source_rejected():
    edgeless = parse_bipartite(json.dumps({"vertices": 4, "edges": [], "class_e": [0, 1]}))
    with pytest.raises(GraphFormatError):
        certify_hom_ub(edgeless, HIND)
    with pytest.raises(GraphFormatError):
        certify_sandwich(edgeless, HIND, ActivitySystem.unit(2))


def test_bireg_rejects_non_biregular():
    lopsided = parse_bipartite(
        json.dumps({"vertices": 4, "edges": [[0, 2], [0, 3], [1, 2]], "class_e": [0, 1]})
    )
    with pytest.raises(GraphFormatError):
        certify_bireg(lopsided, HIND, ActivitySystem.unit(2))


# --- identities -----------------------------------------------------------------------


def test_lift_identity_c4():
    acts = ActivitySystem.uniform(2, "3/2", "1")
    report = certify_lift_identity(gen_even_cycle(4), HIND, acts)
    assert report.verdict == HOLDS
    assert report.details["scale"] == "2"
    assert report.bounds[0].lhs == report.bounds[0].rhs


def test_lift_identity_unit_reduces_to_double():
    g = gen_even_cycle(6)
    lift = certify_lift_identity(g, K3, ActivitySystem.unit(3))
    dbl = certify_double_identity(g, K3)
    assert lift.verdict == dbl.verdict == HOLDS
    assert lift.bounds[0].lhs == dbl.bounds[0].lhs


def test_identities_single_edge():
    g = gen_complete_bipartite(1, 1)
    report = certify_double_identity(g, complete_graph(2))
    assert report.details == {"count": "2", "restricted_count": "2"}
    report = certify_lift_identity(g, complete_graph(2), ActivitySystem.unit(2))
    assert report.bounds[0].lhs == 2


def test_identity_grid_small():
    targets = (HIND, complete_graph(2), K3, complete_graph(2, loops=True))
    systems = (
        ActivitySystem.unit,
        lambda k: ActivitySystem.uniform(k, "1/2"),
        lambda k: ActivitySystem.uniform(k, "3/2", "1"),
        lambda k: ActivitySystem.uniform(k, "1/3", "2"),
    )
    for g in (gen_even_cycle(4), gen_complete_bipartite(2, 2)):
        for h in targets:
            assert certify_double_identity(g, h).verdict == HOLDS
            for make in systems:
                assert certify_lift_identity(g, h, make(h.vertex_count)).verdict == HOLDS


def test_lift_identity_charges_blowup_to_budget_before_building(monkeypatch):
    import homcert.constructions as constructions

    def refuse(*args, **kwargs):
        raise AssertionError("blowup built although it exceeds the budget")

    monkeypatch.setattr(constructions, "Graph", refuse)
    g = gen_even_cycle(4)
    loop = complete_graph(1, loops=True)
    acts = ActivitySystem.from_pairs([("200", "1/200")])
    with pytest.raises(BudgetExceededError, match="40001 vertices and 40000 edges"):
        constructions.blowup(loop, acts, 10)
    report = certify_lift_identity(g, loop, acts, budget=10)
    assert report.verdict == SKIPPED_BUDGET
    assert "40001 vertices and 40000 edges" in report.note
    # about 1.6e9 edges: far too large to build at all
    acts = ActivitySystem.from_pairs([("200", "1/200"), ("1/200", "200")])
    report = certify_lift_identity(g, complete_graph(2, loops=True), acts)
    assert report.verdict == SKIPPED_BUDGET
    assert "1600080001 edges" in report.note


# --- campaigns -------------------------------------------------------------------------


def _small_config(**overrides):
    config = {
        "seed": 99,
        "trials": 2,
        "families": [
            {"family": "cycle", "length": 4},
            {"family": "random-regular", "degree": 2, "half": 3},
        ],
        "grids": {
            "targets": ["hind", "k3"],
            "activities": ["unit", {"uniform": {"lambda": "1/2", "mu": "2"}}],
        },
        "propositions": [
            "hom-ub",
            "weighted-ub",
            "eta-sandwich",
            "bireg-ub",
            "lift-identity",
            "double-identity",
            "nonbipartite-lower-bound-failure",
        ],
    }
    config.update(overrides)
    return config


def test_campaign_runs_and_is_deterministic():
    config = _small_config()
    first = run_campaign(config)
    second = run_campaign(config)
    assert report_stream(first) == report_stream(second)
    assert campaign_exit_code(first) == 0
    expected = [r for r in first if r.expected_violation]
    assert len(expected) == 1 and expected[0].verdict == VIOLATED
    assert all(r.verdict == HOLDS for r in first if not r.expected_violation)


def test_campaign_trial_seeds_follow_split_rule():
    config = _small_config(propositions=["double-identity"], trials=3)
    reports = run_campaign(config)
    random_reports = [r for r in reports if r.instance["g_spec"]["family"] == "random-regular"]
    seeds = sorted({r.instance["g_spec"]["seed"] for r in random_reports})
    assert seeds == [99, 100, 101]
    assert all(r.instance["g_spec"]["seed_rule"] == "master_seed+index" for r in random_reports)


def test_empty_campaign():
    assert run_campaign({"propositions": []}) == []


def test_campaign_budget_zero_all_skipped():
    config = _small_config(budget=0, propositions=["hom-ub", "weighted-ub", "lift-identity"])
    reports = run_campaign(config)
    assert reports and all(r.verdict == SKIPPED_BUDGET for r in reports)
    assert campaign_exit_code(reports) == 0
    assert campaign_exit_code(reports, strict=True) == 3


def test_campaign_rejects_bad_config():
    with pytest.raises(GraphFormatError):
        run_campaign({"propositions": ["nope"]})
    with pytest.raises(GraphFormatError):
        run_campaign({"bogus": 1, "propositions": []})
    with pytest.raises(GraphFormatError):
        run_campaign({"grids": {"targets": ["k0"]}, "propositions": ["hom-ub"]})
    with pytest.raises(GraphFormatError):
        run_campaign(_small_config(trials=-1))


def test_campaign_skips_inapplicable_instances():
    config = _small_config(
        families=[{"family": "complete-bipartite", "a": 1, "b": 2}],
        propositions=["hom-ub", "bireg-ub"],
    )
    reports = run_campaign(config)
    # K_{1,2} is biregular but not regular: only bireg-ub reports appear
    assert reports and all(r.check == "bireg-ub" for r in reports)


def test_exit_code_on_synthetic_reports():
    ok = CertReport("hom-ub", {}, (), HOLDS)
    bad = CertReport("hom-ub", {}, (), VIOLATED)
    expected = CertReport("nonbipartite-lower-bound-failure", {}, (), VIOLATED, expected_violation=True)
    missing = CertReport("nonbipartite-lower-bound-failure", {}, (), HOLDS, expected_violation=True)
    skipped = CertReport("hom-ub", {}, (), SKIPPED_BUDGET)
    assert campaign_exit_code([ok, expected]) == 0
    assert campaign_exit_code([ok, bad]) == 1
    assert campaign_exit_code([missing]) == 1
    assert campaign_exit_code([ok, skipped]) == 0
    assert campaign_exit_code([ok, skipped], strict=True) == 3


def test_report_lines_are_valid_json_with_string_numbers():
    reports = run_campaign(_small_config(propositions=["weighted-ub"]))
    for line in report_stream(reports).splitlines():
        doc = json.loads(line)
        for bound in doc["bounds"]:
            assert isinstance(bound["lhs"], str) and isinstance(bound["rhs"], str)


# --- grid entry resolution ----------------------------------------------------------


def test_resolve_target_shorthands():
    assert resolve_target("hind") == HIND
    assert resolve_target("k5") == complete_graph(5)
    assert resolve_target("looped-k2") == complete_graph(2, loops=True)
    assert resolve_target("loop") == complete_graph(1, loops=True)
    assert resolve_target({"vertices": 1, "edges": [], "loops": [0]}) == complete_graph(1, loops=True)
    with pytest.raises(GraphFormatError):
        resolve_target("q3")


def test_resolve_target_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"vertices": 2, "edges": [[0, 1]], "loops": [1]}')
    assert resolve_target({"file": "h.json"}, tmp_path) == HIND


def test_resolve_activities_entries():
    assert resolve_activities("unit", 3).is_unit()
    assert resolve_activities(None, 2).is_unit()
    uniform = resolve_activities({"uniform": {"lambda": "1/2"}}, 2)
    assert uniform.lambdas == (Fraction(1, 2),) * 2 and uniform.mus == (Fraction(1, 2),) * 2
    vertexwise = resolve_activities({"vertex": {"0": {"lambda": "1/3", "mu": "2"}}}, 2)
    assert vertexwise.lambdas == (Fraction(1, 3), 1)
    bare = resolve_activities({"lambda": "2", "mu": "1/3"}, 2)
    assert bare.mus == (Fraction(1, 3),) * 2
    with pytest.raises(GraphFormatError):
        resolve_activities({"weird": 1}, 2)
