import copy
import json
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from homcert import (
    ActivitySystem,
    BipartiteGraph,
    BudgetExceededError,
    CertReport,
    build_instance,
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
    eta_two_sided,
    gen_complete_bipartite,
    gen_even_cycle,
    gen_hypercube,
    gen_random_regular_bipartite,
    gen_union,
    independence_target,
    iter_campaign,
    load_campaign,
    parse_bipartite,
    report_stream,
    run_campaign,
    sandwich_nonbipartite_demo,
    write_reports,
)
from homcert import certify as certify_mod, frontier, graphs as graphs_mod, homcount
from homcert.certify import (
    HOLDS,
    SKIPPED_BUDGET,
    VACUOUS,
    VIOLATED,
    BoundCheck,
    resolve_activities,
    resolve_target,
)
from homcert.cli import _fixture_path
from homcert.graphs import Graph, needs_seed, parse_instance_spec, serialize_bipartite
from homcert.reports import Frame, Judgement
from helpers import activity_system

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
    acts = activity_system([("1/2", "3"), ("2", "1/3")])
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
    for k in (2, 3, 4, 5):
        h = complete_graph(k)
        assert eta_two_sided(h, ActivitySystem.unit(k)).value == (k // 2) * ((k + 1) // 2)
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
    acts = activity_system([("200", "1/200")])
    with pytest.raises(BudgetExceededError, match="40001 vertices and 40000 edges"):
        constructions.blowup(loop, acts, 10)
    report = certify_lift_identity(g, loop, acts, budget=10)
    assert report.verdict == SKIPPED_BUDGET
    assert "40001 vertices and 40000 edges" in report.note
    # about 1.6e9 edges: far too large to build at all
    acts = activity_system([("200", "1/200"), ("1/200", "200")])
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


def test_campaign_errors_are_raised_when_it_is_planned():
    # iter_campaign plans the whole run before it returns its generator, so
    # no input or budget error waits for a report to be drawn
    with pytest.raises(GraphFormatError):
        iter_campaign(_small_config(propositions=["hom-ub", "nope"]))
    with pytest.raises(GraphFormatError):
        iter_campaign(_small_config(grids={"targets": ["hind", "k0"]}))
    with pytest.raises(BudgetExceededError):
        iter_campaign(_small_config(families=[{"family": "hypercube", "dim": 40}]))
    reports = iter_campaign(_small_config())
    assert report_stream(reports) == report_stream(run_campaign(_small_config()))
    assert next(reports, None) is None


def test_campaign_skips_inapplicable_instances():
    config = _small_config(
        families=[{"family": "complete-bipartite", "a": 1, "b": 2}],
        propositions=["hom-ub", "bireg-ub"],
    )
    reports = run_campaign(config)
    # K_{1,2} is biregular but not regular: only bireg-ub reports appear
    assert reports and all(r.check == "bireg-ub" for r in reports)


def test_a_campaign_config_that_is_not_an_object_is_an_input_error():
    # a file that is not an object is refused by its reader (see test_cli)
    with pytest.raises(GraphFormatError, match="campaign config must be a JSON object"):
        load_campaign(["hom-ub"])


def test_an_empty_proposition_list_overrides_the_campaign_list():
    config = _small_config(propositions=[{"id": "hom-ub", "families": []}, "double-identity"])
    loaded, _ = load_campaign(config)
    assert [p["families"] for p in loaded["propositions"]] == [[], config["families"]]
    assert load_campaign(loaded)[0] == loaded
    reports = run_campaign(config)
    # hom-ub has no sources; double-identity takes the campaign's three
    # (C4 and two random trials) into its two targets
    assert len(reports) == 3 * 2 and {r.check for r in reports} == {"double-identity"}


@pytest.mark.parametrize("budget", [20_000_000, 0])
def test_default_campaign_makes_each_double_and_blowup_once(monkeypatch, budget):
    doubles, blowups = Counter(), Counter()
    double, blowup = certify_mod.double, certify_mod.blowup

    def counting_double(h):
        doubles[id(h)] += 1
        return double(h)

    def counting_blowup(h, acts, budget):
        blowups[id(h), id(acts)] += 1
        return blowup(h, acts, budget)

    monkeypatch.setattr(certify_mod, "double", counting_double)
    monkeypatch.setattr(certify_mod, "blowup", counting_blowup)
    config, base_dir = load_campaign(_fixture_path("default-campaign.json"))
    config["budget"] = budget
    reports = run_campaign(config, base_dir)
    # 4 targets x 4 activity systems; a refused blow-up is not tried again
    assert len(blowups) == 16 and set(blowups.values()) == {1}
    if budget:
        # one double per target serves hom-ub's closed form and the double identity
        assert len(doubles) == 4 and set(doubles.values()) == {1}
    else:
        assert all(r.verdict == SKIPPED_BUDGET for r in reports if not r.expected_violation)


# the acceptance cubic campaign's grid: nine systems that differ at target vertex 0
_VERTEX0_GRID = [{"vertex": {"0": {"lambda": lam, "mu": mu}}}
                 for lam in ("1/3", "1/2", "2") for mu in ("1/3", "1/2", "2")]


def _cubic_config(halves, trials, budget, propositions):
    return {
        "seed": 77001,
        "trials": trials,
        "budget": budget,
        "families": [{"family": "random-regular", "degree": 3, "half": h} for h in halves],
        "grids": {"targets": ["hind", "k3"], "activities": _VERTEX0_GRID},
        "propositions": propositions,
    }


_ONE_AT_A_TIME = {
    "hom-ub": lambda g, h, acts, *args: certify_hom_ub(g, h, *args),
    "weighted-ub": certify_weighted_ub,
    "eta-sandwich": certify_sandwich,
    "bireg-ub": certify_bireg,
    "lift-identity": certify_lift_identity,
    "double-identity": lambda g, h, acts, *args: certify_double_identity(g, h, *args),
}


def _reports_one_at_a_time(config, base_dir=None):
    """The reports of a campaign of regular sources (every one meets every
    hypothesis), one public certify_* call each."""
    sources = []
    seed = config["seed"]
    for family in config["families"]:
        if not needs_seed(parse_instance_spec(family)):
            sources.append((family, build_instance(family, base_dir)))
            continue
        for _ in range(config["trials"]):
            seeded = {**family, "seed": seed}
            seed += 1
            sources.append(({**seeded, "seed_rule": "master_seed+index"}, build_instance(seeded)))
    targets = [(entry, resolve_target(entry)) for entry in config["grids"]["targets"]]
    return [
        _ONE_AT_A_TIME[pid](g, h, resolve_activities(entry, h.vertex_count), config["budget"],
                            {"g_spec": desc, "h_spec": t_entry, "trial": trial})
        for pid in config["propositions"]
        for trial, (desc, g) in enumerate(sources)
        for t_entry, h in targets
        for entry in (config["grids"]["activities"] if certify_mod._PROPOSITIONS[pid].weighted
                      else [None])
    ]


def _counted_campaign(monkeypatch, config):
    """run_campaign(config), counting the weighted kernel walks per (source
    graph, target masks) and the source builds per spec."""
    walks, builds = Counter(), Counter()
    kernel, build = homcount._hom_sum, certify_mod.build_instance

    def counting_kernel(g, base_of, h_masks, rows_of, budget):
        if rows_of is not None:
            walks[id(g), tuple(h_masks)] += 1
        return kernel(g, base_of, h_masks, rows_of, budget)

    def counting_build(spec, *args):
        builds[repr(spec)] += 1
        return build(spec, *args)

    with monkeypatch.context() as patch:
        patch.setattr(homcount, "_hom_sum", counting_kernel)
        patch.setattr(certify_mod, "build_instance", counting_build)
        reports = run_campaign(config)
    return reports, walks, builds


def _campaign_jobs(monkeypatch, config):
    """run_campaign(config) and the jobs it planned, in plan order."""
    jobs = []
    job = certify_mod._Quantities.job
    with monkeypatch.context() as patch:
        patch.setattr(certify_mod._Quantities, "job",
                      lambda q, *args: jobs.append(job(q, *args)) or jobs[-1])
        reports = run_campaign(config)
    return reports, jobs


@pytest.mark.parametrize("budget, verdicts", [
    (50_000_000, {HOLDS}), (400, {HOLDS, SKIPPED_BUDGET}), (3, {SKIPPED_BUDGET})])
def test_campaign_equals_one_report_at_a_time(monkeypatch, budget, verdicts):
    config = _cubic_config((4, 5), 2, budget,
                           ["weighted-ub", "eta-sandwich", "bireg-ub", "lift-identity"])
    reports, walks, builds = _counted_campaign(monkeypatch, config)
    assert [r.to_json_line() for r in reports] == [
        r.to_json_line() for r in _reports_one_at_a_time(config)]
    assert len(reports) == 4 * 4 * 2 * 9
    assert {r.verdict for r in reports} == verdicts
    # every system of the grid is weighted, so these walks are the Z walks
    # (the lift identity's restricted counts are unweighted): at most one
    # per (source, target)
    assert len(walks) <= 4 * 2 and set(walks.values()) <= {1}
    # each source built once per campaign, not once per proposition
    assert len(builds) == 4 and set(builds.values()) == {1}


def test_cubic_campaign_makes_one_z_walk_per_class_and_target(monkeypatch):
    config = _cubic_config((4, 5, 6, 7, 8), 20, 50_000_000,
                           ["weighted-ub", "eta-sandwich", "nonbipartite-lower-bound-failure"])
    judged = Counter()
    judge = certify_mod._judge
    monkeypatch.setattr(certify_mod, "_judge",
                        lambda check, *args: judged.update([check]) or judge(check, *args))
    reports, walks, builds = _counted_campaign(monkeypatch, config)
    assert len(reports) == 3601
    # the 100 sources fall into 1, 2, 6, 10 and 15 side-preserving
    # isomorphism classes for half 4 to 8: 34 classes x 2 targets, one packed
    # walk each, where one walk per source took 200 and one per report 3,600
    assert len(walks) == 68 and set(walks.values()) == {1}
    assert len(builds) == 100 and set(builds.values()) == {1}
    # and one evaluation per class, target and system of each proposition,
    # plus the demo: 1,225, where one per report took 3,601
    assert judged == {"weighted-ub": 34 * 2 * 9, "eta-sandwich": 34 * 2 * 9,
                      "nonbipartite-lower-bound-failure": 1}


def test_isomorphic_sources_share_answered_identity_judgements(monkeypatch):
    # the default campaign's random-regular draws of seeds 2004 and 2005 are
    # one class: the 2005 draw takes its class's four double-identity
    # judgements (one per target) and walks no restricted count of its own,
    # so the run makes 56 restricted counts where one per identity report
    # (28 double, 32 lift) took 60
    sources = []
    restricted = certify_mod.count_homs_restricted
    monkeypatch.setattr(certify_mod, "count_homs_restricted",
                        lambda g, *args: sources.append(g) or restricted(g, *args))
    config, base_dir = load_campaign(_fixture_path("default-campaign.json"))
    reports = run_campaign(config, base_dir)
    assert len(sources) == 56
    spec = {"family": "random-regular", "degree": 3, "half": 6}
    draws = {}
    for report in reports:
        if report.check == "double-identity" and report.instance["g_spec"].get("seed"):
            draws.setdefault(report.instance["g_spec"]["seed"], []).append(report)
    assert sorted(draws) == [2004, 2005]
    member = build_instance({**spec, "seed": 2005})
    assert member.graph != build_instance({**spec, "seed": 2004}).graph
    assert all(g.graph != member.graph for g in sources)
    for entry, first, report in zip(config["grids"]["targets"], draws[2004], draws[2005],
                                    strict=True):
        assert report.verdict == HOLDS and report._judgement is first._judgement
        info = {"g_spec": {**spec, "seed": 2005, "seed_rule": "master_seed+index"},
                "h_spec": entry, "trial": 5}
        alone = certify_double_identity(member, resolve_target(entry), config["budget"], info)
        assert report.to_json_line() == alone.to_json_line()


def _refusals_not_shared(config, budgets) -> int:
    """At each budget, every report that answers alone has its line in the
    campaign, and one refused alone is refused there or has its line at a
    budget that refuses nothing; the number of the latter, over all budgets."""
    unrefused = [r.to_json_line() for r in _reports_one_at_a_time({**config, "budget": 10**9})]
    decided = 0
    for budget in budgets:
        config = {**config, "budget": budget}
        for shared, alone, line in zip(run_campaign(config), _reports_one_at_a_time(config),
                                       unrefused, strict=True):
            if alone.verdict != SKIPPED_BUDGET:
                assert shared.to_json_line() == alone.to_json_line()
            elif shared.verdict != SKIPPED_BUDGET:
                assert shared.to_json_line() == line
                decided += 1
    return decided


def test_a_campaign_never_refuses_what_one_report_answers():
    # isomorphic sources share their answered judgements, never a refusal
    cubic = _cubic_config((4, 5, 6), 3, 0, ["weighted-ub", "eta-sandwich"])
    _refusals_not_shared(cubic, [0, 80, 160, 320, 480, 640])
    # half 6 from seed 3: seeds 3, 6, 7 and 8 are one class whose first walk
    # (3's) costs the least, so at 140 and 530 3's judgements answer what 6,
    # 7 and 8 refuse alone; seeds 4 and 5 are one class whose first walk
    # costs more, so at 110 (into hind) 4's judgements are refused, not
    # shared, and 5 walks its own grid
    labelled = {**_cubic_config((6,), 6, 0, ["weighted-ub", "eta-sandwich"]), "seed": 3}
    assert _refusals_not_shared(labelled, [110, 140, 530]) > 0


def test_a_refused_walk_refuses_only_the_systems_it_carries():
    # 2K2 into K3 at budget 4: the unit count walks K3's twin orbits and
    # answers; the vertex-0 system's own walk keeps the pair {1, 2} and is
    # refused, alone too.  The refusal is that system's, not the grid's
    system = {"vertex": {"0": {"lambda": "1/3", "mu": "1/3"}}}
    config = {"seed": 0, "trials": 1, "budget": 4,
              "families": [{"family": "random-regular", "degree": 1, "half": 2}],
              "grids": {"targets": ["k3"], "activities": [system]},
              "propositions": ["hom-ub", "weighted-ub"]}
    hom_ub, weighted_ub = run_campaign(config)
    alone = _reports_one_at_a_time(config)
    assert hom_ub.verdict == HOLDS
    assert hom_ub.to_json_line() == alone[0].to_json_line()
    assert weighted_ub.verdict == alone[1].verdict == SKIPPED_BUDGET
    assert weighted_ub.to_json_line() == alone[1].to_json_line()


# the unit system and two systems whose lambda and mu differ at vertex 0, so
# a judgement wrongly shared between the two sides of a source would show;
# integers, so the blow-ups stay small
_GRID_SYSTEMS = ["unit", {"vertex": {"0": {"lambda": "2"}}}, {"vertex": {"0": {"mu": "2"}}}]
# a path whose end 0 is looped: no two vertices are twins, so every walk into
# it keeps exact images; K3's walks keep twins, orbits of all three vertices
# in the unit count and the pair {1, 2} in the others
_TWIN_FREE = {"vertices": 3, "edges": [[0, 1], [1, 2]], "loops": [0]}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_class_judgements_equal_one_report_at_a_time(tmp_path, data):
    # random regular sources with side-preserving relabelled copies (file
    # documents and a one-part union), and a relabelled copy with its sides
    # swapped, which shares nothing unless isomorphic sides kept (a third of
    # the cubic draws of half 6 are not): at a drawn budget, every report of
    # the six propositions that answers alone has its line in the campaign
    families = []
    for i in range(data.draw(st.integers(1, 2))):
        degree, half = data.draw(st.sampled_from([(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6)]))
        spec = {"family": "random-regular", "degree": degree, "half": half,
                "seed": data.draw(st.integers(0, 99))}
        g = build_instance(spec)
        families += [spec, {"family": "union", "parts": [spec]}]
        for j, swap in enumerate([False, True]):
            image = data.draw(st.permutations(range(g.vertex_count)))
            edges = [(image[u], image[v]) for u, v in g.graph.edges()]
            side = g.class_o if swap else g.class_e
            relabelled = BipartiteGraph(Graph(g.vertex_count, edges), [image[v] for v in side])
            name = f"copy-{i}-{j}.json"
            (tmp_path / name).write_text(json.dumps(serialize_bipartite(relabelled)))
            families.append({"family": "file", "path": name})
    config = {"seed": 0, "trials": 1,
              "budget": data.draw(st.integers(0, 2_000) | st.just(50_000_000)),
              "families": families,
              "grids": {"targets": ["hind", _TWIN_FREE, "k3"],
                        "activities": data.draw(st.lists(st.sampled_from(_GRID_SYSTEMS),
                                                         min_size=1, max_size=3))},
              "propositions": list(_ONE_AT_A_TIME)}
    for shared, alone in zip(run_campaign(config, tmp_path),
                             _reports_one_at_a_time(config, tmp_path), strict=True):
        if alone.verdict != SKIPPED_BUDGET:
            assert shared.to_json_line() == alone.to_json_line()


def test_reports_that_share_a_judgement_share_no_state():
    # the two draws of half 4 are one class, so trial 1's reports take trial
    # 0's judgements; what a read of one returns is its own
    reports = run_campaign(_cubic_config((4,), 2, 50_000_000, ["weighted-ub", "eta-sandwich"]))
    lines = [r.to_json_line() for r in reports]
    assert lines == [_dict_line(r) for r in reports]
    # per proposition: trial 0 into hind, then into K3, then trial 1; 9 systems each
    for first, twin in ((reports[0], reports[18]), (reports[36], reports[54])):
        assert first._judgement is twin._judgement
        details = first.details
        details["Z_g"] = "0"
        details["extra"] = [1]
        assert first.details == twin.details != details
        for name in ("check", "bounds", "verdict", "expected_violation", "details", "note"):
            with pytest.raises(AttributeError):
                setattr(twin, name, None)
    assert [r.to_json_line() for r in reports] == lines == [_dict_line(r) for r in reports]


def test_isomorphic_sources_of_two_families_share_one_walk(monkeypatch):
    # K_{4,4} less a perfect matching is Q3
    config = {**_cubic_config((4,), 1, 50_000_000, ["weighted-ub", "eta-sandwich"]),
              "families": [{"family": "hypercube", "dim": 3},
                           {"family": "random-regular", "degree": 3, "half": 4}]}
    reports, walks, builds = _counted_campaign(monkeypatch, config)
    assert len(walks) == 2 and set(walks.values()) == {1}
    assert len(builds) == 2
    assert [r.to_json_line() for r in reports] == [
        r.to_json_line() for r in _reports_one_at_a_time(config)]
    assert {r.verdict for r in reports} == {HOLDS}


def test_a_source_past_the_search_limit_walks_alone(monkeypatch):
    # a search that gives up costs only a walk: one class per source, whose
    # jobs' class keys name the source itself, and the same lines.  The two
    # draws of half 4 are one class, those of half 5 two
    config = _cubic_config((4, 5), 2, 50_000_000, ["weighted-ub"])
    shared, walks, _ = _counted_campaign(monkeypatch, config)
    assert len(walks) == 3 * 2
    _, jobs = _campaign_jobs(monkeypatch, config)
    assert len({key[1] for *_, key, _ in jobs}) == 3
    monkeypatch.setattr(graphs_mod, "_ISO_TRIES", 0)
    alone, walks, _ = _counted_campaign(monkeypatch, config)
    assert len(walks) == 4 * 2
    assert [r.to_json_line() for r in alone] == [r.to_json_line() for r in shared]
    _, jobs = _campaign_jobs(monkeypatch, config)
    assert [key[1] for *_, key, _ in jobs] == [id(g) for _, g, *_ in jobs]
    assert len(jobs) == len({key[1] for *_, key, _ in jobs}) * 2 == 4 * 2


def test_sources_past_the_budget_are_never_matched(monkeypatch):
    # K_{200,200}'s labels would cost 16,000,000 steps, past the budget: each
    # copy keeps a class of its own, unlabelled, and walks its own grid
    k = {"family": "complete-bipartite", "a": 200, "b": 200}
    config = {**_cubic_config((), 1, 100_000, ["weighted-ub"]),
              "families": [k, {"family": "union", "parts": [k]}],
              "grids": {"targets": ["k3"], "activities": _VERTEX0_GRID[:1]}}
    labelled = []
    labels = BipartiteGraph._vertex_labels
    monkeypatch.setattr(BipartiteGraph, "_vertex_labels",
                        lambda self: labelled.append(self) or labels(self))
    reports = run_campaign(config)
    assert labelled == []
    assert [r.to_json_line() for r in reports] == [
        r.to_json_line() for r in _reports_one_at_a_time(config)]


@pytest.mark.memo_counts
def test_campaigns_plan_each_grid_once_whatever_ran_before(monkeypatch):
    # what depends only on the target, the source's side sizes and the
    # systems is made once per run, not once per source or per job, and a
    # run's work does not depend on the runs before it in the process: a
    # cubic run after a default one plans the same walk lists, its kernel
    # walks derive the same twin classes, and it writes the same stream as
    # the cubic run before it
    plans, twins = Counter(), Counter()
    plan, twin_classes = homcount.grid_walks, frontier.twin_classes

    def counting_plan(h, systems, ne, no):
        systems = list(systems)
        plans[h, ne, no, tuple(systems), id(h), tuple(map(id, systems))] += 1
        return plan(h, systems, ne, no)

    def counting_twin_classes(masks, columns):
        twins[tuple(masks), tuple(map(tuple, columns))] += 1
        return twin_classes(masks, columns)

    monkeypatch.setattr(certify_mod, "grid_walks", counting_plan)
    monkeypatch.setattr(frontier, "twin_classes", counting_twin_classes)
    cubic = _cubic_config((4, 5, 6, 7, 8), 20, 50_000_000,
                          ["weighted-ub", "eta-sandwich", "nonbipartite-lower-bound-failure"])

    def run(config):
        plans.clear()
        twins.clear()
        stream = report_stream(iter_campaign(config))
        # one walk list per target, source sizes and system list, made
        # once: no objects are planned twice, nor are two equal targets,
        # sizes and system lists
        values = Counter(key[:4] for key in plans)
        assert set(plans.values()) == set(values.values()) == {1}
        return stream, values, Counter(twins)

    first = run(cubic)
    assert first[0].count("\n") == 3601
    # one system list per target: both propositions ask the same nine
    # systems, of sources of five sizes
    assert len({(h, systems) for h, _, _, systems in first[1]}) == 2
    assert len(first[1]) == 10
    default = run(_fixture_path("default-campaign.json"))[1]
    assert len({(h, systems) for h, _, _, systems in default}) == 4
    assert len(default) == 20
    assert run(cubic) == first


def test_cubic_jobs_carry_one_class_key_per_class_and_target(monkeypatch):
    # the cubic campaign's 100 sources fall into 34 classes, so its 400 jobs
    # carry 2 propositions x 34 classes x 2 targets keys, each
    # (proposition, id(first source), id(target), fields), and a key's first
    # job is that of the class's first source
    reports, jobs = _campaign_jobs(monkeypatch, _cubic_config(
        (4, 5, 6, 7, 8), 20, 50_000_000,
        ["weighted-ub", "eta-sandwich", "nonbipartite-lower-bound-failure"]))
    assert len(reports) == 3601
    assert len(jobs) == 400
    firsts = {}
    for pid, g, h, _, key, base in jobs:
        assert key[0] == pid and key[2] == id(h) and key[3] == (base["n"],)
        firsts.setdefault(key, id(g))
    assert len(firsts) == 136
    assert len({key[1] for key in firsts}) == 34
    assert all(key[1] == first for key, first in firsts.items())


def test_campaign_on_a_long_cycle_with_a_vertex0_grid():
    # a grid a campaign would pack, on a source too large to pack
    systems = [{"vertex": {"0": {"lambda": lam}}} for lam in ("1/2", "2")]
    config = {"seed": 1, "trials": 1, "families": [{"family": "cycle", "length": 1000}],
              "grids": {"targets": ["k3"], "activities": systems},
              "propositions": ["hom-ub", "weighted-ub"]}
    start = time.perf_counter()
    reports = run_campaign(config)
    assert time.perf_counter() - start < 10
    g, k3 = gen_even_cycle(1000), resolve_target("k3")
    info = {"g_spec": {"family": "cycle", "length": 1000}, "h_spec": "k3", "trial": 0}
    expected = [certify_hom_ub(g, k3, instance_info=info)] + [
        certify_weighted_ub(g, k3, resolve_activities(entry, 3), instance_info=info)
        for entry in systems]
    assert [r.to_json_line() for r in reports] == [r.to_json_line() for r in expected]
    assert {r.verdict for r in reports} == {HOLDS}


def _plain(check, verdict, expected_violation=False):
    """A synthetic report of an empty plain instance."""
    return CertReport(Judgement(check, (), verdict, expected_violation), Frame({}, False))


def test_exit_code_on_synthetic_reports():
    ok = _plain("hom-ub", HOLDS)
    bad = _plain("hom-ub", VIOLATED)
    expected = _plain("nonbipartite-lower-bound-failure", VIOLATED, expected_violation=True)
    missing = _plain("nonbipartite-lower-bound-failure", HOLDS, expected_violation=True)
    skipped = _plain("hom-ub", SKIPPED_BUDGET)
    assert campaign_exit_code([ok, expected]) == 0
    assert campaign_exit_code([ok, bad]) == 1
    assert campaign_exit_code([missing]) == 1
    assert campaign_exit_code([ok, skipped]) == 0
    assert campaign_exit_code([ok, skipped], strict=True) == 3
    for reports in ([bad, ok, skipped], [skipped, ok, expected], [missing, skipped], [ok]):
        for strict in (False, True):
            code = campaign_exit_code(reports, strict)
            assert campaign_exit_code(iter(reports), strict) == code
            # the writer reads the whole stream, whatever the code
            lines = []
            assert write_reports(iter(reports), lines.append, strict) == code
            assert "".join(lines) == report_stream(reports)
            assert len(lines) == len(reports)
    assert write_reports(iter([bad, ok, skipped]), [].append) == 1
    assert write_reports(iter([ok, skipped, expected]), [].append, strict=True) == 3


def test_report_lines_are_valid_json_with_string_numbers():
    reports = run_campaign(_small_config(propositions=["weighted-ub"]))
    for line in report_stream(reports).splitlines():
        doc = json.loads(line)
        for bound in doc["bounds"]:
            assert isinstance(bound["lhs"], str) and isinstance(bound["rhs"], str)


def _dict_line(report):
    """The definition of a report's line."""
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


def test_report_lines_are_their_dicts_on_edge_reports(tmp_path):
    # a source path with a non-ASCII character, a quote and a backslash,
    # which every report of the file family carries in its g_spec
    name = 'k\u00e9"\\22.json'
    (tmp_path / name).write_text(json.dumps(serialize_bipartite(gen_complete_bipartite(2, 2))))
    config = {
        "families": [{"family": "file", "path": name}],
        "grids": {"targets": ["hind", "k3"],
                  "activities": ["unit", {"vertex": {"1": {"lambda": "2/3", "mu": "3"}}}]},
        "propositions": ["hom-ub", "weighted-ub", "eta-sandwich", "lift-identity",
                         "nonbipartite-lower-bound-failure"],
    }
    skipped = certify_weighted_ub(gen_hypercube(3), K3, ActivitySystem.unit(3), budget=5)
    vacuous = certify_sandwich(gen_even_cycle(4), Graph(2), ActivitySystem.unit(2))
    assert skipped.verdict == SKIPPED_BUDGET and skipped.note
    assert vacuous.verdict == VACUOUS and vacuous.note and vacuous.details
    reports = [*run_campaign(config, tmp_path), skipped, vacuous, sandwich_nonbipartite_demo()]
    assert [r.to_json_line() for r in reports] == [_dict_line(r) for r in reports]
    stream = report_stream(reports)
    assert stream == "".join(_dict_line(r) + "\n" for r in reports)
    assert '"path":"k\\u00e9\\"\\\\22.json"' in stream


# strings with non-ASCII characters, quotes and backslashes, and keys that
# sort on either side of "activities"
_TEXTS = st.text(max_size=6) | st.sampled_from(
    ['k\u00e9"\\22', "\u2603", "N", "activitie", "activitiesz", "b", ""])
# what a report's details hold, and one nested value that only _json writes
_INTS = st.lists(st.integers(-9, 10**20), max_size=3)
_FLAT = st.one_of(_TEXTS, st.integers(-10**30, 10**30), _INTS, _INTS.map(tuple))
_NESTED = st.one_of(st.dictionaries(_TEXTS, st.integers(), min_size=1, max_size=2),
                    st.booleans(), st.none(), st.lists(st.booleans(), min_size=1, max_size=2))
_DOCS = st.dictionaries(_TEXTS, st.integers() | _TEXTS, max_size=2)


@settings(max_examples=300, deadline=None)
@given(details=st.dictionaries(_TEXTS, _FLAT, max_size=4),
       nested=st.none() | st.tuples(_TEXTS, _NESTED),
       base=st.dictionaries(_TEXTS, _TEXTS | st.integers() | _DOCS, max_size=5),
       own=st.none() | _DOCS, weighted=st.booleans(),
       systems=st.lists(_DOCS, min_size=1, max_size=3), note=st.none() | _TEXTS)
def test_framed_lines_are_their_dicts(details, nested, base, own, weighted, systems, note):
    # the reports of one job share a frame; an instance_info with its own
    # "activities" overrides the system's
    if nested is not None:
        details[nested[0]] = nested[1]
    if own is not None:
        base["activities"] = own
    frame = Frame(base, weighted)
    bound = BoundCheck("upper", "<=", "x", "y", Fraction(1, 3), Fraction(1, 2))
    judgement = Judgement("weighted-ub", (bound,), HOLDS, False, details, note)
    reports = [CertReport(judgement, frame, doc) for doc in systems]
    encoded = {}
    lines = [r.to_json_line(encoded) for r in reports]  # before any instance is read
    assert lines == [_dict_line(r) for r in reports]
    assert [r.instance.get("activities") for r in reports] == [
        own if own is not None else doc if weighted else None for doc in systems]
    # reading an instance changes no line
    assert [r.to_json_line(encoded) for r in reports] == lines


def test_instances_are_read_only():
    # changing what a read returns changes neither the line nor the dict of
    # a framed report or of an unframed one (a plain instance, as the demo's),
    # and an unframed report is written as its dict too
    bound = BoundCheck("upper", "<=", "x", "y", Fraction(1, 3), Fraction(1, 2))
    frame = Frame({"g": {"vertices": 2, "edges": [[0, 1]]}, "N": 3}, True)
    framed = CertReport(Judgement("weighted-ub", (bound,), HOLDS), frame, {"unit": True})
    plain = _plain("hom-ub", HOLDS)
    for report in (framed, plain, sandwich_nonbipartite_demo()):
        line, doc = report.to_json_line(), report.to_dict()
        assert line == _dict_line(report)
        instance = report.instance
        instance["trial"] = 7
        instance.pop("g", None)
        assert report.to_json_line() == line and report.to_dict() == doc
        # nested too: an edge appended to a read's source document
        edges = report.instance.get("g", {}).get("edges")
        if edges is not None:
            edges.append([0, 0])
        assert report.to_json_line() == line == _dict_line(report)
    with pytest.raises(AttributeError):
        plain.instance = {"trial": 7}


def test_reports_are_equal_by_their_fields():
    # equal fields from distinct judgements and frames make equal reports; a
    # different verdict or activity document, or a non-report, does not
    def report(verdict=HOLDS, activities=None):
        bound = BoundCheck("upper", "<=", "x", "y", Fraction(1, 3), Fraction(1, 2))
        judgement = Judgement("weighted-ub", (bound,), verdict, False, {"eta": "2"}, "a note")
        frame = Frame({"g": {"vertices": 2, "edges": [[0, 1]]}, "N": 3}, True)
        return CertReport(judgement, frame, activities or {"unit": True})

    first, second = report(), report()
    assert first._judgement is not second._judgement and first._frame is not second._frame
    assert first == second and not first != second
    assert first != report(verdict=VIOLATED)
    assert first != report(activities={"uniform": {"lambda": "2", "mu": "2"}})
    assert first != first.to_dict() and not first == "weighted-ub"
    assert repr(first) == (
        f"CertReport(check='weighted-ub', instance={first.instance!r}, bounds={first.bounds!r}, "
        "verdict='holds', expected_violation=False, details={'eta': '2'}, note='a note')")


def test_bound_checks_are_judged_once_and_written_as_their_dicts():
    def bound(relation, lhs, rhs):
        return BoundCheck("upper", relation, "x", "y", Fraction(lhs), Fraction(rhs))

    cases = [  # (relation, lhs, rhs, verdict, equality, slack)
        ("<=", "1/3", "1/2", HOLDS, False, "3/2"),
        ("<=", "6", "6", HOLDS, True, "1"),
        ("<=", "9/2", "3", VIOLATED, False, "2/3"),
        ("==", "1/3", "1/2", VIOLATED, False, "3/2"),
        ("==", "4/6", "2/3", HOLDS, True, "1"),
        ("==", "5", "0", VIOLATED, False, "0"),
        ("<=", "0", "7", HOLDS, False, None),
        ("<=", "-2", "7", HOLDS, False, None),
    ]
    for relation, lhs, rhs, verdict, equality, slack in cases:
        b = bound(relation, lhs, rhs)
        assert (b.verdict, b.equality, b.to_dict()["slack"]) == (verdict, equality, slack)
        assert b.to_json() == json.dumps(b.to_dict(), sort_keys=True, separators=(",", ":"))


def test_bound_checks_keep_their_verdict_equality_and_slack():
    b = BoundCheck("upper", "<=", "x", "y", Fraction(1, 3), Fraction(1, 2))
    for name in ("verdict", "equality", "lhs"):
        with pytest.raises(AttributeError):
            setattr(b, name, None)
    for twin in (b, copy.deepcopy(b)):
        assert twin == b and hash(twin) == hash(b)
        assert (twin.verdict, twin.equality, twin.slack) == (HOLDS, False, Fraction(3, 2))
    # equal only to a bound, not to a tuple of its fields
    assert b != tuple(b) and tuple(b) != b and not b == tuple(b)


# small denominators often meet, so both kinds of common denominator show
_SIDES = st.builds(Fraction, st.integers(0, 10**30),
                   st.sampled_from([1, 6, 81]) | st.integers(1, 10**12)) | st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(7, 3)])


@settings(max_examples=300, deadline=None)
@given(relation=st.sampled_from(["<=", "=="]), lhs=_SIDES, rhs=_SIDES, same_side=st.booleans())
def test_kept_cross_products_judge_and_write_as_the_sides_do(relation, lhs, rhs, same_side):
    # the products a bound keeps, over whichever common denominator, give
    # what the Fractions themselves give; equal sides, equal denominators
    # and lhs = 0 included
    if same_side:
        rhs = lhs
    b = BoundCheck("upper", relation, "x", "y", lhs, rhs)
    assert b.to_json() == json.dumps(b.to_dict(), sort_keys=True, separators=(",", ":"))
    assert b.slack == (rhs / lhs if lhs else None)
    assert b.equality == (lhs == rhs)
    assert b.verdict == (HOLDS if (lhs == rhs if relation == "==" else lhs <= rhs) else VIOLATED)


@pytest.mark.memo_counts
def test_memos_hold_only_what_reports_share(monkeypatch):
    # a second trial adds sources, and each source adds its own entries: its
    # build, its document and one Z grid per target (its class travels on
    # its jobs).  Each
    # new class adds its first source's walks, one Z memo per target (the
    # other members take the class's judgements and never walk), and a
    # bucket when no earlier class has its sorted vertex labels.  Nothing is
    # kept per report, and the judgements a class shares per system leave
    # the memo at its last job, so the memos of the cubic campaign do not
    # grow with its 3,600 reports (nor its peak RSS)
    runs = []

    class Spy(certify_mod._Quantities):
        def __init__(self, budget):
            super().__init__(budget)
            runs.append(self)

    monkeypatch.setattr(certify_mod, "_Quantities", Spy)

    def memos(trials):
        runs.clear()
        report_stream(iter_campaign(_cubic_config(
            (4, 5), trials, 50_000_000,
            ["weighted-ub", "eta-sandwich", "nonbipartite-lower-bound-failure"])))
        (q,) = runs
        return {name: memo for name, memo in vars(q).items() if isinstance(memo, dict)}

    one, two = memos(1), memos(2)
    # one value memo, keyed by kind; the others hold the plan: the grids, the
    # classes' first sources and the judgements they share
    assert one.keys() == two.keys() == {"_values", "_grids", "_buckets", "_judged"}
    # every class's judgements are dropped by the end of the run
    assert one["_judged"] == two["_judged"] == {}
    added = {name: len(two[name]) - len(one[name]) for name in one}
    # one trial draws a class per half; two draw one class of half 4 (K_{4,4}
    # less a perfect matching) and two of half 5, whose new class has sorted
    # vertex labels (4-cycles through each vertex) of its own
    new_sources, new_classes, new_buckets, targets = 2, 1, 1, 2
    assert sum(added.values()) == (new_sources * (2 + targets)
                                   + new_classes * targets + new_buckets)
    assert added["_grids"] == new_sources * targets
    assert added["_buckets"] == new_buckets
    one_kinds = Counter(key[0] for key in one["_values"])
    kinds = Counter(key[0] for key in two["_values"]) - one_kinds
    assert kinds == {"source": new_sources, "doc": new_sources, "z": new_classes * targets}
    # each resolved system is kept once by value, the one object its jobs
    # list, so the id()-keyed entries of equal systems are one entry
    assert one_kinds["acts"] == one_kinds["system"] == 9 * targets
    # the bounds' right sides are shared: one per (value, sizes), not per
    # report, so the second trial adds none
    assert one_kinds["power"] and "power" not in kinds


def test_report_stream_of_a_generator_equals_that_of_a_list():
    # each report is a fresh copy, dropped once written, so a stream memo
    # that did not hold its values would meet their ids again in later copies
    reports = run_campaign(_small_config())
    assert report_stream(copy.deepcopy(r) for r in reports) == report_stream(reports)
    assert report_stream(reports) == "".join(_dict_line(r) + "\n" for r in reports)


# --- grid entry resolution ----------------------------------------------------------


def test_resolve_target_shorthands():
    assert resolve_target("hind") == HIND
    assert resolve_target("k5") == complete_graph(5)
    assert resolve_target("looped-k2") == complete_graph(2, loops=True)
    assert resolve_target("loop") == complete_graph(1, loops=True)
    assert resolve_target({"vertices": 1, "edges": [], "loops": [0]}) == complete_graph(1, loops=True)
    with pytest.raises(GraphFormatError):
        resolve_target("q3")


def test_resolve_target_charges_complete_graphs_to_the_budget():
    # K3: 3 vertices plus 3 edges
    with pytest.raises(BudgetExceededError):
        resolve_target("looped-k3", budget=5)
    assert resolve_target("k3", budget=6) == complete_graph(3)


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
    # a mu-only pair reads as in an activity document: lambda defaults to 1
    document = resolve_activities({"activities": {"0": {"mu": "2"}, "1": {"mu": "2"}}}, 2)
    assert document.lambdas == (1, 1) and document.mus == (2, 2)
    for entry in ({"uniform": {"mu": "2"}}, {"mu": "2"}):
        assert resolve_activities(entry, 2) == document
    # a malformed entry is named by its own key
    with pytest.raises(GraphFormatError, match="'vertex' must map vertex indices to pairs"):
        resolve_activities({"vertex": 5}, 2)
    with pytest.raises(GraphFormatError, match="'activities' must map vertex indices to pairs"):
        resolve_activities({"activities": 5}, 2)
