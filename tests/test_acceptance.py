"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with `pytest -s`) and
enforces the criterion's stated tolerance, which is exact equality
everywhere, plus a wall-clock ceiling.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from homcert import (
    ActivitySystem,
    certify_bireg,
    certify_double_identity,
    certify_hom_ub,
    certify_lift_identity,
    complete_graph,
    count_homs,
    count_homs_restricted,
    count_independent_sets,
    eta_two_sided,
    gen_complete_bipartite,
    gen_even_cycle,
    gen_hypercube,
    independence_target,
    kab_partition,
    knn_restricted_count,
    parse_bipartite,
    report_stream,
    run_campaign,
    validate_witness,
)
from homcert.certify import HOLDS, VIOLATED
from homcert.cli import _fixture_path
from helpers import is_union_of_balanced_complete_bipartite, random_two_sorted

HIND = independence_target()
_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
K3 = complete_graph(3)

_RESULTS = []


class _criterion:
    def __init__(self, num, name, limit):
        self.num, self.name, self.limit = num, name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        line = f"criterion {self.num:2d} [{self.name}]: {status} ({elapsed:.2f}s / limit {self.limit:g}s)"
        _RESULTS.append(line)
        print(line)
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.num} exceeded {self.limit}s: {elapsed:.2f}s"
        return False


def test_criterion_01_independent_set_extremal_formula():
    with _criterion(1, "independent-set extremal formula", limit=1.0):
        for n in range(1, 11):
            g = gen_complete_bipartite(n, n).graph
            expected = 2 ** (n + 1) - 1
            assert count_homs(g, HIND) == expected, n
            assert count_independent_sets(g) == expected, n


def test_criterion_02_weighted_knn_closed_form():
    with _criterion(2, "weighted closed form on K_{n,n}", limit=1.0):
        values = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
        for n in (1, 2, 3, 4):
            for lam in values:
                for mu in values:
                    acts = ActivitySystem.from_mapping(2, {0: (lam, mu)})
                    got = kab_partition(n, n, HIND, acts)
                    assert got == (1 + lam) ** n + (1 + mu) ** n - 1, (n, lam, mu)


def test_criterion_03_eta_of_complete_graphs():
    with _criterion(3, "eta of complete graphs", limit=1.0):
        for k in range(2, 9):
            h = complete_graph(k)
            w = eta_two_sided(h, ActivitySystem.unit(k))
            assert w.value == (k // 2) * ((k + 1) // 2), k
            assert validate_witness(h, ActivitySystem.unit(k), w), k


def test_criterion_04_subset_sum_oracle_equivalence():
    with _criterion(4, "subset-sum vs backtracking equivalence", limit=30.0):
        rng = random.Random(40401)
        for trial in range(200):
            target = random_two_sorted(rng, max_side=5)
            for n in range(1, 5):
                closed = knn_restricted_count(n, target)
                brute = count_homs_restricted(gen_complete_bipartite(n, n), target)
                assert closed == brute, (trial, n)


def _criterion5_systems(k):
    pattern_l = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    pattern_m = [Fraction(1), Fraction(1, 2), Fraction(1)]
    return (
        ActivitySystem.unit(k),
        ActivitySystem.uniform(k, Fraction(1, 2)),
        ActivitySystem.uniform(k, Fraction(3, 2), Fraction(1)),
        ActivitySystem.uniform(k, Fraction(1, 3), Fraction(2)),
        ActivitySystem(
            tuple(pattern_l[i % 3] for i in range(k)),
            tuple(pattern_m[i % 3] for i in range(k)),
        ),
    )


def test_criterion_05_lift_and_doubling_identities():
    with _criterion(5, "lift and doubling identities", limit=60.0):
        sources = (gen_even_cycle(4), gen_even_cycle(6), gen_hypercube(3), gen_complete_bipartite(2, 2))
        targets = (HIND, complete_graph(2), K3, complete_graph(2, loops=True))
        for g in sources:
            for h in targets:
                assert certify_double_identity(g, h).verdict == HOLDS, (g, h)
                for acts in _criterion5_systems(h.vertex_count):
                    report = certify_lift_identity(g, h, acts)
                    assert report.verdict == HOLDS, (g, h, acts)


@pytest.fixture(scope="module")
def cubic_campaign():
    config = {
        "seed": 77001,
        "trials": 20,
        "budget": 50_000_000,
        "families": [
            {"family": "random-regular", "degree": 3, "half": half} for half in (4, 5, 6, 7, 8)
        ],
        "grids": {
            "targets": ["hind", "k3"],
            "activities": [
                {"vertex": {"0": {"lambda": lam, "mu": mu}}}
                for lam in ("1/3", "1/2", "2")
                for mu in ("1/3", "1/2", "2")
            ],
        },
        "propositions": ["weighted-ub", "eta-sandwich", "nonbipartite-lower-bound-failure"],
    }
    start = time.perf_counter()
    reports = run_campaign(config)
    return reports, time.perf_counter() - start


def test_criterion_06_weighted_bound_campaign(cubic_campaign):
    reports, elapsed = cubic_campaign
    with _criterion(6, "weighted upper-bound campaign", limit=600.0):
        assert elapsed < 600.0
        weighted = [r for r in reports if r.check == "weighted-ub"]
        assert len(weighted) == 100 * 2 * 9
        assert all(r.verdict == HOLDS for r in weighted)
        assert all(r.instance["N"] <= 16 for r in weighted)


def test_criterion_07_sandwich_campaign_and_nonbipartite_failure(cubic_campaign):
    reports, _ = cubic_campaign
    with _criterion(7, "sandwich campaign + documented failure", limit=600.0):
        sandwich = [r for r in reports if r.check == "eta-sandwich"]
        assert len(sandwich) == 100 * 2 * 9
        for r in sandwich:
            assert r.verdict == HOLDS
            assert [b.verdict for b in r.bounds] == [HOLDS, HOLDS]
        demos = [r for r in reports if r.check == "nonbipartite-lower-bound-failure"]
        assert len(demos) == 1
        demo = demos[0]
        assert demo.expected_violation and demo.verdict == VIOLATED
        assert demo.details["Z_g"] == "0" and demo.details["eta"] == "1"
        lower = demo.bounds[0]
        assert lower.lhs == 1 and lower.rhs == 0  # eta^N = 1 > Z^2 = 0


def test_criterion_08_biregular_bound():
    with _criterion(8, "biregular bound", limit=30.0):
        weighted = ActivitySystem.from_mapping(2, {0: ("1/3", "2")})
        for a, b in ((1, 2), (2, 3), (3, 2)):
            g = gen_complete_bipartite(a, b)
            for acts in (ActivitySystem.unit(2), weighted):
                report = certify_bireg(g, HIND, acts)
                assert report.verdict == HOLDS and report.equality, (a, b)
        incidence = parse_bipartite(_fixture_path("incidence_k4.json").read_text())
        report = certify_bireg(incidence, HIND, ActivitySystem.unit(2))
        assert report.verdict == HOLDS and not report.equality


@pytest.fixture(scope="module")
def default_campaign():
    start = time.perf_counter()
    reports = run_campaign(_fixture_path("default-campaign.json"))
    return reports, time.perf_counter() - start


def test_criterion_09_extremality_equality_pattern(default_campaign):
    campaign, elapsed = default_campaign
    with _criterion(9, "extremality equality pattern", limit=60.0):
        assert elapsed < 60.0
        report = certify_hom_ub(gen_even_cycle(6), K3)
        (bound,) = report.bounds
        assert bound.lhs == 18974736 and bound.rhs == 34012224
        assert report.verdict == HOLDS and not report.equality

        hom_reports = [r for r in campaign if r.check == "hom-ub"]
        assert hom_reports
        seen_equality = False
        for r in hom_reports:
            g = parse_bipartite(json.dumps(r.instance["g"]))
            expect = is_union_of_balanced_complete_bipartite(g) and g.regular_degree() >= 1
            assert r.equality == expect, r.instance["g_spec"]
            seen_equality = seen_equality or expect
        assert seen_equality


def test_criterion_10_campaign_determinism_across_runs():
    with _criterion(10, "campaign determinism across runs", limit=120.0):
        cmd = [sys.executable, "-m", "homcert", "certify", "--config", "default"]
        runs = [subprocess.run(cmd, capture_output=True) for _ in range(3)]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout
        assert len(runs[0].stdout.splitlines()) > 300


# sha256 of the full report streams, details and notes included.  A change
# that alters a stream on purpose updates its digest and says so.
CUBIC_STREAM_SHA256 = "81a039b098814f00210e1ab090482de6110a8c8dc2e2428cfc940052174ed1c9"
DEFAULT_STREAM_SHA256 = "79783be118bd15216ef88a3c160168b12e61cf6867fd99575ee6ab7dadb40226"
# the benchmark's two other workloads (perfbench/workloads/): dense 16- and
# 18-vertex targets, and sources whose walks cost the most
WIDE_TARGETS_STREAM_SHA256 = "e057fd01158bdbfd6a72f30efcdd2bb8a35f8791b7d139d20333cca34b58fd36"
LARGE_SOURCES_STREAM_SHA256 = "bed936b14f3f098505c9557d7a06b3bd58a70cae6e082461ea0b308d18ed6590"


def test_full_report_streams_are_pinned(cubic_campaign, default_campaign):
    for reports, digest in ((cubic_campaign[0], CUBIC_STREAM_SHA256),
                            (default_campaign[0], DEFAULT_STREAM_SHA256)):
        assert hashlib.sha256(report_stream(reports).encode()).hexdigest() == digest


@pytest.mark.parametrize("workload, digest", [("wide-targets", WIDE_TARGETS_STREAM_SHA256),
                                               ("large-sources", LARGE_SOURCES_STREAM_SHA256)])
def test_benchmark_workload_streams_are_pinned(workload, digest):
    reports = run_campaign(_WORKLOADS / f"{workload}.json")
    assert hashlib.sha256(report_stream(reports).encode()).hexdigest() == digest


def test_report_lines_are_their_dicts(cubic_campaign, default_campaign):
    for reports in (cubic_campaign[0], default_campaign[0]):
        lines = [json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) for r in reports]
        assert [r.to_json_line() for r in reports] == lines
        assert report_stream(reports) == "".join(line + "\n" for line in lines)


def test_zz_summary():
    print()
    for line in _RESULTS:
        print(line)
