import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from homcert import (
    ActivitySystem,
    BudgetExceededError,
    complete_graph,
    count_homs_restricted,
    double,
    gen_complete_bipartite,
    independence_target,
    kab_partition,
    knn_restricted_count,
    partition_fn,
    surjection_count,
)
from homcert.errors import DEFAULT_BUDGET
from homcert.graphs import BipartiteGraph, Graph
from helpers import (
    activity_system,
    kab_partition_by_subsets,
    knn_restricted_by_subsets,
    partition_by_enumeration,
    random_activities,
    random_graph,
    random_twin_target,
    random_two_sorted,
    restricted_count_by_enumeration,
    surjections_by_enumeration,
    weighted_surjection_sum,
    weighted_surjections_by_enumeration,
)

HIND = independence_target()


# --- surjections -------------------------------------------------------------


def test_surjection_count_examples():
    assert all(surjection_count(n, 1) == 1 for n in range(1, 6))
    assert surjection_count(2, 2) == surjections_by_enumeration(2, 2) == 2
    assert surjection_count(2, 3) == 0
    assert surjection_count(0, 0) == 1
    assert surjection_count(3, 0) == 0


def test_surjection_count_matches_enumeration():
    for n in range(0, 5):
        for a in range(0, 5):
            assert surjection_count(n, a) == surjections_by_enumeration(n, a)


def test_maps_partition_by_image():
    # every map surjects onto its image: summing over image sizes recovers b^n
    for n in range(0, 5):
        for b in range(0, 5):
            assert sum(comb(b, s) * surjection_count(n, s) for s in range(b + 1)) == b**n


def test_weighted_surjection_sum_unit_weights():
    for n in range(0, 5):
        for a in range(0, 4):
            assert weighted_surjection_sum([1] * a, n) == surjection_count(n, a)


def test_weighted_surjection_sum_matches_enumeration():
    rng = random.Random(2)
    for _ in range(15):
        a = rng.randint(0, 3)
        n = rng.randint(0, 4)
        mus = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(a)]
        assert weighted_surjection_sum(mus, n) == weighted_surjections_by_enumeration(mus, n)


# --- restricted closed form ----------------------------------------------------


def test_knn_restricted_examples():
    assert knn_restricted_count(2, double(HIND)) == 7
    # doubled triangle: |A|=1 gives 3*1*2^2 = 12, |A|=2 gives 3*2*1^2 = 6
    assert knn_restricted_count(2, double(complete_graph(3))) == 18
    empty_lower = BipartiteGraph(Graph(3), (0, 1, 2))
    assert knn_restricted_count(2, empty_lower) == 0
    with pytest.raises(ValueError):
        knn_restricted_count(0, double(HIND))


def test_knn_restricted_subset_budget():
    # 3 lower vertices per state: 1 state for the first item, then one per
    # common neighbourhood of a single lower vertex (3), so 3 + 9 = 12 units
    target = double(complete_graph(3))
    with pytest.raises(BudgetExceededError):
        knn_restricted_count(2, target, budget=11)
    assert knn_restricted_count(2, target, budget=12) == 18


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_knn_restricted_matches_subset_oracle(seed):
    rng = random.Random(seed)
    target = random_two_sorted(rng, max_side=5, p=rng.random())
    n = rng.randint(1, 4)
    assert knn_restricted_count(n, target) == knn_restricted_by_subsets(n, target)


def test_knn_restricted_matches_backtracking():
    rng = random.Random(0)
    for trial in range(40):
        target = random_two_sorted(rng, max_side=4)
        for n in range(1, 4):
            g = gen_complete_bipartite(n, n)
            assert knn_restricted_count(n, target) == count_homs_restricted(g, target), (
                trial,
                n,
            )


def test_knn_restricted_matches_enumeration_small():
    rng = random.Random(9)
    for _ in range(10):
        target = random_two_sorted(rng, max_side=3)
        g = gen_complete_bipartite(2, 2)
        assert knn_restricted_count(2, target) == restricted_count_by_enumeration(g, target)


# --- weighted closed forms ------------------------------------------------------


def test_knn_partition_unit_equals_restricted_count():
    rng = random.Random(4)
    for _ in range(20):
        h = random_graph(rng, max_vertices=4)
        for n in (1, 2, 3):
            assert kab_partition(n, n, h, ActivitySystem.unit(h.vertex_count)) == (
                knn_restricted_count(n, double(h)))


def test_knn_partition_independence_closed_form():
    for n in (1, 2, 3):
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for mu in (Fraction(1, 2), Fraction(1), Fraction(2)):
                acts = ActivitySystem.from_mapping(2, {0: (lam, mu)})
                assert kab_partition(n, n, HIND, acts) == (1 + lam) ** n + (1 + mu) ** n - 1


def test_knn_partition_triangle_unit():
    assert kab_partition(2, 2, complete_graph(3), ActivitySystem.unit(3)) == 18


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_knn_partition_matches_oracle(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=3)
    acts = random_activities(rng, h.vertex_count)
    n = rng.randint(1, 3)
    assert kab_partition(n, n, h, acts) == partition_fn(gen_complete_bipartite(n, n), h, acts)


def test_knn_partition_swap_symmetry():
    rng = random.Random(8)
    for _ in range(20):
        h = random_graph(rng, max_vertices=4)
        acts = random_activities(rng, h.vertex_count)
        n = rng.randint(1, 3)
        swapped = ActivitySystem(acts.mus, acts.lambdas)
        assert kab_partition(n, n, h, acts) == kab_partition(n, n, h, swapped)


# --- biregular closed form -------------------------------------------------------


def test_kab_examples():
    unit2 = ActivitySystem.unit(2)
    assert kab_partition(1, 1, complete_graph(2), unit2) == 2
    assert kab_partition(2, 1, HIND, unit2) == 5
    assert kab_partition(2, 1, HIND, unit2) == partition_by_enumeration(
        gen_complete_bipartite(2, 1), HIND, unit2
    )


def test_kab_equals_knn_on_square_sides():
    rng = random.Random(14)
    for _ in range(15):
        h = random_graph(rng, max_vertices=3)
        acts = random_activities(rng, h.vertex_count)
        n = rng.randint(1, 3)
        assert kab_partition(n, n, h, acts) == kab_partition_by_subsets(n, n, h, acts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_kab_matches_oracle(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=3)
    acts = random_activities(rng, h.vertex_count)
    a = rng.randint(1, 3)
    b = rng.randint(1, 3)
    assert kab_partition(a, b, h, acts) == partition_fn(gen_complete_bipartite(a, b), h, acts)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_kab_matches_subset_oracle(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=8, p=rng.random())
    acts = random_activities(rng, h.vertex_count)
    a = rng.randint(1, 4)
    b = rng.randint(1, 4)
    assert kab_partition(a, b, h, acts) == kab_partition_by_subsets(a, b, h, acts)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_kab_on_twin_targets_matches_subset_oracle(seed):
    rng = random.Random(seed)
    h, acts = random_twin_target(rng)
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    assert kab_partition(a, b, h, acts) == kab_partition_by_subsets(a, b, h, acts)


def test_kab_keeps_one_state_per_twin_orbit():
    # K4's vertices are twins: the three steps extend 1, 1 and 2 states of 4
    # candidate images each; distinct lambdas leave it twin-free, and then
    # they extend 1, 4 and 10
    k4 = complete_graph(4)
    for acts, cost in ((ActivitySystem.unit(4), 16),
                       (activity_system([(1, 1), (2, 1), (3, 1), (4, 1)]), 60)):
        with pytest.raises(BudgetExceededError):
            kab_partition(1, 3, k4, acts, budget=cost - 1)
        assert kab_partition(1, 3, k4, acts, budget=cost) == kab_partition_by_subsets(1, 3, k4, acts)


def test_kab_on_a_target_past_any_subset_table():
    # 2^40 image sets; the maps of the 3-side with k distinct images leave
    # 40 - k common neighbours in K40
    k40 = complete_graph(40)
    expected = sum(comb(40, k) * surjection_count(3, k) * (40 - k) ** 3 for k in range(4))
    assert kab_partition(3, 3, k40, ActivitySystem.unit(40)) == expected


def test_kab_subset_budget_and_sizes():
    # b = 1: one state, charged one unit per target vertex
    k3, unit = complete_graph(3), ActivitySystem.unit(3)
    with pytest.raises(BudgetExceededError):
        kab_partition(1, 1, k3, unit, budget=2)
    assert kab_partition(1, 1, k3, unit, budget=3) == 6
    with pytest.raises(ValueError):
        kab_partition(0, 1, HIND, ActivitySystem.unit(2))


def test_closed_forms_refuse_a_huge_answer_before_counting():
    # kab(a, 1) into unit K3 is 3 * 2^a, bounded by a * bitlen(3) + bitlen(3)
    # = 2a + 2 bits; the bound is held to the larger of the budget and the
    # default, so a small budget still answers by the meter alone
    k3, unit = complete_graph(3), ActivitySystem.unit(3)
    a = (DEFAULT_BUDGET - 2) // 2
    assert kab_partition(a, 1, k3, unit) == 3 << a
    assert kab_partition(1000, 1, k3, unit, budget=3) == 3 << 1000
    with pytest.raises(BudgetExceededError, match="bits"):
        kab_partition(a + 1, 1, k3, unit)
    with pytest.raises(BudgetExceededError, match="bits"):
        kab_partition(a, a, k3, unit)
    # lambda = 1/1000 everywhere: 3 / 500^a, whose denominator counts too, so
    # the bound is a * (bitlen(3) + bitlen(999)) + bitlen(3) = 12a + 2 bits
    small = ActivitySystem.from_mapping(3, {v: ("1/1000", "1") for v in range(3)})
    assert kab_partition(1000, 1, k3, small) == Fraction(3, 500**1000)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="bits"):
        kab_partition((DEFAULT_BUDGET - 2) // 12 + 1, 1, k3, small)
    assert time.perf_counter() - start < 1
    # |upper| = |lower| = 3: n * (2 + 2) bits
    with pytest.raises(BudgetExceededError, match="bits"):
        knn_restricted_count(DEFAULT_BUDGET // 4 + 1, double(k3))
    assert knn_restricted_count(1, double(k3), budget=3) == 6
    # a + 1 terms of at most a + n * bitlen(a) bits each: 51 * (50 + 6n) for a = 50
    with pytest.raises(BudgetExceededError, match="bits"):
        surjection_count(10**8, 50)
    with pytest.raises(BudgetExceededError, match="bits"):
        surjection_count(DEFAULT_BUDGET // 306 + 1, 50, budget=DEFAULT_BUDGET)
    assert surjection_count(DEFAULT_BUDGET // 306 - 9, 50) > 0
    # the answer is one bit, but the sum has 10^5 + 1 terms of up to 1.7M bits
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="bits"):
        surjection_count(10**5, 10**5)
    assert surjection_count(1, 10**8) == 0 and time.perf_counter() - start < 1
    assert surjection_count(3, 2, budget=0) == 6
