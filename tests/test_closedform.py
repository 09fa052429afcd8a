import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from homcert import (
    ActivitySystem,
    SubsetLimitError,
    complete_graph,
    count_homs_restricted,
    double,
    gen_complete_bipartite,
    independence_target,
    kab_partition,
    knn_partition,
    knn_restricted_count,
    partition_fn,
    surjection_count,
    two_sorted,
    weighted_surjection_sum,
)
from homcert.graphs import Graph
from helpers import (
    partition_by_enumeration,
    random_activities,
    random_graph,
    random_two_sorted,
    restricted_count_by_enumeration,
    surjections_by_enumeration,
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
    empty_lower = two_sorted(Graph(3), upper=(0, 1, 2))
    assert knn_restricted_count(2, empty_lower) == 0
    with pytest.raises(ValueError):
        knn_restricted_count(0, double(HIND))


def test_term_breakdown_matches_totals_and_example():
    from homcert import knn_partition_terms, knn_restricted_terms

    target = double(complete_graph(3))
    terms = knn_restricted_terms(2, target)
    assert sum(t.term for t in terms) == knn_restricted_count(2, target) == 18
    by_size = {}
    for t in terms:
        by_size.setdefault(len(t.subset), Fraction(0))
        by_size[len(t.subset)] += t.term
    assert by_size[1] == 12 and by_size[2] == 6  # 3*1*2^2 and 3*2*1^2
    empty = next(t for t in terms if t.subset == ())
    assert set(empty.common_neighbors) == target.upper
    assert empty.term == 0

    rng = random.Random(17)
    for _ in range(10):
        h = random_graph(rng, max_vertices=3)
        acts = random_activities(rng, h.vertex_count)
        n = rng.randint(1, 3)
        terms = knn_partition_terms(n, h, acts)
        assert sum((t.term for t in terms), Fraction(0)) == knn_partition(n, h, acts)


def test_knn_restricted_subset_budget():
    # the lower side has 3 vertices, so the subset table has 2^3 entries
    target = double(complete_graph(3))
    with pytest.raises(SubsetLimitError):
        knn_restricted_count(2, target, budget=7)
    assert knn_restricted_count(2, target, budget=8) == knn_restricted_count(2, target)


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
            assert knn_partition(n, h, ActivitySystem.unit(h.vertex_count)) == knn_restricted_count(
                n, double(h)
            )


def test_knn_partition_independence_closed_form():
    for n in (1, 2, 3):
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for mu in (Fraction(1, 2), Fraction(1), Fraction(2)):
                acts = ActivitySystem.from_mapping(2, {0: (lam, mu)})
                assert knn_partition(n, HIND, acts) == (1 + lam) ** n + (1 + mu) ** n - 1


def test_knn_partition_triangle_unit():
    assert knn_partition(2, complete_graph(3), ActivitySystem.unit(3)) == 18


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_knn_partition_matches_oracle(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=3)
    acts = random_activities(rng, h.vertex_count)
    n = rng.randint(1, 3)
    assert knn_partition(n, h, acts) == partition_fn(gen_complete_bipartite(n, n), h, acts)


def test_knn_partition_swap_symmetry():
    rng = random.Random(8)
    for _ in range(20):
        h = random_graph(rng, max_vertices=4)
        acts = random_activities(rng, h.vertex_count)
        n = rng.randint(1, 3)
        assert knn_partition(n, h, acts) == knn_partition(n, h, acts.swapped())


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
        assert kab_partition(n, n, h, acts) == knn_partition(n, h, acts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_kab_matches_oracle(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=3)
    acts = random_activities(rng, h.vertex_count)
    a = rng.randint(1, 3)
    b = rng.randint(1, 3)
    assert kab_partition(a, b, h, acts) == partition_fn(gen_complete_bipartite(a, b), h, acts)


def test_kab_subset_budget_and_sizes():
    k3, unit = complete_graph(3), ActivitySystem.unit(3)
    with pytest.raises(SubsetLimitError):
        kab_partition(1, 1, k3, unit, budget=7)
    assert kab_partition(1, 1, k3, unit, budget=8) == 6
    with pytest.raises(ValueError):
        kab_partition(0, 1, HIND, ActivitySystem.unit(2))
