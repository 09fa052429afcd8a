import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homcert import (
    ActivitySystem,
    Graph,
    SubsetLimitError,
    complete_graph,
    eta_one_sided,
    eta_two_sided,
    eta_unweighted,
    independence_target,
    validate_witness,
)
from helpers import eta_by_pair_enumeration, random_activities, random_graph

HIND = independence_target()


def _common_neighbors(h, members):
    out = set(range(h.vertex_count))
    for i in members:
        out &= {j for j in range(h.vertex_count) if h.adjacent(i, j)}
    return out


def test_complete_graph_values():
    for k in range(2, 9):
        w = eta_unweighted(complete_graph(k))
        assert w.value == (k // 2) * ((k + 1) // 2)
        assert validate_witness(complete_graph(k), ActivitySystem.unit(k), w)


def test_independence_target_witness():
    w = eta_unweighted(HIND)
    assert w.value == 2
    assert w.set_a == (0, 1) and w.set_b == (1,)
    assert eta_by_pair_enumeration(HIND, ActivitySystem.unit(2)) == 2


def test_single_looped_vertex():
    loop = complete_graph(1, loops=True)
    w = eta_unweighted(loop)
    assert w.value == 1 and w.set_a == (0,) and w.set_b == (0,)


def test_weighted_independence_target():
    acts = ActivitySystem((Fraction(3), Fraction(1)), (Fraction(1), Fraction(1)))
    w = eta_two_sided(HIND, acts)
    assert w.value == 4
    assert w.set_a == (0, 1) and w.set_b == (1,)
    assert eta_by_pair_enumeration(HIND, acts) == 4


def test_loopless_edge():
    w = eta_unweighted(complete_graph(2))
    assert w.value == 1
    assert (w.set_a, w.set_b) in {((0,), (1,)), ((1,), (0,))}


def test_five_cycle():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    w = eta_unweighted(c5)
    assert w.value == eta_by_pair_enumeration(c5, ActivitySystem.unit(5)) == 2


def test_no_edges_gives_empty_witness():
    w = eta_unweighted(Graph(3))
    assert w.value == 0 and w.set_a == () and w.set_b == ()


def test_positive_iff_some_edge_or_loop():
    rng = random.Random(21)
    for _ in range(30):
        h = random_graph(rng, max_vertices=5)
        assert (eta_unweighted(h).value >= 1) == h.has_any_edge()


def test_one_sided_is_two_sided_with_equal_weights():
    rng = random.Random(3)
    for _ in range(10):
        h = random_graph(rng, max_vertices=5)
        lams = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(h.vertex_count)]
        one = eta_one_sided(h, lams)
        two = eta_two_sided(h, ActivitySystem(tuple(lams), tuple(lams)))
        assert one == two


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_pair_enumeration_agreement(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=6)
    acts = random_activities(rng, h.vertex_count)
    assert eta_two_sided(h, acts).value == eta_by_pair_enumeration(h, acts)


def test_pair_enumeration_agreement_ten_vertices():
    rng = random.Random(77)
    h = random_graph(rng, max_vertices=10, p=0.5)
    while h.vertex_count < 10:
        h = random_graph(rng, max_vertices=10, p=0.5)
    acts = random_activities(rng, 10)
    assert eta_two_sided(h, acts).value == eta_by_pair_enumeration(h, acts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_witness_is_closed_and_valid(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=6)
    acts = random_activities(rng, h.vertex_count)
    w = eta_two_sided(h, acts)
    assert validate_witness(h, acts, w)
    if w.value > 0:
        assert set(w.set_b) == _common_neighbors(h, w.set_a)
        assert set(w.set_a) == _common_neighbors(h, w.set_b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_swap_duality(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=6)
    acts = random_activities(rng, h.vertex_count)
    assert eta_two_sided(h, acts).value == eta_two_sided(h, acts.swapped()).value


def test_validate_witness_rejects_wrong_claims():
    from homcert import EtaWitness

    acts = ActivitySystem.unit(2)
    assert not validate_witness(HIND, acts, EtaWitness((0,), (0,), Fraction(1)))  # not cross-complete
    assert not validate_witness(HIND, acts, EtaWitness((0, 1), (1,), Fraction(3)))  # wrong value


def test_subset_budget():
    with pytest.raises(SubsetLimitError):
        eta_unweighted(complete_graph(4), budget=15)
    assert eta_unweighted(complete_graph(4), budget=16).value == 4
