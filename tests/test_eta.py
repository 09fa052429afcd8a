import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homcert import (
    ActivitySystem,
    BudgetExceededError,
    EtaWitness,
    Graph,
    complete_graph,
    eta_two_sided,
    independence_target,
    validate_witness,
)
from homcert.graphs import twin_classes
from homcert.homcount import resolve_activities
from helpers import (activity_system, eta_by_pair_enumeration, eta_by_subsets, random_activities,
                     random_graph, random_twin_target)

HIND = independence_target()


def _common_neighbors(h, members):
    out = set(range(h.vertex_count))
    for i in members:
        out &= {j for j in range(h.vertex_count) if h.adjacent(i, j)}
    return out


def test_complete_graph_values():
    for k in range(2, 9):
        w = eta_two_sided(complete_graph(k), ActivitySystem.unit(k))
        assert w.value == (k // 2) * ((k + 1) // 2)
        assert validate_witness(complete_graph(k), ActivitySystem.unit(k), w)


def test_independence_target_witness():
    w = eta_two_sided(HIND, ActivitySystem.unit(2))
    assert w.value == 2
    assert w.set_a == (0, 1) and w.set_b == (1,)
    assert eta_by_pair_enumeration(HIND, ActivitySystem.unit(2)) == 2


def test_single_looped_vertex():
    loop = complete_graph(1, loops=True)
    w = eta_two_sided(loop, ActivitySystem.unit(1))
    assert w.value == 1 and w.set_a == (0,) and w.set_b == (0,)


def test_weighted_independence_target():
    acts = ActivitySystem((Fraction(3), Fraction(1)), (Fraction(1), Fraction(1)))
    w = eta_two_sided(HIND, acts)
    assert w.value == 4
    assert w.set_a == (0, 1) and w.set_b == (1,)
    assert eta_by_pair_enumeration(HIND, acts) == 4


def test_loopless_edge():
    w = eta_two_sided(complete_graph(2), ActivitySystem.unit(2))
    assert w.value == 1
    assert (w.set_a, w.set_b) in {((0,), (1,)), ((1,), (0,))}


def test_five_cycle():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    w = eta_two_sided(c5, ActivitySystem.unit(5))
    assert w.value == eta_by_pair_enumeration(c5, ActivitySystem.unit(5)) == 2


def test_no_edges_gives_empty_witness():
    w = eta_two_sided(Graph(3), ActivitySystem.unit(3))
    assert w.value == 0 and w.set_a == () and w.set_b == ()


def test_positive_iff_some_edge_or_loop():
    rng = random.Random(21)
    for _ in range(30):
        h = random_graph(rng, max_vertices=5)
        w = eta_two_sided(h, ActivitySystem.unit(h.vertex_count))
        assert (w.value >= 1) == any(h.neighbors)


def test_one_sided_is_two_sided_with_equal_weights():
    # "lambda" alone sets both sides of a vertex (the one-sided model)
    rng = random.Random(3)
    for _ in range(10):
        h = random_graph(rng, max_vertices=5)
        lams = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(h.vertex_count)]
        doc = {"activities": {str(v): {"lambda": str(lam)} for v, lam in enumerate(lams)}}
        one = eta_two_sided(h, resolve_activities(doc, h.vertex_count))
        two = ActivitySystem(tuple(lams), tuple(lams))
        assert one == eta_two_sided(h, two)
        assert one.value == eta_by_pair_enumeration(h, two)


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
    swapped = ActivitySystem(acts.mus, acts.lambdas)
    assert eta_two_sided(h, acts).value == eta_two_sided(h, swapped).value


def test_validate_witness_rejects_wrong_claims():
    acts = ActivitySystem.unit(2)
    assert not validate_witness(HIND, acts, EtaWitness((0,), (0,), Fraction(1)))  # not cross-complete
    assert not validate_witness(HIND, acts, EtaWitness((0, 1), (1,), Fraction(3)))  # wrong value


def test_subset_budget():
    # K4's vertices are twins, so the walk visits {}, {0}, {0, 1} and
    # {0, 1, 2} and tries 4 + 3 + 2 + 1 candidate vertices
    k4, unit = complete_graph(4), ActivitySystem.unit(4)
    with pytest.raises(BudgetExceededError):
        eta_two_sided(k4, unit, budget=9)
    assert eta_two_sided(k4, unit, budget=10).value == 4


def test_twin_free_target_walks_every_set():
    # distinct lambdas leave K4 twin-free: the walk visits all 15 sets of its
    # complex and tries 4 + 3 + 2 + 1 + 2 + 1 + 1 + 1 candidate vertices
    acts = activity_system([(1, 1), (2, 1), (3, 1), (4, 1)])
    assert twin_classes(complete_graph(4).neighbor_masks(), (acts.lambdas, acts.mus)) == []
    with pytest.raises(BudgetExceededError):
        eta_two_sided(complete_graph(4), acts, budget=14)
    assert eta_two_sided(complete_graph(4), acts, budget=15) == EtaWitness((2, 3), (0, 1), 14)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["unit", "rational"]))
def test_witness_matches_subset_oracle(seed, weights):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=10, p=rng.choice([0.2, 0.5, 0.8]),
                     loop_p=rng.choice([0.0, 0.3]))
    if weights == "unit":
        acts = ActivitySystem.unit(h.vertex_count)
    else:
        acts = random_activities(rng, h.vertex_count)
    assert eta_two_sided(h, acts) == eta_by_subsets(h, acts)


def test_eta_on_a_target_past_any_subset_table():
    # 2^200 subsets; the walk of the 200-cycle's neighbourhood complex is short
    c200 = Graph(200, [(i, (i + 1) % 200) for i in range(200)])
    assert eta_two_sided(c200, ActivitySystem.unit(200)) == EtaWitness((0,), (1, 199), 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_twin_targets_match_subset_oracle(seed):
    h, acts = random_twin_target(random.Random(seed))
    assert eta_two_sided(h, acts) == eta_by_subsets(h, acts)


def test_unit_k25_answers_at_once():
    # one twin class: 25 + 24 + ... + 1 candidate vertices, not 2^25 - 1
    expected = EtaWitness(tuple(range(12)), tuple(range(12, 25)), 156)
    k25, unit = complete_graph(25), ActivitySystem.unit(25)
    assert eta_two_sided(k25, unit) == expected
    assert eta_two_sided(k25, unit, budget=325) == expected
    with pytest.raises(BudgetExceededError):
        eta_two_sided(k25, unit, budget=324)


def test_complete_target_with_one_weighted_vertex():
    # two twin classes, {0} and the rest; the oracle reaches the small sizes
    acts = lambda m: ActivitySystem.from_mapping(m, {0: ("1/2", "2")})
    for m in range(2, 12):
        assert eta_two_sided(complete_graph(m), acts(m)) == eta_by_subsets(complete_graph(m), acts(m))
    assert eta_two_sided(complete_graph(200), acts(200)) == EtaWitness(
        tuple(range(1, 101)), (0, *range(101, 200)), 10100)
