import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from homcert import (
    ActivitySystem,
    Graph,
    GraphFormatError,
    TwoSortedTarget,
    blowup,
    complete_graph,
    count_homs,
    count_homs_restricted,
    double,
    gen_complete_bipartite,
    gen_even_cycle,
    independence_target,
    parse_two_sorted,
    partition_fn,
    scale_constant,
    serialize_two_sorted,
    two_sorted,
)
from homcert.constructions import blowup_size
from helpers import random_activities, random_bipartite, random_graph

HIND = independence_target()
LOOP = complete_graph(1, loops=True)


def test_double_independence_target():
    d = double(HIND)
    assert d.graph.vertex_count == 4
    assert sorted(d.graph.edges()) == [(0, 3), (1, 2), (1, 3)]
    assert d.upper == frozenset({0, 1}) and d.lower == frozenset({2, 3})
    assert d.provenance == ((0, "U", 0), (1, "U", 0), (0, "L", 0), (1, "L", 0))


def test_double_single_loop_is_single_edge():
    d = double(LOOP)
    assert d.graph.edges() == [(0, 1)]


def test_double_loopless_edge_swaps():
    d = double(complete_graph(2))
    assert sorted(d.graph.edges()) == [(0, 3), (1, 2)]


def test_scale_constant():
    assert scale_constant(ActivitySystem.unit(3)) == 1
    assert scale_constant(ActivitySystem((Fraction(3, 2),), (Fraction(1),))) == 2
    assert scale_constant(ActivitySystem((Fraction(2, 3),), (Fraction(5, 4),))) == 12


def test_blowup_unit_is_double():
    for h in (HIND, complete_graph(3), LOOP):
        target, meta = blowup(h, ActivitySystem.unit(h.vertex_count))
        assert meta.scale == 1
        assert target == double(h)


def test_blowup_single_loop():
    target, meta = blowup(LOOP, ActivitySystem((Fraction(3, 2),), (Fraction(1),)))
    assert meta.scale == 2
    assert meta.upper_copies == (3,) and meta.lower_copies == (2,)
    assert len(target.upper) == 3 and len(target.lower) == 2
    assert len(target.graph.edges()) == 6  # complete join of the copies


def test_blowup_vertex_count_is_scaled_activity_sum():
    rng = random.Random(5)
    for _ in range(20):
        h = random_graph(rng, max_vertices=4)
        acts = random_activities(rng, h.vertex_count)
        target, meta = blowup(h, acts)
        expected = meta.scale * sum(acts.lambdas + acts.mus, Fraction(0))
        assert target.graph.vertex_count == expected


def test_blowup_size_mismatch():
    with pytest.raises(GraphFormatError):
        blowup(HIND, ActivitySystem.unit(3))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_doubling_identity(seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, max_half=3)
    h = random_graph(rng, max_vertices=4)
    assert count_homs(g.graph, h) == count_homs_restricted(g, double(h))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_blowup_size_matches_built_blowup(seed):
    rng = random.Random(seed)
    h = random_graph(rng)
    acts = random_activities(rng, h.vertex_count)
    target, _ = blowup(h, acts)
    assert blowup_size(h, acts) == (target.graph.vertex_count, len(target.graph.edges()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_lift_identity(seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, max_half=3)
    h = random_graph(rng, max_vertices=3)
    acts = random_activities(rng, h.vertex_count, max_num=2, max_den=2)
    target, meta = blowup(h, acts)
    z = partition_fn(g, h, acts)
    assert z * meta.scale**g.vertex_count == count_homs_restricted(g, target)


def test_lift_counts_partition_by_projection():
    # every restricted map projects (via provenance) to one source map; the
    # fibre over f has exactly weight(f) * C^N elements
    g = gen_complete_bipartite(1, 1)
    h = HIND
    acts = ActivitySystem.from_mapping(2, {0: (Fraction(1, 2), Fraction(3, 2))})
    target, meta = blowup(h, acts)
    c = meta.scale
    origin = [p[0] for p in target.provenance]

    fibres = {}
    tg = target.graph
    for f in product(range(tg.vertex_count), repeat=2):
        if f[0] not in target.upper or f[1] not in target.lower:
            continue
        if not tg.adjacent(f[0], f[1]):
            continue
        fibres.setdefault((origin[f[0]], origin[f[1]]), 0)
        fibres[(origin[f[0]], origin[f[1]])] += 1

    for (i, j), size in fibres.items():
        weight = acts.lambdas[i] * acts.mus[j]
        assert size == weight * c**2
    total = partition_fn(g, h, acts) * c**2
    assert total == sum(fibres.values())


def test_two_sorted_validation():
    with pytest.raises(GraphFormatError):
        two_sorted(Graph(2, [(0, 1)]), upper=(0, 1))  # edge inside upper
    with pytest.raises(GraphFormatError):
        two_sorted(Graph(2, [], [0]), upper=(0,))  # loop
    with pytest.raises(GraphFormatError):
        TwoSortedTarget(Graph(2), frozenset({0}), frozenset({0, 1}))
    with pytest.raises(GraphFormatError):
        TwoSortedTarget(Graph(2), frozenset({0}), frozenset({1}), provenance=((0, "U", 0),))


def test_two_sorted_file_round_trip():
    d = double(complete_graph(3))
    doc = serialize_two_sorted(d)
    again = parse_two_sorted(json.dumps(doc))
    assert again.graph == d.graph and again.upper == d.upper
    with pytest.raises(GraphFormatError):
        parse_two_sorted({"vertices": 2, "edges": []})  # upper missing
