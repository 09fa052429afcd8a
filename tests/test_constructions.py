import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from homcert import (
    ActivitySystem,
    BipartiteGraph,
    Graph,
    GraphFormatError,
    blowup,
    complete_graph,
    count_homs,
    count_homs_restricted,
    double,
    gen_complete_bipartite,
    gen_even_cycle,
    independence_target,
    parse_bipartite,
    parse_two_sorted,
    partition_fn,
    scale_constant,
    serialize_bipartite,
    serialize_two_sorted,
)
from homcert.constructions import blowup_size
from helpers import random_activities, random_bipartite, random_graph

HIND = independence_target()
LOOP = complete_graph(1, loops=True)


def test_double_independence_target():
    d = double(HIND)
    assert d.graph.vertex_count == 4
    assert sorted(d.graph.edges()) == [(0, 3), (1, 2), (1, 3)]
    assert d.class_e == frozenset({0, 1}) and d.class_o == frozenset({2, 3})


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


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_scale_constant_is_blowup_scale(seed):
    rng = random.Random(seed)
    h = random_graph(rng, max_vertices=4)
    acts = random_activities(rng, h.vertex_count, max_num=4, max_den=6)
    assert scale_constant(acts) == blowup(h, acts)[1].scale


def test_blowup_unit_is_double():
    for h in (HIND, complete_graph(3), LOOP):
        target, meta = blowup(h, ActivitySystem.unit(h.vertex_count))
        assert meta.scale == 1
        assert target == double(h)


def test_blowup_single_loop():
    target, meta = blowup(LOOP, ActivitySystem((Fraction(3, 2),), (Fraction(1),)))
    assert meta.scale == 2
    assert meta.upper_copies == (3,) and meta.lower_copies == (2,)
    assert len(target.class_e) == 3 and len(target.class_o) == 2
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
    # every restricted map projects (each copy to its origin) to one source
    # map; the fibre over f has exactly weight(f) * C^N elements
    g = gen_complete_bipartite(1, 1)
    h = HIND
    acts = ActivitySystem.from_mapping(2, {0: (Fraction(1, 2), Fraction(3, 2))})
    target, meta = blowup(h, acts)
    c = meta.scale
    # copies come in origin order, upper before lower
    origin = [i for copies in (meta.upper_copies, meta.lower_copies)
              for i, k in enumerate(copies) for _ in range(k)]

    fibres = {}
    tg = target.graph
    for f in product(range(tg.vertex_count), repeat=2):
        if f[0] not in target.class_e or f[1] not in target.class_o:
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
    with pytest.raises(GraphFormatError, match="does not cross the bipartition"):
        BipartiteGraph(Graph(2, [(0, 1)]), (0, 1))  # edge inside upper
    with pytest.raises(GraphFormatError, match="does not cross the bipartition"):
        BipartiteGraph(Graph(3, [(1, 2)]), (0,))  # edge inside lower
    with pytest.raises(GraphFormatError):
        BipartiteGraph(Graph(2, [], [0]), (0,))  # loop


def test_two_sorted_file_round_trip():
    d = double(complete_graph(3))
    doc = serialize_two_sorted(d)
    again = parse_two_sorted(json.dumps(doc))
    assert again == d
    with pytest.raises(GraphFormatError):
        parse_two_sorted({"vertices": 2, "edges": []})  # upper missing


def test_upper_and_class_e_documents_are_one_type():
    graph = {"vertices": 4, "edges": [[0, 2], [0, 3], [1, 3]], "loops": []}
    source_doc = {**graph, "class_e": [0, 1]}
    target_doc = {**graph, "upper": [0, 1]}
    source, target = parse_bipartite(source_doc), parse_two_sorted(target_doc)
    assert source == target
    assert serialize_bipartite(source) == source_doc
    assert serialize_two_sorted(target) == target_doc
    with pytest.raises(GraphFormatError, match="unknown keys"):
        parse_two_sorted(source_doc | {"upper": [0, 1]})
