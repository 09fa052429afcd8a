import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import homcert.graphs as graphs_mod
from homcert import (
    BipartiteGraph,
    BudgetExceededError,
    Graph,
    GraphFormatError,
    build_instance,
    complete_graph,
    gen_complete_bipartite,
    gen_even_cycle,
    gen_hypercube,
    gen_random_regular_bipartite,
    gen_union,
    independence_target,
    parse_bipartite,
    parse_graph,
    parse_instance_spec,
    partition_fn,
    serialize_bipartite,
    serialize_graph,
)
from helpers import (
    random_activities,
    random_bipartite,
    random_graph,
    relabelled,
    side_preserving_isomorphic,
)


def test_parse_independence_target():
    h = parse_graph('{"vertices": 2, "edges": [[0, 1]], "loops": [1]}')
    assert h == independence_target()
    assert h.loops == frozenset({1})
    assert h.neighbors == ((1,), (0, 1))


def test_parse_single_looped_vertex():
    h = parse_graph({"vertices": 1, "edges": [], "loops": [0]})
    assert h.vertex_count == 1 and h.loops == frozenset({0})


def test_parse_triangle():
    h = parse_graph({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "loops": []})
    assert h == complete_graph(3)


def test_parse_symmetrizes_and_dedupes():
    h = parse_graph({"vertices": 2, "edges": [[0, 1], [1, 0], [0, 1]]})
    assert h.edges() == [(0, 1)]


def test_parse_self_edge_is_loop():
    h = parse_graph({"vertices": 2, "edges": [[1, 1]]})
    assert h.loops == frozenset({1})
    assert serialize_graph(h) == {"vertices": 2, "edges": [], "loops": [1]}


@pytest.mark.parametrize(
    "doc",
    [
        "not json {",
        '"just a string"',
        {"vertices": -1},
        {"vertices": 2, "edges": [[0, 5]]},
        {"vertices": 2, "edges": [[0]]},
        {"vertices": 2, "extra": 1},
        {"edges": []},
        {"vertices": 2, "loops": [2]},
        {"vertices": True},
    ],
)
def test_parse_rejects_malformed(doc):
    with pytest.raises(GraphFormatError):
        parse_graph(doc if isinstance(doc, str) else json.dumps(doc))


@st.composite
def graph_docs(draw):
    n = draw(st.integers(0, 6))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(st.lists(pairs, max_size=12)) if n else []
    loops = draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
    return {"vertices": n, "edges": [list(e) for e in edges], "loops": loops}


@given(graph_docs())
def test_serialize_parse_round_trip(doc):
    g = parse_graph(json.dumps(doc))
    again = parse_graph(json.dumps(serialize_graph(g)))
    assert again == g and again.loops == g.loops


def test_check_bipartition_path():
    path = Graph(3, [(0, 1), (1, 2)])
    bg = BipartiteGraph(path, {0, 2})
    assert bg.class_o == frozenset({1})


def test_check_bipartition_rejects_odd_cycle():
    with pytest.raises(GraphFormatError):
        BipartiteGraph(complete_graph(3), {0})


def test_check_bipartition_rejects_loops():
    with pytest.raises(GraphFormatError):
        BipartiteGraph(Graph(2, [(0, 1)], [0]), {0})


def test_check_bipartition_c4():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bg = BipartiteGraph(c4, {0, 2})
    assert bg.regular_degree() == 2


def test_bipartition_not_inferred():
    # the same graph admits several orientations; the caller's choice stands
    matching = Graph(4, [(0, 1), (2, 3)])
    one = BipartiteGraph(matching, {0, 2})
    other = BipartiteGraph(matching, {0, 3})
    assert one != other


def test_complete_bipartite_examples():
    c4 = gen_complete_bipartite(2, 2)
    assert len(c4.graph.edges()) == 4 and c4.regular_degree() == 2
    edge = gen_complete_bipartite(1, 1)
    assert edge.graph.edges() == [(0, 1)]
    k33 = gen_complete_bipartite(3, 3)
    assert len(k33.graph.edges()) == 9 and k33.regular_degree() == 3
    with pytest.raises(ValueError):
        gen_complete_bipartite(0, 2)


def test_even_cycle():
    c6 = gen_even_cycle(6)
    assert c6.vertex_count == 6 and c6.regular_degree() == 2
    assert c6.class_e == frozenset({0, 2, 4})
    for bad in (5, 2, 3):
        with pytest.raises(ValueError):
            gen_even_cycle(bad)


def test_hypercube():
    q3 = gen_hypercube(3)
    assert q3.vertex_count == 8 and q3.regular_degree() == 3
    assert all(v.bit_count() % 2 == 0 for v in q3.class_e)
    assert gen_hypercube(1).graph.edges() == [(0, 1)]
    with pytest.raises(ValueError):
        gen_hypercube(0)


def test_union_concatenates():
    u = gen_union([gen_complete_bipartite(2, 2), gen_complete_bipartite(2, 2)])
    assert u.vertex_count == 8 and u.regular_degree() == 2
    assert u.class_e == frozenset({0, 1, 4, 5})
    assert gen_union([]).vertex_count == 0


def test_generators_pass_their_own_bipartition():
    for bg in (
        gen_complete_bipartite(2, 3),
        gen_even_cycle(8),
        gen_hypercube(3),
        gen_union([gen_even_cycle(4), gen_complete_bipartite(1, 2)]),
        gen_random_regular_bipartite(2, 4, 9),
    ):
        again = BipartiteGraph(bg.graph, bg.class_e)
        assert again == bg


def test_random_regular_degrees_and_determinism():
    g1 = gen_random_regular_bipartite(3, 7, 42)
    g2 = gen_random_regular_bipartite(3, 7, 42)
    assert g1 == g2
    assert all(g1.graph.degree(v) == 3 for v in range(14))
    assert g1 != gen_random_regular_bipartite(3, 7, 43)


def test_random_regular_full_degree_gives_complete():
    # rejection sampling almost never tiles K_{n,n}: it is returned undrawn
    for n in range(1, 9):
        for seed in range(5):
            assert gen_random_regular_bipartite(n, n, seed) == gen_complete_bipartite(n, n)


def _random_regular_by_shuffle(n, half, seed, cap):
    """The sampler as first written, on random.Random.shuffle: the edges of
    the graph, or when ``cap`` resamples run out, None and the random
    stream as they leave it."""
    rng = random.Random(seed)
    for _ in range(cap):
        used = set()
        for _ in range(n):
            perm = list(range(half))
            rng.shuffle(perm)
            pairs = [(i, perm[i]) for i in range(half)]
            if any(p in used for p in pairs):
                break
            used.update(pairs)
        else:
            return [(i, half + j) for i, j in sorted(used)], rng
    return None, rng


def _rows_graph(half, rows):
    edges = [(i, half + j) for i in range(half) for j in range(half) if rows[i] >> j & 1]
    return BipartiteGraph(Graph(2 * half, edges), range(half))


@pytest.mark.parametrize("cap, degrees, seeds", [
    (10_000, range(1, 4), range(30)),  # degrees that succeed within a few resamples
    (30, range(1, 12), range(30)),  # every degree below half, on a short cap
])
def test_random_regular_draws_the_graphs_random_shuffle_draws(monkeypatch, cap, degrees, seeds):
    monkeypatch.setattr(graphs_mod, "_MATCHING_RESAMPLE_CAP", cap)
    for half in range(1, 13):
        for n in degrees:
            if n >= half:
                continue
            for seed in seeds:
                edges, rng = _random_regular_by_shuffle(n, half, seed, cap)
                if edges is None:
                    # past the cap, the same random stream peels the matchings
                    expected = _rows_graph(half, graphs_mod._peeled_matchings(n, half, rng))
                    assert expected.regular_degree() == n
                    assert len(expected.graph.edges()) == n * half
                else:
                    expected = BipartiteGraph(Graph(2 * half, edges), range(half))
                assert gen_random_regular_bipartite(n, half, seed) == expected, (n, half, seed)


def test_random_regular_matching():
    m = gen_random_regular_bipartite(1, 4, 0)
    assert m.regular_degree() == 1 and len(m.graph.edges()) == 4


def test_random_regular_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_random_regular_bipartite(0, 3, 1)
    with pytest.raises(ValueError):
        gen_random_regular_bipartite(4, 3, 1)


def test_generation_cap(monkeypatch):
    # with no resample left, the matchings are peeled from the seed's stream
    monkeypatch.setattr(graphs_mod, "_MATCHING_RESAMPLE_CAP", 0)
    g = gen_random_regular_bipartite(2, 3, 1)
    assert g == _rows_graph(3, graphs_mod._peeled_matchings(2, 3, random.Random(1)))
    assert g.regular_degree() == 2


@pytest.mark.parametrize("n, half", [(5, 6), (5, 10), (9, 10)])
def test_random_regular_degrees_close_to_half_never_fail(n, half):
    # these exhaust the resamples on every seed below; the peeled matchings
    # give a simple n-regular bipartite graph, the same one for a seed
    graphs = [gen_random_regular_bipartite(n, half, seed) for seed in range(10)]
    for g in graphs:
        assert g.class_e == frozenset(range(half))
        assert g.regular_degree() == n and len(g.graph.edges()) == n * half
        assert all((u < half) != (v < half) for u, v in g.graph.edges())
    assert [gen_random_regular_bipartite(n, half, seed) for seed in (0, 9)] == [graphs[0],
                                                                                graphs[9]]
    assert len(set(graphs)) > 1


def test_biregular_degrees():
    assert gen_complete_bipartite(2, 3).biregular_degrees() == (3, 2)
    assert gen_complete_bipartite(2, 3).regular_degree() is None
    assert gen_even_cycle(4).biregular_degrees() == (2, 2)


def test_bipartite_file_round_trip():
    bg = gen_hypercube(2)
    doc = serialize_bipartite(bg)
    assert parse_bipartite(json.dumps(doc)) == bg
    with pytest.raises(GraphFormatError):
        parse_bipartite({"vertices": 2, "edges": [[0, 1]]})  # class_e missing


def test_instance_specs_match_generators(tmp_path):
    assert build_instance({"family": "cycle", "length": 6}) == gen_even_cycle(6)
    assert build_instance({"family": "hypercube", "dim": 2}) == gen_hypercube(2)
    assert build_instance({"family": "complete-bipartite", "a": 2, "b": 3}) == gen_complete_bipartite(2, 3)
    assert build_instance(
        {"family": "random-regular", "degree": 2, "half": 4, "seed": 11}
    ) == gen_random_regular_bipartite(2, 4, 11)
    union = build_instance(
        {"family": "union", "parts": [{"family": "cycle", "length": 4}, {"family": "cycle", "length": 4}]}
    )
    assert union == gen_union([gen_even_cycle(4), gen_even_cycle(4)])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(serialize_bipartite(gen_even_cycle(4))))
    assert build_instance({"family": "file", "path": "g.json"}, tmp_path) == gen_even_cycle(4)


@pytest.mark.parametrize(
    "doc",
    [
        {"family": "nope"},
        {"family": "cycle", "length": 5},
        {"family": "cycle", "length": 6, "bogus": 1},
        {"family": "cycle"},
        {"family": "random-regular", "degree": 3, "half": 2},
        {"family": "complete-bipartite", "a": 0, "b": 1},
        {"family": "hypercube", "dim": "3"},
        # a seed only a seeded family reads
        {"family": "cycle", "length": 6, "seed": 3},
        {"family": "file", "path": "g.json", "seed": 4},
        {"family": "union", "parts": [{"family": "cycle", "length": 4}], "seed": 7},
    ],
)
def test_instance_spec_rejects(doc):
    with pytest.raises(GraphFormatError):
        parse_instance_spec(doc)


def test_unions_nest_at_most_100_deep():
    # each union level is a frame of the recursive reader and builder
    spec = {"family": "cycle", "length": 4}
    for _ in range(100):
        spec = {"family": "union", "parts": [spec]}
    assert build_instance(spec).vertex_count == 4
    with pytest.raises(GraphFormatError, match="nested too deeply"):
        parse_instance_spec({"family": "union", "parts": [spec]})


def test_random_regular_spec_requires_seed():
    spec = parse_instance_spec({"family": "random-regular", "degree": 2, "half": 3})
    with pytest.raises(GraphFormatError):
        build_instance(spec)


def test_instance_describe_includes_seed_and_parts():
    part = {"half": 3, "family": "random-regular", "seed": 7, "degree": 2}
    spec = parse_instance_spec({"family": "union", "parts": [{"family": "cycle", "length": 4}, part]})
    assert spec == {
        "family": "union",
        "parts": [{"family": "cycle", "length": 4},
                  {"family": "random-regular", "degree": 2, "half": 3, "seed": 7}],
    }


@pytest.mark.parametrize("doc", [
    {"family": "complete-bipartite", "a": 3, "b": 5},
    {"family": "cycle", "length": 10},
    {"family": "hypercube", "dim": 4},
    {"family": "random-regular", "degree": 3, "half": 6, "seed": 4},
    {"family": "union", "parts": [{"family": "cycle", "length": 4},
                                  {"family": "hypercube", "dim": 3}]},
])
def test_build_instance_charges_vertices_plus_edges(doc):
    g = build_instance(doc)
    size = g.vertex_count + len(g.graph.edges())
    assert build_instance(doc, budget=size) == g
    with pytest.raises(BudgetExceededError):
        build_instance(doc, budget=size - 1)


# --- side-preserving isomorphism ---------------------------------------------------


def _assert_isomorphism(f, a: BipartiteGraph, b: BipartiteGraph):
    """f is a bijection that maps class E onto class E and a's edges onto b's."""
    assert sorted(f) == list(range(a.vertex_count))
    assert {f[v] for v in a.class_e} == b.class_e
    assert ({frozenset((f[u], f[v])) for u, v in a.graph.edges()}
            == {frozenset(e) for e in b.graph.edges()})


def _shuffled(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["relabelled", "side-swapped", "edge moved"]))
def test_isomorphism_agrees_with_every_side_preserving_bijection(seed, kind):
    # at most 4 + 4 vertices, the sides at random indices; a map found is
    # one, and Z agrees on every pair it maps
    rng = random.Random(seed)
    g = random_bipartite(rng, max_half=4, p=rng.choice([0.3, 0.5, 0.8]))
    a = relabelled(g, _shuffled(rng, g.vertex_count))
    b = relabelled(a, _shuffled(rng, a.vertex_count))
    if kind == "side-swapped":
        b = b.swapped()
    elif kind == "edge moved":
        edges = b.graph.edges()
        free = [(u, v) for u in sorted(b.class_e) for v in sorted(b.class_o)
                if not b.graph.adjacent(u, v)]
        if edges and free:
            edges.remove(rng.choice(edges))
            edges.append(rng.choice(free))
        b = BipartiteGraph(Graph(b.vertex_count, edges), b.class_e)
    f = a.isomorphism(b)
    assert (f is not None) == side_preserving_isomorphic(a, b)
    if kind == "relabelled":
        assert f is not None
    if f is not None:
        _assert_isomorphism(f, a, b)
        h = random_graph(rng, max_vertices=3)
        acts = random_activities(rng, h.vertex_count)
        assert partition_fn(a, h, acts) == partition_fn(b, h, acts)


def test_isomorphism_keeps_the_sides():
    q3 = gen_hypercube(3)
    # K_{4,4} less a perfect matching is Q3, whichever side holds the even vertices
    for seed in range(5):
        other = gen_random_regular_bipartite(3, 4, seed)
        _assert_isomorphism(q3.isomorphism(other), q3, other)
    c6 = gen_even_cycle(6)
    _assert_isomorphism(c6.isomorphism(c6.swapped()), c6, c6.swapped())
    # the same graph, but class E of 2 vertices against one of 3
    assert gen_complete_bipartite(2, 3).isomorphism(gen_complete_bipartite(3, 2)) is None
    # same sides and degrees, but C8 is connected and 2C4 is not
    two_c4 = gen_union([gen_even_cycle(4)] * 2)
    assert gen_even_cycle(8).isomorphism(two_c4) is None
    empty = BipartiteGraph(Graph(0), [])
    assert empty.isomorphism(empty) == ()


def test_isomorphism_gives_up_past_its_limit(monkeypatch):
    # with no image to try, no search finds a map: the answer is None
    q3 = gen_hypercube(3)
    monkeypatch.setattr(graphs_mod, "_ISO_TRIES", 0)
    assert q3.isomorphism(q3) is None
