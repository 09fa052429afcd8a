import random
import time
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from homcert import (
    DEFAULT_BUDGET,
    ActivitySystem,
    BipartiteGraph,
    BudgetExceededError,
    Graph,
    GraphFormatError,
    complete_graph,
    count_homs,
    count_homs_restricted,
    count_independent_sets,
    double,
    gen_complete_bipartite,
    gen_even_cycle,
    gen_hypercube,
    gen_union,
    independence_target,
    partition_fn,
)
from homcert import frontier
from homcert.graphs import load_doc
from homcert.homcount import GridPlan, as_fraction, resolve_activities
from helpers import (
    hom_count_by_enumeration,
    independent_set_count_by_bitmask,
    partition_by_enumeration,
    random_activities,
    random_bipartite,
    random_graph,
    random_twin_target,
    restricted_count_by_enumeration,
)

HIND = independence_target()
LOOP = complete_graph(1, loops=True)


# --- count_homs -------------------------------------------------------------


def test_knn_into_independence_target():
    for n in range(1, 7):
        g = gen_complete_bipartite(n, n).graph
        assert count_homs(g, HIND) == 2 ** (n + 1) - 1


def test_c4_into_triangle_matches_enumeration():
    c4 = gen_even_cycle(4).graph
    k3 = complete_graph(3)
    assert hom_count_by_enumeration(c4, k3) == 18  # 81 maps scanned directly
    assert count_homs(c4, k3) == 18


def test_odd_cycle_into_edge():
    assert count_homs(complete_graph(3), complete_graph(2)) == 0


def test_single_looped_vertex_absorbs_everything():
    for g in (complete_graph(4), gen_even_cycle(6).graph, Graph(3, [(0, 1)], [2])):
        assert count_homs(g, LOOP) == 1


def test_looped_source_needs_looped_image():
    g = Graph(2, [(0, 1)], [0])
    # vertex 0 must land on the looped target vertex; vertex 1 on a neighbour
    assert count_homs(g, HIND) == hom_count_by_enumeration(g, HIND) == 2
    assert count_homs(g, complete_graph(3)) == 0


def test_empty_cases():
    empty = Graph(0)
    assert count_homs(empty, complete_graph(3)) == 1
    assert count_homs(complete_graph(2), Graph(0)) == 0
    assert count_homs(empty, Graph(0)) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_count_matches_enumeration(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=4)
    h = random_graph(rng, max_vertices=4)
    assert count_homs(g, h) == hom_count_by_enumeration(g, h)


def test_long_cycle_follows_the_chromatic_polynomial():
    # (k-1)^n + (-1)^n (k-1) proper k-colourings of the n-cycle, here k = 3
    assert count_homs(gen_even_cycle(5000).graph, complete_graph(3)) == 2**5000 + 2


# --- frontier kernel: sources large enough to free and reuse frontier slots


def _source(rng, max_vertices=8):
    """A random graph on up to max_vertices vertices, often disconnected."""
    if rng.random() < 0.3:
        parts = [random_graph(rng, max_vertices=max_vertices // 2) for _ in range(2)]
        k = parts[0].vertex_count
        return Graph(
            k + parts[1].vertex_count,
            parts[0].edges() + [(u + k, v + k) for u, v in parts[1].edges()],
            list(parts[0].loops) + [v + k for v in parts[1].loops],
        )
    return random_graph(rng, max_vertices=max_vertices, p=rng.choice([0.25, 0.4, 0.6]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_frontier_count_matches_enumeration(seed):
    rng = random.Random(seed)
    g = _source(rng)
    h = random_graph(rng, max_vertices=3, p=0.5)
    assert count_homs(g, h) == hom_count_by_enumeration(g, h)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_frontier_partition_matches_enumeration(seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, max_half=4, p=rng.choice([0.3, 0.6]))
    h = random_graph(rng, max_vertices=3, p=0.5)
    acts = random_activities(rng, h.vertex_count)
    assert partition_fn(g, h, acts) == partition_by_enumeration(g, h, acts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_uniform_partition_matches_enumeration(seed):
    # a uniform system takes one plain count walk: Z = lambda^|E| * mu^|O| * hom(g, h)
    rng = random.Random(seed)
    g = random_bipartite(rng, max_half=4, p=rng.choice([0.3, 0.6]))
    h = random_graph(rng, max_vertices=3, p=0.5)
    lam = mu = Fraction(1)
    while lam == mu == 1:
        lam, mu = (Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(2))
    acts = ActivitySystem.uniform(h.vertex_count, lam, mu)
    assert partition_fn(g, h, acts) == partition_by_enumeration(g, h, acts)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_frontier_restricted_matches_enumeration(seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, max_half=4, p=rng.choice([0.3, 0.6]))
    upper = rng.randint(1, 2)
    size = upper + rng.randint(1, 3 - upper)
    edges = [(u, v) for u in range(upper) for v in range(upper, size) if rng.random() < 0.6]
    target = BipartiteGraph(Graph(size, edges), range(upper))
    assert count_homs_restricted(g, target) == restricted_count_by_enumeration(g, target)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_frontier_count_matches_independent_sets(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=20, p=rng.choice([0.15, 0.3, 0.5]), loop_p=0.1)
    assert count_homs(g, HIND) == count_independent_sets(g)


def test_source_order_is_made_once_per_graph(monkeypatch):
    # every walk over a graph shares its kernel vertex order, whatever the
    # target, weights or sides: the graph holds it from its first walk on
    made = []
    greedy = frontier._frontier_order
    monkeypatch.setattr(frontier, "_frontier_order",
                        lambda nbrs, start, seen: made.append(start) or greedy(nbrs, start, seen))
    g = gen_union([gen_even_cycle(6), gen_complete_bipartite(2, 3)])
    k3 = complete_graph(3)
    acts = ActivitySystem.from_mapping(3, {0: ("1/2", "2")})
    values = [count_homs(g.graph, k3), count_homs(g.graph, HIND), partition_fn(g, k3, acts),
              partition_fn(g.swapped(), k3, acts), count_homs_restricted(g, double(k3))]
    assert made == [0, 6]  # one greedy order per component, by lowest vertex
    # an equal graph built anew makes its own, and walks to the same values
    again = gen_union([gen_even_cycle(6), gen_complete_bipartite(2, 3)])
    assert [count_homs(again.graph, k3), count_homs(again.graph, HIND),
            partition_fn(again, k3, acts), partition_fn(again.swapped(), k3, acts),
            count_homs_restricted(again, double(k3))] == values
    assert made == [0, 6, 0, 6]


# --- orbit states: targets with twins ------------------------------------------


def _answered(values):
    """A plan's values, or the first refusal among them raised."""
    for value in values:
        if isinstance(value, BudgetExceededError):
            raise value
    return values


def _least_budget(answer):
    """The least budget at which ``answer(budget)`` is not refused, by bisection."""
    low, high = -1, 1
    while True:
        try:
            answer(high)
            break
        except BudgetExceededError:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            answer(mid)
            high = mid
        except BudgetExceededError:
            low = mid
    return high


@contextmanager
def _exact_images():
    """Inside, every kernel walk keeps exact images: no target has twins."""
    with mock.patch.object(ActivitySystem, "twin_classes", lambda self, h: []):
        yield


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_orbit_walks_match_exact_walks_on_twin_targets(seed):
    # one state per orbit of the twin swaps: the same values as exact
    # images, for at most their charge
    rng = random.Random(seed)
    h, acts = random_twin_target(rng)
    g = _grid_source(rng)
    walks = [lambda budget: count_homs(g.graph, h, budget),
             lambda budget: partition_fn(g, h, acts, budget)]
    orbits = [(walk(DEFAULT_BUDGET), _least_budget(walk)) for walk in walks]
    with _exact_images():
        exact = [(walk(DEFAULT_BUDGET), _least_budget(walk)) for walk in walks]
    for (value, meter), (exact_value, exact_meter) in zip(orbits, exact):
        assert value == exact_value
        assert meter <= exact_meter


# K3 weighted at vertex 0: its walks keep the twin pair {1, 2}
_K3_AT_0 = complete_graph(3), ActivitySystem.from_mapping(3, {0: ("1/2", "2")})


@pytest.mark.parametrize("g", [gen_complete_bipartite(2, 2),
                               BipartiteGraph(Graph(3, [(0, 1), (1, 2)]), [1])],
                         ids=["K22", "P3"])
def test_pair_orbit_walks_match_exact_walks_on_small_sources(g):
    # K3 weighted at vertex 0 leaves the pair {1, 2}; a walk whose only
    # twins are that pair gives the value and least budget of exact images,
    # and the value of brute-force enumeration
    k3, acts = _K3_AT_0
    assert acts.twin_classes(k3) == [0b110]

    def walk(budget):
        return partition_fn(g, k3, acts, budget)

    pair = walk(DEFAULT_BUDGET), _least_budget(walk)
    with _exact_images():
        exact = walk(DEFAULT_BUDGET), _least_budget(walk)
    assert pair == exact
    assert pair[0] == partition_by_enumeration(g, k3, acts)


# targets whose walks have one pair of twins, each with a system that keeps it
_PAIR_TARGETS = {
    "K2": (complete_graph(2), ActivitySystem.uniform(2, "1/2", "2")),
    "looped-K2": (complete_graph(2, loops=True), ActivitySystem.uniform(2, "1/2", "2")),
    "K3": _K3_AT_0,
}


@pytest.mark.parametrize("route", ["partition_fn", "packed"])
@pytest.mark.parametrize("target", list(_PAIR_TARGETS))
@pytest.mark.parametrize("g", [gen_even_cycle(6), gen_hypercube(4)], ids=["C6", "Q4"])
def test_lone_pair_walks_keep_exact_images(monkeypatch, g, target, route):
    # a walk whose only twins are one pair keeps exact images: the values and
    # the least budget of twins=[], and no orbit walk.  The packed plan adds
    # two systems that differ at vertex 0: into K3 its packed walk keeps the
    # pair {1, 2}; into a two-vertex target the uniform system's count walk
    # keeps the pair and the packed walk has no twins
    h, acts = _PAIR_TARGETS[target]
    systems = [acts]
    if route == "packed":
        systems += [ActivitySystem.from_mapping(h.vertex_count, {0: pair})
                    for pair in [("3", "1/3"), ("2/5", "4")]]
        assert GridPlan(h, systems)._tables(len(g.class_e), len(g.class_o))[1] is not None

    def walk(budget):
        # a plan's twin classes are read when it is made
        if route == "partition_fn":
            return [partition_fn(g, h, acts, budget)]
        return _answered(GridPlan(h, systems).run(g, budget))

    with _exact_images():
        exact = walk(DEFAULT_BUDGET), _least_budget(walk)
    exact_walks = []
    kernel = frontier._exact_sum
    monkeypatch.setattr(frontier, "_exact_sum",
                        lambda *args: exact_walks.append(None) or kernel(*args))
    monkeypatch.setattr(frontier, "_orbit_sum", None)
    assert (walk(DEFAULT_BUDGET), _least_budget(walk)) == exact
    assert exact_walks


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 20), st.integers(0, 2**32))
def test_complete_graph_counts_are_chromatic_polynomials(q, n, seed):
    # proper q-colourings: q(q-1)^(n-1) of a tree on n vertices and
    # (q-1)^l + (q-1) of an even cycle of length l
    rng = random.Random(seed)
    tree = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
    assert count_homs(tree, complete_graph(q)) == q * (q - 1) ** (n - 1)
    length = 2 * n + 2
    assert count_homs(gen_even_cycle(length).graph, complete_graph(q)) == (
        (q - 1) ** length + (q - 1))


def test_hypercube_colourings_answer_at_the_default_budget():
    # with exact images Q4 into K6 took over a second and Q4 into K8 was refused
    q4 = gen_hypercube(4).graph
    assert count_homs(q4, complete_graph(6)) == 10_199_069_190
    start = time.perf_counter()
    assert count_homs(q4, complete_graph(8)) == 4_221_404_762_120
    assert time.perf_counter() - start < 5
    # the orbits of K4's 24 swaps cost 2,495 units where exact images cost 59,548
    assert _least_budget(lambda budget: count_homs(q4, complete_graph(4), budget)) == 2495


def test_walks_without_orbits_charge_one_unit_per_candidate_image():
    # the exact-image meter: hind has no twins, distinct lambdas leave K3
    # none, one pair of twins (K3 weighted at vertex 0) keeps exact images,
    # and restricted counts never use twins
    k3 = complete_graph(3)
    c8 = gen_even_cycle(8)
    distinct = ActivitySystem.from_pairs([(1, 1), (2, "1/2"), (3, 3)])
    pair = ActivitySystem.from_mapping(3, {0: ("1/2", "2")})
    assert _least_budget(lambda budget: count_homs(gen_hypercube(4).graph, HIND, budget)) == 557
    assert _least_budget(lambda budget: partition_fn(c8, k3, distinct, budget)) == 105
    assert _least_budget(lambda budget: partition_fn(c8, k3, pair, budget)) == 105
    assert _least_budget(lambda budget: count_homs_restricted(
        gen_hypercube(3), double(complete_graph(4)), budget)) == 1060


# --- restricted counts -------------------------------------------------------


def test_restricted_on_doubled_target():
    assert count_homs_restricted(gen_complete_bipartite(2, 2), double(HIND)) == 7


def test_restricted_single_edge_into_doubled_edge():
    g = gen_complete_bipartite(1, 1)
    assert count_homs_restricted(g, double(complete_graph(2))) == 2


def test_restricted_empty_upper_side():
    target = BipartiteGraph(Graph(2), ())
    g = gen_complete_bipartite(1, 1)
    assert count_homs_restricted(g, target) == 0


def test_restriction_consistency():
    rng = random.Random(7)
    for _ in range(25):
        g = random_bipartite(rng, max_half=3)
        h = random_graph(rng, max_vertices=3, loop_p=0)
        target = double(h)
        restricted = count_homs_restricted(g, target)
        assert restricted == restricted_count_by_enumeration(g, target)
        assert restricted <= count_homs(g.graph, target.graph)


def test_restriction_vacuous_equality():
    # all-upper edgeless target with an all-E source: restriction adds nothing
    g = BipartiteGraph(Graph(1), class_e={0})
    target = BipartiteGraph(Graph(3), (0, 1, 2))
    assert count_homs_restricted(g, target) == count_homs(g.graph, target.graph) == 3


# --- partition values ---------------------------------------------------------


def test_unit_activities_give_plain_count():
    g = gen_even_cycle(6)
    k3 = complete_graph(3)
    assert partition_fn(g, k3, ActivitySystem.unit(3)) == count_homs(g.graph, k3)


def test_weighted_knn_value():
    acts = ActivitySystem.from_mapping(2, {0: (2, 2)})
    assert partition_fn(gen_complete_bipartite(2, 2), HIND, acts) == 17


def test_single_edge_into_looped_vertex():
    acts = ActivitySystem(( Fraction(3, 2),), (Fraction(5),))
    assert partition_fn(gen_complete_bipartite(1, 1), LOOP, acts) == Fraction(15, 2)


def test_partition_size_mismatch():
    with pytest.raises(GraphFormatError):
        partition_fn(gen_even_cycle(4), HIND, ActivitySystem.unit(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_partition_matches_enumeration(seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, max_half=3)
    h = random_graph(rng, max_vertices=3)
    acts = random_activities(rng, h.vertex_count)
    assert partition_fn(g, h, acts) == partition_by_enumeration(g, h, acts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_class_swap_symmetry(seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, max_half=3)
    h = random_graph(rng, max_vertices=3)
    acts = random_activities(rng, h.vertex_count)
    assert partition_fn(g.swapped(), h, acts.swapped()) == partition_fn(g, h, acts)


def test_multiplicativity_over_disjoint_union():
    rng = random.Random(3)
    k3 = complete_graph(3)
    for _ in range(10):
        g1 = random_bipartite(rng, max_half=2)
        g2 = random_bipartite(rng, max_half=2)
        u = gen_union([g1, g2])
        assert count_homs(u.graph, k3) == count_homs(g1.graph, k3) * count_homs(g2.graph, k3)
        acts = random_activities(rng, 3)
        assert partition_fn(u, k3, acts) == partition_fn(g1, k3, acts) * partition_fn(g2, k3, acts)


def test_monotone_in_target():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, max_vertices=4)
        h = random_graph(rng, max_vertices=4, p=0.3)
        base = count_homs(g, h)
        if h.vertex_count == 0:
            continue
        u = rng.randrange(h.vertex_count)
        v = rng.randrange(h.vertex_count)
        grown = Graph(
            h.vertex_count, h.edges() + [(u, v)] if u != v else h.edges(),
            set(h.loops) | ({u} if u == v else set()),
        )
        assert count_homs(g, grown) >= base


# --- GridPlan ----------------------------------------------------------------


def _grid_source(rng):
    """A bipartite graph on up to 10 vertices, possibly empty, edgeless or
    disconnected."""
    a, b = rng.randint(0, 5), rng.randint(0, 5)
    p = rng.choice([0.0, 0.3, 0.6, 1.0])
    edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    return BipartiteGraph(Graph(a + b, edges), range(a))


def _rational(rng):
    return Fraction(rng.randint(1, 5), rng.randint(1, 4))


def _grid_systems(rng, m):
    """1-5 systems that agree off some vertices; the shape decides which of
    GridPlan's routes they take."""
    shape = rng.choice(["one-vertex", "two-vertex", "uniform", "mixed"])
    if shape == "uniform":
        return [ActivitySystem.uniform(m, _rational(rng), _rational(rng))
                for _ in range(rng.randint(1, 5))] + [ActivitySystem.unit(m)]
    common = random_activities(rng, m, max_num=5, max_den=4)
    vary = rng.sample(range(m), 2 if shape == "two-vertex" and m > 1 else 1)
    systems = []
    for _ in range(rng.randint(1, 5)):
        lams, mus = list(common.lambdas), list(common.mus)
        for v in vary:
            lams[v], mus[v] = _rational(rng), _rational(rng)
        systems.append(ActivitySystem(tuple(lams), tuple(mus)))
    if shape == "mixed":
        systems += [ActivitySystem.unit(m), ActivitySystem.uniform(m, _rational(rng))]
    return systems + rng.sample(systems, rng.randint(0, len(systems)))  # repeats too


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_partition_grid_matches_partition_fn(seed):
    rng = random.Random(seed)
    g = _grid_source(rng)
    h = random_graph(rng, max_vertices=5, p=rng.choice([0.3, 0.6]), loop_p=0.4)
    if h.vertex_count == 0:
        h = LOOP
    systems = _grid_systems(rng, h.vertex_count)
    assert GridPlan(h, systems).run(g) == [partition_fn(g, h, acts) for acts in systems]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_partition_grid_answers_wherever_its_exact_walks_do(seed):
    # A walk's charge depends on its twin classes, and they depend on the
    # activities the walk carries, so the grid's walks need not charge what
    # partition_fn's do.  With exact images every walk charges alike, and the
    # grid is refused exactly when partition_fn refuses; with twins the grid
    # answers partition_fn's values or refuses, and it answers at every
    # budget at which its walks answer with exact images.
    rng = random.Random(seed)
    g = _grid_source(rng)
    if rng.random() < 0.5:
        h = random_graph(rng, max_vertices=5, p=0.5, loop_p=0.4)
    else:
        h = random_twin_target(rng)[0]
    if h.vertex_count == 0:
        h = LOOP
    systems = _grid_systems(rng, h.vertex_count)
    values = [partition_fn(g, h, acts) for acts in systems]
    with _exact_images():
        least = _least_budget(lambda budget: partition_fn(g, h, systems[0], budget))
        for budget in {0, least - 1, least}:
            if budget < 0:
                continue
            refused = []
            for acts in systems:
                try:
                    partition_fn(g, h, acts, budget)
                    refused.append(False)
                except BudgetExceededError:
                    refused.append(True)
            assert refused == [budget < least] * len(systems)
            answer = GridPlan(h, systems).run(g, budget)
            if budget < least:
                assert all(isinstance(value, BudgetExceededError) for value in answer)
            else:
                assert answer == values
    # a refused walk refuses only the systems it carries
    for budget in {0, least // 2, least - 1, least}:
        if budget < 0:
            continue
        for value, expected in zip(GridPlan(h, systems).run(g, budget), values, strict=True):
            if isinstance(value, BudgetExceededError):
                assert budget < least
            else:
                assert value == expected


def test_a_refused_walk_refuses_only_its_own_systems():
    # 2K2 into K3 at budget 4: the count walk over K3's twin orbits answers
    # for the uniform systems, the vertex-0 system's walk keeps the pair
    # {1, 2} and is refused, as partition_fn refuses it
    g = BipartiteGraph(Graph(4, [(0, 2), (1, 3)]), [0, 1])
    k3, acts = _K3_AT_0
    uniform = ActivitySystem.uniform(3, "1/2", "2")
    unit, refused, scaled = GridPlan(k3, [ActivitySystem.unit(3), acts, uniform]).run(g, 4)
    assert unit == count_homs(g.graph, k3) == 36
    assert scaled == partition_fn(g, k3, uniform, 4) == 36
    assert isinstance(refused, BudgetExceededError)
    with pytest.raises(BudgetExceededError, match="budget 4 exceeded"):
        partition_fn(g, k3, acts, 4)


def test_partition_grid_packs_one_vertex_grids_into_one_walk(monkeypatch):
    from homcert import homcount

    walks = []
    kernel = homcount._hom_sum
    monkeypatch.setattr(homcount, "_hom_sum", lambda *args: walks.append(args[3]) or kernel(*args))
    g = gen_union([gen_even_cycle(6), gen_complete_bipartite(2, 3)])
    k3 = complete_graph(3)
    grid = [ActivitySystem.from_mapping(3, {0: (lam, mu), 2: ("3/2", "1/5")})
            for lam in ("1/3", "2") for mu in ("1/2", "7")]
    assert GridPlan(k3, grid).run(g) == [partition_fn(g, k3, acts) for acts in grid]
    uniform = [ActivitySystem.unit(3), ActivitySystem.uniform(3, "1/2"),
               ActivitySystem.uniform(3, "3/2", "1")]
    walks.clear()
    assert GridPlan(k3, grid + uniform).run(g) == [
        partition_fn(g, k3, acts) for acts in grid + uniform]
    # one plain count walk for the uniform systems, one packed walk for the rest;
    # then one walk per partition_fn call
    assert [rows is None for rows in walks[:2]] == [True, False]
    assert len(walks) == 2 + len(grid) + len(uniform)


@pytest.mark.parametrize("pairs", [
    [("2/3", mu) for mu in ("1/3", "1/2", "2", "7/5")],  # one lambda_v, many mu_v
    [(lam, "2/3") for lam in ("1/3", "1/2", "2", "7/5")],  # many lambda_v, one mu_v
    [(lam, mu) for lam in ("1/3", "2") for mu in ("1/2", "3")],
])
def test_packed_grids_sharing_one_side_match_partition_fn(monkeypatch, pairs):
    # a packed walk's sums over lambda_v are made once per distinct lambda_v
    from homcert import homcount

    walks = []
    kernel = homcount._hom_sum
    monkeypatch.setattr(homcount, "_hom_sum", lambda *args: walks.append(args[3]) or kernel(*args))
    g = gen_union([gen_complete_bipartite(3, 3), gen_even_cycle(4)])
    for h in (complete_graph(3), HIND):
        grid = [ActivitySystem.from_mapping(h.vertex_count, {1: pair}) for pair in pairs]
        walks.clear()
        values = GridPlan(h, grid).run(g)
        assert len(walks) == 1  # the packed walk
        assert values == [partition_fn(g, h, acts) for acts in grid]


def test_partition_grid_walks_a_long_cycle_once_per_system(monkeypatch):
    # packed, C1000's weights would be about 1585 * 501 * 501 bits wide
    from homcert import homcount

    walks = []
    kernel = homcount._hom_sum
    monkeypatch.setattr(homcount, "_hom_sum", lambda *args: walks.append(args[3]) or kernel(*args))
    k3 = complete_graph(3)
    grid = [ActivitySystem.from_mapping(3, {0: (lam, "1")}) for lam in ("1/2", "2")]
    for length in (64, 1000):
        g = gen_even_cycle(length)
        walks.clear()
        start = time.perf_counter()
        values = GridPlan(k3, grid).run(g)
        assert time.perf_counter() - start < 5
        assert len(walks) == 2 and None not in walks
        assert values == [partition_fn(g, k3, acts) for acts in grid]


def test_one_grid_plan_serves_sources_of_every_size(monkeypatch):
    # the plan keeps its tables per (|E|, |O|): packed for the small sources,
    # one walk per system for the long cycle, the uniform systems counted
    from homcert import homcount

    kernel = homcount._hom_sum
    k3 = complete_graph(3)
    grid = [ActivitySystem.from_mapping(3, {0: (lam, mu), 2: ("3/2", "1")})
            for lam in ("1/3", "2") for mu in ("1/2", "7")]
    systems = [*grid, ActivitySystem.unit(3), ActivitySystem.uniform(3, "1/2", "3"), grid[0]]
    plan = GridPlan(k3, systems)
    sources = [gen_complete_bipartite(2, 3), gen_even_cycle(6), gen_even_cycle(400),
               gen_union([gen_even_cycle(4), gen_complete_bipartite(3, 2)]),
               gen_complete_bipartite(2, 3).swapped(), gen_even_cycle(6)]
    walks, values = [], []
    monkeypatch.setattr(homcount, "_hom_sum",
                        lambda *args: walks[-1].append(args[3]) or kernel(*args))
    for g in sources:
        walks.append([])
        values.append(plan.run(g))
    monkeypatch.undo()
    # per source: one count walk, then one packed walk or, on C400, one per system
    assert [len(w) for w in walks] == [2, 2, 1 + len(grid), 2, 2, 2]
    assert values == [[partition_fn(g, k3, acts) for acts in systems] for g in sources]
    assert values == [GridPlan(k3, systems).run(g) for g in sources]


def test_activity_systems_hash_by_value():
    a = ActivitySystem.from_mapping(3, {0: ("1/2", "3")})
    b = ActivitySystem.from_pairs([("1/2", "3"), (1, 1), (1, 1)])
    assert a == b and hash(a) == hash(b) and len({a, b, ActivitySystem.unit(3)}) == 2
    c = ActivitySystem.uniform(3, "1/2")
    d = ActivitySystem.from_pairs([("1/2", "1/2")] * 3)
    assert c == d and hash(c) == hash(d)


def test_activity_systems_are_immutable():
    acts = ActivitySystem.uniform(2, "1/2", 3)
    with pytest.raises(AttributeError):
        acts.lambdas = acts.mus
    assert acts.lambdas == (Fraction(1, 2),) * 2


_RATIONALS = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.sampled_from(["unit", "uniform", "vertex"]), st.data())
def test_resolve_activities_reads_what_describe_writes(k, kind, data):
    if kind == "unit":
        acts = ActivitySystem.unit(k)
    elif kind == "uniform":
        acts = ActivitySystem.uniform(k, data.draw(_RATIONALS), data.draw(_RATIONALS))
    else:
        pairs = st.lists(st.tuples(_RATIONALS, _RATIONALS), min_size=k, max_size=k)
        acts = ActivitySystem.from_pairs(data.draw(pairs))
    assert resolve_activities(acts.describe(), k) == acts


def test_as_fraction_refuses_exponent_notation_at_once():
    start = time.perf_counter()
    for text in ("1e10000000", "1E5", "2.5e-3"):
        with pytest.raises(GraphFormatError, match="exponent"):
            as_fraction(text)
    assert time.perf_counter() - start < 1
    assert [as_fraction(x) for x in (3, "3", "-0.25", "3/4")] == [3, 3, Fraction(-1, 4),
                                                                   Fraction(3, 4)]


def test_partition_grid_rejects_a_system_of_the_wrong_size():
    with pytest.raises(GraphFormatError):
        GridPlan(HIND, [ActivitySystem.unit(2), ActivitySystem.unit(3)]).run(gen_even_cycle(4))


# --- independent sets ----------------------------------------------------------


def test_independent_sets_c4():
    c4 = gen_even_cycle(4).graph
    # by hand: empty, 4 singletons, the 2 diagonal pairs
    assert count_independent_sets(c4) == 7


def test_independent_sets_knn():
    for n in range(1, 7):
        assert count_independent_sets(gen_complete_bipartite(n, n).graph) == 2 ** (n + 1) - 1


def test_independent_sets_edgeless():
    assert count_independent_sets(Graph(5)) == 32


def test_independent_sets_exclude_looped_vertices():
    g = Graph(2, [], [0])
    assert count_independent_sets(g) == 2  # {} and {1}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_oracle_equivalence_with_hom_counter(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=6)
    count = count_independent_sets(g)
    assert count == count_homs(g, HIND)
    assert count == independent_set_count_by_bitmask(g)


# --- budget --------------------------------------------------------------------


def test_budget_exceeded_raises():
    g = gen_complete_bipartite(4, 4)
    with pytest.raises(BudgetExceededError):
        count_homs(g.graph, complete_graph(4), budget=10)
    with pytest.raises(BudgetExceededError):
        count_independent_sets(g.graph, budget=3)
    with pytest.raises(BudgetExceededError):
        partition_fn(g, complete_graph(3), ActivitySystem.uniform(3, "1/2"), budget=10)


def test_budget_zero_refuses_everything_nonempty():
    with pytest.raises(BudgetExceededError):
        count_homs(complete_graph(1), complete_graph(1), budget=0)
    assert count_homs(Graph(0), complete_graph(1), budget=0) == 1


# --- activity parsing ------------------------------------------------------------


def test_parse_activities_defaults_and_one_sided():
    acts = resolve_activities(load_doc('{"activities": {"1": {"lambda": "3/2"}}}'), 3)
    assert acts.lambdas == (1, Fraction(3, 2), 1)
    assert acts.mus == (1, Fraction(3, 2), 1)  # lambda alone sets both
    acts = resolve_activities({"activities": {"0": {"lambda": "1/3", "mu": "2"}}}, 2)
    assert acts.lambdas == (Fraction(1, 3), 1) and acts.mus == (2, 1)
    acts = resolve_activities({"activities": {"0": {"mu": "2"}}}, 2)
    assert acts.lambdas == (1, 1) and acts.mus == (2, 1)
    acts = resolve_activities({"activities": {}}, 2)
    assert acts.is_unit()


@pytest.mark.parametrize(
    "doc",
    [
        '{"activities": {"0": {"lambda": "0"}}}',
        '{"activities": {"0": {"lambda": "-1/2"}}}',
        '{"activities": {"9": {"lambda": "1"}}}',
        '{"activities": {"0": {"lambda": 0.5}}}',
        '{"activities": {"0": {}}}',
        '{"activities": {"0": {"gamma": "1"}}}',
        '{"wrong": {}}',
    ],
)
def test_parse_activities_rejects(doc):
    with pytest.raises(GraphFormatError):
        resolve_activities(load_doc(doc), 2)


@pytest.mark.parametrize("key", ["00", "1_0", "\u0663", " 1 ", 1.5, True])
def test_activity_vertex_keys_must_be_written_as_indices(key):
    # int() reads each of these keys ("\u0663" is an Arabic-Indic three), so
    # "0" and "00" would both name vertex 0 and the last would win
    for entries in ({key: {"lambda": "3"}}, {"0": {"lambda": "2"}, key: {"lambda": "3"}}):
        with pytest.raises(GraphFormatError, match="is not an index"):
            resolve_activities({"vertex": entries}, 11)
    assert resolve_activities({"vertex": {"10": {"lambda": "3"}}}, 11).lambdas[10] == 3


def test_activity_describe_shapes():
    assert ActivitySystem.unit(2).describe() == {"unit": True}
    assert ActivitySystem.uniform(2, "1/2").describe() == {
        "uniform": {"lambda": "1/2", "mu": "1/2"}
    }
    vertexwise = ActivitySystem.from_mapping(2, {0: ("1/3", "2")}).describe()
    assert vertexwise == {"vertex": {"0": {"lambda": "1/3", "mu": "2"}}}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_twin_prev_is_the_largest_smaller_twin(seed):
    # the definition pair by pair: swapping i and j fixes the edges and loops
    # of h and both activities
    rng = random.Random(seed)
    if rng.random() < 0.5:
        h, acts = random_twin_target(rng)
    else:
        h = random_graph(rng, max_vertices=7)
        acts = random_activities(rng, h.vertex_count, max_num=2, max_den=1)
    swap = lambda i, j: {i: j, j: i}

    def twins(i, j):
        s = swap(i, j)
        return (acts.lambdas[i] == acts.lambdas[j] and acts.mus[i] == acts.mus[j]
                and all(h.adjacent(u, v) == h.adjacent(s.get(u, u), s.get(v, v))
                        for u in range(h.vertex_count) for v in range(h.vertex_count)))

    expected = [max((j for j in range(i) if twins(i, j)), default=-1)
                for i in range(h.vertex_count)]
    assert acts.twin_prev(h) == expected
    # the classes of two or more twins, as masks in the order of their
    # largest members
    classes = {sum(1 << j for j in range(h.vertex_count) if j == i or twins(i, j))
               for i in range(h.vertex_count)}
    assert acts.twin_classes(h) == sorted((c for c in classes if c.bit_count() > 1),
                                          key=int.bit_length)
