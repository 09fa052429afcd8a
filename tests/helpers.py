"""Independent oracles for the test suite.

Everything here enumerates exhaustively, or walks all 2^m subsets of the
target, and shares no code path with the library's counters, closed forms,
or optimizers.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from homcert import (
    ActivitySystem,
    BipartiteGraph,
    EtaWitness,
    Graph,
)


def hom_count_by_enumeration(g: Graph, h: Graph) -> int:
    """All |V(h)|^|V(g)| maps, each checked edge by edge (loops included)."""
    total = 0
    for f in itertools.product(range(h.vertex_count), repeat=g.vertex_count):
        if all(
            h.adjacent(f[u], f[v])
            for u in range(g.vertex_count)
            for v in g.neighbors[u]
            if v >= u
        ):
            total += 1
    return total


def restricted_count_by_enumeration(g: BipartiteGraph, target: BipartiteGraph) -> int:
    total = 0
    n = g.vertex_count
    tg = target.graph
    for f in itertools.product(range(tg.vertex_count), repeat=n):
        if any(f[v] not in target.class_e for v in g.class_e):
            continue
        if any(f[v] not in target.class_o for v in g.class_o):
            continue
        if all(tg.adjacent(f[u], f[v]) for u in range(n) for v in g.graph.neighbors[u] if v > u):
            total += 1
    return total


def partition_by_enumeration(g: BipartiteGraph, h: Graph, acts: ActivitySystem) -> Fraction:
    total = Fraction(0)
    n = g.vertex_count
    for f in itertools.product(range(h.vertex_count), repeat=n):
        if not all(h.adjacent(f[u], f[v]) for u in range(n) for v in g.graph.neighbors[u] if v > u):
            continue
        w = Fraction(1)
        for v in g.class_e:
            w *= acts.lambdas[f[v]]
        for v in g.class_o:
            w *= acts.mus[f[v]]
        total += w
    return total


def independent_set_count_by_bitmask(g: Graph) -> int:
    """Third route for tiny graphs: test every vertex subset directly."""
    n = g.vertex_count
    count = 0
    for subset in range(1 << n):
        ok = True
        for u in range(n):
            if not subset >> u & 1:
                continue
            for v in g.neighbors[u]:
                if subset >> v & 1:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def surjections_by_enumeration(n: int, a: int) -> int:
    total = 0
    for f in itertools.product(range(a), repeat=n):
        if set(f) == set(range(a)):
            total += 1
    return total


def weighted_surjections_by_enumeration(mus, n: int) -> Fraction:
    mus = [Fraction(x) for x in mus]
    a = len(mus)
    total = Fraction(0)
    for f in itertools.product(range(a), repeat=n):
        if set(f) == set(range(a)):
            w = Fraction(1)
            for i in f:
                w *= mus[i]
            total += w
    return total


def weighted_surjection_sum(mus, n: int) -> Fraction:
    """Sum over surjections g: [n] -> range(len(mus)) of prod_i mu_{g(i)}, by
    inclusion-exclusion over the subsets of the range."""
    mus = [Fraction(x) for x in mus]
    a = len(mus)
    total = Fraction(0)
    for keep in range(1 << a):
        part = sum((mus[i] for i in range(a) if keep & (1 << i)), Fraction(0))
        sign = -1 if (a - keep.bit_count()) % 2 else 1
        total += sign * part**n
    return total


def _subset_common_neighbors(vertices, masks, full: int) -> list[int]:
    """cn[A] for every subset A of ``vertices`` (bit i stands for
    vertices[i]): the members of ``full`` adjacent to all of A."""
    cn = [full] * (1 << len(vertices))
    for s in range(1, 1 << len(vertices)):
        low = s & -s
        cn[s] = cn[s ^ low] & masks[vertices[low.bit_length() - 1]]
    return cn


def kab_partition_by_subsets(a: int, b: int, h: Graph, acts: ActivitySystem) -> Fraction:
    """Z(K_{a,b}) as a sum over the O-side image sets A of V(h): the
    mu-weighted surjections of b items onto A (a Moebius transform over
    subsets of mu(A)^b) times lambda(cn(A))^a."""
    m = h.vertex_count
    cn = _subset_common_neighbors(range(m), h.neighbor_masks(), (1 << m) - 1)
    lam_sub = [Fraction(0)] * (1 << m)
    mu_sub = [Fraction(0)] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        i = low.bit_length() - 1
        lam_sub[s] = lam_sub[s ^ low] + acts.lambdas[i]
        mu_sub[s] = mu_sub[s ^ low] + acts.mus[i]
    w = [x**b for x in mu_sub]
    for i in range(m):
        for s in range(1 << m):
            if s >> i & 1:
                w[s] -= w[s ^ 1 << i]
    return sum((w[s] * lam_sub[cn[s]] ** a for s in range(1 << m)), Fraction(0))


def knn_restricted_by_subsets(n: int, target: BipartiteGraph) -> Fraction:
    """Restricted count of K_{n,n}: the sum over lower-side image sets A of
    surj(n, |A|) * |cn(A)|^n, with cn(A) taken in the upper side."""
    lower = sorted(target.class_o)
    upper_mask = sum(1 << v for v in target.class_e)
    cn = _subset_common_neighbors(lower, target.graph.neighbor_masks(), upper_mask)
    return sum(weighted_surjection_sum([1] * s.bit_count(), n) * c.bit_count() ** n
               for s, c in enumerate(cn))


def eta_by_subsets(h: Graph, acts: ActivitySystem) -> EtaWitness:
    """The full eta witness from tables over all 2^m subsets A of V(h): every
    closed pair (cn(cn(A)), cn(A)) is scored, and ties go to the smallest
    (A, B) tuple.  No budget applies."""
    m = h.vertex_count
    cn = _subset_common_neighbors(range(m), h.neighbor_masks(), (1 << m) - 1)
    lam_sub = [Fraction(0)] * (1 << m)
    mu_sub = [Fraction(0)] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        i = low.bit_length() - 1
        lam_sub[s] = lam_sub[s ^ low] + acts.lambdas[i]
        mu_sub[s] = mu_sub[s ^ low] + acts.mus[i]
    best = (Fraction(0), (), ())
    for b_mask in cn:
        a_mask = cn[b_mask]
        val = lam_sub[a_mask] * mu_sub[b_mask]
        a = tuple(i for i in range(m) if a_mask >> i & 1)
        b = tuple(j for j in range(m) if b_mask >> j & 1)
        if val > best[0] or (val == best[0] > 0 and (a, b) < best[1:]):
            best = (val, a, b)
    return EtaWitness(best[1], best[2], best[0])


def eta_by_pair_enumeration(h: Graph, acts: ActivitySystem) -> Fraction:
    """Exhaustive double loop over all (A, B) subset pairs."""
    m = h.vertex_count
    masks = h.neighbor_masks()
    lam_sum = [Fraction(0)] * (1 << m)
    mu_sum = [Fraction(0)] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        i = low.bit_length() - 1
        lam_sum[s] = lam_sum[s ^ low] + acts.lambdas[i]
        mu_sum[s] = mu_sum[s ^ low] + acts.mus[i]
    best = Fraction(0)
    for a_mask in range(1, 1 << m):
        common = (1 << m) - 1
        mm = a_mask
        while mm:
            low = mm & -mm
            mm ^= low
            common &= masks[low.bit_length() - 1]
        for b_mask in range(1, 1 << m):
            if b_mask & ~common:
                continue
            best = max(best, lam_sum[a_mask] * mu_sum[b_mask])
    return best


def random_graph(rng: random.Random, max_vertices: int = 6, p: float = 0.4,
                 loop_p: float = 0.3) -> Graph:
    n = rng.randint(0, max_vertices)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    loops = [v for v in range(n) if rng.random() < loop_p]
    return Graph(n, edges, loops)


def random_twin_target(rng: random.Random, max_classes: int = 4,
                       max_class_size: int = 3) -> tuple[Graph, ActivitySystem]:
    """A target with planted twin classes and its activities.

    A random quotient graph on the classes is blown up: each class is a
    clique or an independent set, looped or not, and two classes are joined
    completely or not at all.  The labels are shuffled.  Activities are equal
    within a class, except that one vertex is sometimes perturbed, and one
    noise edge sometimes breaks a class."""
    sizes = [rng.randint(1, max_class_size) for _ in range(rng.randint(1, max_classes))]
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    classes = [labels[sum(sizes[:c]):sum(sizes[:c + 1])] for c in range(len(sizes))]
    edges, loops = set(), []
    lams, mus = [None] * len(labels), [None] * len(labels)
    unit = rng.random() < 0.3
    for c, members in enumerate(classes):
        if rng.random() < 0.4:
            loops += members
        joined = [d for d in range(c) if rng.random() < 0.5]
        if rng.random() < 0.5:
            joined.append(c)
        edges |= {(min(u, v), max(u, v)) for d in joined for u in members for v in classes[d]
                  if u != v}
        lam, mu = (1, 1) if unit else (Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                                       Fraction(rng.randint(1, 3), rng.randint(1, 2)))
        for v in members:
            lams[v], mus[v] = Fraction(lam), Fraction(mu)
    if rng.random() < 0.3:
        (lams if rng.random() < 0.5 else mus)[rng.randrange(len(labels))] += 1
    missing = [(u, v) for u in labels for v in labels if u < v and (u, v) not in edges]
    if missing and rng.random() < 0.3:
        edges.add(rng.choice(missing))
    return Graph(len(labels), sorted(edges), loops), ActivitySystem(tuple(lams), tuple(mus))


def random_bipartite(rng: random.Random, max_half: int = 4, p: float = 0.5) -> BipartiteGraph:
    a = rng.randint(1, max_half)
    b = rng.randint(1, max_half)
    edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    return BipartiteGraph(Graph(a + b, edges), range(a))


def random_two_sorted(rng: random.Random, max_side: int = 5, p: float = 0.5) -> BipartiteGraph:
    u = rng.randint(1, max_side)
    l = rng.randint(1, max_side)
    edges = [(i, u + j) for i in range(u) for j in range(l) if rng.random() < p]
    return BipartiteGraph(Graph(u + l, edges), range(u))


def random_activities(rng: random.Random, k: int, max_num: int = 3, max_den: int = 3) -> ActivitySystem:
    pairs = [
        (
            Fraction(rng.randint(1, max_num), rng.randint(1, max_den)),
            Fraction(rng.randint(1, max_num), rng.randint(1, max_den)),
        )
        for _ in range(k)
    ]
    return ActivitySystem.from_pairs(pairs)


def is_union_of_balanced_complete_bipartite(g: BipartiteGraph) -> bool:
    """True when every connected component is a K_{n,n} (same n not required
    per component beyond regularity, which callers check separately)."""
    seen = [False] * g.vertex_count
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        head = 0
        while head < len(comp):
            v = comp[head]
            head += 1
            for w in g.graph.neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        e_side = [v for v in comp if v in g.class_e]
        o_side = [v for v in comp if v in g.class_o]
        if len(e_side) != len(o_side):
            return False
        for u in e_side:
            for w in o_side:
                if not g.graph.adjacent(u, w):
                    return False
    return True


def side_preserving_isomorphic(a: BipartiteGraph, b: BipartiteGraph) -> bool:
    """Whether some bijection that maps class E onto class E and class O
    onto class O maps a's edges onto b's: every such bijection is tried."""
    if (len(a.class_e), len(a.class_o)) != (len(b.class_e), len(b.class_o)):
        return False
    edges_b = {frozenset(e) for e in b.graph.edges()}
    for images_e in itertools.permutations(sorted(b.class_e)):
        for images_o in itertools.permutations(sorted(b.class_o)):
            f = {**dict(zip(sorted(a.class_e), images_e)), **dict(zip(sorted(a.class_o), images_o))}
            if {frozenset((f[u], f[v])) for u, v in a.graph.edges()} == edges_b:
                return True
    return False


def relabelled(g: BipartiteGraph, perm) -> BipartiteGraph:
    """g with each vertex v renamed perm[v], its sides kept."""
    edges = [(perm[u], perm[v]) for u, v in g.graph.edges()]
    return BipartiteGraph(Graph(g.vertex_count, edges), [perm[v] for v in g.class_e])
