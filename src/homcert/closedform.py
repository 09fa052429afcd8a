"""Closed-form evaluation of complete-bipartite counts and partition values.

Z(K_{a,b}) sums, over the maps of the b-side into the target, the mu-weight
of the map times (lambda-sum of the common neighbourhood of its images)^a.
The maps are folded one b-side vertex at a time into a dict keyed by the
common neighbourhood of the images placed so far, so maps that agree on it
merge; a map whose images have no common neighbour contributes 0 and is
dropped.  The restricted count of K_{n,n} into a two-sorted target is the
same sum with unit weights over the lower side.  Both are accepted only
through oracle equivalence with the counters, never on derivation alone.

kab_partition keys its states by orbit of the target's twin swaps
(ActivitySystem.twin_prev): swapping twins maps the maps of one common
neighbourhood onto those of its image with the same weight and lambda-sum,
so each state is kept as the member that takes the lowest vertices of each
twin class, and K_m has at most m states per step instead of up to
2^m - 1.  The restricted count keeps one state per common neighbourhood.

The budget is charged one unit per target vertex per state before the state
is extended, so the dict never outgrows what the budget has seen; a target
too large for the budget is refused, never approximated.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .constructions import TwoSortedTarget
from .errors import BudgetExceededError
from .graphs import Graph, mask_vertices
from .homcount import DEFAULT_BUDGET, ActivitySystem


def surjection_count(n: int, a: int) -> int:
    """Number of surjections from an n-set onto an a-set, by
    inclusion-exclusion: sum_i (-1)^i C(a,i) (a-i)^n."""
    if n < 0 or a < 0:
        raise ValueError("sizes must be nonnegative")
    return sum((-1) ** i * comb(a, i) * (a - i) ** n for i in range(a + 1))


def _twin_classes(prev) -> list[tuple[int, list[int]]]:
    """(class mask, [mask of its k lowest members for k = 0..size]) for each
    twin class of two or more vertices, from ActivitySystem.twin_prev."""
    lows_of = {}  # keyed by the largest member so far of each class
    for i, j in enumerate(prev):
        lows = lows_of.pop(j, [0])
        lows.append(lows[-1] | 1 << i)
        lows_of[i] = lows
    return [(lows[-1], lows) for lows in lows_of.values() if len(lows) > 2]


def _common_neighbourhoods(b: int, vertices, masks, full: int, weight, budget: int,
                           twins=()) -> dict:
    """{c: w} over the maps of b labelled items into ``vertices``: w sums,
    over the maps whose images have common neighbourhood c (a nonempty
    bitmask within ``full``), the product of weight[j] over the images j.

    With ``twins`` (from _twin_classes) each c is an orbit of the twin swaps
    instead, kept as its canonical member: the one that takes the lowest
    members of each class.  The fold commutes with the swaps, so the merged
    weights are exact for any sum over c that the swaps leave unchanged."""
    states = {full: 1}
    meter = 0
    for _ in range(b):
        new = {}
        for cn, w in states.items():
            meter += len(vertices)
            if meter > budget:
                raise BudgetExceededError(f"node-expansion budget {budget} exceeded")
            for j in vertices:
                c = cn & masks[j]
                if c:
                    new[c] = new.get(c, 0) + w * weight[j]
        if twins:
            states = {}
            for c, w in new.items():
                for cls, lows in twins:
                    c = c & ~cls | lows[(c & cls).bit_count()]
                states[c] = states.get(c, 0) + w
        else:
            states = new
    return states


def knn_restricted_count(n: int, target: TwoSortedTarget, budget: int = DEFAULT_BUDGET) -> int:
    """|Hom restricted to (upper, lower)| of K_{n,n} into the target,
    evaluated in closed form instead of by the homomorphism counter."""
    if n < 1:
        raise ValueError("side size must be >= 1")
    masks = target.graph.neighbor_masks()
    states = _common_neighbourhoods(n, sorted(target.lower), masks, target.upper_mask(),
                                    [1] * len(masks), budget)
    return sum(w * c.bit_count() ** n for c, w in states.items())


def kab_partition(
    a: int, b: int, h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact partition value on the complete bipartite graph whose E-class
    has size a (carrying lambda) and O-class size b (carrying mu).

    Sum over the common neighbourhoods c of the O-side images: (mu-weight of
    the maps with that c) times (lambda-sum of c)^a, on denominators-cleared
    integers.
    """
    if a < 1 or b < 1:
        raise ValueError("side sizes must be >= 1")
    d_lam, lam, d_mu, mu = acts.integer_rows(h)
    m = h.vertex_count
    states = _common_neighbourhoods(b, range(m), h.neighbor_masks(), (1 << m) - 1, mu, budget,
                                    _twin_classes(acts.twin_prev(h)))
    total = sum(w * sum(lam[i] for i in mask_vertices(c)) ** a for c, w in states.items())
    return Fraction(total, d_mu**b * d_lam**a)


def knn_partition(n: int, h: Graph, acts: ActivitySystem,
                  budget: int = DEFAULT_BUDGET) -> Fraction:
    """Symmetric special case of kab_partition with both sides of size n."""
    return kab_partition(n, n, h, acts, budget)
