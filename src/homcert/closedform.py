"""Closed-form evaluation of complete-bipartite counts and partition values.

Z(K_{a,b}) sums, over the maps of the b-side into the target, the mu-weight
of the map times (lambda-sum of the common neighbourhood of its images)^a.
The maps are folded one b-side vertex at a time into a dict keyed by the
common neighbourhood of the images placed so far, so maps that agree on it
merge; a map whose images have no common neighbour contributes 0 and is
dropped.  The restricted count of K_{n,n} into a two-sorted target is the
same sum with unit weights over the lower side.  Both are accepted only
through oracle equivalence with the counters, never on derivation alone.

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


def _common_neighbourhoods(b: int, vertices, masks, full: int, weight, budget: int) -> dict:
    """{c: w} over the maps of b labelled items into ``vertices``: w sums,
    over the maps whose images have common neighbourhood c (a nonempty
    bitmask within ``full``), the product of weight[j] over the images j."""
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
    states = _common_neighbourhoods(b, range(m), h.neighbor_masks(), (1 << m) - 1, mu, budget)
    total = sum(w * sum(lam[i] for i in mask_vertices(c)) ** a for c, w in states.items())
    return Fraction(total, d_mu**b * d_lam**a)


def knn_partition(n: int, h: Graph, acts: ActivitySystem,
                  budget: int = DEFAULT_BUDGET) -> Fraction:
    """Symmetric special case of kab_partition with both sides of size n."""
    return kab_partition(n, n, h, acts, budget)
