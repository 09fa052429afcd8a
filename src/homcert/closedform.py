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
(ActivitySystem.twin_classes): swapping twins maps the maps of one common
neighbourhood onto those of its image with the same weight and lambda-sum,
so each state is kept as the member that takes the lowest vertices of each
twin class, and K_m has at most m states per step instead of up to
2^m - 1.  The restricted count keeps one state per common neighbourhood.

The budget is charged one unit per target vertex per state before the state
is extended, so the dict never outgrows what the budget has seen; a target
too large for the budget is refused, never approximated.  Before any of
that, a bound on the answer's bit length is checked, so a huge exponent is
refused at once instead of spending minutes on one big power: like a
document's size, the bound is held to the larger of the budget and the
default, so a small budget still meters the work alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DEFAULT_BUDGET, BudgetExceededError, input_limit
from .graphs import BipartiteGraph, Graph, mask_of, mask_vertices
from .homcount import ActivitySystem


def _check_answer_bits(bits: int, budget: int) -> None:
    """Refuse a closed form whose answer (or sum of terms) may take more than
    ``bits`` bits past the larger of the budget and the default, before it
    is computed."""
    limit = input_limit(budget)
    if bits > limit:
        raise BudgetExceededError(f"closed form of up to {bits} bits exceeds budget {limit}")


def surjection_count(n: int, a: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of surjections from an n-set onto an a-set, by
    inclusion-exclusion: sum_i (-1)^i C(a,i) (a-i)^n."""
    if n < 0 or a < 0:
        raise ValueError("sizes must be nonnegative")
    if a > n:
        return 0
    # a + 1 terms, each below 2^a * a^n
    _check_answer_bits((a + 1) * (a + n * a.bit_length()), budget)
    return sum((-1) ** i * comb(a, i) * (a - i) ** n for i in range(a + 1))


def _common_neighbourhoods(b: int, vertices, masks, full: int, weight, budget: int,
                           twins=()) -> dict:
    """{c: w} over the maps of b labelled items into ``vertices``: w sums,
    over the maps whose images have common neighbourhood c (a nonempty
    bitmask within ``full``), the product of weight[j] over the images j.

    With ``twins`` (ActivitySystem.twin_classes) each c is an orbit of the
    twin swaps instead, kept as its canonical member: the one that takes the
    lowest members of each class.  The fold commutes with the swaps, so the
    merged weights are exact for any sum over c that the swaps leave
    unchanged."""
    states = {full: 1}
    meter = 0
    lows_of = []  # (class, [mask of its k lowest members for k = 0..size])
    for cls in twins:
        lows = [0]
        for j in mask_vertices(cls):
            lows.append(lows[-1] | 1 << j)
        lows_of.append((cls, lows))
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
                for cls, lows in lows_of:
                    c = c & ~cls | lows[(c & cls).bit_count()]
                states[c] = states.get(c, 0) + w
        else:
            states = new
    return states


def knn_restricted_count(n: int, target: BipartiteGraph, budget: int = DEFAULT_BUDGET) -> int:
    """|Hom restricted to (E, O)| of K_{n,n} into the target (a two-sorted
    target's upper and lower sides), evaluated in closed form instead of by
    the homomorphism counter."""
    if n < 1:
        raise ValueError("side size must be >= 1")
    # at most |O|^n maps, each counted |E|^n times at most
    _check_answer_bits(n * (len(target.class_e).bit_length() + len(target.class_o).bit_length()),
                       budget)
    masks = target.graph.neighbor_masks()
    states = _common_neighbourhoods(n, sorted(target.class_o), masks, mask_of(target.class_e),
                                    [1] * len(masks), budget)
    return sum(w * c.bit_count() ** n for c, w in states.items())


def kab_partition(
    a: int, b: int, h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET, twins=None
) -> Fraction:
    """Exact partition value on the complete bipartite graph whose E-class
    has size a (carrying lambda) and O-class size b (carrying mu).

    Sum over the common neighbourhoods c of the O-side images: (mu-weight of
    the maps with that c) times (lambda-sum of c)^a, on denominators-cleared
    integers.  ``twins`` is acts.twin_classes(h), for a caller that already
    has them.
    """
    if a < 1 or b < 1:
        raise ValueError("side sizes must be >= 1")
    d_lam, lam, d_mu, mu = acts.integer_rows(h)
    # the cleared sum is at most (sum mu)^b * (sum lambda)^a, over d_mu^b * d_lam^a
    # (d - 1).bit_length() is ceil(log2 d), so d^a has at most a times that bits
    _check_answer_bits(a * (sum(lam).bit_length() + (d_lam - 1).bit_length())
                       + b * (sum(mu).bit_length() + (d_mu - 1).bit_length()), budget)
    m = h.vertex_count
    if twins is None:
        twins = acts.twin_classes(h)
    states = _common_neighbourhoods(b, range(m), h.neighbor_masks(), (1 << m) - 1, mu, budget,
                                    twins)
    total = sum(w * sum(lam[i] for i in mask_vertices(c)) ** a for c, w in states.items())
    return Fraction(total, d_mu**b * d_lam**a)

