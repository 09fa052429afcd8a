"""Closed-form evaluation of complete-bipartite counts and partition values.

The restricted count of K_{n,n} into a two-sorted target is a sum over the
possible lower-side image sets A: (surjections onto A) times |common upper
neighbours of A|^n.  The weighted forms replace both factors by activity sums
and are accepted only through oracle equivalence with the brute-force
counters, never on derivation alone.

Every table over the 2^k subsets of a k-vertex set is charged against the
node-expansion budget before it is allocated; a target too large for the
budget is refused, never approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .constructions import TwoSortedTarget
from .errors import GraphFormatError, SubsetLimitError
from .graphs import Graph, mask_vertices
from .homcount import DEFAULT_BUDGET, ActivitySystem, as_fraction, clear_denominators


@dataclass(frozen=True)
class SubsetSummary:
    """One term of a subset-sum evaluation, kept for diagnostics.

    ``subset`` is a lower-side image set A, ``surjection_weight`` the count
    (or weighted sum) of surjections onto it, ``common_neighbors`` the set of
    admissible upper-side images given A, and ``term`` their contribution to
    the total.  The empty subset has the full upper side as its
    common-neighbor set and weight 0 whenever the source side is nonempty.
    """

    subset: tuple[int, ...]
    surjection_weight: Fraction
    common_neighbors: tuple[int, ...]
    term: Fraction


def surjection_count(n: int, a: int) -> int:
    """Number of surjections from an n-set onto an a-set, by
    inclusion-exclusion: sum_i (-1)^i C(a,i) (a-i)^n."""
    if n < 0 or a < 0:
        raise ValueError("sizes must be nonnegative")
    return sum((-1) ** i * comb(a, i) * (a - i) ** n for i in range(a + 1))


def weighted_surjection_sum(mus, n: int) -> Fraction:
    """Sum over surjections g: [n] -> range(len(mus)) of prod_i mu_{g(i)}.

    With all weights 1 this equals surjection_count(n, len(mus)).
    """
    mus = [as_fraction(x) for x in mus]
    a = len(mus)
    total = Fraction(0)
    for keep in range(1 << a):
        part = sum((mus[i] for i in range(a) if keep & (1 << i)), Fraction(0))
        sign = -1 if (a - keep.bit_count()) % 2 else 1
        total += sign * part**n
    return total


def _common_neighbor_table(vertices: list[int], masks: list[int], full: int,
                           budget: int) -> list[int]:
    # cn[A] = bitmask of vertices adjacent to every member of A; cn[0] = full.
    # Every subset table is built after this one, so this charge covers them.
    if 1 << len(vertices) > budget:
        raise SubsetLimitError(
            f"subset table of 2^{len(vertices)} entries exceeds budget {budget}")
    cn = [0] * (1 << len(vertices))
    cn[0] = full
    for a in range(1, 1 << len(vertices)):
        low = a & -a
        cn[a] = cn[a ^ low] & masks[vertices[low.bit_length() - 1]]
    return cn


def _subset_sums(h: Graph, acts: ActivitySystem) -> tuple[int, int, list, list]:
    """(d_lam, d_mu, lam_sub, mu_sub): the lambda- and mu-sums of every subset
    of V(h), indexed by bitmask and scaled to integers by the common
    denominators d_lam and d_mu."""
    m = h.vertex_count
    if acts.vertex_count != m:
        raise GraphFormatError("activity system size differs from target size")
    d_lam, lam = clear_denominators(acts.lambdas)
    d_mu, mu = clear_denominators(acts.mus)
    size = 1 << m
    lam_sub = [0] * size
    mu_sub = [0] * size
    for s in range(1, size):
        low = s & -s
        i = low.bit_length() - 1
        lam_sub[s] = lam_sub[s ^ low] + lam[i]
        mu_sub[s] = mu_sub[s ^ low] + mu[i]
    return d_lam, d_mu, lam_sub, mu_sub


def _surjection_weights(mu_sub: list[int], b: int, m: int) -> list[int]:
    """w[A] = sum over the surjections of b labelled items onto A of the
    product of their mu's, for every subset A of an m-set: the Moebius
    transform over subsets of mu_sub[A]^b, in m * 2^m steps."""
    w = [x**b for x in mu_sub]
    for i in range(m):
        bit = 1 << i
        for s in range(1 << m):
            if s & bit:
                w[s] -= w[s ^ bit]
    return w


def knn_restricted_count(n: int, target: TwoSortedTarget, budget: int = DEFAULT_BUDGET) -> int:
    """|Hom restricted to (upper, lower)| of K_{n,n} into the target,
    evaluated by the subset sum instead of the homomorphism counter."""
    if n < 1:
        raise ValueError("side size must be >= 1")
    lower = sorted(target.lower)
    masks = target.graph.neighbor_masks()
    cn = _common_neighbor_table(lower, masks, target.upper_mask(), budget)
    surj = [surjection_count(n, s) for s in range(min(len(lower), n) + 1)]
    total = 0
    for a in range(1, 1 << len(lower)):
        s = a.bit_count()
        if s > n:
            continue
        c = cn[a].bit_count()
        if c:
            total += surj[s] * c**n
    return total


def knn_restricted_terms(
    n: int, target: TwoSortedTarget, budget: int = DEFAULT_BUDGET
) -> list[SubsetSummary]:
    """The per-subset breakdown behind knn_restricted_count, empty set
    included; the term values sum to the count."""
    if n < 1:
        raise ValueError("side size must be >= 1")
    lower = sorted(target.lower)
    masks = target.graph.neighbor_masks()
    cn = _common_neighbor_table(lower, masks, target.upper_mask(), budget)
    surj = [surjection_count(n, s) for s in range(len(lower) + 1)]
    out = []
    for a in range(1 << len(lower)):
        subset = tuple(lower[i] for i in range(len(lower)) if a >> i & 1)
        common = mask_vertices(cn[a])
        weight = surj[len(subset)]
        out.append(
            SubsetSummary(subset, Fraction(weight), common, Fraction(weight * len(common) ** n))
        )
    return out


def knn_partition_terms(
    n: int, h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET
) -> list[SubsetSummary]:
    """Weighted analogue of knn_restricted_terms over subsets of V(h): the
    surjection weight is the mu-weighted surjection sum and the term
    multiplies it by the lambda-sum of the common neighbourhood to the n."""
    if n < 1:
        raise ValueError("side size must be >= 1")
    m = h.vertex_count
    cn = _common_neighbor_table(list(range(m)), h.neighbor_masks(), (1 << m) - 1, budget)
    d_lam, d_mu, lam_sub, mu_sub = _subset_sums(h, acts)
    w = _surjection_weights(mu_sub, n, m)
    out = []
    for s in range(1 << m):
        weight = Fraction(w[s], d_mu**n)
        term = Fraction(w[s] * lam_sub[cn[s]] ** n, (d_mu * d_lam) ** n)
        out.append(SubsetSummary(mask_vertices(s), weight, mask_vertices(cn[s]), term))
    return out


def kab_partition(
    a: int, b: int, h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact partition value on the complete bipartite graph whose E-class
    has size a (carrying lambda) and O-class size b (carrying mu).

    Sum over image sets A of the O-side: (weighted surjection sum onto A with
    exponent b) times (lambda-sum of the common neighbourhood of A)^a.  The
    inner inclusion-exclusion is a Moebius transform over subsets; everything
    runs on denominators-cleared integers.
    """
    if a < 1 or b < 1:
        raise ValueError("side sizes must be >= 1")
    m = h.vertex_count
    size = 1 << m
    cn = _common_neighbor_table(list(range(m)), h.neighbor_masks(), size - 1, budget)
    d_lam, d_mu, lam_sub, mu_sub = _subset_sums(h, acts)

    w = _surjection_weights(mu_sub, b, m)
    total = 0
    for s in range(size):
        ws = w[s]
        if ws:
            common = lam_sub[cn[s]]
            if common:
                total += ws * common**a
    return Fraction(total, d_mu**b * d_lam**a)


def knn_partition(n: int, h: Graph, acts: ActivitySystem,
                  budget: int = DEFAULT_BUDGET) -> Fraction:
    """Symmetric special case of kab_partition with both sides of size n."""
    return kab_partition(n, n, h, acts, budget)
