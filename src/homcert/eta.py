"""Weighted biclique optimum: the best cross-complete pair (A, B).

A pair is cross-complete when every A-vertex is adjacent to every B-vertex
(loops allowed, so A and B may overlap).  The score of a pair is the
lambda-sum of A times the mu-sum of B; with unit activities this is |A|*|B|,
the edge count of a complete bipartite subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphFormatError, SubsetLimitError
from .graphs import Graph, mask_vertices
from .homcount import DEFAULT_BUDGET, ActivitySystem, as_fraction, clear_denominators


@dataclass(frozen=True)
class EtaWitness:
    """An optimal cross-complete pair and its exact value.

    Returned witnesses are closed: set_b is the full common neighbourhood of
    set_a and vice versa, which certifies maximality given positive weights.
    """

    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    value: Fraction


def _subset_tables(h: Graph, acts: ActivitySystem, budget: int):
    """(d_lam, d_mu, cn, lam_sub, mu_sub), each table indexed by a subset
    bitmask A of V(h): cn[A] is the common neighbourhood of A (all of V(h)
    for A empty), lam_sub[A] and mu_sub[A] the activity sums over A scaled to
    integers by the common denominators d_lam and d_mu.  The 2^m subsets are
    charged to the budget before any table is allocated."""
    m = h.vertex_count
    if 1 << m > budget:
        raise SubsetLimitError(f"subset table of 2^{m} entries exceeds budget {budget}")
    if acts.vertex_count != m:
        raise GraphFormatError("activity system size differs from target size")
    masks = h.neighbor_masks()
    d_lam, lam = clear_denominators(acts.lambdas)
    d_mu, mu = clear_denominators(acts.mus)
    size = 1 << m
    cn = [size - 1] * size
    lam_sub = [0] * size
    mu_sub = [0] * size
    for s in range(1, size):
        low = s & -s
        i = low.bit_length() - 1
        cn[s] = cn[s ^ low] & masks[i]
        lam_sub[s] = lam_sub[s ^ low] + lam[i]
        mu_sub[s] = mu_sub[s ^ low] + mu[i]
    return d_lam, d_mu, cn, lam_sub, mu_sub


def eta_two_sided(h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET) -> EtaWitness:
    """Maximize (sum of lambda over A) * (sum of mu over B) over
    cross-complete pairs.

    Positivity makes B = C(A) (the common neighbourhood) optimal for fixed A,
    so the search ranges over the closure pairs (C(C(A)), C(A)) only; the
    full pair enumeration survives in the test suite as the oracle.  Ties
    break to the lexicographically smallest A, then smallest B.  A target
    with no edge has no admissible pair and scores 0 with an empty witness.
    """
    d_lam, d_mu, cn, lam_sub, mu_sub = _subset_tables(h, acts, budget)
    best_val = 0
    best_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for b_mask in cn:
        a_mask = cn[b_mask]
        val = lam_sub[a_mask] * mu_sub[b_mask]
        if val == 0 or val < best_val:
            continue
        pair = (mask_vertices(a_mask), mask_vertices(b_mask))
        if val > best_val or pair < best_pair:
            best_val = val
            best_pair = pair
    if best_pair is None:
        return EtaWitness((), (), Fraction(0))
    return EtaWitness(best_pair[0], best_pair[1], Fraction(best_val, d_lam * d_mu))


def eta_unweighted(h: Graph, budget: int = DEFAULT_BUDGET) -> EtaWitness:
    """Plain biclique optimum |A|*|B| (unit activities)."""
    return eta_two_sided(h, ActivitySystem.unit(h.vertex_count), budget)


def eta_one_sided(h: Graph, lambdas, budget: int = DEFAULT_BUDGET) -> EtaWitness:
    """One-sided model: the same weights on both sides of the pair."""
    lams = tuple(as_fraction(x) for x in lambdas)
    return eta_two_sided(h, ActivitySystem(lams, lams), budget)


def validate_witness(h: Graph, acts: ActivitySystem, witness: EtaWitness) -> bool:
    """Independent re-check: direct cross-completeness scan plus exact value
    recomputation (no reuse of the solver's tables)."""
    for i in witness.set_a:
        for j in witness.set_b:
            if not h.adjacent(i, j):
                return False
    val = sum((acts.lambdas[i] for i in witness.set_a), Fraction(0)) * sum(
        (acts.mus[j] for j in witness.set_b), Fraction(0)
    )
    return val == witness.value
