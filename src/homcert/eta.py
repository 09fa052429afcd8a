"""Weighted biclique optimum: the best cross-complete pair (A, B).

A pair is cross-complete when every A-vertex is adjacent to every B-vertex
(loops allowed, so A and B may overlap).  The score of a pair is the
lambda-sum of A times the mu-sum of B; with unit activities this is |A|*|B|,
the edge count of a complete bipartite subgraph.

The sets A with a common neighbour form a down-set, the neighbourhood
complex of the target; the optimum is found by a depth-first walk of it that
charges the budget one unit per candidate vertex tried, never by a table
over all subsets.  Twin target vertices (graphs.twin_classes under both
activities) are interchangeable, so the walk visits one set per orbit of
the twin swaps: K_m costs m(m+1)/2 instead of 2^m - 1, and a twin-free
target walks every set of its complex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetExceededError
from .graphs import Graph, mask_vertices, twin_classes
from .homcount import DEFAULT_BUDGET, ActivitySystem


class EtaWitness(NamedTuple):
    """An optimal cross-complete pair and its exact value.

    Returned witnesses are closed: set_b is the full common neighbourhood of
    set_a and vice versa, which certifies maximality given positive weights.
    """

    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    value: Fraction


def eta_two_sided(h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET) -> EtaWitness:
    """Maximize (sum of lambda over A) * (sum of mu over B) over
    cross-complete pairs.

    Positivity makes B = C(A) (the common neighbourhood) optimal for fixed A
    and every maximizer a closed pair (C(C(A)), C(A)), so the walk scores each
    A of the complex against C(A).  It visits A in lexicographic order and
    keeps the first maximum, so ties break to the smallest A, then smallest
    B.  A vertex joins A only after all its smaller twins have, so A takes
    the lowest members of each twin class: that set scores like every set
    with the same count per class and comes first among them, so the first
    maximum is the same.  The pair enumeration and the subset tables are the
    test oracles.  A target with no edge scores 0 with an empty witness.
    """
    d_lam, lam, d_mu, mu = acts.integer_rows(h)
    m = h.vertex_count
    masks = h.neighbor_masks()
    below = [0] * m  # each vertex's smaller twins
    for cls in twin_classes(masks, (lam, mu)):
        for i in mask_vertices(cls):
            below[i] = cls & (1 << i) - 1
    best_val, best, meter = 0, None, 0
    # (A, C(A), lambda-sum of A, mu-sum of C(A), least vertex A may still take)
    stack = [(0, (1 << m) - 1, 0, sum(mu), 0)]
    while stack:
        a_mask, cn, lam_a, mu_cn, start = stack.pop()
        if lam_a * mu_cn > best_val:
            best_val, best = lam_a * mu_cn, (a_mask, cn)
        meter += m - start
        if meter > budget:
            raise BudgetExceededError(f"node-expansion budget {budget} exceeded")
        for i in range(m - 1, start - 1, -1):
            c = cn & masks[i]
            if c and not below[i] & ~a_mask:
                mu_c, gone = mu_cn, cn ^ c
                while gone:
                    low = gone & -gone
                    gone ^= low
                    mu_c -= mu[low.bit_length() - 1]
                stack.append((a_mask | 1 << i, c, lam_a + lam[i], mu_c, i + 1))
    if best is None:
        return EtaWitness((), (), Fraction(0))
    return EtaWitness(mask_vertices(best[0]), mask_vertices(best[1]),
                      Fraction(best_val, d_lam * d_mu))


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
