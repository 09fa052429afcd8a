"""Two target transformations: the bipartite double and the activity blow-up.

Both yield two-sorted targets, BipartiteGraphs whose class E is the upper
side, and their restricted homomorphism counts encode the original
(weighted) counts exactly:

  count(g, h)            == restricted-count(g, double(h))
  Z(g, h, acts) * C**N   == restricted-count(g, blowup(h, acts))

where C is the least integer clearing every activity denominator and N is the
number of vertices of g.
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from typing import NamedTuple

from .errors import BudgetExceededError
from .graphs import BipartiteGraph, Graph
from .homcount import DEFAULT_BUDGET, ActivitySystem


class BlowupMeta(NamedTuple):
    """Scale constant and per-origin copy counts of a blow-up."""

    scale: int
    upper_copies: tuple[int, ...]
    lower_copies: tuple[int, ...]


def double(h: Graph) -> BipartiteGraph:
    """Bipartite double: upper copy v_i (vertex i) and lower copy w_j (vertex
    m + j) are adjacent exactly when i ~ j in h, so a loop at i becomes the
    cross edge v_i ~ w_i."""
    m = h.vertex_count
    edges = [(i, m + j) for i in range(m) for j in h.neighbors[i]]
    return BipartiteGraph(Graph(2 * m, edges), range(m))


def scale_constant(acts: ActivitySystem) -> int:
    """Least positive integer C such that every C*lambda_i and C*mu_i is an
    integer: the lcm of the two denominators that ActivitySystem clears."""
    d_lam, _, d_mu, _ = acts._integer_rows
    return lcm(d_lam, d_mu)


def _copy_counts(h: Graph, acts: ActivitySystem) -> tuple[int, list[int], list[int]]:
    """(C, upper copies C*lambda_i, lower copies C*mu_i) of the blow-up."""
    d_lam, lam, d_mu, mu = acts.integer_rows(h)
    c = scale_constant(acts)
    return c, [x * (c // d_lam) for x in lam], [x * (c // d_mu) for x in mu]


def blowup_size(h: Graph, acts: ActivitySystem) -> tuple[int, int]:
    """(vertices, edges) of blowup(h, acts), in O(|V(h)| + |E(h)|) time and
    without building it."""
    _, up, lo = _copy_counts(h, acts)
    edges = sum(up[i] * sum(lo[j] for j in h.neighbors[i]) for i in range(h.vertex_count))
    return sum(up) + sum(lo), edges


def blowup(
    h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET
) -> tuple[BipartiteGraph, BlowupMeta]:
    """Replace vertex i by C*lambda_i upper copies and C*mu_i lower copies;
    join a copy of i to a copy of j exactly when i ~ j in h.

    Copies come in origin-vertex order, the upper ones (the blow-up's class
    E) before the lower ones, so BlowupMeta's copy counts give each copy's
    origin and the layout (and its serialization) is deterministic.  With
    all activities 1 the result equals double(h) exactly.  A blow-up whose
    vertices plus edges exceed the budget raises BudgetExceededError before
    any of it is built.
    """
    vertices, edges = blowup_size(h, acts)
    if vertices + edges > budget:
        raise BudgetExceededError(
            f"blowup of {vertices} vertices and {edges} edges exceeds budget {budget}")
    m = h.vertex_count
    c, up, lo = _copy_counts(h, acts)
    # the first copy of each origin, the upper copies before the lower ones
    starts = list(accumulate(up + lo, initial=0))
    u_start, l_start = starts[:m], starts[m:]
    edges = (
        (u_start[i] + a, l_start[j] + b)
        for i in range(m)
        for j in h.neighbors[i]
        for a in range(up[i])
        for b in range(lo[j])
    )
    target = BipartiteGraph(Graph(starts[-1], edges), range(starts[m]))
    return target, BlowupMeta(c, tuple(up), tuple(lo))

