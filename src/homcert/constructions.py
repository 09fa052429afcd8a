"""Two target transformations: the bipartite double and the activity blow-up.

Both yield two-sorted targets whose restricted homomorphism counts encode the
original (weighted) counts exactly:

  count(g, h)            == restricted-count(g, double(h))
  Z(g, h, acts) * C**N   == restricted-count(g, blowup(h, acts))

where C is the least integer clearing every activity denominator and N is the
number of vertices of g.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import BudgetExceededError, GraphFormatError
from .graphs import (Graph, _check_index, _graph_from_doc, _int_list, _load_doc, _GRAPH_KEYS,
                     mask_of, serialize_graph)
from .homcount import DEFAULT_BUDGET, ActivitySystem


@dataclass(frozen=True)
class TwoSortedTarget:
    """A loopless graph with a distinguished (upper, lower) bisection; every
    edge runs between the two sides.

    ``provenance[v]``, when present, records (origin vertex, side, copy index)
    for targets produced by doubling or blowing up another graph.
    """

    graph: Graph
    upper: frozenset
    lower: frozenset
    provenance: tuple | None = None

    def __post_init__(self):
        n = self.graph.vertex_count
        if self.upper | self.lower != frozenset(range(n)) or self.upper & self.lower:
            raise GraphFormatError("upper and lower must partition the vertex set")
        if self.graph.loops:
            raise GraphFormatError("two-sorted target may not carry loops")
        for u, v in self.graph.edges():
            if (u in self.upper) == (v in self.upper):
                raise GraphFormatError(f"edge ({u}, {v}) does not cross the bisection")
        if self.provenance is not None and len(self.provenance) != n:
            raise GraphFormatError("provenance must cover every vertex")

    def upper_mask(self) -> int:
        return mask_of(self.upper)

    def lower_mask(self) -> int:
        return mask_of(self.lower)

    def __repr__(self) -> str:
        return (
            f"TwoSortedTarget({self.graph.vertex_count} vertices, "
            f"|U|={len(self.upper)}, |L|={len(self.lower)})"
        )


def two_sorted(graph: Graph, upper) -> TwoSortedTarget:
    """Wrap a graph with an explicit upper side; lower is the complement."""
    upper = frozenset(_check_index(v, graph.vertex_count) for v in upper)
    lower = frozenset(range(graph.vertex_count)) - upper
    return TwoSortedTarget(graph, upper, lower)


@dataclass(frozen=True)
class BlowupMeta:
    """Scale constant and per-origin copy counts of a blow-up."""

    scale: int
    upper_copies: tuple[int, ...]
    lower_copies: tuple[int, ...]


def double(h: Graph) -> TwoSortedTarget:
    """Bipartite double: upper copy v_i and lower copy w_j are adjacent
    exactly when i ~ j in h, so a loop at i becomes the cross edge v_i ~ w_i."""
    m = h.vertex_count
    edges = [(i, m + j) for i in range(m) for j in h.neighbors[i]]
    prov = tuple((i, "U", 0) for i in range(m)) + tuple((i, "L", 0) for i in range(m))
    return TwoSortedTarget(
        Graph(2 * m, edges), frozenset(range(m)), frozenset(range(m, 2 * m)), prov
    )


def scale_constant(acts: ActivitySystem) -> int:
    """Least positive integer C such that every C*lambda_i and C*mu_i is an
    integer: the lcm of all denominators in lowest terms."""
    return lcm(*(x.denominator for x in acts.lambdas + acts.mus))


def _copy_counts(h: Graph, acts: ActivitySystem) -> tuple[int, list[int], list[int]]:
    """(C, upper copies C*lambda_i, lower copies C*mu_i) of the blow-up."""
    d_lam, lam, d_mu, mu = acts.integer_rows(h)
    c = lcm(d_lam, d_mu)
    return c, [x * (c // d_lam) for x in lam], [x * (c // d_mu) for x in mu]


def blowup_size(h: Graph, acts: ActivitySystem) -> tuple[int, int]:
    """(vertices, edges) of blowup(h, acts), in O(|V(h)| + |E(h)|) time and
    without building it."""
    _, up, lo = _copy_counts(h, acts)
    edges = sum(up[i] * sum(lo[j] for j in h.neighbors[i]) for i in range(h.vertex_count))
    return sum(up) + sum(lo), edges


def blowup(
    h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET
) -> tuple[TwoSortedTarget, BlowupMeta]:
    """Replace vertex i by C*lambda_i upper copies and C*mu_i lower copies;
    join a copy of i to a copy of j exactly when i ~ j in h.

    Copy indices are assigned in origin-vertex order, so the layout (and its
    serialization) is deterministic.  With all activities 1 the result equals
    double(h) exactly.  A blow-up whose vertices plus edges exceed the budget
    raises BudgetExceededError before any of it is built.
    """
    vertices, edges = blowup_size(h, acts)
    if vertices + edges > budget:
        raise BudgetExceededError(
            f"blowup of {vertices} vertices and {edges} edges exceeds budget {budget}")
    m = h.vertex_count
    c, up, lo = _copy_counts(h, acts)

    u_start = [0] * m
    acc = 0
    for i in range(m):
        u_start[i] = acc
        acc += up[i]
    total_up = acc
    l_start = [0] * m
    for i in range(m):
        l_start[i] = acc
        acc += lo[i]

    prov: list[tuple[int, str, int]] = []
    for i in range(m):
        prov.extend((i, "U", k) for k in range(up[i]))
    for i in range(m):
        prov.extend((i, "L", k) for k in range(lo[i]))

    edges = (
        (u_start[i] + a, l_start[j] + b)
        for i in range(m)
        for j in h.neighbors[i]
        for a in range(up[i])
        for b in range(lo[j])
    )
    target = TwoSortedTarget(
        Graph(acc, edges),
        frozenset(range(total_up)),
        frozenset(range(total_up, acc)),
        tuple(prov),
    )
    return target, BlowupMeta(c, tuple(up), tuple(lo))


# ---------------------------------------------------------------------------
# File format: a graph document plus {"upper": [...]}


def parse_two_sorted(data, budget: int = DEFAULT_BUDGET) -> TwoSortedTarget:
    doc = _load_doc(data)
    if "upper" not in doc:
        raise GraphFormatError("missing 'upper'")
    graph = _graph_from_doc({k: v for k, v in doc.items() if k != "upper"}, _GRAPH_KEYS, budget)
    return two_sorted(graph, _int_list(doc, "upper"))


def serialize_two_sorted(t: TwoSortedTarget) -> dict:
    doc = serialize_graph(t.graph)
    doc["upper"] = sorted(t.upper)
    return doc
