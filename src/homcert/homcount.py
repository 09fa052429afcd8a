"""Exact brute-force counting of homomorphisms and weighted partition values.

This module is the ground-truth oracle for everything else in the package:
component-wise backtracking in BFS vertex order with incremental candidate
intersection, big integers throughout, and a hard node-expansion budget that
turns oversized instances into an explicit error rather than a wrong answer.
Weighted sums run on integers (activities scaled by their denominator lcm)
and reduce to one exact rational at the end; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .errors import BudgetExceededError, GraphFormatError
from .graphs import BipartiteGraph, Graph, _load_doc

if TYPE_CHECKING:
    from .constructions import TwoSortedTarget

DEFAULT_BUDGET = 20_000_000

_ONE = Fraction(1)


def clear_denominators(values) -> tuple[int, list[int]]:
    """(d, [d*x for x in values]) where d is the least common denominator of
    the rationals in ``values`` (1 when there are none)."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def as_fraction(value) -> Fraction:
    """Exact rational from an int or a 'p/q' string; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise GraphFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise GraphFormatError(f"not a rational: {value!r}") from None
    raise GraphFormatError(f"not a rational: {value!r}")


@dataclass(frozen=True)
class ActivitySystem:
    """Per-target-vertex pair of strictly positive rational activities.

    ``lambdas[i]`` weighs E-class images, ``mus[i]`` weighs O-class images;
    lambda == mu everywhere is the one-sided model.
    """

    lambdas: tuple[Fraction, ...]
    mus: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lambdas) != len(self.mus):
            raise GraphFormatError("lambda and mu tuples must have equal length")
        if any(x <= 0 for x in self.lambdas + self.mus):
            raise GraphFormatError("activities must be strictly positive")

    @property
    def vertex_count(self) -> int:
        return len(self.lambdas)

    @classmethod
    def unit(cls, k: int) -> "ActivitySystem":
        ones = (_ONE,) * k
        return cls(ones, ones)

    @classmethod
    def uniform(cls, k: int, lam, mu=None) -> "ActivitySystem":
        lam = as_fraction(lam)
        mu = lam if mu is None else as_fraction(mu)
        return cls((lam,) * k, (mu,) * k)

    @classmethod
    def from_pairs(cls, pairs) -> "ActivitySystem":
        pairs = [(as_fraction(a), as_fraction(b)) for a, b in pairs]
        return cls(tuple(a for a, _ in pairs), tuple(b for _, b in pairs))

    @classmethod
    def from_mapping(cls, k: int, mapping) -> "ActivitySystem":
        """Pairs keyed by vertex index; omitted vertices default to (1, 1)."""
        lams = [_ONE] * k
        mus = [_ONE] * k
        for key, (lam, mu) in mapping.items():
            v = int(key)
            if not 0 <= v < k:
                raise GraphFormatError(f"activity vertex {key!r} out of range")
            lams[v] = as_fraction(lam)
            mus[v] = as_fraction(mu)
        return cls(tuple(lams), tuple(mus))

    def is_unit(self) -> bool:
        return all(x == 1 for x in self.lambdas + self.mus)

    def is_uniform(self) -> bool:
        return len(set(self.lambdas)) <= 1 and len(set(self.mus)) <= 1

    def swapped(self) -> "ActivitySystem":
        return ActivitySystem(self.mus, self.lambdas)

    def describe(self) -> dict:
        """Canonical JSON-ready description (all rationals as strings)."""
        if self.is_unit():
            return {"unit": True}
        if self.is_uniform():
            return {
                "uniform": {"lambda": str(self.lambdas[0]), "mu": str(self.mus[0])}
            }
        return {
            "vertex": {
                str(v): {"lambda": str(self.lambdas[v]), "mu": str(self.mus[v])}
                for v in range(self.vertex_count)
                if self.lambdas[v] != 1 or self.mus[v] != 1
            }
        }


def parse_activities(data, vertex_count: int) -> ActivitySystem:
    """Parse the activity file format.

    {"activities": {"<vertex>": {"lambda": "p/q", "mu": "p/q"}}}; omitted
    vertices default to 1; "lambda" alone sets both (one-sided model).
    """
    data = _load_doc(data)
    if set(data) != {"activities"}:
        raise GraphFormatError("activity document must be {'activities': {...}}")
    entries = data["activities"]
    if not isinstance(entries, dict):
        raise GraphFormatError("'activities' must map vertex indices to pairs")
    mapping = {}
    for key, entry in entries.items():
        if not isinstance(entry, dict) or not entry or set(entry) - {"lambda", "mu"}:
            raise GraphFormatError(f"bad activity entry for vertex {key!r}")
        lam = entry.get("lambda", 1)
        mu = entry.get("mu", entry["lambda"] if "lambda" in entry else 1)
        mapping[key] = (lam, mu)
    return ActivitySystem.from_mapping(vertex_count, mapping)


# ---------------------------------------------------------------------------
# Backtracking kernel
#
# Candidate sets are bitmasks over the target's vertices.  Budget is charged
# once per candidate image considered (leaves included), so a budget of 0
# refuses any nonempty instance and equal budgets always fail at the same
# point regardless of thread count.


def _bfs_plan(g: Graph, start: int, seen: list[bool]):
    order = [start]
    pos = {start: 0}
    seen[start] = True
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in g.neighbors[v]:
            if w != v and not seen[w]:
                seen[w] = True
                pos[w] = len(order)
                order.append(w)
    earlier = [
        tuple(pos[w] for w in g.neighbors[v] if w != v and pos[w] < pos[v])
        for v in order
    ]
    return order, earlier


def _component_sum(order, earlier, base, h_masks, rows, meter, budget) -> int:
    k = len(order)
    images = [0] * k

    def rec(t: int) -> int:
        m = base[t]
        for p in earlier[t]:
            m &= h_masks[images[p]]
        if m == 0:
            return 0
        meter[0] += m.bit_count()
        if meter[0] > budget:
            raise BudgetExceededError(f"node-expansion budget {budget} exceeded")
        if t == k - 1:
            if rows is None:
                return m.bit_count()
            row = rows[t]
            total = 0
            while m:
                low = m & -m
                m ^= low
                total += row[low.bit_length() - 1]
            return total
        total = 0
        if rows is None:
            while m:
                low = m & -m
                m ^= low
                images[t] = low.bit_length() - 1
                total += rec(t + 1)
        else:
            row = rows[t]
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                images[t] = j
                sub = rec(t + 1)
                if sub:
                    total += row[j] * sub
        return total

    return rec(0)


def _hom_sum(g: Graph, base_of, h_masks, rows_of, budget: int) -> int:
    """Product over connected components of the per-component assignment sums.

    ``rows_of[v]`` is an integer weight row for vertex v, or None overall for
    plain counting.  An empty graph contributes the empty product 1.
    """
    meter = [0]
    total = 1
    seen = [False] * g.vertex_count
    for s in range(g.vertex_count):
        if seen[s]:
            continue
        order, earlier = _bfs_plan(g, s, seen)
        base = [base_of[v] for v in order]
        rows = None if rows_of is None else [rows_of[v] for v in order]
        comp = _component_sum(order, earlier, base, h_masks, rows, meter, budget)
        if comp == 0:
            return 0
        total *= comp
    return total


# ---------------------------------------------------------------------------
# Operations


def count_homs(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of maps V(g) -> V(h) with u~v implying f(u)~f(v).

    g need not be bipartite or regular; a looped g-vertex must land on a
    looped h-vertex.
    """
    h_masks = h.neighbor_masks()
    full = (1 << h.vertex_count) - 1
    loop_mask = h.loop_mask()
    base = [loop_mask if v in g.loops else full for v in range(g.vertex_count)]
    return _hom_sum(g, base, h_masks, None, budget)


def count_homs_restricted(
    g: BipartiteGraph, target: "TwoSortedTarget", budget: int = DEFAULT_BUDGET
) -> int:
    """Exact count of homomorphisms sending class E into the target's upper
    side and class O into its lower side."""
    h_masks = target.graph.neighbor_masks()
    um = target.upper_mask()
    lm = target.lower_mask()
    base = [um if v in g.class_e else lm for v in range(g.vertex_count)]
    return _hom_sum(g.graph, base, h_masks, None, budget)


def partition_fn(
    g: BipartiteGraph, h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact weighted homomorphism sum: each map contributes the product of
    lambda over its E-images times mu over its O-images.

    With all activities 1 this equals count_homs exactly.
    """
    if acts.vertex_count != h.vertex_count:
        raise GraphFormatError("activity system size differs from target size")
    if acts.is_unit():
        return Fraction(count_homs(g.graph, h, budget))
    d_lam, row_e = clear_denominators(acts.lambdas)
    d_mu, row_o = clear_denominators(acts.mus)
    rows = [row_e if v in g.class_e else row_o for v in range(g.vertex_count)]
    h_masks = h.neighbor_masks()
    full = (1 << h.vertex_count) - 1
    base = [full] * g.vertex_count
    num = _hom_sum(g.graph, base, h_masks, rows, budget)
    return Fraction(num, d_lam ** len(g.class_e) * d_mu ** len(g.class_o))


def count_independent_sets(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of independent sets, by direct subset backtracking.

    Deliberately a separate implementation from the homomorphism counter so
    the two can cross-check each other; a looped vertex can never be selected.
    """
    n = g.vertex_count
    nbr = [m & ~(1 << v) for v, m in enumerate(g.neighbor_masks())]
    loop_bits = g.loop_mask()
    meter = 0
    total = 0
    stack = [(0, 0)]  # (next vertex to decide, chosen vertices so far)
    while stack:
        t, chosen = stack.pop()
        if t == n:
            total += 1
            continue
        meter += 1
        if meter > budget:
            raise BudgetExceededError(f"node-expansion budget {budget} exceeded")
        stack.append((t + 1, chosen))
        bit = 1 << t
        if not loop_bits & bit and not chosen & nbr[t]:
            stack.append((t + 1, chosen | bit))
    return total
