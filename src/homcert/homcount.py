"""Exact counting of homomorphisms and weighted partition values.

This module is the ground-truth counter for everything else in the package.
Its walks run on the frontier kernel (``frontier._hom_sum``): big integers
throughout, and a hard node-expansion budget that turns oversized instances
into an explicit error rather than a wrong answer.  Weighted sums run on
integers (activities scaled by their denominator lcm) and reduce to one
exact rational at the end; no floating point anywhere.  ``ActivitySystem``
owns the activities and their integer rows; the kernel derives each walk's
twin classes itself, restricted counts' included.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from operator import mul

from .errors import DEFAULT_BUDGET, BudgetExceededError, GraphFormatError, input_digits, shown
from .frontier import _hom_sum
from .graphs import BipartiteGraph, Graph, mask_of

_ONE = Fraction(1)

# an activity document may hold this many bytes per target vertex, and as
# many again for itself: a vertex's entry holds at most two rationals, each
# integer in them of at most 4,300 digits (errors.input_digits)
ACTIVITY_BYTES = 1 << 15


def clear_denominators(values) -> tuple[int, list[int]]:
    """(d, [d*x for x in values]) where d is the least common denominator of
    the rationals in ``values`` (1 when there are none)."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def as_fraction(value) -> Fraction:
    """Exact rational from an int or an integer, decimal or 'p/q' string;
    floats and exponent notation ("1e10000000" is 33 Mbit) are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise GraphFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise GraphFormatError(f"not a rational (exponent notation): {shown(value)}")
        try:
            with input_digits():
                return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise GraphFormatError(f"not a rational: {shown(value)}") from None
    raise GraphFormatError(f"not a rational: {shown(value)}")


class ActivitySystem:
    """Per-target-vertex pair of strictly positive rational activities.

    ``lambdas[i]`` weighs E-class images, ``mus[i]`` weighs O-class images;
    lambda == mu everywhere is the one-sided model.  Immutable, equal and
    hashed by value: a system keys the memos of a run and keeps its own
    integer rows; it holds no target.
    """

    def __init__(self, lambdas: tuple[Fraction, ...], mus: tuple[Fraction, ...]):
        if len(lambdas) != len(mus):
            raise GraphFormatError("lambda and mu tuples must have equal length")
        if any(x <= 0 for x in lambdas + mus):
            raise GraphFormatError("activities must be strictly positive")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "mus", mus)

    def __setattr__(self, name, value):
        raise AttributeError(f"ActivitySystem is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ActivitySystem is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lambdas == other.lambdas and self.mus == other.mus

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # immutable, so the Fractions are hashed once per system, not per lookup
        return hash((self.lambdas, self.mus))

    def __repr__(self) -> str:
        return f"ActivitySystem(lambdas={self.lambdas!r}, mus={self.mus!r})"

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
    def from_mapping(cls, k: int, mapping) -> "ActivitySystem":
        """Pairs keyed by vertex index, an int or its str(); omitted vertices
        default to (1, 1)."""
        lams = [_ONE] * k
        mus = [_ONE] * k
        for key, (lam, mu) in mapping.items():
            try:
                with input_digits():
                    v = int(key) if isinstance(key, str) else key
            except ValueError:
                v = None
            # int() also reads "00", " 1 ", "1_0" and other scripts' digits: a
            # key is an int or the index as str() writes it, so no two name one vertex
            if type(v) is not int or isinstance(key, str) and key != str(v):
                raise GraphFormatError(f"activity vertex {shown(key)} is not an index")
            if not 0 <= v < k:
                raise GraphFormatError(f"activity vertex {shown(key)} out of range")
            lams[v] = as_fraction(lam)
            mus[v] = as_fraction(mu)
        return cls(tuple(lams), tuple(mus))

    def integer_rows(self, h: Graph) -> tuple[int, list[int], int, list[int]]:
        """(d_lam, lam_row, d_mu, mu_row): clear_denominators of the lambdas
        and of the mus, computed once per system and shared (callers must not
        change the rows); a GraphFormatError unless the system fits h."""
        if self.vertex_count != h.vertex_count:
            raise GraphFormatError("activity system size differs from target size")
        return self._integer_rows

    @cached_property
    def _integer_rows(self):
        return (*clear_denominators(self.lambdas), *clear_denominators(self.mus))

    def is_unit(self) -> bool:
        return all(x == 1 for x in self.lambdas + self.mus)

    def is_uniform(self) -> bool:
        return all(row.count(row[0]) == len(row) for row in (self.lambdas, self.mus) if row)

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


def _pair(entry):
    """(lambda, mu) of a {"lambda", "mu"} pair, or None if ``entry`` is not
    one: lambda defaults to 1, and lambda alone sets both (one-sided model)."""
    if not isinstance(entry, dict) or not entry or set(entry) - {"lambda", "mu"}:
        return None
    lam = entry.get("lambda", 1)
    return lam, entry.get("mu", lam if "lambda" in entry else 1)


def _vertex_pairs(entries, vertex_count: int, key: str) -> ActivitySystem:
    """The system of a map from vertex indices to pairs, listed under ``key``."""
    if not isinstance(entries, dict):
        raise GraphFormatError(f"{key!r} must map vertex indices to pairs")
    mapping = {}
    for vertex, entry in entries.items():
        pair = _pair(entry)
        if pair is None:
            raise GraphFormatError(f"bad activity entry for vertex {shown(vertex)}")
        mapping[vertex] = pair
    return ActivitySystem.from_mapping(vertex_count, mapping)


def resolve_activities(entry, vertex_count: int) -> ActivitySystem:
    """The one reader of the activity format: an entry as describe() writes
    it or a campaign grid lists it, also "unit", None, a bare {"lambda",
    "mu"} pair or an activity document {"activities": {"<vertex>": pair}}.
    Omitted vertices and an omitted lambda default to 1; "lambda" alone sets
    both (one-sided model)."""
    if entry is None or entry == "unit" or entry == {"unit": True}:
        return ActivitySystem.unit(vertex_count)
    if isinstance(entry, dict):
        pair = _pair(entry["uniform"] if set(entry) == {"uniform"} else entry)
        if pair is not None:
            return ActivitySystem.uniform(vertex_count, *pair)
        if set(entry) == {"vertex"}:
            return _vertex_pairs(entry["vertex"], vertex_count, "vertex")
        if set(entry) == {"activities"}:
            return _vertex_pairs(entry["activities"], vertex_count, "activities")
    raise GraphFormatError(f"bad activity entry {shown(entry)}")


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
    g: BipartiteGraph, target: BipartiteGraph, budget: int = DEFAULT_BUDGET
) -> int:
    """Exact count of homomorphisms sending g's class E into the target's
    class E (a two-sorted target's upper side) and class O into its class O
    (the lower side)."""
    h_masks = target.graph.neighbor_masks()
    em = mask_of(target.class_e)
    om = mask_of(target.class_o)
    base = [em if v in g.class_e else om for v in range(g.vertex_count)]
    return _hom_sum(g.graph, base, h_masks, None, budget)


def partition_fn(
    g: BipartiteGraph, h: Graph, acts: ActivitySystem, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact weighted homomorphism sum: each map contributes the product of
    lambda over its E-images times mu over its O-images.

    With all activities 1 this equals count_homs exactly.  A one-system
    grid: grid_values of grid_walks(h, [acts], |E|, |O|), its refusal raised.
    """
    walks = grid_walks(h, [acts], len(g.class_e), len(g.class_o))
    value = grid_values(g, h, walks, budget)[acts]
    if isinstance(value, BudgetExceededError):
        raise value
    return value


def _walk(g: BipartiteGraph, h_masks, row_e, row_o, budget: int) -> int:
    """One weighted kernel walk over the maps of g into the target:
    E-vertices weigh row_e, O-vertices row_o."""
    rows = [row_e if v in g.class_e else row_o for v in range(g.vertex_count)]
    return _hom_sum(g.graph, [(1 << len(h_masks)) - 1] * g.vertex_count, h_masks, rows, budget)


# What one kernel step costs besides its weight arithmetic, in bits of
# weight: a walk whose weights are W bits wide costs about steps * (this + W).
# Timed on cycles into K3 with 2 and 8 systems, packed and separate walks
# cross over between 1,500 and 3,500 bits.
_STEP_BITS = 2048


def _scaled(factors, total: int) -> list[Fraction]:
    return [total * factor for factor in factors]


def grid_walks(h: Graph, systems, ne: int, no: int) -> list[tuple]:
    """The walks that answer Z(g, h, acts) for every system in ``systems``
    and every source g with |E| = ne and |O| = no, in the order they run:

    - uniform systems (unit included) share one count_homs walk, as
      Z = lambda^|E| * mu^|O| * hom(g, h);
    - the others, when they differ at one target vertex only and the packed
      weights stay narrow enough to pay off, share one walk with packed
      weights (see _packed);
    - otherwise each distinct system takes one weighted walk.

    Each walk is (rows, its systems, finish): rows is (row_e, row_o), or
    None for the count walk, and finish(total) turns the walk's total into
    its systems' values, in their order.  A GraphFormatError unless every
    system fits h.
    """
    rows = {acts: acts.integer_rows(h) for acts in systems}  # the distinct systems
    uniform = [acts for acts in rows if acts.is_uniform()]
    rest = [acts for acts in rows if not acts.is_uniform()]
    walks = []
    if uniform:
        factors = [_ONE if acts.is_unit() else acts.lambdas[0] ** ne * acts.mus[0] ** no
                   for acts in uniform]
        walks.append((None, uniform, partial(_scaled, factors)))
    packed = _packed(h, rest, ne, no)
    if packed is not None:
        walks.append(packed)
    else:
        for acts in rest:
            d_lam, row_e, d_mu, row_o = rows[acts]
            walks.append(((row_e, row_o), [acts],
                          partial(_scaled, [Fraction(1, d_lam**ne * d_mu**no)])))
    return walks


def _packed(h: Graph, systems: list, ne: int, no: int):
    """One walk with Kronecker-packed weights for ``systems`` when they
    agree everywhere but at one vertex v, or None when they do not or that
    walk would cost more than one walk per system.

    Z = sum over j, k of c_jk * lambda_v^j * mu_v^k, where c_jk sums the
    common (denominators-cleared) weights of the homomorphisms sending j
    E-vertices and k O-vertices to v.  The walk gives v the weight X = 2^s
    on the E side and Y = 2^(s(|E|+1)) on the O side, so c_jk is the
    base-2^s digit of index j + k(|E|+1) of the sum; 2^s exceeds the
    total weight of all maps with v weighing 1, hence every c_jk.
    (Kronecker substitution: von zur Gathen and Gerhard, Modern Computer
    Algebra, section 8.4.)  The packed weights are s(|E|+1)(|O|+1) bits
    wide where one system's are about s, so a large source (a long cycle,
    say) is not packed.
    """
    if not systems:
        return None
    first = systems[0]
    differ = [v for v in range(h.vertex_count)
              if any(acts.lambdas[v] != first.lambdas[v] or acts.mus[v] != first.mus[v]
                     for acts in systems)]
    if len(differ) != 1:
        return None
    v = differ[0]
    d_lam, row_e = clear_denominators(first.lambdas[:v] + first.lambdas[v + 1:])
    d_mu, row_o = clear_denominators(first.mus[:v] + first.mus[v + 1:])
    row_e.insert(v, 1)
    row_o.insert(v, 1)
    s = (sum(row_e) ** ne * sum(row_o) ** no).bit_length()
    if _STEP_BITS + s * (ne + 1) * (no + 1) > len(systems) * (_STEP_BITS + s):
        return None
    row_e[v], row_o[v] = 1 << s, 1 << s * (ne + 1)
    # Z multiplied through by (q_lam * d_lam)^|E| * (q_mu * d_mu)^|O|, where
    # lambda_v = p_lam / q_lam and mu_v = p_mu / q_mu; the lambda_v powers
    # are made once per distinct lambda_v
    e_tables, e_index, terms = [], {}, []
    for acts in systems:
        lam, mu = acts.lambdas[v], acts.mus[v]
        i = e_index.get(lam)
        if i is None:
            i = e_index[lam] = len(e_tables)
            lam_num, lam_den = lam.numerator * d_lam, lam.denominator
            e_tables.append([lam_num**j * lam_den ** (ne - j) for j in range(ne + 1)])
        mu_num, mu_den = mu.numerator * d_mu, mu.denominator
        o_terms = [mu_num**k * mu_den ** (no - k) for k in range(no + 1)]
        terms.append((i, o_terms, (lam.denominator * d_lam) ** ne * (mu_den * d_mu) ** no))

    def finish(total: int) -> list[Fraction]:
        digit = (1 << s) - 1
        coeffs = [[total >> s * (j + k * (ne + 1)) & digit for j in range(ne + 1)]
                  for k in range(no + 1)]
        # for each lambda_v, [sum over j of c_jk * lam_num^j * lam_den^(|E|-j) for each k]
        sums = [[sum(map(mul, row, e_terms)) for row in coeffs] for e_terms in e_tables]
        return [Fraction(sum(map(mul, o_terms, sums[i])), den) for i, o_terms, den in terms]

    return (row_e, row_o), systems, finish


def grid_values(g: BipartiteGraph, h: Graph, walks, budget: int = DEFAULT_BUDGET) -> dict:
    """{acts: Z(g, h, acts)} for every system of ``walks`` (grid_walks of h
    and g's side sizes), or the BudgetExceededError of the walk that carries
    the system: a refused walk refuses only its own systems.

    Every walk charges its own meter up to ``budget``.  The meter counts
    candidate orbits, not weights, and a walk's twin classes depend on the
    rows it carries (the packed rows set v apart), so a grid's walks need
    not charge what partition_fn's do; each charges at most what it would
    with exact images, so a system is answered wherever those walks answer
    without twins, and otherwise gets partition_fn's value or is refused."""
    h_masks = h.neighbor_masks()
    values = {}
    for rows, systems, finish in walks:
        try:
            total = (count_homs(g.graph, h, budget) if rows is None
                     else _walk(g, h_masks, *rows, budget))
        except BudgetExceededError as exc:
            values.update(dict.fromkeys(systems, exc))
        else:
            values.update(zip(systems, finish(total)))
    return values


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
