"""Graph and bipartite-graph data types, validation, JSON file I/O, and
instance generators.

Vertices are dense 0-based integer indices; names, if any, live in the file
layer only.  All types are immutable after construction; generators are
pure functions of (parameters, seed).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import (
    DEFAULT_BUDGET, BudgetExceededError, GraphFormatError, input_digits, input_limit, shown)

_MATCHING_RESAMPLE_CAP = 10_000

# BipartiteGraph.isomorphism tries at most this many images per vertex
_ISO_TRIES = 16

_GRAPH_KEYS = {"vertices", "edges", "loops"}

# read_doc reads at most this many bytes per unit of a document's input
# limit: generate writes 33-34 bytes per vertex plus edge (Q14 and
# K_{700,700}), so every document the limit admits still loads
_DOC_BYTES = 64


def _check_index(v, n: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
        raise GraphFormatError(f"vertex index {shown(v)} out of range for {n} vertices")
    return v


def mask_of(vertices) -> int:
    """Bitmask with bit v set for every vertex v in ``vertices``."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def twin_classes(masks, columns) -> list[int]:
    """The twin classes of two or more vertices, as masks in the order of
    their largest members, of the graph whose neighbour masks are ``masks``
    (bit i set on mask i iff i is looped) under ``columns``, each a sequence
    of one value per vertex.

    i and j are twins when swapping them fixes the graph and every column:
    both looped or neither, equal values in each column and the same
    neighbours outside {i, j}.  Non-adjacent twins have equal masks with
    their own bits cleared and adjacent twins equal masks with them set, so
    one pass groups each vertex both ways.  Twinship is an equivalence
    relation whose classes of three or more are cliques or independent sets,
    so no vertex is in two groups of two or more."""
    groups = {}
    for i, mask in enumerate(masks):
        bit = 1 << i
        values = (mask >> i & 1, *(column[i] for column in columns))
        for key in ((values, mask & ~bit), (values, mask | bit)):
            groups[key] = groups.get(key, 0) | bit
    return sorted((c for c in groups.values() if c & c - 1), key=int.bit_length)


class Graph:
    """Finite undirected graph on vertices 0..vertex_count-1, loops allowed.

    ``neighbors[v]`` is a sorted tuple that contains ``v`` itself exactly when
    ``v`` carries a loop; parallel edges cannot be represented.  ``_order``
    holds the kernel's vertex order once frontier.source_order has made it.
    """

    __slots__ = ("vertex_count", "neighbors", "loops", "_order")

    def __init__(self, vertex_count: int, edges=(), loops=()):
        if isinstance(vertex_count, bool) or not isinstance(vertex_count, int) or vertex_count < 0:
            raise GraphFormatError("vertex count must be a nonnegative integer")
        adj = [set() for _ in range(vertex_count)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {shown(e)} is not a pair") from None
            _check_index(u, vertex_count)
            _check_index(v, vertex_count)
            adj[u].add(v)
            adj[v].add(u)
        for v in loops:
            _check_index(v, vertex_count)
            adj[v].add(v)
        self.vertex_count = vertex_count
        self.neighbors = tuple(tuple(sorted(s)) for s in adj)
        self.loops = frozenset(v for v in range(vertex_count) if v in adj[v])
        self._order = None

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def edges(self) -> list[tuple[int, int]]:
        """Non-loop edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.vertex_count) for v in self.neighbors[u] if u < v]

    def neighbor_masks(self) -> list[int]:
        """Per-vertex neighbor bitmask; bit v set on its own mask iff loop."""
        return [mask_of(nbrs) for nbrs in self.neighbors]

    def loop_mask(self) -> int:
        return mask_of(self.loops)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.neighbors == other.neighbors
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.neighbors))

    def __repr__(self) -> str:
        return (
            f"Graph({self.vertex_count} vertices, {len(self.edges())} edges, "
            f"{len(self.loops)} loops)"
        )


class BipartiteGraph:
    """A loopless Graph plus an explicit (E, O) class partition.

    The orientation is caller data, never inferred: two-sided weights attach
    lambdas to E-images and mus to O-images, so the choice of classes is part
    of the instance.  A two-sorted target (the double or the blow-up of a
    graph) is a BipartiteGraph too: its upper side is class E and its lower
    side class O, and a restricted homomorphism maps E into E and O into O.
    """

    __slots__ = ("graph", "class_e", "class_o", "_labels")

    def __init__(self, graph: Graph, class_e):
        class_e = frozenset(_check_index(v, graph.vertex_count) for v in class_e)
        if graph.loops:
            raise GraphFormatError("bipartite graph may not carry loops")
        class_o = frozenset(range(graph.vertex_count)) - class_e
        for u, v in graph.edges():
            if (u in class_e) == (v in class_e):
                raise GraphFormatError(f"edge ({u}, {v}) does not cross the bipartition")
        self.graph = graph
        self.class_e = class_e
        self.class_o = class_o
        self._labels = None

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    def regular_degree(self) -> int | None:
        """Common degree of all vertices, or None if not regular or empty."""
        if self.graph.vertex_count == 0:
            return None
        degrees = {self.graph.degree(v) for v in range(self.graph.vertex_count)}
        return degrees.pop() if len(degrees) == 1 else None

    def biregular_degrees(self) -> tuple[int, int] | None:
        """(E-degree, O-degree) when uniform on both nonempty classes."""
        if not self.class_e or not self.class_o:
            return None
        deg_e = {self.graph.degree(v) for v in self.class_e}
        deg_o = {self.graph.degree(v) for v in self.class_o}
        if len(deg_e) == 1 and len(deg_o) == 1:
            return deg_e.pop(), deg_o.pop()
        return None

    def _vertex_labels(self) -> tuple[list[tuple], tuple]:
        """(labels, their sorted tuple), made once.  A vertex's label, which
        every side-preserving isomorphism keeps, is (its side, its degree,
        the number of 4-cycles through it).  Costs one step per path of two
        edges."""
        if self._labels is None:
            nbrs = self.graph.neighbors
            triples = []
            for v, ws in enumerate(nbrs):
                # a 4-cycle through v is v, two of its neighbours and another
                # vertex both are adjacent to
                shared = {}
                for u in ws:
                    for w in nbrs[u]:
                        shared[w] = shared.get(w, 0) + 1
                shared[v] = 0
                cycles = sum([c * (c - 1) for c in shared.values()]) // 2
                triples.append((int(v in self.class_o), len(ws), cycles))
            self._labels = triples, tuple(sorted(triples))
        return self._labels

    def isomorphism(self, other: "BipartiteGraph") -> tuple[int, ...] | None:
        """A side-preserving isomorphism f onto ``other`` (f[v] is v's image),
        checked edge by edge and side by side, or None.

        Graphs whose sorted vertex labels (_vertex_labels) differ, so in
        particular graphs of other vertex counts, side sizes or degrees, are
        not searched.  The search places the vertices in breadth-first order
        from the rarest label, each on an unused vertex of its label whose
        placed neighbours are exactly the images of its own, and backtracks.
        It gives up (None) after _ISO_TRIES images per vertex, so a None may
        miss an isomorphism, but the search costs at most that."""
        n = self.vertex_count
        if (n != other.vertex_count or len(self.class_e) != len(other.class_e)
                or self._vertex_labels()[1] != other._vertex_labels()[1]):
            return None
        labels, other_labels = self._vertex_labels()[0], other._vertex_labels()[0]
        nbrs, other_nbrs = self.graph.neighbors, other.graph.neighbors
        adjacent = [frozenset(ws) for ws in other_nbrs]
        of_label = {}  # label -> other's vertices with it
        for w, label in enumerate(other_labels):
            of_label.setdefault(label, []).append(w)
        order = []
        seen = [False] * n
        for root in sorted(range(n), key=lambda v: (len(of_label[labels[v]]), v)):
            if seen[root]:
                continue
            seen[root] = True
            level = [root]
            while level:
                order.extend(level)
                below = []
                for v in level:
                    for u in nbrs[v]:
                        if not seen[u]:
                            seen[u] = True
                            below.append(u)
                level = below
        pos = [0] * n
        for t, v in enumerate(order):
            pos[v] = t
        earlier = [[u for u in nbrs[v] if pos[u] < t] for t, v in enumerate(order)]
        image = [-1] * n
        used = [False] * n  # other's vertices in use
        used_nbrs = [0] * n  # per vertex of other, its neighbours in use

        def candidates(t: int) -> list[int]:
            """Position t's images, the lowest last."""
            label = labels[order[t]]
            placed = [image[u] for u in earlier[t]]
            pool = (adjacent[placed[0]].intersection(*[adjacent[p] for p in placed[1:]])
                    if placed else of_label[label])
            k = len(placed)
            return sorted([w for w in pool if not used[w] and used_nbrs[w] == k
                           and other_labels[w] == label], reverse=True)

        left = _ISO_TRIES * n
        todo = [[] for _ in range(n)]  # per position, the images not yet tried
        t = 0
        if n:
            todo[0] = candidates(0)
        while 0 <= t < n:
            v = order[t]
            w = image[v]
            if w >= 0:
                used[w] = False
                for x in other_nbrs[w]:
                    used_nbrs[x] -= 1
                image[v] = -1
            if not todo[t]:
                t -= 1
                continue
            left -= 1
            if left < 0:
                return None
            image[v] = w = todo[t].pop()
            used[w] = True
            for x in other_nbrs[w]:
                used_nbrs[x] += 1
            t += 1
            if t < n:
                todo[t] = candidates(t)
        if t < 0:
            return None
        f = tuple(image)
        # equal labels give both graphs the same number of edges
        if (len(set(f)) == n and {f[v] for v in self.class_e} == other.class_e
                and all([f[v] in adjacent[f[u]] for u, v in self.graph.edges()])):
            return f
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.graph == other.graph
            and self.class_e == other.class_e
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.class_e))

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph({self.vertex_count} vertices, "
            f"|E|={len(self.class_e)}, |O|={len(self.class_o)})"
        )


# ---------------------------------------------------------------------------
# JSON file format


def load_doc(data, path=None) -> dict:
    """The JSON object of ``data``: text or an already decoded object.
    ``path`` names the file the text was read from, in messages."""
    if isinstance(data, str):
        try:
            with input_digits():
                data = json.loads(data)
        except json.JSONDecodeError as exc:
            where = "" if path is None else f" in {path}"
            raise GraphFormatError(f"invalid JSON{where}: {exc}") from None
        except RecursionError:
            raise GraphFormatError(f"{path or 'document'} is nested too deeply") from None
        except ValueError:  # an integer literal past the digit limit
            raise GraphFormatError(
                f"{path or 'document'} has an integer of more than "
                f"{sys.int_info.default_max_str_digits} digits") from None
    if not isinstance(data, dict):
        raise GraphFormatError("document must be a JSON object" if path is None
                               else f"{path} must contain a JSON object")
    return data


def read_doc(path, base_dir=None, budget: int = DEFAULT_BUDGET, limit: int | None = None) -> dict:
    """The JSON object in the file at ``path``, resolved against ``base_dir``
    when relative; any failure to read or decode it is a GraphFormatError,
    and so is a file longer than ``limit`` bytes (by default _DOC_BYTES per
    unit of input_limit(budget)), refused once that much is read, so even
    /dev/zero ends."""
    path = Path(path)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    if limit is None:
        limit = _DOC_BYTES * input_limit(budget)
    data = bytearray()
    try:
        with path.open("rb") as f:
            while len(data) <= limit and (chunk := f.read(1 << 20)):
                data += chunk
        if len(data) > limit:
            raise GraphFormatError(f"{path} is longer than its limit of {limit} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None
    return load_doc(text, path)


def list_field(doc: dict, key: str, default=()):
    """``doc[key]``, which must be a list (or a tuple), or ``default``."""
    value = doc.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise GraphFormatError(f"{key!r} must be a list")
    return value


def _graph_from_doc(doc: dict, budget: int = DEFAULT_BUDGET) -> Graph:
    """The Graph of a document; its declared vertices plus listed edges are
    charged to the larger of ``budget`` and the default before it is built."""
    unknown = set(doc) - _GRAPH_KEYS
    if unknown:
        raise GraphFormatError(f"unknown keys {shown(sorted(unknown))}")
    if "vertices" not in doc:
        raise GraphFormatError("missing 'vertices'")
    vertices, edges = doc["vertices"], list_field(doc, "edges")
    budget = input_limit(budget)
    if isinstance(vertices, int) and vertices + len(edges) > budget:
        raise BudgetExceededError(
            f"graph document of {vertices} vertices and {len(edges)} edges exceeds budget {budget}")
    return Graph(vertices, edges, list_field(doc, "loops"))


def parse_graph(data, budget: int = DEFAULT_BUDGET) -> Graph:
    """Parse a target-graph document: {"vertices", "edges", "loops"}.

    Adjacency is symmetrized and deduplicated; an edge [v, v] is a loop.
    """
    return _graph_from_doc(load_doc(data), budget)


def serialize_graph(g: Graph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges()],
        "loops": sorted(g.loops),
    }


def _parse_sided(data, side_key: str, budget: int) -> BipartiteGraph:
    """A bipartite document is a graph document plus one side key that lists
    class E: "class_e" in a source document, "upper" in a two-sorted
    target's."""
    doc = load_doc(data)
    if side_key not in doc:
        raise GraphFormatError(f"missing {side_key!r}")
    graph = _graph_from_doc({k: v for k, v in doc.items() if k != side_key}, budget)
    return BipartiteGraph(graph, list_field(doc, side_key))


def _serialize_sided(bg: BipartiteGraph, side_key: str) -> dict:
    doc = serialize_graph(bg.graph)
    doc[side_key] = sorted(bg.class_e)
    return doc


def parse_bipartite(data, budget: int = DEFAULT_BUDGET) -> BipartiteGraph:
    """Parse a source-graph document: graph keys plus "class_e"."""
    return _parse_sided(data, "class_e", budget)


def parse_two_sorted(data, budget: int = DEFAULT_BUDGET) -> BipartiteGraph:
    """Parse a two-sorted target document: graph keys plus "upper", which
    lists the upper side (class E)."""
    return _parse_sided(data, "upper", budget)


def serialize_bipartite(bg: BipartiteGraph) -> dict:
    return _serialize_sided(bg, "class_e")


def serialize_two_sorted(target: BipartiteGraph) -> dict:
    return _serialize_sided(target, "upper")


# ---------------------------------------------------------------------------
# Fixed targets


def complete_graph(k: int, loops: bool = False) -> Graph:
    """K_k; with loops=True every vertex also carries a loop."""
    if k < 1:
        raise ValueError("k must be >= 1")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return Graph(k, edges, range(k) if loops else ())


def independence_target() -> Graph:
    """Two joined vertices, 0 unlooped and 1 looped.

    Homomorphisms into this target are exactly indicator maps of independent
    sets (the preimage of vertex 0).
    """
    return Graph(2, [(0, 1)], [1])


# ---------------------------------------------------------------------------
# Instance generators


def gen_complete_bipartite(a: int, b: int) -> BipartiteGraph:
    """K_{a,b} with class_e the a-side."""
    if a < 1 or b < 1:
        raise ValueError("side sizes must be >= 1")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return BipartiteGraph(Graph(a + b, edges), range(a))


def gen_even_cycle(length: int) -> BipartiteGraph:
    if length < 4 or length % 2:
        raise ValueError("cycle length must be even and >= 4")
    edges = [(i, (i + 1) % length) for i in range(length)]
    return BipartiteGraph(Graph(length, edges), range(0, length, 2))


def gen_hypercube(d: int) -> BipartiteGraph:
    """Q_d on 2^d vertices with the bit-parity bipartition."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    n = 1 << d
    edges = [(x, x | (1 << i)) for x in range(n) for i in range(d) if not x & (1 << i)]
    return BipartiteGraph(Graph(n, edges), [x for x in range(n) if x.bit_count() % 2 == 0])


def gen_union(parts) -> BipartiteGraph:
    """Disjoint union; vertex ranges and class memberships concatenate."""
    offset = 0
    edges: list[tuple[int, int]] = []
    class_e: list[int] = []
    for part in parts:
        edges.extend((u + offset, v + offset) for u, v in part.graph.edges())
        class_e.extend(v + offset for v in sorted(part.class_e))
        offset += part.vertex_count
    return BipartiteGraph(Graph(offset, edges), class_e)


def gen_random_regular_bipartite(n: int, half: int, seed: int) -> BipartiteGraph:
    """n-regular simple bipartite graph on 2*half vertices, deterministic for
    a fixed seed: the union of n uniformly random perfect matchings,
    resampled from scratch until simple.

    K_{half,half} is the only such graph of degree half, and rejection almost
    never draws it, so it is returned without drawing.  Degrees close to
    half can exhaust the resamples; after _MATCHING_RESAMPLE_CAP of them the
    same random stream peels the matchings one at a time instead (see
    _peeled_matchings), which cannot fail.
    """
    if not 1 <= n <= half:
        raise ValueError("need 1 <= n <= half")
    if n == half:
        return gen_complete_bipartite(half, half)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    # random.shuffle as CPython 3.10-3.13 writes it, inline: for i from half - 1
    # down to 1, j = getrandbits(k) with k the bit length of i + 1, drawn again
    # while j > i; the same draws, so the same graph for every seed
    steps = [(i, (i + 1).bit_length()) for i in range(half - 1, 0, -1)]
    columns = range(half)
    for _ in range(_MATCHING_RESAMPLE_CAP):
        rows = [0] * half  # bit j of rows[i]: the edge (i, half + j) is drawn
        for _ in range(n):
            perm = list(columns)
            for i, k in steps:
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                perm[i], perm[j] = perm[j], perm[i]
            for i in columns:
                bit = 1 << perm[i]
                if rows[i] & bit:
                    break
                rows[i] |= bit
            else:
                continue
            break  # the matching meets an earlier one: draw all n again
        else:
            break
    else:
        rows = _peeled_matchings(n, half, rng)
    edges = [(i, half + j) for i in columns for j in columns if rows[i] >> j & 1]
    return BipartiteGraph(Graph(2 * half, edges), columns)


def _peeled_matchings(n: int, half: int, rng: random.Random) -> list[int]:
    """The rows (bit j of row i: the edge (i, half + j)) of n edge-disjoint
    perfect matchings of K_{half,half}, peeled one at a time from the edges
    not yet taken.  Each is grown row by row, in a random order, along
    shortest augmenting paths that try the columns in a random order (Kuhn's
    algorithm).  After i matchings the free edges are (half - i)-regular, so
    by Hall's theorem a perfect matching of them exists, and Kuhn's
    algorithm finds one: it never fails."""
    full = (1 << half) - 1
    rows = [0] * half
    for _ in range(n):
        free = [full & ~row for row in rows]
        owner = [-1] * half  # column -> its row in this matching
        taken = [-1] * half  # row -> its column in this matching
        cols = list(range(half))
        rng.shuffle(cols)
        order = list(range(half))
        rng.shuffle(order)
        for start in order:
            parent = {}  # column -> the row it was reached from
            level, end = [start], -1
            while end < 0:  # a shortest augmenting path from start exists
                below = []
                for r in level:
                    for j in cols:
                        if free[r] >> j & 1 and j not in parent:
                            parent[j] = r
                            if owner[j] < 0:
                                end = j
                                break
                            below.append(owner[j])
                    if end >= 0:
                        break
                level = below
            j = end
            while j >= 0:  # flip the path: each row on it takes its new column
                r = parent[j]
                owner[j], taken[r], j = r, j, taken[r]
        for r, j in enumerate(taken):
            rows[r] |= 1 << j
    return rows


# ---------------------------------------------------------------------------
# Instance specs (declarative form of the generators, used by CLI and campaigns)


class Family(NamedTuple):
    """A generated source family.  Each callable takes the parameter values
    in ``params`` order; ``size`` (vertices plus edges) then the budget, and
    ``generate`` then the seed when the family is ``seeded``."""

    params: tuple[str, ...]
    valid: Callable[..., bool]
    size: Callable[..., int]
    generate: Callable[..., BipartiteGraph]
    seeded: bool = False


def _hypercube_size(dim: int, budget: int) -> int:
    # 2^dim alone exceeds the budget: refuse before forming it
    if dim >= budget.bit_length():
        raise BudgetExceededError(f"hypercube of dimension {dim} exceeds budget {budget}")
    return (1 << dim) + dim * (1 << dim - 1)


GENERATED_FAMILIES = {
    "complete-bipartite": Family(
        ("a", "b"), lambda a, b: a >= 1 and b >= 1, lambda a, b, _: a + b + a * b,
        gen_complete_bipartite),
    "cycle": Family(
        ("length",), lambda length: length >= 4 and length % 2 == 0,
        lambda length, _: 2 * length, gen_even_cycle),
    "hypercube": Family(("dim",), lambda dim: dim >= 1, _hypercube_size, gen_hypercube),
    "random-regular": Family(
        ("degree", "half"), lambda degree, half: 1 <= degree <= half,
        lambda degree, half, _: 2 * half + degree * half, gen_random_regular_bipartite,
        seeded=True),
}

# the structural families and their one parameter
_STRUCTURAL = {"union": "parts", "file": "path"}
# every family an instance spec may name
FAMILIES = (*GENERATED_FAMILIES, *_STRUCTURAL)

# reading, sizing and building a spec recurse once per union level; deeper
# specs than this would end in RecursionError where the JSON decoder admits them
_UNION_DEPTH = 100


def parse_instance_spec(doc: dict, _depth: int = 0) -> dict:
    """The canonical spec document: family, parameters (union parts
    canonical too) and the seed when one is given; only a seeded family
    takes one.  Every parameter is checked here, so a bad spec fails before
    any generation work."""
    if not isinstance(doc, dict):
        raise GraphFormatError("instance spec must be a JSON object")
    family = doc.get("family")
    if family not in FAMILIES:
        raise GraphFormatError(f"unknown family {shown(family)}; expected one of {FAMILIES}")
    row = GENERATED_FAMILIES.get(family)
    wanted = row.params if row else (_STRUCTURAL[family],)
    unknown = set(doc) - set(wanted) - {"family", "seed"}
    if unknown:
        raise GraphFormatError(f"unknown spec keys {shown(sorted(unknown))} for family {family!r}")
    missing = [k for k in wanted if k not in doc]
    if missing:
        raise GraphFormatError(f"family {family!r} requires {missing}")
    params = {}
    for key in wanted:
        value = doc[key]
        if key == "parts":
            if not isinstance(value, list):
                raise GraphFormatError("'parts' must be a list of instance specs")
            if _depth == _UNION_DEPTH:
                raise GraphFormatError(f"instance spec is nested too deeply (> {_UNION_DEPTH})")
            value = [parse_instance_spec(p, _depth + 1) for p in value]
        elif key == "path":
            if not isinstance(value, str):
                raise GraphFormatError("'path' must be a string")
        elif isinstance(value, bool) or not isinstance(value, int):
            raise GraphFormatError(f"parameter {key!r} must be an integer")
        params[key] = value
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise GraphFormatError("'seed' must be an integer")
    if seed is not None and not (row and row.seeded):
        raise GraphFormatError(f"family {family!r} takes no seed")
    if row and not row.valid(*params.values()):
        raise GraphFormatError(f"invalid parameters for family {family!r}: {shown(params)}")
    return {"family": family, **params, **({} if seed is None else {"seed": seed})}


def instance_size(spec: dict, budget: int) -> int:
    """Vertices plus edges of the instance a canonical ``spec`` describes,
    without building it; a file counts 0 (its document is charged when
    read)."""
    row = GENERATED_FAMILIES.get(spec["family"])
    if row:
        return row.size(*(spec[k] for k in row.params), budget)
    if spec["family"] == "union":
        return sum(instance_size(part, budget) for part in spec["parts"])
    return 0


def needs_seed(spec: dict) -> bool:
    """Whether a canonical spec is of a seeded family and carries no seed."""
    row = GENERATED_FAMILIES.get(spec["family"])
    return bool(row and row.seeded) and "seed" not in spec


def build_instance(spec: dict, base_dir=None, budget: int = DEFAULT_BUDGET) -> BipartiteGraph:
    """Materialize a spec document as a BipartiteGraph.

    A generated instance whose vertices plus edges exceed the budget raises
    BudgetExceededError before any of it is built.
    """
    spec = parse_instance_spec(spec)
    family = spec["family"]
    size = instance_size(spec, budget)
    if size > budget:
        raise BudgetExceededError(
            f"source {family} of {size} vertices plus edges exceeds budget {budget}")
    if needs_seed(spec):
        raise GraphFormatError(f"family {family!r} requires a seed")
    row = GENERATED_FAMILIES.get(family)
    if row:
        seed = (spec["seed"],) if row.seeded else ()
        return row.generate(*(spec[k] for k in row.params), *seed)
    if family == "union":
        return gen_union([build_instance(part, base_dir, budget) for part in spec["parts"]])
    return parse_bipartite(read_doc(spec["path"], base_dir, budget), budget)
