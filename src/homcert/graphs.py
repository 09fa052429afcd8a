"""Graph and bipartite-graph data types, validation, JSON file I/O, and
instance generators.

Vertices are dense 0-based integer indices; names, if any, live in the file
layer only.  All types are immutable after construction and safe to share
across threads; generators are pure functions of (parameters, seed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import GenerationError, GraphFormatError

_MATCHING_RESAMPLE_CAP = 10_000

_GRAPH_KEYS = {"vertices", "edges", "loops"}
_BIPARTITE_KEYS = _GRAPH_KEYS | {"class_e"}

FAMILIES = ("complete-bipartite", "cycle", "hypercube", "random-regular", "union", "file")


def _check_index(v, n: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
        raise GraphFormatError(f"vertex index {v!r} out of range for {n} vertices")
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


class Graph:
    """Finite undirected graph on vertices 0..vertex_count-1, loops allowed.

    ``neighbors[v]`` is a sorted tuple that contains ``v`` itself exactly when
    ``v`` carries a loop; parallel edges cannot be represented.
    """

    __slots__ = ("vertex_count", "neighbors", "loops", "_nbr_sets")

    def __init__(self, vertex_count: int, edges=(), loops=()):
        if isinstance(vertex_count, bool) or not isinstance(vertex_count, int) or vertex_count < 0:
            raise GraphFormatError("vertex count must be a nonnegative integer")
        adj = [set() for _ in range(vertex_count)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {e!r} is not a pair") from None
            _check_index(u, vertex_count)
            _check_index(v, vertex_count)
            adj[u].add(v)
            adj[v].add(u)
        for v in loops:
            _check_index(v, vertex_count)
            adj[v].add(v)
        self.vertex_count = vertex_count
        self.neighbors = tuple(tuple(sorted(s)) for s in adj)
        self._nbr_sets = tuple(frozenset(s) for s in adj)
        self.loops = frozenset(v for v in range(vertex_count) if v in adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._nbr_sets[u]

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def edges(self) -> list[tuple[int, int]]:
        """Non-loop edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.vertex_count) for v in self.neighbors[u] if u < v]

    def has_any_edge(self) -> bool:
        return any(self.neighbors)

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
    of the instance.
    """

    __slots__ = ("graph", "class_e", "class_o")

    def __init__(self, graph: Graph, class_e):
        class_e = frozenset(_check_index(v, graph.vertex_count) for v in class_e)
        if graph.loops:
            raise GraphFormatError("bipartite graph may not carry loops")
        class_o = frozenset(range(graph.vertex_count)) - class_e
        for u, v in graph.edges():
            if (u in class_e) == (v in class_e):
                side = "class_e" if u in class_e else "class_o"
                raise GraphFormatError(f"edge ({u}, {v}) lies inside {side}")
        self.graph = graph
        self.class_e = class_e
        self.class_o = class_o

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

    def swapped(self) -> "BipartiteGraph":
        return BipartiteGraph(self.graph, self.class_o)

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


def check_bipartition(g: Graph, class_e) -> BipartiteGraph:
    """Validate an explicit bipartition; never inferred from the graph."""
    return BipartiteGraph(g, class_e)


# ---------------------------------------------------------------------------
# JSON file format


def _load_doc(data) -> dict:
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise GraphFormatError("document must be a JSON object")
    return data


def read_doc(path, base_dir=None) -> dict:
    """The JSON object in the file at ``path``, resolved against ``base_dir``
    when relative; any failure to read or decode it is a GraphFormatError."""
    path = Path(path)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON in {path}: {exc}") from None
    except (OSError, UnicodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{path} must contain a JSON object")
    return doc


def _int_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise GraphFormatError(f"{key!r} must be a list")
    return value


def _graph_from_doc(doc: dict, allowed: set[str]) -> Graph:
    unknown = set(doc) - allowed
    if unknown:
        raise GraphFormatError(f"unknown keys {sorted(unknown)}")
    if "vertices" not in doc:
        raise GraphFormatError("missing 'vertices'")
    return Graph(doc["vertices"], _int_list(doc, "edges"), _int_list(doc, "loops"))


def parse_graph(data) -> Graph:
    """Parse a target-graph document: {"vertices", "edges", "loops"}.

    Adjacency is symmetrized and deduplicated; an edge [v, v] is a loop.
    """
    return _graph_from_doc(_load_doc(data), _GRAPH_KEYS)


def parse_bipartite(data) -> BipartiteGraph:
    """Parse a source-graph document: graph keys plus "class_e"."""
    doc = _load_doc(data)
    if "class_e" not in doc:
        raise GraphFormatError("missing 'class_e'")
    graph = _graph_from_doc({k: v for k, v in doc.items() if k != "class_e"}, _GRAPH_KEYS)
    return BipartiteGraph(graph, _int_list(doc, "class_e"))


def serialize_graph(g: Graph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges()],
        "loops": sorted(g.loops),
    }


def serialize_bipartite(bg: BipartiteGraph) -> dict:
    doc = serialize_graph(bg.graph)
    doc["class_e"] = sorted(bg.class_e)
    return doc


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
    """n-regular bipartite graph on 2*half vertices: the union of n uniformly
    random perfect matchings, resampled from scratch until simple.

    Deterministic for a fixed seed.
    """
    if not 1 <= n <= half:
        raise ValueError("need 1 <= n <= half")
    rng = random.Random(seed)
    for _ in range(_MATCHING_RESAMPLE_CAP):
        used: set[tuple[int, int]] = set()
        ok = True
        for _ in range(n):
            perm = list(range(half))
            rng.shuffle(perm)
            pairs = [(i, perm[i]) for i in range(half)]
            if any(p in used for p in pairs):
                ok = False
                break
            used.update(pairs)
        if ok:
            edges = [(i, half + j) for i, j in sorted(used)]
            return BipartiteGraph(Graph(2 * half, edges), range(half))
    raise GenerationError(
        f"no simple {n}-regular union of matchings on 2*{half} vertices "
        f"within {_MATCHING_RESAMPLE_CAP} resamples"
    )


# ---------------------------------------------------------------------------
# Instance specs (declarative form of the generators, used by CLI and campaigns)


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    params: tuple[tuple[str, object], ...]
    seed: int | None = None

    def param(self, key):
        return dict(self.params)[key]

    def describe(self) -> dict:
        doc: dict = {"family": self.family, **dict(self.params)}
        if self.family == "union":
            doc["parts"] = [part.describe() for part in doc["parts"]]
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc


_FAMILY_PARAMS = {
    "complete-bipartite": ("a", "b"),
    "cycle": ("length",),
    "hypercube": ("dim",),
    "random-regular": ("degree", "half"),
    "union": ("parts",),
    "file": ("path",),
}


def parse_instance_spec(doc: dict) -> InstanceSpec:
    if not isinstance(doc, dict):
        raise GraphFormatError("instance spec must be a JSON object")
    family = doc.get("family")
    if family not in FAMILIES:
        raise GraphFormatError(f"unknown family {family!r}; expected one of {FAMILIES}")
    wanted = _FAMILY_PARAMS[family]
    unknown = set(doc) - set(wanted) - {"family", "seed"}
    if unknown:
        raise GraphFormatError(f"unknown spec keys {sorted(unknown)} for family {family!r}")
    missing = [k for k in wanted if k not in doc]
    if missing:
        raise GraphFormatError(f"family {family!r} requires {missing}")
    params = []
    for key in wanted:
        value = doc[key]
        if key == "parts":
            if not isinstance(value, list):
                raise GraphFormatError("'parts' must be a list of instance specs")
            value = tuple(parse_instance_spec(p) for p in value)
        elif key == "path":
            if not isinstance(value, str):
                raise GraphFormatError("'path' must be a string")
        elif isinstance(value, bool) or not isinstance(value, int):
            raise GraphFormatError(f"parameter {key!r} must be an integer")
        params.append((key, value))
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise GraphFormatError("'seed' must be an integer")
    # eager parameter validation so bad specs fail before any generation work
    checks = {
        "complete-bipartite": lambda p: p["a"] >= 1 and p["b"] >= 1,
        "cycle": lambda p: p["length"] >= 4 and p["length"] % 2 == 0,
        "hypercube": lambda p: p["dim"] >= 1,
        "random-regular": lambda p: 1 <= p["degree"] <= p["half"],
        "union": lambda p: True,
        "file": lambda p: True,
    }
    if not checks[family](dict(params)):
        raise GraphFormatError(f"invalid parameters for family {family!r}: {dict(params)}")
    return InstanceSpec(family, tuple(params), seed)


def build_instance(spec, base_dir=None) -> BipartiteGraph:
    """Materialize an InstanceSpec (or raw spec document) as a BipartiteGraph."""
    if isinstance(spec, dict):
        spec = parse_instance_spec(spec)
    p = dict(spec.params)
    if spec.family == "complete-bipartite":
        return gen_complete_bipartite(p["a"], p["b"])
    if spec.family == "cycle":
        return gen_even_cycle(p["length"])
    if spec.family == "hypercube":
        return gen_hypercube(p["dim"])
    if spec.family == "random-regular":
        if spec.seed is None:
            raise GraphFormatError("family 'random-regular' requires a seed")
        return gen_random_regular_bipartite(p["degree"], p["half"], spec.seed)
    if spec.family == "union":
        return gen_union([build_instance(part, base_dir) for part in p["parts"]])
    return parse_bipartite(read_doc(p["path"], base_dir))
