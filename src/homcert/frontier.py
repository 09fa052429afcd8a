"""The frontier kernel: exact weighted homomorphism sums, one component at
a time.

Each connected component is counted by dynamic programming over a vertex
order.  The frontier is the placed vertices that still have unplaced
neighbours; the state maps the frontier's images, packed into one int with
a fixed bit slot per frontier vertex, to the summed weight of the partial
maps that agree on them.  A vertex's image leaves the key once its last
neighbour is placed, so those maps merge and the cost follows
|V(h)|^frontier rather than the number of homomorphisms.  Candidate sets
are bitmasks over the target's vertices.

Twin target vertices, whose swap fixes h, every base mask and every weight
row of the walk, are interchangeable.  A walk whose twins are more than one
pair keeps one state per orbit under the twin swaps, holding the orbit's
summed weight.  This is the transfer-matrix method for chromatic
polynomials (Biggs, Algebraic Graph Theory) on the twin reduction of Lovász
(Large Networks and Graph Limits): into K_q the states are the set
partitions of the frontier, not its q^frontier colourings.  Any other walk
keeps exact images.

The budget is charged before the new state is inserted, so a budget of 0
refuses any nonempty instance and the state dict never holds more entries
than the budget has seen.  Orbit walks charge one unit per candidate orbit
of each state, and every other walk one unit per candidate image.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import BudgetExceededError
from .graphs import Graph, mask_vertices


def _frontier_order(nbrs, start: int, seen: list[bool]) -> list[int]:
    """The component of ``start`` in greedy order: each next vertex is the
    unplaced neighbour of the placed set that leaves the fewest placed
    vertices with unplaced neighbours; ties go to the most placed
    neighbours, then to the lowest index.  ``nbrs`` excludes loops."""
    placed_nbrs = {start: 0}  # unplaced vertex -> placed neighbours
    open_nbrs = {}  # placed vertex -> unplaced neighbours
    closes = {start: 0}  # unplaced vertex -> placed neighbours it would close

    def key(v):
        p = placed_nbrs[v]
        return ((len(nbrs[v]) > p) - closes[v], -p, v)

    # A vertex's key only ever changes to one it never had before, so a heap
    # entry is current exactly when it equals the vertex's key.
    heap = [key(start)]
    order = []
    while heap:
        entry = heappop(heap)
        v = entry[2]
        if seen[v] or entry != key(v):
            continue
        seen[v] = True
        order.append(v)
        changed = set()
        unplaced = 0
        for w in nbrs[v]:
            if seen[w]:
                open_nbrs[w] -= 1
                if open_nbrs[w] == 1:
                    (u,) = (u for u in nbrs[w] if not seen[u])
                    closes[u] += 1
                    changed.add(u)
            else:
                unplaced += 1
                placed_nbrs[w] = placed_nbrs.get(w, 0) + 1
                closes.setdefault(w, 0)
                changed.add(w)
        open_nbrs[v] = unplaced
        if unplaced == 1:
            (u,) = (u for u in nbrs[v] if not seen[u])
            closes[u] += 1
        for u in changed:
            heappush(heap, key(u))
    return order


def _schedule(order, nbrs, bits, width, top):
    """The slot schedule of a walk over one component in ``order``, whose
    image fields are ``width`` bits wide from bit ``top`` up.  For each vertex
    v in turn: (v, shifts, keep, forgot, stays, shift), where shifts are the
    slots of v's placed neighbours, keep masks off the fields of the placed
    neighbours that v was the last to wait for, forgot has bit s + bits for
    each such slot s, stays lists the slots left after them, in placement
    order, and shift is v's own slot, or None when v has no unplaced
    neighbour."""
    pos = {v: t for t, v in enumerate(order)}
    last = {v: max((pos[w] for w in nbrs[v]), default=t) for t, v in enumerate(order)}
    field = (1 << width) - 1
    slot = {}  # frontier vertex -> bit offset of its image, in placement order
    free = []
    for t, v in enumerate(order):
        earlier = [w for w in nbrs[v] if pos[w] < t]
        shifts = [slot[w] for w in earlier]
        keep = -1
        forgot = 0
        for w in earlier:
            if last[w] == t:
                s = slot.pop(w)
                free.append(s)
                keep &= ~(field << s)
                forgot |= 1 << s + bits
        stays = list(slot.values())
        if last[v] > t:
            if not free:
                free.append(top)
                top += width
            shift = slot[v] = free.pop()
        else:
            shift = None
        yield v, shifts, keep, forgot, stays, shift


def _component_sum(order, nbrs, base_of, h_masks, rows_of, bits, meter, budget, twins) -> int:
    """Weighted sum over the maps of one component, placed in ``order``;
    each image takes ``bits`` bits of a state key, and ``twins`` are the
    masks of the walk's twin classes.  A walk whose twins are more than one
    pair keeps one state per orbit of the twin swaps (_orbit_sum); any other,
    a lone pair's included, keeps exact images (_exact_sum)."""
    if len(twins) > 1 or twins and twins[0].bit_count() > 2:
        return _orbit_sum(order, nbrs, base_of, h_masks, rows_of, bits, meter, budget, twins)
    return _exact_sum(order, nbrs, base_of, h_masks, rows_of, bits, meter, budget)


def _exact_sum(order, nbrs, base_of, h_masks, rows_of, bits, meter, budget) -> int:
    """_component_sum with exact images: each state charges its candidates."""
    field = (1 << bits) - 1
    states = {0: 1}
    for v, shifts, keep, _, _, shift in _schedule(order, nbrs, bits, bits, 0):
        base = base_of[v]
        row = None if rows_of is None else rows_of[v]
        new = {}
        for key, weight in states.items():
            m = base
            for s in shifts:
                m &= h_masks[key >> s & field]
            if not m:
                continue
            meter[0] += m.bit_count()
            if meter[0] > budget:
                raise BudgetExceededError(f"node-expansion budget {budget} exceeded")
            key &= keep
            if shift is None:
                if row is None:
                    weight *= m.bit_count()
                else:
                    weight *= sum(row[j] for j in mask_vertices(m))
                new[key] = new.get(key, 0) + weight
                continue
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                k = key | j << shift
                new[k] = new.get(k, 0) + (weight if row is None else weight * row[j])
        if not new:
            return 0
        states = new
    return states[0]


def _orbit_sum(order, nbrs, base_of, h_masks, rows_of, bits, meter, budget, twins) -> int:
    """_component_sum with one state per orbit of all the twin swaps,
    holding the orbit's summed weight: a key also has a bit per twin, below
    the images, that marks the twins in use, and a bit above each image that
    marks its twin's first appearance.  Each state charges its candidate
    orbits."""
    field = (1 << bits) - 1
    twin_mask = sum(twins)
    class_of = {j: c for c in twins for j in mask_vertices(c)}
    states = {0: 1}
    for v, shifts, keep, firsts, stays, shift in _schedule(order, nbrs, bits, bits + 1,
                                                           twin_mask.bit_length()):
        base = base_of[v]
        row = None if rows_of is None else rows_of[v]
        new = {}
        # A key stands for its orbit as the member whose twins are numbered
        # by first appearance in placement order.  A new image comes last,
        # so only forgetting a first appearance (a flagged image) relabels,
        # once per frontier that stays.
        images = sum(field << s for s in stays)
        relabelled = {}
        for key, weight in states.items():
            m = base
            for s in shifts:
                m &= h_masks[key >> s & field]
            if not m:
                continue
            if key & firsts:
                key &= images
                got = relabelled.get(key)
                if got is None:
                    out = was = now = 0
                    label = {}
                    for s in stays:
                        j = key >> s & field
                        r = label.get(j)
                        if r is None:
                            r = label[j] = j
                            if j in class_of:
                                low = class_of[j] & ~now
                                low &= -low
                                was |= 1 << j
                                now |= low
                                r = label[j] = low.bit_length() - 1
                                out |= 1 << s + bits
                        out |= r << s
                    if out & images == key:
                        label = None  # the frontier that stays was in order
                    got = relabelled[key] = out | now, was, now, label
                key, was, now, label = got
            else:
                key &= keep
                was = now = key & twin_mask
                label = None
            # a candidate in use (``was``, before relabelling) keeps its orbit;
            # the unused members of a class share one, the lowest not in use
            direct = m & (was | ~twin_mask)
            if label is not None:
                direct = sum(1 << label.get(j, j) for j in mask_vertices(direct))
            meter[0] += direct.bit_count()
            for c in twins:
                if m & c & ~was:
                    meter[0] += 1
            if meter[0] > budget:
                raise BudgetExceededError(f"node-expansion budget {budget} exceeded")
            if shift is None:
                if row is None:
                    weight *= m.bit_count()
                else:
                    weight *= sum(row[j] for j in mask_vertices(m))
                new[key] = new.get(key, 0) + weight
                continue
            while direct:
                low = direct & -direct
                direct ^= low
                j = low.bit_length() - 1
                k = key | j << shift
                new[k] = new.get(k, 0) + (weight if row is None else weight * row[j])
            for c in twins:
                n = (m & c & ~was).bit_count()
                if n:
                    low = c & ~now
                    low &= -low
                    j = low.bit_length() - 1
                    k = key | j << shift | 1 << shift + bits | low
                    new[k] = new.get(k, 0) + weight * (n if row is None else n * row[j])
        if not new:
            return 0
        states = new
    return states[0]


def source_order(g: Graph) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """(nbrs, orders): each vertex's neighbours less itself, and each
    connected component of g in greedy order (_frontier_order), by lowest
    vertex.  What every walk over g shares, whatever the target, so a caller
    that walks g more than once makes it once."""
    nbrs = [tuple(w for w in ws if w != v) for v, ws in enumerate(g.neighbors)]
    seen = [False] * g.vertex_count
    orders = []
    for s in range(g.vertex_count):
        if not seen[s]:
            orders.append(_frontier_order(nbrs, s, seen))
    return nbrs, orders


def _hom_sum(g: Graph, base_of, h_masks, rows_of, budget: int, twins=(), order=None) -> int:
    """Product over connected components of the per-component assignment sums.

    ``rows_of[v]`` is an integer weight row for vertex v, or None overall for
    plain counting.  ``twins`` lists the masks of the walk's twin classes of
    two or more target vertices: swapping two members of one class must fix
    h_masks, every base mask and every row.  ``order`` is source_order(g),
    for a caller that has it.  An empty graph contributes the empty product
    1.
    """
    nbrs, orders = source_order(g) if order is None else order
    bits = max(1, (len(h_masks) - 1).bit_length())
    meter = [0]
    total = 1
    for component in orders:
        comp = _component_sum(component, nbrs, base_of, h_masks, rows_of, bits, meter, budget,
                              twins)
        if comp == 0:
            return 0
        total *= comp
    return total
