"""Candidate bag sets built from edge covers and connectivity components.

A level-0 candidate bag is a nonempty set of the form
``union(lambda1) & union(component)`` where ``lambda1`` is a set of at
most ``k`` edges and the component is one of the edge components left
by removing the vertices of another set ``lambda2`` of at most ``k``
edges (``lambda2`` may be empty, in which case the components are the
connected components of the hypergraph).

Higher levels replace the ``lambda1`` pool with sub-edges: the
nonempty intersections of the previous pool's members with the
previous level's bags.  ``lambda2`` always ranges over the original
edges.  The pool is two int lists: the members' vertex masks and the
id of the edge each lies in.  A pool member of at most
``_SPLIT_ARITY`` vertices finds its sub-edges by splitting the bag set
vertex by vertex on a per-vertex bitset index of the bags (one AND and
one XOR of Python ints per set and vertex, with no limit on the number
of vertices); a wider member, whose split could reach ``2 ** arity``
sets, is intersected with every bag instead (see :func:`_sub_edges`).

Everything is produced in one order, the first-witness order of plain
loops: edge and pool combinations by size, then lexicographically;
component unions by separator, then by smallest member vertex; bags
and new pool members by the (row, column) position at which they are
first found.  Above a size gate, and while every mask fits one uint64
word, the enumerations over all pairs run in numpy, with the same
results in the same order.  This is the package's only vectorized
module: everything else runs on Python-int masks, and the block search
fills its component tables of long searches through
:func:`_component_unions_batch`.

Enumeration carries masks only.  A bag keeps the indices of the first
component and cover union that made it; the pool and edge ids of its
witness are derived when :meth:`CandidateBagSet.witness` reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from .hypergraph import Hypergraph, bit_columns, cover_is_connected, ids_of, popcount

DEFAULT_MAX_BAGS = 1_000_000
DEFAULT_MAX_STEPS = 10_000_000

_NUMPY_THRESHOLD = 20_000  # work size beyond which the vectorized paths are used
_BLOCK = 1 << 20  # intersections per vectorized block
_SPLIT_ARITY = 6  # widest pool member that _sub_edges splits on the bag index


class ResourceBudgetError(RuntimeError):
    """Raised when bag enumeration exceeds its configured budget."""


@dataclass
class CandidateBagSet:
    """All candidate bags of one level, plus the cover pool that made them.

    ``bags`` maps each bag mask to the indices of its first component
    entry (a ``(union, separator)`` mask pair) and its first cover union.
    """

    hypergraph: Hypergraph
    k: int
    level: int
    pool: list  # vertex masks: the edges in order, then each level's new sub-edges
    origins: list  # the id of the edge each pool member lies in
    bags: dict  # vertices mask -> (index into components, index into covers)
    components: tuple
    covers: list

    def masks(self):
        return list(self.bags)

    def __len__(self):
        return len(self.bags)

    def witness(self, m):
        """Bag ``m``'s first witness ``(lambda1, lambda2, component)``: pool
        ids, edge ids and the vertex union of a component."""
        ci, wi = self.bags[m]
        component, sep = self.components[ci]
        lambda1 = _first_combo(self.pool, self.k, self.covers[wi])
        lambda2 = _first_combo(self.hypergraph.edge_masks, self.k, sep)
        return lambda1, lambda2, component

    def serialize(self):
        h = self.hypergraph
        lines = []
        for m in sorted(self.bags, key=ids_of):
            lambda1, lambda2, component = self.witness(m)
            vs = ",".join(h.vertex_names[v] for v in ids_of(m))
            l1 = ",".join(h.edge_names[self.origins[i]] for i in lambda1)
            l2 = ",".join(h.edge_names[i] for i in lambda2)
            comp = ",".join(h.vertex_names[v] for v in ids_of(component))
            lines.append(
                f"bag {vs} | lambda1 {l1} | lambda2 {l2} | comp {comp} | level {self.level}"
            )
        return "\n".join(lines) + "\n"


def _first_combo(masks, k, target):
    """The first combination of at most ``k`` of ``masks`` with union ``target``.

    Combinations come by size, then lexicographically, as in
    :func:`_combo_unions`.  Only members inside ``target`` can take
    part, and, as smaller sizes failed, only members that add a missing
    vertex.
    """
    if not target:
        return ()
    inside = [i for i, m in enumerate(masks) if not m & ~target]

    def search(size, start, need):
        if size == 1:
            return next(((i,) for i in inside[start:] if not need & ~masks[i]), None)
        for p in range(start, len(inside) - size + 1):
            m = masks[inside[p]]
            if m & need:
                tail = search(size - 1, p + 1, need & ~m)
                if tail is not None:
                    return (inside[p], *tail)
        return None

    for size in range(1, k + 1):
        found = search(size, 0, target)
        if found is not None:
            return found


def _separator_unions(h, k, max_steps):
    """Distinct ``union(lambda2)`` masks, masks only.

    They come in first-witness order: the empty separator first, then
    combination sizes 1..k, each size in lexicographic edge-id order.
    Raises when the ``sum(C(|E|, s) for s in 0..k)`` combinations exceed
    ``max_steps``.
    """
    if _n_combos(h.n_edges, k) + 1 > max_steps:
        raise ResourceBudgetError("separator enumeration exceeded step budget")
    return [0, *_combo_unions(h.edge_masks, k)]


def cover_union_masks(pool, k, max_steps=DEFAULT_MAX_STEPS):
    """Distinct unions of at most ``k`` of the masks ``pool``, in first-witness order."""
    if _n_combos(len(pool), k) > max_steps:
        raise ResourceBudgetError("cover enumeration exceeded step budget")
    return _combo_unions(pool, k)


_cover_unions = cover_union_masks  # the name iterate_level calls and perfbench times


def _fits_uint64(*mask_lists):
    """Whether every mask in the lists fits one uint64 word, as the
    vectorized paths need."""
    return all(max(masks, default=0) >> 64 == 0 for masks in mask_lists)


def _n_combos(n, k):
    """The number of combinations of 1..k of n items."""
    return sum(math.comb(n, size) for size in range(1, k + 1))


def _combo_unions(masks, k):
    """Distinct unions of 1..k of ``masks``, masks only.

    They come in first-witness order: combination sizes ascending, each
    size in lexicographic index order.  Falls back from the vectorized
    path when masks do not fit 64 bits.
    """
    n = len(masks)
    if _n_combos(n, k) > _NUMPY_THRESHOLD and k <= 3 and _fits_uint64(masks):
        arr = np.array(masks, dtype=np.uint64)
        # All unions in first-witness order in one array: the n singles,
        # the pairs (a, b), then the triples (i, a, b) with i < a < b.
        # The triples of each i extend the pairs whose first index
        # exceeds i, a suffix of the pair list from starts[i]; they sit
        # at offsets[i].  Filling slices keeps no index array per union.
        a, b = np.triu_indices(n, 1) if k >= 2 else (np.arange(0), np.arange(0))
        starts = np.searchsorted(a, np.arange(n), side="right")
        lengths = len(a) - starts if k >= 3 else np.zeros(n, dtype=np.int64)
        offsets = n + len(a) + np.cumsum(lengths) - lengths
        unions = np.empty(n + len(a) + int(lengths.sum()), dtype=np.uint64)
        unions[:n] = arr
        pair_unions = unions[n:n + len(a)]
        np.bitwise_or(arr[a], arr[b], out=pair_unions)
        for i in np.flatnonzero(lengths).tolist():
            np.bitwise_or(pair_unions[starts[i]:], arr[i],
                          out=unions[offsets[i]:offsets[i] + lengths[i]])
        return _first_seen(unions)[0].tolist()
    return list(dict.fromkeys(
        reduce(or_, combo) for size in range(1, k + 1) for combo in combinations(masks, size)
    ))


def _first_seen(values):
    """Distinct entries of a 1-D uint64 array with their first positions.

    Both come in order of first occurrence.  When value and position fit
    one 64-bit key together, a plain sort of the keys replaces the
    slower stable argsort behind ``np.unique(..., return_index=True)``.
    """
    shift = max(len(values) - 1, 1).bit_length()
    if not len(values) or int(values.max()).bit_length() + shift > 64:
        uniq, pos = np.unique(values, return_index=True)
    else:
        # In place: ``values`` can be tens of megabytes.
        keys = values << np.uint64(shift)
        keys |= np.arange(len(values), dtype=np.uint64)
        keys.sort()
        uniq = keys >> np.uint64(shift)
        new = np.concatenate(([True], uniq[1:] != uniq[:-1]))
        uniq = uniq[new]
        pos = (keys[new] & np.uint64((1 << shift) - 1)).astype(np.int64)
    order = np.argsort(pos)
    return uniq[order], pos[order]


def _first_intersections(rows, cols):
    """Distinct nonzero masks ``rows[i] & cols[j]``, each with its first ``(i, j)``.

    Returns ``(mask, i, j)`` triples in discovery order, i.e. ordered
    by ``(i, j)``: the order of a loop over the rows and, within a row,
    over the columns that keeps each mask not seen before.  Above a
    size gate, and when every mask fits 64 bits, the loop runs in
    numpy, in blocks of at most ``_BLOCK`` intersections to bound
    memory.  It forms the bags, component unions times cover unions;
    the sub-edge pool is split per member by :func:`_sub_edges`, since
    the few vertices of a pool member leave few distinct intersections
    among many bags.
    """
    if len(rows) * len(cols) <= _NUMPY_THRESHOLD or not _fits_uint64(rows, cols):
        seen = set()
        out = []
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                m = row & col
                if m and m not in seen:
                    seen.add(m)
                    out.append((m, i, j))
        return out
    row_arr = np.array(rows, dtype=np.uint64)
    col_arr = np.array(cols, dtype=np.uint64)
    seen = np.zeros(0, dtype=np.uint64)
    out = []
    step = max(1, _BLOCK // max(len(cols), 1))
    for lo in range(0, len(rows), step):
        block = (row_arr[lo:lo + step, None] & col_arr[None, :]).ravel()
        uniq, pos = _first_seen(block)  # ordered by pos, i.e. by (i, j)
        keep = (uniq != 0) & ~np.isin(uniq, seen)
        uniq, pos = uniq[keep], pos[keep]
        i, j = np.divmod(pos, len(cols))
        out.extend(zip(uniq.tolist(), (i + lo).tolist(), j.tolist()))
        seen = np.concatenate([seen, uniq])
    return out


def _sub_edges(members, bags, n):
    """Each member's distinct nonzero intersections with ``bags``.

    Returns one dict per mask in ``members``: its distinct nonzero
    ``member & bags[j]``, each mapped to its first ``j``, in order of
    ``j``.  Masks range over ``n`` vertices.

    A member of at most ``_SPLIT_ARITY`` vertices is split on the
    per-vertex bitset index of the bags, bit ``j`` of column ``v``
    standing for ``bags[j]``.  Starting from the set of all bags, each
    of the member's vertices ``v`` splits every set into the bags with
    ``v`` (one AND with column ``v``) and those without (one XOR).
    After the last vertex each nonempty set holds the bags of one
    intersection, and its lowest set bit is the first ``j``.  That is a
    few big-int operations of ``len(bags)`` bits per set, whatever the
    number of vertices, but a member of ``r`` vertices can reach
    ``2 ** r`` sets.

    Wider members go to :func:`_row_sub_edges`, which forms one
    intersection per bag.  The bound was set by measurement, splitting
    every member against one intersection per bag on graphs of 14-30
    random edges of ``r`` vertices each: the split took 0.15-0.81 of
    the time at r <= 5, 0.50-0.98 at r = 6, 1.2-1.6 at r = 7 and
    1.8-2.3 at r = 8.
    """
    wide = iter(_row_sub_edges([p for p in members if p.bit_count() > _SPLIT_ARITY], bags, n))
    index = None
    every = (1 << len(bags)) - 1
    out = []
    for p in members:
        if p.bit_count() > _SPLIT_ARITY:
            out.append(next(wide))
            continue
        if index is None:
            index = bit_columns(n, bags)
        sets = [(every, 0)]
        for v in ids_of(p):
            col, bit = index[v], 1 << v
            split = []
            for s, m in sets:
                inside = s & col
                if inside:
                    split.append((inside, m | bit))
                    s ^= inside
                if s:
                    split.append((s, m))
            sets = split
        out.append({m: j for j, m in sorted(
            ((s & -s).bit_length() - 1, m) for s, m in sets if m)})
    return out


def _row_sub_edges(rows, bags, n):
    """``_sub_edges`` of ``rows``, one intersection per (row, bag) pair.

    Above a size gate, and on up to 64 vertices, the pairs are formed
    in numpy, in blocks of at most ``_BLOCK``: each intersection is
    keyed by its row above bit ``n``, so ``_first_seen`` keeps the
    first ``(row, j)`` of every distinct one per row.

    Both paths stay, by measurement (CPU time on a 2-vCPU Xeon VM,
    CPython 3.11, best of 9, numpy against the dict loop, this function
    alone): ``wide12`` of ``tests/test_bags.py`` at k=3 (14 members of
    12 vertices against 4,143 bags) 1.8 against 5.0 ms; random graphs with
    9-16 members of 7-12 vertices and 34k-63k pairs 0.85-1.3 against
    2.9-5.5 ms; but H3prime plus an edge over all its vertices at k=3
    (one 18-vertex member against 27,778 bags) 4.7 against 3.1 ms.
    With the dict loop alone, wide12's k=3 pool step would take about
    8.3 ms instead of 2.1.
    """
    if len(rows) * len(bags) <= _NUMPY_THRESHOLD or n > 64:
        out = []
        for row in rows:
            first = {}
            for j, b in enumerate(bags):
                first.setdefault(row & b, j)
            first.pop(0, None)
            out.append(first)
        return out
    bag_arr = np.array(bags, dtype=np.uint64)
    low = np.uint64((1 << n) - 1)
    step = min(max(1, _BLOCK // len(bags)), 1 << (64 - n))  # row keys fit above bit n
    out = []
    for lo in range(0, len(rows), step):
        block = np.array(rows[lo:lo + step], dtype=np.uint64)[:, None] & bag_arr
        block |= np.arange(len(block), dtype=np.uint64)[:, None] << np.uint64(n)
        keys, pos = _first_seen(block.ravel())  # ordered by pos, i.e. by (row, j)
        masks = keys & low
        keep = masks != 0
        i, j = np.divmod(pos[keep], len(bags))
        bounds = np.searchsorted(i, np.arange(len(block) + 1)).tolist()
        masks, j = masks[keep].tolist(), j.tolist()
        out.extend(dict(zip(masks[a:b], j[a:b])) for a, b in zip(bounds, bounds[1:]))
    return out


def _component_entries(h, seps):
    """Distinct component unions over the separators ``seps``, masks only.

    Returns ``(union, separator)`` mask pairs in first-witness order: the
    unions of the components of each separator from
    ``_separator_unions``, in (separator, component) order with
    components ordered by smallest member vertex, each kept at its first
    occurrence with that separator.  On up to 64 vertices and above a
    size gate, all separators are split at once in numpy, with the same
    result.
    """
    # Measured crossover: at 18 vertices numpy wins from about 60
    # separators, and the pure-Python split of one separator costs more
    # the more vertices it has.
    if len(seps) * h.n_vertices ** 2 > _NUMPY_THRESHOLD and _fits_uint64([h.all_vertices_mask]):
        owner, _, unions = _component_unions_batch(h, seps)
        uniq, pos = _first_seen(unions)
        return tuple(zip(uniq.tolist(), [seps[i] for i in owner[pos].tolist()]))
    entries = {}  # component union -> its first separator
    for sep in seps:
        for union in h.component_unions(sep):
            entries.setdefault(union, sep)
    return tuple(entries.items())


def _component_unions_batch(h, seps):
    """``h.component_neighborhoods`` of many separators at once, in numpy.

    ``seps`` is a sequence of separator masks; ``h`` has at most 64
    vertices.  Returns ``(owner, comps, unions)``, three arrays in
    (separator, component) order: ``comps`` and ``unions`` concatenate
    the components and neighbourhoods of ``seps[i]`` over ``i``, and
    ``owner`` holds the ``i`` of each entry.  All separators advance
    together: each round seeds one component per separator at its
    lowest remaining vertex and grows it to its closure, so components
    come in order of smallest member vertex, as in
    ``component_neighborhoods``.  The bag layer reads the unions of its
    separators; the block search reads components and unions of its
    bags (see :mod:`softdecomp.solver`).
    """
    table = _adjacency_bytes(h)

    def neighbourhoods(masks):  # union of the edges meeting each mask
        out = np.zeros_like(masks)
        for b, row in enumerate(table):
            out |= row[(masks >> np.uint64(8 * b)) & np.uint64(0xFF)]
        return out

    one = np.uint64(1)
    free = ~np.asarray(seps, dtype=np.uint64) & np.uint64(h.all_vertices_mask)
    rest = free.copy()
    owner = np.arange(len(free))
    owners, comps, unions = [np.zeros(0, dtype=np.int64)], [], []
    while True:
        live = rest != 0
        owner, free, rest = owner[live], free[live], rest[live]
        if not len(owner):
            break
        comp = rest & (~rest + one)  # lowest remaining vertex
        grow = np.arange(len(comp))
        while len(grow):
            grown = neighbourhoods(comp[grow]) & free[grow]
            moved = grown != comp[grow]
            grow = grow[moved]
            comp[grow] = grown[moved]
        owners.append(owner)
        comps.append(comp)
        unions.append(neighbourhoods(comp))
        rest &= ~comp
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    empty = np.zeros(0, dtype=np.uint64)
    return (owner[order], np.concatenate([empty, *comps])[order],
            np.concatenate([empty, *unions])[order])


def _adjacency_bytes(h):
    """``h.adjacency`` as per-byte lookup tables, for up to 64 vertices.

    A uint64 array of shape ``(ceil(n / 8), 256)``: row ``b``, column
    ``x`` is the union of ``adjacency[8 * b + i]`` over the bits ``i``
    set in ``x``.
    """
    adj = h.adjacency
    table = np.zeros(((h.n_vertices + 7) // 8, 256), dtype=np.uint64)
    for b, row in enumerate(table):
        unions = [0] * 256
        for x in range(1, 256):
            v = 8 * b + (x & -x).bit_length() - 1
            unions[x] = unions[x & (x - 1)] | (adj[v] if v < len(adj) else 0)
        row[:] = unions
    return table


def _enumerate_bags(h, k, pool, origins, components, covers, level, max_bags, max_steps):
    if len(covers) * len(components) > max_steps:
        raise ResourceBudgetError("bag enumeration exceeded step budget")
    found = _first_intersections([cm for cm, _ in components], covers)
    if len(found) > max_bags:
        raise ResourceBudgetError("bag count exceeded budget")
    bags = {m: (ci, wi) for m, ci, wi in found}
    return CandidateBagSet(h, k, level, pool, origins, bags, components, covers)


def soft_bags(h, k, max_bags=DEFAULT_MAX_BAGS, max_steps=DEFAULT_MAX_STEPS):
    """The level-0 candidate bag set for width parameter ``k``."""
    seps = _separator_unions(h, k, max_steps)
    # The level-0 pool is the edges in order, so its cover unions are
    # the separators without the empty one.
    return _enumerate_bags(h, k, list(h.edge_masks), list(range(h.n_edges)),
                           _component_entries(h, seps), seps[1:], 0, max_bags, max_steps)


def iterate_level(prev, max_bags=DEFAULT_MAX_BAGS, max_steps=DEFAULT_MAX_STEPS):
    """Build the next level's bag set from ``prev``.

    The new cover pool is the old pool plus all nonempty intersections
    of old pool members with old bags, deduplicated by vertex set, in
    (member, first bag) order; the separator side, ``prev.components``,
    is reused.  Each member's intersections come from
    :func:`_sub_edges`: a split of the bags on their per-vertex bitset
    index for members of at most ``_SPLIT_ARITY`` vertices, one
    intersection per bag for wider ones.  Returns ``prev`` itself when
    neither the pool nor the bags grow.
    """
    pool, origins = _next_pool(prev, max_steps)
    covers = _cover_unions(pool, prev.k, max_steps)
    nxt = _enumerate_bags(prev.hypergraph, prev.k, pool, origins, prev.components, covers,
                          prev.level + 1, max_bags, max_steps)
    if len(pool) == len(prev.pool) and nxt.bags.keys() == prev.bags.keys():
        return prev
    return nxt


def _next_pool(prev, max_steps=DEFAULT_MAX_STEPS):
    """The old pool plus, in discovery order, every new nonempty
    intersection of an old pool member with an old bag.

    Returns ``(pool, origins)``, a new member taking the origin of the
    member it lies in.  Raises, as :func:`cover_union_masks` would on
    the whole pool, as soon as the pool has more cover combinations
    than ``max_steps``.
    """
    pool, origins = list(prev.pool), list(prev.origins)
    seen = set(pool)
    cap = _max_pool(prev.k, max_steps)
    found = _sub_edges(prev.pool, list(prev.bags), prev.hypergraph.n_vertices)
    for origin, subs in zip(prev.origins, found):
        for m in subs:
            if m not in seen:
                if cap is not None and len(pool) >= cap:
                    raise ResourceBudgetError("cover enumeration exceeded step budget")
                seen.add(m)
                pool.append(m)
                origins.append(origin)
    return pool, origins


def _max_pool(k, max_steps):
    """The largest pool size ``n`` with ``_n_combos(n, k) <= max_steps``,
    or None when ``k < 1`` leaves no combination to count."""
    if k < 1:
        return None
    lo, hi = 0, max_steps + 1  # _n_combos(n, k) >= n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _n_combos(mid, k) <= max_steps:
            lo = mid
        else:
            hi = mid
    return lo


def trimmed_next_pool(prev):
    """A compact next-level cover pool for upper-bound probes.

    Returns ``(pool, origins)`` as :func:`_next_pool` does: the previous
    pool plus, per origin edge, the inclusion-maximal proper sub-edges
    (with at least two vertices) obtainable by intersecting with the
    previous bags.  Any solve accepting over bags built from this pool
    is sound, since the pool is a subset of the full next-level pool.
    The sub-edges of each member come from :func:`_sub_edges`, as in
    :func:`iterate_level` (a split on the bags' bitset index, or one
    intersection per bag for members wider than ``_SPLIT_ARITY``).
    """
    found = _sub_edges(prev.pool, list(prev.bags), prev.hypergraph.n_vertices)
    by_origin = {}
    for member, origin, subs in zip(prev.pool, prev.origins, found):
        for m in subs:
            if m != member and popcount(m) >= 2:
                by_origin.setdefault(origin, set()).add(m)
    pool, origins = list(prev.pool), list(prev.origins)
    seen = set(pool)
    for orig in sorted(by_origin):
        # Largest first, so a candidate inside another lies inside a
        # maximal one already kept.
        maximal = []
        for m in sorted(by_origin[orig], key=int.bit_count, reverse=True):
            if all(m & ~o for o in maximal):
                maximal.append(m)
        for m in sorted(maximal, key=ids_of):
            if m not in seen:
                seen.add(m)
                pool.append(m)
                origins.append(orig)
    return pool, origins


def edge_cover_bags(h, k, connected=False, max_steps=DEFAULT_MAX_STEPS):
    """Distinct unions of at most ``k`` edges, usable as decomposition nodes.

    A union that is a strict subset of a single edge is dropped: a node
    with such a bag is always subsumed by a node carrying the whole edge.
    With ``connected=True``, only bags with some exact connected cover
    are kept, i.e. a set of at most ``k`` edges whose union equals the
    bag and that forms a connected subhypergraph.

    Returns a dict mapping each bag mask to its first (or first
    connected) witness tuple of edge ids.
    """
    masks = h.edge_masks
    witnesses = {}
    steps = 0
    for size in range(1, k + 1):
        for combo in combinations(range(h.n_edges), size):
            steps += 1
            if steps > max_steps:
                raise ResourceBudgetError("cover enumeration exceeded step budget")
            m = 0
            for i in combo:
                m |= masks[i]
            if m in witnesses:
                continue
            if connected and not cover_is_connected([masks[i] for i in combo]):
                continue
            witnesses[m] = combo
    out = {}
    for m in sorted(witnesses, key=ids_of):
        if any(m != em and not m & ~em for em in masks):
            continue
        out[m] = witnesses[m]
    return out


def soft_bags_level(h, k, level, max_bags=DEFAULT_MAX_BAGS, max_steps=DEFAULT_MAX_STEPS):
    """The level-``i`` candidate bag set, short-circuiting at a fixpoint."""
    cur = soft_bags(h, k, max_bags, max_steps)
    for _ in range(level):
        nxt = iterate_level(cur, max_bags, max_steps)
        if nxt is cur:
            break
        cur = nxt
    return cur
