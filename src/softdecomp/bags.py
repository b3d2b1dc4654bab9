"""Candidate bag sets built from edge covers and connectivity components.

A level-0 candidate bag is a nonempty set of the form
``union(lambda1) & union(component)`` where ``lambda1`` is a set of at
most ``k`` edges and the component is one of the edge components left
by removing the vertices of another set ``lambda2`` of at most ``k``
edges (``lambda2`` may be empty, in which case the components are the
connected components of the hypergraph).

Higher levels replace the ``lambda1`` pool with sub-edges: pairwise
intersections of the previous pool with the previous level's bags.
``lambda2`` always ranges over the original edges.

Everything is produced in one order, the first-witness order of plain
loops: edge and pool combinations by size, then lexicographically;
component unions by separator, then by smallest member vertex; bags
and new pool members by the (row, column) position at which they are
first found.  Above a size gate the enumeration runs in numpy, with
the same results in the same order.

Enumeration carries masks only.  A bag keeps the indices of the first
component and cover union that made it; the edge and pool ids of its
witness are derived when :meth:`CandidateBagSet.witness` reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from .hypergraph import Hypergraph, cover_is_connected, ids_of, popcount

DEFAULT_MAX_BAGS = 1_000_000
DEFAULT_MAX_STEPS = 10_000_000

_NUMPY_THRESHOLD = 20_000  # work size beyond which the vectorized paths are used
_BLOCK = 1 << 20  # intersections per vectorized block


class ResourceBudgetError(RuntimeError):
    """Raised when bag enumeration exceeds its configured budget."""


@dataclass(frozen=True)
class SubEdge:
    """A (sub)set of an original edge, usable in covers.

    ``origin`` is the id of the edge it is a subset of; level 0
    sub-edges are the edges themselves.
    """

    vertices: int
    origin: int
    level: int


@dataclass(frozen=True)
class CandidateBag:
    """A candidate bag with the first witness found for it.

    ``lambda1`` holds pool indices (into the owning set's ``pool``),
    ``lambda2`` original edge ids, and ``component`` the vertex union
    of the witnessing component.
    """

    vertices: int
    lambda1: tuple
    lambda2: tuple
    component: int
    level: int


@dataclass
class CandidateBagSet:
    """All candidate bags of one level, plus the cover pool that made them.

    ``bags`` maps each bag mask to the indices of its first component
    entry (a ``(union, separator)`` mask pair) and its first cover union.
    """

    hypergraph: Hypergraph
    k: int
    level: int
    pool: list  # list[SubEdge]
    bags: dict  # vertices mask -> (index into components, index into covers)
    components: tuple
    covers: list

    def masks(self):
        return list(self.bags)

    def __len__(self):
        return len(self.bags)

    def witness(self, m):
        """Bag ``m`` with its first witness, derived from its masks."""
        ci, wi = self.bags[m]
        component, sep = self.components[ci]
        lambda1 = _first_combo([s.vertices for s in self.pool], self.k, self.covers[wi])
        lambda2 = _first_combo(self.hypergraph.edge_masks, self.k, sep)
        return CandidateBag(m, lambda1, lambda2, component, self.level)

    def serialize(self):
        h = self.hypergraph
        lines = []
        for m in sorted(self.bags, key=ids_of):
            bag = self.witness(m)
            vs = ",".join(h.vertex_names[v] for v in ids_of(m))
            l1 = ",".join(h.edge_names[self.pool[i].origin] for i in bag.lambda1)
            l2 = ",".join(h.edge_names[i] for i in bag.lambda2)
            comp = ",".join(h.vertex_names[v] for v in ids_of(bag.component))
            lines.append(
                f"bag {vs} | lambda1 {l1} | lambda2 {l2} | comp {comp} | level {bag.level}"
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
    """Distinct unions of at most ``k`` pool members, in first-witness order."""
    if _n_combos(len(pool), k) > max_steps:
        raise ResourceBudgetError("cover enumeration exceeded step budget")
    return _combo_unions([s.vertices for s in pool], k)


_cover_unions = cover_union_masks  # the name enumeration calls and perfbench times


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
    if (
        _n_combos(n, k) > _NUMPY_THRESHOLD
        and k <= 3
        and (not masks or max(masks) < 1 << 63)
    ):
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


def _first_intersections(rows, cols, exclude=()):
    """New nonzero masks ``rows[i] & cols[j]``, each with its first ``(i, j)``.

    Returns ``(mask, i, j)`` triples in discovery order, i.e. ordered
    by ``(i, j)``: the order of a loop over the rows and, within a row,
    over the columns that keeps each mask not seen before.  Masks in
    ``exclude`` count as seen.  Above a size gate, and when every mask
    fits 64 bits, the loop runs in numpy, in blocks of at most
    ``_BLOCK`` intersections to bound memory.
    """
    if (
        len(rows) * len(cols) <= _NUMPY_THRESHOLD
        or max(max(rows, default=0), max(cols, default=0)) >> 64
    ):
        seen = set(exclude)
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
    seen = np.array(sorted(set(exclude)), dtype=np.uint64)
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


def _component_entries(h, k, max_steps):
    """Distinct component unions over all separators, masks only.

    Returns ``(union, separator)`` mask pairs in first-witness order: the
    unions of the components of each separator from
    ``_separator_unions``, in (separator, component) order with
    components ordered by smallest member vertex, each kept at its first
    occurrence with that separator.  On up to 64 vertices and above a
    size gate, all separators are split at once in numpy, with the same
    result.
    """
    seps = _separator_unions(h, k, max_steps)
    # Measured crossover: at 18 vertices numpy wins from about 60
    # separators, and the pure-Python split of one separator costs more
    # the more vertices it has.
    if h.n_vertices <= 64 and len(seps) * h.n_vertices ** 2 > _NUMPY_THRESHOLD:
        owner, unions = h.component_unions_batch(seps)
        uniq, pos = _first_seen(unions)
        return tuple(zip(uniq.tolist(), [seps[i] for i in owner[pos].tolist()]))
    entries = {}  # component union -> its first separator
    for sep in seps:
        for union in h.component_unions(sep):
            entries.setdefault(union, sep)
    return tuple(entries.items())


def _enumerate_bags(h, k, pool, components, level, max_bags, max_steps):
    covers = _cover_unions(pool, k, max_steps)
    if len(covers) * len(components) > max_steps:
        raise ResourceBudgetError("bag enumeration exceeded step budget")
    found = _first_intersections([cm for cm, _ in components], covers)
    if len(found) > max_bags:
        raise ResourceBudgetError("bag count exceeded budget")
    bags = {m: (ci, wi) for m, ci, wi in found}
    return CandidateBagSet(h, k, level, pool, bags, components, covers)


def soft_bags(h, k, max_bags=DEFAULT_MAX_BAGS, max_steps=DEFAULT_MAX_STEPS):
    """The level-0 candidate bag set for width parameter ``k``."""
    pool = [SubEdge(m, i, 0) for i, m in enumerate(h.edge_masks)]
    components = _component_entries(h, k, max_steps)
    return _enumerate_bags(h, k, pool, components, 0, max_bags, max_steps)


def iterate_level(prev, max_bags=DEFAULT_MAX_BAGS, max_steps=DEFAULT_MAX_STEPS):
    """Build the next level's bag set from ``prev``.

    The new cover pool is the old pool plus all nonempty intersections
    of old pool members with old bags, deduplicated by vertex set; the
    separator side, ``prev.components``, is reused.  Returns ``prev``
    itself when neither the pool nor the bags grow.
    """
    h = prev.hypergraph
    pool = list(prev.pool)
    seen = {s.vertices for s in pool}
    found = _first_intersections([s.vertices for s in prev.pool], list(prev.bags), seen)
    for m, i, _ in found:
        pool.append(SubEdge(m, prev.pool[i].origin, prev.level + 1))

    nxt = _enumerate_bags(
        h, prev.k, pool, prev.components, prev.level + 1, max_bags, max_steps
    )
    if len(pool) == len(prev.pool) and nxt.bags.keys() == prev.bags.keys():
        return prev
    return nxt


def trimmed_next_pool(prev):
    """A compact next-level cover pool for upper-bound probes.

    Keeps the previous pool plus, per origin edge, the inclusion-maximal
    proper sub-edges (with at least two vertices) obtainable by
    intersecting with the previous bags.  Any solve accepting over bags
    built from this pool is sound, since the pool is a subset of the
    full next-level pool.
    """
    h = prev.hypergraph
    by_origin = {}
    bag_arr = None
    if len(prev.bags) > 1_000 and h.n_vertices <= 64:
        bag_arr = np.fromiter(prev.bags, dtype=np.uint64, count=len(prev.bags))
    for sub in prev.pool:
        if bag_arr is not None:
            inters = np.unique(bag_arr & np.uint64(sub.vertices)).tolist()
        else:
            inters = {sub.vertices & bm for bm in prev.bags}
        for m in inters:
            if m and m != sub.vertices and popcount(m) >= 2:
                by_origin.setdefault(sub.origin, set()).add(m)
    pool = list(prev.pool)
    seen = {s.vertices for s in pool}
    for orig in sorted(by_origin):
        cands = by_origin[orig]
        for m in sorted(cands, key=ids_of):
            if m in seen:
                continue
            if any(o != m and not m & ~o for o in cands):
                continue  # not inclusion-maximal
            seen.add(m)
            pool.append(SubEdge(m, orig, prev.level + 1))
    return pool


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
