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
sets, is one row of :func:`_intersections`, as the bags are.

Every mask sequence the module makes is deduplicated and in ascending
mask order: separator unions, cover unions, component entries, each
pool member's sub-edges and the bag set.  Above a size gate, and while
every mask fits one uint64 word, the enumerations over all pairs run in
numpy, with the same results.  Each kernel's gate is set by
measurement: the unions of edge or pool combinations
(:func:`_combo_unions`) go to numpy from ``_COMBO_THRESHOLD`` (200)
combinations, the other pair loops from ``_NUMPY_THRESHOLD``.  The
numpy paths work in blocks of ``_BLOCK`` values and deduplicate through
:func:`_distinct_blocks`: flags in a table indexed by value for narrow
values (at most ``_DENSE_RATIO`` cells per value), else a sort.  No
numpy index is a uint64 array, which numpy would first copy to its
index type with a range check: a table index is an int64 view or
buffer of values known to be far below ``2 ** 63``.

A numpy path returns its masks as a sorted uint64 array and a Python
path as a sorted list of ints, and each step takes either: the cover
unions go on to the bags, the bags to the next level's sub-edge split
and to the block search's index, with no Python int made in between.
At level 0 the separator unions are such an array too, with the empty
separator in front: all of them go to the component split, and all but
the empty one, as the level-0 cover unions, to the bags.  Python ints
appear where a caller reads them: the separators of the distinct
component entries, the pool, and :attr:`CandidateBagSet.bags` and
``covers``, built on first read.  Small inputs, below every size gate,
stay on int lists throughout.

This is the package's only vectorized module: everything else runs on
Python-int masks.  The block search takes two kernels from it:
:func:`candidate_index` sorts its candidates and builds their
per-vertex bitset index, in numpy above ``_INDEX_THRESHOLD`` (256)
masks, and :func:`_any_balanced` tells a long reject whether any
candidate bag in its component is balanced, picking them from the
index's uint64 array.

Enumeration carries masks only, not the pool and edge ids behind a bag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from operator import or_

import numpy as np

from .hypergraph import Hypergraph, bit_columns, ids_of

DEFAULT_MAX_BAGS = 1_000_000
DEFAULT_MAX_STEPS = 10_000_000

_NUMPY_THRESHOLD = 20_000  # work size beyond which the vectorized paths are used
_COMBO_THRESHOLD = 200  # combinations beyond which _combo_unions runs in numpy
_INDEX_THRESHOLD = 256  # masks beyond which candidate_index runs in numpy
_DENSE_RATIO = 4  # most table cells per value for a flag table in _distinct_blocks
_BLOCK = 1 << 18  # values per vectorized block: 2 MiB, see _distinct_blocks
_SPLIT_ARITY = 6  # widest pool member that _sub_edges splits on the bag index


class ResourceBudgetError(RuntimeError):
    """Raised when bag enumeration exceeds its configured budget."""


@dataclass
class CandidateBagSet:
    """All candidate bags of one level, plus the cover pool that made them.

    ``bags`` holds the bag masks in ascending order, and iterating the
    set yields them.  ``components`` holds the component entries, each a
    ``(union, separator)`` mask pair, and ``covers`` the cover unions,
    both ascending by union.

    ``bags`` (a tuple of ints) and ``covers`` (a list of ints) are built
    on first read from ``bag_masks`` and ``cover_masks``, which hold the
    same masks as the bag layer made them: a uint64 array on a numpy
    path, ints on a Python one.  The next level and the block search
    read the arrays, so a large bag set is never turned into Python ints
    there.  Equality leaves the two out, as the other fields fix them.
    """

    hypergraph: Hypergraph
    k: int
    level: int
    pool: list  # vertex masks: the edges in order, then each level's new sub-edges
    origins: list  # the id of the edge each pool member lies in
    bag_masks: object = field(repr=False, compare=False)
    components: tuple
    cover_masks: object = field(repr=False, compare=False)

    @cached_property
    def bags(self):
        return tuple(_ints(self.bag_masks))

    @cached_property
    def covers(self):
        return _ints(self.cover_masks)

    def __iter__(self):
        return iter(self.bags)

    def __len__(self):
        return len(self.bag_masks)


def _separator_unions(h, k, max_steps):
    """Distinct ``union(lambda2)`` masks, ascending, so the empty
    separator comes first: :func:`_combo_unions`' masks behind a 0, a
    uint64 array on its numpy path.  Raises when the ``sum(C(|E|, s)
    for s in 0..k)`` combinations exceed ``max_steps``.
    """
    if _n_combos(h.n_edges, k) + 1 > max_steps:
        raise ResourceBudgetError("separator enumeration exceeded step budget")
    unions = _combo_unions(h.edge_masks, k)
    if isinstance(unions, np.ndarray):
        return np.concatenate([np.zeros(1, dtype=np.uint64), unions])
    return [0, *unions]


def _cover_unions(pool, k, max_steps):
    """Distinct unions of at most ``k`` of the masks ``pool``, ascending,
    as :func:`_combo_unions` returns them: a uint64 array on its numpy
    path.  Raises when the combinations exceed ``max_steps``.
    ``iterate_level`` calls it by this module name, which perfbench
    wraps to time the layer."""
    if _n_combos(len(pool), k) > max_steps:
        raise ResourceBudgetError("cover enumeration exceeded step budget")
    return _combo_unions(pool, k)


def _ints(masks):
    """The masks ``masks`` as Python ints: a uint64 array's ``tolist()``,
    else ``masks`` itself."""
    return masks.tolist() if isinstance(masks, np.ndarray) else masks


def _fits_uint64(*mask_lists):
    """Whether every mask in the lists fits one uint64 word, as the
    vectorized paths need; a uint64 array does by its type."""
    return all(isinstance(masks, np.ndarray) or max(masks, default=0) >> 64 == 0
               for masks in mask_lists)


def _n_combos(n, k):
    """The number of combinations of 1..k of n items."""
    return sum(math.comb(n, size) for size in range(1, k + 1))


def _combo_unions(masks, k):
    """Distinct unions of 1..k of the int masks ``masks``, ascending: a
    uint64 array from the numpy path, else a list.

    Runs in numpy above ``_COMBO_THRESHOLD`` combinations, for
    ``k <= 3`` and masks of at most 64 bits.  The gate is the measured
    crossover: on random masks of 8, 18 and 40 vertices, numpy wins
    from about 200 combinations at k=2 and k=3 and loses below 120.  At k=2, H3prime's 96 edges take
    0.21 ms in numpy and 1.17 in Python, its 194-member level-1 pool
    0.80 and 4.6 (best of 21, Xeon VM, CPython 3.11, numpy 2.4).
    """
    total = _n_combos(len(masks), k)
    if total > _COMBO_THRESHOLD and k <= 3 and _fits_uint64(masks):
        blocks = _union_blocks(np.array(masks, dtype=np.uint64), k)
        # No union is wider than the widest mask, itself a union.
        return _distinct_blocks(blocks, max(masks).bit_length(), total)
    return sorted({
        reduce(or_, combo) for size in range(1, k + 1) for combo in combinations(masks, size)
    })


def _union_blocks(arr, k):
    """The unions of 1..k (k <= 3) of the uint64 masks ``arr``: singles,
    pairs (a, b), then in one reused buffer the triples (i, a, b), i < a
    < b, of each i: the suffix of the pairs whose first index exceeds i."""
    yield arr
    if k >= 2:
        a, b = np.triu_indices(len(arr), 1)
        pairs = arr[a] | arr[b]
        yield pairs
    if k >= 3:
        buf, fill = np.empty(max(_BLOCK, len(pairs)), dtype=np.uint64), 0
        for i, start in enumerate(np.searchsorted(a, np.arange(len(arr)), side="right").tolist()):
            if fill + len(pairs) - start > len(buf):
                yield buf[:fill]
                fill = 0
            np.bitwise_or(pairs[start:], arr[i], out=buf[fill:fill + len(pairs) - start])
            fill += len(pairs) - start
        yield buf[:fill]


def _distinct(values):
    """The distinct entries of a 1-D uint64 array, ascending."""
    width = int(values.max()).bit_length() if len(values) else 0
    return _distinct_blocks([values], width, len(values))


def _distinct_blocks(blocks, width, n):
    """The distinct entries of the 1-D uint64 arrays ``blocks`` yields,
    ascending: ``n`` values in all, each below ``2 ** width``.

    With ``2 ** width <= _DENSE_RATIO * n`` they are the set cells of
    one flag table indexed by value; otherwise each block, and then
    their results, are sorted and neighbours compared.  A block is used
    before the next is asked for, so it may be a reused buffer.  Blocks
    stay under 4 MiB, from which numpy asks Linux for transparent huge
    pages: their supply varies, and so did the peak RSS, by 8 MB a run.
    numpy's ``unique`` is not used: it took 43-54 ms on 806k values
    where the sort and compare took 9.5.

    CPU ms sorted / in the table (best of 9, Xeon VM, CPython 3.11,
    numpy 2.4), by table cells per value:

    ====  =======  ==========  =========  =========  =========  =========
    w     values   1 cell      2 cells    4 cells    8 cells    12 cells
    ====  =======  ==========  =========  =========  =========  =========
    18    gallery  2.12/0.52   1.02/0.27  0.51/0.16  0.24/0.11  0.17/0.08
    18    random   3.35/0.71   1.32/0.40  0.56/0.30  0.23/0.23  0.16/0.42
    20    random   14.7/3.09   6.19/1.91  2.69/1.38  1.08/1.11  0.70/1.70
    22    random   76.2/29.6   29.8/13.2  12.7/9.82  6.06/5.63  3.66/8.62
    ====  =======  ==========  =========  =========  =========  =========

    The gallery rows are windows of the unions of 1..3 members of
    H3prime's level-1 pool, duplicates included.  Up to 4 cells per
    value the table wins; at 8 cells the two are within 10 % on random
    values, and at 12 the sort wins.  With the values indexed as uint64,
    which numpy first copies to its index type, the table took up to
    twice as long (1.09 ms for 1 cell of gallery values, 0.29 for 4).
    """
    if n and 1 << width <= _DENSE_RATIO * n:
        flags = np.zeros(1 << width, dtype=bool)
        for values in blocks:
            # Each value is below 2 ** width <= _DENSE_RATIO * n, far below
            # 2 ** 63, so its int64 view (numpy's index type on 64-bit
            # hosts) is the same number, and numpy makes no checked copy.
            flags[values.view(np.int64)] = True
        return np.flatnonzero(flags).astype(np.uint64)
    found = [values[_starts(values)] for values in map(np.sort, blocks)]
    values = found[0] if len(found) == 1 else np.sort(np.concatenate(found))
    return values[_starts(values)]


def _starts(values):
    """Where an entry of the sorted array ``values`` differs from the one before."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def _intersections(rows, cols):
    """Distinct nonzero masks ``rows[i] & cols[j]``, ascending.

    ``rows`` is an int list, ``cols`` an int list or a uint64 array.
    Above ``_NUMPY_THRESHOLD`` pairs or with ``cols`` an array, and when
    every mask fits 64 bits, the masks are found in numpy, in blocks of
    at most ``_BLOCK`` intersections to bound memory, and returned as a
    uint64 array; else as a list of ints.  It forms the bags, component
    unions times cover unions, and the sub-edges of each pool member
    too wide for the split of :func:`_sub_edges`.

    An array ``cols`` comes from the numpy path of :func:`_combo_unions`,
    so it holds hundreds of masks or more, and there numpy wins at any
    number of rows: one row against 200 random masks of 18, 40 and 64
    vertices took 22, 21 and 14 µs in numpy and 26, 38 and 31 µs as ints
    (the ``tolist()`` included); against 18,000 masks 0.16-0.24 ms and
    2.7-7.3 ms (best of 51, Xeon VM, CPython 3.11, numpy 2.4).  The bag
    step of H3prime at level 1, k=3, 13 component unions times 62,045
    cover unions, dedupes in a flag table and takes 1.24 ms (2.03 while
    the table was indexed with uint64 values; best of 21 in three runs).
    """
    small = len(rows) * len(cols) <= _NUMPY_THRESHOLD and not isinstance(cols, np.ndarray)
    if small or not _fits_uint64(rows, cols):
        return sorted({row & col for row in rows for col in cols} - {0})
    row_arr = np.asarray(rows, dtype=np.uint64)
    col_arr = np.asarray(cols, dtype=np.uint64)
    step = max(1, _BLOCK // max(len(cols), 1))
    blocks = ((row_arr[lo:lo + step, None] & col_arr[None, :]).ravel()
              for lo in range(0, len(rows), step))
    width = int(np.bitwise_or.reduce(row_arr) & np.bitwise_or.reduce(col_arr)).bit_length()
    found = _distinct_blocks(blocks, width, len(rows) * len(cols))
    return found[1:] if len(found) and found[0] == 0 else found


def _sub_edges(members, bags, n):
    """Each member's distinct nonzero intersections with ``bags``.

    Returns one ascending int list per mask in ``members``.  ``bags``
    is an int list or uint64 array; masks range over ``n`` vertices.

    A member of at most ``_SPLIT_ARITY`` vertices is split on the
    per-vertex bitset index of the bags (:func:`_bit_columns`), bit
    ``j`` of column ``v`` standing for ``bags[j]``.  Starting from the
    set of all bags, each of the member's vertices ``v`` splits every
    set into the bags with ``v`` (one AND with column ``v``) and those
    without (one XOR).
    After the last vertex each nonempty set holds the bags of one
    intersection.  That is a few big-int operations of ``len(bags)``
    bits per set, whatever the number of vertices, but a member of
    ``r`` vertices can reach ``2 ** r`` sets.

    A wider member is one row of :func:`_intersections`.  The bound
    was set by measurement, splitting every member against one
    intersection per bag on graphs of 14-30 random edges of ``r``
    vertices each: the split took 0.15-0.81 of the time at r <= 5,
    0.50-0.98 at r = 6, 1.2-1.6 at r = 7 and 1.8-2.3 at r = 8.  Only test inputs have wide members;
    without a batch across them, ``_next_pool`` on ``wide12`` of
    ``tests/test_bags.py`` at k=3 (14 members of 12 vertices, 4,143
    bags) takes 11-12 ms of CPU, not 3.3 (best of 9, Xeon VM, CPython 3.11).
    """
    index = None
    every = (1 << len(bags)) - 1
    out = []
    for p in members:
        if p.bit_count() > _SPLIT_ARITY:
            out.append(_ints(_intersections([p], bags)))
            continue
        if index is None:
            index = _bit_columns(n, bags)
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
        out.append(sorted(m for _, m in sets if m))
    return out


def candidate_index(n, masks):
    """The block search's candidates and their per-vertex bitset index.

    Returns ``(bags, has, arr)``: ``bags`` the distinct nonzero
    ``masks``, largest first, ties by mask value, ``has[v]`` the int
    whose bit ``i`` is set when ``bags[i]`` contains vertex ``v``
    (``bit_columns``), and ``arr`` the same bags as a uint64 array, or
    None above 64 vertices.  The empty set is left out: it is never a
    basis, as a root block's head is empty itself and any other block
    needs a vertex of its head.

    ``masks`` is a :class:`CandidateBagSet` or an iterable of int masks
    over ``n`` vertices.  Above ``_INDEX_THRESHOLD`` (256) masks on up to
    64 vertices, where every mask fits one uint64 word, the index is
    built in numpy, with the same result: a bag set's ``bag_masks``
    array, distinct and nonzero already, is sorted as it is, and other
    masks are first deduplicated by :func:`_distinct`, as numpy's
    ``unique`` takes 13.0 ms on H3prime's 62,045 level-1 bags at k=3
    against 0.49.  The columns come from :func:`_bit_columns`.  The gate
    is the measured crossover: on random masks of 18, 40 and 64 vertices
    numpy wins from about 200 to 250 masks (at 256: 61 against 73, 82
    against 108 and 81 against 112 µs, best of 201).  From a bag set
    the index of H3prime's 62,045 level-1 bags at k=3 takes 2.3 ms of
    CPU, from the same bags as an int list 4.2 in numpy and 16.6 in
    Python; of H3's 29,732 level-0 bags at k=3 0.9, 1.8 and 7.7; of
    ``cycle(64)``'s 7,936 at k=2 0.5, 0.8 and 5.0 (best of 54, Xeon VM,
    CPython 3.11, numpy 2.4).
    """
    masks = masks.bag_masks if isinstance(masks, CandidateBagSet) else list(masks)
    if len(masks) <= _INDEX_THRESHOLD or n > 64:
        bags = sorted(set(_ints(masks)) - {0})
        bags.sort(key=int.bit_count, reverse=True)  # stable: ties stay by mask
        arr = np.array(bags, dtype=np.uint64) if n <= 64 else None
        return bags, bit_columns(n, bags), arr
    if isinstance(masks, np.ndarray):
        arr = masks
    else:
        arr = _distinct(np.fromiter(masks, dtype=np.uint64, count=len(masks)))
        arr = arr[1:] if arr[0] == 0 else arr
    arr = arr[np.argsort(64 - np.bitwise_count(arr), kind="stable")]
    return arr.tolist(), _bit_columns(n, arr), arr


def _bit_columns(n, masks):
    """``bit_columns(n, masks)`` of an int list or a uint64 array.

    The numpy column kernel of :func:`candidate_index`, with its gate:
    above ``_INDEX_THRESHOLD`` masks on up to 64 vertices the masks are
    unpacked in numpy one byte at a time, so no temporary is much
    larger than the masks themselves; else ``bit_columns`` builds the
    columns.  It indexes the block search's candidates and the bags
    that :func:`_sub_edges` splits.
    """
    if len(masks) <= _INDEX_THRESHOLD or n > 64:
        return bit_columns(n, _ints(masks))
    rows = np.asarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
    has = []
    for b in range((n + 7) // 8):
        # bits[i, j]: bit i of byte b of masks[j], i.e. vertex 8 * b + i.
        bits = np.unpackbits(rows[:, b], bitorder="little").reshape(-1, 8).T
        columns = np.packbits(np.ascontiguousarray(bits[:min(8, n - 8 * b)]),
                              axis=1, bitorder="little")
        has += [int.from_bytes(column.tobytes(), "little") for column in columns]
    return has


def _component_entries(h, seps):
    """Distinct component unions over the separators ``seps``, masks only.

    Returns ``(union, separator)`` int pairs ascending by union: the
    distinct unions of the components of the separators from
    ``_separator_unions`` (an int list or a uint64 array), each with the
    first separator, in ``seps`` order, that has it.  On up to 64
    vertices and above a size gate, all separators are split at once in
    numpy, with the same result, and only the separators of the entries
    become ints.
    """
    # Measured crossover: at 18 vertices numpy wins from about 60
    # separators, and the pure-Python split of one separator costs more
    # the more vertices it has.
    if len(seps) * h.n_vertices ** 2 > _NUMPY_THRESHOLD and _fits_uint64([h.all_vertices_mask]):
        seps = np.asarray(seps, dtype=np.uint64)
        owner, _, unions = _component_unions_batch(h, seps)
        order = np.argsort(unions, kind="stable")  # ties stay in separator order
        unions, owner = unions[order], owner[order]
        first = _starts(unions)  # each union's first separator
        return tuple(zip(unions[first].tolist(), seps[owner[first]].tolist()))
    entries = {}  # component union -> its first separator
    for sep in _ints(seps):
        for union in h.component_unions(sep):
            entries.setdefault(union, sep)
    return tuple(sorted(entries.items()))


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
    ``component_neighborhoods``.  :func:`_component_entries` reads the
    unions, :func:`_balanced_bags` the components.
    """
    table = _adjacency_bytes(h)
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
            grown = _byte_unions(table, comp[grow]) & free[grow]
            moved = grown != comp[grow]
            grow = grow[moved]
            comp[grow] = grown[moved]
        owners.append(owner)
        comps.append(comp)
        unions.append(_byte_unions(table, comp))
        rest &= ~comp
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    empty = np.zeros(0, dtype=np.uint64)
    return (owner[order], np.concatenate([empty, *comps])[order],
            np.concatenate([empty, *unions])[order])


def _balanced_bags(h, bags, edges):
    """A bool array, true where no [X]-component of the bag ``X`` of
    ``bags`` meets more than half of the edge masks ``edges``.

    ``h`` has at most 64 vertices.  The edges meeting a component are
    the OR of its vertices' rows of :func:`_incidence`, read a byte of
    the component at a time from :func:`_byte_tables`, and counted by
    popcount; components go in blocks of at most ``_BLOCK`` words.
    :func:`_any_balanced` over H3's 2,864 level-0 bags at k=2 takes
    0.37 ms, over H3prime's 62,045 level-1 bags at k=3 5.5 ms; an AND
    of every (component, edge) pair took 0.76 and 14.8 ms (best of 21
    in three runs, Xeon VM, CPython 3.11, numpy 2.4).
    """
    owner, comps, _ = _component_unions_batch(h, bags)
    table = _byte_tables(_incidence(h.n_vertices, edges))
    heavy = np.zeros(len(bags), dtype=bool)
    step = max(1, _BLOCK // max(table.shape[2], 1))
    for lo in range(0, len(comps), step):
        meets = np.bitwise_count(_byte_unions(table, comps[lo:lo + step])).sum(axis=1)
        heavy[owner[lo:lo + step][2 * meets > len(edges)]] = True
    return ~heavy


def _any_balanced(h, bags, c):
    """Whether a bag of the uint64 array ``bags`` inside the vertex set
    ``c`` is balanced (:func:`_balanced_bags`) for the edges meeting ``c``."""
    inside = bags[bags & np.uint64(h.all_vertices_mask & ~c) == 0]
    edges = [e for e in h.edge_masks if e & c]
    return bool(_balanced_bags(h, inside, edges).any())


def _adjacency_bytes(h):
    """``h.adjacency`` as per-byte lookup tables, for up to 64 vertices:
    row ``b``, column ``x`` of this ``(ceil(n / 8), 256)`` uint64 array
    is the union of ``adjacency[8 * b + i]`` over the bits ``i`` set in
    ``x`` (:func:`_byte_tables`).  0.016 ms on H3's 18 vertices, where a
    Python loop over the 256 bytes took 0.090 (best of 51)."""
    return _byte_tables(np.array(h.adjacency, dtype=np.uint64).reshape(-1, 1))[:, :, 0]


def _incidence(n, edges):
    """The ``m`` edge masks ``edges`` over ``n`` (at most 64) vertices as
    per-vertex edge bitsets: a uint64 array of shape ``(n, ceil(m /
    64))`` whose row ``v`` has bit ``j % 64`` of word ``j // 64`` set
    when ``v`` lies in ``edges[j]``."""
    words = -(-len(edges) // 64)
    bits = np.array(edges, dtype=np.uint64) >> np.arange(n, dtype=np.uint64)[:, None]
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, :(len(edges) + 7) // 8] = np.packbits(
        (bits & np.uint64(1)).astype(bool), axis=1, bitorder="little")
    return packed.view(np.uint64)


def _byte_tables(rows):
    """Per-byte OR tables of the ``n`` rows of the 2-D uint64 array
    ``rows``, one row per vertex.

    Returns an array of shape ``(ceil(n / 8), 256, rows.shape[1])``:
    entry ``[b, x]`` is the OR of ``rows[8 * b + i]`` over the bits
    ``i`` set in ``x``.  Built by doubling, one numpy OR per bit for all
    bytes at once: entries ``s..2s-1`` are entries ``0..s-1`` with row
    ``8 * b + log2(s)`` added, or copied where that row is past ``n``.
    """
    n, width = rows.shape
    bytes_ = (n + 7) // 8
    padded = np.zeros((8 * bytes_, width), dtype=np.uint64)
    padded[:n] = rows
    padded = padded.reshape(bytes_, 8, 1, width)
    table = np.zeros((bytes_, 256, width), dtype=np.uint64)
    for i in range(8):
        s = 1 << i
        np.bitwise_or(table[:, :s], padded[:, i], out=table[:, s:2 * s])
    return table


def _byte_unions(table, masks):
    """The OR of ``table[b, byte b of m]`` over the bytes ``b`` of each
    uint64 mask ``m`` of ``masks``, for a table of :func:`_byte_tables`:
    an array of shape ``(len(masks), table.shape[2])``, or ``(len(masks),)``
    for a 2-D table."""
    out = np.zeros((len(masks), *table.shape[2:]), dtype=np.uint64)
    index = np.empty(len(masks), dtype=np.int64)
    for b, row in enumerate(table):
        # A byte is at most 255, so the uint64 shift written into the int64
        # buffer is the same number, and numpy indexes with it as it is.
        np.right_shift(masks, np.uint64(8 * b), out=index.view(np.uint64))
        index &= 0xFF
        out |= row[index]
    return out


def _enumerate_bags(h, k, pool, origins, components, covers, level, max_bags, max_steps):
    if len(covers) * len(components) > max_steps:
        raise ResourceBudgetError("bag enumeration exceeded step budget")
    bags = _intersections([cm for cm, _ in components], covers)
    if len(bags) > max_bags:
        raise ResourceBudgetError("bag count exceeded budget")
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
    of old pool members with old bags, deduplicated by vertex set: per
    member in pool order, its new sub-edges by ascending mask.  The
    separator side, ``prev.components``, is reused.  Each member's
    intersections come from :func:`_sub_edges`.  Returns ``prev`` itself when the pool does not grow, as covers and
    bags then cannot change.
    """
    pool, origins = _next_pool(prev, max_steps)
    if len(pool) == len(prev.pool):
        return prev
    covers = _cover_unions(pool, prev.k, max_steps)
    return _enumerate_bags(prev.hypergraph, prev.k, pool, origins, prev.components, covers,
                           prev.level + 1, max_bags, max_steps)


def _next_pool(prev, max_steps=DEFAULT_MAX_STEPS):
    """The old pool plus every new nonempty intersection of an old pool
    member with an old bag: per member in pool order, its new sub-edges
    by ascending mask.

    Returns ``(pool, origins)``, a new member taking the origin of the
    first member, in pool order, it is a sub-edge of.  Raises, as
    :func:`_cover_unions` would on the whole pool, as soon as the
    pool has more cover combinations than ``max_steps``.
    """
    pool, origins = list(prev.pool), list(prev.origins)
    seen = set(pool)
    found = _sub_edges(prev.pool, prev.bag_masks, prev.hypergraph.n_vertices)
    for origin, subs in zip(prev.origins, found):
        for m in subs:
            if m not in seen:
                if _n_combos(len(pool) + 1, prev.k) > max_steps:
                    raise ResourceBudgetError("cover enumeration exceeded step budget")
                seen.add(m)
                pool.append(m)
                origins.append(origin)
    return pool, origins


def soft_bags_level(h, k, level, max_bags=DEFAULT_MAX_BAGS, max_steps=DEFAULT_MAX_STEPS):
    """The level-``i`` candidate bag set, short-circuiting at a fixpoint."""
    cur = soft_bags(h, k, max_bags, max_steps)
    for _ in range(level):
        nxt = iterate_level(cur, max_bags, max_steps)
        if nxt is cur:
            break
        cur = nxt
    return cur
