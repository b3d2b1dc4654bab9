"""Search for component-normal-form tree decompositions over candidate bags.

A *block* is a pair ``(S, C)`` of a head vertex set ``S`` (a candidate
bag, or the empty set for the conceptual root) and ``C`` either empty
or a maximal [S]-connected vertex set.  A candidate bag ``X`` is a
*basis* of ``(S, C)`` when, with ``Y_1..Y_m`` the maximal
[X]-connected sets contained in ``C``:

    1. ``C`` is covered by ``X | Y_1 | ... | Y_m``,
    2. every edge intersecting ``C`` is inside that union, and
    3. every block ``(X, Y_i)`` has a basis itself.

The hypergraph has a decomposition with all bags drawn from the
candidate set if and only if every block ``(∅, C0)`` for the connected
components ``C0`` has a basis.  The search below computes this least
fixpoint top-down with memoization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypergraph import Hypergraph, ids_of, mask_of, popcount

DEFAULT_MAX_EVALS = 5_000_000

_NUMPY_THRESHOLD = 2_000


class SolverBudgetError(RuntimeError):
    """Raised when the block search exceeds its evaluation budget."""


@dataclass
class BasisTable:
    """Satisfied blocks with the basis frozen for each.

    ``entries`` maps ``(S, C)`` to ``(X, sub_blocks, stamp)`` where the
    sub-blocks were satisfied at strictly earlier stamps.
    """

    entries: dict

    def basis(self, block):
        entry = self.entries.get(block)
        return entry[0] if entry else None

    def __contains__(self, block):
        return block in self.entries


@dataclass
class TreeDecomposition:
    """A rooted tree of bags; ``parents[i]`` is -1 for roots."""

    hypergraph: Hypergraph
    bags: list  # vertex masks
    parents: list
    covers: list | None = None  # per node: tuple of edge ids, or None
    _children: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.bags)

    def children(self, i):
        """The children of node ``i`` in index order.

        The index behind this is built on the first call; ``parents``
        is not changed once the tree is built.
        """
        if self._children is None:
            index = [[] for _ in self.parents]
            for j, p in enumerate(self.parents):
                if p >= 0:
                    index[p].append(j)
            self._children = tuple(map(tuple, index))
        return self._children[i]

    def roots(self):
        return [i for i, p in enumerate(self.parents) if p < 0]

    def depth(self, i):
        d = 0
        while self.parents[i] >= 0:
            i = self.parents[i]
            d += 1
        return d

    def width(self):
        """Largest cover size over all nodes (requires attached covers)."""
        if self.covers is None:
            raise ValueError("no covers attached")
        return max(len(c) for c in self.covers)

    def subtree(self, i):
        """Node indices in the subtree rooted at ``i`` (preorder)."""
        out = [i]
        stack = [i]
        while stack:
            u = stack.pop()
            for c in self.children(u):
                out.append(c)
                stack.append(c)
        return out

    def bag_names(self, i):
        h = self.hypergraph
        return tuple(h.vertex_names[v] for v in ids_of(self.bags[i]))

    def to_text(self):
        h = self.hypergraph
        lines = []
        for i, (bag, parent) in enumerate(zip(self.bags, self.parents)):
            vs = ",".join(self.bag_names(i))
            cover = ""
            if self.covers is not None:
                cover = " cover{" + ",".join(h.edge_names[e] for e in self.covers[i]) + "}"
            lines.append(f"{i} {parent} {{{vs}}}{cover}")
        return "\n".join(lines) + "\n"

    def to_gml(self):
        lines = ["graph [", "  directed 1"]
        for i in range(len(self.bags)):
            label = ",".join(self.bag_names(i))
            lines.append(f'  node [ id {i} label "{label}" ]')
        for i, p in enumerate(self.parents):
            if p >= 0:
                lines.append(f"  edge [ source {p} target {i} ]")
        lines.append("]")
        return "\n".join(lines) + "\n"


@dataclass
class SolveResult:
    accepted: bool
    decomposition: TreeDecomposition | None
    table: BasisTable


def _bag_masks(bags):
    if hasattr(bags, "bags"):
        return list(bags.bags)
    return list(bags)


def _neighborhood(h, c):
    """Union of all edges intersecting the vertex mask ``c``."""
    n = 0
    m = c
    adj = h.adjacency
    while m:
        v = (m & -m).bit_length() - 1
        n |= adj[v]
        m &= m - 1
    return n


class _Search:
    def __init__(self, h, bag_masks, max_evals):
        self.h = h
        # Deterministic candidate order: large bags first, ties by mask value.
        self.bags = sorted(set(bag_masks), key=lambda m: (-popcount(m), m))
        self.bags_np = (
            np.array(self.bags, dtype=np.uint64)
            if len(self.bags) > _NUMPY_THRESHOLD and h.n_vertices <= 64
            else None
        )
        self.max_evals = max_evals
        self.evals = 0
        self.sat = {}  # block -> (X, subs, stamp)
        self.failed = set()  # blocks refuted without path-pruning involvement
        self.comp_cache = {}

    def components_of(self, x):
        comps = self.comp_cache.get(x)
        if comps is None:
            comps = tuple(self.h.vertex_components(x))
            self.comp_cache[x] = comps
        return comps

    def candidates(self, s, sc, conn):
        if self.bags_np is not None:
            notin = np.uint64(~sc & self.h.all_vertices_mask)
            must = np.uint64(conn)
            sel = ((self.bags_np & notin) == 0) & ((self.bags_np & must) == must)
            return [m for m in np.asarray(self.bags_np[sel]).tolist() if m != s]
        return [m for m in self.bags if m != s and not (m & ~sc) and not (conn & ~m)]

    def evaluate(self, block, path):
        """Return (satisfied, tainted).

        ``tainted`` marks a negative answer that involved pruning a
        block already on the recursion path; such answers are not
        cached because they may flip once the ancestor is resolved.
        """
        if block in self.sat:
            return True, False
        if block in self.failed:
            return False, False
        if block in path:
            return False, True
        self.evals += 1
        if self.evals > self.max_evals:
            raise SolverBudgetError("block search exceeded evaluation budget")
        s, c = block
        sc = s | c
        reach = _neighborhood(self.h, c)
        conn = s & reach
        path.add(block)
        tainted = False
        try:
            for x in self.candidates(s, sc, conn):
                ys = [y for y in self.components_of(x) if not y & ~c]
                cover = x
                for y in ys:
                    cover |= y
                # Conditions 1 and 2 at once: every edge meeting C lies
                # inside the cover (C itself is inside those edges).
                if reach & ~cover:
                    continue
                ok = True
                for y in ys:
                    sub_ok, sub_taint = self.evaluate((x, y), path)
                    tainted = tainted or sub_taint
                    if not sub_ok:
                        ok = False
                        break
                if ok:
                    self.sat[block] = (x, tuple((x, y) for y in ys), len(self.sat))
                    return True, False
        finally:
            path.remove(block)
        if not tainted:
            self.failed.add(block)
        return False, tainted


def solve(h, bags, max_evals=DEFAULT_MAX_EVALS):
    """Decide whether a decomposition exists with bags from ``bags``.

    Disconnected hypergraphs are solved per connected component; the
    resulting trees are stitched by attaching the later components'
    roots under the first root (which preserves all decomposition
    conditions because the bags never span components).
    """
    masks = _bag_masks(bags)
    search = _Search(h, masks, max_evals)
    root_blocks = [(0, comp) for comp in h.vertex_components(0)]
    for block in root_blocks:
        ok = False
        while True:
            before = len(search.sat)
            ok, _ = search.evaluate(block, set())
            if ok or len(search.sat) == before:
                break
            # A tainted rejection may have missed derivations that later
            # successes enable; retry until nothing new gets satisfied.
            search.failed.clear()
        if not ok:
            return SolveResult(False, None, BasisTable(search.sat))
    table = BasisTable(search.sat)
    return SolveResult(True, extract_decomposition(h, table, root_blocks), table)


def extract_decomposition(h, table, root_blocks):
    """Materialize the tree from a basis table.

    Per satisfied block the node bag is the block's basis; the
    conceptual empty root is dropped.  Multiple root blocks (from a
    disconnected hypergraph) are stitched under the first root.
    """
    bags = []
    parents = []

    def build(block, parent):
        x, subs, _ = table.entries[block]
        i = len(bags)
        bags.append(x)
        parents.append(parent)
        for sub in subs:
            build(sub, i)
        return i

    first = None
    for block in root_blocks:
        if not block[1]:
            continue
        r = build(block, -1 if first is None else first)
        if first is None:
            first = r
    if first is None:  # edgeless corner: nothing to decompose
        raise ValueError("no nonempty root blocks")
    return TreeDecomposition(h, bags, parents)


def minimum_cover(h, bag, pool_masks=None, max_size=None):
    """Smallest set of pool members whose union contains ``bag``.

    Returns a sorted tuple of pool indices (a deterministic
    minimum-cardinality cover) or None if no cover within ``max_size``
    exists.  The pool defaults to the hypergraph's edges.
    """
    pool = list(h.edge_masks) if pool_masks is None else list(pool_masks)
    useful = [(i, m) for i, m in enumerate(pool) if m & bag]
    cap = max_size if max_size is not None else len(useful)
    for size in range(1, cap + 1):
        found = _cover_search(bag, useful, size, ())
        if found is not None:
            return tuple(sorted(found))
    return None


def _cover_search(residual, useful, budget, chosen):
    if not residual:
        return chosen
    if budget == 0:
        return None
    v = 1 << ((residual & -residual).bit_length() - 1)
    for i, m in useful:
        if m & v and i not in chosen:
            found = _cover_search(residual & ~m, useful, budget - 1, chosen + (i,))
            if found is not None:
                return found
    return None


def attach_covers(td, pool_masks=None, max_size=None):
    """Attach a minimum-cardinality cover to every node of ``td``.

    Ties are broken toward lexicographically smallest index tuples by
    the search order.  Raises if some bag is not coverable.
    """
    covers = []
    for bag in td.bags:
        cover = minimum_cover(td.hypergraph, bag, pool_masks, max_size)
        if cover is None:
            raise ValueError("bag not coverable within the size limit")
        covers.append(cover)
    td.covers = covers
    return td


def td_from_text(h, text):
    """Parse the line format written by :meth:`TreeDecomposition.to_text`.

    Each line reads ``<id> <parent> {v1,v2,...} [cover{e1,...}]`` with node
    ids in order and ``-1`` marking roots.
    """
    import re

    bags = []
    parents = []
    covers = []
    saw_cover = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.fullmatch(
            r"(\d+)\s+(-?\d+)\s+\{([^}]*)\}(?:\s+cover\{([^}]*)\})?", line
        )
        if m is None:
            raise ValueError(f"bad decomposition line: {line!r}")
        if int(m.group(1)) != len(bags):
            raise ValueError(f"node ids must be consecutive from 0: {line!r}")
        names = [s.strip() for s in m.group(3).split(",") if s.strip()]
        vertex_index = {name: i for i, name in enumerate(h.vertex_names)}
        unknown = [s for s in names if s not in vertex_index]
        if unknown:
            raise ValueError(f"unknown vertex {unknown[0]!r} in line: {line!r}")
        bags.append(mask_of(vertex_index[s] for s in names))
        parents.append(int(m.group(2)))
        if m.group(4) is not None:
            saw_cover = True
            edge_index = {name: i for i, name in enumerate(h.edge_names)}
            enames = [s.strip() for s in m.group(4).split(",") if s.strip()]
            bad = [s for s in enames if s not in edge_index]
            if bad:
                raise ValueError(f"unknown edge {bad[0]!r} in line: {line!r}")
            covers.append(tuple(sorted(edge_index[s] for s in enames)))
        else:
            covers.append(())
    for i, p in enumerate(parents):
        if p >= len(bags) or p == i:
            raise ValueError(f"node {i} has invalid parent {p}")
    return TreeDecomposition(h, bags, parents, covers if saw_cover else None)
