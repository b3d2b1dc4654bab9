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

Only candidates ``X != S`` with ``X ⊆ S ∪ C`` and ``S ∩ N(C) ⊆ X`` are
tried, where ``N(C)`` is the union of the edges meeting ``C``.  Under
that filter a path that avoids ``X`` cannot leave ``C``: its first
vertex outside ``C`` would lie in ``S ∩ N(C) ⊆ X``.  So every [X]-component
meeting ``C`` lies inside ``C``, conditions 1 and 2 always hold, and
``X`` is a basis exactly when no block ``(X, Y)`` with ``Y`` inside
``C`` fails.  The search keeps, per candidate, the union of the
components ``Y`` whose block ``(X, Y)`` failed, and drops ``X`` at once
when that union meets ``C``.

The search is acyclic: a sub-block ``(X, Y)`` of ``(S, C)`` has
``Y ⊊ C``, or ``Y = C`` and ``X ⊊ S``, so ``(|C|, |S|)`` falls
lexicographically at every step.  Each block is therefore decided once,
and its answer is final.  Candidates are tried largest first, ties by
mask value, so the basis found, and the tree, does not depend on the
order in which the bags are given.  ``_Search.bases`` yields every
basis of a block in that order; ``solve`` takes the first, and the
constrained optimizer keeps, among bases whose trees have equal cost
keys, the first one, so its tree does not depend on the bag order
either.
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

    ``entries`` maps ``(S, C)`` to ``(X, sub_blocks)``, the first basis
    found.  It holds the blocks the search found satisfied on its way,
    not every block that has a basis: a candidate with a known failed
    sub-block is dropped before its other sub-blocks are tried.
    """

    entries: dict


@dataclass
class TreeDecomposition:
    """A forest of bags; ``parents[i]`` is -1 for roots.

    A decomposition of a disconnected hypergraph has one root per
    connected component.
    """

    hypergraph: Hypergraph
    bags: list  # vertex masks
    parents: list
    covers: list | None = None  # per node: tuple of edge ids, or None
    _children: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_nodes(cls, h, nodes):
        """The forest of nested ``(bag, cover, children)`` nodes.

        Every node in ``nodes`` becomes a root, and nodes are numbered
        in preorder.  ``covers`` is None when no node carries a cover.
        """
        bags, parents, covers = [], [], []

        def emit(node, parent):
            bag, cover, children = node
            i = len(bags)
            bags.append(bag)
            parents.append(parent)
            covers.append(cover)
            for child in children:
                emit(child, i)

        for node in nodes:
            emit(node, -1)
        if all(c is None for c in covers):
            covers = None
        return cls(h, bags, parents, covers)

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
    evals: int  # blocks the search decided


def _bag_masks(bags):
    if hasattr(bags, "bags"):
        return list(bags.bags)
    return list(bags)


class _Search:
    def __init__(self, h, bag_masks, max_evals):
        self.h = h
        # Candidate order: large bags first, ties by mask value.
        if len(bag_masks) > _NUMPY_THRESHOLD and h.n_vertices <= 64:
            arr = np.unique(np.array(bag_masks, dtype=np.uint64))
            arr = arr[np.lexsort((arr, -np.bitwise_count(arr).astype(np.int64)))]
            self.bags_np = arr
            self.bags_np_not = ~arr
            self.bags = arr.tolist()
            self.dead = np.zeros(len(arr), dtype=np.uint64)
        else:
            self.bags_np = None
            self.bags = sorted(set(bag_masks), key=lambda m: (-popcount(m), m))
            self.dead = [0] * len(self.bags)
        # dead[i]: union of the components Y of bags[i] whose block
        # (bags[i], Y) has no basis.
        self.max_evals = max_evals
        self.evals = 0
        self.sat = {}  # block -> (X, subs)
        self.comp_cache = {}

    def components_of(self, x):
        comps = self.comp_cache.get(x)
        if comps is None:
            comps = tuple(self.h.vertex_components(x))
            self.comp_cache[x] = comps
        return comps

    def candidates(self, s, c, conn):
        """``(index, mask)`` of the bags X != s with X inside s | c,
        ``conn`` inside X, and no failed sub-block (X, Y) with Y inside c."""
        dead = self.dead
        outside = ~(s | c)
        if self.bags_np is not None:
            b = self.bags_np
            # One zero test for all three conditions.
            bad = (
                (b & np.uint64(outside & self.h.all_vertices_mask))
                | (self.bags_np_not & np.uint64(conn))
                | (dead & np.uint64(c))
            )
            idx = (bad == 0).nonzero()[0]
            return [(i, m) for i, m in zip(idx.tolist(), b[idx].tolist()) if m != s]
        return [
            (i, m) for i, m in enumerate(self.bags)
            if m != s and not (m & outside) and not (conn & ~m) and not (dead[i] & c)
        ]

    def bases(self, block):
        """Yield ``(X, sub_blocks)`` for each basis of ``block``, in
        candidate order, marking failed sub-blocks in ``dead`` on the way."""
        s, c = block
        dead = self.dead
        for i, x in self.candidates(s, c, s & self.h.neighborhood(c)):
            # A sub-block of x may have failed since the list was made.
            if dead[i] & c:
                continue
            # Every component of x that meets c lies inside c.
            ys = [y for y in self.components_of(x) if y & c]
            for y in ys:
                if not self.evaluate((x, y)):
                    dead[i] |= y
                    break
            else:
                yield x, tuple((x, y) for y in ys)

    def evaluate(self, block):
        """Whether ``block`` has a basis; records the first in ``sat``."""
        if block in self.sat:
            return True
        self.evals += 1
        if self.evals > self.max_evals:
            raise SolverBudgetError("block search exceeded evaluation budget")
        for x, subs in self.bases(block):
            self.sat[block] = (x, subs)
            return True
        return False


def solve(h, bags, max_evals=DEFAULT_MAX_EVALS):
    """Decide whether a decomposition exists with bags from ``bags``.

    Disconnected hypergraphs are solved per connected component, and
    the decomposition has one root per component.
    """
    search = _Search(h, _bag_masks(bags), max_evals)
    root_blocks = [(0, comp) for comp in h.vertex_components(0)]
    table = BasisTable(search.sat)
    for block in root_blocks:
        if not search.evaluate(block):
            return SolveResult(False, None, table, search.evals)
    return SolveResult(True, extract_decomposition(h, table, root_blocks), table, search.evals)


def extract_decomposition(h, table, root_blocks):
    """Materialize the decomposition from a basis table.

    Per satisfied block the node bag is the block's basis; the
    conceptual empty root is dropped, so each nonempty root block
    gives one root.
    """

    def node(block):
        x, subs = table.entries[block]
        return (x, None, tuple(node(sub) for sub in subs))

    roots = [node(block) for block in root_blocks if block[1]]
    if not roots:  # edgeless corner: nothing to decompose
        raise ValueError("no nonempty root blocks")
    return TreeDecomposition.from_nodes(h, roots)


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
    ids in order and ``-1`` marking roots.  A parent may come after its
    child; a parent cycle is an error.
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
        if not -1 <= p < len(bags):
            raise ValueError(f"node {i} has invalid parent {p}")
    for i in range(len(parents)):
        seen = set()
        while i >= 0:
            if i in seen:
                raise ValueError(f"parent cycle through node {i}")
            seen.add(i)
            i = parents[i]
    return TreeDecomposition(h, bags, parents, covers if saw_cover else None)
