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

The filter runs on a per-vertex bitset index over the sorted bags,
built by ``bags.candidate_index`` (in numpy for large bag sets): bit
``i`` of an index set stands for the ``i``-th candidate.  Per vertex
``v`` the search holds the bags that contain ``v``, the bags that do
not, and the bags whose failed components miss ``v``; the last is
updated wherever a failed block is recorded.  The candidates of
``(S, C)`` are the AND of the first over ``S ∩ N(C)``, the second over
the vertices outside ``S ∪ C`` and the third over ``C``, without ``S``
itself.  That is O(n) big-int operations per block, whatever the number
of bags, and each filter loop stops once the set is empty.  The
surviving bits are read in index order, a byte at a time.

The search keeps one table per head: for a bag ``X``, its index in the
candidate order and its [X]-components ``Y``, by smallest vertex, each
with ``N(Y)``, all from one walk of the hypergraph
(``Hypergraph.component_neighborhoods``).  A block ``(X, Y)`` reads
``N(Y)`` and the index of ``X`` from the table its parent filled, so
deciding a block walks no edges, and ``S`` is dropped from the
candidates by clearing its bit before the filter.  In a long reject
most blocks fail at once: in the benchmark gallery's rejects (H3 and
H3prime at k=2, levels 0 and 1) every non-root block's only candidate
is its own head, so once that bit is cleared the filter empties after
a few ANDs and the block fails without reading a byte of the set.

A long reject ends on a certificate, the balanced-separator lemma of
BalancedGo (Gottlob, Okulmus and Pichler, IJCAI 2020) and log-k-decomp
(Gottlob, Lanzinger, Okulmus and Pichler, PODS 2022).  Call an
[X]-component *heavy* when it meets more than half of the ``m`` edges
meeting a connected component ``C0``, and a bag *balanced* when it has
none.  Every tree whose bags hold each of those edges, as a tree found
for ``(∅, C0)`` does, has a balanced node.  Point each other node at
the neighbour on whose side lie the nodes whose bags meet its heavy
component ``Y``: ``Y`` is connected and misses the bag, and it is the
only one, as no edge meets two components.  Neighbours ``t`` and ``u``
cannot point at each other: a bag holding an edge that meets both
heavy components would lie on both sides, so they meet disjoint sets
of more than ``m / 2`` edges each.  A walk along the pointers thus
never turns back and stops at a balanced node.  So a root block not
known to have a basis, on up to 64 vertices, fails at once if no
candidate inside ``C0`` is balanced (``bags._any_balanced``), a check
made at most once per root block, once it has tried ``_check_after(n)``
candidates out of ``n`` bags.

When to check is a ski-rental choice: walking on costs about ``w`` per
root candidate, the check about ``a + b * n``, so it runs once the walk
has cost as much as the check would, after ``F + n // R`` tries with
``F = a / w`` and ``R = w / b``.  On the gallery's rejects (H3 and
H3prime at k=2, 2,864 to 7,217 bags) a root candidate costs
``w`` = 6.7 µs, and the check ``a`` = 0.155 ms plus ``b`` = 0.11 µs per
bag (fit over 2,864 to 62,045 bags; best of 21-31, raw CPU, Xeon VM,
CPython 3.11, numpy 2.4), so ``_CHECK_FIXED`` = 23 and
``_CHECK_RATIO`` = 61.  The worst case is an accept that reaches the
trigger: it pays the check after walking about as long as the check
takes, so at most about twice its walk.  None does on the measured
inputs: the gallery's accepts try at most 129 root candidates (H3prime
at level 1, k=3, whose 62,045 bags trigger at 1,040), random 16-vertex
accepts at most 12 and the bundled SQL queries at most 3.  The
gallery's three rejects have no balanced bag and end after 70, 71 and
142 evaluations, where a fixed trigger after 512 tries took 513.

The search is acyclic: a sub-block ``(X, Y)`` of ``(S, C)`` has
``Y ⊊ C``, or ``Y = C`` and ``X ⊊ S``, so ``(|C|, |S|)`` falls
lexicographically at every step.  Each block is therefore decided once,
and its answer is final.  Candidates are tried largest first, ties by
mask value, so the basis found, and the tree, does not depend on the
order in which the bags are given.

``_Search.evaluate`` walks a block's candidates (``_Search.candidates``)
up to the first whose sub-blocks all have a basis, and records each
failed sub-block with ``_Search.fail``.  The constrained optimizer
walks the same candidates in the same order, once per block it
reaches and in full, and decides the sub-blocks by its own entries,
not by ``evaluate``.  It records a sub-block with no satisfying tree
with ``_Search.fail`` too, and keeps the first of equal keys, so its
tree does not depend on the bag order either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bags import _any_balanced, candidate_index
from .hypergraph import Hypergraph, ids_of, mask_of

DEFAULT_MAX_EVALS = 5_000_000

# The balanced-bag check's trigger (module docstring): its fixed cost over
# the walk's cost per root candidate, and the walk's cost per root
# candidate over its cost per bag.
_CHECK_FIXED = 23
_CHECK_RATIO = 61

# Byte tables for reading the bitset index: _NONZERO maps every nonzero
# byte to 1, and _BYTE_BITS[x] lists the bits set in byte x.
_NONZERO = bytes([0] + [1] * 255)
_BYTE_BITS = tuple(ids_of(x) for x in range(256))


def _check_after(n_bags):
    """Root candidates a root block tries before the balanced-bag check,
    over ``n_bags`` candidate bags: the break-even of the module docstring."""
    return _CHECK_FIXED + n_bags // _CHECK_RATIO


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
    check_decided: int = 0  # root blocks the balanced-bag check failed


class _Search:
    def __init__(self, h, bag_masks, max_evals):
        self.h = h
        # Candidate order: large bags first, ties by mask value.  Bit i
        # of every index set below stands for bags[i]; bag_arr holds the
        # bags as a uint64 array, or None above 64 vertices.
        self.bags, self.has, self.bag_arr = candidate_index(h.n_vertices, bag_masks)
        self.every = every = (1 << len(self.bags)) - 1
        self.lacks = [every ^ has for has in self.has]
        # dead[i]: union of the components Y of bags[i] whose block
        # (bags[i], Y) has no basis; live[v]: the bags i with v not in
        # dead[i].
        self.dead = [0] * len(self.bags)
        self.live = [every] * h.n_vertices
        self.max_evals = max_evals
        self.evals = 0
        self.check_decided = 0
        self.sat = {}  # block -> (X, subs)
        # heads[x]: (index of x in bags, {Y: N(Y)} over the [x]-components
        # Y by smallest vertex); the root head, the empty set, has index -1.
        self.heads = {0: (-1, dict(h.component_neighborhoods(0)))}

    def components_of(self, i):
        """``{Y: N(Y)}`` over the components ``Y`` of ``bags[i]``, filled
        on first use."""
        x = self.bags[i]
        entry = self.heads.get(x)
        if entry is None:
            entry = self.heads[x] = (i, dict(self.h.component_neighborhoods(x)))
        return entry[1]

    def checked(self, candidates, c):
        """``candidates`` of the root block of the component ``c``, cut
        off after ``_check_after`` tries when no bag inside ``c`` is
        balanced (module docstring)."""
        trigger = _check_after(len(self.bags))
        for tried, candidate in enumerate(candidates):
            if tried == trigger and not _any_balanced(self.h, self.bag_arr, c):
                self.check_decided += 1
                return
            yield candidate

    def candidates(self, head, c, conn):
        """Yield ``(index, mask)`` of the bags X other than the head
        ``bags[head]`` (-1: the root, whose head is empty) with X inside
        ``bags[head] | c``, ``conn`` inside X, and no failed sub-block
        (X, Y) with Y inside c, in candidate order."""
        sel = self.every
        s = 0
        if head >= 0:
            sel ^= 1 << head
            s = self.bags[head]
        has, lacks, live = self.has, self.lacks, self.live
        while conn and sel:
            sel &= has[(conn & -conn).bit_length() - 1]
            conn &= conn - 1
        vs = self.h.all_vertices_mask & ~(s | c)
        while vs and sel:
            sel &= lacks[(vs & -vs).bit_length() - 1]
            vs &= vs - 1
        vs = c
        while vs and sel:
            sel &= live[(vs & -vs).bit_length() - 1]
            vs &= vs - 1
        if not sel:
            return
        bags = self.bags
        raw = sel.to_bytes((sel.bit_length() + 7) // 8, "little")
        marks = raw.translate(_NONZERO)
        j = marks.find(1)
        while j >= 0:
            for i in _BYTE_BITS[raw[j]]:
                i += 8 * j
                yield i, bags[i]
            j = marks.find(1, j + 1)

    def fail(self, i, y):
        """Record that the block ``(bags[i], y)`` failed: drop ``bags[i]``
        from every block whose component meets ``y``."""
        self.dead[i] |= y
        live = self.live
        drop = ~(1 << i)
        while y:
            live[(y & -y).bit_length() - 1] &= drop
            y &= y - 1

    def tick(self):
        """Count one decided block against the budget."""
        self.evals += 1
        if self.evals > self.max_evals:
            raise SolverBudgetError("block search exceeded evaluation budget")

    def evaluate(self, block):
        """Whether ``block`` has a basis; records the first in ``sat``
        and marks failed sub-blocks on the way."""
        if block in self.sat:
            return True
        self.tick()
        s, c = block
        head, comps = self.heads[s]  # filled by the block's parent
        dead = self.dead
        candidates = self.candidates(head, c, s & comps[c])
        if head < 0 and self.bag_arr is not None:
            candidates = self.checked(candidates, c)
        for i, x in candidates:
            # A sub-block of x may have failed since the index was read.
            if dead[i] & c:
                continue
            # Every component of x that meets c lies inside c.
            ys = [y for y in self.components_of(i) if y & c]
            for y in ys:
                if not self.evaluate((x, y)):
                    self.fail(i, y)
                    break
            else:
                self.sat[block] = (x, tuple((x, y) for y in ys))
                return True
        return False


def solve(h, bags, max_evals=DEFAULT_MAX_EVALS):
    """Decide whether a decomposition exists with bags from ``bags``.

    Disconnected hypergraphs are solved per connected component, and
    the decomposition has one root per component.
    """
    search = _Search(h, bags, max_evals)
    root_blocks = [(0, comp) for comp in h.vertex_components(0)]
    table = BasisTable(search.sat)
    for block in root_blocks:
        if not search.evaluate(block):
            return SolveResult(False, None, table, search.evals, search.check_decided)
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
    vertex_index = {name: i for i, name in enumerate(h.vertex_names)}
    edge_index = {name: i for i, name in enumerate(h.edge_names)}
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
        unknown = [s for s in names if s not in vertex_index]
        if unknown:
            raise ValueError(f"unknown vertex {unknown[0]!r} in line: {line!r}")
        bags.append(mask_of(vertex_index[s] for s in names))
        parents.append(int(m.group(2)))
        if m.group(4) is not None:
            saw_cover = True
            enames = [s.strip() for s in m.group(4).split(",") if s.strip()]
            bad = [s for s in enames if s not in edge_index]
            if bad:
                raise ValueError(f"unknown edge {bad[0]!r} in line: {line!r}")
            covers.append(tuple(sorted(edge_index[s] for s in enames)))
        else:
            covers.append(())
    check_parents(parents)
    return TreeDecomposition(h, bags, parents, covers if saw_cover else None)


def check_parents(parents):
    """Raise ``ValueError`` unless every parent is -1 or a node index
    and following parents from any node reaches a root."""
    for i, p in enumerate(parents):
        if not -1 <= p < len(parents):
            raise ValueError(f"node {i} has invalid parent {p}")
    for i in range(len(parents)):
        seen = set()
        while i >= 0:
            if i in seen:
                raise ValueError(f"parent cycle through node {i}")
            seen.add(i)
            i = parents[i]
