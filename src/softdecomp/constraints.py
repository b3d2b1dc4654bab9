"""Structural constraints over decomposition subtrees and the
optimizing solver that searches for the cheapest satisfying tree.

Constraints are hereditary Boolean properties of rooted (partial)
decompositions: a tree satisfies one iff every rooted subtree does.
The optimizer runs rounds of strict-improvement replacement over a
table of blocks, so at the fixpoint each block holds a globally minimal
satisfying partial tree under the supplied cost order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations

from .bags import _cover_is_connected
from .costs import subtree_cost
from .hypergraph import ids_of
from .solver import (
    TreeDecomposition,
    _bag_masks,
    _neighborhood,
    attach_covers,
    minimum_cover,
)

COST_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# constraints


class Constraint:
    """Base class; subclasses implement ``holds(h, td, k)``."""

    def holds(self, h, td, k):
        raise NotImplementedError

    def __and__(self, other):
        return Conjunction((self, other))


class AlwaysTrue(Constraint):
    def holds(self, h, td, k):
        return True


@dataclass
class Conjunction(Constraint):
    parts: tuple

    def holds(self, h, td, k):
        return all(p.holds(h, td, k) for p in self.parts)


@dataclass
class ConnectedCover(Constraint):
    """Every bag must have a connected edge cover of size at most k."""

    _cache: dict = field(default_factory=dict, repr=False)  # (bag, k) -> verdict
    _cached_for: object = field(default=None, repr=False, compare=False)  # its hypergraph

    def holds(self, h, td, k):
        return all(self.bag_ok(h, bag, k) for bag in td.bags)

    def bag_ok(self, h, bag, k):
        if h is not self._cached_for:
            self._cache.clear()
            self._cached_for = h
        key = (bag, k)
        if key not in self._cache:
            self._cache[key] = connected_cover(h, bag, k) is not None
        return self._cache[key]


@dataclass
class ShallowCyclicity(Constraint):
    """Every node deeper than d must be coverable by a single edge."""

    d: int

    def holds(self, h, td, k):
        return cyclicity_depth(h, td) <= self.d


@dataclass
class PartitionClustering(Constraint):
    """Nodes can be grouped by edge partition into disjoint subtrees.

    ``labels`` maps every edge id to a partition name.  A tree
    satisfies the constraint when some node labelling exists such that
    each bag has a cover of at most k same-partition edges and each
    partition's nodes form one connected piece of the tree.
    """

    labels: dict

    def holds(self, h, td, k):
        return partition_assignment(h, td, self.labels, k) is not None


def connected_cover(h, bag, k, exact=False):
    """A set of at most k edges covering the bag and forming a
    connected subhypergraph, or None.  With ``exact`` the cover's
    union must equal the bag."""
    masks = h.edge_masks
    cap = k if k is not None else h.n_edges
    for size in range(1, cap + 1):
        for combo in combinations(range(h.n_edges), size):
            u = 0
            for e in combo:
                u |= masks[e]
            if bag & ~u:
                continue
            if exact and u != bag:
                continue
            if _cover_is_connected([masks[e] for e in combo]):
                return combo
    return None


def eval_concov(h, td, k):
    """Whether every bag of the tree has a connected cover of ≤ k edges."""
    return ConnectedCover().holds(h, td, k)


def cyclicity_depth(h, td):
    """Greatest depth of a node whose bag fits in no single edge (0 if
    every bag is single-edge-coverable)."""
    masks = h.edge_masks
    depths = [
        td.depth(i)
        for i, bag in enumerate(td.bags)
        if not any(not bag & ~m for m in masks)
    ]
    return max(depths, default=0)


def eval_shallowcyc(h, td, d):
    """Whether all nodes deeper than d are single-edge-coverable."""
    return cyclicity_depth(h, td) <= d


def partition_assignment(h, td, labels, k):
    """A node→partition labelling satisfying the clustering rules, or
    None.  Each node's bag needs a ≤k cover from one partition's
    edges, and each used partition must label one connected piece."""
    masks = h.edge_masks
    parts = sorted(set(labels.values()))
    by_part = {p: [e for e, q in labels.items() if q == p] for p in parts}
    feasible = []
    for bag in td.bags:
        opts = []
        for p in parts:
            pool = [masks[e] for e in by_part[p]]
            if minimum_cover(
                td.hypergraph, bag, pool_masks=pool, max_size=k
            ) is not None:
                opts.append(p)
        if not opts:
            return None
        feasible.append(opts)
    order = []
    for r in td.roots():
        order.extend(td.subtree(r))

    assignment = {}

    def rec(idx):
        if idx == len(order):
            return True
        u = order[idx]
        parent = td.parents[u]
        for p in feasible[u]:
            # a second disjoint appearance of p would break contiguity
            if p in assignment.values() and (parent < 0 or assignment[parent] != p):
                continue
            assignment[u] = p
            if rec(idx + 1):
                return True
            del assignment[u]
        return False

    return dict(assignment) if rec(0) else None


def eval_partclust(h, td, labels, k=None):
    """Whether a partition-contiguous node labelling exists."""
    return partition_assignment(h, td, labels, k) is not None


# ---------------------------------------------------------------------------
# cost keys and orders


@dataclass(frozen=True)
class CostKey:
    """Totally ordered cost: the real value snapped to the
    ``COST_TOLERANCE`` grid, then node count, then the canonical bag
    sequence as scale-free tie keys.  ``sort_key`` is that tuple."""

    cost: float
    nodes: int
    bags: tuple

    def __post_init__(self):
        grid = self.cost / COST_TOLERANCE
        snapped = round(grid) if math.isfinite(grid) else grid
        object.__setattr__(self, "sort_key", (snapped, self.nodes, self.bags))

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __le__(self, other):
        return self.sort_key <= other.sort_key

    def same_cost(self, other):
        return self.sort_key[0] == other.sort_key[0]


def _canonical_bags(td):
    return tuple(sorted(ids_of(b) for b in td.bags))


def trivial_order():
    """Order by size only; pairs with any constraint as a plain solver."""

    def key(td):
        return CostKey(0.0, len(td), _canonical_bags(td))

    key.pairs_with = (AlwaysTrue, ConnectedCover)
    return key


def cost_order(stats):
    """Order partial trees by the cardinality cost model; the
    preference-complete companion of the connected-cover constraint."""

    def key(td):
        total = sum(
            subtree_cost(_component_view(td, r), stats).total for r in td.roots()
        )
        return CostKey(total, len(td), _canonical_bags(td))

    key.pairs_with = (AlwaysTrue, ConnectedCover)
    return key


def cyclicity_order(h):
    """Order by cyclicity depth; the companion of the shallow-cyclicity
    constraint (all globally minimal trees share the least depth)."""

    def key(td):
        return CostKey(float(cyclicity_depth(h, td)), len(td), _canonical_bags(td))

    key.pairs_with = (ShallowCyclicity, AlwaysTrue)
    return key


def partition_order(labels, k, stats=None):
    """Order preferring fewer distinct partitions, then cost."""

    def key(td):
        assignment = partition_assignment(td.hypergraph, td, labels, k)
        used = len(set(assignment.values())) if assignment else len(td.bags) + 1
        cost = 0.0
        if stats is not None:
            cost = sum(
                subtree_cost(_component_view(td, r), stats).total for r in td.roots()
            )
        return CostKey(used * 1e6 + cost, len(td), _canonical_bags(td))

    key.pairs_with = (PartitionClustering, AlwaysTrue)
    return key


def _component_view(td, root):
    """The subtree rooted at ``root`` as its own decomposition."""
    nodes = td.subtree(root)
    if len(nodes) == len(td):
        return td
    index = {u: i for i, u in enumerate(nodes)}
    return TreeDecomposition(
        td.hypergraph,
        [td.bags[u] for u in nodes],
        [index.get(td.parents[u], -1) for u in nodes],
        None if td.covers is None else [td.covers[u] for u in nodes],
    )


# ---------------------------------------------------------------------------
# the optimizing solver


@dataclass
class ConstrainedResult:
    accepted: bool
    decomposition: TreeDecomposition | None
    key: CostKey | None
    table: dict


class NonConvergenceError(RuntimeError):
    """Replacement rounds failed to reach a fixpoint."""


def solve_constrained(h, bags, constraint, order, max_rounds=None):
    """Cheapest constraint-satisfying decomposition over a bag family.

    Dynamic programming over blocks: each round visits, for every block
    and candidate root bag, the tree assembled from the current best
    subtrees of its sub-blocks, and replaces the block's entry only on
    strict improvement.  At the fixpoint every entry is globally
    minimal, so with a preference-complete (constraint, order) pairing
    the answer is ACCEPT iff any satisfying tree exists.

    A tree is assembled and scored only when one of its sub-blocks has
    changed since the last assembly with the same root bag and
    sub-blocks; otherwise the stored tree and key are compared again.
    Each block's entry carries a version that counts its replacements.

    For a disconnected hypergraph the components are solved
    independently; the returned tree stitches their roots together and
    the reported key is the component-wise sum.
    """
    known = tuple(getattr(order, "pairs_with", ()))
    if not known or not isinstance(constraint, known):
        warnings.warn(
            "constraint/order pairing is not a built-in one; "
            "preference completeness is unverified",
            stacklevel=2,
        )
    masks = _bag_masks(bags)
    k = getattr(bags, "k", None)
    best = {}  # block -> (CostKey, tree)
    version = {}  # block -> number of times best[block] was set
    n_blocks = 0
    pairs = []  # (block, root bag, sub-blocks, slot), in visiting order
    slots = {}  # (root bag, sub-blocks) -> index into scored
    for s in [0, *sorted(set(masks), key=ids_of)]:
        for c in h.vertex_components(s):
            n_blocks += 1
            conn = s & _neighborhood(h, c)
            for x in masks:
                if x == s or x & ~(s | c) or conn & ~x:
                    continue
                subs = _sub_blocks(h, (s, c), x)
                if subs is not None:
                    slot = slots.setdefault((x, subs), len(slots))
                    pairs.append(((s, c), x, subs, slot))
    # per slot: (sub-block versions, tree, key or None if the constraint
    # fails) from its last assembly
    scored = [None] * len(slots)
    root_covers = {}  # root bag -> minimum cover, filled on first assembly
    cap = max_rounds if max_rounds is not None else 2 * n_blocks + 4
    for _ in range(cap):
        changed = False
        for block, x, subs, slot in pairs:
            if any(sb not in best for sb in subs):
                continue
            stamp = tuple(version[sb] for sb in subs)
            if scored[slot] is None or scored[slot][0] != stamp:
                tree = _assemble(h, x, [best[sb][1] for sb in subs], k, root_covers)
                key = order(tree) if constraint.holds(h, tree, k) else None
                scored[slot] = (stamp, tree, key)
            _, tree, key = scored[slot]
            if key is not None and (block not in best or key < best[block][0]):
                best[block] = (key, tree)
                version[block] = version.get(block, 0) + 1
                changed = True
        if not changed:
            break
    else:
        raise NonConvergenceError("replacement did not reach a fixpoint")

    root_blocks = [(0, c) for c in h.vertex_components(0)]
    if any(rb not in best for rb in root_blocks):
        return ConstrainedResult(False, None, None, best)
    parts = [best[rb] for rb in root_blocks]
    total = CostKey(
        sum(p[0].cost for p in parts),
        sum(p[0].nodes for p in parts),
        tuple(sorted(b for p in parts for b in p[0].bags)),
    )
    return ConstrainedResult(True, _stitch(h, [p[1] for p in parts], k), total, best)


def _sub_blocks(h, block, x):
    """The blocks below root bag x of a block, or None if x cannot
    head it (coverage of the component or its incident edges fails)."""
    s, c = block
    ys = [y for y in h.vertex_components(x) if not y & ~c]
    cover = x
    for y in ys:
        cover |= y
    if c & ~cover:
        return None
    if any(e & c and e & ~cover for e in h.edge_masks):
        return None
    return tuple((x, y) for y in ys)


def _assemble(h, root_bag, subtrees, k, root_covers):
    """The tree with ``root_bag`` over ``subtrees``; ``root_covers``
    caches each root bag's minimum cover across calls."""
    if root_bag not in root_covers:
        root_covers[root_bag] = minimum_cover(h, root_bag, max_size=k)
    bags = [root_bag]
    parents = [-1]
    covers = [root_covers[root_bag]]
    if covers[0] is None:
        raise ValueError("root bag not coverable within the width limit")
    for sub in subtrees:
        off = len(bags)
        for u in range(len(sub)):
            bags.append(sub.bags[u])
            parents.append(sub.parents[u] + off if sub.parents[u] >= 0 else 0)
            covers.append(sub.covers[u])
    return TreeDecomposition(h, bags, parents, covers)


def _stitch(h, trees, k):
    if len(trees) == 1:
        return trees[0]
    bags, parents, covers = [], [], []
    for t in trees:
        off = len(bags)
        for u in range(len(t)):
            bags.append(t.bags[u])
            parents.append(
                t.parents[u] + off if t.parents[u] >= 0 else (-1 if off == 0 else 0)
            )
            covers.append(t.covers[u])
    return TreeDecomposition(h, bags, parents, covers)


# ---------------------------------------------------------------------------
# top-n enumeration


@dataclass
class TopNResult:
    decompositions: list
    keys: list
    truncated: bool


def enumerate_top_n(h, bags, constraint, order, n, max_trees=20_000, max_steps=2_000_000):
    """Up to n cheapest distinct satisfying decompositions, ascending.

    Exhausts the tree space below a configurable budget; when the
    budget interrupts enumeration the (possibly shorter) result is
    flagged as truncated.  Distinctness is up to isomorphism of the
    rooted bag-trees under canonical child ordering.
    """
    from .oracles import OracleBudgetError, enumerate_all_ctds

    masks = _bag_masks(bags)
    k = getattr(bags, "k", None)
    truncated = False
    try:
        trees = enumerate_all_ctds(h, masks, max_trees=max_trees, max_steps=max_steps)
    except OracleBudgetError:
        # budget interrupted the exhaustive sweep: fall back to the
        # single globally minimal tree and flag the truncation
        head = solve_constrained(h, bags, constraint, order)
        if not head.accepted:
            return TopNResult([], [], True)
        return TopNResult([head.decomposition], [head.key], True)
    scored = []
    seen = set()
    for td in trees:
        attach_covers(td, max_size=k)
        if not constraint.holds(h, td, k):
            continue
        canon = _canonical_tree(td)
        if canon in seen:
            continue
        seen.add(canon)
        scored.append((order(td), td))
    scored.sort(key=lambda pair: pair[0].sort_key)
    top = scored[:n]
    return TopNResult([td for _, td in top], [key for key, _ in top], truncated)


def _canonical_tree(td):
    def canon(u):
        return (td.bags[u], tuple(sorted(canon(c) for c in td.children(u))))

    return tuple(sorted(canon(r) for r in td.roots()))
