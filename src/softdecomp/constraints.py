"""Structural constraints over decomposition subtrees and the
optimizing solver that searches for the cheapest satisfying tree.

Constraints are hereditary Boolean properties of rooted (partial)
decompositions: a tree satisfies one iff every rooted subtree does.
The optimizer is one pass of dynamic programming over the block search
of :mod:`softdecomp.solver`: each block reached from the root keeps
the cheapest satisfying tree among those built from its bases and the
kept trees of their sub-blocks.  The block graph is acyclic, so every
kept tree is final once made.

The DP walks each block's candidates once, with the block search's
filter and order (``_Search.candidates``).  For a candidate ``X`` with
components ``Y_1..Y_m`` inside the block it first looks up the pair
``(X, Y_1, ..., Y_m)`` in a memo of scored pairs; only on a miss does
it take the entries of the sub-blocks ``(X, Y_i)``, deciding each by
this DP, not by the plain search.  A sub-block without an entry has
no satisfying tree, and as constraints are hereditary no tree above
it satisfies either: it is marked failed as a failed block of the
plain search is (``_Search.fail``), so ``X`` is not offered again to
any block whose component meets ``Y_i``.

The optimizer never builds the trees it compares.  Every constraint
and order exposes a *step* that judges or keys a subtree from its root
node and a small state per child subtree, in O(children):

- ``Constraint.step(h, k, node, kids)`` returns the subtree's state,
  or None when the subtree fails;
- ``order.step(node, kids)``, with ``kids`` the children's
  ``(CostKey, state)`` pairs, returns the subtree's ``(CostKey,
  state)``.

A node is the nested ``(bag, cover, children)`` form of a subtree.
The steps carry what their whole-tree forms read: the cost
recursion's :class:`~softdecomp.costs.CostSummary`, the deepest
depth of a bag no single edge covers, the ``(root label, labels
used)`` pairs of a subtree's valid partition labellings, node counts
and canonical bag tuples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import NamedTuple

from .costs import bag_terms, combine, subtree_cost
from .hypergraph import cover_is_connected, ids_of
from .solver import (
    DEFAULT_MAX_EVALS,
    TreeDecomposition,
    _Search,
    attach_covers,
    minimum_cover,
)

COST_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# constraints


class Constraint:
    """Base class; subclasses implement ``holds(h, td, k)`` and
    ``step(h, k, node, kids)``.

    ``step`` judges the subtree ``node`` from its children's states
    ``kids`` (in child order) and returns its own state, or None when
    it fails; it must agree with ``holds`` on the subtree.
    """

    def holds(self, h, td, k):
        raise NotImplementedError

    def __and__(self, other):
        return Conjunction((self, other))


class AlwaysTrue(Constraint):
    def holds(self, h, td, k):
        return True

    def step(self, h, k, node, kids):
        return True


@dataclass
class Conjunction(Constraint):
    """All parts hold; the step's state is the tuple of the parts'."""

    parts: tuple

    def holds(self, h, td, k):
        return all(p.holds(h, td, k) for p in self.parts)

    def step(self, h, k, node, kids):
        states = []
        for i, part in enumerate(self.parts):
            state = part.step(h, k, node, [kid[i] for kid in kids])
            if state is None:
                return None
            states.append(state)
        return tuple(states)


@dataclass
class ConnectedCover(Constraint):
    """Every bag must have a connected edge cover of size at most k."""

    _cache: dict = field(default_factory=dict, repr=False)  # (bag, k) -> verdict
    _cached_for: object = field(default=None, repr=False, compare=False)  # its hypergraph

    def holds(self, h, td, k):
        return all(self.bag_ok(h, bag, k) for bag in td.bags)

    def step(self, h, k, node, kids):
        # The children's bags passed when their subtrees were made.
        return True if self.bag_ok(h, node[0], k) else None

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

    def step(self, h, k, node, kids):
        depth = _bad_depth(h, node[0], kids)
        return depth if max(depth, 0) <= self.d else None


@dataclass
class PartitionClustering(Constraint):
    """Nodes can be grouped by edge partition into disjoint subtrees.

    ``labels`` maps every edge id to a partition name.  A tree
    satisfies the constraint when some node labelling exists such that
    each bag has a cover of at most k same-partition edges and each
    partition's nodes form one connected piece of the tree (of the
    whole forest, on a disconnected input).  The step's state is the
    set of ``(root label, labels used)`` pairs of the subtree's valid
    labellings (see :func:`_label_pairs`).
    """

    labels: dict
    _covering: dict = field(default_factory=dict, repr=False)  # (bag, k) -> labels covering it
    _cached_for: object = field(default=None, repr=False, compare=False)  # its hypergraph

    def holds(self, h, td, k):
        return partitions_used(h, td, self.labels, k) is not None

    def step(self, h, k, node, kids):
        if h is not self._cached_for:
            self._covering.clear()
            self._cached_for = h
        return _label_pairs(h, k, self.labels, node[0], kids, self._covering) or None


def connected_cover(h, bag, k):
    """A set of at most k edges covering the bag and forming a
    connected subhypergraph, or None."""
    masks = h.edge_masks
    cap = k if k is not None else h.n_edges
    for size in range(1, cap + 1):
        for combo in combinations(range(h.n_edges), size):
            u = 0
            for e in combo:
                u |= masks[e]
            if not bag & ~u and cover_is_connected([masks[e] for e in combo]):
                return combo
    return None


def cyclicity_depth(h, td):
    """Greatest depth of a node whose bag fits in no single edge (0 if
    every bag is single-edge-coverable)."""
    return max(_depth_state(h, td), 0)


def _depth_state(h, td):
    """Greatest depth of a node whose bag fits in no single edge, or -1
    if there is none: the state :func:`_bad_depth` carries."""
    masks = h.edge_masks
    bad = [i for i, bag in enumerate(td.bags) if all(bag & ~m for m in masks)]
    return max(map(td.depth, bad), default=-1)


def _bad_depth(h, bag, kids):
    """Depth below ``bag`` of the deepest bag no single edge covers, or
    -1 if there is none, from the same numbers of the child subtrees."""
    depth = max(kids, default=-1)
    if depth >= 0:
        return depth + 1
    return 0 if all(bag & ~m for m in h.edge_masks) else -1


def _label_pairs(h, k, labels, bag, kids, covering):
    """The ``(root label, labels used)`` pairs of the valid labellings
    of a subtree with root ``bag``, from its children's pair sets
    ``kids``; empty when there is none.

    The root takes any label ``p`` whose edges cover ``bag`` within
    ``k`` edges, and one pair from each child (:func:`_merge_used`).
    ``covering`` caches those labels per ``(bag, k)`` for ``h``.
    """
    if (bag, k) not in covering:
        covering[bag, k] = [
            p for p in sorted(set(labels.values()))
            if minimum_cover(
                h, bag, [m if labels.get(e) == p else 0 for e, m in enumerate(h.edge_masks)], k
            ) is not None
        ]
    pairs = set()
    for p in covering[bag, k]:
        pairs.update((p, used) for used in _merge_used(p, kids))
    return frozenset(pairs)


def _merge_used(p, kids):
    """The label sets used by a node labelled ``p`` over one pair from
    each of ``kids``, or by a forest over its roots' pairs when ``p`` is
    None.  A combination is dropped when a child whose root label is
    not ``p`` uses ``p``, or when two children use the same label other
    than ``p``: either would split that label's nodes."""
    acc = {frozenset() if p is None else frozenset([p])}
    for pairs in kids:
        acc = {
            used | u
            for used in acc
            for q, u in pairs
            if not (q != p and p in u) and not (used & u) - {p}
        }
    return acc


def partitions_used(h, td, labels, k):
    """The fewest partitions a valid labelling of ``td`` uses (see
    :class:`PartitionClustering`), or None when there is none: the
    fold of :func:`_label_pairs` over the tree, deepest first, with its
    roots merged as a forest."""
    pairs = [None] * len(td)
    covering = {}
    for u in sorted(range(len(td)), key=td.depth, reverse=True):
        kids = [pairs[c] for c in td.children(u)]
        pairs[u] = _label_pairs(h, k, labels, td.bags[u], kids, covering)
    return min(map(len, _merge_used(None, [pairs[r] for r in td.roots()])), default=None)


# ---------------------------------------------------------------------------
# cost keys and orders


@dataclass(frozen=True)
class CostKey:
    """Totally ordered cost: the real value snapped to the
    ``COST_TOLERANCE`` grid, then node count, then the canonical bag
    sequence as scale-free tie keys.  ``sort_key`` is that tuple.  A
    ``rank``, when given, leads it and outweighs any cost; the keys of
    one order either all carry a rank or none does."""

    cost: float
    nodes: int
    bags: tuple
    rank: int | None = None

    def __post_init__(self):
        grid = self.cost / COST_TOLERANCE
        snapped = round(grid) if math.isfinite(grid) else grid
        tail = (snapped, self.nodes, self.bags)
        object.__setattr__(self, "sort_key", tail if self.rank is None else (self.rank, *tail))

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __le__(self, other):
        return self.sort_key <= other.sort_key


def _canonical_bags(td):
    return tuple(sorted(ids_of(b) for b in td.bags))


def _compose(cost, ids, kids):
    """The key of the subtree whose root bag holds the vertices ``ids``
    over the child keys ``kids``: node count and canonical bags merged
    from the children's."""
    nodes = 1
    bags = [ids]
    for key in kids:
        nodes += key.nodes
        bags.extend(key.bags)
    bags.sort()
    return CostKey(cost, nodes, tuple(bags))


def trivial_order():
    """Order by size only; pairs with any constraint as a plain solver.
    Its step carries no state."""

    def key(td):
        return CostKey(0.0, len(td), _canonical_bags(td))

    def step(node, kids):
        return _compose(0.0, ids_of(node[0]), [key for key, _ in kids]), None

    key.step = step
    key.pairs_with = (AlwaysTrue, ConnectedCover)
    return key


def cost_order(stats):
    """Order partial trees by the cardinality cost model; the
    preference-complete companion of the connected-cover constraint.
    Its step's state is the subtree's :class:`~softdecomp.costs.CostSummary`.
    The step computes each node's bag terms and vertex ids once per
    ``(bag, cover)``, for the life of this order."""
    local = {}  # (bag, cover) -> (BagTerms, ids_of(bag))

    def key(td):
        return CostKey(subtree_cost(td, stats).total, len(td), _canonical_bags(td))

    def step(node, kids):
        bag, cover, _ = node
        got = local.get((bag, cover))
        if got is None:
            got = local[(bag, cover)] = bag_terms(bag, cover, stats), ids_of(bag)
        summary = combine(bag, got[0], [state for _, state in kids])[0]
        return _compose(summary.total, got[1], [key for key, _ in kids]), summary

    key.step = step
    key.pairs_with = (AlwaysTrue, ConnectedCover)
    return key


def cyclicity_order(h):
    """Order by cyclicity depth; the companion of the shallow-cyclicity
    constraint.  Its step's state is the depth of the deepest bag no
    single edge covers, or -1 when every bag fits one edge.  The key's
    rank is that state plus one: a parent's state only grows with its
    children's, so keeping each block's least state gives the least
    depth."""

    def key(td):
        depth = _depth_state(h, td)
        return CostKey(float(max(depth, 0)), len(td), _canonical_bags(td), rank=depth + 1)

    def step(node, kids):
        depth = _bad_depth(h, node[0], [state for _, state in kids])
        plain = _compose(float(max(depth, 0)), ids_of(node[0]), [key for key, _ in kids])
        return replace(plain, rank=depth + 1), depth

    key.step = step
    key.pairs_with = (ShallowCyclicity, AlwaysTrue)
    return key


def partition_order(h, labels, k, stats=None):
    """Order preferring fewer distinct partitions, then cost: the key's
    rank is the fewest partitions a valid labelling uses (the node
    count plus one when there is none), and its cost is the tree's
    cost under ``stats`` (0 without), as in :func:`cost_order`.  Its
    step's state is the cost step's state and the subtree's label
    pairs (see :func:`_label_pairs`)."""
    base = trivial_order() if stats is None else cost_order(stats)
    covering = {}

    def key(td):
        used = partitions_used(h, td, labels, k)
        return replace(base(td), rank=len(td) + 1 if used is None else used)

    def step(node, kids):
        plain, state = base.step(node, [(kid, s) for kid, (s, _) in kids])
        pairs = _label_pairs(h, k, labels, node[0], [p for _, (_, p) in kids], covering)
        rank = min((len(u) for _, u in pairs), default=plain.nodes + 1)
        return replace(plain, rank=rank), (state, pairs)

    key.step = step
    key.pairs_with = (PartitionClustering, AlwaysTrue)
    return key


# ---------------------------------------------------------------------------
# the optimizing solver


class Entry(NamedTuple):
    """A block's cheapest satisfying subtree: its key, its nested
    ``(bag, cover, children)`` node, and the constraint's and the
    order's step states for it."""

    key: CostKey
    node: tuple
    holds_state: object
    order_state: object


@dataclass
class ConstrainedResult:
    accepted: bool
    decomposition: TreeDecomposition | None
    key: CostKey | None
    # block -> Entry, for the blocks reached from the root blocks that
    # have a satisfying tree
    table: dict
    evals: int  # blocks decided, by the root pre-pass or the DP, each once
    pairs: int  # distinct (root bag, sub-blocks) pairs scored


def solve_constrained(h, bags, constraint, order):
    """Cheapest constraint-satisfying decomposition over a bag family.

    Dynamic programming over the blocks of the plain block search,
    memoized from the root blocks down.  A block's entry is the least
    key under ``order`` of the trees built from its candidates ``X``
    and their sub-blocks ``(X, Y)``: the root bag ``X`` over the
    entries of the sub-blocks.  Each block's candidates are walked
    once (module docstring).  A candidate is skipped when a sub-block
    has no entry, which marks it failed, or when the tree fails the
    constraint.  Keys compare with a strict ``<``, so among equal keys
    the first candidate in the search's order wins, whatever the order
    of ``bags``.  The block graph is acyclic, so one pass suffices.

    Each pair ``(X, Y_1, ..., Y_m)`` is judged and keyed once, by the
    constraint's and the order's steps (see the module docstring) over
    the states stored in its sub-blocks' entries, and the memo of
    scored pairs is read before any sub-block is looked up.  The only
    tree built is the answer.  With a preference-complete
    (constraint, order) pairing the answer is ACCEPT iff any satisfying
    tree exists.

    The plain search decides the root blocks first: a constraint only
    removes trees, so an unconstrained reject is a REJECT, found
    without scoring any tree.  The DP walks the blocks that the
    pre-pass satisfied again; ``evals`` counts each block once.

    For a disconnected hypergraph the components are solved
    independently, and the decomposition has one root per component.
    The constraint is checked, and the key taken, on that whole forest.
    """
    known = tuple(getattr(order, "pairs_with", ()))
    if not known or not isinstance(constraint, known):
        warnings.warn(
            "constraint/order pairing is not a built-in one; "
            "preference completeness is unverified",
            stacklevel=2,
        )
    k = getattr(bags, "k", None)
    search = _Search(h, bags, DEFAULT_MAX_EVALS)
    entries = {}  # block -> Entry, or None if no tree satisfies
    scored = {}  # (X, *Ys) -> Entry, or None if the tree fails
    root_covers = {}  # root bag -> minimum cover, filled on first use

    def score(x, parts):
        if x not in root_covers:
            root_covers[x] = minimum_cover(h, x, max_size=k)
        if root_covers[x] is None:
            raise ValueError("root bag not coverable within the width limit")
        node = (x, root_covers[x], tuple(p.node for p in parts))
        held = constraint.step(h, k, node, [p.holds_state for p in parts])
        if held is None:
            return None
        key, state = order.step(node, [(p.key, p.order_state) for p in parts])
        return Entry(key, node, held, state)

    def sub_entries(i, x, ys):
        """The entries of the sub-blocks ``(x, y)``, or None at the first
        that has none, which is marked failed: no tree of it satisfies,
        so no tree above it does."""
        out = []
        for y in ys:
            part = entry((x, y))
            if part is None:
                search.fail(i, y)
                return None
            out.append(part)
        return out

    def entry(block):
        if block in entries:
            return entries[block]
        if block not in search.sat:  # not decided by the root pre-pass
            search.tick()
        s, c = block
        head, comps = search.heads[s]  # filled by the block's parent
        dead = search.dead
        best = None
        for i, x in search.candidates(head, c, s & comps[c]):
            # A sub-block of x may have failed since the index was read.
            if dead[i] & c:
                continue
            ys = [y for y in search.components_of(i) if y & c]
            pair = (x, *ys)
            if pair not in scored:
                subs = sub_entries(i, x, ys)
                if subs is None:
                    continue
                scored[pair] = score(x, subs)
            got = scored[pair]
            if got is not None and (best is None or got.key < best.key):
                best = got
        entries[block] = best
        return best

    root_blocks = [(0, c) for c in h.vertex_components(0)]
    if not all(search.evaluate(rb) for rb in root_blocks):
        return ConstrainedResult(False, None, None, {}, search.evals, 0)
    parts = [entry(rb) for rb in root_blocks]
    table = {block: e for block, e in entries.items() if e is not None}
    counters = (search.evals, len(scored))
    if None in parts:
        return ConstrainedResult(False, None, None, table, *counters)
    td = TreeDecomposition.from_nodes(h, [p.node for p in parts])
    if len(parts) == 1:
        return ConstrainedResult(True, td, parts[0].key, table, *counters)
    if not constraint.holds(h, td, k):
        return ConstrainedResult(False, None, None, table, *counters)
    return ConstrainedResult(True, td, order(td), table, *counters)


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
    flagged as truncated.  The trees are distinct up to isomorphism
    of the rooted bag-trees, as
    :func:`~softdecomp.oracles.iter_all_ctds` yields each one once.
    """
    from .oracles import OracleBudgetError, enumerate_all_ctds

    masks = list(bags)
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
    for td in trees:
        attach_covers(td, max_size=k)
        if constraint.holds(h, td, k):
            scored.append((order(td), td))
    scored.sort(key=lambda pair: pair[0].sort_key)
    top = scored[:n]
    return TopNResult([td for _, td in top], [key for key, _ in top], truncated)

