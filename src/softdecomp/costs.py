"""Cardinality-based cost model for decomposition trees.

A :class:`StatsCatalog` carries relation cardinalities, known bag join
cardinalities, and per-relation primary keys.  The cost of a rooted
decomposition is built bottom-up: each bag pays for scanning its cover
relations and materializing its join, each parent pays a scan for its
semi-joins, and each child contributes a reduced-size term modelling
how much the up-phase semi-join still has to move.

The formula is written once, in :func:`node_cost`, one node at a time.
A node needs only its bag, its cover and a :class:`CostSummary` of each
child subtree, so the cost is a tree aggregation function in the sense
of Scarcello, Greco and Leone ("Weighted hypertree decompositions and
optimal query plans", PODS 2004).  :func:`subtree_cost` folds the step
over a whole tree; the constrained optimizer folds it over the subtrees
its dynamic programming assembles, without building them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .hypergraph import mask_of, popcount


class MissingStatisticError(KeyError):
    """A required statistic is absent, or a catalog names an unknown relation."""


def _xlog(x):
    """x * log2(x), flattened to 0 at and below 1."""
    return x * math.log2(x) if x > 1 else 0.0


@dataclass
class StatsCatalog:
    """Cardinality statistics over a hypergraph's relations and bags.

    ``relation_card`` maps edge id to |R|, ``bag_join_card`` maps a bag
    vertex mask to the cardinality of the join projected onto it, and
    ``primary_key`` maps edge id to the vertex mask of that relation's
    key (empty when unknown).  ``cap`` bounds the Cartesian fallback.
    """

    hypergraph: object
    relation_card: dict
    bag_join_card: dict = field(default_factory=dict)
    primary_key: dict = field(default_factory=dict)
    cap: int = 10**6

    def __post_init__(self):
        for e in range(self.hypergraph.n_edges):
            if e not in self.relation_card:
                raise MissingStatisticError(
                    f"no cardinality for relation {self.hypergraph.edge_names[e]!r}"
                )

    @classmethod
    def from_json(cls, h, text):
        """Load the JSON stats format (relations / bags / cap)."""
        data = json.loads(text) if isinstance(text, str) else text
        name_to_id = {n: i for i, n in enumerate(h.edge_names)}
        vname_to_id = {n: i for i, n in enumerate(h.vertex_names)}
        rel = {}
        keys = {}
        for name, entry in data.get("relations", {}).items():
            if name not in name_to_id:
                raise MissingStatisticError(f"unknown relation {name!r}")
            e = name_to_id[name]
            rel[e] = int(entry["card"])
            keys[e] = mask_of(vname_to_id[v] for v in entry.get("key", []))
        bags = {}
        for entry in data.get("bags", []):
            m = mask_of(vname_to_id[v] for v in entry["vars"])
            bags[m] = int(entry["card"])
        return cls(h, rel, bags, keys, int(data.get("cap", 10**6)))

    def join_card(self, bag, cover):
        """|J| for a bag, falling back to a crude bound when unknown.

        Returns ``(value, fell_back)``.
        """
        if bag in self.bag_join_card:
            return self.bag_join_card[bag], False
        masks = self.hypergraph.edge_masks
        if len(cover) == 1 and masks[cover[0]] == bag:
            return self.relation_card[cover[0]], False
        return fallback_join_card(bag, cover, self), True


def fallback_join_card(bag, cover, stats):
    """Crude join-size bound used when a bag cardinality is missing.

    A bag inside a single cover edge is bounded by the smallest such
    relation; otherwise the product of the cover's cardinalities,
    capped at ``stats.cap``.
    """
    if not cover:
        raise ValueError("empty cover")
    masks = stats.hypergraph.edge_masks
    inside = [stats.relation_card[e] for e in cover if not bag & ~masks[e]]
    if inside:
        return min(inside)
    prod = 1
    for e in cover:
        prod *= stats.relation_card[e]
        if prod >= stats.cap:
            return stats.cap
    return prod


def _materialize(j, cover, stats):
    """Bag cost for a join of size ``j``: scan every cover relation,
    then write the join result.  A single-relation bag is free."""
    if not cover:
        raise ValueError("empty cover")
    if len(cover) == 1:
        return 0.0
    return float(j) + sum(_xlog(stats.relation_card[e]) for e in cover)


def bag_cost(bag, cover, stats):
    """Cost of materializing one bag (see :func:`_materialize`); a
    single-relation bag needs no join size."""
    j = stats.join_card(bag, cover)[0] if len(cover) > 1 else 0
    return _materialize(j, cover, stats)


def reduce_attrs(node, td, stats):
    """Vertices of a node's bag that its descendants can shrink.

    A vertex qualifies when it appears in some strict-descendant bag
    through a cover relation where it is not (part of) that relation's
    primary key.  Leaves map to the empty set.  :func:`node_cost` finds
    the same set as :attr:`CostSummary.shrink`, from its children's ``U``.
    """
    if td.covers is None:
        raise ValueError("no covers attached")
    bag = td.bags[node]
    out = 0
    for d in td.subtree(node):
        if d == node:
            continue
        for e in td.covers[d]:
            em = td.hypergraph.edge_masks[e]
            key = stats.primary_key.get(e, 0)
            out |= bag & td.bags[d] & em & ~key
    return out


class CostSummary(NamedTuple):
    """What a subtree offers its parent in the cost recursion.

    ``total`` depends on the subtree alone.  The subtree's ReducedSz is
    set by its parent: 0 when ``empty``, else ``join`` scaled down once
    per vertex of ``bag`` in the parent's ``shrink``.
    """

    bag: int  # the subtree root's bag
    join: float  # |J| of that bag
    total: float  # cost of the subtree
    empty: bool  # some child's ReducedSz is 0, so the root's is too
    reducible: int  # U: union of bag & edge & ~key over the subtree's nodes and covers
    shrink: int  # the root's reduce_attrs: its bag & the union of its children's U


def reduced_size(child, shrink):
    """ReducedSz of a subtree under a parent whose reduce_attrs is
    ``shrink``; a root uses its own ``shrink``."""
    if child.empty:
        return 0.0
    return child.join / (1 + popcount(shrink & child.bag))


def node_cost(bag, cover, kids, stats):
    """One node of the cost recursion, from its children's summaries.

    ``kids`` are the children's :class:`CostSummary` in child order.
    Returns ``(summary, kid_reduced, bag_cost, scan_cost, fell_back)``:
    the node's own summary, each child's ReducedSz, the node's bag and
    scan costs, and whether its join size fell back to the crude bound.
    A node's ReducedSz is 0 when any child's is 0 (an empty child
    empties the semi-join chain); ScanCost is charged only when the
    node scans itself against nonempty children; a child contributes
    ReducedSz·log(ReducedSz) for its semi-join into the node.
    """
    j, fell_back = stats.join_card(bag, cover)
    bagc = _materialize(j, cover, stats)
    below = 0
    for kid in kids:
        below |= kid.reducible
    shrink = bag & below
    kid_reduced = [reduced_size(kid, shrink) for kid in kids]
    scan = _xlog(j) if kids and all(r > 0 for r in kid_reduced) else 0.0
    total = bagc + scan + sum(kid.total + _xlog(r) for kid, r in zip(kids, kid_reduced))
    reducible = below
    masks = stats.hypergraph.edge_masks
    for e in cover:
        reducible |= bag & masks[e] & ~stats.primary_key.get(e, 0)
    empty = any(r == 0 for r in kid_reduced)
    summary = CostSummary(bag, j, total, empty, reducible, shrink)
    return summary, kid_reduced, bagc, scan, fell_back


@dataclass
class CostReport:
    """Per-node cost pieces plus the recursive total."""

    node_bag_cost: list
    node_reduced_size: list
    node_scan_cost: list
    node_subtree_cost: list
    total: float
    fallback_nodes: tuple = ()


def subtree_cost(td, stats):
    """Evaluate the full cost recursion over a rooted decomposition.

    A fold of :func:`node_cost` over the nodes, deepest first: each
    node's summary is built from its children's, and each child's
    ReducedSz is the one its parent's step gives it; a root's uses the
    root's own reduce_attrs.
    """
    if td.covers is None:
        raise ValueError("no covers attached")
    n = len(td)
    summary = [None] * n
    bagc = [0.0] * n
    reduced = [0.0] * n
    scan = [0.0] * n
    fellback = []
    for u in sorted(range(n), key=td.depth, reverse=True):
        kids = td.children(u)
        summary[u], kid_reduced, bagc[u], scan[u], fb = node_cost(
            td.bags[u], td.covers[u], [summary[c] for c in kids], stats
        )
        if fb:
            fellback.append(u)
        for c, r in zip(kids, kid_reduced):
            reduced[c] = r
    roots = td.roots()
    for r in roots:
        reduced[r] = reduced_size(summary[r], summary[r].shrink)
    total = [s.total for s in summary]
    grand = sum(total[r] for r in roots)
    return CostReport(bagc, reduced, scan, total, grand, tuple(fellback))


@dataclass
class EstimateCatalog:
    """Pre-exported engine estimates: per-bag plan costs and optional
    semi-join costs, replayed offline.

    The subtree recursion charges each child its estimated semi-join
    cost net of the two scans the estimate already includes, floored
    at 1.
    """

    hypergraph: object
    bag_costs: dict
    semijoin_costs: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, h, text):
        data = json.loads(text) if isinstance(text, str) else text
        vname_to_id = {n: i for i, n in enumerate(h.vertex_names)}
        bags = {}
        for entry in data.get("bags", []):
            m = mask_of(vname_to_id[v] for v in entry["vars"])
            bags[m] = float(entry["cost"])
        sjs = {}
        for entry in data.get("semijoins", []):
            a = mask_of(vname_to_id[v] for v in entry["parent"])
            b = mask_of(vname_to_id[v] for v in entry["child"])
            sjs[(a, b)] = float(entry["cost"])
        return cls(h, bags, sjs)

    def node_cost(self, bag, cover):
        if len(cover) == 1:
            return 0.0
        if bag not in self.bag_costs:
            raise MissingStatisticError("no estimate for bag")
        return self.bag_costs[bag]

    def total(self, td):
        if td.covers is None:
            raise ValueError("no covers attached")
        out = 0.0
        for u in range(len(td)):
            cu = self.node_cost(td.bags[u], td.covers[u])
            out += cu
            p = td.parents[u]
            if p >= 0:
                sj = self.semijoin_costs.get((td.bags[p], td.bags[u]))
                if sj is not None:
                    cp = self.node_cost(td.bags[p], td.covers[p])
                    out += max(sj - cp - cu, 1.0)
        return out
