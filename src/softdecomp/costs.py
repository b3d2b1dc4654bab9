"""Cardinality-based cost model for decomposition trees.

A :class:`StatsCatalog` carries relation cardinalities, known bag join
cardinalities, and per-relation primary keys.  The cost of a rooted
decomposition is built bottom-up: each bag pays for scanning its cover
relations and materializing its join, each parent pays a scan for its
semi-joins, and each child contributes a reduced-size term modelling
how much the up-phase semi-join still has to move.

The formula is written once, one node at a time, in two parts: the
terms its bag and cover fix alone (:func:`bag_terms`: the join size,
the bag cost and the bag's reducible vertices), and their combination
with a :class:`CostSummary` of each child subtree (:func:`combine`).
So the cost is a tree aggregation function in the sense of Scarcello,
Greco and Leone ("Weighted hypertree decompositions and optimal query
plans", PODS 2004).  :func:`subtree_cost` folds the step over a whole
tree; the constrained optimizer folds it over the subtrees its dynamic
programming assembles, without building them, and computes each
node's bag terms once per bag and cover.
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
        """Load the JSON stats format: ``{"relations": {name: {"card": int,
        "key": [var, ...]}}, "bags": [{"vars": [var, ...], "card": int}],
        "cap": int}``, where ``key``, ``bags`` and ``cap`` are optional.

        Any other shape, a negative count, or a name that is no relation
        or variable of ``h``, raises :class:`MissingStatisticError`.
        """
        data = json.loads(text) if isinstance(text, str) else text
        name_to_id = {n: i for i, n in enumerate(h.edge_names)}
        vname_to_id = {n: i for i, n in enumerate(h.vertex_names)}

        def check(ok, message):
            if not ok:
                raise MissingStatisticError(message)

        def need(entry, key, what):
            check(key in entry, f"no {key!r} for {what}")
            return entry[key]

        def card(entry, key, what):
            value = need(entry, key, what)
            check(type(value) is int, f"{key!r} for {what} is not an integer: {value!r}")
            check(value >= 0, f"{key!r} for {what} is negative: {value}")
            return value

        def vars_mask(names, what):
            check(isinstance(names, list) and all(isinstance(v, str) for v in names),
                  f"{what} is not a list of names: {names!r}")
            for v in names:
                check(v in vname_to_id, f"unknown variable {v!r} in {what}")
            return mask_of(vname_to_id[v] for v in names)

        check(isinstance(data, dict), "statistics must be a JSON object")
        relations, entries = data.get("relations", {}), data.get("bags", [])
        check(isinstance(relations, dict), "'relations' is not a JSON object")
        check(isinstance(entries, list) and all(isinstance(b, dict) for b in entries),
              "'bags' is not a list of JSON objects")
        rel, keys, bags = {}, {}, {}
        for name, entry in relations.items():
            check(name in name_to_id, f"unknown relation {name!r}")
            check(isinstance(entry, dict), f"relation {name!r} is not a JSON object")
            e = name_to_id[name]
            rel[e] = card(entry, "card", f"relation {name!r}")
            keys[e] = vars_mask(entry.get("key", []), f"the key of relation {name!r}")
        for entry in entries:
            names = need(entry, "vars", "a bag")
            bags[vars_mask(names, f"bag {names!r}")] = card(entry, "card", f"bag {names!r}")
        cap = card(data, "cap", "the catalog") if "cap" in data else 10**6
        return cls(h, rel, bags, keys, cap)

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
    shrink: int  # the root's ReduceAttrs: its bag & the union of its children's U


def reduced_size(child, shrink):
    """ReducedSz of a subtree under a parent whose ReduceAttrs (the
    vertices of its bag that its descendants can shrink) is ``shrink``;
    a root uses its own ``shrink``."""
    if child.empty:
        return 0.0
    return child.join / (1 + popcount(shrink & child.bag))


class BagTerms(NamedTuple):
    """The terms of the cost recursion that a node's bag and cover fix
    alone, whatever its children."""

    join: float  # |J| of the bag
    fell_back: bool  # |J| is the crude bound
    cost: float  # BagCost: see _materialize
    reducible: int  # union of bag & edge & ~key over the cover


def bag_terms(bag, cover, stats):
    """A node's :class:`BagTerms`."""
    j, fell_back = stats.join_card(bag, cover)
    reducible = 0
    masks = stats.hypergraph.edge_masks
    for e in cover:
        reducible |= bag & masks[e] & ~stats.primary_key.get(e, 0)
    return BagTerms(j, fell_back, _materialize(j, cover, stats), reducible)


def combine(bag, terms, kids):
    """One node of the cost recursion, from its :class:`BagTerms` and
    its children's :class:`CostSummary` in child order.

    Returns ``(summary, kid_reduced, scan_cost)``: the node's own
    summary, each child's ReducedSz and the node's scan cost.  A node's
    ReducedSz is 0 when any child's is 0 (an empty child empties the
    semi-join chain); ScanCost is charged only when the node scans
    itself against nonempty children; a child contributes
    ReducedSz·log(ReducedSz) for its semi-join into the node.
    """
    below = 0
    for kid in kids:
        below |= kid.reducible
    shrink = bag & below
    # One pass over the children, with reduced_size and _xlog written
    # out; ``below_cost`` sums from 0 in child order, as sum() would.
    kid_reduced = []
    below_cost = 0
    positive = True
    empty = False
    log2 = math.log2
    for kid in kids:
        r = 0.0 if kid.empty else kid.join / (1 + (shrink & kid.bag).bit_count())
        kid_reduced.append(r)
        below_cost += kid.total + (r * log2(r) if r > 1 else 0.0)
        if not r > 0:
            positive = False
            empty = empty or r == 0
    scan = _xlog(terms.join) if kids and positive else 0.0
    total = terms.cost + scan + below_cost
    summary = CostSummary(bag, terms.join, total, empty, terms.reducible | below, shrink)
    return summary, kid_reduced, scan


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

    A fold of :func:`bag_terms` and :func:`combine` over the nodes,
    deepest first: each node's summary is built from its children's,
    and each child's ReducedSz is the one its parent's step gives it;
    a root's uses the root's own ReduceAttrs.
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
        terms = bag_terms(td.bags[u], td.covers[u], stats)
        summary[u], kid_reduced, scan[u] = combine(td.bags[u], terms, [summary[c] for c in kids])
        bagc[u] = terms.cost
        if terms.fell_back:
            fellback.append(u)
        for c, r in zip(kids, kid_reduced):
            reduced[c] = r
    roots = td.roots()
    for r in roots:
        reduced[r] = reduced_size(summary[r], summary[r].shrink)
    total = [s.total for s in summary]
    grand = sum(total[r] for r in roots)
    return CostReport(bagc, reduced, scan, total, grand, tuple(fellback))
