import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from softdecomp import (
    MissingStatisticError,
    StatsCatalog,
    attach_covers,
    cost_order,
    parse_hypergraph,
    soft_bags,
    solve,
    subtree_cost,
)
from softdecomp.costs import bag_cost, fallback_join_card, reduce_attrs
from softdecomp.solver import TreeDecomposition
from softdecomp.hypergraph import mask_of, popcount

from conftest import random_connected_hypergraph, random_stats


def _chain():
    """Two-node decomposition of r(a,b), s(b,c), t(c,d).

    Root {a,b,c} is covered by r and s; the leaf {c,d} is the single
    relation t and shares the non-key attribute c with its parent.
    """
    h = parse_hypergraph("r(a,b), s(b,c), t(c,d)")
    td = TreeDecomposition(
        h,
        [mask_of([0, 1, 2]), mask_of([2, 3])],
        [-1, 0],
        covers=[(0, 1), (2,)],
    )
    stats = StatsCatalog(
        h,
        {0: 10, 1: 10, 2: 8},
        {mask_of([0, 1, 2]): 100},
        {0: 0, 1: 0, 2: 0},
    )
    return h, td, stats


def test_two_relation_bag_cost():
    h, td, stats = _chain()
    got = bag_cost(td.bags[0], td.covers[0], stats)
    assert got == pytest.approx(166.44, abs=1e-2)


def test_single_relation_bag_is_free():
    h, td, stats = _chain()
    assert bag_cost(td.bags[1], td.covers[1], stats) == 0.0


def test_chain_total():
    h, td, stats = _chain()
    report = subtree_cost(td, stats)
    assert report.total == pytest.approx(838.82, abs=1e-2)
    # the pieces behind the total
    assert report.node_scan_cost[0] == pytest.approx(100 * math.log2(100))
    assert report.node_reduced_size[1] == pytest.approx(4.0)


def test_empty_child_zeroes_the_parent_scan():
    h, td, stats = _chain()
    stats.bag_join_card[td.bags[1]] = 0
    report = subtree_cost(td, stats)
    assert report.node_reduced_size[1] == 0.0
    assert report.node_scan_cost[0] == 0.0
    assert report.total == pytest.approx(report.node_bag_cost[0])


def test_keyed_shared_attribute_is_not_reducible():
    h, td, stats = _chain()
    stats.primary_key[2] = mask_of([2])  # c is t's key
    assert reduce_attrs(0, td, stats) == 0
    report = subtree_cost(td, stats)
    # no reduction: the leaf semi-joins at its full size of 8
    assert report.node_reduced_size[1] == pytest.approx(8.0)


def test_cost_steps_of_two_catalogs_keep_their_own_bag_terms():
    # One order's memo of bag terms is its own: the same node keyed by
    # orders over different catalogs, in turn, matches each catalog's
    # whole-tree cost.
    h, td, stats = _chain()
    other = StatsCatalog(h, {0: 50, 1: 7, 2: 8}, {}, {0: 0, 1: mask_of([1]), 2: 0})
    leaf = (td.bags[1], td.covers[1], ())
    root = (td.bags[0], td.covers[0], (leaf,))
    for _ in range(2):
        for catalog in (stats, other):
            step = cost_order(catalog).step
            leaf_key, leaf_state = step(leaf, [])
            key, _ = step(root, [(leaf_key, leaf_state)])
            assert key.cost == subtree_cost(td, catalog).total
            assert step(root, [(leaf_key, leaf_state)])[0] == key


def test_reduce_attrs_of_leaf_is_empty():
    h, td, stats = _chain()
    assert reduce_attrs(1, td, stats) == 0


def test_fallback_join_card_paths():
    h = parse_hypergraph("r(a,b), s(b,c)")
    stats = StatsCatalog(h, {0: 5, 1: 7})
    # bag inside one cover relation: bounded by the smallest such
    assert fallback_join_card(mask_of([1]), (0, 1), stats) == 5
    # crossing bag: product, capped
    assert fallback_join_card(mask_of([0, 1, 2]), (0, 1), stats) == 35
    stats.cap = 20
    assert fallback_join_card(mask_of([0, 1, 2]), (0, 1), stats) == 20


def test_strict_mode_raises_on_missing_stat():
    h, td, stats = _chain()
    del stats.bag_join_card[td.bags[0]]
    report = subtree_cost(td, stats)  # fallback kicks in
    assert report.fallback_nodes == (0,)


def test_covers_required():
    h, td, stats = _chain()
    bare = TreeDecomposition(h, td.bags, td.parents)
    with pytest.raises(ValueError):
        subtree_cost(bare, stats)


# --- property tests over random decompositions -----------------------------


def _random_decomposition(rng):
    h = random_connected_hypergraph(rng, max_vertices=6, max_edges=6)
    for k in (1, 2, 3, h.n_edges):
        res = solve(h, soft_bags(h, min(k, h.n_edges)))
        if res.accepted:
            return h, attach_covers(res.decomposition)
    raise AssertionError("unreachable: full-width decomposition always exists")


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_reduced_size_bounded_by_join_card(seed):
    rng = random.Random(seed)
    h, td = _random_decomposition(rng)
    stats = random_stats(rng, h, td.bags)
    report = subtree_cost(td, stats)
    for u in range(len(td)):
        j, _ = stats.join_card(td.bags[u], td.covers[u])
        assert 0 <= report.node_reduced_size[u] <= j
        assert report.node_subtree_cost[u] >= 0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_zero_join_propagates_to_all_ancestors(seed):
    rng = random.Random(seed)
    h, td = _random_decomposition(rng)
    stats = random_stats(rng, h, td.bags)
    victim = rng.randrange(len(td))
    stats.bag_join_card[td.bags[victim]] = 0
    report = subtree_cost(td, stats)
    u = victim
    while u >= 0:
        assert report.node_reduced_size[u] == 0.0
        if u != victim:
            assert report.node_scan_cost[u] == 0.0
        u = td.parents[u]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_total_cost_monotone_in_stats(seed):
    rng = random.Random(seed)
    h, td = _random_decomposition(rng)
    lo = random_stats(rng, h, td.bags, max_card=500)
    hi = StatsCatalog(
        h,
        {e: c + rng.randint(0, 500) for e, c in lo.relation_card.items()},
        {m: c + rng.randint(0, 500) for m, c in lo.bag_join_card.items()},
        dict(lo.primary_key),
        lo.cap,
    )
    assert subtree_cost(td, lo).total <= subtree_cost(td, hi).total + 1e-9


# --- serialization -----------------------------------------------------------


def test_stats_catalog_from_json():
    h = parse_hypergraph("r(a,b), s(b,c)")
    stats = StatsCatalog.from_json(
        h,
        """
        {"relations": {"r": {"card": 5, "key": ["a"]}, "s": {"card": 7}},
         "bags": [{"vars": ["a", "b", "c"], "card": 12}]}
        """,
    )
    assert stats.relation_card == {0: 5, 1: 7}
    assert stats.primary_key[0] == mask_of([0])
    assert stats.bag_join_card[mask_of([0, 1, 2])] == 12
    with pytest.raises(MissingStatisticError):
        StatsCatalog.from_json(h, '{"relations": {"zzz": {"card": 1}}}')
    # A zero card is an empty relation or join, a zero cap a tight bound.
    empty = StatsCatalog.from_json(
        h, '{"relations": {"r": {"card": 0}, "s": {"card": 0}},'
           ' "bags": [{"vars": ["b"], "card": 0}], "cap": 0}'
    )
    assert empty.relation_card == {0: 0, 1: 0}
    assert (empty.bag_join_card, empty.cap) == ({mask_of([1]): 0}, 0)
