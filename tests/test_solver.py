import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from softdecomp import (
    Hypergraph,
    SolverBudgetError,
    TreeDecomposition,
    attach_covers,
    edge_cover_bags,
    gallery,
    parse_hypergraph,
    soft_bags,
    solve,
    validate_td,
)
from softdecomp.solver import minimum_cover, td_from_text
from softdecomp.hypergraph import ids_of, mask_of

from conftest import random_connected_hypergraph


def brute_minimum_cover(h, bag):
    for size in range(1, h.n_edges + 1):
        for combo in combinations(range(h.n_edges), size):
            u = 0
            for i in combo:
                u |= h.edge_masks[i]
            if bag & ~u == 0:
                return size
    return None


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.integers(0, 255))
def test_minimum_cover_is_minimum(seed, raw):
    h = random_connected_hypergraph(random.Random(seed))
    bag = raw & h.all_vertices_mask
    want = brute_minimum_cover(h, bag) if bag else None
    got = minimum_cover(h, bag)
    if bag == 0 or want is None:
        assert got is None or bag == 0
    else:
        assert got is not None and len(got) == want
        u = 0
        for i in got:
            u |= h.edge_masks[i]
        assert bag & ~u == 0


def test_solve_returns_validating_decomposition():
    for name, k in [("C5", 2), ("H2", 2)]:
        h = gallery(name).hypergraph
        bags = soft_bags(h, k)
        res = solve(h, bags)
        assert res.accepted
        td = res.decomposition
        report = validate_td(h, td, bag_masks=set(bags.masks()), k=k)
        assert report.ok, report.failures


def test_solve_rejects_below_width():
    h = gallery("C5").hypergraph
    assert not solve(h, soft_bags(h, 1)).accepted


def test_rejection_returns_no_tree():
    h = gallery("C5").hypergraph
    res = solve(h, soft_bags(h, 1))
    assert res.decomposition is None


def test_single_edge_hypergraph_is_trivial():
    h = parse_hypergraph("r(a,b,c)")
    res = solve(h, soft_bags(h, 1))
    assert res.accepted and len(res.decomposition) == 1
    assert res.decomposition.bags[0] == h.all_vertices_mask


def test_disconnected_hypergraph_is_stitched():
    h = Hypergraph.from_named_edges([("r", ["a", "b"]), ("s", ["c", "d"])])
    res = solve(h, soft_bags(h, 1))
    assert res.accepted
    td = res.decomposition
    assert len(td.roots()) == 1
    report = validate_td(h, td, k=1)
    assert report.ok, report.failures


def test_solver_budget_raises():
    h = gallery("H2").hypergraph
    with pytest.raises(SolverBudgetError):
        solve(h, soft_bags(h, 2), max_evals=1)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_accepted_trees_always_validate(seed, k):
    h = random_connected_hypergraph(random.Random(seed))
    bags = soft_bags(h, k)
    res = solve(h, bags)
    if res.accepted:
        report = validate_td(h, res.decomposition, bag_masks=set(bags.masks()), k=k)
        assert report.ok, report.failures


# --- covers -------------------------------------------------------------


def test_attach_covers_meets_width():
    h = gallery("C5").hypergraph
    res = solve(h, soft_bags(h, 2))
    td = attach_covers(res.decomposition)
    assert td.covers is not None
    assert td.width() <= 2
    for bag, cover in zip(td.bags, td.covers):
        u = 0
        for e in cover:
            u |= h.edge_masks[e]
        assert bag & ~u == 0


def test_attach_covers_respects_pool_restriction():
    h = parse_hypergraph("r(a,b), s(b,c)")
    td = TreeDecomposition(h, [h.all_vertices_mask], [-1])
    full = attach_covers(td)
    assert len(full.covers[0]) == 2
    with pytest.raises(ValueError):
        attach_covers(td, max_size=1)


# --- text round trip ------------------------------------------------------


def test_child_index_matches_a_parent_scan():
    rng = random.Random(11)
    h = parse_hypergraph("r(a,b)")
    for _ in range(50):
        n = rng.randint(1, 30)
        parents = [-1] + [rng.randrange(-1, i) for i in range(1, n)]
        td = TreeDecomposition(h, [h.all_vertices_mask] * n, parents)
        for i in range(n):
            assert list(td.children(i)) == [j for j, p in enumerate(parents) if p == i]
            seen, stack = [i], [i]  # preorder, children pushed in index order
            while stack:
                u = stack.pop()
                kids = [j for j, p in enumerate(parents) if p == u]
                seen += kids
                stack += kids
            assert td.subtree(i) == seen


def test_td_text_roundtrip():
    h = gallery("C5").hypergraph
    td = attach_covers(solve(h, soft_bags(h, 2)).decomposition)
    back = td_from_text(h, td.to_text())
    assert back.bags == td.bags
    assert back.parents == td.parents
    assert back.covers == td.covers


def test_td_text_without_covers():
    h = parse_hypergraph("r(a,b), s(b,c)")
    td = td_from_text(h, "0 -1 {a,b}\n1 0 {b,c}\n")
    assert td.covers is None
    assert td.bags == [mask_of([0, 1]), mask_of([1, 2])]
    assert td.parents == [-1, 0]


def test_td_text_rejects_bad_ids():
    h = parse_hypergraph("r(a,b), s(b,c)")
    with pytest.raises(ValueError):
        td_from_text(h, "1 -1 {a,b}\n")
    with pytest.raises(ValueError):
        td_from_text(h, "0 -1 {a,zzz}\n")


def test_gml_mentions_every_node():
    h = gallery("C5").hypergraph
    td = solve(h, soft_bags(h, 2)).decomposition
    gml = td.to_gml()
    for i in range(len(td)):
        assert f"id {i}" in gml
