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
    soft_bags_level,
    solve,
    validate_td,
)
from softdecomp import solver as solver_module
from softdecomp.solver import BasisTable, extract_decomposition, minimum_cover, td_from_text
from softdecomp.hypergraph import ids_of, mask_of, popcount

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


def test_disconnected_hypergraph_has_one_root_per_component():
    h = Hypergraph.from_named_edges([("r", ["a", "b"]), ("s", ["c", "d"])])
    res = solve(h, soft_bags(h, 1))
    assert res.accepted
    td = res.decomposition
    assert len(td.roots()) == 2
    report = validate_td(h, td, k=1)
    assert report.ok, report.failures


def test_from_nodes_numbers_a_forest_in_preorder():
    h = parse_hypergraph("r(a,b), s(b,c), t(c,d), u(e,f)")
    ab, bc, cd, ef = h.edge_masks
    leaf = (cd, (2,), ())
    td = TreeDecomposition.from_nodes(h, [(ab, (0,), ((bc, (1,), (leaf,)),)), (ef, (3,), ())])
    assert td.bags == [ab, bc, cd, ef]
    assert td.parents == [-1, 0, 1, -1]
    assert td.covers == [(0,), (1,), (2,), (3,)]
    assert td.roots() == [0, 3]
    bare = TreeDecomposition.from_nodes(h, [(ab, None, ((bc, None, ()), (cd, None, ())))])
    assert bare.parents == [-1, 0, 0]
    assert bare.covers is None


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


# --- the block search against an unfiltered reference ---------------------

_FORCE_NUMPY, _FORCE_PYTHON = 0, 10**9
_PATHS = pytest.mark.parametrize("threshold", [_FORCE_NUMPY, _FORCE_PYTHON],
                                 ids=["numpy", "python"])


class _ReferenceSearch:
    """The block search without the dead-component filter.

    Every candidate inside ``S | C`` that contains ``S & N(C)`` is
    checked one by one, with the cover test on the edges meeting ``C``.
    Blocks on the recursion path are pruned, rejections that involved
    such a pruning are not cached, and a rejected root is searched again
    while that satisfies new blocks.
    """

    def __init__(self, h, bag_masks):
        self.h = h
        self.bags = sorted(set(bag_masks), key=lambda m: (-popcount(m), m))
        self.evals = 0
        self.sat = {}
        self.failed = set()

    def neighborhood(self, c):
        reach = 0
        for v in ids_of(c):
            reach |= self.h.adjacency[v]
        return reach

    def evaluate(self, block, path):
        if block in self.sat:
            return True, False
        if block in self.failed:
            return False, False
        if block in path:
            return False, True
        self.evals += 1
        s, c = block
        reach = self.neighborhood(c)
        conn = s & reach
        path.add(block)
        tainted = False
        try:
            for x in self.bags:
                if x == s or x & ~(s | c) or conn & ~x:
                    continue
                ys = [y for y in self.h.vertex_components(x) if not y & ~c]
                cover = x
                for y in ys:
                    cover |= y
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


def reference_solve(h, bag_masks):
    """``(accepted, tree or None, evals)`` from the reference search."""
    search = _ReferenceSearch(h, bag_masks)
    root_blocks = [(0, comp) for comp in h.vertex_components(0)]
    for block in root_blocks:
        while True:
            before = len(search.sat)
            ok, _ = search.evaluate(block, set())
            if ok or len(search.sat) == before:
                break
            search.failed.clear()
        if not ok:
            return False, None, search.evals
    return True, extract_decomposition(h, BasisTable(search.sat), root_blocks), search.evals


def _random_bag_sets(seed, n_graphs):
    rng = random.Random(seed)
    for _ in range(n_graphs):
        h = random_connected_hypergraph(rng, max_vertices=10, max_edges=9)
        for k in (1, 2, 3):
            for level in (0, 1):
                yield h, list(soft_bags_level(h, k, level).bags)


@_PATHS
def test_solve_matches_reference_search(monkeypatch, threshold):
    monkeypatch.setattr(solver_module, "_NUMPY_THRESHOLD", threshold)
    fewer = 0
    for h, masks in _random_bag_sets(500, 300):
        res = solve(h, masks)
        accepted, td, evals = reference_solve(h, masks)
        assert res.accepted == accepted
        if accepted:
            assert res.decomposition.bags == td.bags
            assert res.decomposition.parents == td.parents
        else:
            assert res.decomposition is None
        # Each block is decided once; the reference decides some again.
        assert 0 < res.evals <= evals
        fewer += res.evals < evals
    assert fewer > 0


def test_solve_matches_reference_on_the_gallery():
    for name in ("H2", "H3", "C5"):
        h = gallery(name).hypergraph
        for k in (1, 2, 3):
            masks = list(soft_bags_level(h, k, 0).bags)
            res = solve(h, masks)
            accepted, td, evals = reference_solve(h, masks)
            assert res.accepted == accepted
            if accepted:
                assert (res.decomposition.bags, res.decomposition.parents) == (td.bags, td.parents)
            # Equal where the reference never searches its root again,
            # e.g. the H3 k=2 reject, which satisfies no block.
            assert 0 < res.evals <= evals


@_PATHS
def test_nested_blocks_shrink(monkeypatch, threshold):
    # Every sub-block lowers (|C|, |S|) lexicographically, so the search
    # has no cycles, and each block is decided at most once.  ``dead``
    # holds exactly the components of the failed bag-headed blocks.
    monkeypatch.setattr(solver_module, "_NUMPY_THRESHOLD", threshold)
    original = solver_module._Search.evaluate
    stack, decided, searches, failed = [], [], [], {}

    def evaluate(self, block):
        s, c = block
        size = (popcount(c), popcount(s))
        if stack:
            assert size < stack[-1]
        else:
            searches.append(self)
        if block not in self.sat:
            decided.append(block)
        stack.append(size)
        try:
            ok = original(self, block)
        finally:
            stack.pop()
        if not ok and s:
            failed[s] = failed.get(s, 0) | c
        return ok

    monkeypatch.setattr(solver_module._Search, "evaluate", evaluate)
    cases = [(gallery(name).hypergraph, k) for name in ("H2", "H3", "C5") for k in (1, 2, 3)]
    rng = random.Random(77)
    cases += [(random_connected_hypergraph(rng, max_vertices=9), k)
              for _ in range(60) for k in (1, 2, 3)]
    for h, k in cases:
        decided.clear()
        searches.clear()
        failed.clear()
        res = solve(h, soft_bags(h, k))
        assert len(decided) == len(set(decided)) == res.evals
        search = searches[0]
        assert [int(d) for d in search.dead] == [failed.get(x, 0) for x in search.bags]


@_PATHS
def test_solve_ignores_bag_order(monkeypatch, threshold):
    monkeypatch.setattr(solver_module, "_NUMPY_THRESHOLD", threshold)
    rng = random.Random(5)
    for name, k in [("H2", 2), ("C5", 2), ("H3", 3)]:
        h = gallery(name).hypergraph
        masks = list(soft_bags(h, k).bags)
        shuffled = masks[:]
        rng.shuffle(shuffled)
        trees = set()
        for order in (masks, masks[::-1], shuffled):
            td = solve(h, order).decomposition
            trees.add((tuple(td.bags), tuple(td.parents)))
        assert len(trees) == 1


def test_candidate_order_is_the_same_on_both_paths(monkeypatch):
    h = gallery("H3").hypergraph
    masks = list(soft_bags(h, 2).bags)
    orders = []
    for threshold in (_FORCE_NUMPY, _FORCE_PYTHON):
        monkeypatch.setattr(solver_module, "_NUMPY_THRESHOLD", threshold)
        for given in (masks, masks[::-1], masks + masks[:50]):
            search = solver_module._Search(h, given, 1)
            assert (search.bags_np is not None) == (threshold == _FORCE_NUMPY)
            orders.append(search.bags)
    assert all(order == orders[0] for order in orders)
    assert orders[0] == sorted(set(masks), key=lambda m: (-popcount(m), m))


def test_solve_reports_evals():
    h = gallery("H2").hypergraph
    assert solve(h, soft_bags(h, 2)).evals > 0


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
