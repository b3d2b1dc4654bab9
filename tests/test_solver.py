import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from softdecomp import (
    ConnectedCover,
    Hypergraph,
    SolverBudgetError,
    StatsCatalog,
    TreeDecomposition,
    attach_covers,
    cost_order,
    gallery,
    parse_hypergraph,
    soft_bags,
    soft_bags_level,
    solve,
    solve_constrained,
    sql_to_cq,
    validate_td,
)
from softdecomp import bags as bags_module
from softdecomp import solver as solver_module
from softdecomp.gallery import SQL_QUERIES, cycle, gallery_names
from softdecomp.solver import BasisTable, extract_decomposition, minimum_cover, td_from_text
from softdecomp.hypergraph import ids_of, mask_of, popcount

from conftest import FORCE_NUMPY, FORCE_PYTHON, force_bag_paths, random_connected_hypergraph


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
        report = validate_td(h, td, bag_masks=set(bags), k=k)
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
        report = validate_td(h, res.decomposition, bag_masks=set(bags), k=k)
        assert report.ok, report.failures


# --- the block search against an unfiltered reference ---------------------

# The candidate bags, and the search's index over them, come from either
# path of the bag layer: the numpy one above its size gates or the
# pure-Python one below them.  The search must answer alike on both.
_BAG_PATHS = pytest.mark.parametrize("threshold", [FORCE_NUMPY, FORCE_PYTHON],
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
                    self.sat[block] = (x, tuple((x, y) for y in ys))
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


@_BAG_PATHS
def test_solve_matches_reference_search(monkeypatch, threshold):
    force_bag_paths(monkeypatch, threshold)
    fewer = 0
    for h, masks in _random_bag_sets(500, 300):
        assert all(type(m) is int for m in masks)
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
    cases = [(gallery(name).hypergraph, k) for name in ("H2", "H3", "C5") for k in (1, 2, 3)]
    # Past 64 vertices a bag no longer fits one machine word.
    cases += [(cycle(65), 2), (cycle(66), 2)]
    for h, k in cases:
        masks = list(soft_bags_level(h, k, 0).bags)
        res = solve(h, masks)
        accepted, td, evals = reference_solve(h, masks)
        assert res.accepted == accepted
        if accepted:
            assert (res.decomposition.bags, res.decomposition.parents) == (td.bags, td.parents)
        # Equal where the reference never searches its root again,
        # e.g. the H3 k=2 reject, which satisfies no block.
        assert 0 < res.evals <= evals


@_BAG_PATHS
def test_nested_blocks_shrink(monkeypatch, threshold):
    # Every sub-block lowers (|C|, |S|) lexicographically, so the search
    # has no cycles, and each block is decided at most once.  ``dead``
    # holds exactly the components of the failed bag-headed blocks.
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

    force_bag_paths(monkeypatch, threshold)
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
        assert search.dead == [failed.get(x, 0) for x in search.bags]


@_BAG_PATHS
def test_solve_ignores_bag_order(monkeypatch, threshold):
    force_bag_paths(monkeypatch, threshold)
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


@_BAG_PATHS
def test_candidate_order_ignores_input_order_and_duplicates(monkeypatch, threshold):
    force_bag_paths(monkeypatch, threshold)
    rng = random.Random(9)
    for h, k in [(gallery("H3").hypergraph, 2), (cycle(65), 1)]:
        masks = list(soft_bags(h, k).bags)
        shuffled = masks[:]
        rng.shuffle(shuffled)
        want = sorted(set(masks), key=lambda m: (-popcount(m), m))
        # The empty set is never a basis and is no candidate.
        for given in (masks, masks[::-1], masks + masks[:50], shuffled, [0, *masks]):
            assert solver_module._Search(h, given, 1).bags == want


def _filtered(search, s, c):
    """The candidates of block ``(s, c)`` by the module docstring's
    conditions, one bag at a time."""
    conn = s & search.h.neighborhood(c)
    return [(i, x) for i, x in enumerate(search.bags)
            if x != s and not x & ~(s | c) and not conn & ~x and not search.dead[i] & c]


@_BAG_PATHS
def test_candidates_match_the_filter(monkeypatch, threshold):
    force_bag_paths(monkeypatch, threshold)
    rng = random.Random(31)
    cases = [(random_connected_hypergraph(rng, max_vertices=9), k)
             for _ in range(40) for k in (1, 2, 3)]
    cases += [(gallery("H2").hypergraph, 2), (gallery("C5").hypergraph, 1), (cycle(65), 1)]
    marked = 0
    for h, k in cases:
        search = solver_module._Search(h, soft_bags(h, k).bags, 10**6)
        for when in ("fresh", "searched"):
            if when == "searched":
                # Decide the root blocks, which marks failed sub-blocks.
                for comp in h.vertex_components(0):
                    search.evaluate((0, comp))
                marked += any(search.dead)
            heads = [-1] + rng.sample(range(len(search.bags)), min(8, len(search.bags)))
            for head in heads:
                s = search.bags[head] if head >= 0 else 0
                for c in h.vertex_components(s):
                    got = list(search.candidates(head, c, s & h.neighborhood(c)))
                    assert got == _filtered(search, s, c)
    assert marked > 10


def _is_balanced(h, bag, edges):
    """Plain-Python reference: no [bag]-component meets more than half
    of ``edges``."""
    return all(2 * sum(1 for e in edges if e & y) <= len(edges)
               for y in h.vertex_components(bag))


def _with_triangle(h):
    """``h`` plus a triangle on three new vertices."""
    return parse_hypergraph(h.serialize() + ", t1(z1,z2), t2(z2,z3), t3(z3,z1)")


def test_balanced_bags_match_one_by_one():
    rng = random.Random(64)
    graphs = [random_connected_hypergraph(rng, max_vertices=n, max_edges=30)
              for n in (6, 20, 64) for _ in range(5)]
    graphs += [cycle(64), _with_triangle(parse_hypergraph("r(a,b), s(b,c), t(c,d), u(d,a)"))]
    seen = set()
    for h in graphs:
        masks = list(soft_bags(h, 2).bags) + [h.all_vertices_mask]
        masks += [rng.getrandbits(h.n_vertices) | 1 for _ in range(50)]
        for c in h.vertex_components(0):
            edges = [e for e in h.edge_masks if e & c]
            got = bags_module._balanced_bags(h, masks, edges).tolist()
            assert got == [_is_balanced(h, x, edges) for x in masks]
            seen.update(got)
    assert seen == {True, False}


def _edge_count_graph(rng, n, m):
    """A connected hypergraph on ``n`` vertices with exactly ``m``
    distinct edges: a path, then random edges of 2 to 4 vertices."""
    edges = {(v, v + 1) for v in range(n - 1)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), rng.randint(2, 4)))))
    return Hypergraph.from_named_edges(
        [(f"e{i}", [f"v{v}" for v in vs]) for i, vs in enumerate(sorted(edges))])


@pytest.mark.parametrize("m", [64, 65, 128, 129])
def test_balanced_bags_count_edges_across_words(m):
    # One, two, two and three words of edge bits per component, and a
    # component meeting an edge of the last word.
    rng = random.Random(m)
    for n in (40, 64):
        h = _edge_count_graph(rng, n, m)
        edges = list(h.edge_masks)
        masks = [mask_of(rng.sample(range(n), rng.randint(1, n - 1))) for _ in range(300)]
        got = bags_module._balanced_bags(h, masks, edges).tolist()
        assert got == [_is_balanced(h, x, edges) for x in masks]
        assert set(got) == {True, False}
        meets = [sum(1 for e in edges if e & y) for x in masks for y in h.vertex_components(x)]
        assert max(meets) > 64 * ((m - 1) // 64)


def _record_checks(monkeypatch):
    """Patch the check's kernel to record, per call, the vertex count
    and whether any bag was balanced; returns the record."""
    calls = []
    real = bags_module._balanced_bags

    def recorded(h, bags, edges):
        got = real(h, bags, edges)
        calls.append((h.n_vertices, bool(got.any())))
        return got

    monkeypatch.setattr(bags_module, "_balanced_bags", recorded)
    return calls


def test_check_keeps_the_reference_verdicts(monkeypatch):
    # With the check after the first candidate, every root block whose
    # first candidate is no basis is checked, and a failed check ends it.
    monkeypatch.setattr(solver_module, "_check_after", lambda n_bags: 1)
    calls = _record_checks(monkeypatch)
    rejects = 0
    for h, masks in _random_bag_sets(500, 300):
        res = solve(h, masks)
        accepted, td, _ = reference_solve(h, masks)
        assert res.accepted == accepted
        if accepted:
            assert (res.decomposition.bags, res.decomposition.parents) == (td.bags, td.parents)
        rejects += not accepted
    decided = sum(not balanced for _, balanced in calls)
    assert decided > 50 and rejects > decided


def test_every_tree_has_a_balanced_node():
    trees = 0
    for h, masks in _random_bag_sets(500, 300):
        res = solve(h, masks)
        if not res.accepted:
            continue
        td = res.decomposition
        for root in td.roots():
            nodes = td.subtree(root)
            c = 0
            for i in nodes:
                c |= td.bags[i]
            edges = [e for e in h.edge_masks if e & c]
            assert any(_is_balanced(h, td.bags[i], edges) for i in nodes)
        trees += 1
    assert trees > 1000


@pytest.mark.parametrize("name,level,disjoint", [
    ("H3", 0, False), ("H3prime", 0, False), ("H3prime", 1, False), ("H3", 0, True),
])
def test_long_rejects_end_on_the_check(monkeypatch, name, level, disjoint):
    h = gallery(name).hypergraph
    if disjoint:
        h = _with_triangle(h)
    calls = _record_checks(monkeypatch)
    bags = soft_bags_level(h, 2, level)
    res = solve(h, bags)
    assert not res.accepted and calls == [(h.n_vertices, False)]
    assert res.evals <= solver_module._check_after(len(bags)) + 8
    assert res.check_decided == 1


def test_short_searches_never_check(monkeypatch):
    # Root blocks that accept, or run out of candidates, before their
    # trigger are not checked: short rejects, every gallery accept at
    # levels 0 and 1, and the pre-pass of the bundled SQL queries.
    calls = _record_checks(monkeypatch)
    for name, k in [("H2", 1), ("C5", 1)]:
        h = gallery(name).hypergraph
        solve(h, soft_bags(h, k))
    accepts = 0
    for name in gallery_names():
        h = gallery(name).hypergraph
        for level in (0, 1):
            for k in (2, 3):
                before = len(calls)
                res = solve(h, soft_bags_level(h, k, level))
                if not res.accepted:
                    del calls[before:]
                accepts += res.accepted
    for name, sql in SQL_QUERIES.items():
        _, h = sql_to_cq(sql)
        bags = soft_bags(h, gallery(name).widths["concov_shw"])
        stats = StatsCatalog(h, {e: 10 + 7 * e for e in range(h.n_edges)})
        assert solve_constrained(h, bags, ConnectedCover(), cost_order(stats)).accepted
    assert calls == []
    assert accepts == 4 * len(gallery_names()) - 4  # H3 and H3prime reject at k=2


def test_random_verdicts_hold_under_the_trigger(monkeypatch):
    # On 16 x 16 random graphs the rule keeps the reference verdicts and
    # trees.  A root block checks once it has tried its trigger's worth
    # of candidates, and a failed check is its last step; a reject with
    # a balanced bag walks on.
    calls = _record_checks(monkeypatch)
    tries = []
    checked = solver_module._Search.checked

    def counted(self, candidates, c):
        tries.append(0)
        for candidate in checked(self, candidates, c):
            tries[-1] += 1
            yield candidate

    monkeypatch.setattr(solver_module._Search, "checked", counted)
    rng = random.Random(5)
    decided = walked_on = 0
    for _ in range(60):
        h = random_connected_hypergraph(rng, max_vertices=16, max_edges=16)
        for k in (1, 2, 3):
            masks = list(soft_bags(h, k).bags)
            calls.clear()
            tries.clear()
            res = solve(h, masks)
            accepted, td, _ = reference_solve(h, masks)
            assert res.accepted == accepted
            if accepted:
                assert (res.decomposition.bags, res.decomposition.parents) == (td.bags, td.parents)
                assert calls == []
                continue
            trigger = solver_module._check_after(len(masks))
            # A block whose candidates run out at the trigger is never
            # checked; a passing check yields one more candidate.
            assert len(calls) == sum(t > trigger for t in tries) + res.check_decided
            if res.check_decided:
                assert calls[-1] == (h.n_vertices, False) and tries[-1] == trigger
            decided += res.check_decided
            walked_on += any(balanced for _, balanced in calls)
    assert decided > 0 and walked_on > 0


def test_check_stays_off_above_64_vertices(monkeypatch):
    calls = _record_checks(monkeypatch)
    monkeypatch.setattr(solver_module, "_check_after", lambda n_bags: 0)
    for n in (64, 65, 66):
        h = cycle(n)
        assert solve(h, soft_bags(h, 2)).accepted
    assert calls == [(64, True)]


def test_solve_reports_evals():
    h = gallery("H2").hypergraph
    assert solve(h, soft_bags(h, 2)).evals > 0


# --- covers -------------------------------------------------------------


def test_attach_covers_meets_width():
    h = gallery("C5").hypergraph
    res = solve(h, soft_bags(h, 2))
    td = attach_covers(res.decomposition)
    assert td.covers is not None
    assert max(map(len, td.covers)) <= 2
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


def test_td_text_names_the_line_with_an_unknown_name():
    h = parse_hypergraph("r(a,b), s(b,c)")
    head = "0 -1 {a,b} cover{r}\n"
    with pytest.raises(ValueError, match=r"unknown vertex 'zzz' in line: '1 0 \{b,zzz\}'"):
        td_from_text(h, head + "1 0 {b,zzz}\n")
    with pytest.raises(ValueError, match=r"unknown edge 'q' in line: '1 0 \{b,c\} cover\{q\}'"):
        td_from_text(h, head + "1 0 {b,c} cover{q}\n")
    td = td_from_text(h, head + "1 0 {b,c}\n")
    assert td.covers == [(0,), ()]


def test_gml_mentions_every_node():
    h = gallery("C5").hypergraph
    td = solve(h, soft_bags(h, 2)).decomposition
    gml = td.to_gml()
    for i in range(len(td)):
        assert f"id {i}" in gml
