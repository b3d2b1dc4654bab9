import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from softdecomp import (
    Hypergraph,
    OracleBudgetError,
    TreeDecomposition,
    attach_covers,
    enumerate_all_ctds,
    gallery,
    gallery_names,
    ghw_leq,
    hw_leq,
    parse_hypergraph,
    soft_bags,
    soft_bags_level,
    solve,
    validate_td,
)
from softdecomp.hypergraph import ids_of, mask_of
from softdecomp.solver import minimum_cover

from conftest import random_connected_hypergraph, random_stats


def _failed(report, name):
    return any(f.startswith(name) for f in report.failures)


# --- validator ----------------------------------------------------------


def test_valid_decomposition_passes_all_checks():
    h = parse_hypergraph("r(a,b), s(b,c), t(c,d)")
    td = TreeDecomposition(h, [mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])], [-1, 0, 1])
    rep = validate_td(h, td, k=1)
    assert rep.ok
    assert {"edge-coverage", "connectedness", "cover-width", "component-normal-form"} <= set(rep.checks)


def test_missing_edge_trips_coverage():
    h = parse_hypergraph("r(a,b), s(b,c)")
    td = TreeDecomposition(h, [mask_of([0, 1])], [-1])
    rep = validate_td(h, td, check_compnf=False)
    assert _failed(rep, "edge-coverage")


def test_split_vertex_trips_connectedness():
    h = parse_hypergraph("r(a,b), s(b,c), t(c,d)")
    # vertex b appears at both ends but not in the middle bag
    td = TreeDecomposition(
        h, [mask_of([0, 1]), mask_of([2, 3]), mask_of([1, 2])], [-1, 0, 1]
    )
    rep = validate_td(h, td, check_compnf=False)
    assert _failed(rep, "connectedness")


def test_foreign_bag_trips_membership():
    h = parse_hypergraph("r(a,b), s(b,c)")
    td = TreeDecomposition(h, [mask_of([0, 1, 2])], [-1])
    rep = validate_td(h, td, bag_masks={mask_of([0, 1])}, check_compnf=False)
    assert _failed(rep, "bag-membership")


def test_wide_bag_trips_cover_width():
    h = parse_hypergraph("r(a,b), s(b,c), t(c,d), u(d,e)")
    td = TreeDecomposition(h, [h.all_vertices_mask], [-1])
    rep = validate_td(h, td, k=2, check_compnf=False)
    assert _failed(rep, "cover-width")


def test_non_component_child_trips_compnf():
    h = parse_hypergraph("r(a,b), s(b,c), t(c,d)")
    # the child subtree spans two [bag(root)]-components at once
    td = TreeDecomposition(
        h, [mask_of([1, 2]), mask_of([0, 1, 2, 3])], [-1, 0]
    )
    rep = validate_td(h, td)
    assert _failed(rep, "component-normal-form")


def test_cover_descent_check_requires_covers():
    h = parse_hypergraph("r(a,b), s(b,c)")
    td = TreeDecomposition(h, [mask_of([0, 1]), mask_of([1, 2])], [-1, 0])
    rep = validate_td(h, td, check_special=True)
    assert _failed(rep, "cover-descent")
    rep = validate_td(h, attach_covers(td), check_special=True)
    assert rep.ok


def test_cover_descent_flags_leaked_vertex():
    # root covered by the wide edge w(a,b,c) but keeping only {a,b}:
    # c reappears below without being in the root bag
    h = parse_hypergraph("w(a,b,c), s(b,c)")
    td = TreeDecomposition(
        h, [mask_of([0, 1]), mask_of([1, 2])], [-1, 0],
        covers=[(0,), (1,)],
    )
    rep = validate_td(h, td, check_special=True, check_compnf=False)
    assert _failed(rep, "cover-descent")


# --- width oracles on known instances ------------------------------------


def _cycle(n):
    edges = [(f"e{i}", [f"v{i}", f"v{(i + 1) % n}"]) for i in range(n)]
    return parse_hypergraph(",".join(f"{e}({','.join(vs)})" for e, vs in edges))


def test_triangle_widths():
    h = _cycle(3)
    assert hw_leq(h, 1) is None
    assert hw_leq(h, 2) is not None
    assert ghw_leq(h, 1) is None
    assert ghw_leq(h, 2) is not None


def test_cycle_widths():
    h = _cycle(6)
    assert ghw_leq(h, 1) is None and hw_leq(h, 1) is None
    assert ghw_leq(h, 2) is not None and hw_leq(h, 2) is not None
    # 70 vertices: masks wider than one 64-bit word
    h = _cycle(70)
    assert hw_leq(h, 1) is None
    rep = validate_td(h, hw_leq(h, 2), k=2, check_special=True)
    assert rep.ok, rep.failures


def test_acyclic_query_has_width_one():
    h = parse_hypergraph("r(a,b), s(b,c), t(c,d)")
    assert hw_leq(h, 1) is not None
    assert ghw_leq(h, 1) is not None


def test_oracle_certificates_validate():
    h = _cycle(5)
    td = hw_leq(h, 2)
    rep = validate_td(h, td, k=2, check_special=True)
    assert rep.ok, rep.failures
    td = ghw_leq(h, 2)
    rep = validate_td(h, td, k=2)
    assert rep.ok, rep.failures


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_ghw_at_most_hw(seed):
    h = random_connected_hypergraph(random.Random(seed), max_vertices=6, max_edges=6)
    for k in (1, 2, 3):
        if hw_leq(h, k) is not None:
            assert ghw_leq(h, k) is not None
            break


def _ghw_reference(h, k):
    """ghw <= k over every vertex set of ``h`` that at most ``k`` edges
    cover, found by testing all 2^n of them."""
    family = [m for m in range(1, 1 << h.n_vertices)
              if minimum_cover(h, m, max_size=k) is not None]
    return solve(h, family).accepted


def _cover_ok(h, td, k):
    """``td`` validates, each bag inside its attached cover of at most
    ``k`` edges (validate_td's cover-width and cover-containment)."""
    assert td.covers is not None
    rep = validate_td(h, td, k=k)
    assert rep.ok, rep.failures


def test_ghw_matches_the_subset_reference():
    # Verdict for verdict against the 2^n family: 9 x 9 graphs, dense
    # graphs that reach width 3, and graphs of exactly 14 vertices.
    rng = random.Random(7)
    graphs = [random_connected_hypergraph(rng, 9, 9) for _ in range(60)]
    rng = random.Random(11)
    graphs += [_random_graph(rng) for _ in range(60)]
    rng = random.Random(14)
    big = []
    while len(big) < 3:
        h = random_connected_hypergraph(rng, 14, 14)
        if h.n_vertices == 14:
            big.append(h)
    graphs += big
    widths = []
    for h in graphs:
        width = None
        for k in (1, 2, 3):
            td = ghw_leq(h, k)
            assert (td is not None) == _ghw_reference(h, k), (h.serialize(), k)
            if td is not None:
                _cover_ok(h, td, k)
                width = width or k
        widths.append(width)
    assert {1, 2, 3} <= set(widths)


def test_gallery_ghw_is_exact():
    # Each recorded ghw w: no decomposition of width w - 1, a valid one
    # of width w (H3 and H3prime have 18 vertices).
    recorded = [name for name in gallery_names() if "ghw" in gallery(name).widths]
    assert {"H2", "H3", "H3prime"} <= set(recorded)
    for name in recorded:
        h, w = gallery(name).hypergraph, gallery(name).widths["ghw"]
        assert w == 1 or ghw_leq(h, w - 1) is None, name
        _cover_ok(h, ghw_leq(h, w), w)


def test_oracle_budget_errors():
    h = gallery("H3").hypergraph
    with pytest.raises(OracleBudgetError):
        hw_leq(h, 3, max_steps=1_000)  # the search runs out of steps
    with pytest.raises(OracleBudgetError, match="step budget"):
        ghw_leq(h, 3, max_steps=10_000)  # in the k-edge unions, before any walk
    # 2^24 - 1 sub-masks fit the default steps but not the family's cap:
    # the walk raises before it starts.
    h = parse_hypergraph(f"e({','.join(f'v{i}' for i in range(24))})")
    with pytest.raises(OracleBudgetError, match="could pass"):
        ghw_leq(h, 1)


def test_ghw_at_most_level_one_on_16_vertex_graphs():
    # ghw <= shw^1 <= shw^0, with ghw exact above 14 vertices too.
    rng = random.Random(5)
    for i in range(40):
        h = random_connected_hypergraph(rng, max_vertices=16, max_edges=16)
        for k in (1, 2, 3):
            td = ghw_leq(h, k)
            if td is None:
                assert not solve(h, soft_bags_level(h, k, 1)).accepted, (i, k)
                continue
            _cover_ok(h, td, k)


def _brute_hw_leq(h, k):
    """hw <= k straight from the k-decomp normal form, with no pruning.

    A state is a vertex component C with its connector; a node takes
    every lambda of at most k edges (duplicate bags included), with bag
    ``union(lambda) & region`` where ``region`` is the union of the
    edges meeting C.  The bag must contain the connector and meet C, and
    every [bag]-component inside C must be solvable in turn.
    Components come from an explicit breadth-first search.
    """
    masks = h.edge_masks
    lambdas = [
        combo for size in range(1, k + 1) for combo in combinations(range(len(masks)), size)
    ]

    def components(rest):
        out = []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                reach = 0
                for m in masks:
                    if m & frontier:
                        reach |= m
                frontier = reach & rest & ~comp
                comp |= frontier
            out.append(comp)
            rest &= ~comp
        return out

    def region(comp):
        out = 0
        for m in masks:
            if m & comp:
                out |= m
        return out

    @lru_cache(maxsize=None)
    def solvable(comp, conn):
        reg = region(comp)
        for lam in lambdas:
            chi = 0
            for e in lam:
                chi |= masks[e]
            chi &= reg
            if conn & ~chi or not chi & comp:
                continue
            if all(solvable(sub, region(sub) & chi) for sub in components(comp & ~chi)):
                return True
        return False

    return all(solvable(comp, 0) for comp in components(h.all_vertices_mask))


def _random_graph(rng):
    """A connected hypergraph on at most 7 vertices, dense enough for hw 3."""
    n = rng.randint(3, 7)
    edges = {tuple(sorted({v, rng.randrange(v)})) for v in range(1, n)}
    for _ in range(rng.randint(0, 3 * n)):
        edges.add(tuple(sorted(rng.sample(range(n), rng.choice([2, 2, 2, 3])))))
    return Hypergraph.from_named_edges(
        [(f"e{i}", [f"v{v}" for v in e]) for i, e in enumerate(sorted(edges))]
    )


def test_hw_search_matches_brute_force():
    rng = random.Random(11)
    widths = []
    for _ in range(300):
        h = _random_graph(rng)
        width = None
        for k in (1, 2, 3):
            td = hw_leq(h, k)
            assert (td is not None) == _brute_hw_leq(h, k), (h.serialize(), k)
            if td is not None:
                rep = validate_td(h, td, k=k, check_special=True)
                assert rep.ok, rep.failures
                width = width or k
        widths.append(width)
    assert widths.count(3) >= 5  # the corpus reaches every tested k
    assert {1, 2} <= set(widths)


def test_hw_certificate_on_h3():
    h = gallery("H3").hypergraph
    td = hw_leq(h, 4)
    rep = validate_td(h, td, k=4, check_special=True)
    assert rep.ok, rep.failures


# --- exhaustive enumeration -----------------------------------------------


def _isomorphism_class(td):
    """The rooted bag-forest with children (and roots) in sorted order."""

    def canon(u):
        return (td.bags[u], tuple(sorted(canon(c) for c in td.children(u))))

    return tuple(sorted(canon(r) for r in td.roots()))


def test_enumerated_trees_validate_and_are_distinct():
    h = _cycle(4)
    bags = soft_bags(h, 2)
    trees = enumerate_all_ctds(h, bags)
    assert trees
    seen = set()
    for td in trees:
        rep = validate_td(h, td, bag_masks=set(bags))
        assert rep.ok, rep.failures
        key = tuple(sorted(zip(td.bags, td.parents)))
        assert key not in seen
        seen.add(key)
    # The top-n graphs of acceptance criterion 5: no two enumerated
    # trees are isomorphic, so ranked enumeration needs no de-duplication.
    rng = random.Random(7)
    total = 0
    for _ in range(20):
        h = random_connected_hypergraph(rng, max_vertices=6, max_edges=5)
        bags = soft_bags(h, 2)
        random_stats(rng, h, list(bags))  # keeps criterion 5's random stream
        classes = [_isomorphism_class(td) for td in enumerate_all_ctds(h, bags)]
        assert len(classes) == len(set(classes))
        total += len(classes)
    assert total > 20_000


def test_enumeration_budget_raises():
    h = gallery("H2").hypergraph
    with pytest.raises(OracleBudgetError):
        enumerate_all_ctds(h, soft_bags(h, 2), max_steps=5)
