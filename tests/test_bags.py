import math
import random
from functools import reduce
from itertools import combinations, product
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softdecomp import (
    ResourceBudgetError,
    edge_cover_bags,
    gallery,
    iterate_level,
    soft_bags,
    soft_bags_level,
    solve,
    validate_td,
)
from softdecomp import bags as bags_module
from softdecomp.bags import (
    DEFAULT_MAX_STEPS,
    _component_unions_batch,
    _first_seen,
    _separator_unions,
    cover_union_masks,
    trimmed_next_pool,
)
from softdecomp.gallery import cycle, gallery_names
from softdecomp.hypergraph import Hypergraph, ids_of, mask_of, parse_hypergraph

from conftest import brute_component_unions, random_connected_hypergraph


# --- independent re-implementations used as oracles ----------------------


def brute_soft_bags(h, k):
    """Level-0 candidate bags straight from the definition."""
    masks = h.edge_masks
    bags = set()
    for s2 in range(k + 1):
        for lam2 in combinations(range(len(masks)), s2):
            sep = 0
            for i in lam2:
                sep |= masks[i]
            for comp in brute_component_unions(masks, sep):
                for s1 in range(1, k + 1):
                    for lam1 in combinations(range(len(masks)), s1):
                        u = 0
                        for i in lam1:
                            u |= masks[i]
                        b = u & comp
                        if b:
                            bags.add(b)
    return bags


def brute_cover_unions(edge_masks, k):
    out = set()
    for size in range(1, k + 1):
        for combo in combinations(range(len(edge_masks)), size):
            m = 0
            for i in combo:
                m |= edge_masks[i]
            out.add(m)
    return out


# --- level-0 enumeration ---------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_level0_bags_match_definition(seed, k):
    h = random_connected_hypergraph(random.Random(seed), max_vertices=6, max_edges=5)
    got = set(soft_bags(h, k).masks())
    assert got == brute_soft_bags(h, k)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_witnesses_reproduce_their_bags(seed, k):
    h = random_connected_hypergraph(random.Random(seed))
    bag_set = soft_bags(h, k)
    for m in bag_set.bags:
        lambda1, lambda2, component = bag_set.witness(m)
        cover = 0
        for i in lambda1:
            cover |= bag_set.pool[i]
        sep = 0
        for e in lambda2:
            sep |= h.edge_masks[e]
        assert len(lambda1) <= k and len(lambda2) <= k
        assert component in h.component_unions(sep)
        assert cover & component == m


def _first_witnesses(masks, k):
    """Union -> its first index combination of at most ``k`` masks, by a plain loop."""
    first = {}
    for size in range(k + 1):
        for combo in combinations(range(len(masks)), size):
            first.setdefault(reduce(or_, (masks[i] for i in combo), 0), combo)
    return first


@pytest.mark.parametrize("k", [2, 3])
def test_witness_is_the_first_combination(k):
    rng = random.Random(900 + k)
    for _ in range(20):
        h = random_connected_hypergraph(rng, max_vertices=8, max_edges=7)
        seps = _first_witnesses(h.edge_masks, k)
        for level in (0, 1):
            bag_set = soft_bags_level(h, k, level)
            covers = _first_witnesses(bag_set.pool, k)
            for m in bag_set.bags:
                lambda1, lambda2, _ = bag_set.witness(m)
                cover = reduce(or_, (bag_set.pool[i] for i in lambda1))
                sep = reduce(or_, (h.edge_masks[e] for e in lambda2), 0)
                assert covers[cover] == lambda1 and seps[sep] == lambda2


def test_h3prime_level0_certificate():
    # The decomposition behind H3prime's recorded shw = 3: every bag is
    # re-derived from its witness as union(lambda1) & union(C), with C a
    # [union(lambda2)]-component found by the brute-force closure above.
    entry = gallery("H3prime")
    h = entry.hypergraph
    assert entry.widths["shw"] == 3
    bag_set = soft_bags(h, 3)
    assert bag_set.pool == list(h.edge_masks)
    assert bag_set.origins == list(range(h.n_edges))
    td = solve(h, bag_set).decomposition
    for m in td.bags:
        lambda1, lambda2, component = bag_set.witness(m)
        assert len(lambda1) <= 3 and len(lambda2) <= 3
        cover = 0
        for i in lambda1:
            cover |= h.edge_masks[i]
        sep = 0
        for e in lambda2:
            sep |= h.edge_masks[e]
        assert component in brute_component_unions(h.edge_masks, sep)
        assert cover & component == m
    rep = validate_td(h, td, bag_masks=set(bag_set.masks()), k=3)
    assert rep.ok, rep.failures


def test_every_edge_is_a_level0_bag():
    h = gallery("C5").hypergraph
    masks = set(soft_bags(h, 1).masks())
    for m in h.edge_masks:
        assert m in masks


# --- iteration --------------------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_iteration_only_grows(seed, k):
    h = random_connected_hypergraph(random.Random(seed), max_vertices=6, max_edges=5)
    cur = soft_bags(h, k)
    nxt = iterate_level(cur)
    if nxt is not cur:
        assert set(cur.bags) <= set(nxt.bags)
        assert nxt.pool[:len(cur.pool)] == cur.pool
        assert nxt.origins[:len(cur.origins)] == cur.origins
        assert nxt.level == cur.level + 1


def test_iteration_reaches_fixpoint_on_cycle():
    h = gallery("C5").hypergraph
    cur = soft_bags(h, 2)
    for _ in range(10):
        nxt = iterate_level(cur)
        if nxt is cur:
            break
        cur = nxt
    assert nxt is cur


def test_soft_bags_level_matches_manual_iteration():
    h = gallery("H2").hypergraph
    manual = iterate_level(soft_bags(h, 2))
    assert set(soft_bags_level(h, 2, 1).bags) == set(manual.bags)
    assert soft_bags_level(h, 2, 0).level == 0


def reference_next_pool(prev):
    """The next level's pool as (mask, origin) pairs, by a plain double
    loop over members and bags; the old pool is its prefix."""
    pool = list(zip(prev.pool, prev.origins))
    seen = set(prev.pool)
    for sub, origin in zip(prev.pool, prev.origins):
        for b in prev.bags:
            m = sub & b
            if m and m not in seen:
                seen.add(m)
                pool.append((m, origin))
    return pool


def reference_trimmed_pool(prev):
    """``trimmed_next_pool`` with one set comprehension over all bags per member."""
    by_origin = {}
    for sub, origin in zip(prev.pool, prev.origins):
        for m in {sub & bm for bm in prev.bags}:
            if m and m != sub and m.bit_count() >= 2:
                by_origin.setdefault(origin, set()).add(m)
    pool = list(zip(prev.pool, prev.origins))
    seen = set(prev.pool)
    for orig in sorted(by_origin):
        cands = by_origin[orig]
        for m in sorted(cands, key=ids_of):
            if m not in seen and not any(o != m and not m & ~o for o in cands):
                seen.add(m)
                pool.append((m, orig))
    return pool


def reference_sub_edges(members, bags):
    """Per member, its distinct nonzero intersections with the bags, each
    mapped to its first bag index."""
    out = []
    for p in members:
        first = {}
        for j, b in enumerate(bags):
            if p & b:
                first.setdefault(p & b, j)
        out.append(first)
    return out


def h3prime_all():
    """H3prime plus one edge over all its vertices."""
    h = gallery("H3prime").hypergraph
    edges = [(e, [h.vertex_names[v] for v in vs])
             for e, vs in zip(h.edge_names, h.edge_vertex_ids)]
    return Hypergraph.from_named_edges([*edges, ("all", list(h.vertex_names))])


def wide12():
    """14 edges of 12 vertices each, drawn from 30."""
    rng = random.Random(7)
    names = [f"v{i}" for i in range(30)]
    return Hypergraph.from_named_edges([(f"e{i}", rng.sample(names, 12)) for i in range(14)])


def _pool_cases():
    """(name, level-0 bag set): the gallery at k = 2, 3 and two inputs
    whose wide edges take the per-row path."""
    for name in gallery_names():
        for k in (2, 3):
            yield f"{name} k={k}", soft_bags(gallery(name).hypergraph, k)
    yield "H3prime+all k=3", soft_bags(h3prime_all(), 3)
    for k in (2, 3):
        yield f"wide12 k={k}", soft_bags(wide12(), k)


def test_next_level_pool_is_intersection_closure():
    # Same members, origins and order as the double loop over (member, bag).
    # The step budget is set to what the whole pool needs.
    for name, lvl0 in _pool_cases():
        want = reference_next_pool(lvl0)
        steps = bags_module._n_combos(len(want), lvl0.k)
        got = list(zip(*bags_module._next_pool(lvl0, steps)))
        assert got == want, name
        if len(want) > len(lvl0.pool):
            with pytest.raises(ResourceBudgetError):
                bags_module._next_pool(lvl0, steps - 1)


def test_next_level_pool_on_random_graphs_over_two_levels():
    rng = random.Random(1515)
    for _ in range(40):
        h = random_connected_hypergraph(rng, max_vertices=9, max_edges=8, max_arity=8)
        k = rng.randint(1, 3)
        cur = soft_bags(h, k)
        for _ in range(2):
            nxt = iterate_level(cur)
            want = reference_next_pool(cur)
            assert list(zip(nxt.pool, nxt.origins)) == want
            assert nxt.level == cur.level + (nxt is not cur)
            cur = nxt


@pytest.mark.parametrize("split_arity", [0, bags_module._SPLIT_ARITY, 64])
def test_sub_edges_match_a_plain_loop(monkeypatch, split_arity):
    # Every member split, the default rule, and every member per row,
    # each with the row path in numpy and in pure Python.
    monkeypatch.setattr(bags_module, "_SPLIT_ARITY", split_arity)
    rng = random.Random(split_arity)
    graphs = [random_connected_hypergraph(rng, max_vertices=12, max_edges=10, max_arity=9)
              for _ in range(15)]
    for h in graphs + [wide12(), gallery("H2").hypergraph]:
        bs = soft_bags(h, 2)
        members, masks = bs.pool, list(bs.bags)
        want = [list(d.items()) for d in reference_sub_edges(members, masks)]
        for got in _both_paths(
            monkeypatch, lambda: bags_module._sub_edges(members, masks, h.n_vertices)
        ):
            assert [list(d.items()) for d in got] == want


def test_sub_edges_above_64_vertices():
    bs = soft_bags(cycle(65), 2)
    members, masks = bs.pool, list(bs.bags)
    got = bags_module._sub_edges(members, masks, 65)
    want = reference_sub_edges(members, masks)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]


def test_trimmed_next_pool_matches_the_comprehension():
    # Not on H3prime+all: the oracle's pairwise maximality check is
    # quadratic in the 27k sub-edges of its edge over all vertices.
    cases = [(name, bs) for name, bs in _pool_cases() if name != "H3prime+all k=3"]
    rng = random.Random(2024)
    for i in range(20):
        h = random_connected_hypergraph(rng, max_vertices=9, max_edges=8, max_arity=8)
        cases.append((f"random {i}", soft_bags(h, rng.randint(1, 3))))
    for name, lvl0 in cases:
        got = list(zip(*trimmed_next_pool(lvl0)))
        assert got == reference_trimmed_pool(lvl0), name


# --- cover unions and counting views ----------------------------------------


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_cover_union_masks_are_exactly_small_unions(seed, k):
    h = random_connected_hypergraph(random.Random(seed))
    pool = list(h.edge_masks)
    got = cover_union_masks(pool, k)
    assert set(got) == brute_cover_unions(pool, k)
    assert len(got) == len(set(got))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_edge_cover_bags_drop_strict_subedge_unions(seed, k):
    h = random_connected_hypergraph(random.Random(seed))
    got = edge_cover_bags(h, k)
    want = {
        m
        for m in brute_cover_unions(h.edge_masks, k)
        if not any(m != em and m & ~em == 0 for em in h.edge_masks)
    }
    assert set(got) == want
    for m, combo in got.items():
        u = 0
        for i in combo:
            u |= h.edge_masks[i]
        assert u == m


def test_connected_filter_rejects_disconnected_covers():
    # r(a,b) and t(c,d) are disjoint, so their union needs the bridge
    from softdecomp import parse_hypergraph

    h = parse_hypergraph("r(a,b), s(b,c), t(c,d)")
    all_bags = edge_cover_bags(h, 2)
    conn = edge_cover_bags(h, 2, connected=True)
    rt = h.edge_masks[0] | h.edge_masks[2]
    assert rt in all_bags and rt not in conn
    assert set(conn) <= set(all_bags)


def test_first_seen_keeps_first_occurrences():
    rng = random.Random(5)
    for bits in (12, 63):  # packed sort keys, and the np.unique fallback
        choices = [rng.getrandbits(bits) for _ in range(50)]
        values = [rng.choice(choices) for _ in range(2_000)]
        uniq, pos = _first_seen(np.array(values, dtype=np.uint64))
        want = {}
        for i, v in enumerate(values):
            want.setdefault(v, i)
        assert uniq.tolist() == list(want)
        assert pos.tolist() == list(want.values())


# --- numpy and pure-Python twins ---------------------------------------------

_FORCE_NUMPY, _FORCE_PYTHON = 0, 10**9


def _both_paths(monkeypatch, build):
    """``build()`` with every size gate forcing numpy, then pure Python."""
    out = []
    for threshold in (_FORCE_NUMPY, _FORCE_PYTHON):
        monkeypatch.setattr(bags_module, "_NUMPY_THRESHOLD", threshold)
        out.append(build())
    return out


def _python_component_entries(h, k):
    """The reference loop: components of each separator, first seen kept."""
    entries, seen = [], set()
    for sep in _separator_unions(h, k, DEFAULT_MAX_STEPS):
        for union in h.component_unions(sep):
            if union not in seen:
                seen.add(union)
                entries.append((union, sep))
    return tuple(entries)


@pytest.mark.parametrize("k", [2, 3])
def test_twins_keep_discovery_order(monkeypatch, k):
    # Pool order, bag order and witnesses must not depend on which path ran.
    rng = random.Random(400 + k)
    for _ in range(30):
        h = random_connected_hypergraph(rng, max_vertices=8, max_edges=7)

        def build():
            out = []
            for level in (0, 1):
                bs = soft_bags_level(h, k, level)
                pool = list(zip(bs.pool, bs.origins))
                out.append((pool, bs.level, list(bs.bags), bs.serialize()))
            return out

        numpy_side, python_side = _both_paths(monkeypatch, build)
        assert numpy_side == python_side


@pytest.mark.parametrize("max_vertices", [6, 20, 64])
def test_component_unions_batch_matches_one_by_one(max_vertices):
    rng = random.Random(max_vertices)
    for _ in range(10):
        h = random_connected_hypergraph(rng, max_vertices=max_vertices, max_edges=80)
        full = h.all_vertices_mask
        seps = [0, full] + [rng.getrandbits(h.n_vertices) & full for _ in range(40)]
        owner, comps, unions = _component_unions_batch(h, np.array(seps, dtype=np.uint64))
        want = [(i, c, u) for i, sep in enumerate(seps)
                for c, u in h.component_neighborhoods(sep)]
        assert list(zip(owner.tolist(), comps.tolist(), unions.tolist())) == want


def test_component_unions_batch_of_nothing():
    h = parse_hypergraph("r(a,b), s(b,c)")
    for seps in ([h.all_vertices_mask], []):
        owner, comps, unions = _component_unions_batch(h, np.array(seps, dtype=np.uint64))
        assert len(owner) == len(comps) == len(unions) == 0


def _component_entry_graphs():
    rng = random.Random(64)
    graphs = [(random_connected_hypergraph(rng, max_vertices=20, max_edges=12), 3)
              for _ in range(20)]
    graphs += [(random_connected_hypergraph(rng, max_vertices=64, max_edges=80), 2)
               for _ in range(4)]
    # disconnected, and with an edge (so a separator) covering every vertex
    graphs.append((parse_hypergraph("r(a,b), s(b,c), t(d,e), u(f), v(g,h,a)"), 3))
    graphs.append((parse_hypergraph("all(a,b,c,d,e), r(a,b), s(b,c), t(d,e)"), 3))
    graphs.append((cycle(64), 2))
    return graphs


def test_component_entries_twins_agree(monkeypatch):
    for h, kmax in _component_entry_graphs():
        assert h.n_vertices <= 64
        for k in range(1, kmax + 1):
            seps = _separator_unions(h, k, DEFAULT_MAX_STEPS)
            numpy_side, python_side = _both_paths(
                monkeypatch, lambda: bags_module._component_entries(h, seps)
            )
            assert numpy_side == python_side == _python_component_entries(h, k)


def test_component_entries_above_64_vertices_use_python(monkeypatch):
    h = cycle(70)
    for k in (1, 2):
        seps = _separator_unions(h, k, DEFAULT_MAX_STEPS)
        numpy_side, python_side = _both_paths(
            monkeypatch, lambda: bags_module._component_entries(h, seps)
        )
        assert numpy_side == python_side == _python_component_entries(h, k)


@pytest.mark.parametrize("name,k", [("H2", 2), ("H3", 3)])  # Python, then numpy
def test_separator_budget_boundary(name, k):
    h = gallery(name).hypergraph
    steps = sum(math.comb(h.n_edges, size) for size in range(k + 1))
    seps = _separator_unions(h, k, steps)
    assert seps[0] == 0
    with pytest.raises(ResourceBudgetError):
        _separator_unions(h, k, steps - 1)


def test_separator_unions_match_a_plain_loop(monkeypatch):
    cases = [(name, k) for name in ("H2", "H3") for k in (1, 2, 3)]
    for (name, k), threshold in product(cases, (_FORCE_NUMPY, bags_module._NUMPY_THRESHOLD)):
        monkeypatch.setattr(bags_module, "_NUMPY_THRESHOLD", threshold)
        h = gallery(name).hypergraph
        want, seen = [], set()
        for size in range(k + 1):
            for combo in combinations(range(h.n_edges), size):
                m = 0
                for i in combo:
                    m |= h.edge_masks[i]
                if m not in seen:
                    seen.add(m)
                    want.append(m)
        assert _separator_unions(h, k, DEFAULT_MAX_STEPS) == want


# --- resource budgets --------------------------------------------------------


def test_step_budget_raises():
    h = gallery("H2").hypergraph
    with pytest.raises(ResourceBudgetError):
        soft_bags(h, 2, max_steps=3)
    with pytest.raises(ResourceBudgetError):
        edge_cover_bags(h, 2, max_steps=3)


def test_next_pool_stops_at_the_step_budget(monkeypatch):
    # The next pool of H3prime plus an edge over all its vertices has
    # 27,836 members at k=3, but the combinations of 1..3 of 392 members
    # already exceed the default budget: the pool stops growing at 391,
    # and the loop reads no sub-edge past the first one that would be
    # member 392.
    lvl0 = soft_bags(h3prime_all(), 3)
    read = []
    real = bags_module._sub_edges

    def counted(subs):
        for m in subs:
            read.append(m)
            yield m

    monkeypatch.setattr(bags_module, "_sub_edges",
                        lambda *args: [counted(subs) for subs in real(*args)])
    with pytest.raises(ResourceBudgetError, match="cover enumeration exceeded step budget"):
        iterate_level(lvl0)
    old = set(lvl0.pool)
    new = [m for m in dict.fromkeys(read) if m not in old]
    assert len(lvl0.pool) + len(new) == 392
    assert read[-1] == new[-1]


def test_bag_budget_raises():
    h = gallery("H2").hypergraph
    with pytest.raises(ResourceBudgetError):
        soft_bags(h, 2, max_bags=2)
