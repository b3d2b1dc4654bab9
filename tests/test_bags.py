import ast
import math
import pathlib
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
    _distinct,
    _ints,
    _separator_unions,
    cover_union_masks,
)
from softdecomp.gallery import cycle, gallery_names
from softdecomp.hypergraph import (
    Hypergraph, bit_columns, mask_of, parse_hypergraph, popcount,
)

from conftest import (
    FORCE_NUMPY,
    FORCE_PYTHON,
    brute_component_unions,
    force_bag_paths,
    random_connected_hypergraph,
)


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


def test_witness_of_a_non_bag_raises():
    # Every mask over C5's vertices that is not a bag, the empty one
    # first: a search that gave up with None would pass unseen.
    h = gallery("C5").hypergraph
    bag_set = soft_bags(h, 1)
    others = [m for m in range(1 << h.n_vertices) if m not in set(bag_set.bags)]
    assert others[0] == 0 and len(others) > 1
    for m in others:
        with pytest.raises(KeyError):
            bag_set.witness(m)


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


def test_iteration_reaches_fixpoint_on_cycle(monkeypatch):
    h = gallery("C5").hypergraph
    cur = soft_bags(h, 2)
    for _ in range(10):
        nxt = iterate_level(cur)
        if nxt is cur:
            break
        cur = nxt
    assert nxt is cur

    # Once the pool stops growing, neither covers nor bags can change, so
    # the fixpoint is found before any cover union is formed.
    def no_covers(*args):
        raise AssertionError("cover unions formed at a fixpoint")

    monkeypatch.setattr(bags_module, "_cover_unions", no_covers)
    assert iterate_level(cur) is cur


def test_soft_bags_level_matches_manual_iteration():
    h = gallery("H2").hypergraph
    manual = iterate_level(soft_bags(h, 2))
    assert set(soft_bags_level(h, 2, 1).bags) == set(manual.bags)
    assert soft_bags_level(h, 2, 0).level == 0


def reference_next_pool(prev):
    """The next level's pool as (mask, origin) pairs, by a plain loop over
    the members, each adding its new intersections with the bags in
    ascending order; the old pool is its prefix."""
    pool = list(zip(prev.pool, prev.origins))
    seen = set(prev.pool)
    for sub, origin in zip(prev.pool, prev.origins):
        for m in sorted({sub & b for b in prev.bags}):
            if m and m not in seen:
                seen.add(m)
                pool.append((m, origin))
    return pool


def reference_sub_edges(members, bags):
    """Per member, its distinct nonzero intersections with the bags, ascending."""
    return [sorted({p & b for b in bags if p & b}) for p in members]


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
    # Same members, origins and order as the plain loop over members.
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
        want = reference_sub_edges(members, masks)
        for got in _both_paths(
            monkeypatch, lambda: bags_module._sub_edges(members, masks, h.n_vertices)
        ):
            assert got == want


def test_sub_edges_above_64_vertices():
    bs = soft_bags(cycle(65), 2)
    members, masks = bs.pool, list(bs.bags)
    assert bags_module._sub_edges(members, masks, 65) == reference_sub_edges(members, masks)


# --- cover unions and counting views ----------------------------------------


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_cover_union_masks_are_exactly_small_unions(seed, k):
    h = random_connected_hypergraph(random.Random(seed))
    pool = list(h.edge_masks)
    assert cover_union_masks(pool, k) == sorted(brute_cover_unions(pool, k))


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


def test_distinct_is_the_sorted_set(monkeypatch):
    rng = random.Random(5)
    n = 2_000
    widest = (bags_module._DENSE_RATIO * n).bit_length() - 1  # widest w with a table
    flags = []  # the table sizes np.zeros is asked for, which only the table path does
    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda size, dtype: flags.append(size) or zeros(size, dtype))
    # Tables of 16 cells and at the ratio's edge, then a sort just past
    # it and at 64 bits, with the top bit set.
    for bits, table in ((4, True), (widest, True), (widest + 1, False), (64, False)):
        choices = [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(48)]
        values = [rng.choice(choices) for _ in range(n)]
        flags.clear()
        got = _distinct(np.array(values, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == sorted(set(values))
        assert bool(flags) == table
    for values in ([], [0], [1 << 63], [5], [0, 0, 0]):
        got = _distinct(np.array(values, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == sorted(set(values))


# --- numpy and pure-Python twins ---------------------------------------------

def _both_paths(monkeypatch, build):
    """``build()`` with every size gate forcing numpy, then pure Python."""
    out = []
    for threshold in (FORCE_NUMPY, FORCE_PYTHON):
        force_bag_paths(monkeypatch, threshold)
        out.append(build())
    return out


def test_forced_gates_reach_both_combo_paths(monkeypatch):
    # Forcing pure Python must keep _combo_unions off numpy, and forcing
    # numpy must take it there, or the twin tests compare a path with itself.
    calls = []
    distinct = bags_module._distinct_blocks
    monkeypatch.setattr(bags_module, "_distinct_blocks",
                        lambda blocks, width, n: calls.append(n) or distinct(blocks, width, n))
    masks = list(gallery("H2").hypergraph.edge_masks)

    def build():
        calls.clear()
        return [int(m) for m in bags_module._combo_unions(masks, 2)], len(calls)

    (numpy_unions, numpy_calls), (python_unions, python_calls) = _both_paths(monkeypatch, build)
    assert numpy_unions == python_unions
    assert (numpy_calls, python_calls) == (1, 0)


def _python_component_entries(h, k):
    """The reference loop: components of each separator, first seen kept
    with its separator, then sorted by union."""
    entries, seen = [], set()
    for sep in _ints(_separator_unions(h, k, DEFAULT_MAX_STEPS)):
        for union in h.component_unions(sep):
            if union not in seen:
                seen.add(union)
                entries.append((union, sep))
    return tuple(sorted(entries))


def _chain_hypergraph(rng, n):
    """``n`` vertices on a chain of six edges, each sharing a vertex with
    the next, plus two edges of random vertices."""
    cuts = sorted(rng.sample(range(1, n - 1), 5))
    bounds = [0, *cuts, n - 1]
    edges = [range(a, b + 1) for a, b in zip(bounds, bounds[1:])]
    edges += [rng.sample(range(n), rng.randint(2, 4)) for _ in range(2)]
    return Hypergraph.from_named_edges(
        [(f"e{i}", [f"v{v}" for v in sorted(vs)]) for i, vs in enumerate(edges)])


@pytest.mark.parametrize("k", [2, 3])
def test_twins_agree_in_ascending_order(monkeypatch, k):
    # Pools, bags, component entries, cover unions and witnesses must
    # not depend on which path ran, nor on how many row blocks a numpy
    # path takes: at 7 intersections per block, a block holds one row or
    # a few.  The masks of the 57-64-vertex chains are too wide for a
    # flag table, so _distinct sorts them under FORCE_NUMPY.
    blocks = (bags_module._BLOCK, 7)
    rng = random.Random(400 + k)
    graphs = [random_connected_hypergraph(rng, max_vertices=8, max_edges=7) for _ in range(30)]
    graphs += [_chain_hypergraph(rng, n) for n in (57, 61, 64)]
    for h in graphs:

        def build():
            out = []
            for level in (0, 1):
                bs = soft_bags_level(h, k, level)
                for masks in (bs.bags, bs.components, bs.covers):
                    assert list(masks) == sorted(set(masks))
                pool = list(zip(bs.pool, bs.origins))
                out.append((pool, bs.level, bs.bags, bs.components, bs.covers, bs.serialize()))
            return out

        sides = []
        for block in blocks:
            monkeypatch.setattr(bags_module, "_BLOCK", block)
            sides.extend(_both_paths(monkeypatch, build))
        assert all(side == sides[0] for side in sides)


def _handoff_cases():
    """(label, hypergraph, k, level): random graphs, then the largest
    gallery bag set, whose bags and covers stay uint64 arrays."""
    rng = random.Random(2626)
    for i in range(12):
        h = random_connected_hypergraph(rng, max_vertices=14, max_edges=12, max_arity=5)
        yield f"random {i}", h, rng.randint(1, 3), rng.randint(0, 1)
    yield "H3prime L1 k=3", gallery("H3prime").hypergraph, 3, 1


def test_bag_sets_hand_out_python_ints_on_both_paths(monkeypatch):
    for label, h, k, level in _handoff_cases():

        def build():
            bs = soft_bags_level(h, k, level)
            assert type(bs.bags) is tuple and type(bs.covers) is list, label
            assert all(type(m) is int for m in (*bs.bags, *bs.covers)), label
            assert all(type(m) is int for m in bs.pool), label
            assert len(bs) == len(bs.bags), label
            return bs.bags, bs.covers, bs.components, bs.pool

        numpy_side, python_side = _both_paths(monkeypatch, build)
        assert numpy_side == python_side, label


def test_candidate_index_reads_the_bag_set_array(monkeypatch):
    for label, h, k, level in _handoff_cases():
        force_bag_paths(monkeypatch, FORCE_NUMPY)
        bs = soft_bags_level(h, k, level)
        monkeypatch.undo()
        assert isinstance(bs.bag_masks, np.ndarray), label
        n = h.n_vertices
        got = _plain_index(bags_module.candidate_index(n, bs))
        assert got == _plain_index(bags_module.candidate_index(n, list(bs.bags))), label
        assert all(type(m) is int for m in got[0]), label
        assert got[2] == got[0], label


def test_sub_edges_index_in_numpy_matches_bit_columns(monkeypatch):
    # The split index built in numpy from the bags' uint64 array must give
    # the lists that bit_columns over the same bags as ints gives.
    unpacked = []
    real = np.unpackbits
    monkeypatch.setattr(np, "unpackbits", lambda *a, **kw: unpacked.append(1) or real(*a, **kw))
    for label, h, k, _ in [*_handoff_cases(), ("H3 k=3", gallery("H3").hypergraph, 3, 0)]:
        bs = soft_bags(h, k)
        arr = np.array(bs.bags, dtype=np.uint64)
        n = h.n_vertices
        force_bag_paths(monkeypatch, FORCE_NUMPY)
        unpacked.clear()
        got = bags_module._sub_edges(bs.pool, arr, n)
        assert unpacked or not len(arr), label
        assert bags_module._bit_columns(n, arr) == bit_columns(n, list(bs.bags)), label
        force_bag_paths(monkeypatch, FORCE_PYTHON)
        unpacked.clear()
        assert got == bags_module._sub_edges(bs.pool, list(bs.bags), n), label
        assert not unpacked, label
        assert got == reference_sub_edges(bs.pool, bs.bags), label
        assert all(type(m) is int for subs in got for m in subs), label


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



def plain_byte_tables(rows, n):
    """The per-byte OR tables of the int masks ``rows[0..n-1]``, one
    Python loop per byte: entry ``[b][x]`` ORs ``rows[8 * b + i]`` over
    the bits ``i`` of ``x``, vertices past ``n`` adding nothing."""
    tables = []
    for b in range((n + 7) // 8):
        unions = [0] * 256
        for x in range(1, 256):
            v = 8 * b + (x & -x).bit_length() - 1
            unions[x] = unions[x & (x - 1)] | (rows[v] if v < n else 0)
        tables.append(unions)
    return tables


def _words_to_int(words):
    return sum(int(w) << 64 * i for i, w in enumerate(words))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 63, 64])
def test_byte_tables_match_a_plain_loop(n):
    rng = random.Random(n)
    # n vertices: a path, then random edges
    named = [(f"p{v}", [f"v{v}", f"v{v + 1}"]) for v in range(n - 1)] or [("e", ["v0"])]
    named += [(f"e{i}", [f"v{v}" for v in rng.sample(range(n), min(n, 3))]) for i in range(n)]
    h = Hypergraph.from_named_edges(named)
    assert h.n_vertices == n
    assert bags_module._adjacency_bytes(h).tolist() == plain_byte_tables(h.adjacency, n)
    rows = [rng.getrandbits(64) for _ in range(n)]
    got = bags_module._byte_tables(np.array(rows, dtype=np.uint64).reshape(-1, 1))
    assert got.shape == ((n + 7) // 8, 256, 1)
    assert got[:, :, 0].tolist() == plain_byte_tables(rows, n)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 63, 64])
def test_incidence_tables_match_a_plain_loop(n):
    rng = random.Random(n)
    for m in (0, 1, 63, 64, 65, 129):
        edges = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(m)]
        # Row v of the incidence: bit j set when vertex v lies in edges[j].
        want = [sum(1 << j for j, e in enumerate(edges) if e >> v & 1) for v in range(n)]
        incidence = bags_module._incidence(n, edges)
        assert incidence.shape == (n, -(-m // 64))
        assert [_words_to_int(row) for row in incidence] == want
        got = bags_module._byte_tables(incidence)
        assert [[_words_to_int(entry) for entry in table] for table in got] == (
            plain_byte_tables(want, n))


def test_table_indexes_stay_below_two_to_the_63(monkeypatch):
    # The flag table of _distinct_blocks reads its values as int64
    # indexes; every value handed to it is below 2 ** width, so the table
    # path sees small values and the sort path takes the 64-bit ones.
    paths = []
    real = bags_module._distinct_blocks

    def checked(blocks, width, n):
        table = 1 << width <= bags_module._DENSE_RATIO * n
        paths.append(table)

        def each():
            for values in blocks:
                assert not len(values) or int(values.max()) < 1 << width
                yield values
        return real(each(), width, n)

    monkeypatch.setattr(bags_module, "_distinct_blocks", checked)
    rng = random.Random(63)
    top = [1 << 63 | rng.getrandbits(64) for _ in range(30)] + [1 << 63, (1 << 64) - 1]
    wide = top + [rng.getrandbits(64) for _ in range(30)]
    # At the ratio's edge: the widest values that still get a table.
    ratio = bags_module._DENSE_RATIO
    rows = [1 << 9 | rng.getrandbits(9) for _ in range(4)]
    cols = [1 << 9 | rng.getrandbits(9) for _ in range(64)]  # 256 pairs of width 10
    narrow = [1 << 6 | rng.getrandbits(6) for _ in range(10)]  # width 7, 55 combos
    dense = [1 << 9] + [rng.getrandbits(10) for _ in range(255)]  # width 10, 256 values
    assert 1 << 10 == ratio * len(rows) * len(cols) == ratio * len(dense)
    assert 1 << 7 <= ratio * 55 < 1 << 8
    for threshold in (FORCE_NUMPY, FORCE_PYTHON):
        force_bag_paths(monkeypatch, threshold)
        for values in (wide, dense):
            paths.clear()
            got = _distinct(np.array(values, dtype=np.uint64))
            assert got.tolist() == sorted(set(values))
            assert paths == [values is not wide]
        for a, b in ((top, wide), (rows, cols)):
            paths.clear()
            got = bags_module._intersections(a, b)
            assert _ints(got) == sorted({x & y for x in a for y in b} - {0})
            assert paths == ([b is cols] if threshold == FORCE_NUMPY else [])
        for masks, k in ((wide, 3), (narrow, 2)):
            paths.clear()
            got = bags_module._combo_unions(masks, k)
            assert _ints(got) == sorted({reduce(or_, c) for size in range(1, k + 1)
                                         for c in combinations(masks, size)})
            assert paths == ([masks is narrow] if threshold == FORCE_NUMPY else [])


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


def _plain_index(index):
    """``candidate_index``'s ``(bags, has, arr)`` with ``arr`` as ints."""
    bags, has, arr = index
    return bags, has, None if arr is None else arr.tolist()


def _index_both_paths(monkeypatch, n, masks):
    """``candidate_index(n, masks)`` forced to numpy, then to pure Python,
    each with its number of ``np.bitwise_count`` calls, which only the
    numpy path makes."""
    calls = []
    real = np.bitwise_count
    monkeypatch.setattr(np, "bitwise_count", lambda a: calls.append(len(a)) or real(a))

    def build():
        calls.clear()
        index = _plain_index(bags_module.candidate_index(n, masks))
        return index, len(calls)

    return _both_paths(monkeypatch, build)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 57, 63, 64])
def test_candidate_index_twins(monkeypatch, n):
    rng = random.Random(n)
    lists = [[], [0]]
    for size in (1, 6, 300, 1000):
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(size)]
        masks += rng.choices(masks, k=size // 2) + [0] * (size % 5)
        rng.shuffle(masks)
        lists.append(masks)
    if n == 64:  # the top bit of a uint64 word
        lists += [[m | 1 << 63 for m in lists[-1]], [1 << 63, 0, 1 << 63, 1]]
    for masks in lists:
        want = sorted(set(masks) - {0}, key=lambda m: (-popcount(m), m))
        (numpy_side, numpy_calls), (python_side, python_calls) = _index_both_paths(
            monkeypatch, n, masks)
        assert numpy_side == python_side == (want, bit_columns(n, want), want)
        assert (numpy_calls > 0, python_calls) == (bool(masks), 0)


def test_candidate_index_above_64_vertices_uses_python(monkeypatch):
    h = cycle(65)
    masks = list(soft_bags(h, 1).bags)
    want = sorted(masks, key=lambda m: (-popcount(m), m))
    (numpy_side, numpy_calls), (python_side, python_calls) = _index_both_paths(
        monkeypatch, h.n_vertices, masks)
    assert numpy_side == python_side == (want, bit_columns(h.n_vertices, want), None)
    assert numpy_calls == python_calls == 0


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
    gates = (FORCE_NUMPY, FORCE_PYTHON, None)  # None keeps the measured gates
    for (name, k), threshold in product(cases, gates):
        monkeypatch.undo()
        if threshold is not None:
            force_bag_paths(monkeypatch, threshold)
        h = gallery(name).hypergraph
        want = set()
        for size in range(k + 1):
            for combo in combinations(range(h.n_edges), size):
                m = 0
                for i in combo:
                    m |= h.edge_masks[i]
                want.add(m)
        assert _ints(_separator_unions(h, k, DEFAULT_MAX_STEPS)) == sorted(want)


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


def test_only_bags_imports_numpy():
    # The vectorized kernels live in the bag layer; every other module runs
    # on Python ints, so numpy stays out of their imports.
    def imported(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module.split(".")[0]

    sources = sorted(pathlib.Path(bags_module.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    assert [p.name for p in sources if "numpy" in set(imported(p))] == ["bags.py"]
