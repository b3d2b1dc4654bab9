import random

import pytest
from hypothesis import given, strategies as st

from softdecomp import Hypergraph, HypergraphError, parse_hypergraph
from softdecomp.hypergraph import bit_columns, ids_of, mask_of, popcount

from conftest import brute_component_unions, random_connected_hypergraph


def test_mask_helpers_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert ids_of(0b101001) == (0, 3, 5)
    assert popcount(0b101001) == 3
    assert ids_of(0) == ()


@pytest.mark.parametrize("n", [1, 8, 64, 65, 130])
def test_bit_columns_match_a_per_bit_comprehension(n):
    rng = random.Random(n)
    for count in (0, 1, 7, 300):
        masks = [rng.getrandbits(n) for _ in range(count)]
        masks += masks[: count // 3] + [0, (1 << n) - 1] * (count > 0)  # duplicates, extremes
        want = [sum(1 << j for j, m in enumerate(masks) if m >> v & 1) for v in range(n)]
        assert bit_columns(n, masks) == want


def test_bit_columns_of_no_masks():
    assert bit_columns(5, []) == [0] * 5
    assert bit_columns(0, []) == []


def test_parse_and_serialize_roundtrip():
    text = "r(a,b),\ns(b,c) % trailing comment\nt(c,a)\n"
    h = parse_hypergraph(text)
    assert h.vertex_names == ("a", "b", "c")
    assert h.edge_names == ("r", "s", "t")
    again = parse_hypergraph(h.serialize())
    assert again == h


def test_parse_rejects_garbage():
    with pytest.raises(HypergraphError):
        parse_hypergraph("r(a,b) junk s(b,c)")
    with pytest.raises(HypergraphError):
        parse_hypergraph("r(a,b), r(b,c)")  # duplicate edge name
    with pytest.raises(HypergraphError):
        parse_hypergraph("r()")
    with pytest.raises(HypergraphError):
        parse_hypergraph("   ")


def test_isolated_vertices_rejected_unless_wrapped():
    with pytest.raises(HypergraphError):
        Hypergraph(("a", "z"), ("r",), ((0,),))


def test_duplicate_vertex_sets_allowed():
    h = parse_hypergraph("r(a,b), s(a,b)")
    assert h.n_edges == 2 and h.edge_masks[0] == h.edge_masks[1]


def _path(n):
    return Hypergraph.from_named_edges(
        [(f"e{i}", [f"v{i}", f"v{i+1}"]) for i in range(n - 1)]
    )


def test_components_of_path_split_by_middle_vertex():
    h = _path(5)  # v0-v1-v2-v3-v4
    sep = mask_of([h.vertex_names.index("v2")])
    unions = h.component_unions(sep)
    assert len(unions) == 2
    # the separator vertex is pulled into both unions by the touching edges
    left, right = unions
    assert ids_of(left) == tuple(h.vertex_names.index(v) for v in ("v0", "v1", "v2"))
    assert ids_of(right) == tuple(h.vertex_names.index(v) for v in ("v2", "v3", "v4"))


def test_full_separator_leaves_nothing():
    h = parse_hypergraph("r(a,b), s(b,c)")
    assert h.component_unions(h.all_vertices_mask) == []
    assert h.component_unions(0) == [h.all_vertices_mask]  # connected


@given(st.integers(0, 10_000), st.integers(0, 255))
def test_component_unions_match_edge_components(seed, sep_bits):
    # The edge components by pairwise closure, against the vertex closure.
    h = random_connected_hypergraph(random.Random(seed))
    sep = sep_bits & h.all_vertices_mask
    got = h.component_unions(sep)
    assert sorted(got) == sorted(brute_component_unions(h.edge_masks, sep))
    # Ordered by smallest member vertex outside the separator.
    firsts = [(u & ~sep & -(u & ~sep)) for u in got]
    assert firsts == sorted(firsts)


@given(st.integers(0, 10_000), st.integers(0, 255))
def test_components_partition_free_vertices(seed, sep_bits):
    h = random_connected_hypergraph(random.Random(seed))
    sep = sep_bits & h.all_vertices_mask
    comps = h.vertex_components(sep)
    union = 0
    for c in comps:
        assert c and not (c & sep)
        assert not (c & union)  # pairwise disjoint
        union |= c
    assert union == h.all_vertices_mask & ~sep
