#!/usr/bin/env python3
"""Exhaustive 3-edge separator scan on the H3prime gallery hypergraph.

The gallery records a level-0 soft width of 3 for H3prime (against a
hypertree width of 4).  This scan shows where the width-3 level-0
decomposition comes from: it enumerates every 3-edge separator and lists
those whose union swallows all edges touching the apex vertex 4' while
one remaining edge-component still spans the grid blocks and the root
vertices {3, 0, 0'}.  Each hit yields a level-0 candidate root bag at
k=3, so the level-0 solver accepts at k=3 (acceptance criterion 1; the
bag-by-bag certificate is checked in tests/test_bags.py).
"""

import argparse
from itertools import combinations

from softdecomp import gallery, soft_bags, solve, validate_td
from softdecomp.hypergraph import ids_of, mask_of


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=10, help="stop after this many hits")
    args = parser.parse_args()

    h = gallery("H3prime").hypergraph
    vid = {name: i for i, name in enumerate(h.vertex_names)}
    apex = 1 << vid["4'"]
    blocks = mask_of(
        vid[x] for x in ("g11", "g12", "g21", "g22", "h11", "h12", "h21", "h22")
    )
    root_rest = mask_of(vid[x] for x in ("3", "0", "0'"))

    hits = []
    masks = h.edge_masks
    for combo in combinations(range(len(masks)), 3):
        sep = masks[combo[0]] | masks[combo[1]] | masks[combo[2]]
        if not sep & apex:
            continue
        for union in h.component_unions(sep):
            if not union & apex and not (blocks | root_rest) & ~union:
                hits.append(tuple(h.edge_names[e] for e in combo))
                break
        if len(hits) >= args.limit:
            break

    print(f"separators isolating 4' while keeping the blocks and {{3,0,0'}} (first {args.limit}):")
    for names in hits:
        print("  {" + ", ".join(names) + "}")

    bags = soft_bags(h, 3)
    root = blocks | root_rest
    print(f"\nroot bag blocks+{{3,0,0'}} in the level-0 candidate set: {root in set(bags.bags)}")
    res = solve(h, bags)
    print(f"level-0 solver at k=3 accepts: {res.accepted}")
    if res.accepted:
        report = validate_td(h, res.decomposition, k=3)
        print(f"returned decomposition valid: {not report.failures}")
        for i, bag in enumerate(res.decomposition.bags):
            names = sorted(h.vertex_names[v] for v in ids_of(bag))
            print(f"  node {i} (parent {res.decomposition.parents[i]}): {{{', '.join(names)}}}")


if __name__ == "__main__":
    main()
