#!/usr/bin/env python3
"""Width-hierarchy sweep over random connected hypergraphs.

For each random graph the script computes the least accepting k for the
generalized-hypertree certificate, the level-0 and level-1 soft solvers,
and the exact hypertree certificate, and verifies

    ghw <= level-1 <= level-0 <= hw

reporting any violation (none are expected).
"""

import argparse
import random
import time

from softdecomp import ghw_leq, hw_leq, iterate_level, soft_bags, solve
from softdecomp.gallery import random_connected_hypergraph


def min_k(pred, kmax):
    for k in range(1, kmax + 1):
        if pred(k):
            return k
    return kmax + 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graphs", type=int, default=200)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--max-edges", type=int, default=8)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.process_time()
    violations = 0
    for i in range(args.graphs):
        h = random_connected_hypergraph(rng, args.max_vertices, args.max_edges)
        kmax = h.n_edges
        k_ghw = min_k(lambda k: ghw_leq(h, k) is not None, kmax)
        k0 = min_k(lambda k: solve(h, soft_bags(h, k)).accepted, kmax)
        k1 = min_k(lambda k: solve(h, iterate_level(soft_bags(h, k))).accepted, kmax)
        k_hw = min_k(lambda k: hw_leq(h, k) is not None, kmax)
        if not (k_ghw <= k1 <= k0 <= k_hw):
            violations += 1
            print(f"VIOLATION on graph {i}: ghw={k_ghw} lvl1={k1} lvl0={k0} hw={k_hw}")
            print(" ", h.serialize())
    elapsed = time.process_time() - start
    print(f"{args.graphs} graphs, {violations} violations, {elapsed:.1f}s CPU")


if __name__ == "__main__":
    main()
