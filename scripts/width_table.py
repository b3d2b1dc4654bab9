#!/usr/bin/env python3
"""Print a width table for the bundled gallery hypergraphs.

For each gallery entry this computes, by scanning k upward:
  * the least k accepted over the level-0 candidate bags,
  * the least k accepted over the level-1 candidate bags,
  * the exact generalized hypertree width,
  * the exact hypertree width (skipped above
    --hw-edge-cap edges: the exact check is exponential in the worst
    case; the gallery's largest entries take well under a second a k).
Recorded reference widths from the gallery are shown alongside.
"""

import argparse
import time

from softdecomp import (
    OracleBudgetError,
    gallery,
    gallery_names,
    ghw_leq,
    hw_leq,
    iterate_level,
    soft_bags,
    solve,
)


def min_k(pred, kmax):
    for k in range(1, kmax + 1):
        if pred(k):
            return k
    return None


def exact_width(oracle, h, kmax):
    """The least k that ``oracle`` accepts, or "(budget)" past its budget."""
    try:
        return str(min_k(lambda k: oracle(h, k) is not None, kmax))
    except OracleBudgetError:
        return "(budget)"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=6)
    parser.add_argument("--hw-edge-cap", type=int, default=100,
                        help="skip the exact hypertree check above this many edges")
    args = parser.parse_args()

    header = f"{'name':9} {'|V|':>4} {'|E|':>4} {'level0':>7} {'level1':>7} {'ghw':>4} {'hw':>5}  recorded"
    print(header)
    print("-" * len(header))
    for name in gallery_names():
        entry = gallery(name)
        h = entry.hypergraph
        start = time.process_time()
        k0 = min_k(lambda k: solve(h, soft_bags(h, k)).accepted, args.max_k)
        k1 = min_k(lambda k: solve(h, iterate_level(soft_bags(h, k))).accepted, args.max_k)
        kg = exact_width(ghw_leq, h, args.max_k)
        kh = exact_width(hw_leq, h, args.max_k) if h.n_edges <= args.hw_edge_cap else "-"
        elapsed = time.process_time() - start
        recorded = ", ".join(f"{key}={v}" for key, v in sorted(entry.widths.items()))
        print(f"{name:9} {h.n_vertices:>4} {h.n_edges:>4} {k0!s:>7} {k1!s:>7} "
              f"{kg:>4} {kh:>5}  {recorded}  [{elapsed:.2f}s]")


if __name__ == "__main__":
    main()
