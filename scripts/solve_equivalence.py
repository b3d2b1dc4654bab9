#!/usr/bin/env python3
"""Fingerprint the block search's answers.

The script runs ``solve`` on three inputs and prints one sha256 digest
per input:

- ``gallery``: the ten single-k ops of perfbench's ``gallery-widths``
  workload (H2, H3, H3prime and C5 at the listed levels and widths);
- ``random``: 150 graphs of ``random_connected_hypergraph(
  random.Random(606), 7, 7)``, each at k = 1, 2, 3 and levels 0, 1;
- ``cycles``: ``cycle(64)``, ``cycle(65)`` and ``cycle(66)`` at k = 2,
  on both sides of the 64-vertex mark.

Each run hashes (verdict, ``evals``, the sorted ``table.entries``,
``to_text()`` of the tree).  Two commits give the same answers, find
the same bases and decide as many blocks when their digests agree.

Two more digests cover the layers under and beside the search:

- ``bags``: every bag set those runs solve over, as its pool, its bags
  with their witness indices, its components and its covers, plus the
  pool ``trimmed_next_pool`` makes from it;
- ``hw``: ``hw_leq(h, k).to_text()`` (or None) on 946 cases: every
  gallery entry at k = 1..4, ``cycle(64)``, ``cycle(65)`` and
  ``cycle(70)`` at k = 1, 2, and 300 graphs of the same random stream
  at k = 1..3.

``tests/test_scripts.py`` pins every digest but ``hw`` through
:func:`solve_digests`.  Run from the repository root:

    PYTHONPATH=src python3 scripts/solve_equivalence.py
"""

import argparse
import hashlib
import random
import time
from bisect import bisect_right

from softdecomp import gallery, hw_leq, soft_bags_level, solve
from softdecomp.bags import trimmed_next_pool
from softdecomp.gallery import cycle, gallery_names, random_connected_hypergraph

GALLERY_OPS = (
    ("H2", 0, 1), ("H2", 0, 2),
    ("H3", 0, 2), ("H3", 0, 3),
    ("H3prime", 0, 2), ("H3prime", 0, 3),
    ("H3prime", 1, 2), ("H3prime", 1, 3),
    ("C5", 0, 1), ("C5", 0, 2),
)


def cases(which):
    """(hypergraph, k, level) for one input."""
    if which == "gallery":
        for name, level, k in GALLERY_OPS:
            yield gallery(name).hypergraph, k, level
    elif which == "random":
        rng = random.Random(606)
        for _ in range(150):
            h = random_connected_hypergraph(rng, 7, 7)
            for k in (1, 2, 3):
                for level in (0, 1):
                    yield h, k, level
    else:
        for n in (64, 65, 66):
            yield cycle(n), 2, 0


def hw_cases():
    """(hypergraph, k) for the ``hw`` digest."""
    for name in gallery_names():
        for k in (1, 2, 3, 4):
            yield gallery(name).hypergraph, k
    for n in (64, 65, 70):
        for k in (1, 2):
            yield cycle(n), k
    rng = random.Random(606)
    for _ in range(300):
        h = random_connected_hypergraph(rng, 7, 7)
        for k in (1, 2, 3):
            yield h, k


def bag_fingerprint(bags):
    # Each pool member as (mask, origin, level).  The runs stop at level
    # 1, so a set's pool is the edges and at most one level of
    # sub-edges, and ``trimmed_next_pool`` appends the next level: a
    # member's level is the number of these starts at or before it.
    assert bags.level <= 1
    starts = [bags.hypergraph.n_edges] * bags.level + [len(bags.pool)]

    def pool(masks, origins):
        return [(m, o, bisect_right(starts, i)) for i, (m, o) in enumerate(zip(masks, origins))]

    return (pool(bags.pool, bags.origins), list(bags.bags.items()), bags.components,
            bags.covers, pool(*trimmed_next_pool(bags)))


def solve_digests():
    """The ``gallery``, ``random``, ``cycles`` and ``bags`` digests.

    Returns ``{input: (runs, solve CPU seconds, hex digest)}``, the
    ``bags`` entry counting bag sets, with no time.
    """
    out = {}
    bag_digest = hashlib.sha256()
    bag_sets = 0
    for which in ("gallery", "random", "cycles"):
        digest = hashlib.sha256()
        runs = 0
        elapsed = 0.0
        for h, k, level in cases(which):
            bags = soft_bags_level(h, k, level)
            bag_digest.update(repr(bag_fingerprint(bags)).encode())
            bag_sets += 1
            start = time.process_time()
            res = solve(h, bags)
            elapsed += time.process_time() - start
            runs += 1
            text = res.decomposition.to_text() if res.accepted else ""
            entries = sorted(res.table.entries.items())
            digest.update(repr((res.accepted, res.evals, entries, text)).encode())
        out[which] = (runs, elapsed, digest.hexdigest())
    out["bags"] = (bag_sets, None, bag_digest.hexdigest())
    return out


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    for which, (runs, elapsed, digest) in solve_digests().items():
        if elapsed is None:
            print(f"{which:8} {runs:4} sets{'':22}{digest}")
        else:
            print(f"{which:8} {runs:4} runs  solve {elapsed:6.2f} s CPU  {digest}")
    digest = hashlib.sha256()
    runs = 0
    start = time.process_time()
    for h, k in hw_cases():
        td = hw_leq(h, k)
        digest.update(repr(None if td is None else td.to_text()).encode())
        runs += 1
    elapsed = time.process_time() - start
    print(f"{'hw':8} {runs:4} runs  hw_leq {elapsed:5.2f} s CPU  {digest.hexdigest()}")


if __name__ == "__main__":
    main()
