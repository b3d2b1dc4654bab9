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
the same bases and decide as many blocks when their digests agree.  A
second digest per input, ``<input> verdicts``, hashes only (verdict,
``to_text()``): it holds when a change decides fewer blocks for the
same answers.

Three more digests cover the layers under and beside the search:

- ``bags``: every bag set those runs solve over, as its pool, its bags,
  its component entries and its cover unions, each list in the order
  the bag layer keeps it;
- ``bag sets``: the same bag sets with every order dropped, as the
  sorted sets of (pool member, origin), bags, component unions and
  cover unions; it holds when a change only reorders the bag layer's
  lists;
- ``hw``: ``hw_leq(h, k).to_text()`` (or None) on 946 cases: every
  gallery entry at k = 1..4, ``cycle(64)``, ``cycle(65)`` and
  ``cycle(70)`` at k = 1, 2, and 300 graphs of the same random stream
  at k = 1..3.

For each of the first three inputs the script also prints the total
``evals`` of its runs and the number of root blocks that the
balanced-bag check decided (``SolveResult.check_decided``).

``tests/test_scripts.py`` pins every digest through :func:`solve_digests`
and :func:`hw_digest`.  Run from the repository root:

    PYTHONPATH=src python3 scripts/solve_equivalence.py
"""

import argparse
import hashlib
import random
import time

from softdecomp import gallery, hw_leq, soft_bags_level, solve
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
    # 1, so the members past the edges are level-1 sub-edges.
    assert bags.level <= 1
    n = bags.hypergraph.n_edges
    pool = [(m, o, int(i >= n)) for i, (m, o) in enumerate(zip(bags.pool, bags.origins))]
    return (pool, list(bags.bags), bags.components, bags.covers)


def bag_set_fingerprint(bags):
    return (sorted(zip(bags.pool, bags.origins)), sorted(bags.bags),
            sorted(union for union, _ in bags.components), sorted(bags.covers))


def solve_digests(counts=None):
    """The ``gallery``, ``random``, ``cycles``, ``bags`` and ``bag sets``
    digests, and the ``<input> verdicts`` digest of each of the first
    three.

    Returns ``{name: (runs, solve CPU seconds, hex digest)}``; the two
    bag entries count bag sets, and they and the verdict entries carry
    no time.  A dict ``counts`` gets, per input, ``(evals, root blocks
    the check decided)`` summed over its runs.
    """
    out = {}
    bag_digest = hashlib.sha256()
    set_digest = hashlib.sha256()
    bag_sets = 0
    for which in ("gallery", "random", "cycles"):
        digest = hashlib.sha256()
        verdicts = hashlib.sha256()
        runs = evals = decided = 0
        elapsed = 0.0
        for h, k, level in cases(which):
            bags = soft_bags_level(h, k, level)
            bag_digest.update(repr(bag_fingerprint(bags)).encode())
            set_digest.update(repr(bag_set_fingerprint(bags)).encode())
            bag_sets += 1
            start = time.process_time()
            res = solve(h, bags)
            elapsed += time.process_time() - start
            runs += 1
            evals += res.evals
            decided += res.check_decided
            text = res.decomposition.to_text() if res.accepted else ""
            entries = sorted(res.table.entries.items())
            digest.update(repr((res.accepted, res.evals, entries, text)).encode())
            verdicts.update(repr((res.accepted, text)).encode())
        out[which] = (runs, elapsed, digest.hexdigest())
        out[f"{which} verdicts"] = (runs, None, verdicts.hexdigest())
        if counts is not None:
            counts[which] = (evals, decided)
    out["bags"] = (bag_sets, None, bag_digest.hexdigest())
    out["bag sets"] = (bag_sets, None, set_digest.hexdigest())
    return out


def hw_digest():
    """The ``hw`` digest: ``(runs, hw_leq CPU seconds, hex digest)``."""
    digest = hashlib.sha256()
    runs = 0
    start = time.process_time()
    for h, k in hw_cases():
        td = hw_leq(h, k)
        digest.update(repr(None if td is None else td.to_text()).encode())
        runs += 1
    return runs, time.process_time() - start, digest.hexdigest()


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    counts = {}
    for which, (runs, elapsed, digest) in solve_digests(counts).items():
        unit = "sets" if which.startswith("bag") else "runs"
        time_note = "" if elapsed is None else f"solve {elapsed:6.2f} s CPU"
        print(f"{which:16} {runs:4} {unit}  {time_note:20}  {digest}")
    for which, (evals, decided) in counts.items():
        print(f"{which:16} evals {evals:7}  root blocks decided by the check {decided:3}")
    runs, elapsed, digest = hw_digest()
    print(f"{'hw':16} {runs:4} runs  {f'hw_leq {elapsed:5.2f} s CPU':20}  {digest}")


if __name__ == "__main__":
    main()
