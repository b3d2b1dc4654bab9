#!/usr/bin/env python3
"""Fingerprint the constrained optimizer's answers.

For every built-in (constraint, order) pairing the script runs
``solve_constrained`` on two inputs and prints sha256 digests of what
it returned:

- ``queries``: the gallery's bundled SQL queries at their recorded
  ``concov_shw``, each under five seeded statistics catalogs;
- ``random``: 300 graphs of ``random_connected_hypergraph(
  random.Random(606), 7, 7)``, each at k = 2 and 3, with one seeded
  catalog per graph.

Catalogs have random relation sizes, random (non-unit) join sizes for
about half of the bags and random primary keys, so every term of the
cost formula is exercised.  ``full`` hashes (verdict, ``sort_key``,
``to_text()``, ``len(table)``) per run; ``answers`` hashes (verdict,
``sort_key``, ``to_text()``), so it holds when a change reaches fewer
blocks for the same answers; ``tree`` hashes (verdict, ``to_text()``)
only.  Two commits give the same answers when their ``answers``
digests agree.  ``tests/test_scripts.py`` pins all 30 through
:func:`optimizer_digests`.  Next to each pairing's digests the script
prints the work its runs did, summed: blocks decided (``evals``),
pairs scored (``pairs``) and table entries (``entries``), which is
what ``full`` moves with.  Run from the repository root:

    PYTHONPATH=src python3 scripts/optimizer_equivalence.py
"""

import argparse
import hashlib
import random
import time

from softdecomp import (
    AlwaysTrue,
    ConnectedCover,
    PartitionClustering,
    ShallowCyclicity,
    StatsCatalog,
    cost_order,
    cyclicity_order,
    gallery,
    partition_order,
    soft_bags,
    solve_constrained,
    sql_to_cq,
    trivial_order,
)
from softdecomp.gallery import SQL_QUERIES, random_connected_hypergraph, witness_order
from softdecomp.hypergraph import ids_of, mask_of

PAIRINGS = (
    "AlwaysTrue+trivial",
    "ConnectedCover+cost",
    "ShallowCyclicity(1)+cyclicity",
    "PartitionClustering+partition",
    "PartitionClustering+partition(stats)",
)


def make_stats(rng, h, bag_masks):
    rel = {e: rng.randint(2, 10_000) for e in range(h.n_edges)}
    joins = {m: rng.randint(1, 10_000) for m in bag_masks if rng.random() < 0.5}
    keys = {}
    for e, m in enumerate(h.edge_masks):
        vs = ids_of(m)
        keys[e] = mask_of(rng.sample(vs, rng.randint(1, len(vs)))) if rng.random() < 0.3 else 0
    return StatsCatalog(h, rel, joins, keys)


def pairing(name, h, k, stats):
    labels = {e: "p" if e % 2 else "q" for e in range(h.n_edges)}
    if name == "AlwaysTrue+trivial":
        return AlwaysTrue(), trivial_order()
    if name == "ConnectedCover+cost":
        return ConnectedCover(), cost_order(stats)
    if name == "ShallowCyclicity(1)+cyclicity":
        return ShallowCyclicity(1), cyclicity_order(h)
    if name == "PartitionClustering+partition":
        return PartitionClustering(labels), partition_order(h, labels, k)
    return PartitionClustering(labels), partition_order(h, labels, k, stats)


def cases(which):
    """(hypergraph, k, bags, stats) for one input."""
    if which == "queries":
        for name, sql in SQL_QUERIES.items():
            _, h = sql_to_cq(sql)
            k = gallery(name).widths["concov_shw"]
            bags = soft_bags(h, k)
            for db in range(5):
                yield h, k, bags, make_stats(random.Random(f"{name}:{db}"), h, witness_order(h, k))
        return
    rng = random.Random(606)
    for g in range(300):
        h = random_connected_hypergraph(rng, 7, 7)
        for k in (2, 3):
            bags = soft_bags(h, k)
            yield h, k, bags, make_stats(random.Random(2 * g + k), h, witness_order(h, k))


def optimizer_digests():
    """The ``full``, ``tree`` and ``answers`` digests of each input and
    pairing, and the work behind them.

    Returns ``{input: (runs per pairing, CPU seconds, {pairing: (full,
    tree, answers)}, {pairing: (evals, pairs, entries)})}``, each digest
    cut to 16 hex digits and each count summed over the runs.
    """
    out = {}
    for which in ("queries", "random"):
        digests = {name: [hashlib.sha256() for _ in range(3)] for name in PAIRINGS}
        work = {name: [0, 0, 0] for name in PAIRINGS}
        runs = 0
        start = time.process_time()
        for h, k, bags, stats in cases(which):
            runs += 1
            for name in PAIRINGS:
                res = solve_constrained(h, bags, *pairing(name, h, k, stats))
                text = res.decomposition.to_text() if res.accepted else ""
                key = res.key.sort_key if res.accepted else None
                full, tree, answers = digests[name]
                full.update(repr((res.accepted, key, text, len(res.table))).encode())
                tree.update(repr((res.accepted, text)).encode())
                answers.update(repr((res.accepted, key, text)).encode())
                counts = work[name]
                counts[0] += res.evals
                counts[1] += res.pairs
                counts[2] += len(res.table)
        out[which] = (runs, time.process_time() - start,
                      {name: tuple(d.hexdigest()[:16] for d in digests[name])
                       for name in PAIRINGS},
                      {name: tuple(work[name]) for name in PAIRINGS})
    return out


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    for which, (runs, elapsed, digests, work) in optimizer_digests().items():
        print(f"# {which}: {runs} runs per pairing, {elapsed:.1f} s CPU")
        for name, (full, tree, answers) in digests.items():
            evals, pairs, entries = work[name]
            print(f"{which:8} {name:38} full {full}  tree {tree}  answers {answers}"
                  f"  evals {evals}  pairs {pairs}  entries {entries}")


if __name__ == "__main__":
    main()
