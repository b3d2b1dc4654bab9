#!/usr/bin/env python3
"""Fingerprint the emitted SQL and the answers of compiled plans.

The script compiles a plan for every input below and prints sha256
digests of what it got:

- ``queries``: the gallery's six bundled SQL queries, each on five
  seeded databases, decomposed by ``solve_constrained`` under
  ``ConnectedCover`` and ``cost_order`` (table sizes as statistics) at
  the recorded ``concov_shw``;
- ``random``: 300 conjunctive queries of ``random_cq`` over
  ``random.Random(1981)``, each with one random database, decomposed
  at the least width ``solve`` accepts, with covers attached.

``sql`` hashes the text of ``emit_sql`` per input; ``answers`` hashes
what ``execute_plan`` returned.  An exception is hashed as its type
and message, so a run that fails the same way on two commits still
agrees.  Two commits compile the same plans when their digests agree.
``tests/test_scripts.py`` pins both pairs through :func:`plan_digests`.
Run from the repository root:

    PYTHONPATH=src python3 scripts/plan_equivalence.py
"""

import argparse
import hashlib
import pathlib
import random
import sys
import time

from softdecomp import (
    ConnectedCover,
    StatsCatalog,
    attach_covers,
    compile_plan,
    cost_order,
    emit_sql,
    execute_plan,
    gallery,
    soft_bags,
    solve,
    solve_constrained,
    sql_to_cq,
)
from softdecomp.gallery import SQL_QUERIES

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from conftest import random_cq, random_database  # noqa: E402


def least_width_decomposition(cq):
    h = cq.hypergraph()
    for k in range(1, h.n_edges + 1):
        res = solve(h, soft_bags(h, k))
        if res.accepted:
            return attach_covers(res.decomposition)
    raise AssertionError("width |E| always suffices")


def cases(which):
    """(query, decomposition thunk, database) for one input."""
    if which == "queries":
        for name, sql in SQL_QUERIES.items():
            cq, h = sql_to_cq(sql)
            k = gallery(name).widths["concov_shw"]
            for i in range(5):
                db = random_database(random.Random(f"{name}:{i}"), cq, max_rows=60, domain=30)
                stats = StatsCatalog(h, {h.edge_id(a.name): len(db[a.relation])
                                         for a in cq.atoms})

                def decompose(h=h, k=k, stats=stats):
                    return solve_constrained(
                        h, soft_bags(h, k), ConnectedCover(), cost_order(stats)
                    ).decomposition

                yield cq, decompose, db
        return
    rng = random.Random(1981)
    for _ in range(300):
        cq = random_cq(rng)
        db = random_database(rng, cq)
        yield cq, lambda cq=cq: least_width_decomposition(cq), db


def outcome(fn):
    """``(text, failed)``: the repr of ``fn()``, or the exception it raised."""
    try:
        return repr(fn()), False
    except Exception as exc:  # hashed, so that equal failures agree
        return f"{type(exc).__name__}: {exc}", True


def plan_digests():
    """The ``sql`` and ``answers`` digests of each input.

    Returns ``{input: (plans, failed calls, CPU seconds, sql digest,
    answers digest)}``, each digest cut to 16 hex digits.
    """
    out = {}
    for which in ("queries", "random"):
        sql = hashlib.sha256()
        answers = hashlib.sha256()
        runs = failed = 0
        start = time.process_time()
        for cq, decompose, db in cases(which):
            runs += 1
            try:
                plan = compile_plan(cq, decompose())
            except Exception as exc:
                texts = [(f"{type(exc).__name__}: {exc}", True)] * 2
            else:
                texts = [outcome(lambda: emit_sql(plan)), outcome(lambda: execute_plan(plan, db))]
            for digest, (text, bad) in zip((sql, answers), texts):
                digest.update(text.encode())
                failed += bad
        out[which] = (runs, failed, time.process_time() - start,
                      sql.hexdigest()[:16], answers.hexdigest()[:16])
    return out


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    for which, (runs, failed, elapsed, sql, answers) in plan_digests().items():
        print(f"# {which}: {runs} plans, {failed} failed calls, {elapsed:.1f} s CPU")
        print(f"{which:8} sql {sql}  answers {answers}")


if __name__ == "__main__":
    main()
