"""The benchmark's workloads.

Each workload turns a seed into a fixed list of ops.  An op starts from
input text, as a CLI invocation does, and calls the same public
functions the CLI's ``widths``, ``decompose`` and ``run-plan`` paths
call.  Every call into the package goes through a module attribute at
call time (``bags.soft_bags_level``, not a name imported once), so the
traced run can wrap the layers by replacing those attributes.

An op is a pair of callables: ``run(ctx)`` is the timed part and fills
``ctx`` with what it produced; ``check(ctx, error)`` runs outside the
timed region and returns a failure description, or None when the
output is correct.
"""

from __future__ import annotations

import random
import re
import sqlite3
from dataclasses import dataclass
from typing import Callable

from softdecomp import bags, constraints, costs, cq, hypergraph, plans, solver
from softdecomp.gallery import SQL_QUERIES, gallery

# Failures the program shows at the commit that introduced this
# benchmark.  Each still counts in ``failed`` and ``ops_ok_ratio``; the
# run's ``correct`` flag turns false only on a failure that is not
# listed here, or on one of these cases failing in another way.
STANDING_DEFECTS = {
    # The level-0 solver accepts H3' at k=3 although the gallery records
    # shw = 4 (acceptance criterion 1's standing failure).
    "H3prime L0 k=3": "wrong verdict",
    # execute_plan reads table rows by position, but atom hetio45173_3
    # lists its columns as (d, s) while the table stores (s, d).
    "q_hto3": "wrong answer",
    # City is used with arity 2 (CityA, CityB) and arity 1 (CityC).
    "q_lb": "PlanError",
}


@dataclass
class Op:
    label: str  # unique within a workload, e.g. "H3 L0 k=2" or "q_ds db3"
    case: str  # what STANDING_DEFECTS is keyed by
    run: Callable[[dict], None]
    check: Callable[[dict, Exception | None], str | None]


class Workload:
    """A list of ops plus whatever the checks need to keep."""

    ops: list

    def notes(self):
        """Lines worth printing with the run's result."""
        return []

    def close(self):
        pass


def describe(error):
    return f"{type(error).__name__}: {error}"


def is_standing(case, failure):
    expected = STANDING_DEFECTS.get(case)
    return expected is not None and failure.startswith(expected)


# --------------------------------------------------------------------------
# gallery-widths: single-k soft-width verdicts on the hand-built graphs


# (entry, level, k).  Sweeps are avoided on purpose: a correct reject of
# H3prime at level 0, k=3 would push a sweep to k=4 on 96 edges, which
# does not finish.  H3 at level 1 is left out because H3prime level 1
# exercises the same layer.
GALLERY_OPS = (
    ("H2", 0, 1), ("H2", 0, 2),
    ("H3", 0, 2), ("H3", 0, 3),
    ("H3prime", 0, 2), ("H3prime", 0, 3),
    ("H3prime", 1, 2), ("H3prime", 1, 3),
    ("C5", 0, 1), ("C5", 0, 2),
)


def _recorded_width(entry, level):
    widths = entry.widths
    if level >= 1 and f"shw{level}" in widths:
        return widths[f"shw{level}"]
    if "shw" in widths:
        return widths["shw"]
    # The gallery records only hw = 2 for C5.  shw <= hw, and a cycle
    # has no decomposition whose bags each fit in one edge, so shw = 2.
    return widths["hw"]


class GalleryWidths(Workload):
    def __init__(self, seed):
        texts = {name: gallery(name).hypergraph.serialize()
                 for name in dict.fromkeys(name for name, _, _ in GALLERY_OPS)}
        self.ops = []
        for name, level, k in GALLERY_OPS:
            width = _recorded_width(gallery(name), level)
            label = f"{name} L{level} k={k}"
            self.ops.append(Op(label, label, self._runner(texts[name], level, k),
                               self._checker(k >= width, width)))
        # The inputs are fixed; the seed sets the order of the ops.
        random.Random(f"gallery-widths:{seed}").shuffle(self.ops)

    @staticmethod
    def _runner(text, level, k):
        def run(ctx):
            h = hypergraph.parse_hypergraph(text)
            bag_set = bags.soft_bags_level(h, k, level)
            ctx["accepted"] = solver.solve(h, bag_set).accepted
        return run

    @staticmethod
    def _checker(expect, width):
        def check(ctx, error):
            if error is not None:
                return describe(error)
            if ctx["accepted"] != expect:
                verdict = "accepted" if ctx["accepted"] else "rejected"
                return f"wrong verdict: {verdict}, recorded width {width}"
            return None
        return check


# --------------------------------------------------------------------------
# sql-answers: query -> plan -> answer on seeded databases


SQL_DATABASES = 17  # 6 queries x 17 = 102 ops, so p90 has 10 ops beyond it
SQL_ROWS = 160  # rows per relation (fewer where the columns allow fewer)
SQL_DOMAIN = 100  # values per column; about two matches per join key

# The columns the bundled SQL references, per relation, in the order
# the SQL first mentions them.
SQL_SCHEMA = {
    "web_sales": ("ws_bill_customer_sk", "ws_quantity"),
    "customer": ("c_customer_sk", "c_current_addr_sk"),
    "customer_address": ("ca_address_sk",),
    "catalog_sales": ("cs_bill_addr_sk", "cs_warehouse_sk"),
    "warehouse": ("w_warehouse_sk", "w_warehouse_sq_ft"),
    "hetio45159": ("s", "d"),
    "hetio45160": ("s", "d"),
    "hetio45173": ("s", "d"),
    "hetio45176": ("s", "d"),
    "hetio45177": ("s", "d"),
    "City": ("isPartOf_CountryId", "CityId"),
    "Person": ("isLocatedIn_CityId", "PersonId"),
    "Person_knows_Person": ("Person1Id", "Person2Id"),
}

_AGGREGATE = re.compile(r"\b(?:MIN|MAX)\s*\(\s*([^()]*?)\s*\)", re.IGNORECASE)


def reference_sql(sql):
    """The query with its MIN/MAX head turned into a projection."""
    return _AGGREGATE.sub(r"DISTINCT \1", sql, count=1)


class SqlAnswers(Workload):
    def __init__(self, seed):
        rng = random.Random(f"sql-answers:{seed}")
        self.databases = []
        for _ in range(SQL_DATABASES):
            db = {}
            for table, columns in SQL_SCHEMA.items():
                size = min(SQL_ROWS, SQL_DOMAIN ** len(columns))
                rows = set()
                while len(rows) < size:
                    rows.add(tuple(rng.randrange(SQL_DOMAIN) for _ in columns))
                db[table] = sorted(rows)
            self.databases.append(db)
        self.connections = {}  # database index -> sqlite3 connection
        self.expected = {}  # (query, database index) -> sorted answer rows
        self.emitted = {}  # (query, database index, emitted SQL) -> its sorted rows
        self.emit_checked = {}  # (query, database index) -> emitted SQL matched
        self.ops = []
        for name, sql in SQL_QUERIES.items():
            k = gallery(name).widths["concov_shw"]
            for i, db in enumerate(self.databases):
                self.ops.append(Op(f"{name} db{i}", name, self._runner(sql, k, db),
                                   self._checker(name, sql, i)))
        rng.shuffle(self.ops)

    @staticmethod
    def _runner(sql, k, db):
        def run(ctx):
            query, h = cq.sql_to_cq(sql)
            bag_set = bags.soft_bags(h, k)
            stats = costs.StatsCatalog(
                h, {h.edge_id(a.name): len(db[a.relation]) for a in query.atoms})
            res = constraints.solve_constrained(
                h, bag_set, constraints.ConnectedCover(), constraints.cost_order(stats))
            if not res.accepted:
                return
            ctx["plan"] = plans.compile_plan(query, res.decomposition)
            ctx["answer"] = plans.execute_plan(ctx["plan"], db)
        return run

    def _connection(self, i):
        conn = self.connections.get(i)
        if conn is None:
            conn = sqlite3.connect(":memory:")
            for table, columns in SQL_SCHEMA.items():
                conn.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
                conn.executemany(
                    f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
                    self.databases[i][table])
            self.connections[i] = conn
        return conn

    def _run_emitted(self, conn, text):
        statements = [s for s in text.splitlines() if s.strip()]
        try:
            for statement in statements[:-1]:
                conn.execute(statement)
            return sorted(set(conn.execute(statements[-1]).fetchall()))
        finally:
            views = conn.execute(
                "SELECT name FROM sqlite_temp_master WHERE type = 'view'").fetchall()
            for (view,) in views:
                conn.execute(f"DROP VIEW {view}")

    def _checker(self, name, sql, i):
        def check(ctx, error):
            conn = self._connection(i)
            key = (name, i)
            if key not in self.expected:
                self.expected[key] = sorted(set(conn.execute(reference_sql(sql)).fetchall()))
            expected = self.expected[key]
            # The emitted-SQL failure comes first, so that a standing
            # case which also breaks emit_sql does not read as standing.
            failures = []
            if "plan" in ctx:
                text = plans.emit_sql(ctx["plan"])
                if (*key, text) not in self.emitted:
                    self.emitted[(*key, text)] = self._run_emitted(conn, text)
                emitted = self.emitted[(*key, text)]
                self.emit_checked[key] = emitted == expected
                if emitted != expected:
                    failures.append("emitted SQL disagrees with sqlite")
            if error is not None:
                failures.append(describe(error))
            elif "plan" not in ctx:
                failures.append("rejected at the recorded width")
            elif ctx["answer"] != expected:
                failures.append(
                    f"wrong answer: {len(ctx['answer'])} rows, sqlite gives {len(expected)}")
            return "; ".join(failures) or None
        return check

    def notes(self):
        if not self.emit_checked:
            return []
        matched = sum(self.emit_checked.values())
        queries = {q for q, _ in self.emit_checked}
        bad = sorted({q for (q, _), ok in self.emit_checked.items() if not ok})
        line = (f"emitted SQL matched sqlite on {matched} of {len(self.emit_checked)} "
                f"(query, database) pairs over {len(queries)} queries")
        return [line + (f"; mismatches in {', '.join(bad)}" if bad else "")]

    def close(self):
        for conn in self.connections.values():
            conn.close()
        self.connections.clear()


def make(name, seed):
    cls = {"gallery-widths": GalleryWidths, "sql-answers": SqlAnswers}[name]
    return cls(seed)
