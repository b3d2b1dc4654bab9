"""Conjunctive queries and their hypergraphs.

Two frontends: a datalog-style atom syntax (``ans(x) :- R(x,y), S(y,z).``)
and a restricted SQL equijoin fragment (SELECT-FROM-WHERE plus
JOIN..ON, conjunctive equality conditions only).  In both cases the
query maps to a hypergraph with one edge per atom and one vertex per
variable.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from .hypergraph import Hypergraph, HypergraphError


class QuerySyntaxError(ValueError):
    pass


class UnsupportedSqlError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    """One relational atom: a unique name, the relation the tuples
    come from, and a variable per position (repeats allowed)."""

    name: str
    relation: str
    variables: tuple


@dataclass
class ConjunctiveQuery:
    atoms: list
    output: tuple = ()
    # original column name per atom position, for SQL re-emission
    column_names: dict = field(default_factory=dict)

    @property
    def boolean(self):
        return not self.output

    def variables(self):
        seen = []
        for a in self.atoms:
            for v in a.variables:
                if v not in seen:
                    seen.append(v)
        return seen

    def hypergraph(self):
        edges = []
        for a in self.atoms:
            distinct = []
            for v in a.variables:
                if v not in distinct:
                    distinct.append(v)
            edges.append((a.name, distinct))
        return Hypergraph.from_named_edges(edges)

    def atom_text(self):
        body = ", ".join(
            f"{a.name}({','.join(a.variables)})" for a in self.atoms
        )
        if self.output:
            return f"ans({','.join(self.output)}) :- {body}."
        return body


_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_']*)\s*\(([^()]*)\)\s*")


def _parse_atoms(text, start_index=0):
    atoms = []
    pos = 0
    counts = {}
    arities = {}
    while pos < len(text):
        m = _ATOM_RE.match(text, pos)
        if not m:
            raise QuerySyntaxError(f"expected an atom at: {text[pos:pos+40]!r}")
        rel = m.group(1)
        vs = tuple(v.strip() for v in m.group(2).split(",") if v.strip())
        if not vs:
            raise QuerySyntaxError(f"atom {rel!r} has no variables")
        if rel in arities and arities[rel] != len(vs):
            warnings.warn(
                f"relation {rel!r} used with arities {arities[rel]} and {len(vs)}",
                stacklevel=3,
            )
        arities.setdefault(rel, len(vs))
        counts[rel] = counts.get(rel, 0) + 1
        atoms.append((rel, vs))
        pos = m.end()
        if pos < len(text):
            if text[pos] != ",":
                raise QuerySyntaxError(f"expected ',' at: {text[pos:pos+40]!r}")
            pos += 1
    if not atoms:
        raise QuerySyntaxError("empty query body")
    out = []
    seen = {}
    for rel, vs in atoms:
        if counts[rel] > 1:
            name = f"{rel}_{seen.get(rel, 0)}"
            seen[rel] = seen.get(rel, 0) + 1
        else:
            name = rel
        out.append(Atom(name, rel, vs))
    return out


def parse_cq(text):
    """Parse a datalog-style query; returns (query, hypergraph).

    Accepts an optional head (``ans(x,y) :- body.``) or a bare
    comma-separated atom list.  Variables repeated inside an atom
    collapse to a single hypergraph vertex.
    """
    text = text.strip().rstrip(".")
    output = ()
    if ":-" in text:
        head, _, body = text.partition(":-")
        m = _ATOM_RE.fullmatch(head)
        if not m:
            raise QuerySyntaxError(f"bad head: {head.strip()!r}")
        output = tuple(v.strip() for v in m.group(2).split(",") if v.strip())
    else:
        body = text
    atoms = _parse_atoms(body)
    cq = ConjunctiveQuery(atoms, output)
    body_vars = set(cq.variables())
    for v in output:
        if v not in body_vars:
            raise QuerySyntaxError(f"head variable {v!r} not in the body")
    cq.column_names = {
        a.name: tuple(f"c{i}" for i in range(len(a.variables))) for a in atoms
    }
    return cq, cq.hypergraph()


# ---------------------------------------------------------------------------
# SQL


# The constructs the SQL parser rejects, in the order it reports them;
# a subquery (more than one SELECT) is reported before any of them.
_UNSUPPORTED = (
    "OR",
    "UNION",
    "GROUP BY",
    "OUTER JOIN",
    "LEFT JOIN",
    "RIGHT JOIN",
    "NOT",
    "non-equality comparison",
    "LIKE",
)
# One scan of the lowered text finds every construct: group 1 is a
# SELECT, group i + 2 the construct _UNSUPPORTED[i].
_CONSTRUCT_RE = re.compile(
    r"\b(?:(select)|(or)|(union)|(group\s+by)|(outer)|(left)|(right)|(not))\b"
    r"|([<>]|!=)|\b(like)\b"
)


def _check_supported(sql):
    hits = [m.lastindex for m in _CONSTRUCT_RE.finditer(sql.lower())]
    if hits.count(1) > 1:
        raise UnsupportedSqlError("unsupported construct: subquery")
    first = min((g for g in hits if g > 1), default=None)
    if first is not None:
        raise UnsupportedSqlError(f"unsupported construct: {_UNSUPPORTED[first - 2]}")


_FROM_ITEM_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)(?:\s+as\s+([A-Za-z_][A-Za-z0-9_]*))?\s*$",
    re.IGNORECASE,
)
_EQ_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s*=\s*([A-Za-z_][A-Za-z0-9_.]*)\s*$"
)


def _initialism(table):
    return "".join(w[0] for w in table.split("_") if w)


def _split_top_and(text):
    return [p for p in re.split(r"\band\b", text, flags=re.IGNORECASE) if p.strip()]


class _SqlQuery:
    def __init__(self, sql):
        _check_supported(sql)
        text = re.sub(r"\s+", " ", sql.strip().rstrip(";")).strip()
        m = re.match(r"select\s+(.*?)\s+from\s+(.*)$", text, re.IGNORECASE | re.DOTALL)
        if not m:
            raise QuerySyntaxError("expected SELECT ... FROM ...")
        self.head = m.group(1).strip()
        rest = m.group(2)
        where = ""
        wm = re.search(r"\bwhere\b", rest, re.IGNORECASE)
        if wm:
            where = rest[wm.end():]
            rest = rest[: wm.start()]
        self.items = []  # (table, alias)
        self.conditions = []
        # FROM list: comma-separated items with optional JOIN..ON clauses
        parts = re.split(r"\bjoin\b", rest, flags=re.IGNORECASE)
        for table, alias in self._parse_item_list(parts[0]):
            self.items.append((table, alias))
        for clause in parts[1:]:
            om = re.search(r"\bon\b", clause, re.IGNORECASE)
            if not om:
                raise QuerySyntaxError("JOIN without ON")
            item = clause[: om.start()].strip()
            fm = _FROM_ITEM_RE.match(item)
            if not fm:
                raise QuerySyntaxError(f"bad FROM item: {item!r}")
            self.items.append((fm.group(1), fm.group(2) or fm.group(1)))
            self.conditions.extend(_split_top_and(clause[om.end():]))
        if where:
            self.conditions.extend(_split_top_and(where))

    @staticmethod
    def _parse_item_list(text):
        out = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            fm = _FROM_ITEM_RE.match(item)
            if not fm:
                raise QuerySyntaxError(f"bad FROM item: {item!r}")
            out.append((fm.group(1), fm.group(2) or fm.group(1)))
        return out


def _resolve_column(token, items):
    """Map a column token to (alias, column).

    Qualified tokens (``alias.column``) resolve directly; bare tokens
    use the table initialism convention (``ws_quantity`` belongs to
    ``web_sales``), preferring the longest matching prefix.
    """
    if "." in token:
        alias, _, col = token.partition(".")
        if alias not in {a for _, a in items}:
            raise QuerySyntaxError(f"unknown alias {alias!r}")
        return alias, col
    best = None
    for table, alias in items:
        prefix = _initialism(table) + "_"
        if token.startswith(prefix):
            if best is None or len(prefix) > len(best[2]):
                best = (alias, token, prefix)
            elif len(prefix) == len(best[2]) and alias != best[0]:
                raise QuerySyntaxError(f"ambiguous column {token!r}")
    if best is None:
        raise QuerySyntaxError(f"cannot resolve column {token!r} to a table")
    return best[0], best[1]


def sql_to_cq(sql):
    """Extract a conjunctive query and hypergraph from equijoin SQL.

    One atom per FROM item; variables are the equivalence classes of
    equality-joined columns.  Columns outside every join condition are
    dropped (they do not affect the join structure).  An optional
    MIN/MAX head is treated as projection.
    """
    q = _SqlQuery(sql)
    # union-find over (alias, column)
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    pairs = []
    for cond in q.conditions:
        m = _EQ_RE.match(cond)
        if not m:
            raise UnsupportedSqlError(f"unsupported condition: {cond.strip()!r}")
        a = _resolve_column(m.group(1), q.items)
        b = _resolve_column(m.group(2), q.items)
        pairs.append((a, b))
        union(a, b)

    joined = {c for pair in pairs for c in pair}
    head_cols = []
    for token in re.findall(r"[A-Za-z_][A-Za-z0-9_.]*", q.head):
        if token.lower() in ("min", "max", "distinct", "count"):
            continue
        head_cols.append(_resolve_column(token, q.items))

    # name variables v1, v2, ... in first-appearance order
    var_names = {}
    occurrences = [c for pair in pairs for c in pair] + head_cols
    for c in occurrences:
        if c in joined:
            r = find(c)
            if r not in var_names:
                var_names[r] = f"v{len(var_names) + 1}"

    atoms = []
    column_names = {}
    for table, alias in q.items:
        cols = [c for c in sorted(joined) if c[0] == alias]
        cols.sort(key=lambda c: occurrences.index(c))
        if not cols:
            raise UnsupportedSqlError(
                f"FROM item {alias!r} takes part in no join condition"
            )
        vs, names = [], []
        for c in cols:
            v = var_names[find(c)]
            if v not in vs:
                vs.append(v)
                names.append(c[1])
        atoms.append(Atom(alias, table, tuple(vs)))
        column_names[alias] = tuple(names)

    output = tuple(
        dict.fromkeys(
            var_names[find(c)] for c in head_cols if find(c) in var_names
        )
    )
    cq = ConjunctiveQuery(atoms, output, column_names)
    return cq, cq.hypergraph()
