"""Semi-join evaluation plans over a decomposition (Yannakakis style).

A plan materializes one relation per decomposition node (the join of
the atoms assigned to it, projected to the bag), runs bottom-up
semi-joins, then — for queries with output variables — top-down
semi-joins and a final join.  Boolean queries stop after the up phase
with a root nonemptiness probe.

The interpreter picks its own join order; the plan text does not fix
one.  A node's table, and the final join, start from the first listed
relation and then always take the first remaining relation that shares
a variable with the result so far; a Cartesian step happens only when
none does (a node in ``cartesian_nodes``).  After each join, variables
that are neither in the target (the bag, or the output) nor used by a
relation still to join are projected away.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .hypergraph import cover_is_connected


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class MaterializeBag:
    node: int
    atoms: tuple  # atom names joined at this node
    bag_vars: tuple


@dataclass(frozen=True)
class SemijoinUp:
    child: int
    parent: int


@dataclass(frozen=True)
class SemijoinDown:
    parent: int
    child: int


@dataclass(frozen=True)
class FinalJoin:
    nodes: tuple  # root-up (parents before children)
    output: tuple


@dataclass(frozen=True)
class BooleanProbe:
    roots: tuple


@dataclass
class EvalPlan:
    query: object
    decomposition: object
    steps: list
    node_vars: list  # per node: ordered bag variable names
    node_atoms: list  # per node: tuple of atom indices
    cartesian_nodes: tuple = ()  # nodes whose cover is disconnected


def compile_plan(cq, td):
    """Compile a decomposition of the query's hypergraph into a plan.

    Every atom is assigned to the first node whose bag contains all its
    variables; a node joins its cover atoms plus its assigned atoms.
    Single-atom nodes skip the materialization step (the interpreter
    projects the base relation itself).
    """
    if td.covers is None:
        raise PlanError("decomposition has no covers attached")
    h = td.hypergraph
    atom_masks = []
    name_to_edge = {n: i for i, n in enumerate(h.edge_names)}
    for a in cq.atoms:
        if a.name not in name_to_edge:
            raise PlanError(f"atom {a.name!r} is not an edge of the hypergraph")
        atom_masks.append(h.edge_masks[name_to_edge[a.name]])

    order = []
    for r in td.roots():
        order.extend(td.subtree(r))

    node_atoms = [[] for _ in range(len(td))]
    for u in range(len(td)):
        for e in td.covers[u]:
            node_atoms[u].append(e)
    for i, am in enumerate(atom_masks):
        host = next((u for u in order if not am & ~td.bags[u]), None)
        if host is None:
            raise PlanError(f"atom {cq.atoms[i].name!r} fits in no bag")
        if i not in node_atoms[host]:
            node_atoms[host].append(i)

    vname = h.vertex_names
    node_vars = []
    from .hypergraph import ids_of

    for u in range(len(td)):
        node_vars.append(tuple(vname[v] for v in ids_of(td.bags[u])))

    cartesian = []
    for u in range(len(td)):
        masks = [atom_masks[i] for i in node_atoms[u]]
        if len(masks) > 1 and not cover_is_connected(masks):
            cartesian.append(u)

    steps = []
    for u in order:
        if len(node_atoms[u]) > 1:
            steps.append(
                MaterializeBag(
                    u,
                    tuple(cq.atoms[i].name for i in node_atoms[u]),
                    node_vars[u],
                )
            )
    for u in sorted(range(len(td)), key=td.depth, reverse=True):
        if td.parents[u] >= 0:
            steps.append(SemijoinUp(u, td.parents[u]))
    if cq.boolean:
        steps.append(BooleanProbe(tuple(td.roots())))
    else:
        for u in sorted(range(len(td)), key=td.depth):
            if td.parents[u] >= 0:
                steps.append(SemijoinDown(td.parents[u], u))
        steps.append(FinalJoin(tuple(order), tuple(cq.output)))
    return EvalPlan(cq, td, steps, node_vars, [tuple(a) for a in node_atoms], tuple(cartesian))


# ---------------------------------------------------------------------------
# interpreter


def _getter(positions):
    """A row's values at ``positions``, as a key: one value on its own,
    several as a tuple, none as ()."""
    return itemgetter(*positions) if positions else lambda row: ()


def _join(rows_a, vars_a, rows_b, vars_b):
    shared = [v for v in vars_a if v in vars_b]
    out_vars = list(vars_a) + [v for v in vars_b if v not in vars_a]
    key_a = _getter([vars_a.index(v) for v in shared])
    key_b = _getter([vars_b.index(v) for v in shared])
    extra = [i for i, v in enumerate(vars_b) if v not in vars_a]
    index = {}
    for row in rows_b:
        index.setdefault(key_b(row), []).append(tuple(row[i] for i in extra))
    out = set()
    for row in rows_a:
        for tail in index.get(key_a(row), ()):
            out.add(row + tail)
    return out, tuple(out_vars)


def _semijoin(rows_a, vars_a, rows_b, vars_b):
    shared = [v for v in vars_a if v in vars_b]
    if not shared:
        return rows_a if rows_b else set()
    key_a = _getter([vars_a.index(v) for v in shared])
    keys = set(map(_getter([vars_b.index(v) for v in shared]), rows_b))
    return {row for row in rows_a if key_a(row) in keys}


def _project(rows, vars_from, vars_to):
    idx = [vars_from.index(v) for v in vars_to]
    if len(idx) == 1:
        return {(row[idx[0]],) for row in rows}
    return set(map(_getter(idx), rows))


def _join_connected(relations, out_vars):
    """Join ``(rows, vars)`` relations and project the result to
    ``out_vars``.

    Starts from the first relation; each next one is the first remaining
    relation that shares a variable with the result so far, or the
    first remaining one when none does (a Cartesian step).  After each
    join, variables outside ``out_vars`` that no remaining relation uses
    are projected away.
    """
    pending = list(relations)
    rows, vs = pending.pop(0)
    while pending:
        i = next((i for i, (_, b) in enumerate(pending) if not set(b).isdisjoint(vs)), 0)
        rows_b, vars_b = pending.pop(i)
        rows, vs = _join(rows, vs, rows_b, vars_b)
        needed = set(out_vars).union(*(b for _, b in pending))
        live = tuple(v for v in vs if v in needed)
        if pending and len(live) < len(vs):
            rows, vs = _project(rows, vs, live), live
    return _project(rows, vs, tuple(out_vars))


def _atom_rows(atom, db):
    """The atom's relation as a set of tuples, keeping only the rows
    that agree wherever the atom repeats a variable."""
    if atom.relation not in db:
        raise PlanError(f"no relation {atom.relation!r} in the database")
    arity = len(atom.variables)
    out = set()
    for row in db[atom.relation]:
        if len(row) != arity:
            raise PlanError(
                f"relation {atom.relation!r} has arity {len(row)}, "
                f"atom expects {arity}"
            )
        out.add(tuple(row))
    first = [atom.variables.index(v) for v in atom.variables]
    repeats = [(i, j) for i, j in enumerate(first) if i != j]
    if repeats:
        out = {row for row in out if all(row[i] == row[j] for i, j in repeats)}
    return out


def _atom_table(atom, db):
    """The atom's rows over its distinct variables, as ``(rows, vars)``."""
    rows = _atom_rows(atom, db)
    dedup_vars = tuple(dict.fromkeys(atom.variables))
    if len(dedup_vars) < len(atom.variables):
        rows = _project(rows, tuple(atom.variables), dedup_vars)
    return rows, dedup_vars


def execute_plan(plan, db):
    """Run a plan over in-memory relations (name → iterable of tuples).

    Returns a sorted list of output tuples, or a bool for Boolean
    queries.  Matches naive join-project evaluation by construction.

    Each atom's relation is read once, in node order, so a missing
    relation or a wrong arity raises ``PlanError`` for the first such
    atom.  Every node's table is built before the steps run: its atoms
    are joined in a connected order with early projection (see the
    module docstring), so ``MaterializeBag`` steps need no action here.
    The final join orders and projects the node tables the same way.
    """
    cq = plan.query
    atom_tables = {}
    for atoms in plan.node_atoms:
        for i in atoms:
            if i not in atom_tables:
                atom_tables[i] = _atom_table(cq.atoms[i], db)
    tables = {
        u: _join_connected([atom_tables[i] for i in plan.node_atoms[u]], vars_u)
        for u, vars_u in enumerate(plan.node_vars)
    }

    result = None
    for step in plan.steps:
        if isinstance(step, SemijoinUp):
            tables[step.parent] = _semijoin(
                tables[step.parent],
                plan.node_vars[step.parent],
                tables[step.child],
                plan.node_vars[step.child],
            )
        elif isinstance(step, SemijoinDown):
            tables[step.child] = _semijoin(
                tables[step.child],
                plan.node_vars[step.child],
                tables[step.parent],
                plan.node_vars[step.parent],
            )
        elif isinstance(step, BooleanProbe):
            result = all(tables[r] for r in step.roots)
        elif isinstance(step, FinalJoin):
            rows = _join_connected(
                [(tables[u], plan.node_vars[u]) for u in step.nodes], step.output
            )
            result = sorted(rows)
    return result


def naive_evaluate(cq, db):
    """Join every atom, project to the output — the correctness oracle."""
    rows, vs = {()}, ()
    for a in cq.atoms:
        rows, vs = _join(rows, vs, *_atom_table(a, db))
    if cq.boolean:
        return bool(rows)
    return sorted(_project(rows, vs, tuple(cq.output)))


# ---------------------------------------------------------------------------
# SQL emission


def emit_sql(plan):
    """Render a plan as a series of SQL statements (textual only).

    One temporary view per node, EXISTS subqueries for the semi-join
    phases, and a final SELECT (or a 1-row probe for Boolean queries).
    """
    cq = plan.query
    atom_by_name = {a.name: a for a in cq.atoms}
    cols = cq.column_names

    def base_select(u):
        atoms = [cq.atoms[i] for i in plan.node_atoms[u]]
        from_items = []
        var_source = {}
        conds = []
        for a in atoms:
            from_items.append(f"{a.relation} AS {a.name}" if a.relation != a.name else a.name)
            seen_in_atom = {}
            for pos, v in enumerate(a.variables):
                col = f"{a.name}.{cols[a.name][pos]}" if a.name in cols else f"{a.name}.c{pos}"
                if v in seen_in_atom:
                    conds.append(f"{seen_in_atom[v]} = {col}")
                    continue
                seen_in_atom[v] = col
                if v in var_source:
                    conds.append(f"{var_source[v]} = {col}")
                else:
                    var_source[v] = col
        select = ", ".join(f"{var_source[v]} AS {v}" for v in plan.node_vars[u])
        sql = f"SELECT DISTINCT {select} FROM {', '.join(from_items)}"
        if conds:
            sql += " WHERE " + " AND ".join(conds)
        return sql

    statements = []
    current = {}
    version = {}
    for u in range(len(plan.node_vars)):
        name = f"node_{u}"
        statements.append(f"CREATE TEMPORARY VIEW {name} AS {base_select(u)};")
        current[u] = name
        version[u] = 0

    def semijoin(target, source):
        version[target] += 1
        new = f"node_{target}_r{version[target]}"
        shared = [v for v in plan.node_vars[target] if v in plan.node_vars[source]]
        cond = " AND ".join(f"t.{v} = s.{v}" for v in shared) or "1 = 1"
        statements.append(
            f"CREATE TEMPORARY VIEW {new} AS SELECT t.* FROM {current[target]} AS t "
            f"WHERE EXISTS (SELECT 1 FROM {current[source]} AS s WHERE {cond});"
        )
        current[target] = new

    final = None
    for step in plan.steps:
        if isinstance(step, SemijoinUp):
            semijoin(step.parent, step.child)
        elif isinstance(step, SemijoinDown):
            semijoin(step.child, step.parent)
        elif isinstance(step, BooleanProbe):
            probes = " AND ".join(
                f"EXISTS (SELECT 1 FROM {current[r]})" for r in step.roots
            )
            final = f"SELECT {probes} AS nonempty;"
        elif isinstance(step, FinalJoin):
            source = {}
            conds = []
            items = []
            for u in step.nodes:
                alias = f"n{u}"
                items.append(f"{current[u]} AS {alias}")
                for v in plan.node_vars[u]:
                    if v in source:
                        conds.append(f"{source[v]} = {alias}.{v}")
                    else:
                        source[v] = f"{alias}.{v}"
            out = ", ".join(f"{source[v]} AS {v}" for v in step.output) or "1"
            final = f"SELECT DISTINCT {out} FROM " + ", ".join(items)
            if conds:
                final += " WHERE " + " AND ".join(conds)
            final += ";"
    statements.append(final)
    return "\n".join(statements) + "\n"


# ---------------------------------------------------------------------------
# serialization


def plan_to_json(plan):
    """Serialize a plan (query, per-node tables, steps) to JSON text."""
    import json

    def step_obj(s):
        if isinstance(s, MaterializeBag):
            return {"op": "materialize", "node": s.node, "atoms": list(s.atoms),
                    "bag_vars": list(s.bag_vars)}
        if isinstance(s, SemijoinUp):
            return {"op": "semijoin_up", "child": s.child, "parent": s.parent}
        if isinstance(s, SemijoinDown):
            return {"op": "semijoin_down", "parent": s.parent, "child": s.child}
        if isinstance(s, FinalJoin):
            return {"op": "final_join", "nodes": list(s.nodes), "output": list(s.output)}
        return {"op": "boolean_probe", "roots": list(s.roots)}

    cq = plan.query
    return json.dumps(
        {
            "atoms": [
                {"name": a.name, "relation": a.relation, "variables": list(a.variables),
                 "columns": list(cq.column_names.get(a.name, ()))}
                for a in cq.atoms
            ],
            "output": list(cq.output),
            "node_vars": [list(v) for v in plan.node_vars],
            "node_atoms": [list(a) for a in plan.node_atoms],
            "cartesian_nodes": list(plan.cartesian_nodes),
            "steps": [step_obj(s) for s in plan.steps],
        },
        indent=2,
    )


def plan_from_json(text):
    """Rebuild an executable plan from its JSON form."""
    import json

    from .cq import Atom, ConjunctiveQuery

    data = json.loads(text)
    atoms = [
        Atom(a["name"], a["relation"], tuple(a["variables"])) for a in data["atoms"]
    ]
    columns = {
        a["name"]: tuple(a.get("columns", ())) for a in data["atoms"]
    }
    cq = ConjunctiveQuery(atoms, tuple(data["output"]), columns)
    steps = []
    for s in data["steps"]:
        if s["op"] == "materialize":
            steps.append(MaterializeBag(s["node"], tuple(s["atoms"]), tuple(s["bag_vars"])))
        elif s["op"] == "semijoin_up":
            steps.append(SemijoinUp(s["child"], s["parent"]))
        elif s["op"] == "semijoin_down":
            steps.append(SemijoinDown(s["parent"], s["child"]))
        elif s["op"] == "final_join":
            steps.append(FinalJoin(tuple(s["nodes"]), tuple(s["output"])))
        else:
            steps.append(BooleanProbe(tuple(s["roots"])))
    return EvalPlan(
        cq,
        None,
        steps,
        [tuple(v) for v in data["node_vars"]],
        [tuple(a) for a in data["node_atoms"]],
        tuple(data.get("cartesian_nodes", ())),
    )
