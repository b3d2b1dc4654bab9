"""Semi-join evaluation plans over a decomposition (Yannakakis style).

A plan is the decomposition plus, per node, the relation it
materializes: the join of the atoms assigned to it, projected to the
bag.  The evaluation schedule is a fixed function of the tree (see
:func:`_schedule`): bottom-up semi-joins, then, for queries with output
variables, top-down semi-joins and a final join.  Boolean queries stop
after the up phase with a root nonemptiness probe.  The interpreter and
the SQL emitter both walk that schedule.

The interpreter picks its own join order; the plan text does not fix
one.  A node's table, and the final join, first project each relation
to the target variables (the bag, or the output) and the variables of
the other relations it joins with.  They start from the first listed
relation and then always take the first remaining relation that shares
a variable with the result so far; a Cartesian step happens only when
none does (a node in ``cartesian_nodes``).  Each join is fused with its
projection: it builds only the variables that are in the target or
used by a relation still to join, and a relation that adds no such
variable only filters the result by its keys.

After the down phase the interpreter reads the answer from one node
when it can.  An empty root table gives an empty answer.  On a tree
with the running intersection property, as every valid decomposition
has, the full reducer leaves each node table the projection of the
query onto its bag, so when one bag holds every output variable the
answer is that node's table projected to the output.  Otherwise the
final join runs.  The emitted SQL always ends in the final join.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .hypergraph import cover_is_connected, ids_of, mask_of
from .solver import TreeDecomposition, check_parents


class PlanError(ValueError):
    pass


@dataclass
class EvalPlan:
    query: object
    decomposition: object  # its parents fix the schedule
    node_vars: list  # per node: ordered bag variable names
    node_atoms: list  # per node: tuple of atom indices
    cartesian_nodes: tuple = ()  # nodes whose cover is disconnected


def _schedule(td):
    """The Yannakakis schedule of a decomposition: ``(up, down, order)``.

    ``up`` lists the ``(child, parent)`` pairs deepest first, ties by
    node index; ``down`` lists them shallowest first, ties by node
    index; ``order`` is every node, root by root, each subtree in
    ``td.subtree`` order (parents before children).
    """
    pairs = [(u, p) for u, p in enumerate(td.parents) if p >= 0]
    up = sorted(pairs, key=lambda pair: td.depth(pair[0]), reverse=True)
    down = sorted(pairs, key=lambda pair: td.depth(pair[0]))
    order = [u for r in td.roots() for u in td.subtree(r)]
    return up, down, order


def compile_plan(cq, td):
    """Compile a decomposition of the query's hypergraph into a plan.

    A node's cover edges are its cover atoms, matched by name.  Every
    atom is assigned to the first node, in the final join's order,
    whose bag contains all its variables; a node joins its cover atoms
    plus its assigned atoms.
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
    atom_of_edge = {name_to_edge[a.name]: i for i, a in enumerate(cq.atoms)}
    foreign = {e for cover in td.covers for e in cover} - atom_of_edge.keys()
    if foreign:
        raise PlanError(f"cover edge {h.edge_names[min(foreign)]!r} is not an atom of the query")

    order = _schedule(td)[2]
    node_atoms = [[atom_of_edge[e] for e in cover] for cover in td.covers]
    for i, am in enumerate(atom_masks):
        host = next((u for u in order if not am & ~td.bags[u]), None)
        if host is None:
            raise PlanError(f"atom {cq.atoms[i].name!r} fits in no bag")
        if i not in node_atoms[host]:
            node_atoms[host].append(i)

    node_vars = [tuple(h.vertex_names[v] for v in ids_of(bag)) for bag in td.bags]
    cartesian = tuple(
        u for u, atoms in enumerate(node_atoms)
        if len(atoms) > 1 and not cover_is_connected([atom_masks[i] for i in atoms])
    )
    return EvalPlan(cq, td, node_vars, [tuple(a) for a in node_atoms], cartesian)


# ---------------------------------------------------------------------------
# interpreter


def _getter(positions):
    """A row's values at ``positions``, as a key: one value on its own,
    several as a tuple, none as ()."""
    return itemgetter(*positions) if positions else lambda row: ()


def _columns(positions):
    """A row's values at ``positions``, always as a tuple: a slice when
    they are consecutive, as one position always is."""
    if positions and positions == list(range(positions[0], positions[-1] + 1)):
        return itemgetter(slice(positions[0], positions[-1] + 1))
    return _getter(positions)


def _join(rows_a, vars_a, rows_b, vars_b, keep=None):
    """The natural join of two ``(rows, vars)`` relations, projected to
    ``keep``: every variable of a, then those b adds, when None.

    Returns ``(rows, keep)``.  Only the ``keep`` columns are built.
    When b adds no kept variable the join is a filter of a by b's keys.
    """
    shared = [v for v in vars_a if v in vars_b]
    new = [v for v in vars_b if v not in vars_a]
    keep = (*vars_a, *new) if keep is None else tuple(keep)
    key_a = _getter([vars_a.index(v) for v in shared])
    key_b = _getter([vars_b.index(v) for v in shared])
    tail = [v for v in new if v in keep]
    if not tail:
        keys = set(map(key_b, rows_b))
        if keep == vars_a:
            return {row for row in rows_a if key_a(row) in keys}, keep
        return _project((row for row in rows_a if key_a(row) in keys), vars_a, keep), keep
    tail_of = _columns([vars_b.index(v) for v in tail])
    index = {}
    for row in rows_b:
        index.setdefault(key_b(row), []).append(tail_of(row))
    wide = (*vars_a, *tail)
    if keep == wide:
        return {row + t for row in rows_a for t in index.get(key_a(row), ())}, keep
    pick = _columns([wide.index(v) for v in keep])
    return {pick(row + t) for row in rows_a for t in index.get(key_a(row), ())}, keep


def _semijoin(rows_a, vars_a, rows_b, vars_b):
    shared = [v for v in vars_a if v in vars_b]
    if not shared:
        return rows_a if rows_b else set()
    key_a = _getter([vars_a.index(v) for v in shared])
    keys = set(map(_getter([vars_b.index(v) for v in shared]), rows_b))
    return {row for row in rows_a if key_a(row) in keys}


def _project(rows, vars_from, vars_to):
    """``rows`` over ``vars_to`` as a set; ``rows`` itself when the
    variables are the same."""
    if vars_from == vars_to:
        return rows
    return set(map(_columns([vars_from.index(v) for v in vars_to]), rows))


def _join_connected(relations, out_vars):
    """Join ``(rows, vars)`` relations and project the result to
    ``out_vars``.

    First each relation is projected to ``out_vars`` and the variables
    of the other relations.  Then the join starts from the first
    relation; each next one is the first remaining relation that shares
    a variable with the result so far, or the first remaining one when
    none does (a Cartesian step).  Each join keeps only the variables
    in ``out_vars`` or used by a relation still to join (see
    :func:`_join`); the last keeps ``out_vars``.
    """
    out_vars = tuple(out_vars)
    wanted = set(out_vars)
    pending = list(relations)
    if len(pending) > 1:
        uses = Counter(v for _, vs in pending for v in vs)
        for i, (rows, vs) in enumerate(pending):
            live = tuple(v for v in vs if v in wanted or uses[v] > 1)
            pending[i] = _project(rows, vs, live), live
    rows, vs = pending.pop(0)
    while pending:
        i = next((i for i, (_, b) in enumerate(pending) if not set(b).isdisjoint(vs)), 0)
        rows_b, vars_b = pending.pop(i)
        keep = out_vars
        if pending:
            needed = wanted.union(*(b for _, b in pending))
            keep = tuple(v for v in dict.fromkeys((*vs, *vars_b)) if v in needed)
        rows, vs = _join(rows, vs, rows_b, vars_b, keep)
    return _project(rows, vs, out_vars)


def _atom_rows(atom, db):
    """The atom's relation as a set of tuples, keeping only the rows
    that agree wherever the atom repeats a variable."""
    if atom.relation not in db:
        raise PlanError(f"no relation {atom.relation!r} in the database")
    rows = db[atom.relation]
    out = set(map(tuple, rows))
    arity = len(atom.variables)
    if set(map(len, out)) - {arity}:
        width = next(n for n in map(len, rows) if n != arity)  # the first bad row's
        raise PlanError(
            f"relation {atom.relation!r} has arity {width}, atom expects {arity}"
        )
    first = [atom.variables.index(v) for v in atom.variables]
    repeats = [(i, j) for i, j in enumerate(first) if i != j]
    if repeats:
        out = {row for row in out if all(row[i] == row[j] for i, j in repeats)}
    return out


def _atom_table(atom, db):
    """The atom's rows over its distinct variables, as ``(rows, vars)``."""
    rows = _atom_rows(atom, db)
    dedup_vars = tuple(dict.fromkeys(atom.variables))
    return _project(rows, tuple(atom.variables), dedup_vars), dedup_vars


def _running_intersection(td):
    """Whether the nodes holding each vertex form one subtree: exactly
    one of them is a root or has a parent without the vertex."""
    once = twice = 0
    for u, p in enumerate(td.parents):
        top = td.bags[u] & ~td.bags[p] if p >= 0 else td.bags[u]
        twice |= once & top
        once |= top
    return not twice


def execute_plan(plan, db):
    """Run a plan over in-memory relations (name → iterable of tuples).

    Returns a sorted list of output tuples (see :func:`_sorted_rows`),
    or a bool for Boolean queries.  Matches naive join-project
    evaluation by construction.

    Each atom's relation is read once, in node order, so a missing
    relation or a wrong arity raises ``PlanError`` for the first such
    atom.  Every node's table is built first: its atoms, each projected
    to the bag and the variables the other atoms share, are joined in a
    connected order, each join fused with its projection.  Then the
    schedule's semi-joins run, and the answer is read from one node
    when its bag holds every output variable, else from the final join,
    which orders and projects the node tables the same way (see the
    module docstring).  :func:`emit_sql` always writes the final join.
    """
    cq = plan.query
    td = plan.decomposition
    atom_tables = {}
    for atoms in plan.node_atoms:
        for i in atoms:
            if i not in atom_tables:
                atom_tables[i] = _atom_table(cq.atoms[i], db)
    tables = [
        _join_connected([atom_tables[i] for i in atoms], vars_u)
        for atoms, vars_u in zip(plan.node_atoms, plan.node_vars)
    ]
    node_vars = plan.node_vars

    def semijoin(target, source):
        tables[target] = _semijoin(
            tables[target], node_vars[target], tables[source], node_vars[source]
        )

    up, down, order = _schedule(td)
    for child, parent in up:
        semijoin(parent, child)
    if cq.boolean:
        return all(tables[r] for r in td.roots())
    if not all(tables[r] for r in td.roots()):
        return []
    for child, parent in down:
        semijoin(child, parent)
    wanted = set(cq.output)
    host = next((u for u in order if wanted.issubset(node_vars[u])), None)
    if host is not None and _running_intersection(td):
        return _sorted_rows(_project(tables[host], node_vars[host], cq.output))
    return _sorted_rows(_join_connected([(tables[u], node_vars[u]) for u in order], cq.output))


def naive_evaluate(cq, db):
    """Join every atom, project to the output — the correctness oracle."""
    rows, vs = {()}, ()
    for a in cq.atoms:
        rows, vs = _join(rows, vs, *_atom_table(a, db))
    if cq.boolean:
        return bool(rows)
    return _sorted_rows(_project(rows, vs, tuple(cq.output)))


def _sorted_rows(rows):
    """``rows`` as a sorted list.

    A column whose cells do not compare, such as ints and strings read
    from one CSV column, sorts by the cells' type names first: ints
    before strings, each group by value.
    """
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=lambda row: tuple((type(c).__name__, c) for c in row))


# ---------------------------------------------------------------------------
# SQL emission


def emit_sql(plan):
    """Render a plan as a series of SQL statements (textual only).

    One temporary view per node, EXISTS subqueries for the semi-join
    phases, and a final SELECT (or a 1-row probe for Boolean queries).
    """
    cq = plan.query
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

    up, down, order = _schedule(plan.decomposition)
    for child, parent in up:
        semijoin(parent, child)
    if cq.boolean:
        probes = " AND ".join(
            f"EXISTS (SELECT 1 FROM {current[r]})" for r in plan.decomposition.roots()
        )
        statements.append(f"SELECT {probes} AS nonempty;")
        return "\n".join(statements) + "\n"
    for child, parent in down:
        semijoin(child, parent)
    source = {}
    conds = []
    items = []
    for u in order:
        alias = f"n{u}"
        items.append(f"{current[u]} AS {alias}")
        for v in plan.node_vars[u]:
            if v in source:
                conds.append(f"{source[v]} = {alias}.{v}")
            else:
                source[v] = f"{alias}.{v}"
    out = ", ".join(f"{source[v]} AS {v}" for v in cq.output)
    final = f"SELECT DISTINCT {out} FROM " + ", ".join(items)
    if conds:
        final += " WHERE " + " AND ".join(conds)
    statements.append(final + ";")
    return "\n".join(statements) + "\n"


# ---------------------------------------------------------------------------
# serialization


def plan_to_json(plan):
    """Serialize a plan (query, per-node tables, tree parents) to JSON text."""
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
            "parents": list(plan.decomposition.parents),
        },
        indent=2,
    )


def plan_from_json(text):
    """Rebuild an executable plan from its JSON form.

    The decomposition is rebuilt over the query's hypergraph, with the
    bags read from ``node_vars``.  A missing key, a mistyped value, a
    bad parent (out of range, or a cycle), a node with no atom or an
    atom index out of range, a variable that none of its node's atoms
    (or, for the output, of the query's atoms) uses, or a plan in the
    old format with ``steps`` raises :class:`PlanError`.
    """
    from .cq import Atom, ConjunctiveQuery

    data = json.loads(text)
    try:
        if "steps" in data:
            raise PlanError("plan holds 'steps', an old format: emit the plan again")
        atoms = [
            Atom(a["name"], a["relation"], tuple(a["variables"])) for a in data["atoms"]
        ]
        columns = {a["name"]: tuple(a["columns"]) for a in data["atoms"] if a.get("columns")}
        cq = ConjunctiveQuery(atoms, tuple(data["output"]), columns)
        node_vars = [tuple(v) for v in data["node_vars"]]
        node_atoms = [tuple(a) for a in data["node_atoms"]]
        parents = list(data["parents"])
        if not len(node_vars) == len(node_atoms) == len(parents):
            raise PlanError("node_vars, node_atoms and parents differ in length")
        try:
            check_parents(parents)
        except ValueError as exc:
            raise PlanError(f"malformed plan: {exc}") from None
        for u, (vs, atoms_u) in enumerate(zip(node_vars, node_atoms)):
            if not atoms_u:
                raise PlanError(f"node {u} names no atom")
            bad = [i for i in atoms_u if not 0 <= i < len(atoms)]
            if bad:
                raise PlanError(f"node {u} names atom {bad[0]}; the query has {len(atoms)}")
            used = set().union(*(atoms[i].variables for i in atoms_u))
            for v in vs:
                if v not in used:
                    raise PlanError(f"unknown variable {v!r}: no atom of node {u} uses it")
        for v in cq.output:
            if v not in cq.variables():
                raise PlanError(f"unknown output variable {v!r}")
        h = cq.hypergraph()
        vertex = {v: i for i, v in enumerate(h.vertex_names)}
        bags = [mask_of(vertex[v] for v in vs) for vs in node_vars]
        td = TreeDecomposition(h, bags, parents)
        return EvalPlan(cq, td, node_vars, node_atoms, tuple(data.get("cartesian_nodes", ())))
    except (KeyError, TypeError) as exc:
        raise PlanError(f"malformed plan: {exc!r}") from None
