import json
import random
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from softdecomp import (
    ConnectedCover,
    StatsCatalog,
    attach_covers,
    compile_plan,
    cost_order,
    emit_sql,
    execute_plan,
    naive_evaluate,
    parse_cq,
    parse_hypergraph,
    plan_from_json,
    plan_to_json,
    soft_bags,
    solve,
    solve_constrained,
    sql_to_cq,
)
from softdecomp import plans
from softdecomp.cq import Atom
from softdecomp.gallery import SQL_QUERIES, gallery
from softdecomp.plans import PlanError, _schedule
from softdecomp.solver import TreeDecomposition

from conftest import random_cq, random_database


def _decompose(cq, h=None):
    h = h or cq.hypergraph()
    for k in range(1, h.n_edges + 1):
        res = solve(h, soft_bags(h, k))
        if res.accepted:
            return attach_covers(res.decomposition)
    raise AssertionError("unreachable: width |E| always suffices")


def _plan(text):
    cq, h = parse_cq(text)
    return cq, compile_plan(cq, _decompose(cq, h))


def test_path_query_matches_naive():
    cq, plan = _plan("ans(x,z) :- r(x,y), s(y,z).")
    db = {"r": [(1, 2), (2, 3), (9, 9)], "s": [(2, 5), (3, 5), (7, 7)]}
    assert execute_plan(plan, db) == naive_evaluate(cq, db)
    assert execute_plan(plan, db) == [(1, 5), (2, 5)]


def test_boolean_query_probes():
    cq, plan = _plan("r(x,y), s(y,z)")
    assert execute_plan(plan, {"r": [(1, 2)], "s": [(2, 3)]}) is True
    assert execute_plan(plan, {"r": [(1, 2)], "s": [(3, 4)]}) is False


def test_empty_relation_gives_empty_answer():
    cq, plan = _plan("ans(x) :- r(x,y), s(y,x).")
    assert execute_plan(plan, {"r": [], "s": [(1, 2)]}) == []


def test_repeated_variable_filters_diagonal():
    cq, plan = _plan("ans(x) :- r(x,x).")
    db = {"r": [(1, 1), (1, 2), (3, 3)]}
    assert execute_plan(plan, db) == [(1,), (3,)]
    cq, plan = _plan("ans(x,y) :- r(x,y,x,y), s(y,z).")
    db = {"r": [(1, 2, 1, 2), (1, 2, 1, 3), (1, 2, 4, 2), (5, 5, 5, 5)],
          "s": [(2, 0), (5, 0)]}
    assert execute_plan(plan, db) == naive_evaluate(cq, db) == [(1, 2), (5, 5)]


def test_semijoins_precede_final_join():
    # Three levels, numbered so that some children come before their parents.
    _, h = parse_cq("r(x,y)")
    parents = [3, -1, 3, 1, 1]
    td = TreeDecomposition(h, [h.all_vertices_mask] * len(parents), parents)
    up, down, order = _schedule(td)
    pairs = {(u, p) for u, p in enumerate(parents) if p >= 0}
    assert len(up) == len(down) == len(pairs) and set(up) == set(down) == pairs
    # Up: a node's semi-joins from its children come before it passes
    # itself to its parent.  Down: the reverse.
    for c, p in up:
        assert all(up.index((x, c)) < up.index((c, p)) for x in td.children(c))
    for c, p in down:
        assert all(down.index((x, c)) > down.index((c, p)) for x in td.children(c))
    assert order == [1, 3, 4, 0, 2]


def test_missing_covers_rejected():
    cq, h = parse_cq("r(x,y), s(y,z)")
    bare = solve(h, soft_bags(h, 1)).decomposition
    with pytest.raises(PlanError):
        compile_plan(cq, bare)


def test_foreign_decomposition_rejected():
    cq, _ = parse_cq("r(x,y), s(y,z)")
    other_cq, other_h = parse_cq("a(p,q), b(q,p)")
    with pytest.raises(PlanError):
        compile_plan(cq, _decompose(other_cq, other_h))


def test_cover_edges_map_to_atoms_by_name():
    # The decomposition's hypergraph lists the atoms in reverse order.
    cq, _ = parse_cq("ans(x,w) :- r(x,y), s(y,z), t(z,w).")
    h = parse_hypergraph("t(z,w), s(y,z), r(x,y)")
    plan = compile_plan(cq, _decompose(cq, h))
    zw = plan.node_vars.index(("z", "w"))
    assert plan.node_atoms[zw] == (2,)
    assert plan.cartesian_nodes == ()
    db = {"r": [(1, 2), (3, 4)], "s": [(2, 5), (4, 6)], "t": [(5, 7), (8, 9)]}
    assert execute_plan(plan, db) == naive_evaluate(cq, db) == [(1, 7)]


def test_cover_edge_outside_the_query_rejected():
    cq, _ = parse_cq("r(x,y), s(y,z)")
    h = parse_hypergraph("r(x,y), s(y,z), u(x,z)")
    td = TreeDecomposition(h, [h.all_vertices_mask], [-1], [(2, 0)])
    with pytest.raises(PlanError, match="'u' is not an atom"):
        compile_plan(cq, td)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 100_000))
def test_plan_equals_naive_on_random_instances(seed):
    rng = random.Random(seed)
    cq = random_cq(rng)
    db = random_database(rng, cq)
    plan = compile_plan(cq, _decompose(cq))
    assert execute_plan(plan, db) == naive_evaluate(cq, db)


# --- join order -------------------------------------------------------------


def _record_join_sizes(monkeypatch):
    """Output row counts of every ``plans._join`` call from now on."""
    sizes = []
    join = plans._join

    def counted(*args, **kwargs):
        out = join(*args, **kwargs)
        sizes.append(len(out[0]))
        return out

    monkeypatch.setattr(plans, "_join", counted)
    return sizes


def _join_bound(db):
    """The largest relation's size times the largest number of rows that
    share one value in one column."""
    fan_out = max(
        Counter(row[i] for row in rows).most_common(1)[0][1]
        for rows in db.values()
        if rows
        for i in range(len(rows[0]))
    )
    return max(len(rows) for rows in db.values()) * fan_out


def test_disjoint_cover_atoms_join_through_the_linking_atom(monkeypatch):
    # The cover (r, s) is disconnected; t links it but is listed last.
    cq, h = parse_cq("ans(x,w) :- r(x,y), s(z,w), t(y,z).")
    plan = compile_plan(cq, TreeDecomposition(h, [h.all_vertices_mask], [-1], [(0, 1)]))
    assert plan.node_atoms == [(0, 1, 2)]
    assert plan.cartesian_nodes == ()
    n = 40
    db = {
        "r": [(i, 3 * i % n) for i in range(n)],
        "s": [(i, (i + 5) % n) for i in range(n)],
        "t": [(i, (7 * i + 1) % n) for i in range(n)],
    }
    expected = naive_evaluate(cq, db)
    sizes = _record_join_sizes(monkeypatch)
    assert execute_plan(plan, db) == expected
    assert sizes and max(sizes) <= _join_bound(db)


@pytest.mark.parametrize("name", [q for q in SQL_QUERIES if q != "q_lb"])
def test_bundled_queries_join_without_cartesian_blowup(name, monkeypatch):
    # q_lb is left out: it uses relation City with two arities.
    cq, h = sql_to_cq(SQL_QUERIES[name])
    db = random_database(random.Random(name), cq, max_rows=60, domain=30)
    stats = StatsCatalog(h, {h.edge_id(a.name): len(db[a.relation]) for a in cq.atoms})
    res = solve_constrained(
        h, soft_bags(h, gallery(name).widths["concov_shw"]), ConnectedCover(),
        cost_order(stats),
    )
    plan = compile_plan(cq, res.decomposition)
    expected = naive_evaluate(cq, db)
    sizes = _record_join_sizes(monkeypatch)
    assert execute_plan(plan, db) == expected
    assert max(sizes) <= _join_bound(db)


def _plain_join(rows_a, vars_a, rows_b, vars_b):
    """Every pair of rows that agree on the shared variables, as a's
    row plus b's other values: the unfused reference."""
    extra = [i for i, v in enumerate(vars_b) if v not in vars_a]
    pairs = [(vars_a.index(v), i) for i, v in enumerate(vars_b) if v in vars_a]
    rows = {ra + tuple(rb[i] for i in extra)
            for ra in rows_a for rb in rows_b if all(ra[i] == rb[j] for i, j in pairs)}
    return rows, tuple(vars_a) + tuple(vars_b[i] for i in extra)


@pytest.mark.parametrize("atom_a, atom_b, keep", [
    # b adds no variable: a filter of a by b's keys, kept whole or projected
    (("x", "y", "z"), ("z", "y"), ("x", "y", "z")),
    (("x", "y", "z"), ("z", "y"), ("z", "x")),
    # no shared variable: a Cartesian step, kept in another order
    (("x", "y"), ("z", "w"), ("w", "x", "z")),
    (("x", "y"), ("y", "z"), ()),
    (("x", "y"), ("y", "z"), ("x", "y", "z")),
    (("x", "y"), ("y", "z"), ("z", "y")),
    # repeated variables: the atom tables are over the distinct ones
    (("x", "x", "y"), ("y", "z", "z", "x"), ("z", "x")),
    (("x", "x", "y"), ("y", "z", "z"), ("x", "z")),
])
def test_fused_join_equals_the_projected_join(atom_a, atom_b, keep):
    rng = random.Random(f"{atom_a}{atom_b}{keep}")
    for _ in range(20):
        db = {rel: [tuple(rng.randrange(4) for _ in vs) for _ in range(rng.randrange(25))]
              for rel, vs in (("a", atom_a), ("b", atom_b))}
        table_a = plans._atom_table(Atom("a", "a", atom_a), db)
        table_b = plans._atom_table(Atom("b", "b", atom_b), db)
        rows, vs = _plain_join(*table_a, *table_b)
        assert plans._join(*table_a, *table_b, keep) == (plans._project(rows, vs, keep), keep)
        assert plans._join(*table_a, *table_b) == (rows, vs)


def test_wrong_arity_names_the_first_bad_row():
    cq, plan = _plan("ans(x) :- r(x,y), s(y,x).")
    db = {"r": [(1, 2), (1, 2, 3), (1,)], "s": [(1, 2)]}
    with pytest.raises(PlanError, match=r"^relation 'r' has arity 3, atom expects 2$"):
        execute_plan(plan, db)


# --- the answer read --------------------------------------------------------


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(plans, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(plans, name, counted)
    return calls


def test_empty_component_empties_the_answer():
    # The output lies in r's component; s's component has no row.
    cq, plan = _plan("ans(x) :- r(x,y), s(u,v).")
    assert len(plan.decomposition.roots()) == 2
    db = {"r": [(1, 2), (3, 4)], "s": []}
    assert execute_plan(plan, db) == naive_evaluate(cq, db) == []
    db["s"] = [(5, 6)]
    assert execute_plan(plan, db) == naive_evaluate(cq, db) == [(1,), (3,)]


def test_output_in_one_bag_skips_the_final_join(monkeypatch):
    cq, plan = _plan("ans(y,x) :- r(x,y), s(y,z).")
    db = {"r": [(1, 2), (2, 3), (9, 9)], "s": [(2, 5), (3, 5), (3, 6)]}
    calls = _count_calls(monkeypatch, "_join_connected")
    assert execute_plan(plan, db) == naive_evaluate(cq, db) == [(2, 1), (3, 2)]
    assert len(calls) == len(plan.node_vars) == 2


def test_output_across_bags_takes_the_final_join(monkeypatch):
    cq, plan = _plan("ans(x,z) :- r(x,y), s(y,z).")
    assert not any({"x", "z"} <= set(vs) for vs in plan.node_vars)
    db = {"r": [(1, 2), (2, 3), (9, 9)], "s": [(2, 5), (3, 5), (3, 6)]}
    calls = _count_calls(monkeypatch, "_join_connected")
    assert execute_plan(plan, db) == naive_evaluate(cq, db) == [(1, 5), (2, 5), (2, 6)]
    assert len(calls) == len(plan.node_vars) + 1
    assert calls[-1][1] == ("x", "z")


def test_boolean_query_stops_after_the_up_phase(monkeypatch):
    cq, plan = _plan("r(x,y), s(y,z), t(z,w)")
    up = _schedule(plan.decomposition)[0]
    assert up
    db = {"r": [(1, 2)], "s": [(2, 3)], "t": [(3, 4)]}
    semijoins = _count_calls(monkeypatch, "_semijoin")
    joins = _count_calls(monkeypatch, "_join_connected")
    assert execute_plan(plan, db) is True
    assert len(semijoins) == len(up)
    assert len(joins) == len(plan.node_vars)


def test_tree_without_running_intersection_takes_the_final_join():
    # y sits in nodes 0 and 2 but not in node 1 between them, so the
    # reduced table of node 0 keeps x = 2, which no s row supports.
    cq, _ = parse_cq("ans(x) :- r(x,y), s(y,z), u(z).")
    text = json.dumps({
        "atoms": [{"name": a.name, "relation": a.relation, "variables": list(a.variables),
                   "columns": []} for a in cq.atoms],
        "output": ["x"],
        "node_vars": [["x", "y"], ["z"], ["y", "z"]],
        "node_atoms": [[0], [2], [1]],
        "parents": [-1, 0, 1],
    })
    plan = plan_from_json(text)
    db = {"r": [(1, 1), (2, 2)], "s": [(1, 5)], "u": [(5,)]}
    assert execute_plan(plan, db) == naive_evaluate(cq, db) == [(1,)]


# --- serialization ---------------------------------------------------------


def test_plan_json_roundtrip_executes_identically():
    rng = random.Random(42)
    for _ in range(10):
        cq = random_cq(rng)
        db = random_database(rng, cq)
        plan = compile_plan(cq, _decompose(cq))
        back = plan_from_json(plan_to_json(plan))
        assert back.node_vars == plan.node_vars
        assert back.node_atoms == plan.node_atoms
        assert back.decomposition.parents == plan.decomposition.parents
        assert execute_plan(back, db) == execute_plan(plan, db)
        assert emit_sql(back) == emit_sql(plan)


def test_plan_json_is_stable():
    cq, plan = _plan("ans(x,z) :- r(x,y), s(y,z).")
    text = plan_to_json(plan)
    assert plan_to_json(plan_from_json(text)) == text


# --- SQL emission -----------------------------------------------------------


def test_emit_sql_smoke():
    cq, plan = _plan("ans(x,z) :- r(x,y), s(y,z).")
    sql = emit_sql(plan)
    assert "SELECT" in sql.upper()
    assert "r" in sql and "s" in sql


def test_emit_sql_boolean_probe():
    cq, plan = _plan("r(x,y), s(y,z)")
    sql = emit_sql(plan)
    assert "SELECT" in sql.upper()


def test_emitted_sql_matches_naive_in_sqlite():
    rng = random.Random(5)
    conn = sqlite3.connect(":memory:")
    try:
        for _ in range(200):
            cq = random_cq(rng)
            db = random_database(rng, cq)
            plan = compile_plan(cq, _decompose(cq))
            arity = {a.relation: len(a.variables) for a in cq.atoms}
            statements = emit_sql(plan).splitlines()
            try:
                for rel, rows in db.items():
                    cols = [f"c{i}" for i in range(arity[rel])]
                    conn.execute(f"CREATE TABLE {rel} ({', '.join(cols)})")
                    conn.executemany(
                        f"INSERT INTO {rel} VALUES ({', '.join('?' * len(cols))})", rows)
                for statement in statements[:-1]:
                    conn.execute(statement)
                got = conn.execute(statements[-1]).fetchall()
            finally:
                for kind, name in conn.execute(
                        "SELECT type, name FROM sqlite_temp_master WHERE type = 'view' "
                        "UNION ALL SELECT type, name FROM sqlite_master "
                        "WHERE type = 'table'").fetchall():
                    conn.execute(f"DROP {kind.upper()} {name}")
            if cq.boolean:
                assert bool(got[0][0]) == naive_evaluate(cq, db)
            else:
                assert sorted(set(got)) == naive_evaluate(cq, db)
        assert not conn.execute("SELECT name FROM sqlite_temp_master").fetchall()
    finally:
        conn.close()
