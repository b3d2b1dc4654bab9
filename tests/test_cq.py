import random
import re

import pytest

from softdecomp import (
    QuerySyntaxError,
    SQL_QUERIES,
    UnsupportedSqlError,
    gallery,
    parse_cq,
    sql_to_cq,
)
from softdecomp.cq import _check_supported


def test_parse_with_head():
    cq, h = parse_cq("ans(x,z) :- r(x,y), s(y,z).")
    assert cq.output == ("x", "z")
    assert [a.relation for a in cq.atoms] == ["r", "s"]
    assert h.vertex_names == ("x", "y", "z")
    assert not cq.boolean


def test_parse_bare_body_is_boolean():
    cq, h = parse_cq("r(x,y), s(y,z)")
    assert cq.boolean and cq.output == ()


def test_repeated_variable_collapses_in_hypergraph():
    cq, h = parse_cq("r(x,x,y)")
    assert cq.atoms[0].variables == ("x", "x", "y")
    assert h.edge_vertex_ids == ((0, 1),)


def test_repeated_relation_gets_distinct_atom_names():
    cq, _ = parse_cq("r(x,y), r(y,z)")
    assert [a.name for a in cq.atoms] == ["r_0", "r_1"]
    assert {a.relation for a in cq.atoms} == {"r"}


def test_mixed_arity_warns():
    with pytest.warns(UserWarning, match="arities"):
        parse_cq("r(x,y), r(z)")


@pytest.mark.parametrize(
    "bad",
    ["", "r(x,y) s(y,z)", "r()", "ans(x) :- r(y)", "ans(x,) : r(x)"],
)
def test_syntax_errors(bad):
    with pytest.raises(QuerySyntaxError):
        parse_cq(bad)


def test_atom_text_reparses_to_same_query():
    cq, h = parse_cq("ans(x,z) :- r(x,y), s(y,z), r(z,x).")
    again, h2 = parse_cq(cq.atom_text())
    assert again.output == cq.output
    assert [a.variables for a in again.atoms] == [a.variables for a in cq.atoms]
    assert h2.vertex_names == h.vertex_names


# --- SQL extraction --------------------------------------------------------


SQL = """
SELECT MIN(ws.ws_item_sk) FROM web_sales AS ws, store_sales AS ss, item
WHERE ws.ws_item_sk = ss.ss_item_sk AND ss.ss_item_sk = item.i_item_sk
"""


def test_sql_basic_extraction():
    cq, h = sql_to_cq(SQL)
    assert [a.relation for a in cq.atoms] == ["web_sales", "store_sales", "item"]
    assert [a.name for a in cq.atoms] == ["ws", "ss", "item"]
    # all three columns sit in one equivalence class
    assert h.n_vertices == 1
    assert len(cq.output) == 1


def test_sql_head_outside_joins_is_dropped():
    cq, _ = sql_to_cq(SQL.replace("MIN(ws.ws_item_sk)", "MIN(ws.ws_quantity)"))
    assert cq.output == () and cq.boolean


def test_sql_drops_unjoined_columns_unless_asked():
    sql = """
    SELECT ws.ws_sold_date FROM web_sales AS ws, item
    WHERE ws.ws_item_sk = item.i_item_sk
    """
    cq, h = sql_to_cq(sql)
    assert len(cq.atoms[0].variables) == 1  # only the join column kept


def test_sql_bare_columns_resolve_by_initialism():
    sql = """
    SELECT MIN(ws_quantity) FROM web_sales, store_sales
    WHERE ws_item_sk = ss_item_sk
    """
    cq, h = sql_to_cq(sql)
    assert {a.name for a in cq.atoms} == {"web_sales", "store_sales"}
    assert h.n_vertices == 1


def test_sql_join_on_syntax():
    sql = """
    SELECT a.x_id FROM alpha AS a JOIN beta AS b ON a.x_id = b.x_id
    JOIN gamma AS g ON b.y_id = g.y_id
    """
    cq, h = sql_to_cq(sql)
    assert len(cq.atoms) == 3
    assert h.n_vertices == 2


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM r, s WHERE r.a = s.a OR r.b = s.b",
        "SELECT * FROM r WHERE r.a > 3",
        "SELECT * FROM r, s WHERE r.a = s.a GROUP BY r.a",
        "SELECT * FROM r LEFT JOIN s ON r.a = s.a",
        "SELECT * FROM r WHERE r.a = (SELECT MIN(b) FROM s)",
        "SELECT * FROM r, s WHERE r.a LIKE 'x%'",
    ],
)
def test_unsupported_sql_errors_loudly(sql):
    with pytest.raises(UnsupportedSqlError):
        sql_to_cq(sql)


def test_from_item_outside_every_join_is_an_error():
    with pytest.raises(UnsupportedSqlError):
        sql_to_cq("SELECT * FROM r, s, t WHERE r.a = s.a")


def test_unknown_alias_is_an_error():
    with pytest.raises(QuerySyntaxError):
        sql_to_cq("SELECT * FROM r AS x WHERE y.a = x.a")


def _degree_profile(h):
    deg = {}
    for e in h.edge_vertex_ids:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    return sorted(sorted(deg[v] for v in e) for e in h.edge_vertex_ids)


@pytest.mark.parametrize("name", ["q_ds", "q_hto", "q_hto2", "q_hto3", "q_hto4", "q_lb"])
def test_bundled_sql_reproduces_gallery_structure(name):
    cq, h = sql_to_cq(SQL_QUERIES[name])
    g = gallery(name).hypergraph
    assert h.n_vertices == g.n_vertices
    assert h.n_edges == g.n_edges
    assert _degree_profile(h) == _degree_profile(g)


def test_select_inside_a_name_is_not_a_subquery():
    # "selected" holds "select" as a substring, not as a keyword.
    cq, h = sql_to_cq("SELECT MIN(r.a) FROM r, s WHERE r.a = s.a AND r.b = s.selected")
    assert len(cq.atoms) == 2
    assert h.n_vertices == 2


# --- the check for unsupported constructs ------------------------------------

# The check as ten searches: a second SELECT first, then each construct
# in this order.  The one-scan check must give the same verdicts.
_REFERENCE_PATTERNS = [
    (r"\bor\b", "OR"),
    (r"\bunion\b", "UNION"),
    (r"\bgroup\s+by\b", "GROUP BY"),
    (r"\bouter\b", "OUTER JOIN"),
    (r"\bleft\b", "LEFT JOIN"),
    (r"\bright\b", "RIGHT JOIN"),
    (r"\bnot\b", "NOT"),
    (r"[<>]|!=", "non-equality comparison"),
    (r"\blike\b", "LIKE"),
]


def _reference_message(sql):
    lowered = sql.lower()
    if len(re.findall(r"\bselect\b", lowered)) > 1:
        return "unsupported construct: subquery"
    for pat, name in _REFERENCE_PATTERNS:
        if re.search(pat, lowered):
            return f"unsupported construct: {name}"
    return None


def _message(sql):
    try:
        _check_supported(sql)
    except UnsupportedSqlError as err:
        return str(err)
    return None


@pytest.mark.parametrize(
    "sql, construct",
    [
        ("SELECT * FROM r, s WHERE r.a = s.a OR r.b = s.b", "OR"),
        ("SELECT a FROM r UNION SELECT a FROM s", "subquery"),
        ("SELECT * FROM r UNION ALL t", "UNION"),
        ("SELECT * FROM r, s WHERE r.a = s.a GROUP\n  BY r.a", "GROUP BY"),
        ("SELECT * FROM r FULL OUTER JOIN s ON r.a = s.a", "OUTER JOIN"),
        ("SELECT * FROM r LEFT JOIN s ON r.a = s.a", "LEFT JOIN"),
        ("SELECT * FROM r RIGHT JOIN s ON r.a = s.a", "RIGHT JOIN"),
        ("SELECT * FROM r, s WHERE NOT r.a = s.a", "NOT"),
        ("SELECT * FROM r WHERE r.a > 3", "non-equality comparison"),
        ("SELECT * FROM r WHERE r.a <= 3", "non-equality comparison"),
        ("SELECT * FROM r WHERE r.a != 3", "non-equality comparison"),
        ("SELECT * FROM r, s WHERE r.a LIKE 'x%'", "LIKE"),
        ("SELECT * FROM r WHERE r.a = (SELECT MIN(b) FROM s)", "subquery"),
        # Two constructs: the one reported first wins, wherever it stands.
        ("SELECT * FROM r WHERE r.a LIKE 'x' OR r.b = 1", "OR"),
        ("SELECT * FROM r LEFT OUTER JOIN s ON r.a = s.a", "OUTER JOIN"),
        ("SELECT * FROM r WHERE r.a < 3 AND NOT r.b = 1", "NOT"),
        ("SELECT * FROM r WHERE r.a LIKE 'x' AND r.b > 1", "non-equality comparison"),
        ("SELECT * FROM r RIGHT JOIN s ON r.a = s.a GROUP BY r.a", "GROUP BY"),
        ("SELECT * FROM r WHERE r.a = 1 OR r.b IN (SELECT b FROM s)", "subquery"),
    ],
)
def test_each_unsupported_construct_has_its_message(sql, construct):
    with pytest.raises(UnsupportedSqlError, match=f"^unsupported construct: {construct}$"):
        sql_to_cq(sql)
    assert _message(sql) == _reference_message(sql)


def test_words_that_hold_a_construct_pass_the_check():
    # "order", "notes", "leftover", "likely", "groups by": no whole
    # keyword, and "=" alone is an equality.
    for sql in ("SELECT a FROM r WHERE r.order = r.notes",
                "SELECT a FROM leftover, likely WHERE leftover.x = likely.x",
                "SELECT a FROM r WHERE r.groups = r.by"):
        assert _message(sql) is None
        assert _reference_message(sql) is None


def test_one_scan_agrees_with_ten_searches():
    rng = random.Random(2024)
    words = ["select", "SELECT", "or", "order", "union", "group", "by", "groupby", "outer",
             "left", "right", "not", "notes", "like", "likely", "from", "where", "and",
             "r.a", "=", "<", ">", "!=", "!", "<>", "(", ")", ",", "_or", "or_", "\n", " "]
    seen = set()
    for _ in range(3000):
        sql = "".join(rng.choice(words) + rng.choice(["", " ", "  ", "\t"])
                      for _ in range(rng.randint(1, 12)))
        got = _message(sql)
        assert got == _reference_message(sql), sql
        seen.add(got)
    # Every verdict, a pass included, came up.
    assert len(seen) == len(_REFERENCE_PATTERNS) + 2
