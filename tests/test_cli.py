import json
import time

import pytest

from softdecomp import gallery, naive_evaluate, parse_cq
from softdecomp.cli import _read_db, main


PATH = "r(a,b),\ns(b,c),\nt(c,d)\n"
CYCLE = "e0(a,b), e1(b,c), e2(c,d), e3(d,a)\n"


@pytest.fixture
def hg_file(tmp_path):
    p = tmp_path / "path.hg"
    p.write_text(PATH)
    return str(p)


def test_decompose_accepts_and_prints_tree(hg_file, capsys):
    assert main(["decompose", "--input", hg_file, "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "ACCEPT" in out and "cover{" in out


def test_decompose_rejects_with_exit_one(tmp_path, capsys):
    p = tmp_path / "cycle.hg"
    p.write_text(CYCLE)
    assert main(["decompose", "--input", str(p), "--k", "1"]) == 1
    assert "REJECT" in capsys.readouterr().out


def test_decompose_with_constraints(tmp_path, capsys):
    p = tmp_path / "cycle.hg"
    p.write_text(CYCLE)
    labels = tmp_path / "labels.txt"
    labels.write_text("e0 left\ne1 left\ne2 right\ne3 right\n")
    # A conjunction is no built-in pairing, so completeness is unverified.
    with pytest.warns(UserWarning, match="preference completeness is unverified"):
        rc = main([
            "decompose", "--input", str(p), "--k", "2",
            "--constraint", "concov",
            "--constraint", f"partclust:labels={labels}",
        ])
    assert rc == 0
    assert "ACCEPT" in capsys.readouterr().out


def test_decompose_top_n(hg_file, capsys):
    assert main(["decompose", "--input", hg_file, "--k", "2", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("rank") == 3


def test_decompose_emits_plan_for_queries(tmp_path, capsys):
    q = tmp_path / "q.cq"
    q.write_text("ans(x,z) :- r(x,y), s(y,z).")
    rc = main([
        "decompose", "--input", str(q), "--format", "cq", "--k", "1",
        "--emit", "plan", "--out", str(tmp_path),
    ])
    assert rc == 0
    plan_files = list(tmp_path.glob("*.json"))
    assert plan_files
    data = json.loads(plan_files[0].read_text())
    assert len(data["parents"]) == len(data["node_vars"]) == 2
    assert "steps" not in data


def test_plan_emission_needs_a_query(hg_file):
    assert main(["decompose", "--input", hg_file, "--k", "1", "--emit", "plan"]) == 2


def test_run_plan_round_trip(tmp_path, capsys):
    q = tmp_path / "q.cq"
    q.write_text("ans(x,z) :- r(x,y), s(y,z).")
    main([
        "decompose", "--input", str(q), "--format", "cq", "--k", "1",
        "--emit", "plan", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    plan = next(tmp_path.glob("*.json"))
    db = tmp_path / "db"
    db.mkdir()
    (db / "r.csv").write_text("c0,c1\n1,2\n2,3\n")
    (db / "s.csv").write_text("c0,c1\n2,5\n")
    assert main(["run-plan", "--plan", str(plan), "--db", str(db)]) == 0
    out = capsys.readouterr().out
    assert "1,5" in out


def test_run_plan_reads_only_decimal_cells_as_ints(tmp_path, capsys):
    # "--5" and "²" pass str.isdigit once "-" is stripped, but int() rejects
    # them; only cells of the form -?[0-9]+ become ints.
    db = tmp_path / "db"
    db.mkdir()
    (db / "r.csv").write_text("c0,c1,c2,c3\n--5,²,-7,12\n")
    assert _read_db(db, ["r"]) == {"r": {("--5", "²", -7, 12)}}
    q = tmp_path / "q.cq"
    q.write_text("ans(x,z) :- r(x,y), s(y,z).")
    main([
        "decompose", "--input", str(q), "--format", "cq", "--k", "1",
        "--emit", "plan", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    (db / "r.csv").write_text("c0,c1\n--5,²\na,12\n")
    (db / "s.csv").write_text("c0,c1\n²,-7\n12,3\n")
    assert main(["run-plan", "--plan", str(next(tmp_path.glob("*.json"))), "--db", str(db)]) == 0
    assert capsys.readouterr().out.split() == ["x,z", "--5,-7", "a,3"]


def test_run_plan_sorts_a_column_of_ints_and_strings(tmp_path, capsys):
    q = tmp_path / "q.cq"
    q.write_text("ans(x,z) :- r(x,y), s(y,z).")
    main([
        "decompose", "--input", str(q), "--format", "cq", "--k", "1",
        "--emit", "plan", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    db = tmp_path / "db"
    db.mkdir()
    (db / "r.csv").write_text("c0,c1\na,2\n1,2\n")
    (db / "s.csv").write_text("c0,c1\n2,5\n")
    assert main(["run-plan", "--plan", str(next(tmp_path.glob("*.json"))), "--db", str(db)]) == 0
    assert capsys.readouterr().out.split() == ["x,z", "1,5", "a,5"]
    cq, _ = parse_cq(q.read_text())
    assert naive_evaluate(cq, _read_db(db, ["r", "s"])) == [(1, 5), ("a", 5)]


def test_malformed_plan_is_usage_error(tmp_path, capsys):
    q = tmp_path / "q.cq"
    q.write_text("ans(x,z) :- r(x,y), s(y,z).")
    main([
        "decompose", "--input", str(q), "--format", "cq", "--k", "1",
        "--emit", "plan", "--out", str(tmp_path),
    ])
    plan = json.loads(next(tmp_path.glob("*.json")).read_text())
    db = tmp_path / "db"
    db.mkdir()
    (db / "r.csv").write_text("c0,c1\n1,2\n")
    (db / "s.csv").write_text("c0,c1\n2,5\n")
    assert len(plan["parents"]) == 2
    no_output = {key: value for key, value in plan.items() if key != "output"}
    out_of_range = dict(plan, parents=[-1, 99])
    cycle = dict(plan, parents=[1, 0])
    bad_atom = dict(plan, node_atoms=[[0], [7]])
    unknown_var = dict(plan, node_vars=[plan["node_vars"][0] + ["nope"], plan["node_vars"][1]])
    old_format = dict(plan, steps=[{"op": "final_join", "nodes": [0, 1], "output": ["x"]}])
    for bad, named in ((no_output, "output"), (out_of_range, "99"), (cycle, "cycle"),
                       (bad_atom, "atom 7"), (unknown_var, "'nope'"), (old_format, "steps")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["run-plan", "--plan", str(path), "--db", str(db)]) == 2
        assert named in capsys.readouterr().err


def test_widths_reports_minimum(hg_file, capsys):
    for measure, k in [("shw", 1), ("hw", 1), ("ghw", 1), ("shw:1", 1)]:
        assert main(["widths", "--input", hg_file, "--measure", measure]) == 0
        assert f"= {k}" in capsys.readouterr().out


def test_widths_respects_max_k(tmp_path, capsys):
    p = tmp_path / "cycle.hg"
    p.write_text(CYCLE)
    assert main(["widths", "--input", str(p), "--measure", "hw", "--max-k", "1"]) == 1
    assert "> 1" in capsys.readouterr().out


def test_widths_ghw_is_exact_above_14_vertices(tmp_path, capsys):
    # H3prime has 18 vertices: k = 2 has no decomposition, k = 3 has one.
    p = tmp_path / "h3prime.hg"
    p.write_text(gallery("H3prime").hypergraph.serialize())
    assert main(["widths", "--input", str(p), "--measure", "ghw", "--max-k", "3"]) == 0
    assert capsys.readouterr().out == "ghw = 3\n"
    assert main(["widths", "--input", str(p), "--measure", "ghw", "--max-k", "2"]) == 1
    assert capsys.readouterr().out == "ghw > 2\n"
    # One edge of 24 vertices has 2^24 - 1 sub-masks: a budget overrun.
    p.write_text(f"e({','.join(f'v{i}' for i in range(24))})\n")
    assert main(["widths", "--input", str(p), "--measure", "ghw"]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_verify_valid_and_invalid(tmp_path, hg_file, capsys):
    good = tmp_path / "good.td"
    good.write_text("0 -1 {a,b}\n1 0 {b,c}\n2 1 {c,d}\n")
    assert main(["verify", "--td", str(good), "--hypergraph", hg_file, "--k", "1"]) == 0
    assert "VALID" in capsys.readouterr().out
    bad = tmp_path / "bad.td"
    bad.write_text("0 -1 {a,b}\n1 0 {c,d}\n")
    assert main(["verify", "--td", str(bad), "--hypergraph", hg_file]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "FAIL" in out


def test_verify_reads_parents_after_children(tmp_path, capsys):
    # The path {a,b} -> {b,c} -> {c,d} -> {d,x}, written leaf first.
    h = tmp_path / "path.hg"
    h.write_text("e2(a,b), e3(b,c), e4(c,d), e5(d,x), e6(x)\n")
    lines = ["0 3 {d,x} cover{e5}", "1 -1 {a,b} cover{e2}",
             "2 1 {b,c} cover{e3}", "3 2 {c,d} cover{e4}"]
    td = tmp_path / "path.td"
    td.write_text("\n".join(lines) + "\n")
    args = ["verify", "--td", str(td), "--hypergraph", str(h), "--mode", "hw", "--k", "2"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "result: VALID" in out and "FAIL" not in out
    td.write_text("0 1 {d,x} cover{e5}\n1 0 {a,b} cover{e2}\n")
    assert main(args) == 2
    assert "parent cycle" in capsys.readouterr().err


def test_only_ctd_mode_checks_component_normal_form(tmp_path, capsys):
    # A width-1 HD, but no component left by {y,z} has the leaf {y} as union.
    h = tmp_path / "ab.hg"
    h.write_text("a(x,y), b(y,z)\n")
    td = tmp_path / "ab.td"
    td.write_text("0 -1 {x,y} cover{a}\n1 0 {y,z} cover{b}\n2 1 {y} cover{a}\n")
    args = ["verify", "--td", str(td), "--hypergraph", str(h), "--k", "1", "--mode"]
    for mode, rc, verdict in (("hw", 0, "VALID"), ("ghw", 0, "VALID"), ("ctd", 1, "INVALID")):
        assert main([*args, mode]) == rc, mode
        out = capsys.readouterr().out
        assert f"result: {verdict}\n" in out, mode
        assert ("component-normal-form" in out) == (mode == "ctd"), mode
        assert ("check cover-descent: ok" in out) == (mode == "hw"), mode


def test_verify_rejects_a_cover_that_misses_its_bag(tmp_path, capsys):
    # {x,y,z} needs both edges: the cover {a} has one edge, but misses z.
    h = tmp_path / "ab.hg"
    h.write_text("a(x,y), b(y,z)\n")
    td = tmp_path / "one.td"
    td.write_text("0 -1 {x,y,z} cover{a}\n")
    for mode in ("ghw", "hw"):
        args = ["verify", "--td", str(td), "--hypergraph", str(h), "--k", "1", "--mode", mode]
        assert main(args) == 1, mode
        out = capsys.readouterr().out
        assert "result: INVALID\n" in out, mode
        assert "cover-containment: node 0 cover misses {z}" in out, mode
    td.write_text("0 -1 {x,y,z} cover{a,b}\n")
    assert main(["verify", "--td", str(td), "--hypergraph", str(h), "--k", "2"]) == 0
    assert "check cover-containment: ok" in capsys.readouterr().out


def test_sql_input(tmp_path, capsys):
    q = tmp_path / "q.sql"
    q.write_text(
        "SELECT MIN(r.a) FROM r, s WHERE r.a = s.a"
    )
    assert main(["widths", "--input", str(q), "--format", "sql",
                 "--measure", "shw"]) == 0
    assert "= 1" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path):
    assert main(["decompose", "--input", "/nonexistent", "--k", "1"]) == 2
    p = tmp_path / "bad.hg"
    p.write_text("this is not a hypergraph")
    assert main(["decompose", "--input", str(p), "--k", "1"]) == 2
    assert main(["widths", "--input", str(p), "--measure", "nope"]) == 2
    assert main(["nonsense"]) == 2


def test_unreadable_input_and_unwritable_out_are_usage_errors(tmp_path, hg_file, capsys):
    # A directory as the input file, and an existing file as the output
    # directory: both are OS errors, reported without a traceback.
    assert main(["decompose", "--input", str(tmp_path), "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["decompose", "--input", hg_file, "--k", "1", "--out", str(taken)]) == 2
    assert "error:" in capsys.readouterr().err
    assert taken.read_text() == ""


@pytest.mark.parametrize("argv,named", [
    (["decompose", "--k", "2", "--top", "0"], "must be at least 1, got 0"),
    (["decompose", "--k", "2", "--top", "-1"], "must be at least 1, got -1"),
    (["decompose", "--k", "2", "--level", "-3"], "must be at least 0, got -3"),
    (["widths", "--measure", "shw:-2"], "shw level must be at least 0, got -2"),
    (["decompose", "--k", "0"], "must be at least 1, got 0"),
    (["decompose", "--k", "-1"], "must be at least 1, got -1"),
    (["widths", "--measure", "shw", "--max-k", "0"], "must be at least 1, got 0"),
    (["widths", "--measure", "hw", "--max-k", "-2"], "must be at least 1, got -2"),
    (["verify", "--td", "t.td", "--k", "0"], "must be at least 1, got 0"),
    (["decompose", "--k", "2", "--constraint", "shallowcyc:d=-1"], "with depth >= 0"),
])
def test_out_of_range_counts_are_usage_errors(hg_file, capsys, argv, named):
    flag = "--hypergraph" if argv[0] == "verify" else "--input"
    assert main([*argv, flag, hg_file]) == 2
    assert named in capsys.readouterr().err


def test_unknown_constraint_edge_is_usage_error(tmp_path, hg_file):
    labels = tmp_path / "labels.txt"
    labels.write_text("zzz\n")
    rc = main([
        "decompose", "--input", hg_file, "--k", "1",
        "--constraint", f"partclust:labels={labels}",
    ])
    assert rc == 2


def test_unknown_statistics_relation_is_usage_error(tmp_path, capsys):
    q = tmp_path / "q.cq"
    q.write_text("ans(x,z) :- r(x,y), s(y,z).")
    stats = tmp_path / "st.json"
    stats.write_text(json.dumps({"relations": {"nosuch": {"card": 10}}}))
    rc = main([
        "decompose", "--input", str(q), "--format", "cq", "--k", "1",
        "--constraint", "concov", "--stats", str(stats),
    ])
    assert rc == 2
    assert "unknown relation 'nosuch'" in capsys.readouterr().err


def test_malformed_statistics_are_usage_errors(tmp_path, capsys):
    q = tmp_path / "q.cq"
    q.write_text("ans(x,z) :- r(x,y), s(y,z).")
    stats = tmp_path / "st.json"
    no_card = {"relations": {"r": {"key": ["x"]}, "s": {"card": 3}}}
    relations = {"r": {"card": 2}, "s": {"card": 3}}
    bad_key = {"relations": dict(relations, s={"card": 3, "key": ["nokey"]})}
    bad_bag = {"relations": relations, "bags": [{"vars": ["x", "nobag"], "card": 4}]}
    cases = (
        (no_card, "'card' for relation 'r'"), (bad_key, "'nokey'"),
        (bad_bag, "'nobag'"), ([relations], "JSON object"),
        ({"relations": {"r": 5}}, "relation 'r' is not a JSON object"),
        ({"relations": []}, "'relations' is not a JSON object"),
        ({"relations": relations, "bags": [7]}, "'bags' is not a list of JSON objects"),
        ({"relations": relations, "bags": {"vars": ["x"], "card": 1}}, "'bags' is not a list"),
        ({"relations": dict(relations, r={"card": None})}, "'card' for relation 'r' is not"),
        ({"relations": dict(relations, r={"card": "2"})}, "'card' for relation 'r' is not"),
        ({"relations": relations, "bags": [{"vars": ["x"], "card": 1.5}]}, "is not an integer"),
        ({"relations": relations, "cap": None}, "'cap' for the catalog is not an integer"),
        ({"relations": dict(relations, r={"card": 2, "key": "x"})}, "is not a list of names"),
        ({"relations": relations, "bags": [{"vars": "xy", "card": 4}]}, "is not a list of names"),
        ({"relations": dict(relations, r={"card": -5})}, "'card' for relation 'r' is negative"),
        ({"relations": relations, "cap": -1}, "'cap' for the catalog is negative"),
    )
    for bad, named in cases:
        stats.write_text(json.dumps(bad))
        capsys.readouterr()
        rc = main([
            "decompose", "--input", str(q), "--format", "cq", "--k", "1",
            "--constraint", "concov", "--stats", str(stats),
        ])
        assert rc == 2
        assert named in capsys.readouterr().err


def test_decompose_reject_on_h3_is_fast(tmp_path):
    # The plain block search rejects H3 at k=2 before any tree is scored,
    # within the acceptance suite's 1 s CPU bound.
    p = tmp_path / "h3.hg"
    p.write_text(gallery("H3").hypergraph.serialize())
    start = time.process_time()
    assert main(["decompose", "--input", str(p), "--k", "2"]) == 1
    assert time.process_time() - start < 1.0


def test_optimizer_search_budget_is_exit_three(hg_file, monkeypatch, capsys):
    monkeypatch.setattr("softdecomp.constraints.DEFAULT_MAX_EVALS", 1)
    assert main(["decompose", "--input", hg_file, "--k", "1"]) == 3
    assert "evaluation budget" in capsys.readouterr().err
