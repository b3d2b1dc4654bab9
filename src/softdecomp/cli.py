"""Command-line entry point.

Subcommands: ``decompose`` (build a constrained decomposition of a
hypergraph or query), ``widths`` (compute width measures), ``verify``
(validate a decomposition file), ``run-plan`` (execute a saved
evaluation plan, which holds the query, each node's atoms and variables
and the tree's ``parents``, against a CSV directory).

Exit codes: 0 success/ACCEPT, 1 REJECT or failed validation, 2 usage
error (including a statistics file of the wrong shape or that names
an unknown relation, an out-of-range count or width, and a file that
cannot be read or written), 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import re
import sys

from .bags import ResourceBudgetError, soft_bags_level
from .constraints import (
    AlwaysTrue,
    ConnectedCover,
    PartitionClustering,
    ShallowCyclicity,
    cost_order,
    cyclicity_order,
    enumerate_top_n,
    partition_order,
    solve_constrained,
    trivial_order,
)
from .costs import MissingStatisticError, StatsCatalog
from .cq import QuerySyntaxError, UnsupportedSqlError, parse_cq, sql_to_cq
from .hypergraph import parse_hypergraph
from .oracles import OracleBudgetError, ghw_leq, hw_leq, validate_td
from .plans import compile_plan, emit_sql, execute_plan, plan_from_json, plan_to_json
from .solver import SolverBudgetError, attach_covers, solve, td_from_text

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


def _load_input(path, fmt):
    text = pathlib.Path(path).read_text()
    if fmt == "hg":
        return None, parse_hypergraph(text)
    if fmt == "cq":
        return parse_cq(text)
    if fmt == "sql":
        return sql_to_cq(text)
    raise UsageError(f"unknown input format {fmt!r}")


def _read_labels(path):
    labels = {}
    for raw in pathlib.Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise UsageError(f"bad label line {line!r}; expected 'edge partition'")
        labels[parts[0]] = parts[1]
    return labels


def _parse_constraint(spec, h):
    name, _, args = spec.partition(":")
    if name == "concov":
        return ConnectedCover()
    if name == "shallowcyc":
        if not args.startswith("d=") or int(args[2:]) < 0:
            raise UsageError("shallowcyc needs d=<depth> with depth >= 0, e.g. shallowcyc:d=2")
        return ShallowCyclicity(int(args[2:]))
    if name == "partclust":
        if not args.startswith("labels="):
            raise UsageError("partclust needs labels=<file>")
        by_name = _read_labels(args[7:])
        edge_index = {e: i for i, e in enumerate(h.edge_names)}
        unknown = sorted(set(by_name) - set(edge_index))
        if unknown:
            raise UsageError(f"label file names unknown edges: {', '.join(unknown)}")
        return PartitionClustering({edge_index[e]: p for e, p in by_name.items()})
    raise UsageError(f"unknown constraint {name!r}")


def _pick_order(h, k, constraints, stats):
    if stats is not None:
        return cost_order(stats)
    for c in constraints:
        if isinstance(c, ShallowCyclicity):
            return cyclicity_order(h)
        if isinstance(c, PartitionClustering):
            return partition_order(h, c.labels, k)
    return trivial_order()


def _emit(td, cq, kind, k):
    if kind == "txt":
        return td.to_text()
    if kind == "gml":
        return td.to_gml()
    if cq is None:
        raise UsageError(f"--emit {kind} needs a query input (--format cq or sql)")
    if td.covers is None:
        td = attach_covers(td, max_size=k)
    plan = compile_plan(cq, td)
    if kind == "plan":
        return plan_to_json(plan) + "\n"
    if kind == "sql":
        return emit_sql(plan)
    raise UsageError(f"unknown emit kind {kind!r}")


def _write_out(out_dir, name, text):
    if out_dir is None:
        sys.stdout.write(text)
    else:
        path = pathlib.Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text)
        print(f"wrote {path / name}")


def _cmd_decompose(args):
    cq, h = _load_input(args.input, args.format)
    bags = soft_bags_level(h, args.k, args.level)
    constraints = [_parse_constraint(s, h) for s in args.constraint]
    constraint = AlwaysTrue()
    for c in constraints:
        constraint = c if isinstance(constraint, AlwaysTrue) else (constraint & c)
    stats = None
    if args.stats:
        stats = StatsCatalog.from_json(h, pathlib.Path(args.stats).read_text())
    order = _pick_order(h, args.k, constraints, stats)
    suffix = {"txt": "txt", "gml": "gml", "plan": "json", "sql": "sql"}[args.emit]

    if args.top is not None:
        result = enumerate_top_n(h, bags, constraint, order, args.top)
        if not result.decompositions:
            print("REJECT")
            return EXIT_REJECT
        for i, (td, key) in enumerate(zip(result.decompositions, result.keys)):
            print(f"# rank {i}: cost {key.cost:.6g}, {key.nodes} nodes")
            _write_out(args.out, f"decomposition_{i}.{suffix}",
                       _emit(td, cq, args.emit, args.k))
        if result.truncated:
            print("# enumeration truncated; ranking may be partial")
        return EXIT_ACCEPT

    result = solve_constrained(h, bags, constraint, order)
    if not result.accepted:
        print("REJECT")
        return EXIT_REJECT
    print(f"ACCEPT width<={args.k} cost {result.key.cost:.6g}")
    _write_out(args.out, f"decomposition.{suffix}",
               _emit(result.decomposition, cq, args.emit, args.k))
    return EXIT_ACCEPT


def _min_k(check, max_k):
    for k in range(1, max_k + 1):
        if check(k):
            return k
    return None


def _cmd_widths(args):
    _, h = _load_input(args.input, args.format)
    measure = args.measure
    if measure == "shw" or measure.startswith("shw:"):
        level = int(measure[4:]) if measure.startswith("shw:") else 0
        if level < 0:
            raise UsageError(f"shw level must be at least 0, got {level}")
        found = _min_k(
            lambda k: solve(h, soft_bags_level(h, k, level)).accepted, args.max_k
        )
    elif measure in ("hw", "ghw"):
        oracle = hw_leq if measure == "hw" else ghw_leq
        found = _min_k(lambda k: oracle(h, k) is not None, args.max_k)
    else:
        raise UsageError(f"unknown measure {measure!r}")
    if found is None:
        print(f"{measure} > {args.max_k}")
        return EXIT_REJECT
    print(f"{measure} = {found}")
    return EXIT_ACCEPT


def _cmd_verify(args):
    _, h = _load_input(args.hypergraph, "hg")
    td = td_from_text(h, pathlib.Path(args.td).read_text())
    report = validate_td(h, td, k=args.k, check_compnf=(args.mode == "ctd"),
                         check_special=(args.mode == "hw"))
    for name in dict.fromkeys(report.checks):
        print(f"check {name}: {'ok' if not any(f.startswith(name) for f in report.failures) else 'FAIL'}")
    for failure in report.failures:
        print(f"  {failure}")
    print(f"result: {'VALID' if report.ok else 'INVALID'}")
    return EXIT_ACCEPT if report.ok else EXIT_REJECT


def _read_db(db_dir, relations):
    db = {}
    for rel in relations:
        path = pathlib.Path(db_dir) / f"{rel}.csv"
        if not path.exists():
            raise UsageError(f"missing relation file {path}")
        rows = set()
        with open(path, newline="") as f:
            reader = csv.reader(f)
            next(reader, None)  # header names the column positions
            for row in reader:
                rows.add(tuple(int(c) if re.fullmatch(r"-?[0-9]+", c) else c for c in row))
        db[rel] = rows
    return db


def _cmd_run_plan(args):
    plan = plan_from_json(pathlib.Path(args.plan).read_text())
    db = _read_db(args.db, {a.relation for a in plan.query.atoms})
    result = execute_plan(plan, db)
    if isinstance(result, bool):
        print("true" if result else "false")
        return EXIT_ACCEPT if result else EXIT_REJECT
    writer = csv.writer(sys.stdout)
    writer.writerow(plan.query.output)
    for row in result:
        writer.writerow(row)
    return EXIT_ACCEPT


def _int_from(lo):
    """An argparse type: an integer of at least ``lo``."""
    def parse(text):
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type in its errors
    return parse


def build_parser():
    parser = argparse.ArgumentParser(prog="softdecomp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="build a constrained decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["hg", "cq", "sql"], default="hg")
    p.add_argument("--k", type=_int_from(1), required=True)
    p.add_argument("--level", type=_int_from(0), default=0)
    p.add_argument("--constraint", action="append", default=[],
                   metavar="SPEC",
                   help="concov | shallowcyc:d=D | partclust:labels=FILE")
    p.add_argument("--stats", help="statistics catalog (JSON)")
    p.add_argument("--top", type=_int_from(1), help="emit the N best decompositions")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--emit", choices=["txt", "gml", "plan", "sql"], default="txt")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("widths", help="compute a width measure")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["hg", "cq", "sql"], default="hg")
    p.add_argument("--measure", required=True,
                   help="shw | shw:i (iteration level i) | hw | ghw; hw and ghw"
                   " are exact, each one pure-Python search")
    p.add_argument("--max-k", type=_int_from(1), default=6)
    p.set_defaults(func=_cmd_widths)

    p = sub.add_parser("verify", help="validate a decomposition file")
    p.add_argument("--td", required=True)
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--mode", choices=["hw", "ghw", "ctd"], default="ctd",
                   help="ctd also checks component normal form, hw the cover descent")
    p.add_argument("--k", type=_int_from(1))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run-plan", help="execute a saved evaluation plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--db", required=True,
                   help="directory with one CSV per relation (header row skipped)")
    p.set_defaults(func=_cmd_run_plan)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, QuerySyntaxError, UnsupportedSqlError, ValueError,
            OSError, MissingStatisticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceBudgetError, SolverBudgetError, OracleBudgetError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
