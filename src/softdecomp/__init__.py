"""Soft hypertree decompositions for conjunctive queries.

The package builds candidate-bag families ("soft" bags), solves for
component-normal-form candidate tree decompositions over them, applies
subtree constraints with cost-based preference orders, and compiles
accepted decompositions into semi-join evaluation plans.
"""

from .bags import (
    CandidateBagSet,
    ResourceBudgetError,
    edge_cover_bags,
    iterate_level,
    soft_bags,
    soft_bags_level,
)
from .constraints import (
    AlwaysTrue,
    ConnectedCover,
    CostKey,
    PartitionClustering,
    ShallowCyclicity,
    cost_order,
    cyclicity_order,
    enumerate_top_n,
    partition_order,
    solve_constrained,
    trivial_order,
)
from .costs import MissingStatisticError, StatsCatalog, subtree_cost
from .cq import (
    Atom,
    ConjunctiveQuery,
    QuerySyntaxError,
    UnsupportedSqlError,
    parse_cq,
    sql_to_cq,
)
from .gallery import GalleryEntry, SQL_QUERIES, cycle, gallery, gallery_names
from .hypergraph import Hypergraph, HypergraphError, parse_hypergraph
from .oracles import (
    OracleBudgetError,
    ValidationReport,
    enumerate_all_ctds,
    iter_all_ctds,
    ghw_leq,
    hw_leq,
    validate_td,
)
from .plans import (
    EvalPlan,
    compile_plan,
    emit_sql,
    execute_plan,
    naive_evaluate,
    plan_from_json,
    plan_to_json,
)
from .solver import (
    SolverBudgetError,
    TreeDecomposition,
    attach_covers,
    solve,
    td_from_text,
)

__all__ = [
    "AlwaysTrue",
    "CandidateBagSet",
    "Atom",
    "ConjunctiveQuery",
    "ConnectedCover",
    "CostKey",
    "EvalPlan",
    "GalleryEntry",
    "Hypergraph",
    "HypergraphError",
    "MissingStatisticError",
    "OracleBudgetError",
    "PartitionClustering",
    "QuerySyntaxError",
    "ResourceBudgetError",
    "SQL_QUERIES",
    "ShallowCyclicity",
    "SolverBudgetError",
    "StatsCatalog",
    "TreeDecomposition",
    "UnsupportedSqlError",
    "ValidationReport",
    "attach_covers",
    "compile_plan",
    "cost_order",
    "cycle",
    "cyclicity_order",
    "edge_cover_bags",
    "emit_sql",
    "enumerate_all_ctds",
    "iter_all_ctds",
    "enumerate_top_n",
    "execute_plan",
    "gallery",
    "gallery_names",
    "ghw_leq",
    "hw_leq",
    "iterate_level",
    "naive_evaluate",
    "parse_cq",
    "parse_hypergraph",
    "partition_order",
    "plan_from_json",
    "plan_to_json",
    "soft_bags",
    "soft_bags_level",
    "solve",
    "solve_constrained",
    "sql_to_cq",
    "subtree_cost",
    "td_from_text",
    "trivial_order",
    "validate_td",
]

__version__ = "0.1.0"
