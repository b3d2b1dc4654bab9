"""Reference hypergraphs with externally known widths, used as fixtures.

``H2``/``H3``/``H3prime`` are hand-built instances whose soft width
drops below their hypertree width.  ``H3prime`` is ``H3`` plus one edge;
under the level-0 bag definition of :mod:`softdecomp.bags` its soft
width is already 3 at level 0, so it shows no gap between levels 0
and 1.  ``C_n`` are vertex cycles.  The ``q_*``
entries are join-query hypergraphs; their attested values also include
the candidate-bag counts used in the count regression tests.
:func:`random_connected_hypergraph` generates the seeded random corpora
of the tests and scripts, and :func:`witness_order` the bag order their
seeded statistics are drawn in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    hypergraph: Hypergraph
    widths: dict = field(default_factory=dict)
    notes: str = ""


def _h2():
    edges = [
        ("e18", ["1", "8"]),
        ("e34", ["3", "4"]),
        ("e12a", ["1", "2", "a"]),
        ("e45a", ["4", "5", "a"]),
        ("e67a", ["6", "7", "a"]),
        ("e23b", ["2", "3", "b"]),
        ("e56b", ["5", "6", "b"]),
        ("e78b", ["7", "8", "b"]),
    ]
    return Hypergraph.from_named_edges(edges)


_G = ["g11", "g12", "g21", "g22"]
_H = ["h11", "h12", "h21", "h22"]
_V = ["0", "1", "2", "3", "4", "0'", "1'", "2'", "3'", "4'"]


def _h3(prime=False):
    edges = []
    for w in _G + _H:
        for v in _V:
            edges.append((f"p_{w}_{v}".replace("'", "q"), [w, v]))
    edges += [
        ("c24", ["2", "4"]),
        ("c24q", ["2'", "4'"]),
        ("bridge", ["0", "0'"]),
        ("s01", ["0", "1"]),
        ("s12", ["1", "2"]),
        ("s03", ["0", "3"]),
        ("s23", ["2", "3"]),
        ("s01q", ["0'", "1'"]),
        ("s12q", ["1'", "2'"]),
        ("s03q", ["0'", "3'"]),
        ("s23q", ["2'", "3'"]),
        ("hor1", ["g11", "g12", "h11", "h12", "4'"]),
        ("hor2", ["g21", "g22", "h21", "h22", "3"]),
        ("vert1", ["g11", "g21", "h11", "h21", "4"]),
        ("vert2", ["g12", "g22", "h12", "h22", "3'"]),
    ]
    if prime:
        edges.append(("s34q", ["3'", "4'"]))
    return Hypergraph.from_named_edges(edges)


def cycle(n):
    """The n-cycle as a hypergraph of binary edges."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Hypergraph.from_named_edges(
        [(f"e{i}", [f"v{i}", f"v{(i % n) + 1}"]) for i in range(1, n + 1)]
    )


def random_connected_hypergraph(rng, max_vertices=8, max_edges=8, max_arity=4):
    """A connected hypergraph with no isolated vertices, drawn from ``rng``.

    Vertices are introduced one at a time; each new vertex gets an edge
    that also touches an already-seen vertex, which keeps the whole
    thing connected by construction.  A few extra random edges are
    sprinkled on top.
    """
    n = rng.randint(2, max_vertices)
    edges = {}  # sorted vertex ids, in insertion order
    order = list(range(n))
    rng.shuffle(order)
    for seen, v in enumerate(order[1:], 1):
        members = {v, rng.choice(order[:seen])}
        while len(members) < max_arity and rng.random() < 0.4:
            members.add(rng.randrange(n))
        edges.setdefault(tuple(sorted(members)))
    while len(edges) < max_edges and rng.random() < 0.5:
        size = rng.randint(1, max_arity)
        edges.setdefault(tuple(sorted(rng.sample(range(n), min(size, n)))))
    named = [(f"e{i}", [f"v{v}" for v in vs]) for i, vs in enumerate(list(edges)[:max_edges])]
    return Hypergraph.from_named_edges(named)


def witness_order(h, k):
    """The level-0 bags of ``h`` at width ``k`` in the order a plain loop
    over (component union, cover union) pairs first finds them, with
    separators and covers by combination size, then lexicographically.
    Seeded statistics catalogs draw one value per bag in this order."""
    def unions(smallest):
        return dict.fromkeys(reduce(or_, combo, 0) for size in range(smallest, k + 1)
                             for combo in combinations(h.edge_masks, size))

    components = dict.fromkeys(u for sep in unions(0) for u in h.component_unions(sep))
    bags = dict.fromkeys(u & w for u in components for w in unions(1))
    bags.pop(0, None)
    return list(bags)


def _q_ds():
    return Hypergraph.from_named_edges([
        ("web_sales", ["X1", "X4"]),
        ("customer", ["X1", "X2"]),
        ("customer_address", ["X2"]),
        ("catalog_sales", ["X2", "X3"]),
        ("warehouse", ["X3", "X4"]),
    ])


def _q_hto():
    return Hypergraph.from_named_edges([
        ("r0", ["A", "B"]),
        ("r1", ["A", "C"]),
        ("r2", ["B", "D"]),
        ("r3", ["C", "D"]),
        ("r4", ["D", "E"]),
        ("r5", ["D", "F"]),
        ("r6", ["E", "F"]),
    ])


def _q_hto3():
    return Hypergraph.from_named_edges([
        ("r0", ["A", "B"]),
        ("r1", ["A", "C"]),
        ("r2", ["B", "D"]),
        ("r3", ["D", "C"]),
    ])


def _q_hto4():
    return Hypergraph.from_named_edges([
        ("r0", ["A", "B"]),
        ("r1", ["A", "C"]),
        ("r2", ["B", "C"]),
        ("r3", ["C", "D"]),
        ("r4", ["C", "E"]),
        ("r5", ["D", "E"]),
    ])


def _q_lb():
    return Hypergraph.from_named_edges([
        ("CityA", ["X", "Y"]),
        ("CityB", ["X", "Z"]),
        ("CityC", ["X"]),
        ("PersonA", ["Y", "P"]),
        ("PersonB", ["Z", "Q"]),
        ("pkp1", ["P", "Q"]),
    ])


# SQL texts for the join-query entries; running them through
# :func:`softdecomp.cq.sql_to_cq` reproduces the ``q_*`` hypergraphs above
# (up to renaming).
SQL_QUERIES = {
    "q_ds": """
SELECT MIN(ws_bill_customer_sk)
FROM   web_sales,
       customer,
       customer_address,
       catalog_sales,
       warehouse
WHERE  ws_bill_customer_sk = c_customer_sk
       AND ca_address_sk = c_current_addr_sk
       AND c_current_addr_sk = cs_bill_addr_sk
       AND cs_warehouse_sk = w_warehouse_sk
       AND w_warehouse_sq_ft = ws_quantity
""",
    "q_hto": """
SELECT MIN(hetio45173_0.s)
FROM   hetio45173 AS hetio45173_0, hetio45173 AS hetio45173_1,
       hetio45160 AS hetio45160_2, hetio45160 AS hetio45160_3,
       hetio45160 AS hetio45160_4, hetio45159 AS hetio45159_5,
       hetio45159 AS hetio45159_6
WHERE  hetio45173_0.s = hetio45173_1.s AND hetio45173_0.d = hetio45160_2.s AND
       hetio45173_1.d = hetio45160_3.s AND hetio45160_2.d = hetio45160_3.d AND
       hetio45160_3.d = hetio45160_4.s AND hetio45160_4.s = hetio45159_5.s AND
       hetio45160_4.d = hetio45159_6.s AND hetio45159_5.d = hetio45159_6.d
""",
    "q_hto2": """
SELECT  MAX(hetio45160.d)
FROM    hetio45173 AS hetio45173_0, hetio45173 AS hetio45173_1, hetio45173 AS
        hetio45173_2, hetio45173 AS hetio45173_3, hetio45160, hetio45176 AS
        hetio45176_5, hetio45176 AS hetio45176_6
WHERE   hetio45173_0.s = hetio45173_1.s AND hetio45173_0.d = hetio45173_2.s AND
        hetio45173_1.d = hetio45173_3.s AND hetio45173_2.d = hetio45173_3.d AND
        hetio45173_3.d = hetio45160.s AND hetio45160.s = hetio45176_5.s AND
        hetio45160.d = hetio45176_6.s AND hetio45176_5.d = hetio45176_6.d
""",
    "q_hto3": """
SELECT  MIN(hetio45173_2.d)
FROM    hetio45173 AS hetio45173_0, hetio45173 AS hetio45173_1, hetio45173 AS
        hetio45173_2, hetio45173 AS hetio45173_3
WHERE   hetio45173_0.s = hetio45173_1.s AND hetio45173_0.d = hetio45173_2.s
        AND hetio45173_1.d = hetio45173_3.d AND hetio45173_2.d = hetio45173_3.s
""",
    "q_hto4": """
SELECT  MIN(hetio45160_0.s)
FROM    hetio45160 AS hetio45160_0, hetio45160 AS hetio45160_1,
        hetio45177, hetio45160 AS hetio45160_3, hetio45159 AS
        hetio45159_4, hetio45159 AS hetio45159_5
WHERE   hetio45160_0.s = hetio45160_1.s AND hetio45160_0.d = hetio45177.s
        AND hetio45160_1.d = hetio45177.d AND hetio45177.d = hetio45160_3.s
        AND hetio45160_3.s = hetio45159_4.s AND hetio45160_3.d = hetio45159_5.s
        AND hetio45159_4.d = hetio45159_5.d
""",
    "q_lb": """
SELECT MIN(pkp1.Person1Id)
FROM City AS CityA
JOIN City AS CityB
  ON CityB.isPartOf_CountryId = CityA.isPartOf_CountryId
JOIN City AS CityC
  ON CityC.isPartOf_CountryId = CityA.isPartOf_CountryId
JOIN Person AS PersonA
  ON PersonA.isLocatedIn_CityId = CityA.CityId
JOIN Person AS PersonB
  ON PersonB.isLocatedIn_CityId = CityB.CityId
JOIN Person_knows_Person AS pkp1
  ON pkp1.Person1Id = PersonA.PersonId
 AND pkp1.Person2Id = PersonB.PersonId
""",
}


_BUILDERS = {
    "H2": lambda: GalleryEntry(
        "H2", _h2(), {"ghw": 2, "shw": 2, "hw": 3},
        "soft width drops below hypertree width",
    ),
    "H3": lambda: GalleryEntry(
        "H3", _h3(), {"ghw": 3, "shw": 3, "hw": 4},
        "grid-product instance; soft width meets the generalized width",
    ),
    "H3prime": lambda: GalleryEntry(
        "H3prime", _h3(prime=True), {"ghw": 3, "shw1": 3, "shw": 3, "hw": 4},
        "H3 plus the edge s34q; level-0 soft bags already reach width 3",
    ),
    "q_ds": lambda: GalleryEntry(
        "q_ds", _q_ds(),
        {"concov_shw": 2, "edges": 5, "soft_k2": 9, "concov_soft_k2": 8},
        "store-sales style join query",
    ),
    "q_hto": lambda: GalleryEntry(
        "q_hto", _q_hto(),
        {"concov_shw": 2, "edges": 7, "soft_k2": 25, "concov_soft_k2": 16},
        "biomedical graph query",
    ),
    "q_hto2": lambda: GalleryEntry(
        "q_hto2", _q_hto(),
        {"concov_shw": 2, "edges": 7, "soft_k2": 25, "concov_soft_k2": 16},
        "same shape as q_hto",
    ),
    "q_hto3": lambda: GalleryEntry(
        "q_hto3", _q_hto3(),
        {"concov_shw": 2, "edges": 4, "soft_k2": 9, "concov_soft_k2": 8},
        "4-cycle query",
    ),
    "q_hto4": lambda: GalleryEntry(
        "q_hto4", _q_hto4(),
        {"concov_shw": 2, "edges": 6, "soft_k2": 17, "concov_soft_k2": 12},
        "two triangles sharing a vertex",
    ),
    "q_lb": lambda: GalleryEntry(
        "q_lb", _q_lb(),
        {"concov_shw": 3, "edges": 6, "soft_k3": 17, "concov_soft_k3": 15},
        "social-network style join query",
    ),
}


def gallery(name):
    """Fetch a gallery entry; ``C_n`` (e.g. ``C5``) is parametric."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name.startswith("C") and name[1:].isdigit():
        n = int(name[1:])
        widths = {"hw": 2, "concov_shw": 3} if n == 5 else {}
        return GalleryEntry(name, cycle(n), widths, f"{n}-cycle")
    raise KeyError(f"unknown gallery entry {name!r}")


def gallery_names():
    return sorted(_BUILDERS) + ["C5"]
