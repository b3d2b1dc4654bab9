"""Shared generators for the test suite.

Random objects are always built from an explicit ``random.Random`` so
failures reproduce from the seed alone.
"""

import random
import string

import pytest

from softdecomp import ConjunctiveQuery, Atom, Hypergraph, StatsCatalog


def random_connected_hypergraph(rng, max_vertices=8, max_edges=8, max_arity=4):
    """A connected hypergraph with no isolated vertices.

    Vertices are introduced one at a time; each new vertex gets an edge
    that also touches an already-seen vertex, which keeps the whole
    thing connected by construction.  A few extra random edges are
    sprinkled on top.
    """
    n = rng.randint(2, max_vertices)
    seen_sets = set()
    edges = []

    def add(vertex_ids):
        key = tuple(sorted(set(vertex_ids)))
        if len(key) >= 1 and key not in seen_sets:
            seen_sets.add(key)
            edges.append(key)

    order = list(range(n))
    rng.shuffle(order)
    covered = [order[0]]
    for v in order[1:]:
        members = {v, rng.choice(covered)}
        while len(members) < max_arity and rng.random() < 0.4:
            members.add(rng.randrange(n))
        add(members)
        covered.append(v)
    while len(edges) < max_edges and rng.random() < 0.5:
        size = rng.randint(1, max_arity)
        add(rng.sample(range(n), min(size, n)))
    edges = edges[:max_edges]

    named = [(f"e{i}", [f"v{v}" for v in vs]) for i, vs in enumerate(edges)]
    return Hypergraph.from_named_edges(named)


def brute_component_unions(edge_masks, sep):
    """[sep]-component vertex unions, via explicit pairwise closure."""
    free = [m for m in edge_masks if m & ~sep]
    comps = []
    for m in free:
        merged = [m]
        rest = []
        for c in comps:
            if any(x & y & ~sep for x in merged for y in c):
                merged.extend(c)
            else:
                rest.append(c)
        comps = rest + [merged]
    out = []
    for c in comps:
        u = 0
        for m in c:
            u |= m
        out.append(u)
    return out


def random_cq(rng, max_atoms=5, max_vars=6, max_arity=3, boolean=None):
    """A conjunctive query whose variables form one connected component."""
    nvars = rng.randint(1, max_vars)
    variables = [f"x{i}" for i in range(nvars)]
    atoms = []
    used = [variables[0]]
    rel_arity = {}
    for i in range(rng.randint(1, max_atoms)):
        relation = f"R{rng.randint(0, 2)}"
        arity = rel_arity.setdefault(relation, rng.randint(1, max_arity))
        vs = [rng.choice(used)]
        while len(vs) < arity:
            vs.append(rng.choice(variables))
        for v in vs:
            if v not in used:
                used.append(v)
        atoms.append(Atom(f"a{i}", relation, tuple(vs)))
    if boolean is None:
        boolean = rng.random() < 0.4
    if boolean:
        output = ()
    else:
        pool = list(dict.fromkeys(v for a in atoms for v in a.variables))
        rng.shuffle(pool)
        output = tuple(pool[: rng.randint(1, len(pool))])
    return ConjunctiveQuery(atoms, output)


def random_database(rng, cq, max_rows=12, domain=6):
    """Random tables for every relation a query mentions."""
    db = {}
    for atom in cq.atoms:
        if atom.relation in db:
            continue
        arity = len(atom.variables)
        rows = {
            tuple(rng.randint(0, domain - 1) for _ in range(arity))
            for _ in range(rng.randint(0, max_rows))
        }
        db[atom.relation] = sorted(rows)
    return db


def random_stats(rng, h, bag_masks=(), max_card=10_000, unit_joins=False):
    """A statistics catalog covering every edge and the given bag masks.

    With ``unit_joins`` every bag-join cardinality is 1, which makes the
    cost of a decomposition the plain sum of its per-node bag costs.
    """
    rel = {e: rng.randint(2, max_card) for e in range(h.n_edges)}
    joins = {}
    for m in bag_masks:
        joins[m] = 1 if unit_joins else rng.randint(1, max_card)
    keys = {e: 0 for e in range(h.n_edges)}
    return StatsCatalog(h, rel, joins, keys)


def random_vertex_name(rng):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(4))


@pytest.fixture(scope="session")
def small_corpus():
    """Deterministic corpus of 200 small connected hypergraphs."""
    rng = random.Random(0xC0FFEE)
    return [random_connected_hypergraph(rng) for _ in range(200)]
