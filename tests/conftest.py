"""Shared generators for the test suite.

Random objects are always built from an explicit ``random.Random`` so
failures reproduce from the seed alone.
"""

import random
import string
from itertools import combinations

import pytest

from softdecomp import ConjunctiveQuery, Atom, StatsCatalog
from softdecomp.hypergraph import cover_is_connected, ids_of
from softdecomp.gallery import random_connected_hypergraph  # noqa: F401  (tests import it from here)


FORCE_NUMPY, FORCE_PYTHON = 0, 10**9


def force_bag_paths(monkeypatch, threshold):
    """Set every size gate of the bag layer (each ``*_THRESHOLD`` of
    ``softdecomp.bags``) to ``threshold``: ``FORCE_NUMPY`` sends every
    kernel to numpy, ``FORCE_PYTHON`` to its pure-Python twin."""
    from softdecomp import bags

    for name in vars(bags):
        if name.endswith("_THRESHOLD"):
            monkeypatch.setattr(bags, name, threshold)


def edge_cover_bags(h, k, connected=False):
    """Distinct unions of at most ``k`` edges, usable as decomposition
    nodes: the plain edge-cover bag family that criterion 2 counts.

    A union that is a strict subset of a single edge is dropped: a node
    with such a bag is always subsumed by a node carrying the whole edge.
    With ``connected=True``, only bags with some exact connected cover
    are kept, i.e. a set of at most ``k`` edges whose union equals the
    bag and that forms a connected subhypergraph.

    Returns a dict mapping each bag mask, by ascending vertex ids, to
    its first (or first connected) witness tuple of edge ids.
    """
    masks = h.edge_masks
    witnesses = {}
    for size in range(1, k + 1):
        for combo in combinations(range(h.n_edges), size):
            m = 0
            for i in combo:
                m |= masks[i]
            if m in witnesses:
                continue
            if connected and not cover_is_connected([masks[i] for i in combo]):
                continue
            witnesses[m] = combo
    return {
        m: witnesses[m]
        for m in sorted(witnesses, key=ids_of)
        if not any(m != em and not m & ~em for em in masks)
    }


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
