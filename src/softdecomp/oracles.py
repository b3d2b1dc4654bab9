"""Independent checkers: decomposition validation, width checks, and
exhaustive enumeration of decompositions over a candidate bag set.

These are deliberately simple and separate from the solver so they can
serve as ground truth in tests.  Every oracle is one pure-Python path
on Python-int masks, whatever the number of vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hypergraph import ids_of
from .solver import TreeDecomposition, minimum_cover

GHW_MAX_BAGS = 2_000_000  # ghw_leq raises before its family could pass this


class OracleBudgetError(RuntimeError):
    """Raised when an exact check would exceed its configured size cap."""


@dataclass
class ValidationReport:
    """Outcome of validating a decomposition; ``ok`` iff no failures."""

    failures: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def record(self, name, ok, detail=""):
        self.checks.append(name)
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def validate_td(h, td, bag_masks=None, k=None, check_compnf=True, check_special=False):
    """Validate ``td`` against the decomposition conditions.

    Checks edge coverage, connectedness, optional membership of every
    bag in ``bag_masks``, optional cover width ``k``, that each attached
    cover's edges contain its bag, the component-normal-form condition,
    and (for hypertree decompositions, with covers attached) the
    descendant condition that a cover vertex reappearing below must be
    in the bag.
    """
    rep = ValidationReport()
    n = len(td.bags)

    for e, m in zip(h.edge_names, h.edge_masks):
        if not any(m & ~bag == 0 for bag in td.bags):
            rep.record("edge-coverage", False, f"edge {e} in no bag")
    if "edge-coverage" not in rep.checks:
        rep.record("edge-coverage", True)

    ok = True
    for v in range(h.n_vertices):
        nodes = {i for i, bag in enumerate(td.bags) if bag >> v & 1}
        if not nodes:
            continue
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in [td.parents[u], *td.children(u)]:
                if w >= 0 and w in nodes and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != nodes:
            ok = False
            rep.record("connectedness", False, f"vertex {h.vertex_names[v]} not contiguous")
    if ok:
        rep.record("connectedness", True)

    if bag_masks is not None:
        allowed = set(bag_masks)
        bad = [i for i, bag in enumerate(td.bags) if bag not in allowed]
        rep.record("bag-membership", not bad, f"nodes {bad} use foreign bags")

    if k is not None:
        for i, bag in enumerate(td.bags):
            cover = td.covers[i] if td.covers is not None else minimum_cover(h, bag, max_size=k)
            if cover is None or len(cover) > k:
                rep.record("cover-width", False, f"node {i} not coverable by {k} edges")
        if "cover-width" not in rep.checks:
            rep.record("cover-width", True)

    if td.covers is not None:
        for i, bag in enumerate(td.bags):
            lam = 0
            for e in td.covers[i]:
                lam |= h.edge_masks[e]
            if bag & ~lam:
                missing = ",".join(h.vertex_names[v] for v in ids_of(bag & ~lam))
                rep.record("cover-containment", False, f"node {i} cover misses {{{missing}}}")
        if "cover-containment" not in rep.checks:
            rep.record("cover-containment", True)

    if check_compnf:
        ok = True
        subtree_union = _subtree_unions(td)
        for c in range(n):
            u = td.parents[c]
            if u < 0:
                continue
            want = subtree_union[c]
            matches = [
                union for union in h.component_unions(td.bags[u])
                if union | (td.bags[u] & td.bags[c]) == want
            ]
            if len(matches) != 1:
                ok = False
                rep.record(
                    "component-normal-form", False,
                    f"child {c} of {u} matches {len(matches)} components",
                )
        if ok:
            rep.record("component-normal-form", True)

    if check_special:
        if td.covers is None:
            rep.record("cover-descent", False, "no covers attached")
        else:
            ok = True
            subtree_union = _subtree_unions(td)
            for i in range(n):
                lam = 0
                for e in td.covers[i]:
                    lam |= h.edge_masks[e]
                if subtree_union[i] & lam & ~td.bags[i]:
                    ok = False
                    rep.record("cover-descent", False, f"node {i} leaks cover vertices below")
            if ok:
                rep.record("cover-descent", True)

    return rep


def _subtree_unions(td):
    out = list(td.bags)
    for i in sorted(range(len(td)), key=td.depth, reverse=True):  # children first
        p = td.parents[i]
        if p >= 0:
            out[p] |= out[i]
    return out


# -- exact hypertree width ----------------------------------------------------


def hw_leq(h, k, max_steps=20_000_000):
    """A width-``k`` hypertree decomposition of ``h``, or None.

    Exact search in the style of det-k-decomp (see :class:`_HwSearch`),
    bounded by ``max_steps`` (bag tries plus edge-union work); past it,
    it raises :class:`OracleBudgetError`.  The returned decomposition
    has covers attached, one root per connected component, and
    satisfies the descendant condition by construction.
    """
    searcher = _HwSearch(h, k, max_steps)
    nodes = []
    for comp in h.vertex_components(0):
        tree = searcher.root(comp)
        if tree is None:
            return None
        nodes.append(tree)
    return TreeDecomposition.from_nodes(h, nodes)


class _HwSearch:
    """The k-decomp recursion of Gottlob, Leone and Scarcello on vertex masks.

    A state is a vertex component ``C`` with its connector, the vertices
    of the parent bag that the edges meeting ``C`` reach.  A bag for the
    state is ``chi = union(lambda) & region`` for at most ``k`` edges
    ``lambda``, where ``region`` is the vertex union of the edges
    meeting ``C``; it must contain the connector and meet ``C``.  The
    children are the [chi]-components inside ``C``.  Only the bag
    matters below a node, so each distinct ``chi`` is tried once, and
    states are memoized by ``(C, connector)``.

    Root bags are tried largest first.  A state whose region is the
    whole root region and whose connector is everything outside ``C``
    is the root problem restricted to root bags strictly containing the
    connector: its bags and their children are exactly those of such a
    root bag.  Inside the search under root bag ``chi0``, ``C`` lies
    outside ``chi0``, so those root bags are all larger than ``chi0``
    and already refuted, and the state fails at once (det-k-decomp
    would otherwise redo the whole root search inside it).
    """

    def __init__(self, h, k, max_steps):
        self.h = h
        self.k = k
        self.max_steps = max_steps
        self.spent = 0
        self.memo = {}  # (component, connector) -> node or None
        self._components = {}  # free vertex set -> its components
        self._regions = {}  # component -> vertex union of the edges meeting it
        self._unions = {}  # region -> distinct bags, largest first
        self.root_region = 0

    def root(self, comp):
        """A decomposition of the connected component ``comp``, or None."""
        self.root_region = comp
        for chi in self._bags(comp, comp, 0):
            node = self._try(comp, comp, chi)
            if node is not None:
                return node
        return None

    def decompose(self, comp, conn):
        """A node ``(bag, cover, children)`` for the state, or None."""
        key = (comp, conn)
        if key in self.memo:
            return self.memo[key]
        region = self._region(comp)
        result = None
        if region != self.root_region or conn != region & ~comp:
            for chi in self._bags(comp, region, conn):
                result = self._try(comp, region, chi)
                if result is not None:
                    break
        self.memo[key] = result
        return result

    def _try(self, comp, region, chi):
        """The node for ``chi`` in state ``comp``, or None if a child fails."""
        self._tick(1)
        children = []
        for sub in self._split(comp & ~chi):
            child = self.decompose(sub, self._region(sub) & chi)
            if child is None:
                return None
            children.append(child)
        # Edges whose part in the region stays inside chi; a cover of chi
        # by them gives union(lambda) & region == chi exactly.
        pool = [m & region if not m & region & ~chi else 0 for m in self.h.edge_masks]
        lam = minimum_cover(self.h, chi, pool_masks=pool, max_size=self.k)
        return (chi, lam, tuple(children))

    def _bags(self, comp, region, conn):
        """Distinct bags for a state, largest first (ties by mask)."""
        bags = self._unions.get(region)
        if bags is None:
            bags = self._unions[region] = self._region_unions(region)
        return [b for b in bags if not conn & ~b and b & comp]

    def _region_unions(self, region):
        """Distinct ``union(lambda) & region`` over ``|lambda| <= k``,
        largest first (ties by mask).

        Built level by level: the unions of at most ``j`` edges are the
        unions of at most ``j - 1`` edges, each or-ed with every edge;
        only the unions new in the last round can make new ones.  Each
        round is charged as if it or-ed every union with every edge; a
        round that adds nothing ends the build.
        """
        parts = {m & region for m in self.h.edge_masks if m & region}
        unions = set(parts)
        new = parts
        for _ in range(self.k - 1):
            self._tick(len(unions) * len(parts))
            new = {u | p for u in new for p in parts} - unions
            if not new:
                break
            unions |= new
        bags = sorted(unions)
        bags.sort(key=int.bit_count, reverse=True)  # stable: ties stay by mask
        return bags

    def _split(self, rest):
        """The connected components of the vertex set ``rest``."""
        comps = self._components.get(rest)
        if comps is None:
            comps = self.h.vertex_components(self.h.all_vertices_mask & ~rest)
            self._components[rest] = comps
        return comps

    def _region(self, comp):
        region = self._regions.get(comp)
        if region is None:
            region = self._regions[comp] = self.h.neighborhood(comp)
        return region

    def _tick(self, n):
        self.spent += n
        if self.spent > self.max_steps:
            raise OracleBudgetError("width search exceeded step budget")


# -- generalized hypertree width ----------------------------------------------


def ghw_leq(h, k, max_steps=20_000_000):
    """A width-``k`` generalized hypertree decomposition, or None.

    Exact: it solves over the family of every non-empty vertex set that
    at most ``k`` edges cover, that is every non-empty sub-mask of a
    union of at most ``k`` edges (every decomposition can be brought
    into component normal form with bags shrunk, so this family is
    complete).  The distinct unions come from
    :meth:`_HwSearch._region_unions`, largest first, and the walk skips
    a union already in the family: it is a sub-mask of an earlier union,
    so all of its sub-masks are in already.  On H3prime at k=3 the walk
    visits 804k sub-masks for 62,045 sets, against 2.57M without the
    skip.

    Two budgets raise :class:`OracleBudgetError`: ``max_steps``, charged
    with the unions' build and every sub-mask the walk visits, and
    :data:`GHW_MAX_BAGS`: a walk that could take the family past it
    raises before it starts.  ``max_steps`` also caps the block search's
    evaluations (:class:`~softdecomp.solver.SolverBudgetError`).
    """
    from .solver import attach_covers, solve

    search = _HwSearch(h, k, max_steps)
    family = set()
    for u in search._region_unions(h.all_vertices_mask):
        if u in family:
            continue
        walk = (1 << u.bit_count()) - 1
        search._tick(walk)
        if len(family) + walk > GHW_MAX_BAGS:
            raise OracleBudgetError(f"ghw family could pass {GHW_MAX_BAGS:,} bags")
        m = u
        while m:
            family.add(m)
            m = (m - 1) & u
    res = solve(h, family, max_evals=max_steps)
    if not res.accepted:
        return None
    return attach_covers(res.decomposition, max_size=k)


# -- exhaustive decomposition enumeration -------------------------------------


def iter_all_ctds(h, bags, max_steps=2_000_000):
    """Yield decompositions over the candidate bags, up to isomorphism.

    Enumerates lazily by recursive block decomposition, exploring every
    basis; trees are produced in a canonical rooted form (children
    sorted by their encodings), and distinct yields encode distinct
    trees; each tree has one root per connected component.  Memory
    stays proportional to the recursion depth, so taking only the first
    few trees is cheap even when the full count is astronomical.
    """
    masks = sorted(set(bags))
    state = {"steps": 0}

    def options(block):
        s, c = block
        sc = s | c
        for x in masks:
            if x == s or x & ~sc:
                continue
            state["steps"] += 1
            if state["steps"] > max_steps:
                raise OracleBudgetError("decomposition enumeration exceeded step budget")
            ys = [y for y in h.vertex_components(x) if not y & ~c]
            cover = x
            for y in ys:
                cover |= y
            if c & ~cover:
                continue
            if any(e & c and e & ~cover for e in h.edge_masks):
                continue
            subs = [(x, y) for y in ys]

            def rec(i, acc, x=x, subs=subs):
                if i == len(subs):
                    yield (x, None, tuple(sorted(acc)))
                    return
                for t in options(subs[i]):
                    yield from rec(i + 1, acc + (t,))

            yield from rec(0, ())

    comps = h.vertex_components(0)

    def roots(i, acc):
        if i == len(comps):
            yield acc
            return
        for t in options((0, comps[i])):
            yield from roots(i + 1, acc + (t,))

    for combo in roots(0, ()):
        yield TreeDecomposition.from_nodes(h, combo)


def enumerate_all_ctds(h, bags, max_trees=20_000, max_steps=2_000_000):
    """All decompositions over the candidate bags, up to isomorphism.

    Materializes ``iter_all_ctds``; raises once more than ``max_trees``
    complete trees have been produced, so the budget error itself
    certifies that at least one decomposition exists.
    """
    trees = []
    for td in iter_all_ctds(h, bags, max_steps=max_steps):
        trees.append(td)
        if len(trees) > max_trees:
            raise OracleBudgetError("too many decompositions to enumerate")
    return trees
