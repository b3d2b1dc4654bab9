"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints exactly one
PASS/FAIL line (visible even under capture), then asserts.  Time bounds are
measured in process CPU time: the host is a single shared core whose wall
clock varies by an order of magnitude with co-tenant load, so CPU time is
the only stable measure of the algorithmic budget.
"""

import collections
import random
import time
from itertools import combinations

import pytest

from softdecomp import (
    SQL_QUERIES,
    ConnectedCover,
    OracleBudgetError,
    StatsCatalog,
    attach_covers,
    compile_plan,
    cost_order,
    enumerate_all_ctds,
    enumerate_top_n,
    execute_plan,
    gallery,
    ghw_leq,
    hw_leq,
    iterate_level,
    naive_evaluate,
    parse_hypergraph,
    soft_bags,
    solve,
    solve_constrained,
    sql_to_cq,
    subtree_cost,
    trivial_order,
    validate_td,
)
from softdecomp.gallery import witness_order
from softdecomp.hypergraph import ids_of, mask_of
from softdecomp.solver import TreeDecomposition, minimum_cover

from conftest import (
    edge_cover_bags,
    random_connected_hypergraph,
    random_cq,
    random_database,
    random_stats,
)


def _emit(capsys, number, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " -- " + "; ".join(failures)
    with capsys.disabled():
        print(f"[criterion {number}] {verdict}: {label}{detail}")
    assert not failures, f"criterion {number}: {failures}"


def _timed(failures, name, expect, thunk, bound=1.0):
    """Run one sub-item under a CPU-time bound and record any failure."""
    start = time.process_time()
    try:
        got = thunk()
    except OracleBudgetError as exc:
        failures.append(f"{name}: budget error ({exc})")
        return None
    elapsed = time.process_time() - start
    if got != expect:
        failures.append(f"{name}: expected {expect}, got {got}")
    if elapsed >= bound:
        failures.append(f"{name}: {elapsed:.2f}s CPU (bound {bound:g}s)")
    return got


# --- criterion 1: width table on the reference hypergraphs ------------------


def test_width_table(capsys):
    failures = []
    h2 = gallery("H2").hypergraph
    h3 = gallery("H3").hypergraph
    h3p = gallery("H3prime").hypergraph
    c5 = gallery("C5").hypergraph

    _timed(failures, "H2 accept k=2", True, lambda: solve(h2, soft_bags(h2, 2)).accepted)
    _timed(failures, "H2 reject k=1", False, lambda: solve(h2, soft_bags(h2, 1)).accepted)
    _timed(failures, "H2 hw>2", True, lambda: hw_leq(h2, 2) is None)
    _timed(failures, "H2 hw<=3", True, lambda: hw_leq(h2, 3) is not None)
    _timed(failures, "H2 ghw<=2", True, lambda: ghw_leq(h2, 2) is not None)

    _timed(failures, "H3 accept k=3", True, lambda: solve(h3, soft_bags(h3, 3)).accepted)
    _timed(failures, "H3 reject k=2", False, lambda: solve(h3, soft_bags(h3, 2)).accepted)
    # Exact refutation on all 95 edges, with no edge cap: the search
    # tries each distinct bag once per state and cuts states that repeat
    # the root problem.
    _timed(failures, "H3 hw>3", True, lambda: hw_leq(h3, 3) is None)
    _timed(failures, "H3 hw<=4", True, lambda: hw_leq(h3, 4) is not None)

    level0 = {}

    def h3p_level0():
        level0["bags"] = soft_bags(h3p, 3)
        return solve(h3p, level0["bags"]).accepted

    # The gallery records shw = 3 for H3prime: level-0 bags already give a
    # width-3 decomposition (tests/test_bags.py checks its certificate
    # against the bag definition), and none exists at k=2.
    _timed(failures, "H3prime level-0 accept k=3", True, h3p_level0)
    _timed(
        failures,
        "H3prime level-0 reject k=2",
        False,
        lambda: solve(h3p, soft_bags(h3p, 2)).accepted,
    )
    _timed(
        failures,
        "H3prime level-1 accept k=3",
        True,
        lambda: solve(h3p, iterate_level(level0["bags"])).accepted,
    )
    _timed(failures, "H3prime ghw<=3", True, lambda: ghw_leq(h3p, 3) is not None)

    _timed(failures, "C5 accept k=2", True, lambda: solve(c5, soft_bags(c5, 2)).accepted)
    _timed(
        failures,
        "C5 connected-cover reject k=2",
        False,
        lambda: solve_constrained(c5, soft_bags(c5, 2), ConnectedCover(), trivial_order()).accepted,
    )
    _timed(
        failures,
        "C5 connected-cover accept k=3",
        True,
        lambda: solve_constrained(c5, soft_bags(c5, 3), ConnectedCover(), trivial_order()).accepted,
    )

    _emit(capsys, 1, "width table on gallery hypergraphs", failures)


# --- criterion 2: candidate-bag counts on the bundled SQL queries -----------


def test_candidate_bag_counts(capsys):
    pins = [
        ("q_ds", 2, 9, 8),
        ("q_hto", 2, 25, 16),
        ("q_hto3", 2, 9, 8),
        ("q_hto4", 2, 17, 12),
        ("q_lb", 3, 17, 15),
    ]
    failures = []
    for name, k, total, filtered in pins:
        _cq, h = sql_to_cq(SQL_QUERIES[name])
        _timed(failures, f"{name} |bags|", total, lambda h=h, k=k: len(edge_cover_bags(h, k)))
        _timed(
            failures,
            f"{name} connected",
            filtered,
            lambda h=h, k=k: len(edge_cover_bags(h, k, connected=True)),
        )
    _emit(capsys, 2, "candidate-bag counts for the bundled SQL queries", failures)


# --- criterion 3: width hierarchy on a random corpus ------------------------


def _min_k(pred, kmax):
    for k in range(1, kmax + 1):
        if pred(k):
            return k
    return kmax + 1


def test_width_hierarchy(capsys, small_corpus):
    failures = []
    start = time.process_time()
    violations = 0
    for h in small_corpus:
        kmax = h.n_edges
        k_ghw = _min_k(lambda k: ghw_leq(h, k) is not None, kmax)
        k_soft0 = _min_k(lambda k: solve(h, soft_bags(h, k)).accepted, kmax)
        k_soft1 = _min_k(
            lambda k: solve(h, iterate_level(soft_bags(h, k))).accepted, kmax
        )
        k_hw = _min_k(lambda k: hw_leq(h, k) is not None, kmax)
        if not (k_ghw <= k_soft1 <= k_soft0 <= k_hw):
            violations += 1
    elapsed = time.process_time() - start
    if violations:
        failures.append(f"{violations} hierarchy violations in 200 graphs")
    if elapsed >= 120:
        failures.append(f"{elapsed:.1f}s CPU (bound 120s)")
    _emit(capsys, 3, "width hierarchy holds on 200 random hypergraphs", failures)


# --- criterion 4: solver completeness against exhaustive enumeration --------


def test_solver_completeness(capsys, small_corpus):
    failures = []
    disagreements = 0
    for h in small_corpus:
        for k in (1, 2, 3):
            bags = soft_bags(h, k)
            accepted = solve(h, bags).accepted
            try:
                nonempty = bool(enumerate_all_ctds(h, bags, max_trees=1))
            except OracleBudgetError:
                # The budget error fires only after a complete tree has
                # been produced, so it certifies nonemptiness.
                nonempty = True
            if accepted != nonempty:
                disagreements += 1
    if disagreements:
        failures.append(f"{disagreements} disagreements in 600 runs")
    _emit(capsys, 4, "solver accept/reject matches exhaustive enumeration", failures)


# --- criterion 5: constrained optimizer returns the exhaustive minimum ------


def test_optimizer_minimality(capsys):
    failures = []
    rng = random.Random(20260826)
    mismatches = 0
    checked = 0
    # Unit bag-join cardinalities make the objective the plain sum of
    # per-node bag costs, for which the exhaustive minimum is well defined
    # independently of where a subtree gets attached.
    for trial in range(100):
        h = random_connected_hypergraph(rng, max_vertices=6, max_edges=6)
        k = rng.choice([2, 3])
        bags = soft_bags(h, k)
        stats = random_stats(rng, h, list(bags), unit_joins=True)
        constraint = ConnectedCover()
        res = solve_constrained(h, bags, constraint, cost_order(stats))
        best = None
        for td in enumerate_all_ctds(h, bags, max_trees=200_000, max_steps=20_000_000):
            attach_covers(td, max_size=k)
            if not constraint.holds(h, td, k):
                continue
            cost = subtree_cost(td, stats).total
            if best is None or cost < best:
                best = cost
        if res.accepted != (best is not None):
            mismatches += 1
            continue
        if best is None:
            continue
        checked += 1
        if abs(res.key.cost - best) > 1e-9:
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} optimizer mismatches in 100 instances")
    if checked == 0:
        failures.append("no instance was satisfiable; the comparison is vacuous")

    # Ranked enumeration: sorted keys that match an independent recomputation.
    rng = random.Random(7)
    for _ in range(20):
        h = random_connected_hypergraph(rng, max_vertices=6, max_edges=5)
        bags = soft_bags(h, 2)
        stats = random_stats(rng, h, witness_order(h, 2))
        top = enumerate_top_n(h, bags, ConnectedCover(), cost_order(stats), 5)
        costs = [key.cost for key in top.keys]
        if costs != sorted(costs):
            failures.append("top-n keys not sorted")
        for key, td in zip(top.keys, top.decompositions):
            if abs(key.cost - subtree_cost(td, stats).total) > 1e-9:
                failures.append("top-n key does not match recomputed cost")
    _emit(capsys, 5, "constrained optimizer matches the exhaustive minimum", failures)


# --- criterion 6: cost formula pins and properties ---------------------------


def _cost_chain():
    h = parse_hypergraph("r(a,b), s(b,c), t(c,d)")
    td = TreeDecomposition(
        h,
        [mask_of([0, 1, 2]), mask_of([2, 3])],
        [-1, 0],
        covers=[(0, 1), (2,)],
    )
    stats = StatsCatalog(
        h,
        {0: 10, 1: 10, 2: 8},
        {mask_of([0, 1, 2]): 100},
        {0: 0, 1: 0, 2: 0},
    )
    return h, td, stats


def _random_covered_decomposition(rng):
    h = random_connected_hypergraph(rng, max_vertices=6, max_edges=6)
    for k in (1, 2, 3, h.n_edges):
        res = solve(h, soft_bags(h, min(k, h.n_edges)))
        if res.accepted:
            return h, attach_covers(res.decomposition)
    raise AssertionError("unreachable: full-width decomposition always exists")


def test_cost_formula(capsys):
    failures = []
    h, td, stats = _cost_chain()
    from softdecomp.costs import bag_terms

    root = bag_terms(td.bags[0], td.covers[0], stats).cost
    if abs(root - 166.44) > 1e-2:
        failures.append(f"root bag cost {root:.4f} != 166.44")
    total = subtree_cost(td, stats).total
    if abs(total - 838.82) > 1e-2:
        failures.append(f"chain total {total:.4f} != 838.82")
    stats.bag_join_card[td.bags[1]] = 0
    zeroed = subtree_cost(td, stats)
    if zeroed.node_scan_cost[0] != 0.0 or abs(zeroed.total - zeroed.node_bag_cost[0]) > 1e-2:
        failures.append("empty child did not zero the parent scan")

    rng = random.Random(99)
    for _ in range(100):
        h, td = _random_covered_decomposition(rng)
        stats = random_stats(rng, h, td.bags, max_card=500)
        # zero-propagation: an empty bag empties every ancestor's chain
        victim = rng.randrange(len(td))
        zeroed_stats = StatsCatalog(
            h,
            dict(stats.relation_card),
            dict(stats.bag_join_card),
            dict(stats.primary_key),
            stats.cap,
        )
        zeroed_stats.bag_join_card[td.bags[victim]] = 0
        report = subtree_cost(td, zeroed_stats)
        u = victim
        while u >= 0:
            if report.node_reduced_size[u] != 0.0:
                failures.append("zero join card did not propagate upward")
                break
            u = td.parents[u]
        # monotonicity: pointwise larger statistics never cost less
        bigger = StatsCatalog(
            h,
            {e: c + rng.randint(0, 500) for e, c in stats.relation_card.items()},
            {m: c + rng.randint(0, 500) for m, c in stats.bag_join_card.items()},
            dict(stats.primary_key),
            stats.cap,
        )
        if subtree_cost(td, stats).total > subtree_cost(td, bigger).total + 1e-9:
            failures.append("cost decreased when statistics grew")
    _emit(capsys, 6, "cost formula reproduces its pinned examples and properties", failures)


# --- criterion 7: plan execution equals naive evaluation ---------------------


def test_plan_semantics(capsys):
    failures = []
    rng = random.Random(424242)
    start = time.process_time()
    mismatches = 0
    for _ in range(100):
        cq = random_cq(rng)
        db = random_database(rng, cq)
        h = cq.hypergraph()
        td = None
        for k in range(1, h.n_edges + 1):
            res = solve(h, soft_bags(h, k))
            if res.accepted:
                td = attach_covers(res.decomposition)
                break
        plan = compile_plan(cq, td)
        if execute_plan(plan, db) != naive_evaluate(cq, db):
            mismatches += 1
    elapsed = time.process_time() - start
    if mismatches:
        failures.append(f"{mismatches} semantic mismatches in 100 triples")
    if elapsed >= 60:
        failures.append(f"{elapsed:.1f}s CPU (bound 60s)")
    _emit(capsys, 7, "compiled plans match naive evaluation on 100 random triples", failures)


# --- criterion 8: random invalid mutations always trip the validator ---------


def _tree_adjacency(parents):
    adj = collections.defaultdict(set)
    for i, p in enumerate(parents):
        if p >= 0:
            adj[i].add(p)
            adj[p].add(i)
    return adj


def _breaking_mutations(h, td, k):
    """Single-bag edits that are invalid by construction.

    Each family breaks one decomposition condition from first principles,
    so every returned tree must trip the validator.
    """
    muts = []
    n = len(td)

    def mutate(u, bag, why):
        bags = list(td.bags)
        bags[u] = bag
        muts.append((why, TreeDecomposition(h, bags, list(td.parents))))

    # drop a vertex of an edge hosted only at u: edge coverage breaks
    for u in range(n):
        for em, en in zip(h.edge_masks, h.edge_names):
            if em & ~td.bags[u] or sum(1 for b in td.bags if not em & ~b) > 1:
                continue
            for v in ids_of(em):
                mutate(u, td.bags[u] & ~(1 << v), f"uncover {en} at {u}")
    # drop a cut node of a vertex's occupancy subtree: connectedness breaks
    adj = _tree_adjacency(td.parents)

    def connected(nodes):
        if not nodes:
            return True
        seen = {next(iter(nodes))}
        queue = collections.deque(seen)
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if w in nodes and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen == nodes

    occupancy = {
        v: {i for i, b in enumerate(td.bags) if b >> v & 1} for v in range(h.n_vertices)
    }
    for v, nodes in occupancy.items():
        for u in nodes:
            if len(nodes) > 1 and not connected(nodes - {u}):
                mutate(u, td.bags[u] & ~(1 << v), f"split v{v} at {u}")
    # add a vertex at tree distance >= 2 from its occupancy: also breaks it
    for v, nodes in occupancy.items():
        dist = {i: 0 for i in nodes}
        queue = collections.deque(nodes)
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        for u in range(n):
            if dist.get(u, n + 2) >= 2:
                mutate(u, td.bags[u] | (1 << v), f"teleport v{v} to {u}")
    # empty a leaf: the component structure below its parent breaks
    for u in range(n):
        if td.parents[u] >= 0 and not td.children(u):
            mutate(u, 0, f"empty leaf {u}")
    # widen a bag to all vertices when no k edges can cover that
    if minimum_cover(h, h.all_vertices_mask, max_size=k) is None:
        for u in range(n):
            mutate(u, h.all_vertices_mask, f"full bag at {u}")
    return muts


def _independently_valid(h, bags, parents, k):
    """Decomposition validity recomputed from the definitions with sets.

    Deliberately shares no code with the validator: plain Python sets,
    breadth-first search, and exhaustive <=k cover search.  Exponential in
    the edge count, so only usable on small hypergraphs.
    """
    n = len(bags)
    vsets = [set(ids_of(b)) for b in bags]
    esets = [set(e) for e in h.edge_vertex_ids]
    if not all(any(e <= b for b in vsets) for e in esets):
        return False
    adj = _tree_adjacency(parents)
    for v in range(h.n_vertices):
        nodes = {i for i in range(n) if v in vsets[i]}
        if not nodes:
            continue
        seen = {min(nodes)}
        queue = [min(nodes)]
        while queue:
            x = queue.pop()
            for w in adj[x]:
                if w in nodes and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if seen != nodes:
            return False
    for b in vsets:
        if b and not any(
            b <= set().union(*[esets[i] for i in combo])
            for size in range(1, k + 1)
            for combo in combinations(range(len(esets)), size)
        ):
            return False
    children = collections.defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)

    def subtree_union(u):
        out = set(vsets[u])
        for c in children[u]:
            out |= subtree_union(c)
        return out

    for c in range(n):
        p = parents[c]
        if p < 0:
            continue
        sep = vsets[p]
        rest = [e for e in esets if e - sep]
        comps = []
        for e in rest:
            merged = [e]
            keep = []
            for grp in comps:
                if any((x & y) - sep for x in merged for y in grp):
                    merged += grp
                else:
                    keep.append(grp)
            comps = keep + [merged]
        want = subtree_union(c)
        hits = [grp for grp in comps if set().union(*grp) | (sep & vsets[c]) == want]
        if len(hits) != 1:
            return False
    return True


_CHECKED_FAILURES = (
    "edge-coverage",
    "connectedness",
    "cover-width",
    "component-normal-form",
)


def test_validator_mutations(capsys):
    failures = []
    rng = random.Random(8)
    for name in ("H2", "H3", "H3prime", "q_ds", "q_hto", "q_hto2", "q_hto3", "q_hto4", "q_lb", "C5"):
        entry = gallery(name)
        h = entry.hypergraph
        k = entry.widths.get("shw") or entry.widths.get("concov_shw")
        if name not in ("H2", "H3", "H3prime"):
            # small enough for the exhaustive edit space: take the richest
            # enumerated decomposition and keep every single-bag edit the
            # independent checker marks invalid
            trees = enumerate_all_ctds(h, soft_bags(h, k))
            td = max(trees, key=len)
            pool = []
            for u in range(len(td)):
                edits = [td.bags[u] ^ (1 << v) for v in range(h.n_vertices)]
                edits += [0, h.all_vertices_mask]
                for bag in edits:
                    bags = list(td.bags)
                    bags[u] = bag
                    if not _independently_valid(h, bags, td.parents, k):
                        pool.append(
                            (f"{name} node {u}", TreeDecomposition(h, bags, list(td.parents)))
                        )
        else:
            # exhaustive checking is out of reach; use edits that are
            # invalid by construction
            td = solve(h, soft_bags(h, k)).decomposition
            pool = _breaking_mutations(h, td, k)
        if not pool:
            failures.append(f"{name}: no invalid mutations found")
            continue
        sample = rng.sample(pool, 20) if len(pool) >= 20 else rng.choices(pool, k=20)
        for desc, mutant in sample:
            report = validate_td(h, mutant, k=k)
            tripped = [
                f for f in report.failures if f.startswith(_CHECKED_FAILURES)
            ]
            if not tripped:
                failures.append(f"{name}: mutation not caught ({desc})")
    _emit(capsys, 8, "20 invalid mutations per gallery entry all trip the validator", failures)
