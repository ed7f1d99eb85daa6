"""Graph container: dedup, connectivity, shortest paths, edge registries."""
import itertools
import math
import random
import time

import pytest

from posgraph import EdgeStatus, Pose, PossibilityGraph
from posgraph import graph as graph_module
from posgraph.graph import (
    DUMP_BLOCK,
    ConditionViolation,
    EDGE_TAGS,
    TAG_CRAWL,
    TAG_JUMP,
    TAG_TRANSITION,
    TAG_WALK,
    VERTEX_TAGS,
    VERTEX_GRID_CELL,
    TagChecks,
    edge_key,
    quantize_pose,
)
from posgraph.world import pose_distance


def build_line(g, tag, xs, status=EdgeStatus.SUFFICIENT, y=0.0):
    ids = [g.insert_vertex(Pose(x, y, 0.0, 1.0), tag) for x in xs]
    for a, b in itertools.pairwise(ids):
        g.insert_edge(a, b, tag, status)
    return ids


# -- oracle ---------------------------------------------------------------


def all_simple_paths_min_cost(g, src, dst):
    """Exhaustive DFS over simple paths; returns (cost, edge_ids) or None."""
    best = None

    def walk(v, seen, cost, edges):
        nonlocal best
        if v == dst:
            if best is None or cost < best[0]:
                best = (cost, list(edges))
            return
        for eid in g._out[v]:
            e = g.edges[eid]
            if e.dst in seen:
                continue
            walk(e.dst, seen | {e.dst}, cost + e.cost, edges + [eid])

    walk(src, {src}, 0.0, [])
    return best


def brute_reach(g, seeds, forward):
    """Vertices reached from the seeds by scanning every live edge."""
    seen = {s for s in seeds if s is not None and 0 <= s < len(g.vertices)}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for e in g.edges.values():
            a, b = (e.src, e.dst) if forward else (e.dst, e.src)
            if a == v and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def brute_closest(g, tag, target, distance=pose_distance):
    """Per-component (vertex id, distance) minima over a fresh undirected
    search of the tag's own edges, sorted by (distance, vertex id)."""
    members = {v.id for v in g.vertices if v.tag == tag}
    best, done = [], set()
    for vid in sorted(members):
        if vid in done:
            continue
        comp, frontier = {vid}, [vid]
        while frontier:
            v = frontier.pop()
            for e in g.edges.values():
                if e.tag == tag and v in (e.src, e.dst):
                    u = e.dst if v == e.src else e.src
                    if u in members and u not in comp:
                        comp.add(u)
                        frontier.append(u)
        done |= comp
        best.append(min((distance(g.vertices[u].pose, target), u) for u in comp))
    return [(u, d) for d, u in sorted(best)]


@pytest.fixture(params=["grid", "scan"])
def closest_path(request, monkeypatch):
    """Run a test once with subgraph_closest walking the vertex grid and once
    with it scanning every vertex."""
    monkeypatch.setattr(graph_module, "SCAN_VERTICES", 0 if request.param == "grid" else 10**9)
    return request.param


# -- vertices -------------------------------------------------------------


def test_vertex_dedup_ignores_heading():
    g = PossibilityGraph()
    a = g.insert_vertex(Pose(1.0, 2.0, 0.0, 1.0), TAG_WALK)
    b = g.insert_vertex(Pose(1.0, 2.0, 2.5, 1.0), TAG_WALK)
    assert a == b
    c = g.insert_vertex(Pose(1.004, 2.0, 0.0, 1.0), TAG_WALK)  # same 1 cm cell
    assert c == a
    d = g.insert_vertex(Pose(1.0, 2.0, 0.0, 0.3), TAG_CRAWL)  # other manifold
    assert d != a
    e = g.insert_vertex(Pose(1.02, 2.0, 0.0, 1.0), TAG_WALK)  # next cell over
    assert e != a
    assert g.vertex_count(TAG_WALK) == 2
    assert g.vertex_count() == 3


def test_insert_vertex_reasserts_condition():
    checks = {TAG_WALK: TagChecks(vertex=lambda p: p.x < 5.0)}
    g = PossibilityGraph(checks=checks)
    g.insert_vertex(Pose(1, 0, 0, 1.0), TAG_WALK)
    with pytest.raises(ConditionViolation):
        g.insert_vertex(Pose(6, 0, 0, 1.0), TAG_WALK)


def test_bad_tag_rejected():
    g = PossibilityGraph()
    with pytest.raises(ValueError):
        g.insert_vertex(Pose(0, 0, 0, 1.0), "swim")


# -- edges ----------------------------------------------------------------


def test_edge_costs_exclude_heading_and_add_surcharges():
    g = PossibilityGraph()
    a = g.insert_vertex(Pose(0, 0, 0.0, 1.0), TAG_WALK)
    b = g.insert_vertex(Pose(3, 4, 2.0, 1.0), TAG_WALK)
    (eid, _) = g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT)
    assert g.edges[eid].cost == pytest.approx(5.0)  # heading ignored

    c = g.insert_vertex(Pose(3, 4, 2.0, 0.3), TAG_CRAWL)
    tids = g.insert_edge(b, c, TAG_TRANSITION, EdgeStatus.SUFFICIENT)
    assert g.edges[tids[0]].cost == pytest.approx(0.7 + 0.5)  # dh + surcharge

    d = g.insert_vertex(Pose(4.0, 4.0, 0.0, 0.3), TAG_CRAWL)
    jids = g.insert_edge(b, d, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2)
    e = g.edges[jids[0]]
    assert e.cost == pytest.approx(math.hypot(1.0, 0.7) + 1.0)
    assert e.twin is None  # jumps are one-way


def test_explicit_cost_override():
    g = PossibilityGraph()
    a = g.insert_vertex(Pose(0, 0, 0, 1.0), TAG_WALK)
    b = g.insert_vertex(Pose(0.2, 0, 0, 1.0), TAG_WALK)
    ids = g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT, cost=0.0)
    assert all(g.edges[i].cost == 0.0 for i in ids)


def test_bidirectional_edges_are_twinned():
    g = PossibilityGraph()
    a, b = build_line(g, TAG_WALK, [0.0, 1.0])
    eids = [eid for eid in g.edges]
    assert len(eids) == 2
    e0, e1 = (g.edges[i] for i in eids)
    assert e0.twin == e1.id and e1.twin == e0.id
    g.remove_edge(e0.id)
    assert not g.edges


def test_duplicate_edge_suppressed_by_live_keys():
    g = PossibilityGraph()
    a, b = build_line(g, TAG_WALK, [0.0, 1.0])
    again = g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT)
    assert again == []
    assert g.edge_count() == 2


def test_registry_blocks_reinsertion_after_refutation():
    g = PossibilityGraph()
    a, b = build_line(g, TAG_WALK, [0.0, 1.0])
    eid = next(iter(g.edges))
    p0 = g.vertices[a].pose
    p1 = g.vertices[b].pose
    g.settle_edge(eid, False)
    # both keys stay blocked for good, and no edge comes back
    assert g.edge_blocked(TAG_WALK, p0, p1) and g.edge_blocked(TAG_WALK, p1, p0)
    assert g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT) == []
    assert g.insert_edge(b, a, TAG_WALK, EdgeStatus.SUFFICIENT) == []
    assert g.edges == {}
    # a different tag between the same poses is unaffected
    assert not g.edge_blocked(TAG_CRAWL, p0, p1)


def test_deferred_jump_blocks_only_its_forward_key():
    g = PossibilityGraph()
    a = g.insert_vertex(Pose(0, 0, 0, 1.0), TAG_WALK)
    b = g.insert_vertex(Pose(1, 0, 0, 0.3), TAG_CRAWL)
    p0, p1 = g.vertices[a].pose, g.vertices[b].pose
    (eid,) = g.insert_edge(a, b, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2)
    g.settle_edge(eid, False)
    assert g.edges == {}
    assert g.edge_blocked(TAG_JUMP, p0, p1)
    assert not g.edge_blocked(TAG_JUMP, p1, p0)
    assert len(g.insert_edge(b, a, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2)) == 1


def test_deferred_gait_edge_blocks_both_keys():
    g = PossibilityGraph()
    a, b = build_line(g, TAG_WALK, [0.0, 1.0], EdgeStatus.INDETERMINATE)
    p0, p1 = g.vertices[a].pose, g.vertices[b].pose
    g.settle_edge(next(iter(g.edges)), False)
    # the twin is settled with the edge it shares every step with
    assert g.edges == {}
    assert g.edge_blocked(TAG_WALK, p0, p1) and g.edge_blocked(TAG_WALK, p1, p0)
    assert not g.edge_live(TAG_WALK, p0, p1) and not g.edge_live(TAG_WALK, p1, p0)
    assert g.insert_edge(b, a, TAG_WALK, EdgeStatus.SUFFICIENT) == []
    g.audit()


def test_pending_keys_block_then_clear():
    g = PossibilityGraph()
    a, b = build_line(g, TAG_WALK, [0.0, 1.0], EdgeStatus.INDETERMINATE)
    p0, p1 = g.vertices[a].pose, g.vertices[b].pose
    # a pair awaiting its verdict blocks a duplicate, and still does once confirmed
    assert g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT) == []
    g.settle_edge(next(iter(g.edges)), True)
    assert g.edge_count() == 2
    assert g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT) == []
    # no key is refuted: once the pair is removed, both keys clear
    g.remove_edge(min(g.edges))
    assert not g.edge_blocked(TAG_WALK, p0, p1) and not g.edge_blocked(TAG_WALK, p1, p0)
    assert len(g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT)) == 2


def test_confirmed_settle_reinserts_twinned_job_confirmed_pair():
    g = PossibilityGraph()
    a, b = build_line(g, TAG_WALK, [0.0, 1.0], EdgeStatus.INDETERMINATE)
    ids = sorted(g.edges)
    g.settle_edge(ids[1], True)
    # the pair is marked in place: same ids, endpoints and cost, twin included
    assert sorted(g.edges) == ids
    e0, e1 = (g.edges[i] for i in ids)
    assert (e0.src, e0.dst, e1.src, e1.dst) == (a, b, b, a)
    assert e0.twin == e1.id and e1.twin == e0.id
    assert all(e.status == EdgeStatus.JOB_CONFIRMED and e.cost == 1.0 for e in (e0, e1))
    g.audit()


def test_confirmed_jump_settles_only_itself():
    g = PossibilityGraph()
    a = g.insert_vertex(Pose(0, 0, 0, 1.0), TAG_WALK)
    b = g.insert_vertex(Pose(1, 0, 0, 0.3), TAG_CRAWL)
    (fwd,) = g.insert_edge(a, b, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2)
    (back,) = g.insert_edge(b, a, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2)
    g.settle_edge(fwd, True)
    assert g.edges[fwd].status == EdgeStatus.JOB_CONFIRMED and g.edges[fwd].apex == 0.2
    assert g.edges[back].status == EdgeStatus.INDETERMINATE


def test_edge_key_includes_heading():
    a = Pose(1, 1, 0.0, 1.0)
    b = Pose(1, 1, 1.0, 1.0)
    c = Pose(2, 1, 0.0, 1.0)
    assert edge_key(TAG_JUMP, a, c) != edge_key(TAG_JUMP, b, c)
    assert quantize_pose(a) == quantize_pose(b)[:1] + quantize_pose(a)[1:]


def test_edge_keys_of_vertices_sharing_a_quantized_pose():
    # a walk and a crawl vertex can hold one quantized pose; an edge key is
    # live or refuted whichever of them the edge starts from
    g = PossibilityGraph()
    a = g.insert_vertex(Pose(0, 0, 0, 0.5), TAG_WALK)
    b = g.insert_vertex(Pose(0, 0, 0, 0.5), TAG_CRAWL)
    c = g.insert_vertex(Pose(1, 0, 0, 0.5), TAG_CRAWL)
    assert a != b
    pa, pc = g.vertices[a].pose, g.vertices[c].pose
    (eid,) = g.insert_edge(b, c, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2)
    assert g.edge_live(TAG_JUMP, pa, pc) and g.edge_live_between(TAG_JUMP, a, c)
    assert g.insert_edge(a, c, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2) == []
    g.settle_edge(eid, False)
    assert g.edge_blocked(TAG_JUMP, pa, pc) and not g.edge_live(TAG_JUMP, pa, pc)
    assert g.insert_edge(a, c, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2) == []
    # a transition between the two holds the same key both ways, so it has no twin
    assert len(g.insert_edge(a, b, TAG_TRANSITION, EdgeStatus.SUFFICIENT)) == 1
    g.audit()


def test_insert_edge_reasserts_condition():
    checks = {TAG_WALK: TagChecks(edge=lambda p, q: abs(p.x - q.x) < 0.5)}
    g = PossibilityGraph(checks=checks)
    a = g.insert_vertex(Pose(0, 0, 0, 1.0), TAG_WALK)
    b = g.insert_vertex(Pose(2, 0, 0, 1.0), TAG_WALK)
    assert g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT) == []
    assert g.edges == {}
    g.audit()


# -- connectivity ---------------------------------------------------------


def test_components_and_union_find_after_removals():
    g = PossibilityGraph()
    ids1 = build_line(g, TAG_WALK, [0, 1, 2, 3])
    ids2 = build_line(g, TAG_WALK, [6, 7, 8])
    comps = g.components(TAG_WALK)
    assert len(comps) == 2
    # removing a middle edge splits the first chain
    mid = None
    for eid, e in g.edges.items():
        if {e.src, e.dst} == {ids1[1], ids1[2]}:
            mid = eid
            break
    g.remove_edge(mid)
    comps = g.components(TAG_WALK)
    assert len(comps) == 3
    sizes = sorted(len(v) for v in comps.values())
    assert sizes == [2, 2, 3]


def test_directed_reachability_with_one_way_edge():
    g = PossibilityGraph()
    a = g.insert_vertex(Pose(0, 0, 0, 1.0), TAG_WALK)
    b = g.insert_vertex(Pose(1, 0, 0, 0.3), TAG_CRAWL)
    g.insert_edge(a, b, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=0.2)
    g.set_endpoints(a, [b])
    assert g.connected(a, b)
    assert not g.connected(b, a)
    assert b in g.start_reachable_set()
    assert b in g.goal_reaching_set()
    assert a not in g.reachable_from(b)
    assert a in g.goal_reaching_set()  # a reaches b over the jump
    c = g.insert_vertex(Pose(5, 5, 0, 1.0), TAG_WALK)
    assert c not in g.start_reachable_set()
    assert c not in g.goal_reaching_set()


def test_reachability_cache_invalidated_by_mutation():
    g = PossibilityGraph()
    a, b = build_line(g, TAG_WALK, [0, 1])
    g.set_endpoints(a, [b])
    assert b in g.start_reachable_set()
    for eid in list(g.edges):
        g.remove_edge(eid)
    assert b not in g.start_reachable_set()


@pytest.mark.parametrize("seed", range(6))
def test_random_mutations_keep_queries_equal_to_brute_force(seed):
    """Random insertions, removals and verdicts; after each step the live
    reach sets, the key registries and the per-component nearest vertices
    match brute-force scans. Vertices sit on a unit grid and targets on a
    half grid, so equal distances occur within and across components."""
    rng = random.Random(seed)
    g = PossibilityGraph()
    vids = [
        g.insert_vertex(Pose(x, y, rng.choice((0.0, math.pi / 2)), h), tag)
        for tag, h in ((TAG_WALK, 1.0), (TAG_CRAWL, 0.3))
        for x in range(4)
        for y in range(3)
    ]
    g.set_endpoints(vids[0], [vids[-1], vids[5]])
    tried, refuted = set(), set()
    for _ in range(80):
        roll = rng.random()
        if roll < 0.6 or not g.edges:
            a, b = rng.sample(vids, 2)
            tag = rng.choice(EDGE_TAGS)
            g.insert_edge(a, b, tag, rng.choice((EdgeStatus.SUFFICIENT, EdgeStatus.INDETERMINATE)))
            pa, pb = g.vertices[a].pose, g.vertices[b].pose
            turned = Pose(pa.x, pa.y, pa.theta + 0.5, pa.h)  # same vertex cell, another key
            tried |= {(tag, pa, pb), (tag, pb, pa), (tag, turned, pb)}
        elif roll < 0.8:
            g.remove_edge(rng.choice(sorted(g.edges)))
        else:
            e = g.edges[rng.choice(sorted(g.edges))]
            confirmed = rng.random() < 0.5
            if not confirmed:
                pa, pb = g.vertices[e.src].pose, g.vertices[e.dst].pose
                refuted.add(edge_key(e.tag, pa, pb))
                if e.tag != TAG_JUMP:
                    refuted.add(edge_key(e.tag, pb, pa))
            g.settle_edge(e.id, confirmed)

        assert g.start_reachable_set() == brute_reach(g, [g.start_id], True)
        assert g.goal_reaching_set() == brute_reach(g, g.goal_ids, False)
        live = {edge_key(e.tag, g.vertices[e.src].pose, g.vertices[e.dst].pose) for e in g.edges.values()}
        for tag, pa, pb in tried:
            k = edge_key(tag, pa, pb)
            assert g.edge_live(tag, pa, pb) == (k in live)
            assert g.edge_blocked(tag, pa, pb) == (k in live or k in refuted)
        for tag, h in ((TAG_WALK, 1.0), (TAG_CRAWL, 0.3)):
            target = Pose(rng.randrange(7) / 2, rng.randrange(5) / 2, 0.0, h)
            got = [(vid, d) for d, vid in g.subgraph_closest(tag, target)]
            assert got == brute_closest(g, tag, target)
        g.audit()


# -- shortest paths -------------------------------------------------------


def test_shortest_path_matches_enumeration_oracle():
    rng = random.Random(9)
    for trial in range(25):
        g = PossibilityGraph()
        vids = [g.insert_vertex(Pose(rng.uniform(0, 9), rng.uniform(0, 9), 0, 1.0), TAG_WALK) for _ in range(7)]
        assert len(set(vids)) == 7  # no pose fell into another's dedup cell
        for _ in range(12):
            a, b = rng.sample(vids, 2)
            # a jump is the one-way edge
            tag = TAG_WALK if rng.random() < 0.7 else TAG_JUMP
            g.insert_edge(a, b, tag, EdgeStatus.SUFFICIENT)
        src, dst = vids[0], vids[-1]
        got = g.shortest_path(src, dst)
        want = all_simple_paths_min_cost(g, src, dst)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.cost == pytest.approx(want[0])


def test_shortest_path_structure():
    g = PossibilityGraph()
    ids = build_line(g, TAG_WALK, [0, 1, 2, 3])
    path = g.shortest_path(ids[0], ids[-1])
    assert path.vertex_ids[0] == ids[0]
    assert path.vertex_ids[-1] == ids[-1]
    assert len(path.edge_ids) == 3
    assert path.cost == pytest.approx(3.0)
    for eid, (u, v) in zip(path.edge_ids, itertools.pairwise(path.vertex_ids)):
        e = g.edges[eid]
        assert (e.src, e.dst) == (u, v)


def test_shortest_path_tie_breaks_on_lower_edge_id():
    g = PossibilityGraph()
    s = g.insert_vertex(Pose(0, 0, 0, 1.0), TAG_WALK)
    a = g.insert_vertex(Pose(1, 1, 0, 1.0), TAG_WALK)
    b = g.insert_vertex(Pose(1, -1, 0, 1.0), TAG_WALK)
    t = g.insert_vertex(Pose(2, 0, 0, 1.0), TAG_WALK)
    g.insert_edge(s, a, TAG_WALK, EdgeStatus.SUFFICIENT)
    low_in = g.insert_edge(s, b, TAG_WALK, EdgeStatus.SUFFICIENT)
    low_out = g.insert_edge(b, t, TAG_WALK, EdgeStatus.SUFFICIENT)
    g.insert_edge(a, t, TAG_WALK, EdgeStatus.SUFFICIENT)
    path = g.shortest_path(s, t)
    assert path.cost == pytest.approx(2 * math.sqrt(2))
    # equal-cost routes resolve to the lower incoming edge id at t (4 < 6)
    assert path.edge_ids == (low_in[0], low_out[0])


def test_self_path_is_empty():
    g = PossibilityGraph()
    a = g.insert_vertex(Pose(0, 0, 0, 1.0), TAG_WALK)
    path = g.shortest_path(a, a)
    assert path.cost == 0.0
    assert path.edge_ids == ()
    assert path.vertex_ids == (a,)


# -- queries used by growth ----------------------------------------------


def test_subgraph_closest_orders_components():
    g = PossibilityGraph()
    build_line(g, TAG_WALK, [0, 1])
    build_line(g, TAG_WALK, [5, 6])
    target = Pose(4.4, 0, 0, 1.0)
    entries = list(g.subgraph_closest(TAG_WALK, target))
    assert len(entries) == 2
    (d0, v0), (d1, v1) = entries
    assert g.vertices[v0].pose.x == 5
    assert g.vertices[v1].pose.x == 1
    assert d0 < d1


def _border_coords(rng):
    """Coordinates on and beside vertex-grid cell borders (the borders sit at
    multiples of the cell side, and a cell holds its lower border), negative
    ones included."""
    k = rng.randint(-8, 8)
    return k * VERTEX_GRID_CELL + rng.choice((-0.005, -0.0049, 0.0, 0.0049, 0.005, rng.uniform(0, VERTEX_GRID_CELL)))


@pytest.mark.parametrize("seed", range(8))
def test_subgraph_closest_matches_brute_force(seed, closest_path):
    """Every entry, in order, equals the brute-force per-component minima:
    vertices on and beside cell borders at negative and positive
    coordinates, targets inside, between and far outside the occupied cells,
    and a union-find left dirty by removals."""
    rng = random.Random(seed)
    g = PossibilityGraph()
    vids = []
    for _ in range(60):
        tag, h = rng.choice(((TAG_WALK, 1.0), (TAG_CRAWL, 0.3)))
        vids.append(g.insert_vertex(Pose(_border_coords(rng), _border_coords(rng), rng.uniform(-3, 3), h), tag))
    for _ in range(50):
        a, b = rng.sample(vids, 2)
        g.insert_edge(a, b, rng.choice((TAG_WALK, TAG_CRAWL, TAG_JUMP)), EdgeStatus.SUFFICIENT)
    for step in range(12):
        if step % 3 == 2 and g.edges:
            g.remove_edge(rng.choice(sorted(g.edges)))
        for tag, h in ((TAG_WALK, 1.0), (TAG_CRAWL, 0.3)):
            far = rng.choice((1.0, 1.0, 5.0, 40.0))
            target = Pose(far * _border_coords(rng), far * _border_coords(rng), rng.uniform(-3, 3), h + rng.uniform(-0.2, 0.2))
            want = brute_closest(g, tag, target)
            assert [(vid, d) for d, vid in g.subgraph_closest(tag, target)] == want
            assert [vid for _, vid in itertools.islice(g.subgraph_closest(tag, target), 2)] == [vid for vid, _ in want[:2]]
    g.audit()


def test_subgraph_closest_reads_the_graph_as_it_was_at_the_call(closest_path):
    """An iterator from before a change keeps giving the entries of the graph
    at its call: components merged since still count as separate, and new
    vertices do not show. A cell first filed since, nearer the target than
    cells occupied at the call, must not cut the grid walk short of the
    farthest of those cells, which holds a lone vertex."""
    g = PossibilityGraph()
    # ten cells within two rings of the target's, so that the grid walk
    # reaches the lone vertex four rings out before its lookup budget runs out
    chains = [
        build_line(g, TAG_WALK, [x0 + 0.3 * i for i in range(4)], y=y)
        for x0, y in ((0.0, 0.0), (0.0, 1.2), (0.0, -0.8), (-1.0, 1.2), (-1.0, -0.8))
    ]
    build_line(g, TAG_WALK, [2.2], y=0.2)
    target = Pose(0.1, 0.2, 0.0, 1.0)
    want = brute_closest(g, TAG_WALK, target)
    entries = g.subgraph_closest(TAG_WALK, target)
    assert next(entries) == (want[0][1], want[0][0])
    # merge the second chain into the first and the fourth into the third,
    # add vertices nearer the target than any left to read, and one more in
    # the empty cell between the first chain and the lone vertex
    g.insert_edge(chains[0][-1], chains[1][0], TAG_WALK, EdgeStatus.SUFFICIENT)
    g.insert_edge(chains[2][-1], chains[3][0], TAG_WALK, EdgeStatus.SUFFICIENT)
    fresh = build_line(g, TAG_WALK, [0.15, 0.45, 1.6])
    assert [(vid, d) for d, vid in entries] == want[1:]
    # read now, the merged chains count once and the fresh one leads
    now = brute_closest(g, TAG_WALK, target)
    assert len(now) == 5 and now[0][0] in fresh


@pytest.mark.parametrize("seed", range(4))
def test_subgraph_closest_holds_under_planar_weights_below_one(seed, closest_path, monkeypatch):
    """With x and y weighted below 1, a vertex in a far ring can be nearer by
    pose_distance than one in a near ring; the grid walk must still give
    every entry in order."""
    weights = (0.25, 0.5, 0.3, 1.0)
    distance = lambda a, b: pose_distance(a, b, weights)  # noqa: E731
    monkeypatch.setattr(graph_module, "DEFAULT_METRIC_WEIGHTS", weights)
    monkeypatch.setattr(graph_module, "pose_distance", distance)
    origin = Pose(0.0, 0.0, 0.0, 1.0)
    g = PossibilityGraph()
    # 1.6 m away in x is nearer than 0.9 m away in y
    near_y, far_x = (g.insert_vertex(Pose(x, y, 0.0, 1.0), TAG_WALK) for x, y in ((0.0, 0.9), (1.6, 0.0)))
    assert [vid for _, vid in g.subgraph_closest(TAG_WALK, origin)] == [far_x, near_y]
    rng = random.Random(seed)
    vids = [g.insert_vertex(Pose(rng.uniform(-4, 4), rng.uniform(-4, 4), 0.0, 1.0), TAG_WALK) for _ in range(40)]
    for _ in range(15):
        g.insert_edge(*rng.sample(vids, 2), TAG_WALK, EdgeStatus.SUFFICIENT)
    for target in [origin] + [Pose(rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0, 1.0) for _ in range(6)]:
        want = brute_closest(g, TAG_WALK, target, distance)
        assert [(vid, d) for d, vid in g.subgraph_closest(TAG_WALK, target)] == want


def test_subgraph_closest_copes_with_a_far_flung_grid(closest_path):
    """Vertices 10^6 m apart: the empty rings between them cost nothing."""
    g = PossibilityGraph()
    poses = [(0.0, 0.0), (1e6, 0.0), (-3e5, 1e6), (0.2, 0.1)]
    for x, y in poses:
        g.insert_vertex(Pose(x, y, 0.0, 1.0), TAG_WALK)
    t0 = time.perf_counter()
    for target in (Pose(0.1, 0.0, 0.0, 1.0), Pose(5e5, 1.0, 0.0, 1.0), Pose(-2e6, -2e6, 0.0, 1.0)):
        got = [(vid, d) for d, vid in g.subgraph_closest(TAG_WALK, target)]
        assert got == brute_closest(g, TAG_WALK, target)
        assert len(got) == len(poses)
    assert time.perf_counter() - t0 < 1.0


def test_nearest_vertices_radius_and_order():
    g = PossibilityGraph()
    ids = build_line(g, TAG_WALK, [0, 0.2, 0.4, 0.6, 0.8, 2.0])
    # five vertices lie within NEAREST_RADIUS (0.45); the NEAREST_COUNT (4)
    # closest come back nearest first, heading ignored
    near = g.nearest_vertices(TAG_WALK, Pose(0.41, 0, 3.0, 1.0))
    assert near == [ids[2], ids[3], ids[1], ids[4]]
    assert g.nearest_vertices(TAG_WALK, Pose(2.5, 0, 0, 1.0)) == []


# -- serialization and audit ----------------------------------------------


def test_dump_format_and_determinism():
    def build():
        g = PossibilityGraph()
        build_line(g, TAG_WALK, [0, 1, 2])
        a = g.insert_vertex(Pose(0, 0, 0, 0.3), TAG_CRAWL)
        b = g.insert_vertex(Pose(0, 0.5, 0, 0.3), TAG_CRAWL)
        g.insert_edge(a, b, TAG_CRAWL, EdgeStatus.INDETERMINATE)
        return g.dump()

    d1 = build()
    d2 = build()
    assert d1 == d2
    lines = d1.strip().split("\n")
    vlines = [l for l in lines if l.startswith("V ")]
    elines = [l for l in lines if l.startswith("E ")]
    assert len(vlines) == 5 and len(elines) == 6
    assert vlines[0].split() == ["V", "0", "walk", "0.000000", "0.000000", "0.000000", "1.000000"]
    for l in elines:
        parts = l.split()
        assert parts[5] in ("sufficient-confirmed", "indeterminate", "job-confirmed")


@pytest.mark.parametrize("n_lines", [0, 1, DUMP_BLOCK - 1, DUMP_BLOCK, DUMP_BLOCK + 1, 2 * DUMP_BLOCK])
def test_dump_is_one_newline_joined_text_at_any_size(n_lines):
    # dump() joins its lines a block at a time: none, one line, a block
    # short by one, exactly one, one and a line over, and two blocks
    # a quarter of the lines are twinned edge pairs, the rest vertices
    pairs = n_lines // 4
    g = PossibilityGraph()
    vids = [g.insert_vertex(Pose(0.1 * i, 0.0, 0.0, 1.0), TAG_WALK) for i in range(n_lines - 2 * pairs)]
    for k in range(pairs):
        g.insert_edge(vids[2 * k], vids[2 * k + 1], TAG_WALK, EdgeStatus.SUFFICIENT)
    lines = []
    for v in g.vertices:
        p = v.pose
        lines.append(f"V {v.id} {v.tag} {p.x:.6f} {p.y:.6f} {p.theta:.6f} {p.h:.6f}")
    lines += [f"E {e.id} {e.tag} {e.src} {e.dst} {e.status.value} {e.cost:.6f}" for e in g.edges.values()]
    assert len(lines) == n_lines
    assert g.dump() == "\n".join(lines) + "\n"
    if not n_lines:
        assert g.dump() == "\n"


def test_audit_passes_on_random_graph():
    rng = random.Random(2)
    g = PossibilityGraph()
    vids = [g.insert_vertex(Pose(rng.uniform(0, 9), rng.uniform(0, 9), 0, 1.0), TAG_WALK) for _ in range(10)]
    assert len(set(vids)) == 10  # no pose fell into another's dedup cell
    for _ in range(15):
        a, b = rng.sample(vids, 2)
        g.insert_edge(a, b, TAG_WALK, EdgeStatus.SUFFICIENT)
    for eid in list(g.edges)[:4]:
        g.remove_edge(eid)
    g.audit()
