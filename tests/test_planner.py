"""Planner loop: chain growth, transitions, jump seeding, lazy confirmation."""
import json
import math
from types import SimpleNamespace

import pytest

from posgraph import (
    Box,
    EdgeStatus,
    GapRect,
    Planner,
    PlannerConfig,
    PlannerInputError,
    Pose,
    WorldModel,
)
from posgraph.graph import TAG_CRAWL, TAG_JUMP, TAG_TRANSITION, TAG_WALK, TRANSITION_SURCHARGE
from posgraph.planner import MAX_TRANSITIONS_PER_CYCLE


def make_planner(world, profile, start, goal, actions, **cfg):
    cfg.setdefault("seed", 0)
    return Planner(world, profile, start, [goal], actions, PlannerConfig(**cfg))


def open_planner(profile, **cfg):
    world = WorldModel((0, 10), (0, 8), [], [])
    return make_planner(world, profile, Pose(1, 1, 0, 1.0), Pose(9, 7, 0, 1.0), ["walk"], **cfg)


# -- connect --------------------------------------------------------------


def test_connect_lays_fixed_steps_to_target(profile):
    pl = open_planner(profile)
    pl._init_endpoints()
    walk = pl.actions[0]
    new = pl.connect(walk, pl.graph.start_id, Pose(2, 1, 0, 1.0))
    xs = [round(pl.graph.vertices[v].pose.x, 6) for v in new]
    assert xs == [1.3, 1.6, 1.9, 2.0]
    assert all(pl.graph.vertices[v].pose.y == 1.0 for v in new)
    assert all(pl.graph.vertices[v].pose.theta == 0.0 for v in new)
    # open ground: every chain edge is immediately sufficient
    assert all(e.status == EdgeStatus.SUFFICIENT for e in pl.graph.edges.values())


def test_connect_walks_through_existing_chain_without_duplicates(profile):
    pl = open_planner(profile)
    pl._init_endpoints()
    walk = pl.actions[0]
    pl.connect(walk, pl.graph.start_id, Pose(2, 1, 0, 1.0))
    nv = pl.graph.vertex_count()
    ne = pl.graph.edge_count()
    again = pl.connect(walk, pl.graph.start_id, Pose(2, 1, 0, 1.0))
    assert again == []
    assert pl.graph.vertex_count() == nv
    assert pl.graph.edge_count() == ne


def test_connect_stops_at_obstacle(profile):
    world = WorldModel((0, 10), (0, 8), [Box((3, 4), (0, 8), (0, 2.2))], [])
    pl = make_planner(world, profile, Pose(1, 4, 0, 1.0), Pose(9, 4, 0, 1.0), ["walk"])
    pl._init_endpoints()
    new = pl.connect(pl.actions[0], pl.graph.start_id, Pose(9, 4, 0, 1.0))
    assert new
    assert max(pl.graph.vertices[v].pose.x for v in new) < 3.0


# -- transitions ----------------------------------------------------------


def test_transitions_capped_and_layered_as_sufficient_pairs(profile):
    world = WorldModel((0, 10), (0, 8), [], [])
    pl = make_planner(world, profile, Pose(1, 1, 0, 1.0), Pose(9, 7, 0, 1.0), ["walk", "crawl"])
    pl._init_endpoints()
    walk = pl.actions_by_tag[TAG_WALK]
    assert pl.perform_transitions(walk) == []  # flush broadcast endpoints
    crawl_ids = [
        pl.graph.insert_vertex(Pose(2 + i, 5, 0.4, 0.3), TAG_CRAWL) for i in range(8)
    ]
    for vid in crawl_ids:
        walk.queue.add(vid)
    assert len(walk.queue) == 8
    new = pl.perform_transitions(walk)
    assert len(new) == MAX_TRANSITIONS_PER_CYCLE == 5
    assert len(walk.queue) == 3
    for vid in new:
        v = pl.graph.vertices[vid]
        assert v.tag == TAG_WALK and v.pose.h == profile.h_walk
    trans = [e for e in pl.graph.edges.values() if e.tag == TAG_TRANSITION]
    assert len(trans) == 10  # five pairs
    for e in trans:
        assert e.status == EdgeStatus.SUFFICIENT
        assert e.twin is not None
        assert e.cost == pytest.approx(0.7 + TRANSITION_SURCHARGE)


# -- jump seeding ---------------------------------------------------------


def gap_world():
    return WorldModel((0, 8), (0, 4), [], [GapRect((3.0, 3.6), (0, 4))])


def test_grow_nonholonomic_seeds_forward_jump(profile):
    pl = make_planner(gap_world(), profile, Pose(1, 2, 0, 1.0), Pose(7, 2, 0, 1.0), ["walk", "crawl", "jump"])
    pl._init_endpoints()
    launch_src = pl.graph.insert_vertex(Pose(2.7, 2, 0, 1.0), TAG_WALK)
    jump = pl.actions_by_tag[TAG_JUMP]
    new = pl.grow_nonholonomic(jump, Pose(7, 2, 0, 1.0))
    jumps = [e for e in pl.graph.edges.values() if e.tag == TAG_JUMP]
    assert len(jumps) == 1
    e = jumps[0]
    assert e.status == EdgeStatus.INDETERMINATE
    assert e.twin is None and e.apex is not None
    assert e.src == launch_src
    land = pl.graph.vertices[e.dst].pose
    assert pl.graph.vertices[e.dst].tag == TAG_CRAWL
    assert land.x == pytest.approx(4.2) and land.h == profile.h_crawl
    assert e.dst in new


def test_grow_nonholonomic_seeds_reverse_jump(profile):
    pl = make_planner(gap_world(), profile, Pose(1, 2, 0, 1.0), Pose(7, 2, 0, 1.0), ["walk", "crawl", "jump"])
    pl._init_endpoints()
    land_src = pl.graph.insert_vertex(Pose(4.2, 2, 0, 0.3), TAG_CRAWL)
    jump = pl.actions_by_tag[TAG_JUMP]
    pl.grow_nonholonomic(jump, Pose(1, 2, 0, 1.0))
    jumps = [e for e in pl.graph.edges.values() if e.tag == TAG_JUMP]
    assert len(jumps) == 1
    e = jumps[0]
    assert e.dst == land_src
    launch = pl.graph.vertices[e.src]
    assert launch.tag == TAG_WALK
    assert launch.pose.x == pytest.approx(2.7)
    assert launch.pose.theta == pytest.approx(0.0)  # heading back at the landing


def test_no_jumps_proposed_over_continuous_floor(profile):
    world = WorldModel((0, 8), (0, 4), [], [])
    pl = make_planner(world, profile, Pose(1, 2, 0, 1.0), Pose(7, 2, 0, 1.0), ["walk", "crawl", "jump"])
    pl._init_endpoints()
    for x in (2.0, 3.0, 4.0):
        pl.graph.insert_vertex(Pose(x, 2, 0, 1.0), TAG_WALK)
    jump = pl.actions_by_tag[TAG_JUMP]
    for target in (Pose(7, 2, 0, 1.0), Pose(1, 3.5, 0, 1.0), Pose(4, 0.5, 0, 1.0)):
        assert pl.grow_nonholonomic(jump, target) == []
    assert not any(e.tag == TAG_JUMP for e in pl.graph.edges.values())


# -- lazy confirmation ----------------------------------------------------


def hole_between_footholds():
    # swept support fails over the hole, but stride-spaced footholds miss it
    return WorldModel((0, 10), (0, 8), [], [GapRect((1.9, 2.15), (1.01, 1.24))])


def hole_under_foothold():
    # same hole shifted down to swallow the second foothold at (2.0, 0.875)
    return WorldModel((0, 10), (0, 8), [], [GapRect((1.9, 2.15), (0.8, 1.2))])


def seeded_edge_planner(world, profile):
    pl = make_planner(world, profile, Pose(1.6, 1, 0, 1.0), Pose(2.6, 1, 0, 1.0), ["walk"])
    pl._init_endpoints()
    g = pl.graph
    ids = g.insert_edge(g.start_id, g.goal_ids[0], TAG_WALK, EdgeStatus.INDETERMINATE)
    assert ids
    return pl


def test_confirm_path_runs_job_and_confirms_in_place(profile):
    pl = seeded_edge_planner(hole_between_footholds(), profile)
    g = pl.graph
    path = g.shortest_path(g.start_id, g.goal_ids[0])
    ids = sorted(g.edges)
    assert pl.confirm_path(path)  # the job ran to its verdict within the call
    assert pl.stats.jobs_spawned == pl.stats.jobs_confirmed == 1
    assert pl.queue.pending_count() == 0
    # the edge and its twin keep their ids and are now proven
    assert sorted(g.edges) == ids
    assert all(g.edges[eid].status == EdgeStatus.JOB_CONFIRMED for eid in ids)
    assert pl.events[-1] == f"CONFIRM {path.edge_ids[0]} confirmed"
    assert pl.confirm_path(path)  # proven edges spawn no second job
    assert pl.stats.jobs_spawned == 1


def test_confirm_path_blocks_refuted_edge_for_good(profile):
    pl = seeded_edge_planner(hole_under_foothold(), profile)
    g = pl.graph
    path = g.shortest_path(g.start_id, g.goal_ids[0])
    assert not pl.confirm_path(path)
    assert pl.stats.jobs_refuted == 1
    assert g.shortest_path(g.start_id, g.goal_ids[0]) is None
    assert g.insert_edge(g.start_id, g.goal_ids[0], TAG_WALK, EdgeStatus.INDETERMINATE) == []


def test_confirm_path_stops_at_first_refutation(profile):
    world = hole_under_foothold()
    pl = make_planner(world, profile, Pose(1.6, 1, 0, 1.0), Pose(3.6, 1, 0, 1.0), ["walk"])
    pl._init_endpoints()
    g = pl.graph
    mid = g.insert_vertex(Pose(2.6, 1, 0, 1.0), TAG_WALK)
    assert g.insert_edge(g.start_id, mid, TAG_WALK, EdgeStatus.INDETERMINATE)
    assert g.insert_edge(mid, g.goal_ids[0], TAG_WALK, EdgeStatus.INDETERMINATE)
    path = g.shortest_path(g.start_id, g.goal_ids[0])
    first, second = path.edge_ids
    assert not pl.confirm_path(path)
    assert pl.stats.jobs_spawned == pl.stats.jobs_refuted == 1
    assert pl.queue._next_job_id == 1  # exactly one job was submitted
    assert first not in g.edges
    assert g.edges[second].status == EdgeStatus.INDETERMINATE


def detour_planner(profile, monkeypatch, **cfg):
    """A walk planner whose graph offers a direct edge over a hole that its
    job refutes, and a longer detour on open ground; growth is switched off
    so the two routes are all there is."""
    pl = make_planner(hole_under_foothold(), profile, Pose(1.6, 1, 0, 1.0), Pose(2.6, 1, 0, 1.0), ["walk"], **cfg)
    init = pl._init_endpoints

    def seeded():
        init()
        g = pl.graph
        corners = [g.insert_vertex(Pose(x, 2.5, 0, 1.0), TAG_WALK) for x in (1.6, 2.6)]
        chain = [g.start_id, *corners, g.goal_ids[0]]
        for a, b in zip(chain, chain[1:]):
            assert g.insert_edge(a, b, TAG_WALK, EdgeStatus.INDETERMINATE)
        assert g.insert_edge(g.start_id, g.goal_ids[0], TAG_WALK, EdgeStatus.INDETERMINATE)

    monkeypatch.setattr(pl, "_init_endpoints", seeded)
    monkeypatch.setattr(pl, "grow_holonomic", lambda action, target: [])
    return pl


def test_find_path_takes_the_other_route_in_the_same_cycle(profile, monkeypatch):
    pl = detour_planner(profile, monkeypatch)
    path = pl.find_path()
    assert path is not None
    assert path.cost == pytest.approx(4.0)
    assert pl.stats.cycles == 1 and "CYCLE 2" not in pl.events
    # one job refuted the direct edge; the detour passed its sufficient checks
    assert [ev.split()[-1] for ev in pl.events if ev.startswith("CONFIRM")] == ["refuted"]
    g = pl.graph
    assert g.edge_blocked(TAG_WALK, g.vertices[g.start_id].pose, g.vertices[g.goal_ids[0]].pose)
    assert all(g.edges[eid].status == EdgeStatus.SUFFICIENT for eid in path.edge_ids)


def test_find_path_checks_the_deadline_before_extracting_again(profile, monkeypatch):
    import posgraph.planner as planner_mod

    clock = [0.0]
    monkeypatch.setattr(planner_mod, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    pl = detour_planner(profile, monkeypatch, t_max=10.0)
    settle = pl.graph.settle_edge

    def settle_then_expire(eid, confirmed):
        settle(eid, confirmed)
        if not confirmed:
            clock[0] = 100.0

    monkeypatch.setattr(pl.graph, "settle_edge", settle_then_expire)
    assert pl.find_path() is None
    assert [ev.split()[-1] for ev in pl.events if ev.startswith("CONFIRM")] == ["refuted"]
    assert pl.stats.cycles == 1


def test_confirm_path_upgrades_currently_sufficient_edges(profile):
    world = WorldModel((0, 10), (0, 8), [], [])
    pl = make_planner(world, profile, Pose(1.6, 1, 0, 1.0), Pose(2.6, 1, 0, 1.0), ["walk"])
    pl._init_endpoints()
    g = pl.graph
    g.insert_edge(g.start_id, g.goal_ids[0], TAG_WALK, EdgeStatus.INDETERMINATE)
    path = g.shortest_path(g.start_id, g.goal_ids[0])
    assert pl.confirm_path(path)  # no job: upgraded in place, twin included
    assert pl.stats.jobs_spawned == 0
    assert all(e.status == EdgeStatus.SUFFICIENT for e in g.edges.values())


# -- goal linking and endpoints -------------------------------------------


def test_start_within_goal_radius_links_at_zero_cost(profile):
    world = WorldModel((0, 10), (0, 8), [], [])
    pl = make_planner(world, profile, Pose(1, 1, 0, 1.0), Pose(1.2, 1, 0, 1.0), ["walk"])
    pl._init_endpoints()
    g = pl.graph
    assert g.connected(g.start_id, g.goal_ids[0])
    path = g.shortest_path(g.start_id, g.goal_ids[0])
    assert path.cost == 0.0


def test_input_errors(profile):
    wall = WorldModel((0, 10), (0, 8), [Box((0, 10), (0, 8), (0, 2.2))], [])
    with pytest.raises(PlannerInputError, match="start pose"):
        make_planner(wall, profile, Pose(1, 1, 0, 1.0), Pose(9, 7, 0, 1.0), ["walk"])._init_endpoints()
    open_w = WorldModel((0, 10), (0, 8), [Box((8, 10), (6, 8), (0, 2.2))], [])
    with pytest.raises(PlannerInputError, match="goal 0"):
        make_planner(open_w, profile, Pose(1, 1, 0, 1.0), Pose(9, 7, 0, 1.0), ["walk"])._init_endpoints()
    with pytest.raises(PlannerInputError, match="goal"):
        Planner(open_w, profile, Pose(1, 1, 0, 1.0), [], ["walk"], PlannerConfig())
    # a NaN t_max ran no cycle at all; t_max=True ran a 1 s budget and
    # "5" raised TypeError; seed=None seeded from OS entropy, so repeated
    # solves differed
    for bad in (
        {"workers": 0},
        {"workers": 1.0},
        {"workers": True},
        {"t_max": 0},
        {"t_max": -1.0},
        {"t_max": math.nan},
        {"t_max": True},
        {"t_max": "5"},
        {"t_max": None},
        {"seed": None},
        {"seed": 2.5},
        {"seed": "3"},
        {"seed": False},
    ):
        with pytest.raises(ValueError, match="planner config requires"):
            PlannerConfig(**bad)
    PlannerConfig(t_max=math.inf, seed=-7, workers=4)
    PlannerConfig(t_max=1, seed=2**70)


# -- end to end -----------------------------------------------------------


def test_find_path_detours_around_wall(profile):
    world = WorldModel((0, 6), (0, 4), [Box((2.8, 3.2), (0, 3), (0, 2.2))], [])
    pl = make_planner(world, profile, Pose(1, 2, 0, 1.0), Pose(5, 2, 0, 1.0), ["walk"], t_max=30.0, seed=3)
    path = pl.find_path()
    assert path is not None
    assert path.cost > 4.0  # forced above the wall, longer than the straight line
    ys = [pl.graph.vertices[v].pose.y for v in path.vertex_ids]
    assert max(ys) > 3.0
    assert pl.stats.cycles >= 1 and pl.stats.elapsed > 0


def test_find_path_jump_solution_with_trajectory(profile):
    pl = make_planner(
        gap_world(), profile, Pose(1, 2, 0, 1.0), Pose(6.5, 2, 0, 1.0),
        ["walk", "crawl", "jump"], t_max=30.0,
    )
    path = pl.find_path()
    assert path is not None
    desc = pl.describe_path(path)
    tags = [e["action"] for e in desc["edges"]]
    assert TAG_JUMP in tags
    assert all(
        e["status"] in ("sufficient-confirmed", "job-confirmed") for e in desc["edges"]
    )
    jump_edges = [e for e in desc["edges"] if e["action"] == TAG_JUMP]
    for je in jump_edges:
        assert je["status"] == "job-confirmed"
        traj = je["trajectory"]
        assert traj["speed"] <= profile.v_max
        assert len(traj["points"]) >= 8
        assert traj["points"][0][:2] == [je["from"]["x"], je["from"]["y"]]
        assert traj["points"][-1][2] == pytest.approx(je["to"]["h"])
    json.dumps(desc)  # serializable as-is
    assert desc["cost"] == pytest.approx(path.cost, abs=1e-9)


def test_find_path_deterministic_with_single_worker(profile):
    def run():
        world = WorldModel((0, 6), (0, 4), [Box((2.8, 3.2), (0, 3), (0, 2.2))], [])
        pl = make_planner(world, profile, Pose(1, 2, 0, 1.0), Pose(5, 2, 0, 1.0), ["walk"], t_max=30.0, seed=5)
        path = pl.find_path()
        assert path is not None
        return pl.graph.dump(), pl.event_log(), json.dumps(pl.describe_path(path))

    assert run() == run()


def test_find_path_scopes_condition_memos_to_one_cycle(profile, monkeypatch):
    from posgraph.actions import GaitAction

    cleared = []
    original = GaitAction.clear_memos

    def clear(self):
        cleared.append(self.tag)
        original(self)

    monkeypatch.setattr(GaitAction, "clear_memos", clear)
    world = WorldModel((0, 10), (0, 8), [Box((4.8, 5.2), (0, 6), (0, 2.2))], [])
    pl = make_planner(world, profile, Pose(1, 1, 0, 1.0), Pose(9, 1, 0, 1.0), ["walk", "crawl"])
    assert pl.find_path() is not None
    assert cleared == ["walk", "crawl"] * pl.stats.cycles
