"""Action layer: condition nesting, motion primitives, transitions, wiring."""
import math
import random

import pytest

from posgraph import BUILTIN_NAMES, Box, GapRect, Planner, PlannerConfig, Pose, WorldModel, build_actions
from posgraph import confirm
from posgraph.actions import (
    GaitAction,
    JumpAction,
    TransitionQueue,
    graph_checks,
    transition_feasible,
)
from posgraph.confirm import REFUTED, EdgeSnapshot, JumpConfirmJob, run_to_verdict
from posgraph.graph import TAG_JUMP
from posgraph.scenarios import builtin_scenario

from conftest import make_random_world, random_pose


def gait(world, profile, tag):
    return GaitAction(tag, profile, world)


# -- necessary vs sufficient ----------------------------------------------


def test_posture_bands_gate_necessary(open_world, profile):
    walk = gait(open_world, profile, "walk")
    crawl = gait(open_world, profile, "crawl")
    assert walk.necessary_vertex(Pose(5, 4, 0, 1.0))
    assert walk.necessary_vertex(Pose(5, 4, 0, 1.15))
    assert not walk.necessary_vertex(Pose(5, 4, 0, 1.2))
    assert crawl.necessary_vertex(Pose(5, 4, 0, 0.44))
    assert not crawl.necessary_vertex(Pose(5, 4, 0, 0.5))


def test_sufficient_requires_exact_nominal_height(open_world, profile):
    walk = gait(open_world, profile, "walk")
    assert walk.sufficient_vertex(Pose(5, 4, 0, 1.0))
    assert not walk.sufficient_vertex(Pose(5, 4, 0, 1.0 + 1e-6))


def test_probe_volume_nested_inside_sufficient_volume(open_world, profile):
    for tag in ("walk", "crawl"):
        a = gait(open_world, profile, tag)
        nz = a.necessary_volume.z_band
        sz = a.sufficient_volume.z_band
        assert sz[0] <= nz[0] and nz[1] <= sz[1]
        assert a.necessary_volume.footprint.radius < profile.r_walk


def test_sufficient_implies_necessary_fuzz(profile):
    rng = random.Random(77)
    hits = {"walk": 0, "crawl": 0}
    edge_hits = 0
    for _ in range(6):
        world = make_random_world(rng, with_gaps=True)
        actions = {a.tag: a for a in build_actions(["walk", "crawl"], profile, world)}
        for tag, a in actions.items():
            for _ in range(250):
                p = random_pose(rng, world)
                if rng.random() < 0.5:
                    p = Pose(p.x, p.y, p.theta, a.nominal_h)
                if a.sufficient_vertex(p):
                    hits[tag] += 1
                    assert a.necessary_vertex(p), (tag, p)
            for _ in range(120):
                p0 = random_pose(rng, world)
                p0 = Pose(p0.x, p0.y, p0.theta, a.nominal_h)
                p1 = Pose(
                    min(max(p0.x + rng.uniform(-0.8, 0.8), 0.0), 10.0),
                    min(max(p0.y + rng.uniform(-0.8, 0.8), 0.0), 8.0),
                    rng.uniform(-math.pi, math.pi),
                    a.nominal_h,
                )
                if a.sufficient_edge(p0, p1):
                    edge_hits += 1
                    assert a.necessary_edge(p0, p1), (tag, p0, p1)
    assert hits["walk"] > 80 and hits["crawl"] > 80
    assert edge_hits > 100


def test_jump_sufficient_is_constantly_false(open_world, profile):
    jump = build_actions(["jump"], profile, open_world)[0]
    assert not jump.sufficient_edge(Pose(2, 4, 0, 1.0), Pose(3, 4, 0, 0.3))


# -- motion primitives ----------------------------------------------------


def test_extend_towards_caps_step_and_turns(open_world, profile):
    walk = gait(open_world, profile, "walk")
    p = walk.extend_towards(Pose(1, 1, 2.0, 1.0), Pose(5, 1, 0, 1.0))
    assert (p.x, p.y) == (pytest.approx(1.3), pytest.approx(1.0))
    assert p.theta == pytest.approx(0.0)
    near = walk.extend_towards(Pose(1, 1, 2.0, 1.0), Pose(1.2, 1.1, 0, 1.0))
    assert (near.x, near.y) == (1.2, 1.1)


def test_extend_towards_slides_height_towards_nominal(open_world, profile):
    walk = gait(open_world, profile, "walk")
    p = walk.extend_towards(Pose(1, 1, 0, 0.3), Pose(5, 1, 0, 1.0))
    assert p.h == pytest.approx(0.6)
    p = walk.extend_towards(Pose(1, 1, 0, 0.9), Pose(5, 1, 0, 1.0))
    assert p.h == pytest.approx(1.0)


def test_project_clamps_bounds_and_height(open_world, profile):
    crawl = gait(open_world, profile, "crawl")
    p = crawl.project(Pose(-1.0, 9.5, 0.8, 0.55))
    assert (p.x, p.y, p.theta, p.h) == (0.0, 8.0, 0.8, profile.h_crawl)


# -- transitions ----------------------------------------------------------


def test_transition_feasible_cases(profile):
    open_world = WorldModel((0, 10), (0, 8), [], [])
    assert transition_feasible(Pose(5, 4, 0, 0.3), profile, open_world)
    barred = WorldModel((0, 10), (0, 8), [Box((4, 5), (0, 8), (0.7, 1.9))], [])
    # standing sweeps the column through the bar even though crawling fits
    assert not transition_feasible(Pose(4.5, 4, 0, 0.3), profile, barred)
    holed = WorldModel((0, 10), (0, 8), [], [GapRect((4.0, 5.0), (0, 8))])
    assert not transition_feasible(Pose(3.8, 4, 0.0, 0.3), profile, holed)  # rect overhangs
    assert transition_feasible(Pose(3.5, 4, 0.0, 0.3), profile, holed)  # rect ends at 3.95


def test_transition_from_switches_manifold_in_place(open_world, profile):
    walk = gait(open_world, profile, "walk")
    dest = walk.transition_from(Pose(5, 4, 0.7, 0.3))
    assert dest == Pose(5, 4, 0.7, 1.0)
    barred = WorldModel((0, 10), (0, 8), [Box((4, 5), (0, 8), (0.7, 1.9))], [])
    assert gait(barred, profile, "walk").transition_from(Pose(4.5, 4, 0, 0.3)) is None


def test_jump_never_accepts_transitions(open_world, profile):
    pl = Planner(open_world, profile, Pose(1, 1, 0, 1.0), [Pose(9, 7, 0, 1.0)], ["walk", "crawl", "jump"], PlannerConfig())
    pl._init_endpoints()
    walk, crawl, jump = pl.actions
    # start and goal are offered to both gaits; the jump owns no manifold,
    # so it keeps no transition queue
    assert len(walk.queue) == len(crawl.queue) == 2
    assert not hasattr(jump, "queue") and not hasattr(jump, "transition_from")


def test_transition_queue_admits_each_vertex_once():
    q = TransitionQueue()
    for vid in (3, 7, 3, 9, 7):
        q.add(vid)
    assert len(q) == 3
    rng = random.Random(0)
    popped = {q.pop_random(rng) for _ in range(3)}
    assert popped == {3, 7, 9}
    q.add(3)  # lifetime dedup: popping does not re-admit
    assert len(q) == 0


# -- jump geometry --------------------------------------------------------


def test_find_launch_point_faces_target(open_world, profile):
    jump = build_actions(["jump"], profile, open_world)[0]
    p = jump.find_launch_point(Pose(2, 2, 1.0, 1.0), Pose(4, 4, 0, 0.3))
    assert (p.x, p.y, p.h) == (2, 2, profile.h_walk)
    assert p.theta == pytest.approx(math.pi / 4)


def test_find_landing_point_faces_away_from_target(open_world, profile):
    jump = build_actions(["jump"], profile, open_world)[0]
    p = jump.find_landing_point(Pose(4, 2, 1.0, 0.3), Pose(2, 2, 0, 1.0))
    assert (p.x, p.y, p.h) == (4, 2, profile.h_crawl)
    assert p.theta == pytest.approx(0.0)


def test_jump_extend_spans_at_most_range(open_world, profile):
    jump = build_actions(["jump"], profile, open_world)[0]
    far = jump.extend_towards(Pose(2, 2, 0.0, 1.0), Pose(9, 2, 0, 1.0))
    assert (far.x, far.y, far.h) == (pytest.approx(3.5), pytest.approx(2.0), profile.h_crawl)
    near = jump.extend_towards(Pose(2, 2, 0.0, 1.0), Pose(2.8, 2, 0, 1.0))
    assert far.theta == near.theta == 0.0
    assert near.x == pytest.approx(2.8)


def test_reverse_extend_places_launch_beyond_landing(open_world, profile):
    jump = build_actions(["jump"], profile, open_world)[0]
    launch = jump.reverse_extend(Pose(4, 2, 0.3, 0.3), Pose(1, 2, 0, 1.0))
    assert (launch.x, launch.y, launch.h) == (pytest.approx(2.5), pytest.approx(2.0), profile.h_walk)
    # heading points back at the landing vertex
    assert launch.theta == pytest.approx(0.0)


def test_edge_apex_escalates_over_low_block(profile):
    block = Box((4.1, 4.4), (0.0, 6.0), (0.0, 0.62))
    world = WorldModel((0, 10), (0, 6), [block], [])
    jump = build_actions(["jump"], profile, world)[0]
    apex = jump.edge_apex(Pose(3.8, 3.0, 0, 1.0), Pose(5.0, 3.0, 0, 0.3))
    assert apex is not None and apex > profile.apex_grid[0]
    assert jump.necessary_edge(Pose(3.8, 3.0, 0, 1.0), Pose(5.0, 3.0, 0, 0.3))


def test_edge_apex_rejects_bad_geometry(open_world, profile):
    jump = build_actions(["jump"], profile, open_world)[0]
    # beyond range
    assert jump.edge_apex(Pose(2, 2, 0, 1.0), Pose(3.6, 2, 0, 0.3)) is None
    # zero length
    assert jump.edge_apex(Pose(2, 2, 0, 1.0), Pose(2, 2, 0, 0.3)) is None
    barred = WorldModel((0, 10), (0, 6), [Box((4, 5), (0, 6), (0.7, 1.9))], [])
    bjump = build_actions(["jump"], profile, barred)[0]
    # launch point fails the walk manifold under the bar
    assert bjump.edge_apex(Pose(4.5, 3, 0, 1.0), Pose(5.7, 3, 0, 0.3)) is None
    # arc through the bar fails even with clean endpoints
    assert bjump.edge_apex(Pose(3.8, 3, 0, 1.0), Pose(5.3, 3, 0, 0.3)) is None
    gapped = WorldModel((0, 10), (0, 4), [], [GapRect((2.3, 2.9), (0, 4))])
    gjump = build_actions(["jump"], profile, gapped)[0]
    assert gjump.edge_apex(Pose(2.05, 2, 0, 1.0), Pose(3.35, 2, 0, 0.3)) is not None
    # the landing centre stands on floor, but the crawl rectangle [2.85, 3.75]
    # leans over the gap edge at 2.9
    assert gjump.edge_apex(Pose(2.05, 2, 0, 1.0), Pose(3.30, 2, 0, 0.3)) is None


# -- landing support: soundness of the jump's necessary condition -----------


def record_landing_rejections(monkeypatch) -> dict:
    """Patch JumpAction.edge_apex and confirm.landing_supported so that every
    (launch, landing) pair that edge_apex turns away on landing support is
    recorded, keyed by the pair and the world, with its profile and world."""
    rejected = {}
    judging = []
    edge_apex = JumpAction.edge_apex
    landing_supported = confirm.landing_supported

    def judged_edge_apex(self, p_launch, p_land):
        judging.append((p_launch, p_land))
        try:
            return edge_apex(self, p_launch, p_land)
        finally:
            judging.pop()

    def recorded_landing_supported(landing, profile, world):
        ok = landing_supported(landing, profile, world)
        if not ok and judging:
            launch, land = judging[-1]
            rejected[(launch, land, id(world))] = (launch, land, profile, world)
        return ok

    monkeypatch.setattr(JumpAction, "edge_apex", judged_edge_apex)
    monkeypatch.setattr(confirm, "landing_supported", recorded_landing_supported)
    return rejected


def assert_jobs_refute(rejected: dict):
    for launch, landing, profile, world in rejected.values():
        job = JumpConfirmJob(EdgeSnapshot(0, TAG_JUMP, 0, 1, launch, landing, 0.0), profile)
        assert run_to_verdict(job, world).outcome == REFUTED, (launch, landing)


def test_landing_rejections_on_builtins_are_refuted_by_their_jobs(monkeypatch):
    rejected = record_landing_rejections(monkeypatch)
    for name in BUILTIN_NAMES:
        sc = builtin_scenario(name)
        for seed in range(10):
            config = PlannerConfig(t_max=60.0, seed=seed)
            assert Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, config).find_path()
    assert rejected
    monkeypatch.undo()
    assert_jobs_refute(rejected)


def test_landing_rejections_on_random_worlds_are_refuted_by_their_jobs(profile, monkeypatch):
    rng = random.Random(17)
    rejected = record_landing_rejections(monkeypatch)
    for _ in range(30):
        world = make_random_world(rng, with_gaps=True)
        jump = build_actions(["jump"], profile, world)[0]
        for _ in range(60):
            # land near a gap edge where there is one, as jumps over gaps do
            if world.gaps and rng.random() < 0.7:
                gap = rng.choice(world.gaps)
                x = rng.uniform(gap.x[0] - 0.6, gap.x[1] + 0.6)
                y = rng.uniform(gap.y[0] - 0.6, gap.y[1] + 0.6)
            else:
                x, y = rng.uniform(0.0, 10.0), rng.uniform(0.0, 8.0)
            heading = rng.uniform(-math.pi, math.pi)
            span = rng.uniform(0.2, profile.jump_range_max)
            landing = Pose(x, y, heading, profile.h_crawl)
            launch = Pose(x - span * math.cos(heading), y - span * math.sin(heading), heading, profile.h_walk)
            jump.edge_apex(launch, landing)
    assert len(rejected) >= 20
    monkeypatch.undo()
    assert_jobs_refute(rejected)


# -- assembly -------------------------------------------------------------


def test_build_actions_canonical_order(open_world, profile):
    tags = [a.tag for a in build_actions(["jump", "walk"], profile, open_world)]
    assert tags == ["walk", "jump"]
    tags = [a.tag for a in build_actions(("crawl", "jump", "walk"), profile, open_world)]
    assert tags == ["walk", "crawl", "jump"]


def test_build_actions_validation(open_world, profile):
    with pytest.raises(ValueError, match="unknown actions"):
        build_actions(["walk", "swim"], profile, open_world)
    with pytest.raises(ValueError, match="at least one action"):
        build_actions([], profile, open_world)


def test_jump_only_build_still_checks_gait_endpoints(open_world, profile):
    jump = build_actions(["jump"], profile, open_world)[0]
    assert isinstance(jump, JumpAction)
    assert jump.edge_apex(Pose(2, 4, 0, 1.0), Pose(3.2, 4, 0, 0.3)) is not None


def test_graph_checks_wiring(open_world, profile):
    actions = build_actions(["walk", "crawl", "jump"], profile, open_world)
    checks = graph_checks(actions, profile, open_world)
    assert set(checks) == {"walk", "crawl", "jump", "transition"}
    assert checks["jump"].vertex is None
    assert checks["walk"].vertex(Pose(5, 4, 0, 1.0))
    trans = checks["transition"].edge
    assert trans(Pose(2, 2, 0, 1.0), Pose(2, 2, 0, 0.3))
    assert not trans(Pose(2, 2, 0, 1.0), Pose(2.5, 2, 0, 0.3))  # moved planar pose
    barred = WorldModel((0, 10), (0, 8), [Box((4, 5), (0, 8), (0.7, 1.9))], [])
    bchecks = graph_checks(build_actions(["walk"], profile, barred), profile, barred)
    assert "crawl" not in bchecks
    assert not bchecks["transition"].edge(Pose(4.5, 4, 0, 1.0), Pose(4.5, 4, 0, 0.3))


# -- memoized conditions ----------------------------------------------------


def test_repeated_conditions_run_their_kernels_once(open_world, profile, monkeypatch):
    from posgraph import actions as actions_mod

    calls = {}

    def count(name):
        original = getattr(actions_mod, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(actions_mod, name, counted)

    for name in ("volume_clear", "floor_point_solid", "floor_solid", "swept_clear"):
        count(name)
    walk = gait(open_world, profile, "walk")
    p0, p1 = Pose(2.0, 2.0, 0.0, 1.0), Pose(2.3, 2.0, 0.0, 1.0)
    for _ in range(3):
        assert walk.necessary_vertex(p0)
        assert walk.necessary_vertex(Pose(2.0, 2.0, 0.0, 1.0))  # equal pose, new object
    assert calls == {"volume_clear": 1, "floor_point_solid": 1}
    for _ in range(3):
        assert walk.necessary_edge(p0, p1)
    assert calls == {"volume_clear": 2, "floor_point_solid": 2, "swept_clear": 1}
    assert walk.necessary_edge(p1, p0)  # the reverse sweep is a new input
    assert calls["swept_clear"] == 2
    for _ in range(3):
        assert walk.sufficient_vertex(p0)
    assert calls["volume_clear"] == 3 and calls["floor_solid"] == 1
    walk.clear_memos()
    assert walk.necessary_vertex(p0) and walk.sufficient_vertex(p0)
    assert calls["volume_clear"] == 5 and calls["floor_point_solid"] == 3 and calls["floor_solid"] == 2


def test_jump_clears_the_memos_of_its_gaits(open_world, profile):
    walk, crawl, jump = build_actions(["walk", "crawl", "jump"], profile, open_world)
    assert jump.edge_apex(Pose(2, 2, 0, 1.0), Pose(3, 2, 0, 0.3)) is not None
    assert walk._necessary_vertex_memo and crawl._necessary_vertex_memo
    jump.clear_memos()
    assert not walk._necessary_vertex_memo and not crawl._necessary_vertex_memo
