"""Confirmation layer: jump solver vs closed form and brute force, one-step
jobs, and queue scheduling."""
import math
import random
import time

import numpy as np
import pytest

from posgraph import (
    Box,
    ConfirmationQueue,
    GapRect,
    Pose,
    RobotProfile,
    WorldModel,
    build_actions,
    solve_jump_bvp,
)
from posgraph.confirm import (
    CONFIRMED,
    REFUTED,
    ConfirmationError,
    EdgeSnapshot,
    JumpConfirmJob,
    Verdict,
    confirm_gait_edge,
    confirm_jump_edge,
)
from posgraph.graph import EdgeStatus, PossibilityGraph

GRAVITY = 9.81


# -- oracles --------------------------------------------------------------


def min_effort_closed_form(d, dz, g=GRAVITY):
    """Frozen minimum take-off speed for a point-mass jump.

    v^2 = g * (R + dz) with R = sqrt(d^2 + dz^2); the optimal elevation
    satisfies tan(phi) = (dz + R) / d. Valid when that angle is interior to
    the allowed window.
    """
    R = math.hypot(d, dz)
    return math.sqrt(g * (R + dz)), math.atan2(dz + R, d)


def brute_force_grid(d, dz, profile, n=100_000, t_cap=2.5):
    """Dense flight-time scan; returns min speed over the angle window or None."""
    ts = np.linspace(1e-4, t_cap, n)
    vz = dz / ts + 0.5 * profile.g * ts
    phi = np.arctan2(vz, d / ts)
    mask = (phi >= profile.jump_angle_min) & (phi <= profile.jump_angle_max)
    if not mask.any():
        return None
    v = np.sqrt((d / ts[mask]) ** 2 + vz[mask] ** 2)
    best = float(v.min())
    return best if best <= profile.v_max else None


# -- solver ---------------------------------------------------------------


def test_level_ground_jump_is_sqrt_gd_at_45_degrees(profile):
    for d in (0.5, 1.0, 1.3):
        traj = solve_jump_bvp(Pose(0, 0, 0, 0.3), Pose(d, 0, 0, 0.3), profile)
        assert traj is not None
        assert traj.speed == pytest.approx(math.sqrt(GRAVITY * d), abs=1e-4)
        assert traj.elevation == pytest.approx(math.pi / 4, abs=1e-4)


def test_two_metre_level_jump_exceeds_speed_limit(profile):
    # sqrt(9.81 * 2) = 4.429 m/s > v_max = 4
    assert solve_jump_bvp(Pose(0, 0, 0, 1.0), Pose(2, 0, 0, 1.0), profile) is None


def test_solver_matches_closed_form_on_interior_optima(profile):
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        d = rng.uniform(0.3, 1.6)
        dz = rng.uniform(-0.8, 0.8)
        v_star, phi_star = min_effort_closed_form(d, dz)
        # only pairs whose unconstrained optimum is safely inside the window
        if not profile.jump_angle_min + 0.05 < phi_star < profile.jump_angle_max - 0.05:
            continue
        if v_star > profile.v_max - 1e-3:
            continue
        traj = solve_jump_bvp(Pose(1, 1, 0.2, 1.2), Pose(1 + d, 1, 0.2, 1.2 + dz), profile)
        assert traj is not None, (d, dz)
        assert traj.speed == pytest.approx(v_star, abs=1e-4)
        assert traj.elevation == pytest.approx(phi_star, abs=1e-4)
        checked += 1
    assert checked > 250


def test_solver_matches_brute_force_grid(profile):
    rng = random.Random(12)
    checked = 0
    for _ in range(300):
        d = rng.uniform(0.15, 2.2)
        dz = rng.uniform(-1.0, 1.0)
        brute = brute_force_grid(d, dz, profile)
        if brute is not None and abs(brute - profile.v_max) < 1e-5:
            continue  # grid quantization can flip feasibility at the speed cap
        traj = solve_jump_bvp(Pose(0, 0, 0, 1.0), Pose(d, 0, 0, 1.0 + dz), profile)
        if brute is None:
            assert traj is None, (d, dz)
        else:
            assert traj is not None, (d, dz)
            assert traj.speed == pytest.approx(brute, abs=1e-4)
        checked += 1
    assert checked > 280


@pytest.mark.parametrize(
    "d, dz, edge",
    [
        (1.0, -2.0, "jump_angle_min"),  # free optimum at 13.3 deg
        (0.8, -1.5, "jump_angle_min"),  # free optimum at 14.0 deg
        (0.1, 0.3, "jump_angle_max"),  # free optimum at 80.8 deg
    ],
)
def test_free_optimum_outside_window_lands_on_its_edge(profile, d, dz, edge):
    _, phi_star = min_effort_closed_form(d, dz)
    assert not profile.jump_angle_min <= phi_star <= profile.jump_angle_max
    traj = solve_jump_bvp(Pose(0, 0, 0, 2.5), Pose(d, 0, 0, 2.5 + dz), profile)
    assert traj is not None and traj.speed <= profile.v_max
    assert abs(traj.elevation - getattr(profile, edge)) <= 1e-12


def test_empty_angle_window_agrees_infeasible(profile):
    # dz > d * tan(angle_max) leaves no admissible flight time
    d, dz = 0.3, 1.9
    assert d * math.tan(profile.jump_angle_max) < dz
    assert brute_force_grid(d, dz, profile) is None
    assert solve_jump_bvp(Pose(0, 0, 0, 0.3), Pose(d, 0, 0, 0.3 + dz), profile) is None


def test_zero_distance_rejected(profile):
    assert solve_jump_bvp(Pose(1, 1, 0, 1.0), Pose(1, 1, 0, 0.3), profile) is None


def test_trajectory_physics(profile):
    launch = Pose(2.0, 3.0, 0.5, 1.0)
    land = Pose(3.1, 3.6, 0.5, 0.3)
    traj = solve_jump_bvp(launch, land, profile)
    assert traj is not None
    xs, ys, zs = zip(*traj.points)
    assert (xs[0], ys[0], zs[0]) == (launch.x, launch.y, launch.h)
    assert xs[-1] == pytest.approx(land.x, abs=1e-9)
    assert ys[-1] == pytest.approx(land.y, abs=1e-9)
    assert zs[-1] == pytest.approx(land.h, abs=1e-9)
    d = math.hypot(land.x - launch.x, land.y - launch.y)
    # velocity components reproduce the plane distance and climb
    vh = traj.speed * math.cos(traj.elevation)
    vz = traj.speed * math.sin(traj.elevation)
    assert vh * traj.flight_time == pytest.approx(d, abs=1e-6)
    assert vz * traj.flight_time - 0.5 * GRAVITY * traj.flight_time**2 == pytest.approx(
        land.h - launch.h, abs=1e-6
    )
    apex = launch.h + vz * vz / (2 * GRAVITY)
    assert max(zs) == pytest.approx(apex, abs=5e-3)  # sampled arc
    assert max(zs) <= apex + 1e-9
    # samples sit on the same parabola
    for x, y, z in traj.points[:: max(1, len(traj.points) // 7)]:
        s = math.hypot(x - launch.x, y - launch.y)
        t = s / vh
        assert z == pytest.approx(launch.h + vz * t - 0.5 * GRAVITY * t * t, abs=1e-9)


# -- gait jobs ------------------------------------------------------------


def snapshot(tag, p0, p1, apex=None):
    return EdgeSnapshot(edge_id=0, tag=tag, src=0, dst=1, pose_src=p0, pose_dst=p1, cost=1.0, apex=apex)


def gait_job(world, profile, tag, p0, p1):
    action = next(a for a in build_actions([tag], profile, world) if a.tag == tag)
    return action.spawn_confirmation_job(snapshot(tag, p0, p1))


def test_gait_job_confirms_clear_corridor(open_world, profile):
    job = gait_job(open_world, profile, "walk", Pose(1, 4, 0, 1.0), Pose(8, 4, 0, 1.0))
    v = confirm_gait_edge(job, open_world)
    assert v.outcome == CONFIRMED
    assert v.edge.tag == "walk"


def test_snapshot_of_graph_edge_copies_endpoint_poses():
    g = PossibilityGraph()
    p0, p1 = Pose(1, 2, 0.5, 1.0), Pose(3, 2, 0.0, 0.3)
    a, b = g.insert_vertex(p0, "walk"), g.insert_vertex(p1, "crawl")
    (eid,) = g.insert_edge(a, b, "jump", EdgeStatus.INDETERMINATE, apex=0.4)
    e = g.edges[eid]
    assert EdgeSnapshot.of_edge(g, e) == EdgeSnapshot(eid, "jump", a, b, p0, p1, e.cost, 0.4)


def test_gait_job_refutes_blocked_corridor(profile):
    w = WorldModel((0, 10), (0, 8), [Box((4.4, 4.6), (0, 8), (0, 2.2))], [])
    job = gait_job(w, profile, "walk", Pose(1, 4, 0, 1.0), Pose(8, 4, 0, 1.0))
    assert confirm_gait_edge(job, w).outcome == REFUTED


def test_gait_job_refutes_missing_footholds(profile):
    # corridor volume is clear; the floor under it is not
    w = WorldModel((0, 10), (0, 8), [], [GapRect((4.0, 5.0), (0, 8))])
    job = gait_job(w, profile, "walk", Pose(1, 4, 0, 1.0), Pose(8, 4, 0, 1.0))
    assert confirm_gait_edge(job, w).outcome == REFUTED


def test_long_gait_job_settles_in_one_queue_step(profile):
    # a 30 m walk sweeps over a thousand samples; the job still needs one step
    w = WorldModel((0, 40), (0, 8), [], [])
    q = ConfirmationQueue(w)
    job = gait_job(w, profile, "walk", Pose(5, 4, 0, 1.0), Pose(35, 4, 0, 1.0))
    assert len(job._xs) > 1000
    q.submit(job)
    assert q.step() == 1
    assert q.pending_count() == 0
    (v,) = q.drain_verdicts()
    assert v.outcome == CONFIRMED


def test_crawl_job_passes_under_bar(profile):
    w = WorldModel((0, 10), (0, 8), [Box((4.4, 4.6), (0, 8), (0.7, 1.9))], [])
    crawl = gait_job(w, profile, "crawl", Pose(1, 4, 0, 0.3), Pose(8, 4, 0, 0.3))
    assert confirm_gait_edge(crawl, w).outcome == CONFIRMED
    walk = gait_job(w, profile, "walk", Pose(1, 4, 0, 1.0), Pose(8, 4, 0, 1.0))
    assert confirm_gait_edge(walk, w).outcome == REFUTED


# -- jump jobs ------------------------------------------------------------


def jump_snapshot(x0, x1, y=2.0, h0=1.0, h1=0.3, apex=0.4):
    return snapshot("jump", Pose(x0, y, 0.0, h0), Pose(x1, y, 0.0, h1), apex=apex)


def test_jump_job_confirms_gap_crossing(profile):
    w = WorldModel((0, 10), (0, 4), [], [GapRect((2.3, 2.9), (0, 4))])
    v = confirm_jump_edge(JumpConfirmJob(jump_snapshot(2.05, 3.35), profile), w)
    assert v.outcome == CONFIRMED
    assert v.trajectory is not None
    assert v.trajectory.speed <= profile.v_max


def test_jump_job_refutes_overhanging_landing(profile):
    # rect [2.85, 3.75] leans over the gap edge at 2.9
    w = WorldModel((0, 10), (0, 4), [], [GapRect((2.3, 2.9), (0, 4))])
    v = confirm_jump_edge(JumpConfirmJob(jump_snapshot(2.05, 3.30), profile), w)
    assert v.outcome == REFUTED
    assert v.trajectory is None


def test_jump_job_refutes_blocked_arc(profile):
    w = WorldModel((0, 10), (0, 4), [Box((2.6, 2.7), (0, 4), (0.0, 2.2))], [])
    v = confirm_jump_edge(JumpConfirmJob(jump_snapshot(2.05, 3.35), profile), w)
    assert v.outcome == REFUTED


def test_jump_job_refutes_unreachable_landing(open_world, profile):
    v = confirm_jump_edge(JumpConfirmJob(jump_snapshot(2.0, 4.0, h0=1.0, h1=1.0), profile), open_world)
    assert v.outcome == REFUTED


# -- queue ----------------------------------------------------------------


class FakeJob:
    """Needs `steps` step calls to reach its verdict; ignores the world."""

    def __init__(self, steps, log, name):
        self.job_id = -1
        self.remaining = steps
        self.log = log
        self.name = name

    def step(self, world):
        self.remaining -= 1
        if self.remaining <= 0:
            self.log.append(self.name)
            return Verdict(self.job_id, snapshot("walk", Pose(0, 0, 0, 1), Pose(1, 0, 0, 1)), CONFIRMED)
        return None


def test_round_robin_finishes_short_jobs_before_long(open_world):
    q = ConfirmationQueue(open_world)
    log = []
    q.submit(FakeJob(10, log, "long"))
    for i in range(10):
        q.submit(FakeJob(1, log, f"short{i}"))
    while q.pending_count():
        q.step()
    assert log == [f"short{i}" for i in range(10)] + ["long"]
    verdicts = q.drain_verdicts()
    assert len(verdicts) == 11
    assert q.drain_verdicts() == []


def test_submit_assigns_increasing_job_ids(open_world):
    q = ConfirmationQueue(open_world)
    ids = [q.submit(FakeJob(1, [], "x")) for _ in range(4)]
    assert ids == [0, 1, 2, 3]


def test_queue_step_completes_real_jobs(profile):
    w = WorldModel((0, 10), (0, 8), [Box((4.4, 4.6), (0, 8), (0, 2.2))], [])
    q = ConfirmationQueue(w)
    q.submit(gait_job(w, profile, "walk", Pose(1, 2, 0, 1.0), Pose(8, 2, 0, 1.0)))
    q.submit(gait_job(w, profile, "walk", Pose(1, 6, 0, 1.0), Pose(3, 6, 0, 1.0)))
    while q.pending_count():
        q.step()
    got = q.drain_verdicts()
    assert len(got) == 2
    outcomes = {v.edge.pose_src.y: v.outcome for v in got}
    assert outcomes == {2.0: REFUTED, 6.0: CONFIRMED}


class RaisingJob:
    def __init__(self, edge_id):
        self.job_id = -1
        self.edge = EdgeSnapshot(edge_id, "jump", 0, 1, Pose(0, 0, 0, 1.0), Pose(1, 0, 0, 0.3), 1.0)

    def step(self, world):
        raise ZeroDivisionError("boom")


def test_raising_job_fails_the_cooperative_step(open_world):
    q = ConfirmationQueue(open_world)
    q.submit(RaisingJob(7))
    with pytest.raises(ConfirmationError, match="jump edge 7 raised ZeroDivisionError") as info:
        q.step()
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_solve_fails_fast_when_a_job_raises(monkeypatch):
    from posgraph import Planner, PlannerConfig, builtin_scenario

    def boom(self, world):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(JumpConfirmJob, "step", boom)
    sc = builtin_scenario("double_jump")
    planner = Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, PlannerConfig(t_max=60.0, seed=0))
    t0 = time.monotonic()
    with pytest.raises(ConfirmationError, match=r"jump edge \d+ raised RuntimeError\('solver crashed'\)"):
        planner.find_path()
    assert time.monotonic() - t0 < 30.0
