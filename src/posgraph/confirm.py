"""Confirmation jobs: fine-grained gait sweeps and ballistic jump solves.

An indeterminate edge on a candidate path becomes a resumable job. The queue
runs jobs cooperatively in bounded quanta (collision checks are the unit of
work) and requeues unfinished jobs at the back, so short jobs never starve
behind long ones. The planner submits one job at a time and steps it to its
verdict, job-confirmed or refuted, before it looks at the next path edge.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .world import (
    Pose,
    RectFootprint,
    RobotProfile,
    VolumeSpec,
    WorldModel,
    _floor_points_solid,
    _linspace,
    _spheres_hit_boxes,
    _volume_clear_batch,
    floor_solid,
    interpolate_poses,
    sweep_steps,
)

if TYPE_CHECKING:
    from .graph import EdgeRecord, PossibilityGraph

CONFIRMED = "confirmed"
REFUTED = "refuted"


class ConfirmationError(RuntimeError):
    """A confirmation job raised; the message names the job's edge."""


@dataclass(frozen=True)
class EdgeSnapshot:
    """Immutable copy of everything a job needs to judge one edge."""

    edge_id: int
    tag: str
    src: int
    dst: int
    pose_src: Pose
    pose_dst: Pose
    cost: float
    apex: float | None = None

    @classmethod
    def of_edge(cls, graph: PossibilityGraph, e: EdgeRecord) -> EdgeSnapshot:
        """Snapshot a live graph edge with its endpoint poses."""
        return cls(e.id, e.tag, e.src, e.dst, graph.vertices[e.src].pose, graph.vertices[e.dst].pose, e.cost, e.apex)


@dataclass(frozen=True)
class JumpTrajectory:
    """Solved take-off: speed (m/s), elevation (rad), flight time (s), arc samples."""

    speed: float
    elevation: float
    flight_time: float
    points: tuple[tuple[float, float, float], ...]


@dataclass
class Verdict:
    job_id: int
    edge: EdgeSnapshot
    outcome: str
    trajectory: JumpTrajectory | None = None


# ---------------------------------------------------------------------------
# ballistic boundary-value solve


def _takeoff_speed_sq(T: float, d: float, dz: float, g: float) -> float:
    vh = d / T
    vz = dz / T + 0.5 * g * T
    return vh * vh + vz * vz


def solve_jump_bvp(p_launch: Pose, p_land: Pose, profile: RobotProfile) -> JumpTrajectory | None:
    """Pick the standing jump that needs the least take-off effort.

    The jump starts from rest, so take-off speed squared is the proxy for the
    accelerations spent leaving the ground. Candidate trajectories form a
    one-parameter family in flight time T; the launch-elevation window bounds
    T, a 64-point grid plus local refinement finds the minimum, and the result
    stands only if the speed fits under v_max.
    """
    dx = p_land.x - p_launch.x
    dy = p_land.y - p_launch.y
    d = math.hypot(dx, dy)
    if d < 1e-9:
        return None
    dz = p_land.h - p_launch.h
    g = profile.g
    # tan(elevation) = (dz + g T^2 / 2) / d is increasing in T, so the angle
    # window is exactly a T interval
    hi2 = 2.0 * (d * math.tan(profile.jump_angle_max) - dz) / g
    if hi2 <= 0.0:
        return None
    t_hi = math.sqrt(hi2)
    lo2 = 2.0 * (d * math.tan(profile.jump_angle_min) - dz) / g
    t_lo = math.sqrt(lo2) if lo2 > 0.0 else min(1e-4, 0.5 * t_hi)
    if t_lo >= t_hi:
        return None
    ts = _linspace(t_lo, t_hi, 64)
    vv = [_takeoff_speed_sq(t, d, dz, g) for t in ts]
    i = vv.index(min(vv))  # the first minimum
    a = ts[max(0, i - 1)]
    b = ts[min(len(ts) - 1, i + 1)]
    # objective is unimodal in T on this bracket; golden-section to 1e-6
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - (b - a) * invphi
    e = a + (b - a) * invphi
    fc = _takeoff_speed_sq(c, d, dz, g)
    fe = _takeoff_speed_sq(e, d, dz, g)
    while b - a > 1e-6:
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - (b - a) * invphi
            fc = _takeoff_speed_sq(c, d, dz, g)
        else:
            a, c, fc = c, e, fe
            e = a + (b - a) * invphi
            fe = _takeoff_speed_sq(e, d, dz, g)
    T = 0.5 * (a + b)
    v2 = _takeoff_speed_sq(T, d, dz, g)
    speed = math.sqrt(v2)
    if speed > profile.v_max + 1e-12:
        return None
    vh = d / T
    vz0 = dz / T + 0.5 * g * T
    elevation = math.atan2(vz0, vh)
    rise = vz0 * vz0 / (2.0 * g) if vz0 > 0 else 0.0
    arc_len = d + 2.0 * rise
    n = max(8, math.ceil(arc_len / (0.5 * profile.res)))
    ux, uy = dx / d, dy / d
    points = tuple(
        (p_launch.x + ux * (vh * t), p_launch.y + uy * (vh * t), p_launch.h + vz0 * t - 0.5 * g * t * t)
        for t in _linspace(0.0, T, n + 1)
    )
    return JumpTrajectory(speed=speed, elevation=elevation, flight_time=T, points=points)


def landing_supported(landing: Pose, profile: RobotProfile, world: WorldModel) -> bool:
    """The crawl rectangle centred on the touch-down pose, aligned with its
    heading, lies on solid floor.

    It reads the landing pose alone, so the jump's necessary condition runs
    it at insertion and its confirmation job runs it again as its last step.
    """
    return floor_solid(landing, RectFootprint(profile.crawl_len, profile.crawl_wid), world)


# ---------------------------------------------------------------------------
# jobs


class GaitConfirmJob:
    """Fine re-check of a walk/crawl edge: full volume swept at half the
    exploration resolution, plus discrete footholds on solid floor.

    Footholds sit at stride spacing along the edge line with alternating
    lateral offsets of a quarter footprint width.
    """

    def __init__(
        self,
        edge: EdgeSnapshot,
        volume: VolumeSpec,
        stride: float,
        lateral_offset: float,
        res: float,
    ):
        self.edge = edge
        self.volume = volume
        self.job_id = -1
        p0, p1 = edge.pose_src, edge.pose_dst
        # the sufficient-side sweep pads its shapes by half its sample spacing,
        # which proves the continuous sweep clear; sampling the same line more
        # densely with the unpadded shapes therefore cannot refute that pass
        n = 2 * sweep_steps(p0, p1, volume, res)
        self._xs, self._ys, self._ths, _ = interpolate_poses(p0, p1, n)
        fx: list[float] = []
        fy: list[float] = []
        seg = math.hypot(p1.x - p0.x, p1.y - p0.y)
        if seg < 1e-12:
            fx.append(p0.x)
            fy.append(p0.y)
        else:
            ux, uy = (p1.x - p0.x) / seg, (p1.y - p0.y) / seg
            px, py = -uy, ux
            k = 0
            s = 0.0
            while s < seg:
                sign = 1.0 if k % 2 == 0 else -1.0
                fx.append(p0.x + ux * s + px * lateral_offset * sign)
                fy.append(p0.y + uy * s + py * lateral_offset * sign)
                k += 1
                s += stride
            sign = 1.0 if k % 2 == 0 else -1.0
            fx.append(p1.x + px * lateral_offset * sign)
            fy.append(p1.y + py * lateral_offset * sign)
        self._fx = fx
        self._fy = fy
        self._cursor = 0
        self._foot_cursor = 0

    def step(self, budget: int, world: WorldModel) -> Verdict | None:
        """Run up to `budget` collision checks; verdict when finished."""
        while budget > 0:
            if self._cursor < len(self._xs):
                k = min(budget, len(self._xs) - self._cursor)
                sl = slice(self._cursor, self._cursor + k)
                if not _volume_clear_batch(self._xs[sl], self._ys[sl], self._ths[sl], self.volume, world):
                    return Verdict(self.job_id, self.edge, REFUTED)
                self._cursor += k
                budget -= k
            elif self._foot_cursor < len(self._fx):
                k = min(budget, len(self._fx) - self._foot_cursor)
                sl = slice(self._foot_cursor, self._foot_cursor + k)
                if not _floor_points_solid(self._fx[sl], self._fy[sl], world):
                    return Verdict(self.job_id, self.edge, REFUTED)
                self._foot_cursor += k
                budget -= k
            else:
                return Verdict(self.job_id, self.edge, CONFIRMED)
        if self._cursor >= len(self._xs) and self._foot_cursor >= len(self._fx):
            return Verdict(self.job_id, self.edge, CONFIRMED)
        return None


class JumpConfirmJob:
    """Solve the take-off problem for a jump edge, then fly the solved arc
    through the world and check the landing support."""

    # rough work charge for the grid+refine solve, in collision-check units
    SOLVE_COST = 100

    def __init__(self, edge: EdgeSnapshot, profile: RobotProfile):
        self.edge = edge
        self.profile = profile
        self.job_id = -1
        self._solved = False
        self._trajectory: JumpTrajectory | None = None
        self._pts: tuple[tuple[float, float, float], ...] = ()
        self._cursor = 0

    def step(self, budget: int, world: WorldModel) -> Verdict | None:
        prof = self.profile
        while budget > 0:
            if not self._solved:
                if budget < self.SOLVE_COST:
                    return None
                self._trajectory = solve_jump_bvp(self.edge.pose_src, self.edge.pose_dst, prof)
                self._solved = True
                budget -= self.SOLVE_COST
                if self._trajectory is None:
                    return Verdict(self.job_id, self.edge, REFUTED)
                self._pts = self._trajectory.points
            elif self._cursor < len(self._pts):
                k = min(budget, len(self._pts) - self._cursor)
                xs, ys, zs = zip(*self._pts[self._cursor : self._cursor + k])
                if _spheres_hit_boxes(xs, ys, zs, prof.r_jump, world._obs):
                    return Verdict(self.job_id, self.edge, REFUTED)
                self._cursor += k
                budget -= k
            else:
                ok = landing_supported(self.edge.pose_dst, prof, world)
                outcome = CONFIRMED if ok else REFUTED
                return Verdict(self.job_id, self.edge, outcome, self._trajectory if ok else None)
        return None


ConfirmationJob = GaitConfirmJob | JumpConfirmJob


def run_to_verdict(job: ConfirmationJob, world: WorldModel) -> Verdict:
    """Run a gait or jump job to completion synchronously."""
    while True:
        v = job.step(1_000_000_000, world)
        if v is not None:
            return v


confirm_gait_edge = confirm_jump_edge = run_to_verdict


# ---------------------------------------------------------------------------
# scheduler


class ConfirmationQueue:
    """FIFO of resumable jobs plus a verdict outbox.

    step() runs jobs in quanta of at most QUANTUM collision checks on the
    calling thread and sends unfinished jobs to the back of the line: with k
    pending jobs needing q quanta each, no job waits more than k*q quanta.
    Given the submit order, the schedule is deterministic.

    A job that raises makes step() raise a ConfirmationError naming its edge.
    """

    QUANTUM = 1000

    def __init__(self, world: WorldModel):
        self.world = world
        self._pending: deque[ConfirmationJob] = deque()
        self._verdicts: list[Verdict] = []
        self._next_job_id = 0

    def submit(self, job: ConfirmationJob) -> int:
        job.job_id = self._next_job_id
        self._next_job_id += 1
        self._pending.append(job)
        return job.job_id

    def pending_count(self) -> int:
        return len(self._pending)

    def step(self, max_quanta: int) -> int:
        """Run up to max_quanta quanta; returns how many ran."""
        ran = 0
        while ran < max_quanta and self._pending:
            job = self._pending.popleft()
            try:
                verdict = job.step(self.QUANTUM, self.world)
            except Exception as exc:
                raise ConfirmationError(
                    f"confirmation job {job.job_id} for {job.edge.tag} edge {job.edge.edge_id} raised {exc!r}"
                ) from exc
            if verdict is None:
                self._pending.append(job)
            else:
                self._verdicts.append(verdict)
            ran += 1
        return ran

    def drain_verdicts(self) -> list[Verdict]:
        """Collect and clear the verdicts so far."""
        out = self._verdicts
        self._verdicts = []
        return out
