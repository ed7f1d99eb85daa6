"""Action definitions: walking, crawling, and the standing long jump.

Each action carries a lax necessary condition (cheap, failure proves
impossibility) and a conservative sufficient condition (expensive, success
proves feasibility). The gap between them is where confirmation jobs live.
The jump is nonholonomic: it cannot be grown incrementally, has no sufficient
condition, and always defers to its boundary-value solver for the final word.
"""
from __future__ import annotations

import math
import random

from . import confirm
from .graph import TAG_CRAWL, TAG_JUMP, TAG_TRANSITION, TAG_WALK, TagChecks
from .world import (
    DiscFootprint,
    Pose,
    RectFootprint,
    RobotProfile,
    VolumeSpec,
    WorldModel,
    _floor_solid_batch,
    floor_point_solid,
    floor_solid,
    interpolate_poses,
    parabola_clear,
    sweep_steps,
    swept_clear,
    volume_clear,
)

# planar length of one gait extension step, and the most h changes in one step
STEP = 0.3


class TransitionQueue:
    """Vertices offered to an action for posture transitions.

    Every vertex id is admitted at most once over the queue's lifetime, so a
    busy broadcast loop cannot flood an action with duplicates.
    """

    def __init__(self):
        self._items: list[int] = []
        self._seen: set[int] = set()

    def add(self, vid: int):
        if vid not in self._seen:
            self._seen.add(vid)
            self._items.append(vid)

    def pop_random(self, rng: random.Random) -> int:
        i = rng.randrange(len(self._items))
        self._items[i], self._items[-1] = self._items[-1], self._items[i]
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)


def transition_feasible(pose: Pose, profile: RobotProfile, world: WorldModel) -> bool:
    """Vertical posture change at a fixed planar pose.

    Standing up or kneeling down sweeps the crawl rectangle through the full
    standing height, so the check is direction-independent: that swept volume
    must be clear and the whole rectangle supported.
    """
    vol = VolumeSpec(
        RectFootprint(profile.crawl_len, profile.crawl_wid), (0.0, profile.body_top_walk)
    )
    probe = Pose(pose.x, pose.y, pose.theta, 0.0)
    if not volume_clear(probe, vol, world):
        return False
    return floor_solid(probe, RectFootprint(profile.crawl_len, profile.crawl_wid), world)


class GaitAction:
    """A holonomic gait (walk or crawl) tied to one posture band."""

    def __init__(self, tag: str, profile: RobotProfile, world: WorldModel):
        if tag not in (TAG_WALK, TAG_CRAWL):
            raise ValueError(f"gait tag must be walk or crawl, got {tag!r}")
        self.tag = tag
        self.profile = profile
        self.world = world
        self.queue = TransitionQueue()
        p = profile
        if tag == TAG_WALK:
            self.nominal_h = p.h_walk
            self.band_half = p.delta_walk
            top = p.body_top_walk
            self.sufficient_footprint = DiscFootprint(p.r_walk)
        else:
            self.nominal_h = p.h_crawl
            self.band_half = p.delta_crawl
            top = p.body_top_crawl
            self.sufficient_footprint = RectFootprint(p.crawl_len, p.crawl_wid)
        # thin probe used by the necessary condition: a sliver of the body
        # column, pulled in from the floor and crown so marginal poses stay lax
        self.necessary_volume = VolumeSpec(DiscFootprint(p.r_necessary), (0.05, top - 0.1))
        self.sufficient_volume = VolumeSpec(self.sufficient_footprint, (0.0, top))
        # edge sweeps sample every <= res along the motion; padding the swept
        # shapes by half that spacing turns a sampled pass into a proof for the
        # continuous sweep, so no finer re-check can contradict it
        m = 0.5 * p.res
        if tag == TAG_WALK:
            sweep_fp = DiscFootprint(p.r_walk + m)
        else:
            sweep_fp = RectFootprint(p.crawl_len + 2.0 * m, p.crawl_wid + 2.0 * m)
        self.sweep_footprint = sweep_fp
        self.sweep_volume = VolumeSpec(sweep_fp, (0.0, top))
        self._necessary_vertex_memo: dict[Pose, bool] = {}
        self._sufficient_vertex_memo: dict[Pose, bool] = {}
        self._necessary_edge_memo: dict[tuple[Pose, Pose], bool] = {}

    def clear_memos(self):
        """Forget memoized condition results. The world is static, so they
        never go stale; clearing only bounds their memory."""
        self._necessary_vertex_memo.clear()
        self._sufficient_vertex_memo.clear()
        self._necessary_edge_memo.clear()

    # -- conditions -------------------------------------------------------
    # The vertex conditions and the necessary edge condition are memoized on
    # the exact (frozen) poses, so every caller shares one result per input.

    def necessary_vertex(self, pose: Pose) -> bool:
        ok = self._necessary_vertex_memo.get(pose)
        if ok is None:
            ok = self._necessary_vertex_memo[pose] = (
                not abs(pose.h - self.nominal_h) > self.band_half
                and volume_clear(pose, self.necessary_volume, self.world)
                and floor_point_solid(pose.x, pose.y, self.world)
            )
        return ok

    def sufficient_vertex(self, pose: Pose) -> bool:
        ok = self._sufficient_vertex_memo.get(pose)
        if ok is None:
            ok = self._sufficient_vertex_memo[pose] = (
                not abs(pose.h - self.nominal_h) > 1e-9
                and volume_clear(pose, self.sufficient_volume, self.world)
                and floor_solid(pose, self.sufficient_footprint, self.world)
            )
        return ok

    def necessary_edge(self, p0: Pose, p1: Pose) -> bool:
        key = (p0, p1)
        ok = self._necessary_edge_memo.get(key)
        if ok is None:
            ok = self._necessary_edge_memo[key] = (
                self.necessary_vertex(p0)
                and self.necessary_vertex(p1)
                and swept_clear(p0, p1, self.necessary_volume, self.world, self.profile.res)
            )
        return ok

    def sufficient_edge(self, p0: Pose, p1: Pose) -> bool:
        if not self.sufficient_vertex(p0) or not self.sufficient_vertex(p1):
            return False
        n = sweep_steps(p0, p1, self.sufficient_volume, self.profile.res)
        xs, ys, ths, _ = interpolate_poses(p0, p1, n)
        # imported per call: perfbench/tracer.py patches this name on world and confirm only
        from .world import _volume_clear_batch

        if not _volume_clear_batch(xs, ys, ths, self.sweep_volume, self.world):
            return False
        return _floor_solid_batch(xs, ys, ths, self.sweep_footprint, self.world)

    # -- motion ops -------------------------------------------------------

    def extend_towards(self, p0: Pose, target: Pose) -> Pose:
        """One bounded step straight toward the target's planar position.

        The heading turns to the motion direction and h slides toward the
        gait's nominal height.
        """
        dx = target.x - p0.x
        dy = target.y - p0.y
        d = math.hypot(dx, dy)
        if d < 1e-12:
            nx, ny, th = p0.x, p0.y, p0.theta
        elif d <= STEP:
            nx, ny = target.x, target.y
            th = math.atan2(dy, dx)
        else:
            nx = p0.x + dx / d * STEP
            ny = p0.y + dy / d * STEP
            th = math.atan2(dy, dx)
        dh = self.nominal_h - p0.h
        nh = self.nominal_h if abs(dh) <= STEP else p0.h + math.copysign(STEP, dh)
        return Pose(nx, ny, th, nh)

    def project(self, pose: Pose) -> Pose:
        """Snap onto the gait manifold: h to nominal, position clamped to bounds."""
        w = self.world
        return Pose(
            min(max(pose.x, w.bounds_x[0]), w.bounds_x[1]),
            min(max(pose.y, w.bounds_y[0]), w.bounds_y[1]),
            pose.theta,
            self.nominal_h,
        )

    def transition_from(self, pose: Pose) -> Pose | None:
        """Try to step onto this gait's manifold from a foreign vertex, keeping
        the planar pose fixed. Returns the destination pose or None."""
        cand = Pose(pose.x, pose.y, pose.theta, self.nominal_h)
        if not transition_feasible(cand, self.profile, self.world):
            return None
        if not self.necessary_vertex(cand):
            return None
        return cand

    def spawn_confirmation_job(self, snapshot: confirm.EdgeSnapshot) -> confirm.GaitConfirmJob:
        if isinstance(self.sufficient_footprint, DiscFootprint):
            lateral = 0.5 * self.sufficient_footprint.radius
        else:
            lateral = 0.25 * self.sufficient_footprint.width
        return confirm.GaitConfirmJob(
            snapshot,
            volume=self.sufficient_volume,
            stride=self.profile.stride,
            lateral_offset=lateral,
            res=self.profile.res,
        )


class JumpAction:
    """Standing long jump: launches from the walk manifold, lands on crawl.

    It owns no manifold, so it takes no posture transitions, and no geometric
    test short of the solver is trusted to prove a jump, so the sufficient
    condition is constantly false.
    """

    tag = TAG_JUMP

    def __init__(self, profile: RobotProfile, world: WorldModel, walk: GaitAction, crawl: GaitAction):
        self.profile = profile
        self.world = world
        self._walk = walk
        self._crawl = crawl

    def clear_memos(self):
        """The endpoint checks are the gaits' memoized conditions; clear those,
        since the gaits may not be enabled actions themselves."""
        self._walk.clear_memos()
        self._crawl.clear_memos()

    def edge_apex(self, p_launch: Pose, p_land: Pose) -> float | None:
        """The jump's necessary condition: the first apex rise from the
        profile grid giving a clear parabola, or None.

        The span must be non-zero and within range, the launch must pass the
        walk and the landing the crawl necessary condition, and the crawl
        rectangle at touch-down must be supported (`confirm.landing_supported`,
        the confirmation job's last test) before any parabola is probed.
        """
        d = math.hypot(p_land.x - p_launch.x, p_land.y - p_launch.y)
        if d < 1e-9 or d > self.profile.jump_range_max + 1e-9:
            return None
        if not self._walk.necessary_vertex(p_launch) or not self._crawl.necessary_vertex(p_land):
            return None
        if not confirm.landing_supported(p_land, self.profile, self.world):
            return None
        for apex in self.profile.apex_grid:
            if parabola_clear(p_launch, p_land, apex, self.profile.r_jump, self.world, self.profile.res):
                return apex
        return None

    def necessary_edge(self, p0: Pose, p1: Pose) -> bool:
        return self.edge_apex(p0, p1) is not None

    def sufficient_edge(self, p0: Pose, p1: Pose) -> bool:
        return False

    def extend_towards(self, p0: Pose, target: Pose) -> Pose:
        """Hop along p0's heading, covering the planar distance to the target
        up to the furthest allowable jump."""
        d = math.hypot(target.x - p0.x, target.y - p0.y)
        span = min(d, self.profile.jump_range_max)
        return Pose(
            p0.x + span * math.cos(p0.theta),
            p0.y + span * math.sin(p0.theta),
            p0.theta,
            self.profile.h_crawl,
        )

    def reverse_extend(self, v0: Pose, target: Pose) -> Pose:
        """Launch pose that would land at v0, placed toward the target and at
        most a jump range away, heading back at v0."""
        dx = target.x - v0.x
        dy = target.y - v0.y
        d = math.hypot(dx, dy)
        span = min(d, self.profile.jump_range_max)
        if d < 1e-12:
            return Pose(v0.x, v0.y, v0.theta, self.profile.h_walk)
        lx = v0.x + dx / d * span
        ly = v0.y + dy / d * span
        th = math.atan2(v0.y - ly, v0.x - lx)
        return Pose(lx, ly, th, self.profile.h_walk)

    def find_launch_point(self, v: Pose, target: Pose) -> Pose:
        """Launch at v's position, facing the target, at walk height."""
        dx = target.x - v.x
        dy = target.y - v.y
        th = v.theta if math.hypot(dx, dy) < 1e-12 else math.atan2(dy, dx)
        return Pose(v.x, v.y, th, self.profile.h_walk)

    def find_landing_point(self, v: Pose, target: Pose) -> Pose:
        """Landing at v's position facing away from the target, so the jump
        arrives at v from the target's direction."""
        dx = v.x - target.x
        dy = v.y - target.y
        th = v.theta if math.hypot(dx, dy) < 1e-12 else math.atan2(dy, dx)
        return Pose(v.x, v.y, th, self.profile.h_crawl)

    def spawn_confirmation_job(self, snapshot: confirm.EdgeSnapshot) -> confirm.JumpConfirmJob:
        return confirm.JumpConfirmJob(snapshot, self.profile)


Action = GaitAction | JumpAction

ACTION_ORDER = (TAG_WALK, TAG_CRAWL, TAG_JUMP)


def build_actions(
    names: list[str] | tuple[str, ...],
    profile: RobotProfile,
    world: WorldModel,
) -> list[Action]:
    """Instantiate enabled actions in canonical order (walk, crawl, jump).

    The jump needs both gait manifolds for its endpoint checks, so those gait
    definitions are built even when only the jump itself is enabled.
    """
    wanted = set(names)
    unknown = wanted - set(ACTION_ORDER)
    if unknown:
        raise ValueError(f"unknown actions: {sorted(unknown)}")
    if not wanted:
        raise ValueError("at least one action must be enabled")
    walk = GaitAction(TAG_WALK, profile, world)
    crawl = GaitAction(TAG_CRAWL, profile, world)
    out: list[Action] = []
    for name in ACTION_ORDER:
        if name not in wanted:
            continue
        if name == TAG_WALK:
            out.append(walk)
        elif name == TAG_CRAWL:
            out.append(crawl)
        else:
            out.append(JumpAction(profile, world, walk, crawl))
    return out


def graph_checks(actions: list[Action], profile: RobotProfile, world: WorldModel) -> dict[str, TagChecks]:
    """Wire per-tag necessary conditions for graph insertion re-asserts."""
    checks: dict[str, TagChecks] = {}
    by_tag = {a.tag: a for a in actions}
    for tag in (TAG_WALK, TAG_CRAWL):
        a = by_tag.get(tag)
        if a is not None:
            checks[tag] = TagChecks(vertex=a.necessary_vertex, edge=a.necessary_edge)
    jump = by_tag.get(TAG_JUMP)
    if jump is not None:
        checks[TAG_JUMP] = TagChecks(vertex=None, edge=jump.necessary_edge)
    checks[TAG_TRANSITION] = TagChecks(
        vertex=None,
        edge=lambda p0, p1: (
            math.hypot(p1.x - p0.x, p1.y - p0.y) < 1e-6
            and transition_feasible(p0, profile, world)
        ),
    )
    return checks
