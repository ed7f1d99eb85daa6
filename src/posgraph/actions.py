"""Action definitions: walking, crawling, and the standing long jump.

Each action carries a lax necessary condition (cheap, failure proves
impossibility) and a conservative sufficient condition (expensive, success
proves feasibility). The gap between them is where confirmation jobs live.
The jump is nonholonomic: it cannot be grown incrementally, has no sufficient
condition, and always defers to its boundary-value solver for the final word.
"""
from __future__ import annotations

import functools
import math
import random

from . import confirm
from . import world as world_mod
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
    sweep_open,
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


@functools.lru_cache(maxsize=16)
def _transition_volume(length: float, width: float, top: float) -> VolumeSpec:
    return VolumeSpec(RectFootprint(length, width), (0.0, top))


def transition_feasible(pose: Pose, profile: RobotProfile, world: WorldModel) -> bool:
    """Vertical posture change at a fixed planar pose.

    Standing up or kneeling down sweeps the crawl rectangle through the full
    standing height, so the check is direction-independent: that swept volume
    must be clear and the whole rectangle supported. Only the planar pose
    (x, y, theta) is read.
    """
    vol = _transition_volume(profile.crawl_len, profile.crawl_wid, profile.body_top_walk)
    return volume_clear(pose, vol, world) and floor_solid(pose, vol.footprint, world)


class GaitAction:
    """A holonomic gait (walk or crawl) tied to one posture band. Each
    proposal is one call that returns a pose on the manifold: `step_towards`
    for a chain step of `Planner.connect`, `transition_from` for a posture
    transition."""

    def __init__(self, tag: str, profile: RobotProfile, world: WorldModel):
        if tag not in (TAG_WALK, TAG_CRAWL):
            raise ValueError(f"gait tag must be walk or crawl, got {tag!r}")
        self.tag = tag
        self.profile = profile
        self.world = world
        self.queue = TransitionQueue()
        p = profile
        # edge sweeps sample every <= res along the motion; padding the swept
        # shapes by half that spacing (m) turns a sampled pass into a proof for
        # the continuous sweep, so no finer re-check can contradict it
        m = 0.5 * p.res
        if tag == TAG_WALK:
            self.nominal_h = p.h_walk
            self.band_half = p.delta_walk
            top = p.body_top_walk
            self.sufficient_footprint = DiscFootprint(p.r_walk)
            self.sweep_footprint = DiscFootprint(p.r_walk + m)
            self._foothold_offset = 0.5 * p.r_walk
        else:
            self.nominal_h = p.h_crawl
            self.band_half = p.delta_crawl
            top = p.body_top_crawl
            self.sufficient_footprint = RectFootprint(p.crawl_len, p.crawl_wid)
            self.sweep_footprint = RectFootprint(p.crawl_len + 2.0 * m, p.crawl_wid + 2.0 * m)
            self._foothold_offset = 0.25 * p.crawl_wid
        # thin probe used by the necessary condition: a sliver of the body
        # column, pulled in from the floor and crown so marginal poses stay lax
        self.necessary_volume = VolumeSpec(DiscFootprint(p.r_necessary), (0.05, top - 0.1))
        self.sufficient_volume = VolumeSpec(self.sufficient_footprint, (0.0, top))
        self.sweep_volume = VolumeSpec(self.sweep_footprint, (0.0, top))
        self._necessary_vertex_memo: dict[Pose, bool] = {}
        self._sufficient_vertex_memo: dict[Pose, bool] = {}
        self._necessary_edge_memo: dict[tuple[Pose, Pose], bool] = {}
        self._sufficient_edge_memo: dict[tuple[Pose, Pose], bool] = {}

    def clear_memos(self):
        """Forget memoized condition results. The world is static, so they
        never go stale; clearing only bounds their memory."""
        self._necessary_vertex_memo.clear()
        self._sufficient_vertex_memo.clear()
        self._necessary_edge_memo.clear()
        self._sufficient_edge_memo.clear()

    # -- conditions -------------------------------------------------------
    # Every condition is memoized on the exact (frozen) poses, so every
    # caller shares one result per input. Each sufficient condition implies
    # its necessary one: the sufficient volume holds the thin probe, its
    # footprint covers the centre's floor point and its height test lies
    # inside the band, and the padded sweep proves the continuous sweep of a
    # body that holds the probe at every necessary sample. So each check is
    # settled where it is cheapest:
    # - `necessary_vertex` answers True from the sufficient-vertex memo
    #   before it runs its kernel, and `Planner._steer_clear` asks a
    #   candidate only the sufficient condition;
    # - `admits_edge`, the gait edge test of `Planner.connect` and of the
    #   graph (`graph_checks`), asks `sufficient_edge` first, whose grade the
    #   planner needs anyway, and the necessary edge only if that fails; a
    #   chain step that passes `sufficient_edge` skips the necessary checks;
    # - `sufficient_edge` first tries the open-step accept (`sweep_open`):
    #   on open floor one broad-phase test settles the padded sweep, its
    #   floor support and both end vertices, without sampling;
    # - `swept_clear`, the necessary sweep, accepts from its broad phase when
    #   no box of the band is near.
    # tests/test_actions.py and tests/test_world.py check these implications
    # near the bounds, gap edges, box faces and grid-cell borders.

    def necessary_vertex(self, pose: Pose) -> bool:
        ok = self._necessary_vertex_memo.get(pose)
        if ok is None:
            ok = self._necessary_vertex_memo[pose] = self._sufficient_vertex_memo.get(pose) or (
                not abs(pose.h - self.nominal_h) > self.band_half
                and volume_clear(pose, self.necessary_volume, self.world)
                and floor_point_solid(pose.x, pose.y, self.world)
            )
        return ok

    def _nominal(self, pose: Pose) -> bool:
        return not abs(pose.h - self.nominal_h) > 1e-9

    def sufficient_vertex(self, pose: Pose) -> bool:
        ok = self._sufficient_vertex_memo.get(pose)
        if ok is None:
            ok = self._sufficient_vertex_memo[pose] = (
                self._nominal(pose)
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
        key = (p0, p1)
        ok = self._sufficient_edge_memo.get(key)
        if ok is None:
            ok = self._sufficient_edge_memo[key] = self._sufficient_edge(p0, p1)
        return ok

    def admits_edge(self, p0: Pose, p1: Pose) -> bool:
        """The necessary edge condition, settled by the sufficient one when
        that passes (which implies it)."""
        return self.sufficient_edge(p0, p1) or self.necessary_edge(p0, p1)

    def _sufficient_edge(self, p0: Pose, p1: Pose) -> bool:
        if sweep_open(p0, p1, self.sweep_volume, self.world):
            # the padded body is clear and supported at both ends, so each
            # end is sufficient exactly when its h is nominal
            memo = self._sufficient_vertex_memo
            memo[p0] = ok0 = self._nominal(p0)
            memo[p1] = ok1 = self._nominal(p1)
            return ok0 and ok1
        if not self.sufficient_vertex(p0) or not self.sufficient_vertex(p1):
            return False
        n = sweep_steps(p0, p1, self.sufficient_volume, self.profile.res)
        xs, ys, ths = interpolate_poses(p0, p1, n)
        # looked up on the module: perfbench/tracer.py patches this name on world and confirm only
        if not world_mod._volume_clear_batch(xs, ys, ths, self.sweep_volume, self.world):
            return False
        return _floor_solid_batch(xs, ys, ths, self.sweep_footprint, self.world)

    # -- motion ops -------------------------------------------------------

    def step_towards(self, p0: Pose, target: Pose) -> Pose:
        """One step of at most STEP straight toward the target's planar
        position, on this gait's manifold: the heading turns to the motion
        direction (kept when the target is within 1e-12), the position is
        clamped to the world bounds and h is the nominal height."""
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
        w = self.world
        return Pose(
            min(max(nx, w.bounds_x[0]), w.bounds_x[1]),
            min(max(ny, w.bounds_y[0]), w.bounds_y[1]),
            th,
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
        return confirm.GaitConfirmJob(
            snapshot,
            volume=self.sufficient_volume,
            stride=self.profile.stride,
            lateral_offset=self._foothold_offset,
            res=self.profile.res,
        )


class JumpAction:
    """Standing long jump: launches from the walk manifold, lands on crawl.

    It owns no manifold, so it takes no posture transitions, and no geometric
    test short of the solver is trusted to prove a jump, so it has no
    sufficient condition: its edges stay indeterminate until a job confirms
    them. `jump_from` proposes a jump off a walk vertex and `jump_onto` one
    onto a crawl vertex, each as its (launch, landing) poses in one call.
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

    def jump_from(self, v: Pose, target: Pose) -> tuple[Pose, Pose]:
        """(launch, landing) of a jump off v toward the target. The launch
        stands at v at walk height, facing the target; the landing lies along
        that heading at the target's planar distance, capped at the jump
        range, at crawl height. A target within 1e-12 keeps v's heading."""
        dx = target.x - v.x
        dy = target.y - v.y
        d = math.hypot(dx, dy)
        launch = Pose(v.x, v.y, v.theta if d < 1e-12 else math.atan2(dy, dx), self.profile.h_walk)
        span = min(d, self.profile.jump_range_max)
        th = launch.theta
        return launch, Pose(v.x + span * math.cos(th), v.y + span * math.sin(th), th, self.profile.h_crawl)

    def jump_onto(self, v: Pose, target: Pose) -> tuple[Pose, Pose]:
        """(launch, landing) of a jump onto v from the target's side. The
        landing stands at v at crawl height, facing away from the target; the
        launch lies toward the target at its planar distance, capped at the
        jump range, at walk height and facing v. A target within 1e-12 keeps
        v's heading and puts both ends at v."""
        dx = target.x - v.x
        dy = target.y - v.y
        d = math.hypot(dx, dy)
        if d < 1e-12:
            return Pose(v.x, v.y, v.theta, self.profile.h_walk), Pose(v.x, v.y, v.theta, self.profile.h_crawl)
        landing = Pose(v.x, v.y, math.atan2(v.y - target.y, v.x - target.x), self.profile.h_crawl)
        span = min(d, self.profile.jump_range_max)
        lx = v.x + dx / d * span
        ly = v.y + dy / d * span
        return Pose(lx, ly, math.atan2(v.y - ly, v.x - lx), self.profile.h_walk), landing

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


def graph_checks(actions: list[Action]) -> dict[str, TagChecks]:
    """Wire per-tag necessary conditions for graph insertion re-asserts: the
    same memoized gait and jump tests the planner ran before inserting, so a
    re-assert of an unchanged pose is a memo hit. A transition runs
    `transition_feasible` again."""
    checks: dict[str, TagChecks] = {}
    by_tag = {a.tag: a for a in actions}
    for tag in (TAG_WALK, TAG_CRAWL):
        a = by_tag.get(tag)
        if a is not None:
            checks[tag] = TagChecks(vertex=a.necessary_vertex, edge=a.admits_edge)
    jump = by_tag.get(TAG_JUMP)
    if jump is not None:
        checks[TAG_JUMP] = TagChecks(vertex=None, edge=jump.necessary_edge)
    profile, world = actions[0].profile, actions[0].world
    checks[TAG_TRANSITION] = TagChecks(
        vertex=None,
        edge=lambda p0, p1: math.hypot(p1.x - p0.x, p1.y - p0.y) < 1e-6 and transition_feasible(p0, profile, world),
    )
    return checks
