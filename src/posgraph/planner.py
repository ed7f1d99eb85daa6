"""Search loop that interlaces per-action growth with lazy path confirmation.

Each cycle lets every gait perform queued posture transitions, grows every
action toward one random target and broadcasts new vertices to the gaits.
Then it extracts the shortest start-to-goal path and confirms it edge by
edge; the first refuted edge drops the path, and the next shortest one is
extracted in the same cycle until one is proven or start and goal are cut
apart.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .actions import STEP, Action, GaitAction, JumpAction, build_actions, graph_checks
from .confirm import CONFIRMED, ConfirmationQueue, EdgeSnapshot, JumpTrajectory, Verdict
from .graph import (
    EdgeStatus,
    HEADING_FREE_WEIGHTS,
    PathResult,
    PossibilityGraph,
    TAG_CRAWL,
    TAG_JUMP,
    TAG_TRANSITION,
    TAG_WALK,
    VERTEX_TAGS,
    quantize_pose,
)
from .world import (
    Pose,
    RobotProfile,
    WorldModel,
    gap_within,
    pose_distance,
    sample_pose,
    segment_crosses_gap,
)


class PlannerInputError(ValueError):
    """Start, goal or world rejected before any search happened."""


# queued foreign vertices an action tries to transition from per cycle
MAX_TRANSITIONS_PER_CYCLE = 5
# planar distance within which a new vertex is tied to a same-manifold goal
GOAL_RADIUS = 0.3
# share of growth targets that are a goal pose instead of a uniform sample
GOAL_BIAS = 0.1


def _plain_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class PlannerConfig:
    """The solve budget: wall-clock limit and random seed.

    `t_max` is in seconds and may be `math.inf`. It is checked where a cycle
    starts and between candidate paths, so a solve never stops partway
    through a cycle's growth. The same `seed` gives the same graph, event
    log and path. `workers` has no effect, since confirmation jobs run on the
    planner's own thread; it is kept, and still checked to be >= 1, so that
    existing callers keep working. The tuning values are module constants:
    `STEP` in `actions`, the surcharges in `graph`, the metric weights in
    `world` and the per-cycle transition cap, goal radius and goal bias here.
    """

    t_max: float = 60.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        # written as `not x > 0` so that NaN fails too
        if isinstance(self.t_max, bool) or not isinstance(self.t_max, (int, float)) or not self.t_max > 0:
            raise ValueError(f"planner config requires a number t_max > 0, got {self.t_max!r}")
        if not _plain_int(self.seed):
            raise ValueError(f"planner config requires an int seed, got {self.seed!r}")
        if not _plain_int(self.workers) or self.workers < 1:
            raise ValueError(f"planner config requires an int workers >= 1, got {self.workers!r}")


@dataclass
class PlannerStats:
    cycles: int = 0
    elapsed: float = 0.0
    jobs_spawned: int = 0
    jobs_confirmed: int = 0
    jobs_refuted: int = 0


class Planner:
    """One search instance: owns the graph, the actions, and the job queue."""

    def __init__(
        self,
        world: WorldModel,
        profile: RobotProfile,
        start: Pose,
        goals: list[Pose],
        action_names: list[str] | tuple[str, ...],
        config: PlannerConfig | None = None,
    ):
        self.world = world
        self.profile = profile
        self.config = config or PlannerConfig()
        self.start_pose = start
        self.goal_poses = list(goals)
        if not self.goal_poses:
            raise PlannerInputError("at least one goal pose is required")
        self.actions: list[Action] = build_actions(action_names, profile, world)
        self.actions_by_tag = {a.tag: a for a in self.actions}
        self.graph = PossibilityGraph(checks=graph_checks(self.actions))
        self.queue = ConfirmationQueue(world)
        self.rng = random.Random(self.config.seed)
        self.stats = PlannerStats()
        self.trajectories: dict[int, JumpTrajectory] = {}
        self.events: list[str] = []
        # per vertex id: whether a jump seeded at that vertex can cross a gap
        self._near_gap: dict[int, bool] = {}
        # connect lays at most one world diagonal of gait steps, plus slack
        diagonal = math.hypot(world.bounds_x[1] - world.bounds_x[0], world.bounds_y[1] - world.bounds_y[0])
        steps = diagonal / STEP
        if not math.isfinite(steps):
            raise PlannerInputError(f"world diagonal over step {STEP} is not a finite number of steps")
        self._chain_limit = math.ceil(steps) + 4
        # vertex dedup and edge keys quantize positions to integers; a bound
        # whose quantized value overflows would stop the first insertion
        for axis, bounds in (("x", world.bounds_x), ("y", world.bounds_y)):
            for end, v in zip(("low", "high"), bounds):
                try:
                    quantize_pose(Pose(v, v))
                except OverflowError:
                    raise PlannerInputError(f"world bound {axis} {end} {v!r} is too large to quantize to a grid of 1 cm") from None

    # -- setup ------------------------------------------------------------

    def _manifold_tag(self, pose: Pose) -> str | None:
        for tag in (TAG_WALK, TAG_CRAWL):
            a = self.actions_by_tag.get(tag)
            if a is not None and a.necessary_vertex(pose):
                return tag
        return None

    def _init_endpoints(self):
        tag = self._manifold_tag(self.start_pose)
        if tag is None:
            raise PlannerInputError(f"start pose fails every enabled gait condition: {self.start_pose}")
        start_id = self.graph.insert_vertex(self.start_pose, tag)
        goal_ids = []
        for i, g in enumerate(self.goal_poses):
            gtag = self._manifold_tag(g)
            if gtag is None:
                raise PlannerInputError(f"goal {i} fails every enabled gait condition: {g}")
            goal_ids.append(self.graph.insert_vertex(g, gtag))
        self.graph.set_endpoints(start_id, goal_ids)
        for vid in [start_id] + goal_ids:
            self._broadcast(None, [vid])
        self._link_goals([start_id])

    # -- cycle pieces -----------------------------------------------------

    def _broadcast(self, source: Action | None, new_ids: list[int]):
        """Offer new vertices to every other gait for posture transitions."""
        for a in self.actions:
            if a is source or not isinstance(a, GaitAction):
                continue
            for vid in new_ids:
                a.queue.add(vid)

    def perform_transitions(self, action: GaitAction) -> list[int]:
        """Pop up to the per-cycle cap of queued foreign vertices and try to
        transition from each onto this gait's manifold."""
        new_ids: list[int] = []
        cap = min(MAX_TRANSITIONS_PER_CYCLE, len(action.queue))
        for _ in range(cap):
            vid = action.queue.pop_random(self.rng)
            pose = self.graph.vertices[vid].pose
            # a vertex on this manifold passed this check when it was
            # inserted, so every destination below is a vertex other than vid
            if action.necessary_vertex(pose):
                continue
            cand = action.transition_from(pose)
            if cand is None:
                continue
            before = self.graph._next_vid
            dest = self.graph.insert_vertex(cand, action.tag)
            if not self.graph.insert_edge(vid, dest, TAG_TRANSITION, EdgeStatus.SUFFICIENT):
                continue
            if dest >= before:
                new_ids.append(dest)
        return new_ids

    def connect(self, action: GaitAction, from_id: int, target: Pose) -> list[int]:
        """Step repeatedly from a vertex straight toward the target.

        Dedup merges and already-live edges are walked through, so a chain can
        thread previously explored space; it stops at the first failed
        condition, on a refuted edge key, or at the target.
        """
        g = self.graph
        new_ids: list[int] = []
        last_id = from_id
        for _ in range(self._chain_limit):
            last_pose = g.vertices[last_id].pose
            vp = action.step_towards(last_pose, target)
            if pose_distance(last_pose, vp, HEADING_FREE_WEIGHTS) < 1e-9:
                break
            # a sufficient step needs no steering and passes every necessary
            # check; on open floor one broad-phase test settles it
            if not action.sufficient_edge(last_pose, vp):
                vp = self._steer_clear(action, vp)
                # the necessary edge condition includes vp's vertex condition
                if not action.admits_edge(last_pose, vp):
                    break
            before = g._next_vid
            vid = g.insert_vertex(vp, action.tag)
            stored = g.vertices[vid].pose
            if vid == last_id:
                break
            if not g.edge_live_between(action.tag, last_id, vid):
                if not g.insert_edge(last_id, vid, action.tag, self._gait_status(action.tag, last_id, vid)):
                    break
                if vid >= before:
                    new_ids.append(vid)
            last_id = vid
            if math.hypot(stored.x - target.x, stored.y - target.y) < 1e-9:
                break
        return new_ids

    def _steer_clear(self, action: GaitAction, vp: Pose) -> Pose:
        """Nudge a chain vertex sideways into sufficient-condition clearance.

        Vertices planted right at the necessary margin breed indeterminate
        wall-hugging edges that confirmation then has to refute one by one;
        a small lateral shift toward open space avoids most of them.
        """
        if action.sufficient_vertex(vp):
            return vp
        px = -math.sin(vp.theta)
        py = math.cos(vp.theta)
        for mag in (0.08, 0.16, 0.24):
            for sgn in (1.0, -1.0):
                cand = Pose(vp.x + sgn * mag * px, vp.y + sgn * mag * py, vp.theta, vp.h)
                # the sufficient condition implies the necessary one
                if action.sufficient_vertex(cand):
                    return cand
        return vp

    def grow_holonomic(self, action: GaitAction, target: Pose) -> list[int]:
        """Two-sided growth: extend the nearest component toward the target,
        then pull the next eligible component toward whatever was just built."""
        # entries are read lazily and describe the graph before the first
        # connect, so the second is found only after it
        entries = self.graph.subgraph_closest(action.tag, target)
        nearest = next(entries, None)
        if nearest is None:
            return []
        first = nearest[1]
        new_ids = self.connect(action, first, target)
        retarget = self.graph.vertices[new_ids[-1]].pose if new_ids else target
        goal_set = self.graph.goal_reaching_set()
        for _, vid in entries:
            if first not in goal_set or vid not in goal_set:
                new_ids += self.connect(action, vid, retarget)
                break
        return new_ids

    def grow_nonholonomic(self, action: JumpAction, target: Pose) -> list[int]:
        """Seed jump edges off existing gait vertices, nearest to the target
        first. Walk vertices that cannot yet reach a goal offer launches;
        crawl vertices not yet reachable from the start offer landings. After
        a success the vertices behind it (for the same target) are masked off.

        A jump is only proposed when the ground segment under the flight is
        interrupted by a gap; over continuous floor the gaits already cover
        the same motion at lower cost. That segment starts at the vertex and
        spans at most `jump_range_max`, so only vertices within that range of
        a gap are candidates.
        """
        if not self.world.gaps:
            return []
        g = self.graph
        near_gap = self._near_gap
        cands = []
        for tag in VERTEX_TAGS:
            for vid in g._tag_vertices[tag]:
                bit = near_gap.get(vid)
                if bit is None:
                    p = g.vertices[vid].pose
                    # the margin covers rounding in the far end and the slab test
                    reach = action.profile.jump_range_max + 1e-6 * (1.0 + abs(p.x) + abs(p.y))
                    bit = near_gap[vid] = gap_within(self.world, p.x, p.y, reach)
                if bit:
                    cands.append(vid)
        cands.sort(key=lambda vid: (pose_distance(g.vertices[vid].pose, target), vid))
        masked: set[int] = set()
        # snapshots: the live reach sets grow as this loop inserts edges
        start_set, goal_set = frozenset(g.start_reachable_set()), frozenset(g.goal_reaching_set())
        new_ids: list[int] = []
        for vid in cands:
            if vid in masked:
                continue
            v = g.vertices[vid]
            launching = v.tag == TAG_WALK
            if vid in (goal_set if launching else start_set):
                continue
            launch, landing = (action.jump_from if launching else action.jump_onto)(v.pose, target)
            if not segment_crosses_gap(self.world, launch.x, launch.y, landing.x, landing.y):
                continue
            apex = action.edge_apex(launch, landing)
            if apex is None or g.edge_blocked(TAG_JUMP, launch, landing):
                continue
            # the near end sits at vid, on vid's manifold; the far end is
            # planted across the gap on the other one
            near, far, far_tag = (launch, landing, TAG_CRAWL) if launching else (landing, launch, TAG_WALK)
            before = g._next_vid
            near_id = g.insert_vertex(near, v.tag)
            if near_id != vid:
                if not g.insert_edge(vid, near_id, v.tag, self._gait_status(v.tag, vid, near_id)):
                    continue
                if near_id >= before:
                    new_ids.append(near_id)
            before = g._next_vid
            far_id = g.insert_vertex(far, far_tag)
            launch_id, landing_id = (near_id, far_id) if launching else (far_id, near_id)
            if not g.insert_edge(launch_id, landing_id, TAG_JUMP, EdgeStatus.INDETERMINATE, apex=apex):
                continue
            if far_id >= before:
                new_ids.append(far_id)
                self._snap_link(far_id)
            # mask what lies behind the near end: the vertices that reach the
            # launch, or that the landing reaches
            masked |= g._bfs([near_id], g._in if launching else g._out, not launching)
        return new_ids

    def _snap_link(self, vid: int):
        """Tie a freshly planted jump endpoint into nearby same-manifold
        vertices so it does not float as its own component. An endpoint on a
        gait that is not enabled joins through a posture transition instead."""
        g = self.graph
        v = g.vertices[vid]
        if v.tag not in self.actions_by_tag:
            return
        for nb in g.nearest_vertices(v.tag, v.pose):
            if nb == vid:
                continue
            g.insert_edge(vid, nb, v.tag, self._gait_status(v.tag, vid, nb))

    def _sample_target(self) -> Pose:
        """Uniform sample over the world, occasionally biased to a goal so
        growth keeps pulling toward it."""
        if self.rng.random() < GOAL_BIAS:
            gid = self.rng.choice(self.graph.goal_ids)
            return self.graph.vertices[gid].pose
        return sample_pose(self.world, self.rng)

    def _gait_status(self, tag: str, src: int, dst: int) -> EdgeStatus:
        action = self.actions_by_tag[tag]
        p0 = self.graph.vertices[src].pose
        p1 = self.graph.vertices[dst].pose
        return EdgeStatus.SUFFICIENT if action.sufficient_edge(p0, p1) else EdgeStatus.INDETERMINATE

    def _link_goals(self, new_ids: list[int]):
        """Wire a zero-cost edge whenever a fresh vertex sits within the goal
        radius of a same-manifold goal vertex."""
        g = self.graph
        for vid in new_ids:
            v = g.vertices[vid]
            for gid in g.goal_ids:
                if gid == vid:
                    continue
                gv = g.vertices[gid]
                if gv.tag != v.tag:
                    continue
                if math.hypot(gv.pose.x - v.pose.x, gv.pose.y - v.pose.y) > GOAL_RADIUS:
                    continue
                g.insert_edge(vid, gid, v.tag, self._gait_status(v.tag, vid, gid), cost=0.0)

    # -- confirmation -----------------------------------------------------

    def confirm_path(self, path: PathResult) -> bool:
        """Alg-2 style pass over a candidate path, one edge at a time.

        Edges already proven stay; each indeterminate edge runs its job to a
        verdict at once. Insertion graded every edge on the same stored poses,
        so the sufficient check is not run again. True only when every edge is
        proven; stops at the first refuted.
        """
        g = self.graph
        for eid in path.edge_ids:
            e = g.edges[eid]
            if e.status in (EdgeStatus.SUFFICIENT, EdgeStatus.JOB_CONFIRMED):
                continue
            # transition edges are always inserted as sufficient, so only gait
            # and jump edges get here
            action = self.actions_by_tag[e.tag]
            self.queue.submit(action.spawn_confirmation_job(EdgeSnapshot.of_edge(g, e)))
            self.stats.jobs_spawned += 1
            self.queue.step()
            (verdict,) = self.queue.drain_verdicts()
            if not self._settle(verdict):
                return False
        return True

    def _settle(self, verdict: Verdict) -> bool:
        """Apply one job's verdict to its edge; True if it was confirmed."""
        eid = verdict.edge.edge_id
        confirmed = verdict.outcome == CONFIRMED
        self.graph.settle_edge(eid, confirmed)
        if confirmed:
            self.stats.jobs_confirmed += 1
            if verdict.trajectory is not None:
                self.trajectories[eid] = verdict.trajectory
        else:
            self.stats.jobs_refuted += 1
        self.events.append(f"CONFIRM {eid} {verdict.outcome}")
        return confirmed

    def _apply_verdicts(self):
        """Settle verdicts left in the outbox: none, as `confirm_path` settles
        each at once. Kept because perfbench's tracer counts cycles on it."""
        for verdict in self.queue.drain_verdicts():
            self._settle(verdict)

    def _extract_confirmed(self, deadline: float) -> PathResult | None:
        """Confirm shortest paths until one is proven or start and goal are cut
        apart (each failure removes an edge); checks the deadline between."""
        g = self.graph
        for gid in g.goal_ids:
            while g.connected(g.start_id, gid):
                path = g.shortest_path(g.start_id, gid)
                if self.confirm_path(path):
                    return path
                if time.monotonic() >= deadline:
                    return None
        return None

    # -- main loop --------------------------------------------------------

    def find_path(self) -> PathResult | None:
        t0 = time.monotonic()
        self._init_endpoints()
        n = 0
        deadline = t0 + self.config.t_max
        while time.monotonic() < deadline:
            n += 1
            self.stats.cycles = n
            self.events.append(f"CYCLE {n}")
            # condition memos live for one cycle: repeats cluster within
            # a cycle, and unbounded memos cost memory on long solves
            for action in self.actions:
                action.clear_memos()
            self._apply_verdicts()
            for action in self.actions:
                gait = isinstance(action, GaitAction)
                # the jump owns no manifold, so it takes no transitions
                new_ids = self.perform_transitions(action) if gait else []
                if new_ids:
                    self.events.append(f"TRANS {action.tag} {len(new_ids)}")
                target = self._sample_target()
                grown = self.grow_holonomic(action, target) if gait else self.grow_nonholonomic(action, target)
                new_ids += grown
                self.events.append(f"GROW {action.tag} {len(grown)}")
                self._broadcast(action, new_ids)
                self._link_goals(new_ids)
            path = self._extract_confirmed(deadline)
            if path is not None:
                self.stats.elapsed = time.monotonic() - t0
                return path
        self.stats.elapsed = time.monotonic() - t0
        return None

    # -- reporting --------------------------------------------------------

    def describe_path(self, path: PathResult) -> dict:
        """JSON-ready description of a confirmed path."""
        g = self.graph
        edges = []
        for eid in path.edge_ids:
            e = g.edges[eid]
            p0 = g.vertices[e.src].pose
            p1 = g.vertices[e.dst].pose
            entry = {
                "action": e.tag,
                "status": e.status.value,
                "cost": round(e.cost, 9),
                "from": {"x": p0.x, "y": p0.y, "theta": p0.theta, "h": p0.h},
                "to": {"x": p1.x, "y": p1.y, "theta": p1.theta, "h": p1.h},
            }
            traj = self.trajectories.get(eid)
            if traj is not None:
                entry["trajectory"] = {
                    "speed": round(traj.speed, 9),
                    "elevation": round(traj.elevation, 9),
                    "flight_time": round(traj.flight_time, 9),
                    "points": [[round(c, 9) for c in p] for p in traj.points],
                }
            edges.append(entry)
        return {"cost": round(path.cost, 9), "edges": edges}

    def event_log(self) -> str:
        return "\n".join(self.events) + "\n"

