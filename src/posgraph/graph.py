"""Master possibility graph: vertices, lazily-validated edges, per-action components.

The graph owns each edge's lifecycle: live -> job-confirmed or refuted.
`insert_edge` admits an edge on its action's necessary condition, live as
sufficient-confirmed or indeterminate; `mark_sufficient` upgrades it in place.
`settle_edge` takes a confirmation job's verdict: it marks the edge
job-confirmed in place, or records its keys as refuted for good and removes
it. The tag sets the direction: a jump is one-way, any other edge has a twin
that shares every step.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .world import Pose, pose_distance

TAG_WALK = "walk"
TAG_CRAWL = "crawl"
TAG_JUMP = "jump"
TAG_TRANSITION = "transition"

VERTEX_TAGS = (TAG_WALK, TAG_CRAWL)
EDGE_TAGS = (TAG_WALK, TAG_CRAWL, TAG_JUMP, TAG_TRANSITION)

# quantization used by the removed-edge registry and vertex dedup: 1 cm in
# x/y/h, 0.01 rad in heading
_Q_XY = 0.01
_Q_TH = 0.01
_Q_H = 0.01

# cost added to the length of a posture transition and of a jump
TRANSITION_SURCHARGE = 0.5
JUMP_SURCHARGE = 1.0

# pose_distance weights that ignore heading
HEADING_FREE_WEIGHTS = (1.0, 1.0, 0.0, 1.0)
# nearest_vertices returns at most this many vertices within this distance
NEAREST_COUNT = 4
NEAREST_RADIUS = 0.45


class EdgeStatus(str, Enum):
    SUFFICIENT = "sufficient-confirmed"
    INDETERMINATE = "indeterminate"
    JOB_CONFIRMED = "job-confirmed"


class ConditionViolation(RuntimeError):
    """Raised when a vertex insertion fails the re-asserted necessary condition."""


@dataclass
class VertexRecord:
    id: int
    pose: Pose
    tag: str


@dataclass
class EdgeRecord:
    id: int
    tag: str
    src: int
    dst: int
    status: EdgeStatus
    cost: float
    apex: float | None = None
    twin: int | None = None


@dataclass(frozen=True)
class PathResult:
    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    cost: float


@dataclass
class TagChecks:
    """Re-assertable necessary conditions for one action tag."""

    vertex: Callable[[Pose], bool] | None = None
    edge: Callable[[Pose, Pose], bool] | None = None


class _UnionFind:
    """Plain union-find with path compression; components counted on demand."""

    def __init__(self):
        self.parent: dict[int, int] = {}

    def add(self, x: int):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _qv(v: float, q: float) -> int:
    return int(round(v / q))


def quantize_pose(pose: Pose) -> tuple[int, int, int, int]:
    return (_qv(pose.x, _Q_XY), _qv(pose.y, _Q_XY), _qv(pose.theta, _Q_TH), _qv(pose.h, _Q_H))


def edge_key(tag: str, p0: Pose, p1: Pose) -> tuple:
    return (tag, quantize_pose(p0), quantize_pose(p1))


@dataclass
class _ClosestEntry:
    component: int
    vertex_id: int
    distance: float


class PossibilityGraph:
    """Single shared graph over all actions, plus per-action component tracking.

    Parameters
    ----------
    checks : mapping of action tag to TagChecks, used to re-assert necessary
        conditions at insertion time. Tags absent from the mapping skip
        validation (handy in unit tests).
    """

    def __init__(self, checks: dict[str, TagChecks] | None = None):
        self.checks = checks or {}
        self.vertices: dict[int, VertexRecord] = {}
        self.edges: dict[int, EdgeRecord] = {}
        self.start_id: int | None = None
        self.goal_ids: list[int] = []
        self._next_vid = 0
        self._next_eid = 0
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self._tag_vertices: dict[str, list[int]] = {t: [] for t in VERTEX_TAGS}
        self._uf: dict[str, _UnionFind] = {t: _UnionFind() for t in VERTEX_TAGS}
        self._uf_dirty: set[str] = set()
        self._removed_registry: set[tuple] = set()
        self._live_keys: set[tuple] = set()
        self._vertex_keys: dict[tuple, int] = {}
        self._version = 0
        self._reach_cache: dict[str, tuple[int, frozenset[int]]] = {}

    # -- bookkeeping ------------------------------------------------------

    def _bump(self):
        self._version += 1

    def set_endpoints(self, start_id: int, goal_ids: Iterable[int]):
        self.start_id = start_id
        self.goal_ids = list(goal_ids)
        self._bump()

    def vertex_count(self, tag: str | None = None) -> int:
        if tag is None:
            return len(self.vertices)
        return len(self._tag_vertices.get(tag, ()))

    def edge_count(self) -> int:
        return len(self.edges)

    # -- vertices ---------------------------------------------------------

    def insert_vertex(self, pose: Pose, tag: str) -> int:
        """Add a vertex on the tagged manifold; re-asserts the vertex condition.

        A pose landing within registry quantization of an existing same-tag
        vertex (heading ignored) reuses that vertex, which is what lets
        independently grown chains knit together.
        """
        if tag not in VERTEX_TAGS:
            raise ValueError(f"unknown vertex tag {tag!r}")
        chk = self.checks.get(tag)
        if chk and chk.vertex and not chk.vertex(pose):
            raise ConditionViolation(f"vertex pose fails necessary condition for {tag!r}: {pose}")
        key = (tag, _qv(pose.x, _Q_XY), _qv(pose.y, _Q_XY), _qv(pose.h, _Q_H))
        if key in self._vertex_keys:
            return self._vertex_keys[key]
        vid = self._next_vid
        self._next_vid += 1
        self.vertices[vid] = VertexRecord(vid, pose, tag)
        self._out[vid] = []
        self._in[vid] = []
        self._tag_vertices[tag].append(vid)
        self._uf[tag].add(vid)
        self._vertex_keys[key] = vid
        self._bump()
        return vid

    # -- edges ------------------------------------------------------------

    def _edge_cost(self, p0: Pose, p1: Pose, tag: str) -> float:
        length = math.sqrt((p1.x - p0.x) ** 2 + (p1.y - p0.y) ** 2 + (p1.h - p0.h) ** 2)
        if tag == TAG_TRANSITION:
            return length + TRANSITION_SURCHARGE
        if tag == TAG_JUMP:
            return length + JUMP_SURCHARGE
        return length

    def edge_blocked(self, tag: str, p0: Pose, p1: Pose) -> bool:
        """True if this quantized endpoint pair was refuted or already exists
        live."""
        return self._key_blocked(edge_key(tag, p0, p1))

    def _key_blocked(self, k: tuple) -> bool:
        return k in self._removed_registry or k in self._live_keys

    def edge_live(self, tag: str, p0: Pose, p1: Pose) -> bool:
        """True if an edge with these quantized endpoints currently exists."""
        return edge_key(tag, p0, p1) in self._live_keys

    def insert_edge(
        self,
        src: int,
        dst: int,
        tag: str,
        status: EdgeStatus,
        apex: float | None = None,
        cost: float | None = None,
    ) -> list[int]:
        """Insert a directed edge, and its twin unless it is a jump; the one
        place that decides whether an edge enters the graph.

        Returns the new edge ids, or an empty list when the quantized key is
        refuted or live, or when the stored endpoint poses fail the
        tag's necessary condition. Vertex dedup can snap an intended pose onto
        an existing vertex whose heading differs, so the condition is judged
        on what the graph actually holds.
        """
        if tag not in EDGE_TAGS:
            raise ValueError(f"unknown edge tag {tag!r}")
        if src not in self.vertices or dst not in self.vertices:
            raise KeyError("edge endpoints must be existing vertices")
        p0 = self.vertices[src].pose
        p1 = self.vertices[dst].pose
        fwd = edge_key(tag, p0, p1)
        if self._key_blocked(fwd):
            return []
        chk = self.checks.get(tag)
        if chk and chk.edge and not chk.edge(p0, p1):
            return []
        c = self._edge_cost(p0, p1, tag) if cost is None else cost
        ids = [self._add_one(src, dst, tag, status, c, apex, fwd)]
        if tag != TAG_JUMP:
            back = edge_key(tag, p1, p0)
            if not self._key_blocked(back):
                ids.append(self._add_one(dst, src, tag, status, c, apex, back))
                self.edges[ids[0]].twin = ids[1]
                self.edges[ids[1]].twin = ids[0]
        if (
            tag in VERTEX_TAGS
            and self.vertices[src].tag == tag
            and self.vertices[dst].tag == tag
            and tag not in self._uf_dirty
        ):
            self._uf[tag].union(src, dst)
        self._bump()
        return ids

    def _add_one(self, src, dst, tag, status, cost, apex, key) -> int:
        eid = self._next_eid
        self._next_eid += 1
        self.edges[eid] = EdgeRecord(eid, tag, src, dst, status, cost, apex)
        self._out[src].append(eid)
        self._in[dst].append(eid)
        self._live_keys.add(key)
        return eid

    def remove_edge(self, eid: int):
        """Drop an edge and its twin; their keys may be inserted again.
        Unknown ids are a no-op."""
        e = self.edges.get(eid)
        if e is None:
            return
        doom = [e]
        if e.twin is not None and e.twin in self.edges:
            doom.append(self.edges[e.twin])
        for rec in doom:
            del self.edges[rec.id]
            self._out[rec.src].remove(rec.id)
            self._in[rec.dst].remove(rec.id)
            k = edge_key(rec.tag, self.vertices[rec.src].pose, self.vertices[rec.dst].pose)
            self._live_keys.discard(k)
            if rec.tag in VERTEX_TAGS:
                self._uf_dirty.add(rec.tag)
        self._bump()

    def _set_status(self, eid: int, status: EdgeStatus):
        e = self.edges[eid]
        e.status = status
        if e.twin is not None and e.twin in self.edges:
            self.edges[e.twin].status = status

    def mark_sufficient(self, eid: int):
        """Upgrade a live edge and its twin to sufficient-confirmed."""
        self._set_status(eid, EdgeStatus.SUFFICIENT)

    def settle_edge(self, eid: int, confirmed: bool):
        """Apply a job's verdict to a live edge: mark it and its twin
        job-confirmed in place, or record their keys as refuted for good and
        remove both."""
        if confirmed:
            self._set_status(eid, EdgeStatus.JOB_CONFIRMED)
            return
        e = self.edges[eid]
        p0, p1 = self.vertices[e.src].pose, self.vertices[e.dst].pose
        self._removed_registry.add(edge_key(e.tag, p0, p1))
        if e.tag != TAG_JUMP:
            self._removed_registry.add(edge_key(e.tag, p1, p0))
        self.remove_edge(eid)

    # -- connectivity -----------------------------------------------------

    def _rebuild_uf(self, tag: str):
        uf = _UnionFind()
        for vid in self._tag_vertices[tag]:
            uf.add(vid)
        for e in self.edges.values():
            if (
                e.tag == tag
                and self.vertices[e.src].tag == tag
                and self.vertices[e.dst].tag == tag
            ):
                uf.union(e.src, e.dst)
        self._uf[tag] = uf
        self._uf_dirty.discard(tag)

    def components(self, tag: str) -> dict[int, list[int]]:
        """Connected components of the per-action undirected view."""
        if tag in self._uf_dirty:
            self._rebuild_uf(tag)
        uf = self._uf[tag]
        comps: dict[int, list[int]] = {}
        for vid in self._tag_vertices[tag]:
            comps.setdefault(uf.find(vid), []).append(vid)
        return comps

    def _bfs(self, seeds: Iterable[int], adjacency: dict[int, list[int]], forward: bool) -> frozenset[int]:
        seen = set(s for s in seeds if s in self.vertices)
        q = deque(seen)
        while q:
            v = q.popleft()
            for eid in adjacency[v]:
                e = self.edges[eid]
                nxt = e.dst if forward else e.src
                if nxt not in seen:
                    seen.add(nxt)
                    q.append(nxt)
        return frozenset(seen)

    def reachable_from(self, src: int) -> frozenset[int]:
        return self._bfs([src], self._out, True)

    def start_reachable_set(self) -> frozenset[int]:
        """Vertices reachable from the start along directed edges (cached)."""
        cached = self._reach_cache.get("start")
        if cached and cached[0] == self._version:
            return cached[1]
        result = self._bfs([self.start_id] if self.start_id is not None else [], self._out, True)
        self._reach_cache["start"] = (self._version, result)
        return result

    def goal_reaching_set(self) -> frozenset[int]:
        """Vertices from which some goal is reachable (cached)."""
        cached = self._reach_cache.get("goal")
        if cached and cached[0] == self._version:
            return cached[1]
        result = self._bfs(self.goal_ids, self._in, False)
        self._reach_cache["goal"] = (self._version, result)
        return result

    def connected(self, src: int, dst: int) -> bool:
        """Directed reachability src -> dst over all live edges."""
        if src not in self.vertices or dst not in self.vertices:
            return False
        if src == self.start_id:
            return dst in self.start_reachable_set()
        return dst in self.reachable_from(src)

    # -- queries ----------------------------------------------------------

    def shortest_path(self, src: int, dst: int) -> PathResult | None:
        """Dijkstra over edge costs; equal-cost ties prefer wiring through the
        lower incoming edge id, which keeps results deterministic."""
        if src not in self.vertices or dst not in self.vertices:
            return None
        dist: dict[int, float] = {src: 0.0}
        prev_edge: dict[int, int] = {}
        heap: list[tuple[float, int, int]] = [(0.0, -1, src)]
        done: set[int] = set()
        while heap:
            d, _, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            if v == dst:
                break
            for eid in sorted(self._out[v]):
                e = self.edges[eid]
                nd = d + e.cost
                u = e.dst
                if u in done:
                    continue
                old = dist.get(u)
                if old is None or nd < old or (nd == old and eid < prev_edge.get(u, eid + 1)):
                    dist[u] = nd
                    prev_edge[u] = eid
                    heapq.heappush(heap, (nd, eid, u))
        if dst not in done:
            return None
        verts = [dst]
        eids: list[int] = []
        v = dst
        while v != src:
            eid = prev_edge[v]
            eids.append(eid)
            v = self.edges[eid].src
            verts.append(v)
        verts.reverse()
        eids.reverse()
        return PathResult(tuple(verts), tuple(eids), dist[dst])

    def subgraph_closest(self, tag: str, target: Pose) -> list[_ClosestEntry]:
        """Per-component nearest vertex to target, sorted ascending by distance
        (ties toward the lower vertex id)."""
        best: dict[int, tuple[float, int]] = {}
        comps = self.components(tag)
        for root, vids in comps.items():
            b = None
            for vid in vids:
                d = pose_distance(self.vertices[vid].pose, target)
                if b is None or d < b[0] or (d == b[0] and vid < b[1]):
                    b = (d, vid)
            best[root] = b
        entries = [_ClosestEntry(root, vid, d) for root, (d, vid) in best.items()]
        entries.sort(key=lambda e: (e.distance, e.vertex_id))
        return entries

    def nearest_vertices(self, tag: str, pose: Pose) -> list[int]:
        """Up to NEAREST_COUNT vertices of one manifold within NEAREST_RADIUS
        of a pose, heading ignored, nearest first."""
        scored = []
        for vid in self._tag_vertices[tag]:
            d = pose_distance(self.vertices[vid].pose, pose, HEADING_FREE_WEIGHTS)
            if d <= NEAREST_RADIUS:
                scored.append((d, vid))
        scored.sort()
        return [vid for _, vid in scored[:NEAREST_COUNT]]

    # -- serialization ----------------------------------------------------

    def dump(self) -> str:
        """Line-oriented text: V id tag x y theta h / E id tag from to status cost."""
        lines = []
        for vid in sorted(self.vertices):
            v = self.vertices[vid]
            p = v.pose
            lines.append(f"V {vid} {v.tag} {p.x:.6f} {p.y:.6f} {p.theta:.6f} {p.h:.6f}")
        for eid in sorted(self.edges):
            e = self.edges[eid]
            lines.append(f"E {eid} {e.tag} {e.src} {e.dst} {e.status.value} {e.cost:.6f}")
        return "\n".join(lines) + "\n"

    # -- self checks ------------------------------------------------------

    def audit(self):
        """Structural invariants; raises AssertionError on violation."""
        for v in self.vertices.values():
            assert v.tag in VERTEX_TAGS
            chk = self.checks.get(v.tag)
            if chk and chk.vertex:
                assert chk.vertex(v.pose), f"vertex {v.id} fails {v.tag} condition"
        for e in self.edges.values():
            assert e.tag in EDGE_TAGS
            assert e.src in self.vertices and e.dst in self.vertices
            chk = self.checks.get(e.tag)
            if chk and chk.edge:
                assert chk.edge(self.vertices[e.src].pose, self.vertices[e.dst].pose)
        for tag in VERTEX_TAGS:
            comps = self.components(tag)
            # compare against a fresh undirected BFS
            seen: set[int] = set()
            for root, vids in comps.items():
                group = set(vids)
                probe = next(iter(group))
                frontier = {probe}
                reach = {probe}
                while frontier:
                    nxt = set()
                    for v in frontier:
                        for eid in self._out[v] + self._in[v]:
                            e = self.edges[eid]
                            if e.tag != tag:
                                continue
                            for u in (e.src, e.dst):
                                if (
                                    self.vertices[u].tag == tag
                                    and u not in reach
                                ):
                                    reach.add(u)
                                    nxt.add(u)
                    frontier = nxt
                assert reach == group, f"union-find mismatch for {tag}"
                seen |= group
