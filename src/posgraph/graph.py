"""Master possibility graph: vertices, lazily-validated edges, per-action components.

The graph owns each edge's lifecycle: live -> job-confirmed or refuted.
`insert_edge` admits an edge on its action's necessary condition, live as
sufficient-confirmed or indeterminate.
`settle_edge` takes a confirmation job's verdict: it marks the edge
job-confirmed in place, or records its keys as refuted for good and removes
it. The tag sets the direction: a jump is one-way, any other edge has a twin
that shares every step.

One key index answers whether an edge key is live, refuted or free: it maps
the quantized key (tag, source pose, destination pose) of each live edge to
its id, and each refuted key to None, for good.

The start's and the goals' reach sets are live: inserting an edge extends them
in place by a search from its new end; only a removal or new endpoints make the
next query recompute them. Copy one before changing the graph while reading it.

Vertex ids are dense, so per-vertex state (records, edge ids, union-find
parents) lives in lists indexed by id. `subgraph_closest` scans a tag of at
most SCAN_VERTICES vertices in one pass. Beyond that the tag keeps a uniform
grid, a dict from each occupied square cell to the ids of the vertices whose
position lies in it (Ericson, Real-Time Collision Detection, 2004), from
which each component's nearest vertex is read lazily, walking rings of cells
outward from the target.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from .world import DEFAULT_METRIC_WEIGHTS, Pose, pose_distance

TAG_WALK = "walk"
TAG_CRAWL = "crawl"
TAG_JUMP = "jump"
TAG_TRANSITION = "transition"

VERTEX_TAGS = (TAG_WALK, TAG_CRAWL)
EDGE_TAGS = (TAG_WALK, TAG_CRAWL, TAG_JUMP, TAG_TRANSITION)

# quantization used by edge keys and vertex dedup: 1 cm in x/y/h, 0.01 rad in
# heading
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
# side of a vertex-grid cell, m
VERTEX_GRID_CELL = 0.5
# subgraph_closest scans a tag of at most this many vertices in one pass and
# builds and walks the tag's grid beyond, although the grid is the faster from
# about 128 vertices. A solve that runs to its time limit grows more vertices
# the faster the query, and its peak memory follows them: perfbench's
# walled_off workload, which also keeps every dump's text, read its peak
# memory past the x1.25 bound it sets with the grid from 128 or 2,500
# vertices on. Lower this to the crossover once that workload stops holding
# the dumps (ROADMAP item 10)
SCAN_VERTICES = 3000
# dump() joins its lines in blocks of this many, never holding one string per line
DUMP_BLOCK = 512


class EdgeStatus(str, Enum):
    SUFFICIENT = "sufficient-confirmed"
    INDETERMINATE = "indeterminate"
    JOB_CONFIRMED = "job-confirmed"


class ConditionViolation(RuntimeError):
    """Raised when a vertex insertion fails the re-asserted necessary condition."""


@dataclass(slots=True)
class VertexRecord:
    id: int
    pose: Pose
    tag: str
    qpose: tuple[int, int, int, int]  # quantize_pose(pose): this end of every edge key


@dataclass(slots=True)
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
    """Plain union-find over dense vertex ids with path compression; the lower
    id becomes the root. Components are counted on demand."""

    def __init__(self):
        self.parent: list[int] = []

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


def _cell(pose: Pose) -> tuple[int, int]:
    """The vertex-grid cell holding a pose: cell (x, y) spans
    [x * VERTEX_GRID_CELL, (x + 1) * VERTEX_GRID_CELL), and the same in y."""
    return math.floor(pose.x / VERTEX_GRID_CELL), math.floor(pose.y / VERTEX_GRID_CELL)


def _rings(cells: dict[tuple[int, int], list[int]], cx: int, cy: int, unread: int, n: int):
    """(k, the id lists of the occupied cells of ring k) for each ring k
    around cell (cx, cy), outward, until the rings have held all `unread`
    cells that were occupied when the graph had n vertices; ring k holds the
    cells k steps away in x or y, whichever is more. A cell first filed
    later holds only ids from n on and does not count, so it cannot end the
    walk before an older cell further out is read.

    Probing stops once it has cost eight lookups per counted cell; the rings
    left are then read from the cells themselves, sorted by ring, so the
    empty rings between two distant vertices cost nothing."""
    get = cells.get
    budget = 8 * unread
    vids = get((cx, cy))
    found = [vids] if vids else []
    k = 0
    while True:
        unread -= sum(vids[0] < n for vids in found)
        yield k, found
        if not unread:
            return
        k += 1
        budget -= 8 * k
        if budget < 0:
            break
        found = [vids for x in range(cx - k, cx + k + 1) for y in (cy - k, cy + k) if (vids := get((x, y)))]
        found += [vids for y in range(cy - k + 1, cy + k) for x in (cx - k, cx + k) if (vids := get((x, y)))]
    rest = sorted((max(abs(x - cx), abs(y - cy)), x, y) for x, y in cells)
    start = bisect.bisect_left(rest, (k,))
    for r, ring in itertools.groupby(rest[start:], key=lambda c: c[0]):
        yield r, [cells[x, y] for _, x, y in ring]


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
        # indexed by vertex id
        self.vertices: list[VertexRecord] = []
        self.edges: dict[int, EdgeRecord] = {}
        self.start_id: int | None = None
        self.goal_ids: list[int] = []
        self._next_vid = 0
        self._next_eid = 0
        # out- and in-edge ids of each vertex in id order, indexed by vertex
        # id; a tuple costs less than a list and most vertices hold few
        self._out: list[tuple[int, ...]] = []
        self._in: list[tuple[int, ...]] = []
        self._tag_vertices: dict[str, list[int]] = {t: [] for t in VERTEX_TAGS}
        # a tag's vertex grid, filled when subgraph_closest first walks it:
        # cell -> the ids of the tag's vertices there, ascending
        self._grids: dict[str, dict[tuple[int, int], list[int]]] = {}
        # one union-find for every tag: only same-tag edges join, so no
        # component spans two tags
        self._uf = _UnionFind()
        self._uf_dirty: set[str] = set()
        # edge key -> id of the live edge holding it, or None once refuted
        self._keys: dict[tuple, int | None] = {}
        # (tag, quantized x, y, h) -> the vertex a pose there dedups into
        self._vertex_keys: dict[tuple, int] = {}
        # "start" and "goal" reach sets; a missing one is recomputed on query
        self._reach: dict[str, set[int]] = {}

    # -- bookkeeping ------------------------------------------------------

    def set_endpoints(self, start_id: int, goal_ids: Iterable[int]):
        self.start_id = start_id
        self.goal_ids = list(goal_ids)
        self._reach.clear()

    def _has(self, vid) -> bool:
        return isinstance(vid, int) and 0 <= vid < len(self.vertices)

    def vertex_count(self, tag: str | None = None) -> int:
        if tag is None:
            return len(self.vertices)
        return len(self._tag_vertices.get(tag, ()))

    def edge_count(self) -> int:
        return len(self.edges)

    # -- vertices ---------------------------------------------------------

    def insert_vertex(self, pose: Pose, tag: str) -> int:
        """Add a vertex on the tagged manifold; re-asserts the vertex condition.

        A pose landing within key quantization of an existing same-tag
        vertex (heading ignored) reuses that vertex, which is what lets
        independently grown chains knit together.
        """
        if tag not in VERTEX_TAGS:
            raise ValueError(f"unknown vertex tag {tag!r}")
        chk = self.checks.get(tag)
        if chk and chk.vertex and not chk.vertex(pose):
            raise ConditionViolation(f"vertex pose fails necessary condition for {tag!r}: {pose}")
        q = quantize_pose(pose)
        key = (tag, q[0], q[1], q[3])
        if key in self._vertex_keys:
            return self._vertex_keys[key]
        vid = self._next_vid
        self._next_vid += 1
        self.vertices.append(VertexRecord(vid, pose, tag, q))
        self._out.append(())
        self._in.append(())
        self._uf.parent.append(vid)
        self._tag_vertices[tag].append(vid)
        cells = self._grids.get(tag)
        if cells is not None:
            cells.setdefault(_cell(pose), []).append(vid)
        self._vertex_keys[key] = vid
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
        return edge_key(tag, p0, p1) in self._keys

    def edge_live(self, tag: str, p0: Pose, p1: Pose) -> bool:
        """True if an edge with these quantized endpoints currently exists."""
        return self._keys.get(edge_key(tag, p0, p1)) is not None

    def edge_live_between(self, tag: str, src: int, dst: int) -> bool:
        """`edge_live` for the poses of two existing vertices, keyed on their
        stored quantized poses."""
        return self._keys.get((tag, self.vertices[src].qpose, self.vertices[dst].qpose)) is not None

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
        n = len(self.vertices)
        if not (0 <= src < n and 0 <= dst < n):
            raise KeyError("edge endpoints must be existing vertices")
        v0, v1 = self.vertices[src], self.vertices[dst]
        p0, p1 = v0.pose, v1.pose
        if (tag, v0.qpose, v1.qpose) in self._keys:
            return []
        chk = self.checks.get(tag)
        if chk and chk.edge and not chk.edge(p0, p1):
            return []
        c = self._edge_cost(p0, p1, tag) if cost is None else cost
        ids = [self._add_one(src, dst, tag, status, c, apex)]
        if tag != TAG_JUMP and (tag, v1.qpose, v0.qpose) not in self._keys:
            ids.append(self._add_one(dst, src, tag, status, c, apex))
            self.edges[ids[0]].twin = ids[1]
            self.edges[ids[1]].twin = ids[0]
        if (
            tag in VERTEX_TAGS
            and v0.tag == tag
            and v1.tag == tag
            and tag not in self._uf_dirty
        ):
            self._uf.union(src, dst)
        return ids

    def _add_one(self, src, dst, tag, status, cost, apex) -> int:
        eid = self._next_eid
        self._next_eid += 1
        self.edges[eid] = EdgeRecord(eid, tag, src, dst, status, cost, apex)
        self._keys[(tag, self.vertices[src].qpose, self.vertices[dst].qpose)] = eid
        self._out[src] += (eid,)
        self._in[dst] += (eid,)
        start, goal = self._reach.get("start"), self._reach.get("goal")
        if start is not None and src in start and dst not in start:
            self._bfs([dst], self._out, True, start)
        if goal is not None and dst in goal and src not in goal:
            self._bfs([src], self._in, False, goal)
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
            del self._keys[(rec.tag, self.vertices[rec.src].qpose, self.vertices[rec.dst].qpose)]
            self._out[rec.src] = tuple(x for x in self._out[rec.src] if x != rec.id)
            self._in[rec.dst] = tuple(x for x in self._in[rec.dst] if x != rec.id)
            if rec.tag in VERTEX_TAGS:
                self._uf_dirty.add(rec.tag)
        self._reach.clear()

    def settle_edge(self, eid: int, confirmed: bool):
        """Apply a job's verdict to a live edge: mark it and its twin
        job-confirmed in place, or record their keys as refuted for good and
        remove both."""
        e = self.edges[eid]
        if confirmed:
            e.status = EdgeStatus.JOB_CONFIRMED
            if e.twin is not None and e.twin in self.edges:
                self.edges[e.twin].status = EdgeStatus.JOB_CONFIRMED
            return
        self.remove_edge(eid)
        q0, q1 = self.vertices[e.src].qpose, self.vertices[e.dst].qpose
        self._keys[(e.tag, q0, q1)] = None
        if e.tag != TAG_JUMP:
            self._keys[(e.tag, q1, q0)] = None

    # -- connectivity -----------------------------------------------------

    def _rebuild_uf(self, tag: str):
        uf = self._uf
        for vid in self._tag_vertices[tag]:
            uf.parent[vid] = vid
        for e in self.edges.values():
            if (
                e.tag == tag
                and self.vertices[e.src].tag == tag
                and self.vertices[e.dst].tag == tag
            ):
                uf.union(e.src, e.dst)
        self._uf_dirty.discard(tag)

    def components(self, tag: str) -> dict[int, list[int]]:
        """Connected components of the per-action undirected view."""
        if tag in self._uf_dirty:
            self._rebuild_uf(tag)
        find = self._uf.find
        comps: dict[int, list[int]] = {}
        for vid in self._tag_vertices[tag]:
            comps.setdefault(find(vid), []).append(vid)
        return comps

    def _bfs(
        self, seeds: Iterable[int], adjacency: list[tuple[int, ...]], forward: bool, seen: set[int] | None = None
    ) -> set[int]:
        """Vertices reached from the seeds. Given `seen`, grows it in place
        and does not pass the vertices already in it."""
        seen = set() if seen is None else seen
        n = len(self.vertices)
        q = deque(s for s in seeds if s is not None and 0 <= s < n and s not in seen)
        seen.update(q)
        while q:
            v = q.popleft()
            for eid in adjacency[v]:
                e = self.edges[eid]
                nxt = e.dst if forward else e.src
                if nxt not in seen:
                    seen.add(nxt)
                    q.append(nxt)
        return seen

    def reachable_from(self, src: int) -> set[int]:
        return self._bfs([src], self._out, True)

    def start_reachable_set(self) -> set[int]:
        """Vertices reachable from the start along directed edges. A live
        set: copy it before changing the graph."""
        if "start" not in self._reach:
            self._reach["start"] = self._bfs([self.start_id], self._out, True)
        return self._reach["start"]

    def goal_reaching_set(self) -> set[int]:
        """Vertices from which some goal is reachable. A live set: copy it
        before changing the graph."""
        if "goal" not in self._reach:
            self._reach["goal"] = self._bfs(self.goal_ids, self._in, False)
        return self._reach["goal"]

    def connected(self, src: int, dst: int) -> bool:
        """Directed reachability src -> dst over all live edges."""
        if not self._has(src) or not self._has(dst):
            return False
        if src == self.start_id:
            return dst in self.start_reachable_set()
        return dst in self.reachable_from(src)

    # -- queries ----------------------------------------------------------

    def shortest_path(self, src: int, dst: int) -> PathResult | None:
        """Dijkstra over edge costs; equal-cost ties prefer wiring through the
        lower incoming edge id, which keeps results deterministic. Out-edges
        are already in ascending edge id order (`audit` checks it)."""
        if not self._has(src) or not self._has(dst):
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
            for eid in self._out[v]:
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

    def subgraph_closest(self, tag: str, target: Pose) -> Iterator[tuple[float, int]]:
        """Per-component nearest vertex to target as (distance, vertex id), in
        ascending order (ties toward the lower vertex id).

        Above SCAN_VERTICES vertices the entries are read lazily from the
        tag's vertex grid. Either way they describe the graph as it was at the
        call: the graph may change while they are read, but vertices inserted
        since do not show and components merged since still count as
        separate."""
        if tag in self._uf_dirty:
            self._rebuild_uf(tag)
        vids = self._tag_vertices[tag]
        if len(vids) <= SCAN_VERTICES:
            find = self._uf.find
            best: dict[int, tuple[float, int]] = {}
            # vertex ids ascend, so a strict `<` keeps the lower id on a tie
            for vid in vids:
                d = pose_distance(self.vertices[vid].pose, target)
                root = find(vid)
                b = best.get(root)
                if b is None or d < b[0]:
                    best[root] = (d, vid)
            return iter(sorted(best.values()))
        cells = self._grids.get(tag)
        if cells is None:
            cells = self._grids[tag] = {}
            for vid in vids:
                cells.setdefault(_cell(self.vertices[vid].pose), []).append(vid)
        return self._closest(cells, len(cells), self._uf.parent[:], len(self.vertices), target)

    def _closest(self, cells: dict, occupied: int, parent: list[int], n: int, target: Pose):
        """Entries of `subgraph_closest`, given the number of occupied cells,
        the union-find parents and the vertex count at the call.

        Ring by ring, outward from the target's cell, every vertex of a
        visited cell goes on a heap by (distance, id), unless its component
        was already given, which costs one find and no distance. An entry is
        given once it is nearer than the border of the visited rings, scaled
        by the smaller planar weight of pose_distance: no vertex of a ring not
        yet visited can be nearer."""
        vertices = self.vertices
        planar = min(DEFAULT_METRIC_WEIGHTS[0], DEFAULT_METRIC_WEIGHTS[1])
        tx, ty = target.x, target.y
        side = VERTEX_GRID_CELL
        cx, cy = _cell(target)
        # the border is shrunk to cover rounding in it and in the distances
        slack = 1e-9 * (1.0 + abs(tx) + abs(ty))
        heap: list[tuple[float, int, int]] = []
        given: set[int] = set()
        for k, ring in _rings(cells, cx, cy, occupied, n):
            # distance from the target to the square of the rings inside ring k
            border = min(tx - (cx - k + 1) * side, (cx + k) * side - tx, ty - (cy - k + 1) * side, (cy + k) * side - ty)
            bound = planar * border * (1.0 - 1e-9) - slack
            while heap and heap[0][0] < bound:
                d, vid, root = heapq.heappop(heap)
                if root not in given:
                    given.add(root)
                    yield d, vid
            for vids in ring:
                for vid in vids:
                    # ids ascend within a cell, and those from n on are newer
                    # than the call
                    if vid >= n:
                        break
                    root = vid
                    while parent[root] != root:
                        root = parent[root]
                    if root not in given:
                        heapq.heappush(heap, (pose_distance(vertices[vid].pose, target), vid, root))
        while heap:
            d, vid, root = heapq.heappop(heap)
            if root not in given:
                given.add(root)
                yield d, vid

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
        """Line-oriented text: V id tag x y theta h / E id tag from to status
        cost, each line ended by a newline; a graph with no lines dumps "\\n".
        The lines are joined DUMP_BLOCK at a time, so a dump holds about
        twice the size of its text at its peak, not one string per line."""
        lines = self._dump_lines()
        blocks = []
        while block := list(itertools.islice(lines, DUMP_BLOCK)):
            blocks.append("\n".join(block) + "\n")
        return "".join(blocks) or "\n"

    def _dump_lines(self):
        for v in self.vertices:
            p = v.pose
            yield f"V {v.id} {v.tag} {p.x:.6f} {p.y:.6f} {p.theta:.6f} {p.h:.6f}"
        for eid in sorted(self.edges):
            e = self.edges[eid]
            yield f"E {eid} {e.tag} {e.src} {e.dst} {e.status.value} {e.cost:.6f}"

    # -- self checks ------------------------------------------------------

    def audit(self):
        """Structural invariants; raises AssertionError on violation."""
        for vid, v in enumerate(self.vertices):
            assert v.id == vid and v.tag in VERTEX_TAGS
            chk = self.checks.get(v.tag)
            if chk and chk.vertex:
                assert chk.vertex(v.pose), f"vertex {v.id} fails {v.tag} condition"
            assert v.qpose == quantize_pose(v.pose), f"vertex {v.id} holds a stale quantized pose"
        for vid, out in enumerate(self._out):
            # ids are allocated in ascending order and removal keeps it
            assert list(out) == sorted(out), f"out-edges of vertex {vid} are not in edge id order"
        for e in self.edges.values():
            assert e.tag in EDGE_TAGS
            assert self._has(e.src) and self._has(e.dst)
            chk = self.checks.get(e.tag)
            if chk and chk.edge:
                assert chk.edge(self.vertices[e.src].pose, self.vertices[e.dst].pose)
        keys = {(e.tag, self.vertices[e.src].qpose, self.vertices[e.dst].qpose): e.id for e in self.edges.values()}
        assert len(keys) == len(self.edges), "two live edges share a quantized key"
        live = {k: eid for k, eid in self._keys.items() if eid is not None}
        assert live == keys, "the edge key index differs from the live edges"
        for tag, cells in self._grids.items():
            held = sorted((*_cell(self.vertices[vid].pose), vid) for vid in self._tag_vertices[tag])
            assert sorted((x, y, vid) for (x, y), vids in cells.items() for vid in vids) == held, "the vertex grid differs from the vertex poses"
            assert all(vids == sorted(vids) for vids in cells.values()), "a grid cell is not in id order"
        fresh = {"start": self._bfs([self.start_id], self._out, True), "goal": self._bfs(self.goal_ids, self._in, False)}
        for name, reach in self._reach.items():
            assert reach == fresh[name], f"{name} reach set differs from a fresh search"
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
