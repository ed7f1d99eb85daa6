"""Span and count tracing for the benchmark's traced runs.

The tracer wraps posgraph's solve-path entry points from outside the
package. Module-level functions are replaced in every module that looks them
up (an `from .world import volume_clear` copies the name into the importing
module, so patching `world` alone would miss the calls from `actions`), and
methods are replaced on their classes. `install` must run before any
`Planner` is built: `graph_checks` and `JumpAction` keep bound methods taken
at construction time.

Each wrapped call is one span. Spans are aggregated as they close rather
than stored one by one, because the collision kernels run hundreds of
thousands of times per solve. For every span name the tracer keeps the call
count, the inclusive time, the self time (inclusive minus the spans it
directly encloses) and the count of calls per enclosing span name.

Planner phases get a second view: a phase's time excludes only the phases
nested in it (`connect` inside `grow_holonomic`), so kernel and graph work
done by a phase counts toward that phase and the phases sum to the traced
part of `find_path`.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

from posgraph import actions, confirm, graph, planner, world
from posgraph.actions import GaitAction, JumpAction
from posgraph.confirm import CONFIRMED, ConfirmationQueue, GaitConfirmJob, JumpConfirmJob
from posgraph.graph import EdgeStatus, PossibilityGraph
from posgraph.planner import Planner


class Stat:
    __slots__ = ("name", "phase", "calls", "incl", "self", "parents")

    def __init__(self, name: str, phase: str | None):
        self.name = name
        self.phase = phase
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.parents: Counter = Counter()


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.phase_s: Counter = Counter()
        self.latencies: list[int] = []
        self.depth_max = 0
        self._stack: list[list] = []  # open spans: [child_s, nested_phase_s, stat]
        self._solve = 0
        self._cycle = 0
        self._submitted: dict[tuple, int] = {}
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def span(self, name: str, fn, phase: str | None = None, before=None, after=None):
        """Wrap fn as span `name`; before(args) runs first and its value goes
        to after(args, kwargs, result, pre) once the call has returned."""
        st = self.stats.setdefault(name, Stat(name, phase))
        stack = self._stack
        phase_s = self.phase_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            pre = before(args) if before else None
            frame = [0.0, 0.0, st]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls += 1
                st.incl += dt
                st.self += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                    st.parents[stack[-1][2].name] += 1
                else:
                    st.parents[None] += 1
                if phase:
                    phase_s[phase] += dt - frame[1]
                    for outer in reversed(stack):
                        if outer[2].phase:
                            outer[1] += dt
                            break
            if after:
                after(args, kwargs, result, pre)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owners, attr: str, make):
        """Replace owner.attr in every owner by make(original), called once
        here, so one wrapper serves every module that looks the name up."""
        orig = getattr(owners[0], attr)
        wrapper = make(orig)
        for owner in owners:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- probes -----------------------------------------------------------

    def _condition(self, name: str):
        """Probe for a gait condition: distinct (tag, poses) inputs, passes
        and, for the necessary edge check, rejected edges."""
        distinct = self.distinct[name]
        counts = self.counts
        reject = "edges.necessary_rejected" if name == "actions.necessary_edge" else None

        def after(args, kwargs, result, pre):
            distinct.add((args[0].tag,) + args[1:])
            if result:
                counts[name + ".pass"] += 1
            elif reject:
                counts[reject] += 1

        return after

    def _start_solve(self, args):
        self._solve += 1
        self._cycle = 0

    def _tick(self, args):
        self._cycle += 1

    def _apex_after(self, args, kwargs, result, pre):
        if result is None:
            self.counts["edges.necessary_rejected"] += 1

    def _vertex_before(self, args):
        return args[0]._next_vid

    def _vertex_after(self, args, kwargs, result, pre):
        if result < pre:
            self.counts["graph.insert_vertex.dedup"] += 1

    def _edge_after(self, args, kwargs, result, pre):
        status = args[4] if len(args) > 4 else kwargs["status"]
        if result and status == EdgeStatus.SUFFICIENT:
            self.counts["edges.sufficient_accepted"] += 1

    def _confirm_before(self, args):
        g, path = args[0].graph, args[1]
        return [e for e in (g.edges.get(eid) for eid in path.edge_ids) if e and e.status == EdgeStatus.INDETERMINATE]

    def _confirm_after(self, args, kwargs, result, pre):
        self.counts["edges.sufficient_accepted"] += sum(e.status == EdgeStatus.SUFFICIENT for e in pre)

    def _submit_after(self, args, kwargs, result, pre):
        queue = args[0]
        self.counts["confirm.jobs_submitted"] += 1
        self._submitted[(self._solve, id(queue), result)] = self._cycle
        self.depth_max = max(self.depth_max, len(queue._pending))

    def _step_after(self, args, kwargs, result, pre):
        self.counts["confirm.quanta"] += result

    def _drain_after(self, args, kwargs, result, pre):
        for v in result:
            self.counts["edges.job_confirmed" if v.outcome == CONFIRMED else "edges.job_refuted"] += 1
            self.latencies.append(self._cycle - self._submitted.pop((self._solve, id(args[0]), v.job_id)))

    def _batch_after(self, args, kwargs, result, pre):
        self.counts["world._volume_clear_batch.samples"] += len(args[0])

    # -- installation -----------------------------------------------------

    def install(self):
        s = self.span
        for attr, phase, extra in (
            ("find_path", None, {"before": self._start_solve}),
            ("_init_endpoints", "init_endpoints", {}),
            ("_apply_verdicts", "apply_verdicts", {"before": self._tick}),
            ("perform_transitions", "perform_transitions", {}),
            ("grow_holonomic", "grow_holonomic", {}),
            ("connect", "connect", {}),
            ("grow_nonholonomic", "grow_nonholonomic", {}),
            ("_broadcast", "broadcast", {}),
            ("_link_goals", "link_goals", {}),
            ("_sample_target", "sample_target", {}),
            ("confirm_path", "confirm_path", {"before": self._confirm_before, "after": self._confirm_after}),
        ):
            name = "planner." + attr.lstrip("_")
            self._patch([Planner], attr, lambda f: s(name, f, phase, **extra))

        for attr, phase, extra in (
            ("insert_vertex", None, {"before": self._vertex_before, "after": self._vertex_after}),
            ("insert_edge", None, {"after": self._edge_after}),
            ("remove_edge", None, {}),
            ("subgraph_closest", None, {}),
            ("nearest_vertices", None, {}),
            ("connected", "extract", {}),
            ("shortest_path", "extract", {}),
            ("start_reachable_set", None, {}),
            ("goal_reaching_set", None, {}),
            ("reachable_from", None, {}),
            ("_bfs", None, {}),
            ("_rebuild_uf", None, {}),
        ):
            name = "graph." + attr.lstrip("_")
            self._patch([PossibilityGraph], attr, lambda f: s(name, f, phase, **extra))

        for attr in ("necessary_vertex", "sufficient_vertex", "necessary_edge", "sufficient_edge"):
            name = "actions." + attr
            self._patch([GaitAction], attr, lambda f: s(name, f, after=self._condition(name)))
        self._patch([JumpAction], "edge_apex", lambda f: s("actions.edge_apex", f, after=self._apex_after))
        self._patch([actions], "transition_feasible", lambda f: s("actions.transition_feasible", f))

        for owners, attr, extra in (
            ([actions, world], "volume_clear", {}),
            ([world, confirm], "_volume_clear_batch", {"after": self._batch_after}),
            ([actions, world], "swept_clear", {}),
            ([actions, world], "_floor_solid_batch", {}),
            ([world, actions, confirm], "floor_solid", {}),
            ([actions, world], "floor_point_solid", {}),
            ([actions, world], "parabola_clear", {}),
            ([planner, world], "segment_crosses_gap", {}),
        ):
            self._patch(owners, attr, lambda f: s("world." + attr, f, **extra))
        self._patch([planner, graph, world], "pose_distance", lambda f: self.count("world.pose_distance", f))

        self._patch([confirm], "solve_jump_bvp", lambda f: s("confirm.solve_jump_bvp", f))
        self._patch([ConfirmationQueue], "submit", lambda f: s("confirm.submit", f, after=self._submit_after))
        self._patch([ConfirmationQueue], "step", lambda f: s("confirm.queue_step", f, "queue_step", after=self._step_after))
        self._patch([ConfirmationQueue], "drain_verdicts", lambda f: s("confirm.drain_verdicts", f, after=self._drain_after))
        self._patch([GaitConfirmJob], "step", lambda f: s("confirm.job_step", f))
        self._patch([JumpConfirmJob], "step", lambda f: s("confirm.job_step", f))

    # -- reporting --------------------------------------------------------

    def table(self) -> list[dict]:
        """Every span name with its totals and enclosing-span counts."""
        return [
            {
                "name": st.name,
                "calls": st.calls,
                "incl_s": st.incl,
                "self_s": st.self,
                "parents": {str(k): v for k, v in sorted(st.parents.items(), key=lambda kv: str(kv[0]))},
            }
            for st in sorted(self.stats.values(), key=lambda st: -st.incl)
        ]
