"""posgraph benchmark: one closed-loop client, one solve at a time, one process.

Run from the repository root:

    python3 perfbench/run.py --workload builtins --seed 0 --seconds 30 --trace 0

`--workload` is builtins or walled_off (see README.md beside this
file). `--seconds` sizes the run: each workload solves a fixed panel of
problems, four passes over it, whose baseline cost is about that many
seconds, so a faster program finishes the same panel sooner; `--seed` sets
the order of the passes. With `--trace 0` the run prints the end-to-end
metrics; with `--trace 1` it solves a short prefix of the panel untraced and
then traced, and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The run exits 1 after printing that line when a returned path fails the
independent re-check, a walled-off solve returns a path, or a repeated solve
differs; it exits 2 without a result when the posgraph sources are missing.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def die(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


if not (SRC / "posgraph" / "__init__.py").is_file():
    die(f"posgraph sources not found under {SRC}", 2)
sys.path.insert(0, str(SRC))

import posgraph  # noqa: E402
from posgraph import BUILTIN_NAMES, Planner, PlannerConfig, builtin_scenario  # noqa: E402
from posgraph.actions import build_actions, transition_feasible  # noqa: E402
from posgraph.confirm import (  # noqa: E402
    CONFIRMED,
    EdgeSnapshot,
    JumpConfirmJob,
    confirm_gait_edge,
    confirm_jump_edge,
)

if Path(posgraph.__file__).resolve().parent != SRC / "posgraph":
    die(f"imported posgraph from {posgraph.__file__}, not from {SRC}", 2)

OK_STATUSES = ("sufficient-confirmed", "job-confirmed")
WALLED_OFF = ("three_routes_c", "double_jump")
WALLED_ACTIONS = ("walk", "crawl")

# Baseline cost of one unit of each workload on a 2-CPU x86 container, used
# only to size a run from --seconds: a round of the five builtins, and one
# walled-off solve, which always runs to its limit.
BUILTIN_ROUND_S = 2.2
WALLED_T_MAX = 5.0
SOLVABLE_T_MAX = 60.0
TRACE_PREFIX = {"builtins": 5, "walled_off": 2}
SETUP_REPEATS = 5
# The panel is solved PASSES times, each pass in its own order. Repeats give
# the order statistics four samples per problem, so the median and the tail
# do not jump between problems whose times lie far apart, and every repeat
# checks determinism.
PASSES = 4


@dataclasses.dataclass(frozen=True)
class Job:
    scenario: str
    seed: int


@dataclasses.dataclass
class Workload:
    name: str
    sources: dict  # scenario key -> zero-argument callable returning a Scenario
    jobs: list[Job]
    t_max: float
    expect_path: bool


def make_workload(name: str, seed: int, seconds: float) -> Workload:
    """The workload's scenarios and solve list; the seed fixes their order.

    Each workload solves a fixed panel of problems, so every run measures the
    same work and the counts repeat exactly. Panels drawn from the seed were
    tried first: the spread between runs then came mostly from which
    problems a run drew, and stayed above the bounds (README.md).
    """
    rng = random.Random(seed)
    if name == "builtins":
        rounds = list(range(max(2, round(seconds / (PASSES * BUILTIN_ROUND_S)))))
        rng.shuffle(rounds)
        sources = {n: (lambda n=n: builtin_scenario(n)) for n in BUILTIN_NAMES}
        jobs = [Job(n, s) for s in rounds for n in BUILTIN_NAMES]
        return Workload(name, sources, jobs, SOLVABLE_T_MAX, True)
    if name == "walled_off":
        runs = list(range(max(2, round(seconds / (PASSES * WALLED_T_MAX)))))
        rng.shuffle(runs)
        sources = {
            s: (lambda s=s: dataclasses.replace(builtin_scenario(s), actions=WALLED_ACTIONS)) for s in WALLED_OFF
        }
        jobs = [Job(WALLED_OFF[i % 2], i) for i in runs]
        return Workload(name, sources, jobs, WALLED_T_MAX, False)
    raise ValueError(f"unknown workload {name!r}")


def make_planner(sc, job: Job, t_max: float) -> Planner:
    config = PlannerConfig(t_max=t_max, seed=job.seed, workers=1)
    return Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, config)


# -- set-up ------------------------------------------------------------------

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import posgraph; print(time.perf_counter() - t)"
)


def measure_setup(wl: Workload) -> tuple[float, float]:
    """(setup_s, parse_s), each the median of SETUP_REPEATS tries.

    Package import is timed in fresh interpreters, since this process has
    imported posgraph already. Parsing or building every scenario of the
    workload and constructing one planner for each is timed here.
    """
    imports = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=60
        )
        imports.append(float(out.stdout))
    parses, builds = [], []
    job_for = {job.scenario: job for job in wl.jobs}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        scenarios = {k: make() for k, make in wl.sources.items()}
        t1 = time.perf_counter()
        for k, sc in scenarios.items():
            make_planner(sc, job_for[k], wl.t_max)
        t2 = time.perf_counter()
        parses.append(t1 - t0)
        builds.append(t2 - t0)
    return statistics.median(imports) + statistics.median(builds), statistics.median(parses)


# -- solving and checking ------------------------------------------------------


@dataclasses.dataclass
class Solve:
    job: Job
    seconds: float
    cycles: int
    vertices: int
    edges: int
    cost: float | None
    path_edges: list  # (EdgeSnapshot, status value) along the returned path
    dump: str
    log: str


def solve(sc, job: Job, t_max: float, keep_text: bool) -> Solve:
    """One timed find_path. The dump and log are kept whole when keep_text
    is set and as SHA-256 digests otherwise, so that stored solves do not
    weigh on the peak RSS of long runs."""
    planner = make_planner(sc, job, t_max)
    t0 = time.perf_counter()
    path = planner.find_path()
    seconds = time.perf_counter() - t0
    g = planner.graph
    path_edges = []
    if path is not None:
        for eid in path.edge_ids:
            e = g.edges[eid]
            snap = EdgeSnapshot(e.id, e.tag, e.src, e.dst, g.vertices[e.src].pose, g.vertices[e.dst].pose, e.cost, e.apex)
            path_edges.append((snap, e.status.value))
    dump, log = g.dump(), planner.event_log()
    if not keep_text:
        dump, log = (hashlib.sha256(text.encode()).hexdigest() for text in (dump, log))
    cost = path.cost if path is not None else None
    return Solve(job, seconds, planner.stats.cycles, len(g.vertices), len(g.edges), cost, path_edges, dump, log)


def recheck(sc, s: Solve, expect_path: bool) -> list[str]:
    """Problems with a solve's outcome, re-derived with public library calls."""
    label = f"{s.job.scenario} seed {s.job.seed}"
    if not expect_path:
        return [f"{label}: returned a path on a walled-off world"] if s.path_edges else []
    if not s.path_edges:
        return [f"{label}: no path within {s.seconds:.1f}s"]
    by_tag = {a.tag: a for a in build_actions(("walk", "crawl"), sc.profile, sc.world)}
    bad = []
    snaps = [snap for snap, _ in s.path_edges]
    if snaps[0].pose_src != sc.start or snaps[-1].pose_dst not in sc.goals:
        bad.append(f"{label}: path does not run from the start to a goal")
    bad += [f"{label}: edges {a.edge_id} and {b.edge_id} do not chain" for a, b in zip(snaps, snaps[1:]) if a.dst != b.src]
    if not math.isclose(sum(snap.cost for snap in snaps), s.cost, rel_tol=1e-9, abs_tol=1e-9):
        bad.append(f"{label}: path cost {s.cost} is not the sum of its edge costs")
    for snap, status in s.path_edges:
        where = f"{label}: {snap.tag} edge {snap.edge_id}"
        if status not in OK_STATUSES:
            bad.append(f"{where} has status {status}")
        elif snap.tag == "transition":
            if not transition_feasible(snap.pose_src, sc.profile, sc.world):
                bad.append(f"{where} is infeasible")
        elif snap.tag == "jump":
            if confirm_jump_edge(JumpConfirmJob(snap, sc.profile), sc.world).outcome != CONFIRMED:
                bad.append(f"{where} is refuted on re-check")
        elif confirm_gait_edge(by_tag[snap.tag].spawn_confirmation_job(snap), sc.world).outcome != CONFIRMED:
            bad.append(f"{where} is refuted on re-check")
    return bad


def same_run(a: Solve, b: Solve, expect_path: bool) -> bool:
    """Byte-identical graph dump and event log (compared by digest).

    A walled-off solve stops on wall time, so two runs may stop after
    different cycles. There the graph only grows, so the shorter run's log
    must be a prefix of the longer one's and its dump lines a subset; those
    solves keep their text.
    """
    if expect_path:
        return a.dump == b.dump and a.log == b.log
    short, long_ = sorted((a, b), key=lambda s: s.cycles)
    return long_.log.startswith(short.log) and set(short.dump.splitlines()) <= set(long_.dump.splitlines())


def solve_passes(scenarios: dict, wl: Workload, jobs: list[Job], rng: random.Random, failures: list[str]) -> list[Solve]:
    """Every solve of PASSES passes over the jobs, the first pass in the
    given order and the others shuffled. Each repeat must reproduce the
    job's first solve."""
    first: dict[Job, Solve] = {}
    solves = []
    for p in range(PASSES):
        for job in jobs if p == 0 else rng.sample(jobs, len(jobs)):
            s = solve(scenarios[job.scenario], job, wl.t_max, not wl.expect_path)
            solves.append(s)
            if not same_run(first.setdefault(job, s), s, wl.expect_path):
                failures.append(f"{job.scenario} seed {job.seed}: repeated solve gave a different graph dump or event log")
    return solves


# -- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least 10
    samples above it. With 20 samples or fewer that statistic is the median
    or below it, so the maximum stands in for it."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n > 20 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, scenarios: dict, solves: list[Solve], correct: int, setup_s: float) -> dict:
    times = [s.seconds for s in solves]
    tail_s, tail_pct = tail(times)
    costs = [s.cost for s in solves if s.cost is not None]
    if wl.expect_path:
        cost = statistics.median(costs)
    else:
        # no path is the correct outcome here, so there is no cost to
        # report; the straight-line distance is the bound any path would meet
        cost = statistics.median(
            math.hypot(g.x - sc.start.x, g.y - sc.start.y) for sc in scenarios.values() for g in sc.goals[:1]
        )
    print(f"solve_s.tail is the p{tail_pct:.1f} of n={len(times)} solves")
    return {
        "setup_s": metric(setup_s, "s"),
        "solve_s.p50": metric(statistics.median(times), "s"),
        "solve_s.tail": metric(tail_s, "s"),
        "solves_per_s": metric(len(solves) / sum(times), "1/s"),
        "solved_frac": metric(correct / len(solves), "ratio"),
        "path_cost.p50": metric(cost, "m"),
        "grown_vertices_per_s": metric(sum(s.vertices for s in solves) / sum(times), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tr, untraced: list[Solve], traced: list[Solve], parse_s: float) -> dict:
    st = tr.stats
    find_s = st["planner.find_path"].incl
    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    def per_call(name):
        s = st[name]
        return s.incl / s.calls * 1e6 if s.calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    put("planner.cycles", statistics.fmean(s.cycles for s in untraced), "count")
    for phase in ("perform_transitions", "grow_holonomic", "connect", "grow_nonholonomic", "confirm_path", "extract", "queue_step"):
        put(f"planner.{phase}.self_s", tr.phase_s[phase], "s")
        put(f"planner.{phase}.share", ratio(tr.phase_s[phase], find_s), "ratio")
    put("planner.trace_cover", ratio(sum(tr.phase_s.values()), find_s), "ratio")
    # tracing stretches every cycle; on walled_off it also cuts cycles short,
    # so the overhead is compared per cycle and scaled to the untraced run
    plain_s = sum(s.seconds for s in untraced)
    plain_cycles = sum(s.cycles for s in untraced)
    traced_per_cycle = sum(s.seconds for s in traced) / sum(s.cycles for s in traced)
    overhead_s = (traced_per_cycle - plain_s / plain_cycles) * plain_cycles
    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_share", overhead_s / plain_s, "ratio")

    for fn in ("necessary_vertex", "sufficient_vertex", "necessary_edge", "sufficient_edge"):
        name = f"actions.{fn}"
        put(f"{name}.calls", st[name].calls, "count")
        put(f"{name}.us_per_call", per_call(name), "us")
        put(f"{name}.distinct_ratio", ratio(len(tr.distinct[name]), st[name].calls), "ratio")
    for name in ("actions.transition_feasible", "actions.edge_apex"):
        put(f"{name}.calls", st[name].calls, "count")
        put(f"{name}.us_per_call", per_call(name), "us")
    put("actions.sufficient_edge.pass_ratio", ratio(tr.counts["actions.sufficient_edge.pass"], st["actions.sufficient_edge"].calls), "ratio")

    for fn in ("volume_clear", "_volume_clear_batch", "swept_clear", "floor_solid", "floor_point_solid", "parabola_clear", "segment_crosses_gap"):
        name = f"world.{fn}"
        put(f"{name}.calls", st[name].calls, "count")
        put(f"{name}.us_per_call", per_call(name), "us")
    batch = st["world._volume_clear_batch"].calls
    put("world._volume_clear_batch.samples_per_call", ratio(tr.counts["world._volume_clear_batch.samples"], batch), "count")
    put("world.pose_distance.calls", tr.counts["world.pose_distance"], "count")

    for fn in ("insert_vertex", "insert_edge", "subgraph_closest", "nearest_vertices", "shortest_path"):
        name = f"graph.{fn}"
        put(f"{name}.calls", st[name].calls, "count")
        put(f"{name}.us_per_call", per_call(name), "us")
    put("graph.insert_vertex.dedup_ratio", ratio(tr.counts["graph.insert_vertex.dedup"], st["graph.insert_vertex"].calls), "ratio")
    put("graph.remove_edge.calls", st["graph.remove_edge"].calls, "count")
    # a query recomputes when it runs a breadth-first search; the planner's
    # own _bfs calls that mask jump seeds are not reachability queries
    reach = ("graph.start_reachable_set", "graph.goal_reaching_set", "graph.reachable_from")
    queries = sum(st[q].calls for q in reach)
    recomputes = sum(st["graph.bfs"].parents[q] for q in reach)
    put("graph.reach.queries", queries, "count")
    put("graph.reach.recompute_ratio", ratio(recomputes, queries), "ratio")
    put("graph.uf_rebuilds", st["graph.rebuild_uf"].calls, "count")
    put("graph.vertices_final", sum(s.vertices for s in untraced), "count")
    put("graph.edges_final", sum(s.edges for s in untraced), "count")

    verdicts = tr.counts["edges.job_confirmed"] + tr.counts["edges.job_refuted"]
    put("confirm.jobs_submitted", tr.counts["confirm.jobs_submitted"], "count")
    put("confirm.quanta", tr.counts["confirm.quanta"], "count")
    put("confirm.step.self_s", st["confirm.queue_step"].self + st["confirm.job_step"].self, "s")
    put("confirm.solve_jump_bvp.calls", st["confirm.solve_jump_bvp"].calls, "count")
    put("confirm.solve_jump_bvp.us_per_call", per_call("confirm.solve_jump_bvp"), "us")
    put("confirm.refuted_ratio", ratio(tr.counts["edges.job_refuted"], verdicts), "ratio")
    put("confirm.latency_cycles.p50", statistics.median(tr.latencies) if tr.latencies else 0.0, "count")
    put("confirm.latency_cycles.max", max(tr.latencies, default=0), "count")
    put("confirm.queue_depth.max", tr.depth_max, "count")

    for name in ("edges.necessary_rejected", "edges.sufficient_accepted", "edges.job_confirmed", "edges.job_refuted"):
        put(name, tr.counts[name], "count")
    put("scenarios.parse_s", parse_s, "s")
    return out


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("builtins", "walled_off"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = make_workload(args.workload, args.seed, args.seconds)
    setup_s, parse_s = measure_setup(wl)
    scenarios = {k: make() for k, make in wl.sources.items()}
    jobs = wl.jobs[: TRACE_PREFIX[wl.name]] if args.trace else wl.jobs

    rng = random.Random(args.seed)
    failures: list[str] = []
    solves = solve_passes(scenarios, wl, jobs, rng, failures)
    # repeats reproduce the first solve of their job, so one re-check each
    problems = {s.job: recheck(scenarios[s.job.scenario], s, wl.expect_path) for s in solves[: len(jobs)]}
    failed_solves = sum(1 for s in solves if problems[s.job])
    failures += [line for p in problems.values() for line in p]

    if args.trace:
        from tracer import Tracer

        tr = Tracer()
        tr.install()
        try:
            traced = solve_passes(scenarios, wl, jobs, random.Random(args.seed), failures)
        finally:
            tr.uninstall()
        for a, b in zip(solves, traced):
            if not same_run(a, b, wl.expect_path):
                failures.append(f"{a.job.scenario} seed {a.job.seed}: traced solve differs from the untraced one")
        metrics = per_layer(tr, solves, traced, parse_s)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{wl.name}-{args.seed}.json", "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "jobs": [dataclasses.asdict(j) for j in jobs], "spans": tr.table()}, fh, indent=1)
    else:
        metrics = end_to_end(wl, scenarios, solves, len(solves) - failed_solves, setup_s)

    for problem in failures:
        print(f"FAIL {problem}")
    result = {"correct": not failures, "attempted": len(solves), "failed": failed_solves, "metrics": metrics}
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
