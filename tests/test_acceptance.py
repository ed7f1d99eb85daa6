"""End-to-end gate: benchmark matrix, route structure, property oracles.

Eight checks, each printing one PASS/FAIL summary line to the terminal. The
benchmark matrix (8 scenario/action combos x 50 seeded trials, 60 s limit)
runs once and is shared by the checks that need it; everything else carries
its own oracle.
"""
import dataclasses
import hashlib
import json
import math
import random
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest

from posgraph import (
    Planner,
    PlannerConfig,
    Pose,
    RobotProfile,
    WorldModel,
    build_actions,
    builtin_scenario,
)
from posgraph.actions import transition_feasible
from posgraph.cli import EXIT_NO_PATH, main, run_benchmark
from posgraph.confirm import (
    CONFIRMED,
    ConfirmationQueue,
    EdgeSnapshot,
    JumpConfirmJob,
    Verdict,
    confirm_gait_edge,
    confirm_jump_edge,
    solve_jump_bvp,
)

from conftest import make_random_world, random_pose
from grid_oracle import GridOracle

ALL = ("walk", "crawl", "jump")
MATRIX = (
    ("three_routes_a", ("walk",)),
    ("three_routes_a", ("walk", "crawl")),
    ("three_routes_a", ALL),
    ("three_routes_b", ("walk", "crawl")),
    ("three_routes_b", ALL),
    ("three_routes_c", ALL),
    ("hallway", ALL),
    ("double_jump", ALL),
)
TRIALS = 50
TIME_LIMIT = 60.0
OK_STATUSES = ("sufficient-confirmed", "job-confirmed")

SHORT = {
    "three_routes_a": "a",
    "three_routes_b": "b",
    "three_routes_c": "c",
    "hallway": "hall",
    "double_jump": "dj",
}


def combo_label(name: str, acts) -> str:
    return f"{SHORT[name]}/{len(acts)}"


def scenario_with_actions(name: str, acts):
    return dataclasses.replace(builtin_scenario(name), actions=tuple(acts))


@pytest.fixture(scope="module")
def matrix():
    """50 seeded trials for every combo, solution edges kept for re-checks."""
    t0 = time.monotonic()
    results = {}
    for name, acts in MATRIX:
        sc = scenario_with_actions(name, acts)
        results[(name, acts)] = run_benchmark(sc, TRIALS, base_seed=0, time_limit=TIME_LIMIT)
    return SimpleNamespace(results=results, wall=time.monotonic() - t0)


def emit(capfd, ok: bool, label: str, detail: str) -> str:
    line = f"criterion {label}: {'PASS' if ok else 'FAIL'} [{detail}]"
    with capfd.disabled():
        print(line, flush=True)
    return line


# -- 1: success rates ------------------------------------------------------


def test_success_rates_and_suite_runtime(matrix, capfd):
    parts = []
    bad = []
    for name, acts in MATRIX:
        r = matrix.results[(name, acts)]
        need = 0.90 if name == "hallway" else 1.0
        parts.append(f"{combo_label(name, acts)} {100 * r.rate:.0f}%")
        if r.rate + 1e-12 < need:
            bad.append(f"{combo_label(name, acts)} {100 * r.rate:.0f}% < {100 * need:.0f}%")
    ok = not bad and matrix.wall < 1800.0
    line = emit(
        capfd, ok, "1 (success rates)", " ".join(parts) + f"; matrix {matrix.wall:.0f}s"
    )
    assert ok, line + ("; " + "; ".join(bad) if bad else "")


# -- 2: timing trend -------------------------------------------------------


def test_mean_time_grows_with_enabled_actions(matrix, capfd):
    series = [
        matrix.results[("three_routes_a", acts)].solved_times()
        for acts in (("walk",), ("walk", "crawl"), ALL)
    ]
    ok = all(len(t) >= 2 for t in series)
    means = [statistics.fmean(t) for t in series if t]
    if ok:
        for lo, hi in zip(series, series[1:]):
            # a dip is tolerated only inside one standard error of the gap
            se = math.sqrt(
                statistics.variance(lo) / len(lo) + statistics.variance(hi) / len(hi)
            )
            if statistics.fmean(hi) < statistics.fmean(lo) - se:
                ok = False
    medians = [
        statistics.median(matrix.results[key].solved_times() or [float("inf")])
        for key in ((name, acts) for name, acts in MATRIX)
    ]
    worst = max(medians)
    ok = ok and worst < 10.0
    detail = (
        "a means " + " -> ".join(f"{m:.3f}" for m in means) + f" s; worst median {worst:.3f}s"
    )
    line = emit(capfd, ok, "2 (timing trend)", detail)
    assert ok, line


# -- 3: required actions in routes -----------------------------------------


def test_solutions_use_required_actions(matrix, capfd):
    viol = []

    def solved(name, acts):
        return [r for r in matrix.results[(name, acts)].records if r.solved]

    for acts in (("walk", "crawl"), ALL):
        for r in solved("three_routes_b", acts):
            if r.tags.count("crawl") < 1:
                viol.append(f"b/{len(acts)} seed {r.seed} lacks crawl")
    for r in solved("three_routes_c", ALL):
        if r.tags.count("jump") < 1:
            viol.append(f"c seed {r.seed} lacks jump")
    for r in solved("hallway", ALL):
        if "crawl" not in r.tags or "jump" not in r.tags:
            viol.append(f"hall seed {r.seed} lacks crawl or jump")
        elif r.tags.index("crawl") > r.tags.index("jump"):
            viol.append(f"hall seed {r.seed} jumps before crawling")
    for r in solved("double_jump", ALL):
        if r.tags.count("jump") < 2:
            viol.append(f"dj seed {r.seed} has {r.tags.count('jump')} jumps")
    ok = not viol
    detail = f"{len(viol)} violations across the 50-trial sets"
    if viol:
        detail += ": " + "; ".join(viol[:3])
    line = emit(capfd, ok, "3 (route structure)", detail)
    assert ok, line


# -- 4: jump necessity controls --------------------------------------------


def test_jumpless_runs_time_out_and_grid_oracle_agrees(capfd):
    timeouts = 0
    for name in ("three_routes_c", "double_jump"):
        for t in range(10):
            rc = main(
                [
                    "solve", "--builtin", name, "--actions", "walk,crawl",
                    "--seed", str(t), "--time-limit", "10",
                ]
            )
            timeouts += rc == EXIT_NO_PATH
    oracle_ok = True
    for name in ("three_routes_c", "double_jump"):
        sc = builtin_scenario(name)
        orc = GridOracle(sc.world, sc.profile)
        start = (sc.start.x, sc.start.y)
        goal = (sc.goals[0].x, sc.goals[0].y)
        oracle_ok &= not orc.reachable(start, goal, allow_jump=False)
        oracle_ok &= orc.reachable(start, goal, allow_jump=True)
    ok = timeouts == 20 and oracle_ok
    line = emit(
        capfd, ok, "4 (jump necessity)",
        f"{timeouts}/20 exit-2 timeouts at 10s; grid oracle "
        + ("agrees" if oracle_ok else "DISAGREES"),
    )
    assert ok, line


# -- 5: condition soundness ------------------------------------------------


def _revalidate_record(sc, rec) -> list:
    """Fine re-check of every solution edge; returns failure descriptions."""
    by_tag = {a.tag: a for a in build_actions(sc.actions, sc.profile, sc.world)}
    bad = []
    for snap, status in rec.edges:
        if status not in OK_STATUSES:
            bad.append(f"edge {snap.edge_id} status {status}")
        elif snap.tag == "transition":
            if not transition_feasible(snap.pose_src, sc.profile, sc.world):
                bad.append(f"transition edge {snap.edge_id} infeasible")
        elif snap.tag == "jump":
            v = confirm_jump_edge(JumpConfirmJob(snap, sc.profile), sc.world)
            if v.outcome != CONFIRMED:
                bad.append(f"jump edge {snap.edge_id} refuted on re-check")
        else:
            v = confirm_gait_edge(by_tag[snap.tag].spawn_confirmation_job(snap), sc.world)
            if v.outcome != CONFIRMED:
                bad.append(f"{snap.tag} edge {snap.edge_id} refuted on re-check")
    return bad


def test_sufficient_implies_necessary_and_solution_edges_valid(matrix, capfd):
    rng = random.Random(90210)
    profile = RobotProfile()
    violations = 0
    cs_hits = {"walk": 0, "crawl": 0, "jump": 0}
    for w in range(20):
        world = make_random_world(rng, with_gaps=bool(w % 2))
        # each necessary condition is judged by its own action, so no memo of
        # the sufficient one can answer it
        judges = {j.tag: j for j in build_actions(ALL, profile, world)}
        for a in build_actions(ALL, profile, world):
            for _ in range(500):
                p = random_pose(rng, world)
                if a.tag != "jump" and rng.random() < 0.5:
                    p = Pose(p.x, p.y, p.theta, a.nominal_h)
                # the jump owns no manifold, so it has no vertex conditions to compare
                if a.tag != "jump" and a.sufficient_vertex(p):
                    cs_hits[a.tag] += 1
                    violations += not judges[a.tag].necessary_vertex(p)
            for _ in range(500):
                p0 = random_pose(rng, world)
                if a.tag != "jump" and rng.random() < 0.5:
                    p0 = Pose(p0.x, p0.y, p0.theta, a.nominal_h)
                x = min(max(p0.x + rng.uniform(-1.2, 1.2), world.bounds_x[0]), world.bounds_x[1])
                y = min(max(p0.y + rng.uniform(-1.2, 1.2), world.bounds_y[0]), world.bounds_y[1])
                h1 = p0.h if rng.random() < 0.7 else rng.uniform(0.0, 2.0)
                p1 = Pose(x, y, rng.uniform(-3.14, 3.14), h1)
                # the jump has no sufficient condition
                if a.tag != "jump" and a.sufficient_edge(p0, p1):
                    cs_hits[a.tag] += 1
                    violations += not judges[a.tag].necessary_edge(p0, p1)
    edge_total = 0
    edge_bad = []
    for name, acts in MATRIX:
        sc = scenario_with_actions(name, acts)
        for rec in matrix.results[(name, acts)].records:
            if rec.solved:
                edge_total += len(rec.edges)
                edge_bad.extend(_revalidate_record(sc, rec))
    # the sampled implication must not pass vacuously
    nonvacuous = cs_hits["walk"] >= 50 and cs_hits["crawl"] >= 50
    ok = violations == 0 and not edge_bad and nonvacuous
    detail = (
        f"{violations} violations in 60000 checks"
        f" (hits walk {cs_hits['walk']} crawl {cs_hits['crawl']});"
        f" {len(edge_bad)} bad of {edge_total} solution edges"
    )
    line = emit(capfd, ok, "5 (condition soundness)", detail)
    assert ok, line + ("; " + "; ".join(edge_bad[:5]) if edge_bad else "")


# -- 6: jump solver vs dense grid ------------------------------------------

GRID_N = 1_000_000
T_CAP = 2.5


def brute_min_speed(d: float, dz: float, profile: RobotProfile, ts) -> float | None:
    """Frozen flight-time scan: min take-off speed inside the angle window.

    Returns None when no sampled flight time lands in the window; the caller
    compares the speed against v_max itself.
    """
    vz = dz / ts + 0.5 * profile.g * ts
    phi = np.arctan2(vz, d / ts)
    mask = (phi >= profile.jump_angle_min) & (phi <= profile.jump_angle_max)
    if not mask.any():
        return None
    v2 = (d / ts[mask]) ** 2 + vz[mask] ** 2
    return float(math.sqrt(v2.min()))


def test_jump_solver_agrees_with_flight_time_grid(capfd):
    prof = RobotProfile()
    rng = random.Random(777)
    ts = np.linspace(1e-4, T_CAP, GRID_N)
    compared = skipped = 0
    mism = []
    max_dv = 0.0
    for i in range(1000):
        d = rng.uniform(0.05, 2.0)
        dz = rng.uniform(-0.8, 0.8)
        ang = rng.uniform(-3.14, 3.14)
        p0 = Pose(3.0, 3.0, ang, 1.2)
        p1 = Pose(3.0 + d * math.cos(ang), 3.0 + d * math.sin(ang), ang, 1.2 + dz)
        best = brute_min_speed(d, dz, prof, ts)
        traj = solve_jump_bvp(p0, p1, prof)
        if best is not None and abs(best - prof.v_max) < 1e-5:
            skipped += 1  # grid resolution cannot call the v_max boundary
            continue
        feasible_grid = best is not None and best <= prof.v_max
        if feasible_grid != (traj is not None):
            mism.append(f"pair {i} d={d:.3f} dz={dz:.3f} grid={best} solver={traj is not None}")
            continue
        compared += 1
        if traj is not None:
            dv = abs(traj.speed - best)
            max_dv = max(max_dv, dv)
            if dv > 1e-4:
                mism.append(f"pair {i} dv={dv:.2e}")
    level_ok = True
    for d in (0.25, 0.7, 1.0, 1.44):
        traj = solve_jump_bvp(Pose(0, 0, 0, 1.0), Pose(d, 0, 0, 1.0), prof)
        level_ok &= (
            traj is not None
            and abs(traj.speed - math.sqrt(prof.g * d)) <= 1e-4
            and abs(traj.elevation - math.pi / 4) <= 1e-4
        )
    ok = not mism and level_ok
    line = emit(
        capfd, ok, "6 (jump solver vs grid)",
        f"{compared} agree, {skipped} near-limit skipped, max dv {max_dv:.1e};"
        f" level ground {'ok' if level_ok else 'BAD'}",
    )
    assert ok, line + (": " + "; ".join(mism[:4]) if mism else "")


# -- 7: determinism --------------------------------------------------------


def test_single_worker_runs_are_byte_identical(matrix, capfd):
    sc = builtin_scenario("three_routes_c")
    outs = []
    for _ in range(5):
        config = PlannerConfig(t_max=TIME_LIMIT, seed=11)
        pl = Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, config)
        path = pl.find_path()
        assert path is not None
        payload = {"scenario": sc.name, "seed": 11, **pl.describe_path(path)}
        solution = json.dumps(payload, indent=2) + "\n"
        digest = hashlib.sha256(pl.graph.dump().encode()).hexdigest()
        outs.append((digest, solution))
    identical = all(o == outs[0] for o in outs)
    statuses_ok = all(
        status in OK_STATUSES
        for name, acts in MATRIX
        for rec in matrix.results[(name, acts)].records
        for _, status in rec.edges
    )
    ok = identical and statuses_ok
    line = emit(
        capfd, ok, "7 (determinism)",
        f"5 seed-11 runs byte-identical: {identical};"
        f" matrix solution edges all confirmed: {statuses_ok}",
    )
    assert ok, line


# -- 8: fair scheduling ----------------------------------------------------


class CountingJob:
    """Needs `steps` step calls to reach its verdict; logs its name then."""

    def __init__(self, steps: int, log: list, name: str):
        self.job_id = -1
        self.remaining = steps
        self.log = log
        self.name = name

    def step(self, world):
        self.remaining -= 1
        if self.remaining <= 0:
            self.log.append(self.name)
            snap = EdgeSnapshot(
                edge_id=0, tag="walk", src=0, dst=1,
                pose_src=Pose(0, 0, 0, 1), pose_dst=Pose(1, 0, 0, 1),
                cost=1.0, apex=None,
            )
            return Verdict(self.job_id, snap, CONFIRMED)
        return None


def test_one_worker_finishes_short_jobs_before_long(capfd):
    q = ConfirmationQueue(WorldModel((0, 1), (0, 1), [], []))
    log = []
    q.submit(CountingJob(10, log, "long"))
    for i in range(10):
        q.submit(CountingJob(1, log, f"short{i}"))
    while q.pending_count():
        q.step()
    verdicts = q.drain_verdicts()
    shorts_first = log[-1:] == ["long"] and sorted(log[:10]) == [f"short{i}" for i in range(10)]
    ok = len(verdicts) == 11 and shorts_first
    line = emit(
        capfd, ok, "8 (fair scheduling)",
        f"{len(verdicts)} verdicts, all 10 shorts before the long job: {shorts_first}",
    )
    assert ok, line + f"; log={log}"
