"""Paired in-process timing of two posgraph source trees, led by an exactness check.

Run from anywhere, with the `src` directories of the two trees to compare:

    python3 tools/paired_timing.py BASE/src CHANGE/src --reps 8

Each tree's `posgraph` package is copied into a temporary directory under a
name of its own, so both load in one process and their relative imports
keep working. A repetition solves the five builtins at seeds 0 to 39 with
both packages, back to back per problem; the side that goes first
alternates from problem to problem, and the whole order is reversed on odd
repetitions, so drift in CPU speed falls on both sides alike. A solve is timed from building the planner to the return of
`find_path`, under a time limit no builtin solve comes near, so both sides
always do the whole search.

Every solve is hashed (graph dump, event log and `describe_path` JSON). The
run exits 1 at the end of the first repetition whose combined SHA-256
differs between the two sides, or from a side's own first repetition: a
timing of two programs that do not do the same work means nothing.
Otherwise it prints, per repetition, the summed solve time of each side and
their ratio (change over base), and at the end the median ratio and in how
many repetitions the change was faster.

The builtin solves are short (1,702 cycles over the 200), so before timing
them, the run also checks and times long insert-only growth: walk,crawl
cannot solve three_routes_c or double_jump, and each side solves both at
seeds 0 to 2 under a counting clock, the side that goes first alternating
from solve to solve. Each `time.monotonic()` read in that side's `planner`
module advances 1 s, and `t_max` is 1,500, so every solve does the same
work on any machine; the three_routes_c graphs grow past
`graph.SCAN_VERTICES` vertices a tag, from where `subgraph_closest` walks
its vertex grid. The run exits 1 if the combined dump and log SHA-256
differs between the sides; otherwise it prints the summed time of each
side's walled-off solves and their ratio.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import itertools
import json
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

SIDES = ("base", "change")
SEEDS = 40
T_MAX = 60.0
WALLED_OFF = ("three_routes_c", "double_jump")
WALLED_SEEDS = 3
WALLED_READS = 1500


def load(src: Path, name: str, tmp: Path):
    """Import the posgraph package under `src` as the module `name`."""
    pkg = src / "posgraph"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"paired_timing: no posgraph package under {src}")
    shutil.copytree(pkg, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def solve(pg, name: str, seed: int) -> tuple[float, bytes, int]:
    """One builtin solve: its time in seconds, its digest and its cycle count."""
    sc = pg.builtin_scenario(name)
    t0 = time.perf_counter()
    planner = pg.Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, pg.PlannerConfig(t_max=T_MAX, seed=seed))
    path = planner.find_path()
    elapsed = time.perf_counter() - t0
    h = hashlib.sha256()
    h.update(planner.graph.dump().encode())
    h.update(planner.event_log().encode())
    described = planner.describe_path(path) if path is not None else None
    h.update(json.dumps(described, sort_keys=True).encode())
    return elapsed, h.digest(), planner.stats.cycles


def walled_off(pg, name: str, seed: int) -> tuple[float, bytes, int]:
    """One walk,crawl walled-off solve stopped after WALLED_READS reads of a
    counting clock: its time in seconds, its dump and log digest and its
    cycle count."""
    planner_mod = importlib.import_module(f"{pg.__name__}.planner")
    sc = dataclasses.replace(pg.builtin_scenario(name), actions=("walk", "crawl"))
    planner_mod.time = types.SimpleNamespace(monotonic=lambda c=itertools.count(): float(next(c)))
    try:
        t0 = time.perf_counter()
        config = pg.PlannerConfig(t_max=WALLED_READS, seed=seed)
        planner = pg.Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, config)
        planner.find_path()
        elapsed = time.perf_counter() - t0
    finally:
        planner_mod.time = time
    h = hashlib.sha256()
    h.update(planner.graph.dump().encode())
    h.update(planner.event_log().encode())
    return elapsed, h.digest(), planner.stats.cycles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="src directory of the base tree")
    ap.add_argument("change", type=Path, help="src directory of the changed tree")
    ap.add_argument("--reps", type=int, default=8, help="repetitions of the whole panel (default 8)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")

    with tempfile.TemporaryDirectory(prefix="paired_timing_") as tmp:
        sys.path.insert(0, tmp)
        pkgs = [load(src.resolve(), f"posgraph_{side}", Path(tmp)) for src, side in zip((args.base, args.change), SIDES)]
        totals = [0.0, 0.0]
        hashes = [hashlib.sha256(), hashlib.sha256()]
        cycles = [0, 0]
        walled = [(name, seed) for name in WALLED_OFF for seed in range(WALLED_SEEDS)]
        for k, (name, seed) in enumerate(walled):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                elapsed, digest, n = walled_off(pkgs[side], name, seed)
                totals[side] += elapsed
                hashes[side].update(digest)
                cycles[side] += n
        digests = [h.hexdigest() for h in hashes]
        if digests[0] != digests[1]:
            print(f"paired_timing: walled-off digests differ: {SIDES[0]} {digests[0]}, {SIDES[1]} {digests[1]}")
            return 1
        print(f"identical: {len(walled)} walled-off solves, sha256 {digests[0]}, cycles {cycles[0]} and {cycles[1]}")
        ratio = totals[1] / totals[0]
        print(f"walled-off: {SIDES[0]} {totals[0]:.3f} s  {SIDES[1]} {totals[1]:.3f} s  ratio {ratio:.4f}", flush=True)
        problems = [(name, seed) for seed in range(SEEDS) for name in pkgs[0].BUILTIN_NAMES]
        first_digests = None
        ratios = []
        for rep in range(args.reps):
            totals = [0.0, 0.0]
            hashes = [hashlib.sha256(), hashlib.sha256()]
            cycles = [0, 0]
            for k, (name, seed) in enumerate(problems):
                order = (0, 1) if (k + rep) % 2 == 0 else (1, 0)
                for side in order:
                    elapsed, digest, n = solve(pkgs[side], name, seed)
                    totals[side] += elapsed
                    hashes[side].update(digest)
                    cycles[side] += n
            digests = [h.hexdigest() for h in hashes]
            if digests[0] != digests[1] or (first_digests is not None and digests != first_digests):
                print(f"paired_timing: digests differ in repetition {rep}: {SIDES[0]} {digests[0]}, {SIDES[1]} {digests[1]}")
                return 1
            if first_digests is None:
                first_digests = digests
                print(f"identical: {len(problems)} solves, sha256 {digests[0]}, cycles {cycles[0]} and {cycles[1]}")
            ratio = totals[1] / totals[0]
            ratios.append(ratio)
            print(f"rep {rep}: {SIDES[0]} {totals[0]:.3f} s  {SIDES[1]} {totals[1]:.3f} s  ratio {ratio:.4f}", flush=True)
        wins = sum(r < 1.0 for r in ratios)
        print(f"median ratio {statistics.median(ratios):.4f}; {SIDES[1]} faster in {wins} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
