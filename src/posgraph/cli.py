"""Command line front end: solve one scenario, benchmark repeatedly, or
render a world to SVG.

Exit codes: 0 success, 1 bad input or an output file that cannot be written,
2 no path found within the time limit.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from dataclasses import dataclass, replace

from .planner import Planner, PlannerConfig
from .render import render_svg
from .scenarios import BUILTIN_NAMES, Scenario, builtin_scenario, emit_scenario, parse_actions, scenario_from_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_PATH = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT: argparse's own 2 is EXIT_NO_PATH."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_scenario_args(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a builtin scenario")
    src.add_argument("--scenario", metavar="FILE", help="load a scenario from a JSON file")
    p.add_argument("--actions", help="comma separated subset, e.g. walk,crawl")


def _add_planner_args(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=60.0, metavar="SECONDS")


def _load_scenario(args) -> Scenario:
    if args.builtin:
        sc = builtin_scenario(args.builtin)
    else:
        try:
            with open(args.scenario) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read scenario file: {exc}") from None
        sc = scenario_from_json(text)
    if args.actions:
        sc = replace(sc, actions=parse_actions([a.strip() for a in args.actions.split(",") if a.strip()]))
    return sc


def _check_outputs(args, flags: tuple[str, ...]):
    """Raises unless each path given for these flags is in an existing
    directory and is not one, so a mistyped path fails before the search."""
    for flag in flags:
        path = getattr(args, flag)
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"--{flag} {path}: directory {parent} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"--{flag} {path}: is a directory")


def _make_planner(sc: Scenario, args) -> Planner:
    config = PlannerConfig(t_max=args.time_limit, seed=args.seed)
    return Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, config)


def cmd_solve(args) -> int:
    _check_outputs(args, ("out", "dump", "log", "svg"))
    sc = _load_scenario(args)
    planner = _make_planner(sc, args)
    path = planner.find_path()
    st = planner.stats
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(planner.graph.dump())
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(planner.event_log())
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(sc.world, planner.graph, path))
    if path is None:
        print(
            f"{sc.name}: no path found within {args.time_limit:.1f}s "
            f"({st.cycles} cycles, {planner.graph.vertex_count()} vertices)"
        )
        return EXIT_NO_PATH
    if args.out:
        payload = {"scenario": sc.name, "seed": args.seed, **planner.describe_path(path)}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    counts = {}
    for eid in path.edge_ids:
        tag = planner.graph.edges[eid].tag
        counts[tag] = counts.get(tag, 0) + 1
    seq = " ".join(f"{tag}:{n}" for tag, n in sorted(counts.items()))
    print(
        f"{sc.name}: solved cost={path.cost:.3f} edges={len(path.edge_ids)} [{seq}] "
        f"time={st.elapsed:.3f}s cycles={st.cycles} "
        f"jobs={st.jobs_confirmed}+/{st.jobs_refuted}-"
    )
    return EXIT_OK


@dataclass
class TrialRecord:
    trial: int
    seed: int
    solved: bool
    elapsed: float
    cost: float | None
    tags: tuple[str, ...] = ()
    edges: tuple = ()  # (EdgeSnapshot, status value) pairs, one per path edge


@dataclass
class BenchResult:
    name: str
    records: list[TrialRecord]

    @property
    def successes(self) -> int:
        return sum(1 for r in self.records if r.solved)

    @property
    def rate(self) -> float:
        return self.successes / len(self.records) if self.records else 0.0

    def solved_times(self) -> list[float]:
        return [r.elapsed for r in self.records if r.solved]


def run_benchmark(
    sc: Scenario,
    trials: int,
    base_seed: int = 0,
    time_limit: float = 60.0,
) -> BenchResult:
    """Repeated solves with consecutive seeds; shared by the CLI and tests.

    Each per-trial record also carries each solution edge as a (snapshot,
    status) pair so callers can re-validate paths afterwards.
    """
    from .confirm import EdgeSnapshot

    records = []
    for t in range(trials):
        seed = base_seed + t
        config = PlannerConfig(t_max=time_limit, seed=seed)
        planner = Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, config)
        path = planner.find_path()
        tags = ()
        edges = ()
        if path is not None:
            g = planner.graph
            tags = tuple(g.edges[eid].tag for eid in path.edge_ids)
            edges = tuple((EdgeSnapshot.of_edge(g, g.edges[eid]), g.edges[eid].status.value) for eid in path.edge_ids)
        records.append(
            TrialRecord(
                trial=t,
                seed=seed,
                solved=path is not None,
                elapsed=planner.stats.elapsed,
                cost=path.cost if path else None,
                tags=tags,
                edges=edges,
            )
        )
    return BenchResult(sc.name, records)


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    _check_outputs(args, ("csv",))
    sc = _load_scenario(args)
    result = run_benchmark(sc, args.trials, args.seed, args.time_limit)
    times = result.solved_times()
    mean = statistics.fmean(times) if times else float("nan")
    median = statistics.median(times) if times else float("nan")
    worst = max(times) if times else float("nan")
    print(f"{'scenario':<16} {'actions':<18} {'trials':>6} {'success':>8} {'mean_s':>8} {'median_s':>9} {'max_s':>8}")
    print(
        f"{result.name:<16} {'+'.join(sc.actions):<18} {len(result.records):>6} "
        f"{100.0 * result.rate:>7.1f}% {mean:>8.3f} {median:>9.3f} {worst:>8.3f}"
    )
    if args.csv:
        with open(args.csv, "a", newline="") as fh:
            writer = csv.writer(fh)
            if fh.tell() == 0:
                writer.writerow(["scenario", "actions", "trial", "seed", "solved", "elapsed", "cost"])
            for r in result.records:
                writer.writerow(
                    [
                        result.name,
                        "+".join(sc.actions),
                        r.trial,
                        r.seed,
                        int(r.solved),
                        f"{r.elapsed:.6f}",
                        "" if r.cost is None else f"{r.cost:.6f}",
                    ]
                )
    return EXIT_OK if result.successes else EXIT_NO_PATH


def cmd_render(args) -> int:
    sc = _load_scenario(args)
    with open(args.out, "w") as fh:
        fh.write(render_svg(sc.world))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_show(args) -> int:
    sc = _load_scenario(args)
    json.dump(emit_scenario(sc), sys.stdout, indent=2)
    print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posgraph",
        description="multi-action motion planning over walk, crawl and jump",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="plan one scenario and report the path")
    _add_scenario_args(p)
    _add_planner_args(p)
    p.add_argument("--out", metavar="FILE", help="write the solved path as JSON")
    p.add_argument("--dump", metavar="FILE", help="write the final graph as text")
    p.add_argument("--log", metavar="FILE", help="write the planner event log")
    p.add_argument("--svg", metavar="FILE", help="render world, graph and path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run repeated trials and summarize")
    _add_scenario_args(p)
    _add_planner_args(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--csv", metavar="FILE", help="append per-trial records")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="render the bare world to SVG")
    _add_scenario_args(p)
    p.add_argument("--out", metavar="FILE", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("show", help="print a scenario as JSON")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    # after BrokenPipeError, which is an OSError too
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
