"""Recorded digests of builtin solves: a determinism check that spans commits.
A change that alters the graph dump or the event log of any builtin with a
fixed seed fails here, even if every other test still passes. The seed-0
digests hold for the library and for a CLI solve with default flags alike;
seeds 1-9 are checked through the library."""
import hashlib
import json
from pathlib import Path

import pytest

from posgraph import BUILTIN_NAMES, Planner, PlannerConfig, builtin_scenario
from posgraph.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_builtins_seed0.json").read_text())["sha256"]
GOLDEN_SEEDS = json.loads((DATA / "golden_builtins_seeds1to9.json").read_text())["sha256"]


def _solve_digest(name, seed):
    sc = builtin_scenario(name)
    planner = Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, PlannerConfig(t_max=60.0, seed=seed))
    assert planner.find_path() is not None
    text = planner.graph.dump() + planner.event_log()
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_builtin():
    assert sorted(GOLDEN) == sorted(BUILTIN_NAMES)
    assert sorted(GOLDEN_SEEDS) == sorted(BUILTIN_NAMES)
    assert all(sorted(GOLDEN_SEEDS[name], key=int) == [str(s) for s in range(1, 10)] for name in BUILTIN_NAMES)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_seed0_solve_reproduces_recorded_digest(name):
    assert _solve_digest(name, 0) == GOLDEN[name]


@pytest.mark.parametrize("seed", range(1, 10))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_seed_matrix_solve_reproduces_recorded_digest(name, seed):
    assert _solve_digest(name, seed) == GOLDEN_SEEDS[name][str(seed)]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_default_flag_cli_solve_reproduces_recorded_digest(name, tmp_path, capsys):
    dump, log = tmp_path / "graph.txt", tmp_path / "events.log"
    assert main(["solve", "--builtin", name, "--seed", "0", "--dump", str(dump), "--log", str(log)]) == EXIT_OK
    text = dump.read_text() + log.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
